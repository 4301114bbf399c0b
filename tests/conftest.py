import pytest

from muonlab import matcore


@pytest.fixture
def two_blas_threads():
    """The BLAS thread getter, with the count at 2 for the test and restored after."""
    if matcore._BLAS_THREADS is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread control")
    get_threads, set_threads = matcore._BLAS_THREADS
    previous = get_threads()
    set_threads(2)
    try:
        yield get_threads
    finally:
        set_threads(previous)
