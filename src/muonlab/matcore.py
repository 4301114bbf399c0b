"""Dense matrix primitives: norms, singular values and polar factors.

All functions are pure, operate on float64 2-D numpy arrays, and are
deterministic for fixed inputs.
svd, the Frobenius, nuclear and weighted norms and the polar factors also
take a (k, m, n) stack and give each slice bit for bit its 2-D result: each
has one code path over the leading axes, a 2-D matrix runs it as a
one-matrix stack, and per_matrix returns such a matrix's value as a float.
Every SVD runs on one BLAS thread (see _lapack_svd), and inside
one_blas_thread every BLAS call does.
"""

from __future__ import annotations

import contextlib
import ctypes

import numpy as np

# Truncation threshold for the rank decision in orthogonalize_svd, relative to
# the largest singular value.
RANK_TOL = 1e-10

# Per-step quintic coefficients for orthogonalize_ns.  Step k applies
# X <- a*X + b*(X X^T) X + c*(X X^T)^2 X with (a, b, c) = NS_COEFFS[k].
# The schedule was fitted by equioscillation so that the 5-step composition
# maps every singular value s in [0.0025, 1] of the Frobenius-normalized input
# to within 1.1e-2 of 1.  That covers condition numbers up to ~100 for inner
# dimensions up to 16, and far larger condition numbers when the spectrum is
# not adversarial.
NS_COEFFS = (
    (8.4051777065, -24.8508072912, 18.4246170287),
    (4.0771741175, -3.0350424167, 0.5722070526),
    (3.6057913975, -2.6996329798, 0.5340115005),
    (2.6177330845, -1.9412888953, 0.4486398450),
    (1.9449339801, -1.3256873940, 0.3826455631),
)

DEFAULT_NS_STEPS = 5

# (get, set) thread-count functions of the OpenBLAS that numpy.linalg links:
# the scipy-openblas64 names of the numpy wheels, then the plain ones.
_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _find_blas_threads():
    """The (get, set) pair of _THREAD_SYMBOLS that numpy's BLAS exports, or None."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for get_name, set_name in _THREAD_SYMBOLS:
        get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


_BLAS_THREADS = _find_blas_threads()


def _swap_blas_threads(count):
    """Set BLAS to count threads and return the count it had.

    Without the OpenBLAS thread functions, or for a count of None (the
    return value then), nothing is set and None comes back.
    """
    if _BLAS_THREADS is None or count is None:
        return None
    get_threads, set_threads = _BLAS_THREADS
    previous = get_threads()
    set_threads(count)
    return previous


def _lapack_svd(M: np.ndarray, compute_uv: bool = True):
    """np.linalg.svd(M, full_matrices=False, compute_uv=compute_uv) inside one_blas_thread.

    With numpy 2.4.6 and OpenBLAS 0.3.31 on 2 cores, the thin SVDs of 15x20,
    10x196, 64x128 and 100x196 inputs came out bit for bit the same on 1 and
    2 threads, and a (9, 100, 196) stack took about 30 ms on 1 against
    46-50 ms on 2 (BENCH_svd_one_thread.json).  Products do change in their
    last bits on one thread (the linear-MSE gradient does), so only the
    factorization runs here and every product keeps the process's count.

    Inside a thread pool's scope the count is 1 already, so the nested scope
    sets and restores 1, also when jobs on several threads nest it at
    once.  A BLAS without the OpenBLAS thread functions (MKL, Accelerate)
    makes this the plain call.
    """
    with one_blas_thread():
        return np.linalg.svd(M, full_matrices=False, compute_uv=compute_uv)


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with every BLAS call on one thread.

    The previous thread count comes back on exit, also when the block raises.
    The setting is process-wide: threads the block starts run their BLAS
    calls on one thread too, and must end before the block does.
    """
    previous = _swap_blas_threads(1)
    try:
        yield
    finally:
        _swap_blas_threads(previous)


def as_matrix(A) -> np.ndarray:
    """Validate and return A as a finite float64 2-D array."""
    return _as_finite(A, (2,), "a 2-D matrix")


def as_matrices(A) -> np.ndarray:
    """Validate and return A as a finite float64 2-D array or (k, m, n) stack."""
    return _as_finite(A, (2, 3), "a 2-D matrix or a 3-D stack of matrices")


def _as_finite(A, ndims: tuple, what: str) -> np.ndarray:
    M = np.asarray(A, dtype=np.float64)
    if M.ndim not in ndims:
        raise ValueError(f"expected {what}, got ndim={M.ndim}")
    if M.size == 0:
        raise ValueError("matrix must have at least one entry")
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    return M


def svd(A) -> np.ndarray:
    """Singular values of A, nonincreasing, as a (min(m, n),) array.

    A may also be a (k, m, n) stack: the result is then (k, min(m, n)), each
    row bit for bit the values of that slice alone.

    LAPACK runs in its with-vectors mode and the vectors are dropped.  gesdd's
    values-only mode (nuclear_norm's) differs in the last bits, about 1e-15
    relative on (100, 15, 20), (196, 400) and (100, 6, 9) inputs, and the
    references in perfbench/references.json hold the with-vectors bits.  A
    re-record of those references can switch the mode here, in one place.
    """
    return _lapack_svd(as_matrices(A))[1]


def per_matrix(values, M: np.ndarray):
    """values, one per matrix of M: a float for a 2-D M (values is then 0-d),
    the (k,) array itself for a (k, m, n) stack."""
    return float(values) if M.ndim == 2 else values


def frobenius_norm(A):
    """Square root of the sum of squared entries.

    A (k, m, n) stack gives a (k,) array: each slice is reduced by the dot
    product of its row-major raveled entries, the one np.linalg.norm(slice,
    "fro") takes on a C-ordered matrix (a pairwise sum would not match it).
    """
    M = as_matrices(A)
    return per_matrix(_frobenius(M), M)


def _frobenius(M: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a validated matrix or stack."""
    f = M.reshape(M.shape[:-2] + (-1,))
    return np.sqrt((f[..., None, :] @ f[..., :, None])[..., 0, 0])


def nuclear_norm(A):
    """Sum of singular values; a (k, m, n) stack gives a (k,) array."""
    M = as_matrices(A)
    return per_matrix(np.sum(_lapack_svd(M, compute_uv=False), axis=-1), M)


def orthogonalize_svd(A) -> np.ndarray:
    """Nearest semi-orthogonal matrix to A: U_r @ V_r.T from the thin SVD.

    Singular values at or below RANK_TOL times the largest are truncated, so
    the output has exactly rank r_t with every nonzero singular value equal
    to 1.  The zero matrix maps to the zero matrix.

    A may also be a (k, m, n) stack: all slices are factorized by one LAPACK
    call and each slice gets exactly the result it would get on its own.

    The product U_r @ V_r.T is invariant to paired sign flips, so the raw
    LAPACK factors are used directly.
    """
    M = as_matrices(A)
    U, S, Vh = _lapack_svd(M.reshape((-1,) + M.shape[-2:]))
    O = U @ Vh
    # S is nonincreasing, so a slice keeps full rank when its last value does;
    # only the truncated ones are redone, and an empty keep gives zeros
    keep = S > RANK_TOL * S[:, :1]
    for i in np.flatnonzero(~keep[:, -1]):
        O[i] = U[i][:, keep[i]] @ Vh[i][keep[i]]
    return O.reshape(M.shape)


def orthogonalize_ns(A, steps: int = DEFAULT_NS_STEPS) -> np.ndarray:
    """Approximate the semi-orthogonal factor by Newton-Schulz iteration.

    The input is normalized by its Frobenius norm and then `steps` quintic
    iterations X <- a X + b (X X^T) X + c (X X^T)^2 X are applied with the
    per-step coefficients NS_COEFFS, the last of which repeats past step 5.
    steps=0 returns the normalized input unchanged.

    A may also be a (k, m, n) stack; each slice is normalized by its own
    Frobenius norm and gets exactly the result it would get on its own.

    The zero matrix maps to the zero matrix, as in orthogonalize_svd: it is
    divided by 1 instead of its norm, and every iteration keeps it at zero.
    """
    M = as_matrices(A)
    if steps < 0:
        raise ValueError("steps must be >= 0")
    fn = _frobenius(M)[..., None, None]
    X = M / np.where(fn == 0.0, 1.0, fn)
    transposed = X.shape[-2] > X.shape[-1]
    if transposed:
        X = X.swapaxes(-1, -2)
    for k in range(steps):
        a, b, c = NS_COEFFS[min(k, len(NS_COEFFS) - 1)]
        P = X @ X.swapaxes(-1, -2)
        X = a * X + (b * P + c * (P @ P)) @ X
    return X.swapaxes(-1, -2) if transposed else X


def require_spd(W: np.ndarray, name: str) -> None:
    """Raise ValueError unless W is symmetric positive definite.

    Symmetric means asymmetry at most 1e-10 relative to the largest entry
    (or 1); positive definite means a smallest eigenvalue above 1e-12
    relative to the largest (or 1).  W may also be a (k, n, n) stack, which
    fails with the message of its first failing slice.
    """
    if W.shape[-1] != W.shape[-2]:
        raise ValueError(f"{name} must be square")
    Wt = W.swapaxes(-1, -2)
    scale = np.maximum(1.0, np.abs(W).max(axis=(-2, -1)))
    asym = np.atleast_1d(np.abs(W - Wt).max(axis=(-2, -1)) > 1e-10 * scale)
    eigs = np.linalg.eigvalsh(0.5 * (W + Wt))
    indefinite = np.atleast_1d(eigs[..., 0] <= 1e-12 * np.maximum(1.0, eigs[..., -1]))
    bad = asym | indefinite
    if bad.any():
        first = int(bad.argmax())
        what = "symmetric" if asym[first] else "positive definite"
        raise ValueError(f"{name} must be {what}")


def lambda_norm(A, weight):
    """Weighted norm sqrt(trace(A W A^T)) for a symmetric positive definite W.

    Raises ValueError if the weight matrix is not symmetric positive definite
    (see require_spd).  A may also be a (k, m, n) stack with a (k, n, n)
    stack of weights; the result is then a (k,) array, and each slice is
    validated and computed bit for bit as its own 2-D call.
    """
    M = as_matrices(A)
    W = as_matrices(weight)
    if W.shape[:-2] != M.shape[:-2]:
        raise ValueError(f"weight of shape {W.shape} does not pair with matrix of shape {M.shape}")
    if W.shape[-1] != W.shape[-2]:
        raise ValueError("weight matrix must be square")
    if W.shape[-1] != M.shape[-1]:
        raise ValueError(
            f"weight matrix is {W.shape[-1]}x{W.shape[-1]}, expected {M.shape[-1]} columns")
    require_spd(W, "weight matrix")
    P = (M @ W) * M
    return per_matrix(np.sqrt(np.maximum(np.sum(P, axis=(-2, -1)), 0.0)), M)

