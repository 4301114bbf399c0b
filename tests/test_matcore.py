import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from muonlab import matcore
from oracles import kron, vec_row


def random_with_condition(rng, m, n, cond):
    """U diag(s) V^T with log-uniform singular values spanning at most cond."""
    r = min(m, n)
    U, _ = np.linalg.qr(rng.standard_normal((m, m)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.sort(np.exp(rng.uniform(np.log(1.0 / cond), 0.0, r)))[::-1]
    return U[:, :r] @ np.diag(s) @ V[:, :r].T, U[:, :r] @ V[:, :r].T


# ---------------------------------------------------------------------------
# frobenius_norm
# ---------------------------------------------------------------------------

def test_frobenius_identity():
    assert matcore.frobenius_norm(np.eye(3)) == pytest.approx(math.sqrt(3), rel=1e-12)


def test_frobenius_pythagorean():
    assert matcore.frobenius_norm([[3.0, 4.0], [0.0, 0.0]]) == 5.0


def test_frobenius_against_exact_sum():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((7, 5))
    # extended-precision elementwise oracle
    oracle = math.sqrt(math.fsum(float(x) * float(x) for x in A.ravel()))
    assert matcore.frobenius_norm(A) == pytest.approx(oracle, rel=1e-12)


def test_frobenius_rejects_nonfinite():
    with pytest.raises(ValueError):
        matcore.frobenius_norm([[1.0, np.nan]])


# ---------------------------------------------------------------------------
# nuclear_norm
# ---------------------------------------------------------------------------

def test_nuclear_diagonal():
    assert matcore.nuclear_norm(np.diag([3.0, 2.0])) == pytest.approx(5.0, rel=1e-12)


def test_nuclear_orthogonal():
    Q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((3, 3)))
    assert matcore.nuclear_norm(Q) == pytest.approx(3.0, rel=1e-10)


def test_nuclear_bracket():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 4))
    nuc = matcore.nuclear_norm(A)
    assert nuc == pytest.approx(float(np.sum(np.linalg.svd(A, compute_uv=False))), rel=1e-12)
    fro = matcore.frobenius_norm(A)
    assert fro <= nuc <= 2.0 * fro + 1e-9  # sqrt(r) = 2 for r = 4


# ---------------------------------------------------------------------------
# svd
# ---------------------------------------------------------------------------

def test_svd_diagonal_input():
    res = matcore.svd(np.diag([2.0, 1.0]))
    np.testing.assert_allclose(res.S, [2.0, 1.0])
    np.testing.assert_allclose(res.U, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(res.V, np.eye(2), atol=1e-14)


def test_svd_invariants_and_reconstruction():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((9, 5))
    U, S, V = matcore.svd(A)
    k = 5
    assert np.linalg.norm(U.T @ U - np.eye(k)) <= 1e-10
    assert np.linalg.norm(V.T @ V - np.eye(k)) <= 1e-10
    assert np.all(np.diff(S) <= 0) and np.all(S >= 0)
    resid = np.linalg.norm(U @ np.diag(S) @ V.T - A)
    assert resid <= 1e-9 * max(1.0, np.linalg.norm(A))


def test_svd_zero_matrix():
    U, S, V = matcore.svd(np.zeros((3, 4)))
    np.testing.assert_allclose(S, np.zeros(3))
    assert np.linalg.norm(U.T @ U - np.eye(3)) <= 1e-10
    assert np.linalg.norm(V.T @ V - np.eye(3)) <= 1e-10


def test_svd_sign_convention_and_determinism():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((6, 6))
    r1 = matcore.svd(A)
    r2 = matcore.svd(A.copy())
    assert np.array_equal(r1.U, r2.U) and np.array_equal(r1.V, r2.V)
    for j in range(r1.S.size):
        col = r1.U[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        assert col[nz[0]] > 0


# ---------------------------------------------------------------------------
# orthogonalize_svd
# ---------------------------------------------------------------------------

def test_polar_idempotent_on_semi_orthogonal():
    A = np.hstack([np.eye(2), np.zeros((2, 1))])  # I_2 padded to 2x3
    O = matcore.orthogonalize_svd(A)
    assert np.linalg.norm(O - A) <= 1e-10


def test_polar_positive_diagonal():
    np.testing.assert_allclose(matcore.orthogonalize_svd(np.diag([3.0, 2.0])),
                               np.eye(2), atol=1e-12)


def test_polar_antidiagonal_exact():
    O = matcore.orthogonalize_svd(np.array([[0.0, 2.0], [1.0, 0.0]]))
    np.testing.assert_allclose(O, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-12)


def test_polar_zero_matrix():
    np.testing.assert_array_equal(matcore.orthogonalize_svd(np.zeros((3, 4))),
                                  np.zeros((3, 4)))


def test_polar_rank_deficient_truncation():
    # rank-1 input keeps exactly one unit singular value
    A = np.outer([1.0, 2.0], [3.0, 0.0, 4.0])
    O = matcore.orthogonalize_svd(A)
    s = np.linalg.svd(O, compute_uv=False)
    np.testing.assert_allclose(s, [1.0, 0.0], atol=1e-12)


def test_polar_orthogonality_invariants():
    rng = np.random.default_rng(8)
    for _ in range(50):
        m, n = rng.integers(2, 12, 2)
        A = rng.standard_normal((m, n))
        O = matcore.orthogonalize_svd(A)
        s = np.linalg.svd(O, compute_uv=False)
        r_t = int(round(np.sum(O * O)))
        nonzero = s[s > 0.5]
        assert np.all(np.abs(nonzero - 1.0) <= 1e-10)
        assert abs(np.linalg.norm(O, 2) - 1.0) <= 1e-10
        assert abs(np.sum(s) - r_t) <= 1e-9


def mixed_stack(m, n, seed):
    """Full-rank, zero and rank-2 slices: every branch of the stacked polar."""
    rng = np.random.default_rng(seed)
    return np.stack([rng.standard_normal((m, n)) * 30.0,
                     np.zeros((m, n)),
                     rng.standard_normal((m, 2)) @ rng.standard_normal((2, n)),
                     rng.standard_normal((m, n))])


@pytest.mark.parametrize("m,n", [(6, 8), (8, 6), (15, 20)])
def test_polar_stack_matches_slices_bitwise(m, n):
    A = mixed_stack(m, n, seed=m * n)
    O = matcore.orthogonalize_svd(A)
    assert O.shape == A.shape
    for slice_, o in zip(A, O):
        np.testing.assert_array_equal(o, matcore.orthogonalize_svd(slice_))
    assert np.linalg.matrix_rank(O[2]) == 2
    np.testing.assert_array_equal(O[1], 0.0)
    # a stack where every slice keeps full rank takes one stacked product
    full = A[[0, 3]]
    for slice_, o in zip(full, matcore.orthogonalize_svd(full)):
        np.testing.assert_array_equal(o, matcore.orthogonalize_svd(slice_))


def test_ns_stack_matches_slices_bitwise():
    for m, n in ((6, 8), (8, 6)):
        A = mixed_stack(m, n, seed=1)[[0, 2, 3]]
        O = matcore.orthogonalize_ns(A)
        for slice_, o in zip(A, O):
            np.testing.assert_array_equal(o, matcore.orthogonalize_ns(slice_))
    with pytest.raises(ValueError):
        matcore.orthogonalize_ns(mixed_stack(3, 4, seed=2))  # holds a zero slice


def test_stack_inputs_validated():
    with pytest.raises(ValueError):
        matcore.orthogonalize_svd(np.ones((2, 2, 3, 4)))
    with pytest.raises(ValueError):
        matcore.orthogonalize_svd(np.full((2, 3, 4), np.inf))
    with pytest.raises(ValueError):
        matcore.as_matrix(np.ones((2, 3, 4)))


def scaled_stack(k, m, n, seed):
    """k random m x n slices scaled log-uniformly over 1e-8..1e8, every third one zero."""
    rng = np.random.default_rng(seed)
    scale = np.exp(rng.uniform(np.log(1e-8), np.log(1e8), k))
    A = rng.standard_normal((k, m, n)) * scale[:, None, None]
    A[::3] = 0.0
    return A


def spd_stack(k, n, seed):
    rng = np.random.default_rng(seed)
    R, _ = np.linalg.qr(rng.standard_normal((k, n, n)))
    W = (R * np.exp(rng.uniform(-3.0, 3.0, (k, 1, n)))) @ R.swapaxes(1, 2)
    return 0.5 * (W + W.swapaxes(1, 2))


@pytest.mark.parametrize("k", [1, 2, 100])
@pytest.mark.parametrize("m,n", [(1, 7), (6, 9), (9, 6), (15, 20), (20, 20)])
def test_stacked_norms_match_slices_bitwise(k, m, n):
    A = scaled_stack(k, m, n, seed=k * 1000 + m * n)
    W = spd_stack(k, n, seed=k + m)
    fro, nuc = matcore.frobenius_norm(A), matcore.nuclear_norm(A)
    lam = matcore.lambda_norm(A, W)
    U, S, V = matcore.svd(A)
    for shape, got in ((k,), fro), ((k,), nuc), ((k,), lam), ((k, m, min(m, n)), U):
        assert got.shape == shape
    for i in range(k):
        assert fro[i] == matcore.frobenius_norm(A[i])
        assert nuc[i] == matcore.nuclear_norm(A[i])
        assert lam[i] == matcore.lambda_norm(A[i], W[i])
        one = matcore.svd(A[i])
        for got, want in zip((U[i], S[i], V[i]), one):
            np.testing.assert_array_equal(got, want)
    assert fro[0] == nuc[0] == lam[0] == 0.0


@pytest.mark.parametrize("bad,message", [
    (np.array([[1.0, 0.5], [0.0, 1.0]]), "weight matrix must be symmetric"),
    (np.diag([1.0, -1.0]), "weight matrix must be positive definite"),
])
def test_lambda_norm_stack_names_the_bad_slice(bad, message):
    A = np.ones((4, 3, 2))
    W = np.stack([np.eye(2)] * 4)
    W[2] = bad
    with pytest.raises(ValueError) as stacked:
        matcore.lambda_norm(A, W)
    with pytest.raises(ValueError) as alone:
        matcore.lambda_norm(A[2], W[2])
    assert str(stacked.value) == str(alone.value) == message
    # with a second bad slice of the other kind before it, that one decides
    W[1] = np.diag([1.0, -1.0]) if "symmetric" in message else np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError) as first:
        matcore.lambda_norm(A, W)
    assert str(first.value) != message
    with pytest.raises(ValueError, match=f"^{first.value}$"):
        matcore.lambda_norm(A[1], W[1])


def test_lambda_norm_stack_shapes_must_pair():
    A = np.ones((3, 2, 4))
    with pytest.raises(ValueError, match="does not pair"):
        matcore.lambda_norm(A, np.eye(4))
    with pytest.raises(ValueError, match="does not pair"):
        matcore.lambda_norm(A, np.stack([np.eye(4)] * 2))
    with pytest.raises(ValueError, match="expected 4 columns"):
        matcore.lambda_norm(A, np.stack([np.eye(3)] * 3))


def test_svd_is_called_only_in_matcore():
    """Every factorization goes through matcore, where the benchmark counts it."""
    package = Path(matcore.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "svd"
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
                found.append((path.name, node.lineno))
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                found += [(path.name, node.lineno) for a in node.names if a.name == "svd"]
    assert found and {name for name, _ in found} == {"matcore.py"}, found


# ---------------------------------------------------------------------------
# every SVD on one BLAS thread
# ---------------------------------------------------------------------------

SVD_FUNCTIONS = (matcore.svd, matcore.nuclear_norm, matcore.orthogonalize_svd)


def decaying(rng, m, n):
    """U diag(s) V^T with singular values from 1 down to 1e-12."""
    r = min(m, n)
    U, _ = np.linalg.qr(rng.standard_normal((m, r)))
    V, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return (U * np.logspace(0.0, -12.0, r)) @ V.T


def as_arrays(out):
    return out if isinstance(out, tuple) else (out,)


@pytest.mark.parametrize("kind", ["gaussian", "decaying"])
@pytest.mark.parametrize("k", [None, 9])
@pytest.mark.parametrize("m,n", [(15, 20), (10, 196), (64, 128), (100, 196)])
def test_one_thread_svds_keep_the_bits_of_the_plain_call(monkeypatch, m, n, k, kind):
    rng = np.random.default_rng(m * n)
    slices = [rng.standard_normal((m, n)) if kind == "gaussian" else decaying(rng, m, n)
              for _ in range(k or 1)]
    A = np.stack(slices) if k else slices[0]
    why = ("this BLAS gives different SVD bits on one thread than on the process's "
           "thread count, so artifacts pinned at that count would move")
    plain = np.linalg.svd(A, full_matrices=False)
    for got, want in zip(matcore._lapack_svd(A), plain):
        assert np.array_equal(got, want), why
    assert np.array_equal(matcore._lapack_svd(A, compute_uv=False),
                          np.linalg.svd(A, compute_uv=False)), why
    scoped = [as_arrays(f(A)) for f in SVD_FUNCTIONS]
    monkeypatch.setattr(matcore, "_BLAS_THREADS", None)
    for f, got in zip(SVD_FUNCTIONS, scoped):
        for g, w in zip(got, as_arrays(f(A))):
            assert np.array_equal(g, w), f"{f.__name__}: {why}"


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


def record_svd_threads(monkeypatch, get_threads):
    """Wrap np.linalg.svd so it records the BLAS thread count it runs on."""
    seen, plain_svd = [], np.linalg.svd

    def recording_svd(*args, **kwargs):
        seen.append(get_threads())
        return plain_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    return seen


def test_every_svd_runs_on_one_blas_thread(monkeypatch, two_blas_threads):
    seen = record_svd_threads(monkeypatch, two_blas_threads)
    A = np.random.default_rng(0).standard_normal((3, 10, 12))
    for f in SVD_FUNCTIONS:
        f(A)
        f(A[0])
        assert two_blas_threads() == 2
    assert seen == [1] * 6


def test_thread_count_comes_back_after_a_failed_svd(monkeypatch, two_blas_threads):
    seen = []

    def failing_svd(*args, **kwargs):
        seen.append(two_blas_threads())
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    for f in SVD_FUNCTIONS:
        with pytest.raises(np.linalg.LinAlgError):
            f(np.ones((4, 5)))
        assert two_blas_threads() == 2
    assert seen == [1] * 3


def test_without_thread_control_svds_are_the_plain_call(monkeypatch, two_blas_threads):
    A = np.random.default_rng(1).standard_normal((9, 15, 20))
    scoped = [as_arrays(f(A)) for f in SVD_FUNCTIONS]
    monkeypatch.setattr(matcore, "_THREAD_SYMBOLS", (("no_such_get", "no_such_set"),))
    assert matcore._find_blas_threads() is None
    monkeypatch.setattr(matcore, "_BLAS_THREADS", None)
    seen = record_svd_threads(monkeypatch, two_blas_threads)
    for f, want in zip(SVD_FUNCTIONS, scoped):
        for g, w in zip(as_arrays(f(A)), want):
            assert np.array_equal(g, w), f.__name__
    assert seen == [2] * 3


def test_thread_control_not_found_when_the_library_does_not_load(monkeypatch):
    def no_library(path):
        raise OSError(f"cannot load {path}")

    monkeypatch.setattr(matcore.ctypes, "CDLL", no_library)
    assert matcore._find_blas_threads() is None


def test_openblas_num_threads_1_changes_nothing():
    """Started on one thread, the scope leaves the count at 1 and the bits as they were."""
    code = """
import numpy as np
from muonlab import matcore
get = matcore._BLAS_THREADS[0] if matcore._BLAS_THREADS else (lambda: 1)
A = np.random.default_rng(3).standard_normal((9, 100, 196))
before = get()
scoped = [*matcore.svd(A), matcore.nuclear_norm(A), matcore.orthogonalize_svd(A)]
after = get()
matcore._BLAS_THREADS = None
plain = [*matcore.svd(A), matcore.nuclear_norm(A), matcore.orthogonalize_svd(A)]
same = all(np.array_equal(s, p) for s, p in zip(scoped, plain))
print(before, after, same)
"""
    src = str(Path(matcore.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["1", "1", "True"]


# ---------------------------------------------------------------------------
# orthogonalize_ns
# ---------------------------------------------------------------------------

def test_ns_semi_orthogonal_near_fixed_point():
    rng = np.random.default_rng(9)
    for r in (1, 3, 6):
        A, _ = random_with_condition(rng, r, r + 4, 1.0 + 1e-12)
        O = matcore.orthogonalize_ns(A, steps=5)
        ref = matcore.orthogonalize_svd(A)
        assert np.linalg.norm(O - ref, 2) <= 0.02


def test_ns_tracks_svd_polar_under_condition_100():
    rng = np.random.default_rng(10)
    A, polar = random_with_condition(rng, 8, 8, 100.0)
    O = matcore.orthogonalize_ns(A, steps=5)
    assert np.linalg.norm(O - polar, 2) <= 0.05


def test_ns_zero_steps_is_normalization():
    A = np.random.default_rng(11).standard_normal((4, 6))
    np.testing.assert_allclose(matcore.orthogonalize_ns(A, steps=0),
                               A / np.linalg.norm(A), atol=1e-15)


def test_ns_zero_matrix_raises():
    with pytest.raises(ValueError):
        matcore.orthogonalize_ns(np.zeros((3, 3)))


def test_ns_tall_and_wide_agree_with_svd():
    rng = np.random.default_rng(13)
    for shape in ((12, 5), (5, 12)):
        A, polar = random_with_condition(rng, *shape, 50.0)
        O = matcore.orthogonalize_ns(A, steps=5)
        assert np.linalg.norm(O - polar, 2) <= 0.05


# ---------------------------------------------------------------------------
# lambda_norm
# ---------------------------------------------------------------------------

def test_lambda_norm_identity_weight():
    A = np.random.default_rng(14).standard_normal((4, 5))
    assert matcore.lambda_norm(A, np.eye(5)) == pytest.approx(
        matcore.frobenius_norm(A), rel=1e-12)


def test_lambda_norm_picks_weight_entry():
    A = np.zeros((3, 3))
    A[0, 0] = 1.0
    W = np.diag([4.0, 1.0, 1.0])
    assert matcore.lambda_norm(A, W) == pytest.approx(2.0, rel=1e-12)


def test_lambda_norm_triple_product_oracle():
    rng = np.random.default_rng(15)
    A = rng.standard_normal((4, 6))
    R, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    W = (R * rng.uniform(0.5, 3.0, 6)) @ R.T
    W = 0.5 * (W + W.T)
    oracle = math.sqrt(np.trace(A @ W @ A.T))
    assert matcore.lambda_norm(A, W) == pytest.approx(oracle, rel=1e-10)


def test_lambda_norm_rejects_indefinite():
    with pytest.raises(ValueError):
        matcore.lambda_norm(np.eye(2), np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        matcore.lambda_norm(np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_lambda_norm_zero_iff_zero():
    W = np.diag([2.0, 3.0])
    assert matcore.lambda_norm(np.zeros((4, 2)), W) == 0.0
    assert matcore.lambda_norm(np.ones((1, 2)), W) > 0.0


# ---------------------------------------------------------------------------
# kron / vec_row
# ---------------------------------------------------------------------------

def test_kron_identities():
    np.testing.assert_array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))
    np.testing.assert_allclose(kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])),
                               np.diag([3.0, 4.0, 6.0, 8.0]))


def test_kron_vec_row_mixed_product():
    rng = np.random.default_rng(16)
    P = rng.standard_normal((3, 3))
    Q = rng.standard_normal((4, 4))
    D = rng.standard_normal((3, 4))
    lhs = kron(P, Q) @ vec_row(D)
    rhs = vec_row(P @ D @ Q.T)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_kron_size_guard():
    with pytest.raises(ValueError):
        kron(np.ones((1000, 1000)), np.ones((2, 2)))


def test_vec_row_layout_and_round_trip():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(vec_row(A), [1.0, 2.0, 3.0, 4.0])
    row = np.arange(5.0).reshape(1, 5)
    np.testing.assert_array_equal(vec_row(row), np.arange(5.0))


# ---------------------------------------------------------------------------
# norm inequalities (module-level invariants)
# ---------------------------------------------------------------------------

def test_norm_inequality_sweep():
    rng = np.random.default_rng(18)
    for _ in range(100):
        m, n = rng.integers(2, 9, 2)
        A = rng.standard_normal((m, n))
        R, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = (R * rng.uniform(0.2, 5.0, n)) @ R.T
        lam = 0.5 * (lam + lam.T)
        w, V = np.linalg.eigh(lam)
        lam_inv = (V / w) @ V.T
        fro = matcore.frobenius_norm(A)
        nuc = matcore.nuclear_norm(A)
        op = np.linalg.norm(A, 2)
        lam_op, lam_nuc = float(w[-1]), float(np.sum(w))
        r = min(m, n)
        assert fro <= nuc <= math.sqrt(r) * fro + 1e-9
        assert nuc <= math.sqrt(lam_nuc) * matcore.lambda_norm(A, lam_inv) + 1e-9
        assert fro <= math.sqrt(lam_op) * matcore.lambda_norm(A, lam_inv) + 1e-9
        assert matcore.lambda_norm(A, lam) <= math.sqrt(lam_op) * fro + 1e-9
        assert matcore.lambda_norm(A, lam) <= math.sqrt(lam_nuc) * op + 1e-8
