import ast
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from muonlab import harness, matcore, problems
from muonlab.diagnostics import distance_metrics
import oracles
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
    np.testing.assert_allclose(matcore.svd(np.diag([2.0, 1.0])), [2.0, 1.0])


def test_svd_invariants():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((9, 5))
    S = matcore.svd(A)
    assert S.shape == (5,)
    assert np.all(np.diff(S) <= 0) and np.all(S >= 0)
    assert np.sum(S * S) == pytest.approx(np.sum(A * A), rel=1e-12)
    assert S[0] == pytest.approx(np.linalg.norm(A, 2), rel=1e-12)


def test_svd_zero_matrix():
    np.testing.assert_array_equal(matcore.svd(np.zeros((3, 4))), np.zeros(3))


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
    for m, n in ((6, 8), (8, 6), (3, 4)):
        A = mixed_stack(m, n, seed=m + n)
        O = matcore.orthogonalize_ns(A)
        for slice_, o in zip(A, O):
            np.testing.assert_array_equal(o, matcore.orthogonalize_ns(slice_))
        np.testing.assert_array_equal(O[1], 0.0)  # the zero slice


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
    S = matcore.svd(A)
    for shape, got in ((k,), fro), ((k,), nuc), ((k,), lam), ((k, min(m, n)), S):
        assert got.shape == shape
    for i in range(k):
        assert fro[i] == matcore.frobenius_norm(A[i])
        assert nuc[i] == matcore.nuclear_norm(A[i])
        assert lam[i] == matcore.lambda_norm(A[i], W[i])
        np.testing.assert_array_equal(S[i], matcore.svd(A[i]))
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


def _linalg_uses(name: str) -> list:
    """(module file, line) of every use of numpy's linalg.<name> in the package."""
    package = Path(matcore.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == name
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
                found.append((path.name, node.lineno))
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                found += [(path.name, node.lineno) for a in node.names if a.name == name]
    return found


def test_svd_is_called_only_in_matcore():
    """Every factorization goes through matcore, where the benchmark counts it."""
    found = _linalg_uses("svd")
    assert found and {name for name, _ in found} == {"matcore.py"}, found


def test_linalg_norm_is_called_only_in_matcore():
    """Every Frobenius norm goes through matcore.frobenius_norm, whose bits do not
    depend on the memory order of its argument."""
    found = _linalg_uses("norm")
    assert {name for name, _ in found} <= {"matcore.py"}, found


def _ndim_readers(node, where: str, found: set) -> None:
    """Add to found the innermost function (module.name) of each .ndim read."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = f"{where.split('.')[0]}.{node.name}"
    if (isinstance(node, ast.Attribute) and node.attr == "ndim") or (
            isinstance(node, ast.Constant) and node.value == "ndim"):
        found.add(where)
    for child in ast.iter_child_nodes(node):
        _ndim_readers(child, where, found)


def test_only_per_matrix_and_as_finite_read_ndim():
    """One code path per matrix quantity: a 2-D call runs the stacked path as a
    one-matrix stack, so no function forks on ndim except these two."""
    package = Path(matcore.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        _ndim_readers(ast.parse(path.read_text(encoding="utf-8")), path.stem, found)
    assert found == {"matcore.per_matrix", "matcore._as_finite"}


# ---------------------------------------------------------------------------
# a 2-D call gives the bits of the 2-D formulas in tests/oracles.py
# ---------------------------------------------------------------------------

SHAPES_2D = [(1, 7), (7, 1), (6, 9), (9, 6), (15, 20), (20, 20), (64, 128), (100, 196)]
SCALES = [1e-12, 1e-6, 1.0, 1e6, 1e12]


def same_bits(got, want) -> bool:
    return type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


def inputs_2d(m, n, seed):
    """A full-rank, a rank-deficient (or for a vector, zero) and a zero m x n matrix."""
    rng = np.random.default_rng(seed)
    r = min(m, n)
    low = (rng.standard_normal((m, r // 2)) @ rng.standard_normal((r // 2, n))
           if r > 1 else np.zeros((m, n)))
    return {"full": rng.standard_normal((m, n)), "deficient": low, "zero": np.zeros((m, n))}


@pytest.mark.parametrize("m,n", SHAPES_2D)
def test_2d_calls_keep_the_2d_bits(m, n):
    W = problems.spd_from_eigs(np.random.default_rng(n).standard_normal((n, n)),
                               np.exp(np.linspace(-3.0, 3.0, n)))
    W_star = np.random.default_rng(m).standard_normal((m, n))
    for scale in SCALES:
        for kind, A0 in inputs_2d(m, n, seed=m * n).items():
            A = A0 * scale
            where = f"{m}x{n} {kind} at scale {scale}"
            assert same_bits(matcore.frobenius_norm(A), oracles.frobenius_2d(A)), where
            assert same_bits(matcore.nuclear_norm(A), oracles.nuclear_2d(A)), where
            assert same_bits(matcore.orthogonalize_svd(A), oracles.polar_2d(A)), where
            assert same_bits(matcore.lambda_norm(A, W), oracles.lambda_norm_2d(A, W)), where
            assert same_bits(matcore.orthogonalize_ns(A), oracles.ns_2d(A)), where
            W_t = W_star * scale
            for got, want in zip(distance_metrics(W_t + A, W_t),
                                 oracles.distances_2d(W_t + A, W_t)):
                assert same_bits(got, want), where


@pytest.mark.parametrize("k", [None, 9])
@pytest.mark.parametrize("m,n", SHAPES_2D)
def test_svd_is_the_with_vectors_lapack_call(m, n, k):
    """The pinned references hold the singular values of LAPACK's with-vectors
    mode, whose last bits differ from the values-only mode's on these inputs."""
    rng = np.random.default_rng(m + n)
    for scale in SCALES:
        A = rng.standard_normal((k, m, n) if k else (m, n)) * scale
        assert same_bits(matcore.svd(A), np.linalg.svd(A, full_matrices=False)[1]), scale


@pytest.mark.parametrize("m,n", [(6, 9), (15, 20), (64, 128), (100, 196)])
@pytest.mark.parametrize("half", [True, False])
def test_2d_quadratic_value_grad_keeps_the_2d_bits(m, n, half):
    Q = problems.make_ill_conditioned_Q(m, 1e4, "geometric", seed=m)
    rng = np.random.default_rng(n)
    W_star = rng.standard_normal((m, n))
    prob = problems.quadratic_new(Q, W_star, half=half)
    c = 0.5 if half else 1.0
    for scale in SCALES:
        for W in (W_star + scale * rng.standard_normal((m, n)), W_star.copy()):
            got, want = prob.value_grad(W), oracles.quadratic_value_grad_2d(Q, W_star, c, W)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1]), scale


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
scoped = [matcore.svd(A), matcore.nuclear_norm(A), matcore.orthogonalize_svd(A)]
after = get()
matcore._BLAS_THREADS = None
plain = [matcore.svd(A), matcore.nuclear_norm(A), matcore.orthogonalize_svd(A)]
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
# one_blas_thread: every BLAS call on one thread
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cores", [2, 3, 5])
@pytest.mark.parametrize("shape", [(6, 8), (8, 6), (64, 128)])
def test_split_polar_factor_keeps_the_bits(cores, shape, two_blas_threads):
    """Contiguous parts of a stack, factorized at once on `cores` threads inside
    one_blas_thread as a grid scan's row blocks factorize theirs, get the
    whole stack's bits, for stacks with fewer and more slices than parts.
    Each SVD's own scope nests in the block's, so every thread sees one BLAS
    thread before and after its factorization, and the count comes back."""
    A = mixed_stack(*shape, seed=cores)
    A = np.concatenate([A, A[::-1], A[:1]])  # 9 slices, truncated ones in every part
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more thread switches inside each call
    try:
        with matcore.one_blas_thread():
            for k in (1, 2, 4, 9):
                whole = matcore.orthogonalize_svd(A[:k])
                parts = min(cores, k)
                edges = [k * p // parts for p in range(parts + 1)]
                got = [None] * parts

                def factorize(p):
                    seen.append(two_blas_threads())
                    got[p] = matcore.orthogonalize_svd(A[edges[p]:edges[p + 1]])
                    seen.append(two_blas_threads())

                threads = [threading.Thread(target=factorize, args=(p,)) for p in range(parts)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert np.array_equal(np.concatenate(got), whole), k
    finally:
        sys.setswitchinterval(interval)
    assert seen and set(seen) == {1}
    assert two_blas_threads() == 2


def test_one_blas_thread_restores_the_count_and_starts_no_lasting_thread(monkeypatch,
                                                                         two_blas_threads):
    threads = threading.active_count()
    A = np.random.default_rng(4).standard_normal((4, 10, 12))
    swaps, swap = [], matcore._swap_blas_threads

    def recording(count):
        previous = swap(count)
        if count is not None:  # None sets nothing
            swaps.append((count, previous))
        return previous

    monkeypatch.setattr(matcore, "_swap_blas_threads", recording)
    with matcore.one_blas_thread():
        assert two_blas_threads() == 1
        matcore.orthogonalize_svd(A)
        assert threading.active_count() == threads
    # (count set, count it replaced): 1 on entry and 2 back on exit; the SVD's
    # own scope inside set 1 over 1 and restored 1
    assert swaps[0] == (1, 2) and swaps[-1] == (2, 1)
    assert len(swaps) > 2 and set(swaps[1:-1]) == {(1, 1)}
    assert two_blas_threads() == 2 and threading.active_count() == threads
    with pytest.raises(RuntimeError, match="inside the block"):
        with matcore.one_blas_thread():
            matcore.orthogonalize_svd(A)
            raise RuntimeError("inside the block")
    assert two_blas_threads() == 2 and threading.active_count() == threads


def test_polar_probe_refuses_a_product_whose_bits_follow_the_thread_count(
        monkeypatch, two_blas_threads):
    """The grid scan's first-step probe covers the polar factor's product too:
    an oracle that keeps its bits cannot pass it when U @ Vh does not."""
    problem = harness.build_problem({"kind": "mlp", "input_dim": 30, "dims": (64, 40, 5),
                                     "B": 40}, 1)
    W0 = problem.metadata["W_init"]
    assert harness._first_step_keeps_bits_on_one_thread(
        problem, {"kind": "simplified_muon"}, 0.1, W0)
    lapack_svd = matcore._lapack_svd

    def thread_dependent(M):
        # U scaled by the thread count of the caller, outside the SVD's own scope
        U, S, Vh = lapack_svd(M)
        return U * (1.0 + 1e-3 * two_blas_threads()), S, Vh

    monkeypatch.setattr(matcore, "_lapack_svd", thread_dependent)
    assert not harness._first_step_keeps_bits_on_one_thread(
        problem, {"kind": "simplified_muon"}, 0.1, W0)


def test_only_one_blas_thread_sets_the_thread_count():
    """One scope sets and restores the BLAS thread count; every other caller,
    _lapack_svd included, enters it."""
    package = Path(matcore.__file__).resolve().parent
    callers = set()
    for path in sorted(package.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(node, ast.Call) and "_swap_blas_threads" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None))
                    for node in ast.walk(fn)):
                callers.add(f"{path.stem}.{fn.name}")
    assert callers == {"matcore.one_blas_thread"}


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


def test_ns_zero_matrix_maps_to_zero():
    for steps in (0, 5):
        with np.errstate(all="raise"):  # no 0/0 on the way
            O = matcore.orthogonalize_ns(np.zeros((3, 4)), steps=steps)
        np.testing.assert_array_equal(O, np.zeros((3, 4)))


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
