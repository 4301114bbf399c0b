import contextlib
import re

import numpy as np
import pytest

from muonlab import harness, matcore, problems, verify
from muonlab.problems import fd_hvp
from oracles import kron, ky_fan_constant, uncached_mlp_oracles, vec_row


# ---------------------------------------------------------------------------
# quadratic
# ---------------------------------------------------------------------------

def test_quadratic_optimum():
    rng = np.random.default_rng(0)
    Q = problems.make_ill_conditioned_Q(5, 100.0, "geometric", seed=0)
    W_star = rng.standard_normal((5, 7))
    prob = problems.quadratic_new(Q, W_star)
    assert prob.value(W_star) == 0.0
    assert np.linalg.norm(prob.grad(W_star)) <= 1e-9


def test_quadratic_isotropic_case():
    W_star = np.random.default_rng(1).standard_normal((3, 4))
    prob = problems.quadratic_new(np.eye(3), W_star, half=True)
    W = np.random.default_rng(2).standard_normal((3, 4))
    assert prob.value(W) == pytest.approx(0.5 * np.sum((W - W_star) ** 2), rel=1e-12)
    np.testing.assert_allclose(prob.grad(W), W - W_star, atol=1e-12)


def test_quadratic_scale_flag():
    Q = np.diag([2.0, 1.0])
    W_star = np.zeros((2, 2))
    half = problems.quadratic_new(Q, W_star, half=True)
    full = problems.quadratic_new(Q, W_star, half=False)
    W = np.eye(2)
    assert full.value(W) == pytest.approx(2.0 * half.value(W), rel=1e-12)
    assert full.metadata["L"] == pytest.approx(2.0 * half.metadata["L"], rel=1e-12)


def test_quadratic_hvp_matches_kron_oracle():
    rng = np.random.default_rng(3)
    Q = problems.make_ill_conditioned_Q(3, 10.0, "geometric", seed=1)
    prob = problems.quadratic_new(Q, rng.standard_normal((3, 4)))
    H = kron(2.0 * prob.metadata["c_scale"] * Q, np.eye(4))
    D = rng.standard_normal((3, 4))
    lhs = vec_row(prob.hvp(None, D))
    rhs = H @ vec_row(D)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_quadratic_rejects_bad_Q():
    with pytest.raises(ValueError):
        problems.quadratic_new(np.diag([1.0, -2.0]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        problems.quadratic_new(np.array([[1.0, 0.3], [0.0, 1.0]]), np.zeros((2, 2)))


def test_quadratic_gradient_is_exactly_linear():
    rng = np.random.default_rng(4)
    Q = problems.make_ill_conditioned_Q(6, 1e3, "two_cluster", seed=2)
    prob = problems.quadratic_new(Q, rng.standard_normal((6, 5)))
    W1 = rng.standard_normal((6, 5))
    W2 = rng.standard_normal((6, 5))
    diff = prob.grad(W1) - prob.grad(W2)
    np.testing.assert_allclose(diff, prob.hvp(None, W1 - W2), atol=1e-12)


def test_quadratic_smoothness_constants_hold():
    rng = np.random.default_rng(5)
    Q = problems.make_ill_conditioned_Q(6, 100.0, "geometric", seed=3)
    prob = problems.quadratic_new(Q, np.zeros((6, 9)))
    L, L_star = prob.metadata["L"], prob.metadata["L_star"]
    for _ in range(200):
        W1 = rng.standard_normal((6, 9))
        W2 = rng.standard_normal((6, 9))
        gd = prob.grad(W1) - prob.grad(W2)
        wd = W1 - W2
        assert matcore.frobenius_norm(gd) <= L * matcore.frobenius_norm(wd) + 1e-9
        assert matcore.nuclear_norm(gd) <= L_star * np.linalg.norm(wd, 2) + 1e-9


def test_quadratic_star_convexity_equality():
    rng = np.random.default_rng(6)
    Q = problems.make_ill_conditioned_Q(4, 10.0, "geometric", seed=4)
    W_star = rng.standard_normal((4, 5))
    prob = problems.quadratic_new(Q, W_star)
    for _ in range(20):
        W = rng.standard_normal((4, 5))
        inner = float(np.sum(prob.grad(W) * (W - W_star)))
        assert inner == pytest.approx(2.0 * prob.value(W), rel=1e-10)
        assert inner >= prob.value(W) - 1e-12  # star convexity proper


def assert_stack_matches_slices(prob, W):
    """The oracle contract of every problem kind: value_grad on the (k, m, n)
    stack W gives each slice the bits of its own 2-D call, whose value is a
    float, on the process's BLAS thread count and inside one_blas_thread()."""
    k = W.shape[0]
    for scope in (contextlib.nullcontext, matcore.one_blas_thread):
        with scope():
            values, G = prob.value_grad(W)
            assert values.shape == (k,) and G.shape == W.shape
            for j in range(k):
                value, grad = prob.value_grad(W[j])
                assert type(value) is float
                assert values[j] == value
                assert np.array_equal(G[j], grad)


@pytest.mark.parametrize("half", [True, False])
@pytest.mark.parametrize("shape", [(15, 20), (6, 8), (1, 7)], ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("k", [1, 2, 9])
def test_quadratic_stacked_value_grad_matches_slices_bitwise(k, shape, half):
    m, n = shape
    rng = np.random.default_rng([k, m, n, half])
    Q = np.array([[3.0]]) if m == 1 else problems.make_ill_conditioned_Q(m, 1e4, seed=m)
    prob = problems.quadratic_new(Q, rng.uniform(-50.0, 50.0, shape), half=half)
    # slices from 1e-12 to 1e12 times the optimum's scale, so a mixed-up slice shows
    scales = 10.0 ** rng.integers(-12, 13, size=(k, 1, 1))
    assert_stack_matches_slices(prob, rng.standard_normal((k, m, n)) * scales)


DESK_MLP = {"kind": "mlp", "input_dim": 10, "dims": (8, 6, 4)}
PAPER_MLP = {"kind": "mlp", "input_dim": 784, "dims": (128, 64, 10)}
# the linear-MSE problems of fig2 (196x400 features) and a CSV of features,
# and the MLP of fig3 at desk and paper dims with each loss and trained layer
STACK_CASES = {
    "linmse-gaussian": {"kind": "linear_mse", "features": "gaussian", "c": 10},
    "linmse-lowrank": {"kind": "linear_mse", "features": "lowrank", "c": 100},
    "linmse-csv": {"kind": "linear_mse", "features": "csv", "c": 4},
    **{f"mlp-{dims}-{loss}-{layer}": dict(spec, loss=loss, train_layer=index)
       for dims, spec in (("desk", DESK_MLP), ("paper", PAPER_MLP))
       for loss in ("softmax_ce", "mse")
       for layer, index in (("first", 0), ("middle", 1), ("last", 2))},
}


@pytest.mark.parametrize("case", STACK_CASES)
@pytest.mark.parametrize("k", [1, 2, 9])
def test_stacked_value_grad_matches_slices_bitwise(tmp_path, k, case):
    spec = dict(STACK_CASES[case])
    if spec.get("features") == "csv":
        spec["path"] = str(tmp_path / "features.csv")
        problems.save_matrix_csv(np.random.default_rng(7).standard_normal((12, 30)), spec["path"])
    prob = harness.build_problem(spec, 1)
    rng = np.random.default_rng([k, list(STACK_CASES).index(case)])
    # slices from 1e-6 to 1e6 times the unit scale, so a mixed-up slice shows
    scales = 10.0 ** rng.integers(-6, 7, size=(k, 1, 1))
    assert_stack_matches_slices(prob, rng.standard_normal((k,) + prob.shape) * scales)


# L_star against the least constant (Ky Fan), for both problem kinds with a
# constant Hessian: fig2's two feature kinds, and quadratics with m > n and m < n
KY_FAN_CASES = {
    "fig2-gaussian-c10": {"kind": "linear_mse", "features": "gaussian", "c": 10},
    "fig2-gaussian-c100": {"kind": "linear_mse", "features": "gaussian", "c": 100},
    "fig2-lowrank-c10": {"kind": "linear_mse", "features": "lowrank", "c": 10,
                         "target_ratio": 1.41},
    "fig2-lowrank-c100": {"kind": "linear_mse", "features": "lowrank", "c": 100,
                          "target_ratio": 1.41},
    "quadratic-20x15": {"kind": "quadratic", "m": 20, "n": 15},
    "quadratic-15x20": {"kind": "quadratic", "m": 15, "n": 20},
    "quadratic-9x6-half-false": {"kind": "quadratic", "m": 9, "n": 6, "half": False},
    "quadratic-6x9": {"kind": "quadratic", "m": 6, "n": 9},
}


def _l_star_and_ky_fan(case):
    """(L_star, the Ky Fan constant) of a KY_FAN_CASES problem at study seed 0."""
    prob = harness.build_problem(KY_FAN_CASES[case], 0)
    meta = prob.metadata
    if meta["kind"] == "quadratic":
        curvature = 2.0 * meta["c_scale"] * meta["Q"]
    else:
        X = meta["X"]
        curvature = X @ X.T / X.shape[1]
    return meta["L_star"], ky_fan_constant(curvature, prob.shape)


@pytest.mark.parametrize("case", KY_FAN_CASES)
def test_l_star_is_at_least_the_ky_fan_constant(case):
    L_star, least = _l_star_and_ky_fan(case)
    # where the two agree they differ by rounding only
    assert L_star >= least * (1.0 - 1e-12)


def test_l_star_is_the_loose_trace_bound_on_fig2_gaussian_c10_and_a_tall_quadratic():
    L_star, least = _l_star_and_ky_fan("fig2-gaussian-c10")
    assert round(L_star, 1) == 196.0 and round(least, 2) == 25.74
    L_star, least = _l_star_and_ky_fan("quadratic-20x15")
    # Q's eigenvalues are 1 and 19 times 1e-4: the trace 1.0019, the top-15 sum 1.0014
    assert L_star == pytest.approx(1.0019, rel=1e-12)
    assert least == pytest.approx(1.0014, rel=1e-12)


@pytest.mark.parametrize("case", ["fig2-lowrank-c100", "quadratic-15x20"])
def test_l_star_is_the_ky_fan_constant_when_the_rank_fits(case):
    """rank(H) <= c for the lowrank features, m <= n for the quadratic."""
    L_star, least = _l_star_and_ky_fan(case)
    assert L_star == pytest.approx(least, rel=1e-10)


# ---------------------------------------------------------------------------
# make_ill_conditioned_Q
# ---------------------------------------------------------------------------

def test_two_cluster_spectrum_ratio():
    Q = problems.make_ill_conditioned_Q(15, 1e4, "two_cluster", seed=5)
    s = np.linalg.svd(Q, compute_uv=False)
    assert np.sum(s) / s[0] == pytest.approx(1.0 + 14e-4, rel=1e-9)


def test_geometric_spectrum_m2():
    Q = problems.make_ill_conditioned_Q(2, 4.0, "geometric", seed=6)
    eigs = np.sort(np.linalg.eigvalsh(Q))[::-1]
    np.testing.assert_allclose(eigs, [1.0, 0.25], atol=1e-9)


def test_requested_eigenvalues_recovered():
    for decay in ("geometric", "two_cluster"):
        Q = problems.make_ill_conditioned_Q(8, 1e3, decay, seed=7)
        eigs = np.sort(np.linalg.eigvalsh(Q))[::-1]
        if decay == "geometric":
            expected = 1e3 ** (-np.arange(8) / 7.0)
        else:
            expected = np.full(8, 1e-3)
            expected[0] = 1.0
        np.testing.assert_allclose(eigs, expected, atol=1e-9)


# ---------------------------------------------------------------------------
# linear MSE
# ---------------------------------------------------------------------------

def test_linear_mse_least_squares_optimum():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((4, 12))  # full row rank
    Y = rng.standard_normal((3, 12))
    prob = problems.linear_mse_new(X, Y)
    W_opt = Y @ np.linalg.pinv(X)
    assert np.linalg.norm(prob.grad(W_opt)) <= 1e-10


def test_linear_mse_identity_features():
    d = 5
    X = np.eye(d)
    Y = np.zeros((2, d))
    prob = problems.linear_mse_new(X, Y)
    W = np.random.default_rng(8).standard_normal((2, d))
    assert prob.value(W) == pytest.approx(np.sum(W * W) / (2 * d), rel=1e-12)
    np.testing.assert_allclose(prob.grad(W), W / d, atol=1e-12)


def test_linear_mse_hessian_as_kron_oracle():
    rng = np.random.default_rng(9)
    c, d, B = 2, 3, 5
    X = rng.standard_normal((d, B))
    Y = rng.standard_normal((c, B))
    prob = problems.linear_mse_new(X, Y)
    H = kron(np.eye(c), X @ X.T / B)
    W = rng.standard_normal((c, d))
    O = matcore.orthogonalize_svd(rng.standard_normal((c, d)))
    quad_hvp = float(np.sum(O * prob.hvp(W, O)))
    quad_kron = float(vec_row(O) @ H @ vec_row(O))
    assert quad_hvp == pytest.approx(quad_kron, abs=1e-10)
    assert quad_hvp == pytest.approx(np.trace(O.T @ O @ (X @ X.T) / B), abs=1e-10)


def test_linear_mse_dimension_mismatch():
    with pytest.raises(ValueError):
        problems.linear_mse_new(np.zeros((3, 5)), np.zeros((2, 4)))


def test_linear_mse_fstar_on_demand():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((4, 10))
    Y = rng.standard_normal((2, 10))
    prob = problems.linear_mse_new(X, Y)
    fs = problems.f_star(prob)
    W_opt = Y @ np.linalg.pinv(X)
    assert fs == pytest.approx(prob.value(W_opt), rel=1e-9)
    assert problems.f_star(prob) == fs


def test_linear_mse_fstar_is_the_lazy_lstsq_value_bitwise():
    for d, B, c, seed in ((4, 10, 2, 10), (196, 400, 100, 0), (30, 20, 5, 3)):
        X = problems.lowrank_features(d, B, 1.41, seed=seed)
        Y = problems.onehot_labels(c, B, seed=seed + 1)
        prob = problems.linear_mse_new(X, Y)
        # the optimal value as it was computed on first query, before it was
        # stored when the problem is built
        W_opt, *_ = np.linalg.lstsq(X.T, Y.T, rcond=None)
        lazy = float(prob.value(W_opt.T))
        assert prob.metadata["f_star"] == lazy


# ---------------------------------------------------------------------------
# feature generators
# ---------------------------------------------------------------------------

def test_gaussian_features_degenerate_ratio():
    X = problems.gaussian_features(1, 1, seed=11)
    s = np.linalg.svd(X, compute_uv=False)
    assert np.sum(s ** 2) / s[0] ** 2 == 1.0


def test_gaussian_features_energy():
    d, B = 50, 80
    means = []
    for seed in range(20):
        X = problems.gaussian_features(d, B, seed=seed)
        means.append(np.sum(X * X))
    assert np.mean(means) == pytest.approx(d * B, rel=0.02)


def test_lowrank_features_hits_target():
    X = problems.lowrank_features(30, 40, 1.41, seed=12)
    s = np.linalg.svd(X, compute_uv=False)
    ratio = np.sum(s ** 2) / s[0] ** 2
    assert 1.38 <= ratio <= 1.44


def test_lowrank_features_rank_one():
    X = problems.lowrank_features(6, 8, 1.0, seed=13)
    s = np.linalg.svd(X, compute_uv=False)
    assert s[0] > 0 and np.all(s[1:] <= 1e-12)


def test_lowrank_features_feasibility():
    with pytest.raises(ValueError):
        problems.lowrank_features(4, 8, 4.5, seed=14)
    for below in (0.5, float("nan")):
        with pytest.raises(ValueError, match="target_ratio must be at least 1"):
            problems.lowrank_features(4, 8, below, seed=14)
    X = problems.lowrank_features(4, 8, 4.0, seed=14)  # boundary: flat spectrum
    s = np.linalg.svd(X, compute_uv=False)
    assert np.sum(s ** 2) / s[0] ** 2 == pytest.approx(4.0, rel=1e-9)


def test_lowrank_features_various_targets():
    for target in (1.2, 2.0, 5.0, 10.0):
        X = problems.lowrank_features(20, 25, target, seed=15)
        s = np.linalg.svd(X, compute_uv=False)
        ratio = np.sum(s ** 2) / s[0] ** 2
        assert ratio == pytest.approx(target, rel=0.02)


def test_onehot_labels_structure():
    Y = problems.onehot_labels(7, 30, seed=16)
    assert Y.shape == (7, 30)
    np.testing.assert_array_equal(Y.sum(axis=0), np.ones(30))
    assert np.all((Y == 0) | (Y == 1))
    np.testing.assert_array_equal(Y, problems.onehot_labels(7, 30, seed=16))


def test_csv_round_trip(tmp_path):
    X = np.random.default_rng(17).standard_normal((6, 9))
    path = tmp_path / "features.csv"
    problems.save_matrix_csv(X, path)
    np.testing.assert_array_equal(problems.load_features_csv(path), X)


def test_csv_malformed_row_reports_index(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(ValueError, match="row 1"):
        problems.load_features_csv(path)
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="row 1"):
        problems.load_features_csv(path)


def test_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("1.0,2.0\n\n  \n3.0,4.0\n")
    np.testing.assert_array_equal(problems.load_features_csv(path), [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("text,skip_header", [("", False), ("\n\n", False), ("a,b\n", True)],
                         ids=["empty", "blank-lines", "header-only"])
def test_csv_without_data_rows_names_the_file(tmp_path, text, skip_header):
    path = tmp_path / "none.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"no data rows in {path}")):
        problems.load_features_csv(path, skip_header=skip_header)


def test_csv_header_skip(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("a,b\n1.0,2.0\n")
    np.testing.assert_array_equal(problems.load_features_csv(path, skip_header=True),
                                  [[1.0, 2.0]])


# ---------------------------------------------------------------------------
# hvp contracts
# ---------------------------------------------------------------------------

def _hvp_linearity_and_symmetry(prob, W, rng, tol):
    D1 = rng.standard_normal(prob.shape)
    D2 = rng.standard_normal(prob.shape)
    a, b = 0.7, -1.3
    lin = prob.hvp(W, a * D1 + b * D2) - a * prob.hvp(W, D1) - b * prob.hvp(W, D2)
    scale = max(1.0, np.linalg.norm(prob.hvp(W, D1)), np.linalg.norm(prob.hvp(W, D2)))
    assert np.linalg.norm(lin) <= tol * scale
    s1 = float(np.sum(D1 * prob.hvp(W, D2)))
    s2 = float(np.sum(D2 * prob.hvp(W, D1)))
    assert abs(s1 - s2) <= tol * max(1.0, abs(s1))


def test_hvp_contracts_exact_oracles():
    rng = np.random.default_rng(18)
    Q = problems.make_ill_conditioned_Q(5, 30.0, "geometric", seed=18)
    quad = problems.quadratic_new(Q, rng.standard_normal((5, 6)))
    _hvp_linearity_and_symmetry(quad, rng.standard_normal((5, 6)), rng, 1e-7)
    mse = problems.linear_mse_new(rng.standard_normal((4, 9)), rng.standard_normal((3, 9)))
    _hvp_linearity_and_symmetry(mse, rng.standard_normal((3, 4)), rng, 1e-7)


def test_fd_hvp_cross_validates_exact_hvp():
    rng = np.random.default_rng(19)
    Q = problems.make_ill_conditioned_Q(5, 10.0, "geometric", seed=19)
    quad = problems.quadratic_new(Q, rng.standard_normal((5, 6)))
    mse = problems.linear_mse_new(rng.standard_normal((4, 9)), rng.standard_normal((3, 9)))
    for prob in (quad, mse):
        W = rng.standard_normal(prob.shape)
        D = rng.standard_normal(prob.shape)
        exact = prob.hvp(W, D)
        approx = fd_hvp(prob.grad, W, D)
        assert np.linalg.norm(approx - exact) <= 1e-5 * max(1.0, np.linalg.norm(exact))


def test_fd_hvp_calls_the_gradient_once_on_both_probe_points():
    rng = np.random.default_rng(39)
    prob = problems.linear_mse_new(rng.standard_normal((4, 9)), rng.standard_normal((3, 9)))
    W, D = rng.standard_normal(prob.shape), rng.standard_normal(prob.shape)
    calls = []

    def grad(V):
        calls.append(V.shape)
        return prob.grad(V)

    got = fd_hvp(grad, W, D)
    assert calls == [(2, 3, 4)]
    eps = problems._fd_step(W, D)
    assert np.array_equal(got, (prob.grad(W + eps * D) - prob.grad(W - eps * D)) / (2.0 * eps))
    assert np.array_equal(fd_hvp(grad, W, np.zeros(prob.shape)), np.zeros(prob.shape))
    assert len(calls) == 1


def test_value_and_grad_are_the_halves_of_an_instance_value_grad():
    rng = np.random.default_rng(23)
    Q = problems.make_ill_conditioned_Q(5, 10.0, "geometric", seed=23)
    kinds = [problems.quadratic_new(Q, rng.standard_normal((5, 6))),
             problems.linear_mse_new(rng.standard_normal((4, 9)), rng.standard_normal((3, 9))),
             _small_mlp(rng)]
    for prob in kinds:
        # replace the oracle on the instance, the way a tracer wraps it
        inner, calls = prob.value_grad, []
        prob.value_grad = lambda W, inner=inner, calls=calls: calls.append(W) or inner(W)
        for _ in range(5):
            W = rng.standard_normal(prob.shape)
            f, G = inner(W)
            assert prob.value(W) == f
            assert np.array_equal(prob.grad(W), G)
        assert len(calls) == 10


# ---------------------------------------------------------------------------
# MLP
# ---------------------------------------------------------------------------

def _small_mlp(rng, loss="softmax_ce", train_layer=None):
    X = rng.standard_normal((5, 16))
    Y = problems.onehot_labels(3, 16, seed=20)
    shapes = [(6, 5), (4, 6), (3, 4)]
    return problems.mlp_new(shapes, X, Y, loss=loss, seed=21, train_layer=train_layer)


def test_mlp_dead_network():
    X = np.zeros((4, 8))
    Y = np.zeros((2, 8))
    prob = problems.mlp_new([(3, 4), (2, 3)], X, Y, loss="mse", seed=22)
    W = np.random.default_rng(23).standard_normal(prob.shape)
    assert prob.value(W) == 0.0
    assert np.linalg.norm(prob.grad(W)) == 0.0


def test_mlp_single_layer_reduces_to_linear_mse():
    rng = np.random.default_rng(24)
    X = rng.standard_normal((4, 10))
    Y = rng.standard_normal((3, 10))
    mlp = problems.mlp_new([(3, 4)], X, Y, loss="mse", seed=25, train_layer=0)
    ref = problems.linear_mse_new(X, Y)
    W = rng.standard_normal((3, 4))
    D = rng.standard_normal((3, 4))
    assert mlp.value(W) == pytest.approx(ref.value(W), rel=1e-12)
    np.testing.assert_allclose(mlp.grad(W), ref.grad(W), atol=1e-12)
    np.testing.assert_allclose(mlp.hvp(W, D), ref.hvp(W, D),
                               atol=1e-6 * max(1.0, np.linalg.norm(ref.hvp(W, D))))


@pytest.mark.parametrize("loss", ["softmax_ce", "mse"])
def test_mlp_gradient_check(loss):
    rng = np.random.default_rng(26)
    prob = _small_mlp(rng, loss=loss)
    W = prob.metadata["W_init"] + 0.1 * rng.standard_normal(prob.shape)
    G = prob.grad(W)
    for _ in range(5):
        D = rng.standard_normal(prob.shape)
        eps = 1e-6 * (1.0 + np.linalg.norm(W)) / (1.0 + np.linalg.norm(D))
        fd = (prob.value(W + eps * D) - prob.value(W - eps * D)) / (2 * eps)
        inner = float(np.sum(G * D))
        assert fd == pytest.approx(inner, rel=1e-5, abs=1e-10)


def test_mlp_hvp_linearity_and_symmetry_fd_tolerance():
    rng = np.random.default_rng(27)
    prob = _small_mlp(rng)
    W = prob.metadata["W_init"]
    _hvp_linearity_and_symmetry(prob, W, rng, 1e-4)


def test_mlp_designated_layer_default_is_middle():
    rng = np.random.default_rng(28)
    prob = _small_mlp(rng)
    assert prob.metadata["train_layer"] == 1
    assert prob.shape == (4, 6)


def test_mlp_broken_chain_raises():
    with pytest.raises(ValueError):
        problems.mlp_new([(3, 4), (2, 5)], np.zeros((4, 3)), np.zeros((2, 3)))


@pytest.mark.parametrize("dims", [(4, 0, 3), (0,), (4, -1, 3)])
def test_mlp_refuses_a_layer_width_below_one(dims):
    shapes, prev = [], 5
    for width in dims:
        shapes.append((width, prev))
        prev = width
    X = np.random.default_rng(0).standard_normal((5, 7))
    with pytest.raises(ValueError, match="every layer width must be at least 1"):
        problems.mlp_new(shapes, X, np.zeros((dims[-1], 7)))


def test_mlp_kink_margin():
    rng = np.random.default_rng(29)
    prob = _small_mlp(rng)
    margin = prob.kink_margin(prob.metadata["W_init"])
    assert margin >= 0.0 and np.isfinite(margin)


def test_mlp_probe_clean_detects_mask_stability():
    rng = np.random.default_rng(33)
    X = rng.standard_normal((5, 16))
    Y = problems.onehot_labels(3, 16, seed=20)
    shapes = [(6, 5), (4, 6), (3, 4)]
    prob = problems.mlp_new(shapes, X, Y, seed=21)
    probe_clean = uncached_mlp_oracles(shapes, X, Y, "softmax_ce", 21, 1)["probe_clean"]
    W = prob.metadata["W_init"]
    D = rng.standard_normal(prob.shape)
    assert probe_clean(W, np.zeros(prob.shape))
    # when the probe is clean the fd product is machine-accurate in the
    # symmetry sense; when it is not, nothing is guaranteed
    if probe_clean(W, D):
        D2 = rng.standard_normal(prob.shape)
        if probe_clean(W, D2):
            s1 = float(np.sum(D * prob.hvp(W, D2)))
            s2 = float(np.sum(D2 * prob.hvp(W, D)))
            assert abs(s1 - s2) <= 1e-6 * max(1.0, abs(s1))


def _assert_oracles_equal(prob, ref, W, D):
    assert prob.value(W) == ref["value"](W)
    f, G = prob.value_grad(W)
    f_ref, G_ref = ref["value_grad"](W)
    assert f == f_ref and np.array_equal(G, G_ref)
    assert np.array_equal(prob.grad(W), ref["grad"](W))
    assert np.array_equal(prob.hvp(W, D), ref["hvp"](W, D))
    assert prob.kink_margin(W) == ref["kink_margin"](W)


@pytest.mark.parametrize("loss", ["softmax_ce", "mse"])
@pytest.mark.parametrize("train_layer", [0, 1, 2], ids=["first", "middle", "last"])
def test_mlp_cached_prefix_matches_full_forward(loss, train_layer):
    rng = np.random.default_rng(34)
    X = rng.standard_normal((5, 16))
    Y = problems.onehot_labels(3, 16, seed=20)
    shapes = [(6, 5), (4, 6), (3, 4)]
    prob = problems.mlp_new(shapes, X, Y, loss=loss, seed=21, train_layer=train_layer)
    ref = uncached_mlp_oracles(shapes, X, Y, loss, 21, train_layer)
    W0 = prob.metadata["W_init"]
    probes = []
    for W in (W0, W0 + 0.3 * rng.standard_normal(prob.shape), 1e-7 * W0):
        for D in (rng.standard_normal(prob.shape), np.zeros(prob.shape)):
            _assert_oracles_equal(prob, ref, W, D)
            probes.append(ref["probe_clean"](W, D))
    # below the last layer, a tiny W puts preactivations at the kinks
    assert all(probes) == (train_layer == 2)


def test_mlp_cached_prefix_matches_full_forward_with_dead_relus():
    rng = np.random.default_rng(35)
    # rank-one data with positive sample weights: a first-layer unit is either
    # alive for every sample or dead for every sample; the zero sample sits on
    # the kink
    v = np.abs(rng.standard_normal(12)) + 0.1
    v[3] = 0.0
    X = np.outer(rng.standard_normal(5), v)
    Y = rng.standard_normal((3, 12))
    shapes = [(6, 5), (5, 6), (4, 5), (3, 4)]
    prob = problems.mlp_new(shapes, X, Y, loss="mse", seed=36, train_layer=2)
    ref = uncached_mlp_oracles(shapes, X, Y, "mse", 36, 2)
    first = (np.random.default_rng(36).standard_normal(shapes[0]) * np.sqrt(2.0 / 5)) @ X
    assert np.any(np.all(first <= 0, axis=1)), "no dead unit in the frozen prefix"
    W0 = prob.metadata["W_init"]
    for W in (W0, W0 + 0.3 * rng.standard_normal(prob.shape)):
        _assert_oracles_equal(prob, ref, W, rng.standard_normal(prob.shape))
    assert prob.kink_margin(W0) == 0.0


def test_mlp_probe_across_a_relu_kink_is_not_clean():
    rng = np.random.default_rng(38)
    X = rng.standard_normal((5, 16))
    Y = problems.onehot_labels(3, 16, seed=20)
    shapes = [(6, 5), (4, 6), (3, 4)]
    prob = problems.mlp_new(shapes, X, Y, loss="mse", seed=21, train_layer=0)
    ref = uncached_mlp_oracles(shapes, X, Y, "mse", 21, 0)
    # move unit 0's preactivation on sample 0 onto the kink; the probe's
    # +-eps*D steps then put it on either side of zero
    W = prob.metadata["W_init"].copy()
    x = X[:, 0]
    W[0] -= (W[0] @ x) / (x @ x) * x
    D = rng.standard_normal(prob.shape)
    assert abs((W @ X)[0, 0]) < 1e-12 < abs((D @ X)[0, 0]) * problems._fd_step(W, D)
    assert not ref["probe_clean"](W, D)
    _assert_oracles_equal(prob, ref, W, D)


def test_mlp_copies_its_data():
    rng = np.random.default_rng(37)
    X = rng.standard_normal((5, 16))
    Y = problems.onehot_labels(3, 16, seed=20)
    for train_layer in (0, 1):
        prob = problems.mlp_new([(6, 5), (4, 6), (3, 4)], X, Y, seed=21,
                                train_layer=train_layer)
        W = prob.metadata["W_init"] + 0.1 * rng.standard_normal(prob.shape)
        D = rng.standard_normal(prob.shape)

        def outputs():
            return [prob.value(W), *prob.value_grad(W), prob.grad(W), prob.hvp(W, D),
                    prob.kink_margin(W)]

        before = outputs()
        X_saved, Y_saved = X.copy(), Y.copy()
        X *= -2.0
        Y[:] = Y[::-1]
        after = outputs()
        X[:], Y[:] = X_saved, Y_saved
        assert all(np.array_equal(b, a) for b, a in zip(before, after))


# ---------------------------------------------------------------------------
# stochastic oracle: a sample is the exact gradient plus verify's noise draw
# ---------------------------------------------------------------------------

def test_stochastic_grad_oracle_deterministic_limit():
    rng = np.random.default_rng(30)
    prob = problems.quadratic_new(np.eye(3), rng.standard_normal((3, 4)))
    W = rng.standard_normal((3, 4))
    noise_rng = np.random.default_rng(31)
    state = noise_rng.bit_generator.state
    draw = verify._gradient_noise(0.0, 1, (3, 4))
    np.testing.assert_array_equal(prob.grad(W) + draw(noise_rng), prob.grad(W))
    assert noise_rng.bit_generator.state == state  # sigma = 0 draws nothing


def test_stochastic_grad_oracle_variance():
    rng = np.random.default_rng(32)
    prob = problems.quadratic_new(np.eye(3), rng.standard_normal((3, 4)))
    sigma, batch = 1.0, 4
    draw = verify._gradient_noise(sigma, batch, (3, 4))
    noise_rng = np.random.default_rng(33)
    W = rng.standard_normal((3, 4))
    g = prob.grad(W)
    draws = 10_000
    sq = 0.0
    acc = np.zeros_like(g)
    for _ in range(draws):
        s = g + draw(noise_rng)
        sq += np.sum((s - g) ** 2)
        acc += s
    emp_var = sq / draws
    assert emp_var == pytest.approx(sigma ** 2 / batch, rel=0.05)
    # unbiasedness: entrywise CLT bound at 3 sigma
    mn = g.size
    entry_std = sigma / np.sqrt(batch * mn)
    np.testing.assert_allclose(acc / draws, g, atol=3.5 * entry_std / np.sqrt(draws))


def test_stochastic_grad_oracle_validation():
    """Both stochastic checks refuse a bad noise model before drawing."""
    prob = problems.quadratic_new(np.eye(2), np.zeros((2, 2)))
    for sigma, batch, message in ((-1.0, 1, "sigma must be nonnegative"),
                                  (1.0, 0, "batch must be at least 1")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            verify.check_momentum_error_lemma(sigma=sigma, batch=batch)
        with pytest.raises(ValueError, match=f"^{message}$"):
            verify.check_nonconvex_rate_bound(prob, sigma=sigma, batch=batch)
