import numpy as np
import pytest

from muonlab import matcore, problems
from muonlab.problems import fd_hvp


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
    H = matcore.kron(2.0 * prob.metadata["c_scale"] * Q, np.eye(4))
    D = rng.standard_normal((3, 4))
    lhs = matcore.vec_row(prob.hvp(None, D))
    rhs = H @ matcore.vec_row(D)
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


@pytest.mark.parametrize("half", [True, False])
@pytest.mark.parametrize("shape", [(15, 20), (6, 8), (1, 7)], ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("k", [1, 2, 9])
def test_quadratic_stacked_value_grad_matches_slices_bitwise(k, shape, half):
    m, n = shape
    rng = np.random.default_rng([k, m, n, half])
    Q = np.array([[3.0]]) if m == 1 else problems.make_ill_conditioned_Q(m, 1e4, seed=m)
    prob = problems.quadratic_new(Q, rng.uniform(-50.0, 50.0, shape), half=half)
    assert prob.value_grad_stacks
    # slices from 1e-12 to 1e12 times the optimum's scale, so a mixed-up slice shows
    scales = 10.0 ** rng.integers(-12, 13, size=(k, 1, 1))
    W = rng.standard_normal((k, m, n)) * scales
    values, G = prob.value_grad(W)
    assert values.shape == (k,) and G.shape == (k, m, n)
    for j in range(k):
        value, grad = prob.value_grad(W[j])
        assert values[j] == value
        assert np.array_equal(G[j], grad)


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
    H = matcore.kron(np.eye(c), X @ X.T / B)
    W = rng.standard_normal((c, d))
    O = matcore.orthogonalize_svd(rng.standard_normal((c, d)))
    quad_hvp = float(np.sum(O * prob.hvp(W, O)))
    quad_kron = float(matcore.vec_row(O) @ H @ matcore.vec_row(O))
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


def test_csv_header_skip(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("a,b\n1.0,2.0\n")
    np.testing.assert_array_equal(problems.load_features_csv(path, skip_header=True),
                                  [[1.0, 2.0]])


def test_load_labels_csv_one_hot(tmp_path):
    Y = problems.onehot_labels(3, 8, seed=40)
    path = tmp_path / "labels.csv"
    problems.save_matrix_csv(Y, path)
    np.testing.assert_array_equal(problems.load_labels_csv(path), Y)


def test_load_labels_csv_integer_classes(tmp_path):
    path = tmp_path / "ids.csv"
    path.write_text("0,2,1,2\n")
    Y = problems.load_labels_csv(path, integer_classes=True)
    assert Y.shape == (3, 4)
    np.testing.assert_array_equal(Y.argmax(axis=0), [0, 2, 1, 2])
    Y5 = problems.load_labels_csv(path, integer_classes=True, classes=5)
    assert Y5.shape == (5, 4)


def test_load_labels_csv_rejects_non_onehot(tmp_path):
    path = tmp_path / "bad_labels.csv"
    path.write_text("0.5,0.5\n0.5,0.5\n")
    with pytest.raises(ValueError):
        problems.load_labels_csv(path)
    path.write_text("0,1.5,1\n")
    with pytest.raises(ValueError):
        problems.load_labels_csv(path, integer_classes=True)


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


def test_mlp_kink_margin():
    rng = np.random.default_rng(29)
    prob = _small_mlp(rng)
    margin = prob.kink_margin(prob.metadata["W_init"])
    assert margin >= 0.0 and np.isfinite(margin)


def test_mlp_probe_clean_detects_mask_stability():
    rng = np.random.default_rng(33)
    prob = _small_mlp(rng)
    W = prob.metadata["W_init"]
    D = rng.standard_normal(prob.shape)
    assert prob.probe_clean(W, np.zeros(prob.shape))
    # when the probe is clean the fd product is machine-accurate in the
    # symmetry sense; when it is not, nothing is guaranteed
    if prob.probe_clean(W, D):
        D2 = rng.standard_normal(prob.shape)
        if prob.probe_clean(W, D2):
            s1 = float(np.sum(D * prob.hvp(W, D2)))
            s2 = float(np.sum(D2 * prob.hvp(W, D)))
            assert abs(s1 - s2) <= 1e-6 * max(1.0, abs(s1))


def _uncached_mlp_oracles(shapes, X, Y, loss, seed, train_layer):
    """The MLP oracles computed with a full forward pass from X on every call."""
    rng = np.random.default_rng(seed)
    frozen = [rng.standard_normal(s) * np.sqrt(2.0 / s[1]) for s in shapes]

    def assemble(W):
        ws = list(frozen)
        ws[train_layer] = W
        return ws

    def forward(W):
        acts, pres, H = [X], [], X
        ws = assemble(W)
        for idx, Wi in enumerate(ws):
            Z = Wi @ H
            pres.append(Z)
            H = np.maximum(Z, 0.0) if idx < len(ws) - 1 else Z
            acts.append(H)
        return ws, pres, acts

    def value_grad(W):
        ws, pres, acts = forward(W)
        f, delta = problems._mlp_loss_and_delta(acts[-1], Y, loss)
        for idx in range(len(ws) - 1, -1, -1):
            G = delta @ acts[idx].T
            if idx == train_layer:
                return f, G
            delta = ws[idx].T @ delta
            if idx > 0:
                delta = delta * (pres[idx - 1] > 0)

    def grad(W):
        return value_grad(W)[1]

    def kink_margin(W):
        hidden = forward(W)[1][:-1]
        return float(min(np.abs(Z).min() for Z in hidden)) if hidden else float("inf")

    def masks(W):
        return [Z > 0 for Z in forward(W)[1][:-1]]

    def probe_clean(W, D):
        dn = float(np.linalg.norm(D, "fro"))
        if dn == 0.0:
            return True
        eps = 1e-4 * (1.0 + float(np.linalg.norm(W, "fro"))) / (1.0 + dn)
        ref = masks(W)
        return all(np.array_equal(got, want)
                   for signed in (W + eps * D, W - eps * D)
                   for got, want in zip(masks(signed), ref))

    return {"value": lambda W: value_grad(W)[0], "value_grad": value_grad, "grad": grad,
            "hvp": lambda W, D: fd_hvp(grad, W, D), "kink_margin": kink_margin,
            "probe_clean": probe_clean}


def _assert_oracles_equal(prob, ref, W, D):
    assert prob.value(W) == ref["value"](W)
    f, G = prob.value_grad(W)
    f_ref, G_ref = ref["value_grad"](W)
    assert f == f_ref and np.array_equal(G, G_ref)
    assert np.array_equal(prob.grad(W), ref["grad"](W))
    assert np.array_equal(prob.hvp(W, D), ref["hvp"](W, D))
    assert prob.kink_margin(W) == ref["kink_margin"](W)
    assert prob.probe_clean(W, D) == ref["probe_clean"](W, D)


@pytest.mark.parametrize("loss", ["softmax_ce", "mse"])
@pytest.mark.parametrize("train_layer", [0, 1, 2], ids=["first", "middle", "last"])
def test_mlp_cached_prefix_matches_full_forward(loss, train_layer):
    rng = np.random.default_rng(34)
    X = rng.standard_normal((5, 16))
    Y = problems.onehot_labels(3, 16, seed=20)
    shapes = [(6, 5), (4, 6), (3, 4)]
    prob = problems.mlp_new(shapes, X, Y, loss=loss, seed=21, train_layer=train_layer)
    ref = _uncached_mlp_oracles(shapes, X, Y, loss, 21, train_layer)
    W0 = prob.metadata["W_init"]
    probes = []
    for W in (W0, W0 + 0.3 * rng.standard_normal(prob.shape), 1e-7 * W0):
        for D in (rng.standard_normal(prob.shape), np.zeros(prob.shape)):
            _assert_oracles_equal(prob, ref, W, D)
            probes.append(prob.probe_clean(W, D))
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
    ref = _uncached_mlp_oracles(shapes, X, Y, "mse", 36, 2)
    first = (np.random.default_rng(36).standard_normal(shapes[0]) * np.sqrt(2.0 / 5)) @ X
    assert np.any(np.all(first <= 0, axis=1)), "no dead unit in the frozen prefix"
    W0 = prob.metadata["W_init"]
    for W in (W0, W0 + 0.3 * rng.standard_normal(prob.shape)):
        _assert_oracles_equal(prob, ref, W, rng.standard_normal(prob.shape))
    assert prob.kink_margin(W0) == 0.0


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
                    prob.kink_margin(W), prob.probe_clean(W, D)]

        before = outputs()
        X_saved, Y_saved = X.copy(), Y.copy()
        X *= -2.0
        Y[:] = Y[::-1]
        after = outputs()
        X[:], Y[:] = X_saved, Y_saved
        assert all(np.array_equal(b, a) for b, a in zip(before, after))


# ---------------------------------------------------------------------------
# stochastic oracle
# ---------------------------------------------------------------------------

def test_stochastic_grad_oracle_deterministic_limit():
    rng = np.random.default_rng(30)
    prob = problems.quadratic_new(np.eye(3), rng.standard_normal((3, 4)))
    oracle = problems.StochasticGradOracle(prob, sigma=0.0, batch=1, seed=31)
    W = rng.standard_normal((3, 4))
    np.testing.assert_array_equal(oracle.sample(W), prob.grad(W))


def test_stochastic_grad_oracle_variance():
    rng = np.random.default_rng(32)
    prob = problems.quadratic_new(np.eye(3), rng.standard_normal((3, 4)))
    sigma, batch = 1.0, 4
    oracle = problems.StochasticGradOracle(prob, sigma, batch, seed=33)
    W = rng.standard_normal((3, 4))
    g = prob.grad(W)
    draws = 10_000
    sq = 0.0
    acc = np.zeros_like(g)
    for _ in range(draws):
        s = oracle.sample(W)
        sq += np.sum((s - g) ** 2)
        acc += s
    emp_var = sq / draws
    assert emp_var == pytest.approx(sigma ** 2 / batch, rel=0.05)
    # unbiasedness: entrywise CLT bound at 3 sigma
    mn = g.size
    entry_std = sigma / np.sqrt(batch * mn)
    np.testing.assert_allclose(acc / draws, g, atol=3.5 * entry_std / np.sqrt(draws))


def test_stochastic_grad_oracle_validation():
    prob = problems.quadratic_new(np.eye(2), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        problems.StochasticGradOracle(prob, sigma=-1.0)
    with pytest.raises(ValueError):
        problems.StochasticGradOracle(prob, sigma=1.0, batch=0)
