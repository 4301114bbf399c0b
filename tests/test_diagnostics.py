import math

import numpy as np
import pytest

from muonlab import diagnostics as dg
from muonlab import matcore, problems
from muonlab.problems import Problem
from oracles import concentration_ratio, direction_rank, kron, vec_row, vonneumann_bound


def kron_problem(P, Q):
    """Synthetic problem whose Hessian map is D -> P D Q^T (P, Q symmetric)."""
    m, n = P.shape[0], Q.shape[0]

    def hvp(W, D):
        return P @ D @ Q.T

    return Problem((m, n), value_grad=lambda W: (0.0, np.zeros((m, n))),
                   hvp=hvp, metadata={"kind": "kron_test"})


# ---------------------------------------------------------------------------
# j_t
# ---------------------------------------------------------------------------

def test_j_t_hand_computed_quadratic():
    prob = problems.quadratic_new(np.diag([2.0, 1.0]), np.zeros((2, 2)))
    assert dg.j_t(prob, np.eye(2), np.eye(2)) == pytest.approx(3.0, rel=1e-12)


def test_j_t_identity_hessian_gives_rank():
    # Q = I/2 with the unscaled convention makes the Hessian the identity map
    prob = problems.quadratic_new(0.5 * np.eye(4), np.zeros((4, 6)), half=False)
    O = matcore.orthogonalize_svd(np.random.default_rng(0).standard_normal((4, 6)))
    r_t = direction_rank(O)
    assert dg.j_t(prob, np.zeros((4, 6)), O) == pytest.approx(float(r_t), rel=1e-10)


def test_j_t_zero_direction():
    prob = problems.quadratic_new(np.eye(2), np.zeros((2, 2)))
    assert dg.j_t(prob, np.eye(2), np.zeros((2, 2))) == 0.0


def test_j_t_agrees_with_kron_quadratic_form():
    rng = np.random.default_rng(1)
    Q = problems.make_ill_conditioned_Q(3, 5.0, "geometric", seed=1)
    prob = problems.quadratic_new(Q, rng.standard_normal((3, 4)))
    H = kron(2.0 * prob.metadata["c_scale"] * Q, np.eye(4))
    O = matcore.orthogonalize_svd(rng.standard_normal((3, 4)))
    v = vec_row(O)
    assert dg.j_t(prob, np.zeros((3, 4)), O) == pytest.approx(float(v @ H @ v), abs=1e-9)


# ---------------------------------------------------------------------------
# l_t
# ---------------------------------------------------------------------------

def test_l_t_known_spectrum():
    prob = problems.quadratic_new(np.diag([2.0, 1.0]), np.zeros((2, 3)))
    val, converged = dg.l_t(prob, np.zeros((2, 3)))
    assert converged
    assert val == pytest.approx(2.0, rel=1e-5)


def test_l_t_linear_mse_matches_svd_oracle():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((5, 11))
    prob = problems.linear_mse_new(X, rng.standard_normal((3, 11)))
    val, converged = dg.l_t(prob, np.zeros((3, 5)), max_iter=500)
    oracle = float(np.linalg.svd(X, compute_uv=False)[0] ** 2) / 11
    assert converged
    assert val == pytest.approx(oracle, rel=1e-5)


def test_l_t_kronecker_factorization():
    rng = np.random.default_rng(3)
    P = problems.make_ill_conditioned_Q(4, 7.0, "geometric", seed=3)
    Q = problems.make_ill_conditioned_Q(5, 3.0, "geometric", seed=4)
    prob = kron_problem(P, Q)
    val, converged = dg.l_t(prob, None, max_iter=500)
    p_op = float(np.linalg.svd(P, compute_uv=False)[0])
    q_op = float(np.linalg.svd(Q, compute_uv=False)[0])
    assert converged
    assert val == pytest.approx(p_op * q_op, rel=1e-5)


def test_l_t_constant_over_quadratic_iterates():
    rng = np.random.default_rng(4)
    Q = problems.make_ill_conditioned_Q(5, 40.0, "geometric", seed=5)
    prob = problems.quadratic_new(Q, rng.standard_normal((5, 6)))
    vals = []
    for k in range(10):
        W = rng.standard_normal((5, 6))
        val, _ = dg.l_t(prob, W, tol=1e-9, max_iter=1000, seed=k)
        vals.append(val)
    assert (max(vals) - min(vals)) / max(vals) <= 1e-6


def test_l_t_hvp_count_pins_the_default_tolerance():
    """Eigenvalues 1, 0.9 and 0.5 on the left of a 3x2 direction: the Rayleigh
    quotient's steps shrink by about 0.81 per hvp, so a tenfold tolerance
    changes the count by about 11 (61 at tol 1e-6, 50 at 1e-5, 72 at 1e-7)."""
    prob = problems.quadratic_new(np.diag([1.0, 0.9, 0.5]), np.zeros((3, 2)))
    calls = []
    hvp = prob.hvp
    prob.hvp = lambda W, D: calls.append(D) or hvp(W, D)
    val, converged = dg.l_t(prob, np.zeros((3, 2)))
    assert converged and len(calls) == 61
    assert 1e-6 < 1.0 - val < 1e-5


def test_l_t_negative_dominant_eigenvalue():
    # indefinite map D -> -2 D has operator norm 2
    prob = Problem((3, 3), value_grad=lambda W: (0.0, np.zeros((3, 3))),
                   hvp=lambda W, D: -2.0 * D)
    val, converged = dg.l_t(prob, None)
    assert converged and val == pytest.approx(2.0, rel=1e-6)


# ---------------------------------------------------------------------------
# hat_j_t
# ---------------------------------------------------------------------------

def test_hat_j_t_quadratic_gradient_difference():
    rng = np.random.default_rng(5)
    Qd = np.diag([3.0, 1.0, 0.5])
    prob = problems.quadratic_new(Qd, rng.standard_normal((3, 4)))
    W = rng.standard_normal((3, 4))
    G = prob.grad(W)
    O_t = matcore.orthogonalize_svd(G)
    eta = 0.05
    W_next = W - eta * O_t
    # for a quadratic, grad(W) - grad(W_next) = eta * hvp(., O_t)
    got = dg.hat_j_t(prob, W, O_t, G, prob.grad(W_next))
    O_g = matcore.orthogonalize_svd(prob.hvp(W, O_t))
    expected = float(np.sum(O_g * prob.hvp(W, O_t)))
    assert got == pytest.approx(expected, rel=1e-9)


def test_hat_j_t_aligned_directions_equal_j_t():
    prob = problems.quadratic_new(np.diag([2.0, 1.0]), np.zeros((2, 2)))
    O = np.eye(2)
    # gradient difference proportional to hvp(O) = Q O, whose polar factor is I = O
    grad_prev = prob.hvp(None, O)
    got = dg.hat_j_t(prob, None, O, grad_prev, np.zeros((2, 2)))
    assert got == pytest.approx(dg.j_t(prob, None, O), rel=1e-12)


def test_hat_j_t_bilinearity_in_hvp():
    rng = np.random.default_rng(6)
    Q = problems.make_ill_conditioned_Q(3, 4.0, "geometric", seed=6)
    base = problems.quadratic_new(Q, np.zeros((3, 3)))
    doubled = Problem(base.shape, base.value_grad,
                      lambda W, D: 2.0 * base.hvp(W, D), metadata=base.metadata)
    O_t = matcore.orthogonalize_svd(rng.standard_normal((3, 3)))
    diff = rng.standard_normal((3, 3))
    a = dg.hat_j_t(base, None, O_t, diff, np.zeros((3, 3)))
    b = dg.hat_j_t(doubled, None, O_t, diff, np.zeros((3, 3)))
    assert b == pytest.approx(2.0 * a, rel=1e-12)


def test_hat_j_t_zero_difference():
    prob = problems.quadratic_new(np.eye(2), np.zeros((2, 2)))
    assert dg.hat_j_t(prob, None, np.eye(2), np.ones((2, 2)), np.ones((2, 2))) == 0.0


# ---------------------------------------------------------------------------
# ratio condition
# ---------------------------------------------------------------------------

def test_ratio_condition_boundary_equality():
    lhs, rhs = dg.ratio_condition(2.0, 2.0, 3.0, 3.0)  # rank-1 gradient
    assert lhs == 1.0 and rhs == 1.0


def test_ratio_condition_full_rank_gradient():
    # isotropic gradient of rank r: nuc^2/F^2 = r >= 0.5
    r = 4
    lhs, rhs = dg.ratio_condition(1.0, 2.0, 1.0, math.sqrt(r))
    assert lhs == 0.5 and rhs == pytest.approx(r)


def test_ratio_condition_degenerate():
    assert dg.ratio_condition(1.0, 0.0, 1.0, 1.0) == (None, None)
    assert dg.ratio_condition(1.0, 1.0, 0.0, 0.0) == (None, None)


# ---------------------------------------------------------------------------
# averages
# ---------------------------------------------------------------------------

def test_weighted_j_tilde_constant_sequence():
    T, eta, D = 9, 0.2, 1.0
    jt = dg.weighted_j_tilde([3.0] * T, eta, D)
    expected = 3.0 / T * sum((1 - eta / D) ** (T - 1 - t) for t in range(T))
    assert jt == pytest.approx(expected, rel=1e-12)


def test_weighted_j_tilde_degenerate_weight():
    vals = [1.0, 2.0, 5.0, 7.0]
    # eta = D_op kills every weight except the last step
    assert dg.weighted_j_tilde(vals, 1.0, 1.0) == pytest.approx(vals[-1] / len(vals))


def test_averages_against_fsum_oracle():
    rng = np.random.default_rng(7)
    vals = list(rng.standard_normal(500))
    eta, D = 0.3, 2.0
    T = len(vals)
    oracle = math.fsum((1 - eta / D) ** (T - 1 - t) * v for t, v in enumerate(vals)) / T
    assert dg.weighted_j_tilde(vals, eta, D) == pytest.approx(oracle, rel=1e-12)


def test_weighted_j_tilde_bounded_by_abs_mean():
    rng = np.random.default_rng(8)
    for _ in range(20):
        vals = list(rng.standard_normal(30))
        eta = rng.uniform(0.01, 1.0)
        jt = dg.weighted_j_tilde(vals, eta, 1.0)
        assert jt <= np.mean(np.abs(vals)) + 1e-9


def test_average_validation():
    with pytest.raises(ValueError):
        dg.weighted_j_tilde([], eta=0.5, D_op=1.0)
    with pytest.raises(ValueError):
        dg.weighted_j_tilde([1.0], eta=2.0, D_op=1.0)


# ---------------------------------------------------------------------------
# Von Neumann bound
# ---------------------------------------------------------------------------

def test_vonneumann_arithmetic():
    assert vonneumann_bound([2.0, 1.0], [3.0, 1.0], 2) == 7.0
    assert vonneumann_bound([1.0] * 5, [1.0] * 5, 4) == 4.0


def test_vonneumann_validation():
    with pytest.raises(ValueError):
        vonneumann_bound([1.0, 2.0], [2.0, 1.0], 2)  # not sorted
    with pytest.raises(ValueError):
        vonneumann_bound([2.0, 1.0], [1.0], 2)


def test_vonneumann_bounds_j_t_on_kron_instances():
    rng = np.random.default_rng(9)
    for _ in range(100):
        m, n = rng.integers(2, 6, 2)
        P = problems.make_ill_conditioned_Q(m, float(rng.uniform(2, 50)), "geometric",
                                            seed=int(rng.integers(1 << 30)))
        Q = problems.make_ill_conditioned_Q(n, float(rng.uniform(2, 50)), "geometric",
                                            seed=int(rng.integers(1 << 30)))
        prob = kron_problem(P, Q)
        O = matcore.orthogonalize_svd(rng.standard_normal((m, n)))
        r_t = direction_rank(O)
        p_sv = np.linalg.svd(P, compute_uv=False)
        q_sv = np.linalg.svd(Q, compute_uv=False)
        assert dg.j_t(prob, None, O) <= vonneumann_bound(p_sv, q_sv, r_t) + 1e-9


# ---------------------------------------------------------------------------
# distances, ratios, spectra
# ---------------------------------------------------------------------------

def test_distance_metrics_at_optimum():
    W = np.random.default_rng(10).standard_normal((3, 4))
    assert dg.distance_metrics(W, W) == (0.0, 0.0)


def test_distance_metrics_orthogonal_displacement():
    r = 5
    d_f, d_op = dg.distance_metrics(np.eye(r), np.zeros((r, r)))
    assert d_f ** 2 == pytest.approx(r, rel=1e-12)
    assert d_op ** 2 == pytest.approx(1.0, rel=1e-12)
    assert dg.comparison_ratio(d_f, d_op, 2.0, 2.0) == pytest.approx(r, rel=1e-12)


@pytest.mark.parametrize("W_shape, W_star_shape", [
    ((15, 20), (1, 20)),        # would broadcast to distances of (0.0, 0.0)
    ((15, 20), (20, 15)),
    ((4, 15, 20), (1, 20)),
    ((4, 15, 20), (15, 1)),
])
def test_distance_metrics_rejects_mismatched_shapes(W_shape, W_star_shape):
    with pytest.raises(ValueError) as info:
        dg.distance_metrics(np.ones(W_shape), np.ones(W_star_shape))
    assert str(W_shape) in str(info.value) and str(W_star_shape) in str(info.value)


def test_comparison_ratio_validation():
    with pytest.raises(ValueError):
        dg.comparison_ratio(1.0, 0.0, 1.0, 1.0)


def test_spectrum_and_concentration():
    A = np.outer([1.0, 2.0], [3.0, 4.0, 0.0])
    assert concentration_ratio(A) == pytest.approx(1.0, rel=1e-12)
    Q, _ = np.linalg.qr(np.random.default_rng(11).standard_normal((6, 6)))
    assert concentration_ratio(Q) == pytest.approx(6.0, rel=1e-10)
    sv = matcore.svd(Q)
    np.testing.assert_allclose(sv, np.ones(6), atol=1e-12)
    with pytest.raises(ValueError):
        concentration_ratio(np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# record validation
# ---------------------------------------------------------------------------

def test_validate_record_accepts_consistent_row():
    rec = dg.StepRecord(t=0, f=1.0, grad_F=1.0, grad_nuc=1.5, J_t=2.0, L_t=1.0)
    dg.validate_record(rec, r=4, dir_sq=3.0)


def test_validate_record_rejects_norm_bracket_violation():
    rec = dg.StepRecord(t=0, f=1.0, grad_F=2.0, grad_nuc=1.0)
    with pytest.raises(AssertionError):
        dg.validate_record(rec, r=4)
    rec = dg.StepRecord(t=0, f=1.0, grad_F=1.0, grad_nuc=3.0)
    with pytest.raises(AssertionError):
        dg.validate_record(rec, r=4)  # sqrt(4) * 1 = 2 < 3


def test_validate_record_rejects_rayleigh_violation():
    rec = dg.StepRecord(t=0, f=1.0, grad_F=1.0, grad_nuc=1.0, J_t=5.0, L_t=1.0)
    with pytest.raises(AssertionError):
        dg.validate_record(rec, r=4, dir_sq=2.0)


def test_validate_record_bounds_j_by_the_directions_squared_norm():
    """A Newton-Schulz direction's squared norm exceeds its rank, and |J_t| may
    reach L_t * ||O_t||_F^2 but not pass it."""
    O = matcore.orthogonalize_ns(np.diag([1.0, 0.5, 0.25]))
    dir_sq = float(np.sum(O * O))
    assert dir_sq > 3.0 + 1e-3
    rec = dg.StepRecord(t=0, f=1.0, grad_F=1.0, grad_nuc=1.5, J_t=-2.0 * dir_sq, L_t=2.0)
    assert dg.validate_record(rec, r=4, dir_sq=dir_sq)
    rec.J_t *= 1.0 + 1e-8
    assert not dg.validate_record(rec, r=4, dir_sq=dir_sq, strict=False)
    with pytest.raises(AssertionError, match=r"L_t\*\|\|O_t\|\|_F\^2"):
        dg.validate_record(rec, r=4, dir_sq=dir_sq)


def test_eq_j_entry_sum_decomposition():
    # J_t equals the sum of the r_t^2 diagonal-block entries of the
    # congruence-transformed Hessian, and the congruence inner product.
    rng = np.random.default_rng(12)
    for _ in range(20):
        m, n = rng.integers(2, 6, 2)
        P = problems.make_ill_conditioned_Q(m, 5.0, "geometric",
                                            seed=int(rng.integers(1 << 30)))
        Qf = problems.make_ill_conditioned_Q(n, 5.0, "geometric",
                                             seed=int(rng.integers(1 << 30)))
        prob = kron_problem(P, Qf)
        G = rng.standard_normal((m, n))
        U, _, Vh = np.linalg.svd(G, full_matrices=False)
        V = Vh.T
        r_t = int(min(m, n))
        H = kron(P, Qf)
        A = kron(U.T, V.T) @ H @ kron(U, V)
        idx = [i * (r_t + 1) for i in range(r_t)]
        entry_sum = float(sum(A[i, j] for i in idx for j in idx))
        O = U @ V.T
        j_val = dg.j_t(prob, None, O)
        congruence = float(np.sum((U.T @ P @ U) * (V.T @ Qf @ V)))
        assert j_val == pytest.approx(entry_sum, abs=1e-9)
        assert j_val == pytest.approx(congruence, abs=1e-9)
