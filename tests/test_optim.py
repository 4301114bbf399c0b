import math

import numpy as np
import pytest

from muonlab import harness, matcore, optim, problems


def test_first_step_copies_gradient():
    state = optim.MuonState(beta=0.7)
    W = np.zeros((3, 4))
    G = np.random.default_rng(0).standard_normal((3, 4))
    W1 = optim.muon_step(state, W, G, 0.2)
    np.testing.assert_array_equal(state.M, G)
    np.testing.assert_allclose(W1, -0.2 * matcore.orthogonalize_svd(G), atol=1e-14)
    assert state.t == 1


def test_momentum_recursion_expansion():
    rng = np.random.default_rng(1)
    beta = 0.85
    grads = [rng.standard_normal((4, 3)) for _ in range(8)]
    state = optim.MuonState(beta=beta)
    W = np.zeros((4, 3))
    for G in grads:
        W = optim.muon_step(state, W, G, 0.01)
    t = len(grads) - 1
    expected = beta ** t * grads[0]
    for i in range(1, t + 1):
        expected = expected + (1 - beta) * beta ** (t - i) * grads[i]
    assert np.linalg.norm(state.M - expected) <= 1e-10


def test_beta_zero_matches_simplified():
    rng = np.random.default_rng(2)
    grads = [rng.standard_normal((5, 7)) for _ in range(6)]
    state = optim.MuonState(beta=0.0)
    W_a = np.zeros((5, 7))
    W_b = np.zeros((5, 7))
    for G in grads:
        W_a = optim.muon_step(state, W_a, G, 0.05)
        W_b = optim.simplified_muon_step(W_b, G, 0.05)
    np.testing.assert_array_equal(W_a, W_b)


def test_muon_hand_computed_quadratic_step():
    # grad of the half-scaled quadratic with Q = diag(2,1) at W - W* = I is diag(2,1)
    state = optim.MuonState(beta=0.0)
    W = np.eye(2)
    G = np.diag([2.0, 1.0])
    W1 = optim.muon_step(state, W, G, 0.1)
    np.testing.assert_allclose(W1, np.eye(2) - 0.1 * np.eye(2), atol=1e-14)


def test_muon_zero_momentum_is_no_movement():
    state = optim.MuonState(beta=0.5)
    W = np.ones((2, 2))
    W1 = optim.muon_step(state, W, np.zeros((2, 2)), 0.3)
    np.testing.assert_array_equal(W1, W)


def test_shape_mismatch_raises():
    state = optim.MuonState()
    with pytest.raises(ValueError):
        optim.muon_step(state, np.zeros((2, 2)), np.zeros((2, 3)), 0.1)
    with pytest.raises(ValueError):
        optim.gd_step(np.zeros((2, 2)), np.zeros((3, 2)), 0.1)


def test_simplified_muon_orthogonal_gradient():
    Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
    W = np.zeros((4, 4))
    W1 = optim.simplified_muon_step(W, Q, 1.0)
    # the polar factor of an orthogonal matrix is itself: step = G / ||G||_op
    np.testing.assert_allclose(W1, -Q, atol=1e-12)


def test_simplified_muon_zero_gradient():
    W = np.ones((3, 2))
    np.testing.assert_array_equal(optim.simplified_muon_step(W, np.zeros((3, 2)), 0.5), W)


def test_simplified_muon_is_the_orthogonalized_move():
    rng = np.random.default_rng(12)
    W = rng.standard_normal((5, 7))
    G = rng.standard_normal((5, 7))
    for method in ("svd", "ns"):
        np.testing.assert_array_equal(
            optim.simplified_muon_step(W, G, 0.3, orthogonalizer=method),
            W - 0.3 * optim.orthogonalize(G, method))


def test_orthogonalize_stack_zero_slice_each_route():
    rng = np.random.default_rng(13)
    M = np.stack([rng.standard_normal((4, 6)), np.zeros((4, 6)),
                  rng.standard_normal((4, 6))])
    for method in ("svd", "ns"):
        O = optim.orthogonalize(M, method)
        for slice_, o in zip(M, O):
            np.testing.assert_array_equal(o, optim.orthogonalize(slice_, method))
    np.testing.assert_array_equal(optim.orthogonalize(np.zeros((2, 3, 4)), "ns"), 0.0)
    with pytest.raises(ValueError):
        optim.MuonState(orthogonalizer="qr")


def test_step_writes_to_out_and_leaves_inputs():
    rng = np.random.default_rng(14)
    W = rng.standard_normal((3, 4))
    G = rng.standard_normal((3, 4))
    W_copy, G_copy = W.copy(), G.copy()
    expected = optim.adamw_step(optim.AdamState(), W, G, 0.1)
    np.testing.assert_array_equal(W, W_copy)
    np.testing.assert_array_equal(G, G_copy)
    assert optim.adamw_step(optim.AdamState(), W, G, 0.1, out=W) is W
    np.testing.assert_array_equal(W, expected)


def test_step_direction_duality():
    rng = np.random.default_rng(4)
    for _ in range(20):
        M = rng.standard_normal((6, 9))
        O = matcore.orthogonalize_svd(M)
        assert abs(np.linalg.norm(O, 2) - 1.0) <= 1e-10
        inner = float(np.sum(M * O))
        nuc = matcore.nuclear_norm(M)
        assert inner == pytest.approx(nuc, rel=1e-9)


def test_gd_zero_eta_is_identity():
    W = np.random.default_rng(5).standard_normal((3, 3))
    np.testing.assert_array_equal(optim.gd_step(W, np.ones((3, 3)), 0.0), W)


def test_gd_closed_form_contraction():
    Q = np.diag([2.0, 1.0])
    prob = problems.quadratic_new(Q, np.zeros((2, 2)))
    L = prob.metadata["L"]
    W = np.diag([1.0, 1.0])
    # one step with eta = 1/L contracts mode i by (1 - lambda_i / L) = (1 - lambda_i / 2)
    W1 = optim.gd_step(W, prob.grad(W), 1.0 / L)
    np.testing.assert_allclose(np.diag(W1), [0.0, 0.5], atol=1e-14)


def test_gd_monotone_at_one_over_L():
    rng = np.random.default_rng(6)
    Q = problems.make_ill_conditioned_Q(6, 50.0, "geometric", seed=1)
    prob = problems.quadratic_new(Q, rng.standard_normal((6, 8)))
    W = np.zeros((6, 8))
    eta = 1.0 / prob.metadata["L"]
    prev = prob.value(W)
    for _ in range(200):
        W = optim.gd_step(W, prob.grad(W), eta)
        cur = prob.value(W)
        assert cur <= prev + 1e-12 * max(1.0, abs(prev))
        prev = cur


def test_nesterov_velocity_form():
    state = optim.NesterovState()
    W = np.zeros((2, 2))
    G = np.ones((2, 2))
    W1 = optim.gd_nesterov_step(state, W, G, 0.1, mu=0.5)
    np.testing.assert_allclose(W1, -0.1 * (G + 0.5 * G), atol=1e-14)
    W2 = optim.gd_nesterov_step(state, W1, G, 0.1, mu=0.5)
    # v = 0.5*1 + 1 = 1.5; update = G + 0.5*1.5
    np.testing.assert_allclose(W2, W1 - 0.1 * (1.0 + 0.75) * G, atol=1e-14)


def test_adam_first_step_magnitude():
    state = optim.AdamState()
    W = np.zeros((3, 3))
    G = np.random.default_rng(7).standard_normal((3, 3))
    eta = 0.01
    W1 = optim.adam_step(state, W, G, eta)
    expected = -eta * G / (np.abs(G) + 1e-8)
    np.testing.assert_allclose(W1, expected, atol=1e-12)
    assert np.all(np.abs(W1) <= eta * (1 + 1e-9))


def test_adamw_decoupled_decay():
    state_a = optim.AdamState()
    state_b = optim.AdamState()
    rng = np.random.default_rng(8)
    W = rng.standard_normal((3, 3))
    G = rng.standard_normal((3, 3))
    plain = optim.adam_step(state_a, W, G, 0.1)
    decayed = optim.adamw_step(state_b, W, G, 0.1, weight_decay=0.02)
    np.testing.assert_allclose(decayed, plain - 0.1 * 0.02 * W, atol=1e-14)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def _gap_problem(delta, **metadata):
    """A 4x5 problem whose initial gap is exactly delta, with the given constants."""
    return problems.Problem((4, 5), lambda W: delta, None, None,
                            metadata=dict(metadata, f_star=0.0))


def _schedule(spec, problem, T=100):
    return harness.make_schedule(spec, problem, T, np.zeros(problem.shape))[0]


def test_constant_schedule():
    sched = optim.Schedule("constant", eta=0.01)
    assert optim.next_eta(sched) == 0.01
    assert optim.next_eta(sched, grad_nuc=123.0) == 0.01
    assert optim.next_eta(_schedule({"kind": "constant", "eta": 0.01}, _gap_problem(1.0))) == 0.01


def test_nonconvex_L_formula():
    sched = _schedule({"kind": "nonconvex_L", "beta": 0.0}, _gap_problem(1.0, L=2.0))
    assert optim.next_eta(sched) == pytest.approx(math.sqrt(1.0 / 800.0), rel=1e-12)


def test_nonconvex_Lstar_formula():
    sched = _schedule({"kind": "nonconvex_Lstar", "L_star": 4.0, "beta": 0.5},
                      _gap_problem(2.0), T=50)
    assert optim.next_eta(sched) == pytest.approx(math.sqrt(0.5 * 2.0 / 200.0), rel=1e-12)


def test_adaptive_schedules():
    Lstar = optim.Schedule("adaptive_Lstar", divisor=6.0)
    assert optim.next_eta(Lstar, grad_nuc=3.0) == 0.5
    rL = _schedule({"kind": "adaptive_rL"}, _gap_problem(1.0, L=2.0))
    assert optim.next_eta(rL, grad_nuc=3.0) == pytest.approx(3.0 / 8.0)
    assert optim.next_eta(Lstar, grad_nuc=0.0) == 0.0
    with pytest.raises(ValueError):
        optim.next_eta(Lstar)
    with pytest.raises(ValueError):
        optim.next_eta(Lstar, grad_nuc=-1.0)


def test_theory_J_formula():
    sched = _schedule({"kind": "theory_J", "J": 2.0}, _gap_problem(1.0))
    assert optim.next_eta(sched) == pytest.approx(math.sqrt(2.0 / 200.0), rel=1e-12)


def test_schedule_validation():
    with pytest.raises(ValueError):
        _schedule({"kind": "nonconvex_L"}, _gap_problem(-1.0, L=1.0), T=10)
    with pytest.raises(ValueError):
        _schedule({"kind": "nonconvex_Lstar", "L_star": 1.0}, _gap_problem(1.0), T=0)
    with pytest.raises(ValueError):
        optim.Schedule("constant", eta=0.0)
    with pytest.raises(ValueError):
        _schedule({"kind": "constant", "eta": 0.0}, _gap_problem(1.0))
    with pytest.raises(ValueError):
        _schedule({"kind": "nonconvex_L", "beta": 1.0}, _gap_problem(1.0, L=1.0))
    with pytest.raises(ValueError):
        optim.Schedule("adaptive_Lstar")
    with pytest.raises(ValueError):
        optim.Schedule("adaptive_Lstar", eta=0.1, divisor=6.0)
