"""The blocked randomized audits against their per-instance definitions.

The reference functions below evaluate one instance (or trial, or step) at a
time, the way the audits are defined; the blocked audits in verify must give
the same reports byte for byte.
"""

import numpy as np
import pytest

from muonlab import matcore, optim, problems, verify


def _reference_random_spd(n, rng):
    R, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n))
    M = (R * eigs) @ R.T
    return 0.5 * (M + M.T)


def _reference_sample(oracle, W):
    """StochasticGradOracle.sample as one expression: gradient, then noise."""
    G = oracle.problem.grad(W)
    if oracle.sigma == 0.0:
        return G
    noise = oracle.rng.standard_normal(G.shape) * oracle._entry_std
    return G + noise / np.sqrt(oracle.batch)


def _reference_norm_lemmas(n_instances, dims, seed, slack):
    m, n = dims
    rng = np.random.default_rng(seed)
    margins = verify._Margins(slack)
    for i in range(n_instances):
        A = rng.standard_normal((m, n))
        M = _reference_random_spd(n, rng)
        w, V = np.linalg.eigh(M)
        M_inv = (V / w) @ V.T
        eigs = np.linalg.eigvalsh(M)
        m_op, m_nuc = float(eigs[-1]), float(np.sum(eigs))
        a_f = matcore.frobenius_norm(A)
        a_nuc = matcore.nuclear_norm(A)
        a_op = float(matcore.svd(A).S[0])
        a_w = matcore.lambda_norm(A, M)
        a_winv = matcore.lambda_norm(A, M_inv)
        r = min(m, n)

        def _c(lhs, rhs, label):
            margins.check(lhs, rhs, slack * max(1.0, rhs), where=i, label=label)

        _c(a_f, a_nuc, "frob<=nuc")
        _c(a_nuc, np.sqrt(r) * a_f, "nuc<=sqrt(r)frob")
        _c(a_nuc, np.sqrt(m_nuc) * a_winv, "nuc<=sqrt(nucM)winv")
        _c(a_f, np.sqrt(m_op) * a_winv, "frob<=sqrt(opM)winv")
        _c(a_w, np.sqrt(m_op) * a_f, "w<=sqrt(opM)frob")
        _c(a_w, np.sqrt(m_nuc) * a_op, "w<=sqrt(nucM)op")
        Q = _reference_random_spd(m, rng)
        prob = problems.quadratic_new(Q, np.zeros((m, n)))
        W1 = rng.standard_normal((m, n))
        W2 = rng.standard_normal((m, n))
        Gdiff = prob.grad(W1) - prob.grad(W2)
        Wdiff = W1 - W2
        _c(matcore.frobenius_norm(Gdiff),
           prob.metadata["L"] * matcore.frobenius_norm(Wdiff), "lipschitz-F")
        _c(matcore.nuclear_norm(Gdiff),
           prob.metadata["L_star"] * float(matcore.svd(Wdiff).S[0]), "lipschitz-nuc")
    return margins.report("norm_lemmas", {"dims": list(dims), "seed": seed},
                          n_instances)


def _reference_momentum_error(sigma, batch, beta, T, trials, seed, shape, slack_factor):
    rng = np.random.default_rng(seed)
    m, n = shape
    Q = _reference_random_spd(m, rng)
    problem = problems.quadratic_new(Q, rng.standard_normal((m, n)))
    W = rng.standard_normal((m, n))
    g = problem.grad(W)
    err_sum = np.zeros(T + 1)
    for k in range(trials):
        oracle = problems.StochasticGradOracle(problem, sigma, batch,
                                               seed=seed * 100003 + k + 1)
        for t in range(T + 1):
            G = _reference_sample(oracle, W)
            if t == 0:
                M, C = G, g
            else:
                M = beta * M + (1.0 - beta) * G
                C = beta * C + (1.0 - beta) * g
            err_sum[t] += np.linalg.norm(M - C, "fro")
    mean_err = err_sum / trials
    margins = verify._Margins(0.0)
    for t in range(T + 1):
        bound = slack_factor * verify.momentum_error_bound(sigma, batch, beta, t)
        margins.check(mean_err[t], bound, 0.0, where=t, label="momentum-error")
    return margins.report(
        "momentum_error_lemma",
        {"sigma": sigma, "batch": batch, "beta": beta, "T": T,
         "trials": trials, "slack_factor": slack_factor}, T + 1)


@pytest.mark.parametrize("n_instances, dims, seed, slack", [
    (1000, (6, 9), 0, 1e-9),        # the acceptance audit
    (1, (6, 9), 3, 1e-9),
    (257, (9, 6), 1, 1e-9),         # neither count is a multiple of the block
    (150, (1, 7), 2, 1e-9),
    (130, (20, 20), 4, 1e-9),
    (101, (15, 20), 5, -0.5),       # negative slack: most margins are violations
    (99, (5, 8), 6, -0.9),
])
def test_norm_lemmas_match_per_instance_reference(n_instances, dims, seed, slack):
    got = verify.check_norm_lemmas(n_instances, dims=dims, seed=seed, slack=slack)
    want = _reference_norm_lemmas(n_instances, dims, seed, slack)
    if slack < 0:
        assert want.violations
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize("sigma, batch, beta, T, trials, seed, shape, slack_factor", [
    (1.0, 1, 0.9, 50, 200, 0, (15, 20), 1.5),   # the acceptance audit
    (2.0, 4, 0.5, 7, 51, 1, (4, 3), 1.5),       # trials not a multiple of the block
    (0.5, 2, 0.0, 5, 137, 2, (6, 9), 1.5),
    (1.0, 1, 0.9, 12, 99, 3, (15, 20), 0.5),    # slack below 1: steps are violations
    (0.0, 1, 0.9, 4, 50, 4, (3, 5), 1.5),
])
def test_momentum_error_matches_per_trial_reference(sigma, batch, beta, T, trials,
                                                    seed, shape, slack_factor):
    got = verify.check_momentum_error_lemma(sigma=sigma, batch=batch, beta=beta, T=T,
                                            trials=trials, seed=seed, shape=shape,
                                            slack_factor=slack_factor)
    want = _reference_momentum_error(sigma, batch, beta, T, trials, seed, shape,
                                     slack_factor)
    if slack_factor < 1:
        assert want.violations
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize("m, n, k", [(6, 9, 5), (9, 6, 3), (1, 7, 2), (15, 20, 4)])
def test_quadratic_block_matches_quadratic_new(m, n, k):
    rng = np.random.default_rng(m * n + k)
    Q = np.stack([_reference_random_spd(m, rng) for _ in range(k)])
    W1 = rng.standard_normal((k, m, n))
    W2 = rng.standard_normal((k, m, n))
    L, L_star, Gdiff = verify._quadratic_block(Q, W1, W2)
    for i in range(k):
        prob = problems.quadratic_new(Q[i], np.zeros((m, n)))
        assert L[i] == prob.metadata["L"]
        assert L_star[i] == prob.metadata["L_star"]
        assert np.array_equal(Gdiff[i], prob.grad(W1[i]) - prob.grad(W2[i]))


def test_quadratic_block_keeps_the_spd_check():
    Q = np.stack([np.eye(3), np.diag([1.0, -1.0, 1.0])])
    W = np.zeros((2, 3, 4))
    with pytest.raises(ValueError, match="^Q must be positive definite$"):
        verify._quadratic_block(Q, W, W)


def _reference_nonconvex_runs(problem, T, beta, sigma, batch, runs, seed, eta):
    """The run-averaged nuclear gradient norm with one gradient per oracle call."""
    total = 0.0
    for k in range(runs):
        oracle = problems.StochasticGradOracle(problem, sigma, batch, seed=seed * 7919 + k)
        state = optim.MuonState(beta=beta)
        W = np.zeros(problem.shape)
        acc = 0.0
        for _ in range(T):
            acc += matcore.nuclear_norm(problem.grad(W))
            W = optim.muon_step(state, W, _reference_sample(oracle, W), eta)
        total += acc / T
    return total / runs


@pytest.mark.parametrize("sigma, batch, runs", [(0.0, 1, 1), (2.0, 1, 4), (0.7, 3, 2)])
def test_nonconvex_rate_bound_matches_sampling_loop(sigma, batch, runs):
    Q = problems.make_ill_conditioned_Q(6, 50.0, seed=1)
    W_star = np.random.default_rng(2).standard_normal((6, 8))
    problem = problems.quadratic_new(Q, W_star)
    report = verify.check_nonconvex_rate_bound(problem, T=60, beta=0.9, sigma=sigma,
                                               batch=batch, runs=runs, seed=3)
    want = _reference_nonconvex_runs(problem, 60, 0.9, sigma, batch, runs, 3,
                                     report.params["eta"])
    assert report.params["lhs"] == want


def test_oracle_sample_is_grad_plus_noise():
    problem = problems.quadratic_new(np.eye(3), np.ones((3, 4)))
    W = np.arange(12.0).reshape(3, 4)
    a = problems.StochasticGradOracle(problem, 1.5, batch=2, seed=9)
    b = problems.StochasticGradOracle(problem, 1.5, batch=2, seed=9)
    c = problems.StochasticGradOracle(problem, 1.5, batch=2, seed=9)
    for _ in range(3):
        G = a.sample(W)
        assert np.array_equal(G, problem.grad(W) + b.noise())
        assert np.array_equal(G, _reference_sample(c, W))
    quiet = problems.StochasticGradOracle(problem, 0.0, seed=9)
    assert np.array_equal(quiet.noise(), np.zeros((3, 4)))
    assert np.array_equal(quiet.sample(W), problem.grad(W))
