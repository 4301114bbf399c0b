"""The blocked randomized audits against their per-instance definitions.

The reference functions below evaluate one instance (or trial, or step) at a
time, the way the audits are defined; the blocked audits in verify must give
the same reports byte for byte, and the blocked distances to W* of a recorded
run and of the ratio study the same rows.
"""

import numpy as np
import pytest

from muonlab import diagnostics, harness, matcore, optim, problems, verify


def _reference_random_spd(n, rng):
    R, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n))
    M = (R * eigs) @ R.T
    return 0.5 * (M + M.T)


def _reference_sample(problem, W, sigma, batch, rng):
    """One stochastic gradient sample as one expression: the gradient, then
    Gaussian noise with E||noise||_F^2 = sigma^2 averaged over a batch."""
    G = problem.grad(W)
    if sigma == 0.0:
        return G
    m, n = G.shape
    noise = rng.standard_normal(G.shape) * (sigma / np.sqrt(m * n))
    return G + noise / np.sqrt(batch)


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
        a_op = float(matcore.svd(A)[0])
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
           prob.metadata["L_star"] * float(matcore.svd(Wdiff)[0]), "lipschitz-nuc")
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
        trial_rng = np.random.default_rng(seed * 100003 + k + 1)
        for t in range(T + 1):
            G = _reference_sample(problem, W, sigma, batch, trial_rng)
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
    """Each slice of a block of k quadratics, as the norm-lemma audit builds
    it, is bit for bit the quadratic_new of its own 2-D curvature and optimum."""
    rng = np.random.default_rng(m * n + k)
    Q = np.stack([_reference_random_spd(m, rng) for _ in range(k)])
    W_star, W, D = (rng.standard_normal((k, m, n)) for _ in range(3))
    for half in (True, False):
        block = problems.quadratic_new(Q, W_star, half=half)
        assert block.shape == (m, n)
        values, G = block.value_grad(W)
        HD = block.hvp(W, D)
        for i in range(k):
            prob = problems.quadratic_new(Q[i], W_star[i], half=half)
            assert block.metadata["L"][i] == prob.metadata["L"]
            assert block.metadata["L_star"][i] == prob.metadata["L_star"]
            value, grad = prob.value_grad(W[i])
            assert values[i] == value
            assert np.array_equal(G[i], grad)
            assert np.array_equal(HD[i], prob.hvp(W[i], D[i]))


def test_quadratic_block_keeps_the_spd_check():
    Q = np.stack([np.eye(3), np.diag([1.0, -1.0, 1.0])])
    with pytest.raises(ValueError, match="^Q must be positive definite$"):
        problems.quadratic_new(Q, np.zeros((2, 3, 4)))


@pytest.mark.parametrize("Q_shape, W_star_shape", [
    ((2, 3, 3), (3, 3, 4)),     # two curvatures, three optima
    ((2, 3, 3), (3, 4)),        # a stack of curvatures with one optimum
    ((3, 3), (2, 3, 4)),        # one curvature with a stack of optima
    ((2, 3, 3), (2, 4, 4)),     # row counts differ
])
def test_quadratic_block_needs_matching_leading_shapes(Q_shape, W_star_shape):
    Q = np.broadcast_to(np.eye(3), Q_shape)
    with pytest.raises(ValueError, match="^Q and W_star"):
        problems.quadratic_new(Q, np.zeros(W_star_shape))


def _reference_nonconvex_runs(problem, T, beta, sigma, batch, runs, seed, eta):
    """The run-averaged nuclear gradient norm with one gradient per oracle call."""
    total = 0.0
    for k in range(runs):
        rng = np.random.default_rng(seed * 7919 + k)
        state = optim.MuonState(beta=beta)
        W = np.zeros(problem.shape)
        acc = 0.0
        for _ in range(T):
            acc += matcore.nuclear_norm(problem.grad(W))
            W = optim.muon_step(state, W, _reference_sample(problem, W, sigma, batch, rng),
                                eta)
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
    noise = verify._gradient_noise(1.5, 2, (3, 4))
    a, c = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(3):
        # the sample the verify audits take
        G = problem.grad(W) + noise(a)
        assert np.array_equal(G, _reference_sample(problem, W, 1.5, 2, c))
    quiet = verify._gradient_noise(0.0, 1, (3, 4))
    assert np.array_equal(quiet(a), np.zeros((3, 4)))
    assert np.array_equal(problem.grad(W) + quiet(a), problem.grad(W))


def _reference_fill_distances(pending, W_star):
    """Each pending row's distances from its own 2-D distance_metrics call."""
    for rec, W in pending:
        rec.dist_F, rec.dist_op = diagnostics.distance_metrics(W, W_star)
    pending.clear()


_QUADRATIC = {"kind": "quadratic", "seed": 0, "seed_mode": "per_run"}


def _recorded_run(opt_kind, eta_over_L, T, cadence, want_J, start_at_optimum=False):
    """A recorded run on the default 15x20 quadratic at a constant eta = eta_over_L / L."""
    problem = harness.build_problem(_QUADRATIC, run_seed=0)
    eta = eta_over_L / problem.metadata["L"]
    config = harness.ExperimentConfig(
        problem=_QUADRATIC, optimizer={"kind": opt_kind},
        schedule={"kind": "constant", "eta": eta}, T=T, cadence=cadence,
        want_J=want_J, seeds=(0,))
    W0 = (problem.metadata["W_star"].copy() if start_at_optimum
          else np.zeros(problem.shape))
    return harness._diagnostic_run(problem, config, optim.Schedule("constant", eta=eta),
                                   W0, 0)


def _assert_blocked_matches_per_row(monkeypatch, tmp_path, *run_args, **run_kw):
    records, W, truncated, _ = _recorded_run(*run_args, **run_kw)
    with monkeypatch.context() as m:
        m.setattr(harness, "_fill_distances", _reference_fill_distances)
        want, want_W, want_truncated, _ = _recorded_run(*run_args, **run_kw)
    assert truncated == want_truncated
    assert np.array_equal(W, want_W)
    assert [(r.dist_F, r.dist_op) for r in records] == [
        (r.dist_F, r.dist_op) for r in want]
    assert all(type(r.dist_F) is float and type(r.dist_op) is float for r in records)
    assert records == want
    harness.emit_csv(records, str(tmp_path / "blocked.csv"))
    harness.emit_csv(want, str(tmp_path / "per_row.csv"))
    assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "per_row.csv").read_bytes()
    return records, truncated


@pytest.mark.parametrize("want_J", [True, False])
@pytest.mark.parametrize("cadence", [1, 3])
@pytest.mark.parametrize("T", [1, 99, 100, 101, 250])
def test_blocked_distances_match_per_row_reference(monkeypatch, tmp_path, T, cadence,
                                                   want_J):
    records, truncated = _assert_blocked_matches_per_row(
        monkeypatch, tmp_path, "simplified_muon", 0.01, T, cadence, want_J)
    assert not truncated
    assert len(records) == len(range(0, T, cadence)) + 1
    assert all(r.dist_op > 0 for r in records)


@pytest.mark.parametrize("cadence", [1, 3])
def test_blocked_distances_of_a_run_truncated_mid_block(monkeypatch, tmp_path, cadence):
    # GD just past 2/L grows along the top curvature until the divergence guard trips
    records, truncated = _assert_blocked_matches_per_row(
        monkeypatch, tmp_path, "gd", 2.02, 400, cadence, True)
    assert truncated and records[-1].flags == diagnostics.FLAG_DIVERGED
    assert len(records) > harness.DISTANCE_BLOCK
    assert len(records) % harness.DISTANCE_BLOCK != 0


@pytest.mark.parametrize("want_J", [True, False])
def test_blocked_distances_of_a_run_started_at_the_optimum(monkeypatch, tmp_path, want_J):
    records, _ = _assert_blocked_matches_per_row(
        monkeypatch, tmp_path, "simplified_muon", 0.01, 120, 1, want_J,
        start_at_optimum=True)
    assert [(r.dist_F, r.dist_op) for r in records] == [(0.0, 0.0)] * 121


def test_stacked_distance_metrics_match_2d_calls():
    rng = np.random.default_rng(11)
    W_star = rng.standard_normal((15, 20))
    W = rng.standard_normal((7, 15, 20)) * np.logspace(-3, 3, 7)[:, None, None]
    W[2] = W_star                               # zero slice
    W[4] = W_star + 1e-300                      # displacement rounds to zero
    W[5] = W_star + np.outer(np.ones(15), np.ones(20))   # rank one
    d_f, d_op = diagnostics.distance_metrics(W, W_star)
    assert d_f.shape == d_op.shape == (7,)
    for i in range(7):
        assert (d_f[i], d_op[i]) == diagnostics.distance_metrics(W[i], W_star)
    assert (d_f[2], d_op[2]) == (0.0, 0.0)


def test_distance_block_count_of_a_recorded_run(monkeypatch):
    """The 251 rows of a T=250 cadence-1 run take ceil(251/100) = 3 stacked SVDs."""
    shapes = []
    svd = matcore.svd

    def counting_svd(A):
        shapes.append(np.shape(A))
        return svd(A)

    monkeypatch.setattr(matcore, "svd", counting_svd)
    records, _ = harness.quadratic_check_run(T=250, schedule_kind="constant")
    assert len(records) == 251
    assert [s for s in shapes if len(s) == 3] == [(100, 15, 20), (100, 15, 20), (51, 15, 20)]


def _reference_ratio_rows(m, n, samples, cond, decay, seed):
    Q = problems.make_ill_conditioned_Q(m, cond, decay, seed=seed)
    S = matcore.svd(Q)
    L, L_star = float(S[0]), float(np.sum(S))
    rows = []
    for k in range(samples):
        W_star = np.random.default_rng([seed, k]).uniform(-50.0, 50.0, size=(m, n))
        d_f, d_op = diagnostics.distance_metrics(np.zeros((m, n)), W_star)
        rows.append((k, d_f, d_op, diagnostics.comparison_ratio(d_f, d_op, L, L_star)))
    return rows


def test_ratio_study_blocks_match_per_sample_reference(tmp_path):
    rows, summary = harness.ratio_study(m=6, n=9, samples=250, cond=100.0, seed=3,
                                        out_dir=str(tmp_path))
    want = _reference_ratio_rows(6, 9, 250, 100.0, "two_cluster", 3)
    assert rows == want
    assert all(type(v) is float for row in rows for v in row[1:])
    assert (tmp_path / "ratio_study.csv").read_text() == harness._csv_text(
        ("sample", "distF", "distOp", "ratio"), want)
    ratios = np.array([r[3] for r in want])
    assert summary["ratio_median"] == float(np.median(ratios))
    assert summary["ratio_mean"] == float(np.mean(ratios))
