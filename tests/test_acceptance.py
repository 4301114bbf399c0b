"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion lines as they complete).  Criteria 1-12 run at their stated
scales; criterion 13 (byte determinism) re-runs each artifact-emitting suite
at reduced scale with identical seeds, since reproducibility of the emission
path does not depend on problem size.
"""

import os
import time

import numpy as np

from muonlab import diagnostics as dg
from muonlab import harness, matcore, problems, verify
from oracles import (concentration_ratio, direction_rank, kron, uncached_mlp_oracles, vec_row,
                     vonneumann_bound)


def _report(num, desc, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} ({elapsed:.1f}s / budget {budget:.0f}s) {desc}")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def _rand_cond_matrix(rng, m, n, cond):
    r = min(m, n)
    U, _ = np.linalg.qr(rng.standard_normal((m, m)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.sort(np.exp(rng.uniform(np.log(1.0 / cond), 0.0, r)))[::-1]
    return U[:, :r] @ np.diag(s) @ V[:, :r].T, U[:, :r] @ V[:, :r].T


def test_criterion_01_orthogonality_invariants():
    t0 = time.time()
    rng = np.random.default_rng(101)
    ok = True
    for i in range(500):
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, 97))
        A = rng.standard_normal((m, n))
        if i % 4 == 0 and min(m, n) > 1:  # force rank deficiency on a quarter
            k = int(rng.integers(1, min(m, n)))
            A = A[:, :1] * 0.0 + (rng.standard_normal((m, k)) @ rng.standard_normal((k, n)))
        O = matcore.orthogonalize_svd(A)
        s = np.linalg.svd(O, compute_uv=False)
        nonzero = s[s > 0.5]
        rank = direction_rank(O)
        ok &= bool(np.all(np.abs(nonzero - 1.0) <= 1e-10))
        ok &= abs(float(s[0]) - 1.0) <= 1e-10
        ok &= abs(float(np.sum(s)) - rank) <= 1e-9
        if not ok:
            break
    _report(1, "semi-orthogonal factor invariants on 500 random matrices",
            ok, time.time() - t0, 10.0)


def test_criterion_02_newton_schulz_fidelity():
    t0 = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 17))
        n = int(rng.integers(2, 17))
        cond = float(rng.uniform(1.0, 100.0))
        A, polar = _rand_cond_matrix(rng, m, n, cond)
        O = matcore.orthogonalize_ns(A, steps=5)
        worst = max(worst, float(np.linalg.norm(O - polar, 2)))
    _report(2, f"5-step Newton-Schulz within 0.05 of the SVD factor (worst {worst:.4f})",
            worst <= 0.05, time.time() - t0, 5.0)


def test_criterion_03_norm_lemma_suite():
    t0 = time.time()
    report = verify.check_norm_lemmas(1000, dims=(6, 9), seed=103, slack=1e-9)
    _report(3, "1000 random instances of the norm inequalities, zero violations",
            report.passed and not report.violations, time.time() - t0, 30.0)


def test_criterion_04_quadratic_taylor_identity():
    t0 = time.time()
    records, problem = harness.quadratic_check_run(
        seed=104, T=1000, schedule_kind="constant", eta=0.3)
    report = verify.check_quadratic_taylor_identity(records, problem, tol=1e-9)
    _report(4, f"per-step quadratic expansion exact to 1e-9 over 1000 steps "
               f"(worst residual {report.worst_margin:.2e})",
            report.passed, time.time() - t0, 10.0)


def test_criterion_05_adaptive_rate_bounds():
    t0 = time.time()
    ok = True
    for k in range(20):
        for sched, which in (("adaptive_rL", "rL"), ("adaptive_Lstar", "Lstar")):
            records, problem = harness.quadratic_check_run(
                seed=1050 + k, T=500, schedule_kind=sched, want_J=False)
            report = verify.check_adaptive_rate_bound(records, problem, which=which)
            ok &= report.passed
    _report(5, "hyperbolic decay bound at every step, both adaptive stepsizes, "
               "20 quadratics", ok, time.time() - t0, 60.0)


def test_criterion_06_constant_step_bounds():
    t0 = time.time()
    ok = True
    for k in range(20):
        records, problem = harness.quadratic_check_run(
            seed=1060 + k, T=500, schedule_kind="constant")
        for which in ("rL", "Lstar", "J"):
            report = verify.check_constant_step_linear_bound(records, problem, which=which)
            ok &= report.passed and not report.params.get("vacuous", False)
    _report(6, "final-iterate bounds (both smoothness routes and the exact "
               "curvature-average form) on 20 quadratics", ok, time.time() - t0, 60.0)


def test_criterion_07_curvature_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(107)
    ok = True
    for _ in range(100):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        P = rng.standard_normal((m, m))
        P = 0.5 * (P + P.T)
        Qf = rng.standard_normal((n, n))
        Qf = 0.5 * (Qf + Qf.T)
        prob = problems.Problem((m, n), value_grad=lambda W: (0.0, np.zeros((m, n))),
                                hvp=lambda W, D, P=P, Qf=Qf: P @ D @ Qf.T)
        G = rng.standard_normal((m, n))
        if rng.uniform() < 0.3 and min(m, n) > 1:  # rank-deficient directions too
            k = int(rng.integers(1, min(m, n)))
            G = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
        # U @ V.T and every form below are invariant under paired sign flips
        U, S, Vh = np.linalg.svd(G, full_matrices=False)
        V = Vh.T
        keep = S > 1e-10 * S[0]
        U, V = U[:, keep], V[:, keep]
        r_t = int(np.sum(keep))
        O = U @ V.T
        j_hvp = dg.j_t(prob, None, O)
        H = kron(P, Qf)
        v = vec_row(O)
        j_brute = float(v @ H @ v)
        j_congr = float(np.sum((U.T @ P @ U) * (V.T @ Qf @ V)))
        A = kron(U.T, V.T) @ H @ kron(U, V)
        idx = [i * (r_t + 1) for i in range(r_t)]
        j_entries = float(sum(A[i, j] for i in idx for j in idx))
        scale = max(1.0, abs(j_brute))
        ok &= abs(j_hvp - j_brute) <= 1e-9 * scale
        ok &= abs(j_hvp - j_congr) <= 1e-9 * scale
        ok &= abs(j_hvp - j_entries) <= 1e-9 * scale
        p_sv = np.linalg.svd(P, compute_uv=False)
        q_sv = np.linalg.svd(Qf, compute_uv=False)
        ok &= j_hvp <= vonneumann_bound(p_sv, q_sv, r_t) + 1e-9
        if not ok:
            break
    _report(7, "curvature form agrees across hvp, vectorized, congruence and "
               "entry-sum routes; trace bound never violated (100 instances)",
            ok, time.time() - t0, 30.0)


def test_criterion_08_gaussian_concentration_ratio():
    t0 = time.time()
    ratios = [concentration_ratio(problems.gaussian_features(784, 1000, seed=s))
              for s in range(5)]
    mean = float(np.mean(ratios))
    _report(8, f"784x1000 Gaussian concentration ratio mean {mean:.2f} in [200, 245]",
            200.0 <= mean <= 245.0, time.time() - t0, 60.0)


def test_criterion_09_momentum_error_bound():
    t0 = time.time()
    report = verify.check_momentum_error_lemma(sigma=1.0, batch=1, beta=0.9,
                                               T=50, trials=200, seed=109)
    _report(9, "noisy-vs-clean momentum deviation within 1.5x the closed-form "
               "bound at every step", report.passed, time.time() - t0, 30.0)


def test_criterion_10_quadratic_comparison_study():
    t0 = time.time()
    fig1 = harness.figure1_study(seeds=range(50), T=4000)
    _, ratios = harness.ratio_study(m=15, n=20, samples=1000, cond=1e4,
                                    decay="two_cluster", seed=110)
    ok = fig1["win_fraction"] >= 0.9 and ratios["ratio_median"] > 3.0
    _report(10, f"tuned Muon beats GD at 1/L on {fig1['muon_wins']}/50 seeds; "
                f"median comparison ratio {ratios['ratio_median']:.2f} > 3",
            ok, time.time() - t0, 300.0)


def test_criterion_11_linear_mse_comparison():
    t0 = time.time()
    _, low = harness.figure2_suite(kind="lowrank", c=100, seed=0, d=196, B=400, T=400)
    _, gau = harness.figure2_suite(kind="gaussian", c=10, seed=0, d=196, B=400, T=400)
    ok_low = (low["comparison_ratio"] > 1.0
              and low["final_f"]["muon"] <= low["final_f"]["gd"])
    ok_gau = (gau["comparison_ratio"] < 0.1
              and gau["final_f"]["gd"] <= gau["final_f"]["muon"])
    _report(11, f"concentrated features: ratio {low['comparison_ratio']:.2f} > 1 with "
                f"Muon ahead; flat features: ratio {gau['comparison_ratio']:.4f} < 0.1 "
                f"with GD ahead", ok_low and ok_gau, time.time() - t0, 600.0)


def test_criterion_12_mlp_diagnostics_pipeline():
    t0 = time.time()
    artifacts, summary = harness.figure3_suite(input_dim=10, dims=(8, 6, 4), B=120,
                                               T=200, cadence=10, seed=0)
    finite = all(
        np.isfinite(rec.J_t) and np.isfinite(rec.L_t)
        for art in artifacts.values()
        for rec in art.records if rec.J_t is not None and rec.L_t is not None)
    logged = sum(1 for art in artifacts.values()
                 for rec in art.records if rec.J_t is not None)
    # finite-difference Hessian oracle contracts, evaluated where the probe
    # provably stays inside one activation region (the Hessian of a ReLU net
    # is only defined away from the kinks; straddling probes are flagged, not
    # trusted, by the pipeline)
    prob = harness.build_problem({"kind": "mlp", "input_dim": 10, "dims": (8, 6, 4),
                                  "B": 120, "loss": "softmax_ce", "data": "lowrank",
                                  "seed": 0}, 0)
    # the same network from its data, as build_problem draws them, with the
    # brute-force oracles' mask predicate
    X = problems.lowrank_features(10, 120, 2.0, seed=0)
    X = X * (np.sqrt(120) / matcore.frobenius_norm(X))
    Y = problems.onehot_labels(4, 120, seed=1)
    ref = uncached_mlp_oracles(prob.metadata["layer_shapes"], X, Y, "softmax_ce", 2, 1)
    rng = np.random.default_rng(112)
    D1 = rng.standard_normal(prob.shape)
    D2 = rng.standard_normal(prob.shape)
    Dc = 0.6 * D1 - 1.2 * D2
    offset = np.ones(prob.shape) / np.sqrt(prob.shape[0] * prob.shape[1])
    W = None
    for k in range(12):
        cand = prob.metadata["W_init"] + 0.02 * k * offset
        if all(ref["probe_clean"](cand, D) for D in (D1, D2, Dc)):
            W = cand
            break
    assert W is not None, "no kink-free probe point found near the initialization"
    assert ref["value"](W) == prob.value(W), "the reference is not the problem's network"
    h1, h2 = prob.hvp(W, D1), prob.hvp(W, D2)
    scale = max(1.0, np.linalg.norm(h1), np.linalg.norm(h2))
    sym = abs(float(np.sum(D1 * h2)) - float(np.sum(D2 * h1))) <= 1e-4 * scale
    lin_err = np.linalg.norm(prob.hvp(W, Dc) - 0.6 * h1 + 1.2 * h2)
    lin = lin_err <= 1e-4 * scale
    ok = (finite and logged >= 30 and sym and lin
          and summary["win_fraction"] >= 0.6)
    _report(12, f"MLP diagnostics finite, fd oracle symmetric/linear at 1e-4, "
                f"Muon's condition side ahead at {summary['win_fraction']:.0%} "
                f"of sampled steps (threshold 60%)", ok, time.time() - t0, 300.0)


def test_criterion_13_byte_determinism(tmp_path):
    t0 = time.time()

    def snapshot(path):
        out = {}
        for root, _, files in os.walk(path):
            for fname in files:
                full = os.path.join(root, fname)
                with open(full, "rb") as fh:
                    out[os.path.relpath(full, path)] = fh.read()
        return out

    ok = True

    def run_twice(label, fn):
        nonlocal ok
        dir_a = tmp_path / label
        fn(str(dir_a))
        first = snapshot(dir_a)
        fn(str(dir_a))
        same = snapshot(dir_a) == first and len(first) > 0
        ok &= same
        return same

    quad_cfg = dict(problem={"kind": "quadratic", "m": 15, "n": 20, "cond": 1e4,
                             "decay": "two_cluster", "seed": 0,
                             "seed_mode": "per_run"},
                    optimizer={"kind": "muon", "beta": 0.9},
                    schedule={"kind": "constant", "eta": 0.3},
                    T=200, cadence=10, want_J=True, want_L=True, seeds=(1, 2))

    run_twice("quad", lambda out: [
        harness.run_experiment(
            harness.ExperimentConfig(**quad_cfg, out_dir=out, name="quad"), s)
        for s in (1, 2)])
    run_twice("ratio", lambda out: harness.ratio_study(
        m=15, n=20, samples=100, seed=7, out_dir=out))
    run_twice("fig1", lambda out: harness.figure1_study(
        seeds=(0, 1), T=300, m=6, n=8, cond=100.0, out_dir=out))
    run_twice("fig2", lambda out: harness.figure2_suite(
        kind="gaussian", c=4, seed=3, d=24, B=48, T=50, out_dir=out))
    run_twice("fig3", lambda out: harness.figure3_suite(
        input_dim=6, dims=(5, 4, 3), B=40, T=40, cadence=10, seed=2, out_dir=out))

    def verify_json(out):
        os.makedirs(out, exist_ok=True)
        report = verify.check_norm_lemmas(100, seed=13)
        with open(os.path.join(out, "norm_lemmas.json"), "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        report2 = verify.check_momentum_error_lemma(T=10, trials=60, seed=13)
        with open(os.path.join(out, "momentum.json"), "w", encoding="utf-8") as fh:
            fh.write(report2.to_json())

    run_twice("verify", verify_json)

    _report(13, "identical seeds reproduce byte-identical CSV/JSON artifacts "
                "across all suites", ok, time.time() - t0, 120.0)
