"""The four study workloads of the benchmark.

Each workload is a function task(study_seed, out_dir) that calls muonlab's
public study functions, lets them write their artifacts to out_dir, and
returns (values, problems): the flat dict of numbers the task produced and a
list of invariant violations.  Every value must be a finite number.

muonlab functions are looked up on their modules at call time, never bound
at import, so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import os

import numpy as np

from muonlab import harness, verify

# Study seed of the reference task (task 0 of every run); the expected values
# and artifact hashes for it are recorded in references.json.
REFERENCE_SEED = 0

# Horizon of the fig2 pair.  At the criterion's T=400 the pair takes ~45 s on
# a 2-core machine; T=50 keeps the same four tuned optimizers and both shapes
# in a task of a few seconds.  The diagnostics cadence is then 1 (T // 50).
LINMSE_T = 50


def study_seed(seed: int, k: int) -> int:
    """Seed of task k in a run with workload seed `seed`; task 0 is the reference."""
    if k == 0:
        return REFERENCE_SEED
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0]) % (2 ** 31)


def quad_tune(seed, out):
    """fig1 on one 15x20 cond-1e4 two-cluster quadratic: 9-point Muon grid plus GD at 1/L."""
    summary = harness.figure1_study(seeds=[seed], T=4000, out_dir=out)
    run = summary["runs"][0]
    values = {key: run[key] for key in ("muon_final_f", "muon_eta", "gd_final_f")}
    values["muon_wins"] = summary["muon_wins"]
    return values, []


def linmse_pair(seed, out):
    """The fig2 pair: lowrank features with c=100, then gaussian with c=10, at 196x400."""
    values = {}
    for kind, c in (("lowrank", 100), ("gaussian", 10)):
        _, summary = harness.figure2_suite(kind=kind, c=c, seed=seed, T=LINMSE_T,
                                           out_dir=out)
        values[f"{kind}.comparison_ratio"] = summary["comparison_ratio"]
        for name in sorted(summary["final_f"]):
            values[f"{kind}.{name}.final_f"] = summary["final_f"][name]
            values[f"{kind}.{name}.best_eta"] = summary["best_eta"][name]
        values[f"{kind}.muon_wins"] = int(summary["final_f"]["muon"]
                                          <= summary["final_f"]["gd"])
    return values, []


def mlp_paper(seed, out):
    """fig3 at paper dims (784 -> 128/64/10), T=200, cadence 10, artifacts and checkpoint."""
    _, summary = harness.figure3_suite(input_dim=784, dims=(128, 64, 10), T=200,
                                       cadence=10, seed=seed, out_dir=out)
    values = {"muon_side_wins": summary["muon_side_wins"],
              "sampled_steps": summary["sampled_steps"]}
    for name in sorted(summary["final_f"]):
        values[f"{name}.final_f"] = summary["final_f"][name]
        values[f"{name}.best_eta"] = summary["best_eta"][name]
    return values, []


# (label, quadratic_check_run arguments, [(report tag, verify check, arguments)])
BOUND_RUNS = (
    ("constant_eta0.3", {"T": 1000, "schedule_kind": "constant", "eta": 0.3},
     [("taylor", "check_quadratic_taylor_identity", {"tol": 1e-9})]),
    ("adaptive_rL", {"T": 500, "schedule_kind": "adaptive_rL", "want_J": False},
     [("rate", "check_adaptive_rate_bound", {"which": "rL"})]),
    ("adaptive_Lstar", {"T": 500, "schedule_kind": "adaptive_Lstar", "want_J": False},
     [("rate", "check_adaptive_rate_bound", {"which": "Lstar"})]),
    ("constant_prescribed", {"T": 500, "schedule_kind": "constant"},
     [(w, "check_constant_step_linear_bound", {"which": w}) for w in ("rL", "Lstar", "J")]),
)


def bounds_cadence1(seed, out):
    """Criteria 3-6 and 9 for one seed: cadence-1 runs through CSV, then the verify checks."""
    values, problems = {}, []
    reports = []
    for label, run_kw, checks in BOUND_RUNS:
        records, problem = harness.quadratic_check_run(seed=seed, **run_kw)
        path = os.path.join(out, f"{label}.csv")
        harness.emit_csv(records, path)
        back = harness.read_records_csv(path)
        if back != records:
            problems.append(f"{label}: records read back from CSV differ from the run's")
        values[f"{label}.final_f"] = back[-1].f
        for check_tag, name, kw in checks:
            report = getattr(verify, name)(back, problem, **kw)
            tag = f"{label}.{check_tag}"
            reports.append((tag, report))
            if report.params.get("vacuous"):
                problems.append(f"{tag}: bound is vacuous")
    reports.append(("norm_lemmas", verify.check_norm_lemmas(1000, dims=(6, 9), seed=seed)))
    reports.append(("momentum_error", verify.check_momentum_error_lemma(
        sigma=1.0, batch=1, beta=0.9, T=50, trials=200, seed=seed)))
    for tag, report in reports:
        with open(os.path.join(out, f"{tag}.json"), "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        values[f"{tag}.instances"] = report.instances
        values[f"{tag}.violations"] = len(report.violations)
        if not report.passed:
            problems.append(f"{tag}: verify report failed")
    values["verify.passed"] = sum(report.passed for _, report in reports)
    return values, problems


WORKLOADS = {f.__name__: f for f in (quad_tune, linmse_pair, mlp_paper, bounds_cadence1)}
