#!/usr/bin/env python3
"""The comparison ratio's two inputs on fig2: the reference point and L_*.

figure2_suite reports D_F^2 L / (D_op^2 L_*) with D measured from W0 = 0 to
the final iterate of the best tuned optimizer, and L_* the trace bound
tr(H), H = X X^T / B.  This script runs both fig2 kinds as the acceptance
criterion does (lowrank c=100 and gaussian c=10, T=400, seed 0) and gives
the ratio under every optimizer's final iterate as the reference point,
each under two constants:

  trace   L_* = tr(H), the problem's metadata["L_star"];
  ky_fan  the least constant, the sum of H's top min(c, d) eigenvalues.

The winner's row under the trace constant must equal the summary's
comparison_ratio, bit for bit, or the script exits 1.  Run from anywhere as

    python3 tools/ratio_inputs.py

It writes RATIO_INPUTS.json at the root of the repository and prints the
README's table.  Numpy and muonlab only; it changes no muonlab output.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from muonlab.diagnostics import comparison_ratio, distance_metrics  # noqa: E402
from muonlab.harness import build_problem, figure2_suite  # noqa: E402

KINDS = (("lowrank", 100), ("gaussian", 10))
T, SEED = 400, 0


def _study(kind: str, c: int) -> tuple:
    """(problem, artifacts, summary) of figure2_suite at the criterion's scale.
    The suite does not return its problem, so it is built again from the same
    spec; the summary's concentration ratio must match it bit for bit."""
    artifacts, summary = figure2_suite(kind=kind, c=c, seed=SEED, T=T)
    spec = {"kind": "linear_mse", "features": kind, "d": summary["d"], "B": summary["B"],
            "c": c, "seed": SEED}
    if kind == "lowrank":
        spec["target_ratio"] = 1.41
    problem = build_problem(spec, run_seed=SEED)
    meta = problem.metadata
    if meta["L_star"] / meta["L"] != summary["concentration_ratio"]:
        raise RuntimeError(f"fig2 {kind}: the rebuilt problem is not the suite's")
    return problem, artifacts, summary


def main() -> int:
    result = {"command": "python3 tools/ratio_inputs.py", "T": T, "seed": SEED,
              "environment": {"python": platform.python_version(), "numpy": np.__version__,
                              "cores": len(os.sched_getaffinity(0)),
                              "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
              "kinds": {}}
    ok = True
    for kind, c in KINDS:
        problem, artifacts, summary = _study(kind, c)
        meta = problem.metadata
        H = meta["X"] @ meta["X"].T / meta["X"].shape[1]
        ky_fan = float(np.sum(np.linalg.eigvalsh(H)[::-1][:min(problem.shape)]))
        constants = {"trace": float(meta["L_star"]), "ky_fan": ky_fan}
        rows = {}
        for name, art in artifacts.items():
            d_f, d_op = distance_metrics(np.zeros(problem.shape), art.final_W)
            rows[name] = {"final_f": art.summary.final_f, "D_F": d_f, "D_op": d_op,
                          "ratio": {key: comparison_ratio(d_f, d_op, meta["L"], L_star)
                                    for key, L_star in constants.items()}}
        best = summary["best_optimizer"]
        agrees = bool(rows[best]["ratio"]["trace"] == summary["comparison_ratio"])
        ok = ok and agrees
        result["kinds"][f"{kind}_c{c}"] = {
            "L": float(meta["L"]), "L_star": constants, "best_optimizer": best,
            "comparison_ratio": summary["comparison_ratio"],
            "winner_row_equals_comparison_ratio": agrees, "rows": rows}
    (ROOT / "RATIO_INPUTS.json").write_text(json.dumps(result, indent=2) + "\n",
                                            encoding="utf-8")
    print("| fig2 | reference iterate | D_F / D_op | ratio, trace L_* | ratio, Ky Fan L_* |")
    print("|---|---|---|---|---|")
    for key, entry in result["kinds"].items():
        for name, row in entry["rows"].items():
            mark = " (best)" if name == entry["best_optimizer"] else ""
            print(f"| {key} | {name}{mark} | {row['D_F'] / row['D_op']:.3g} "
                  f"| {row['ratio']['trace']:.4g} | {row['ratio']['ky_fan']:.4g} |")
    if not ok:
        print("error: a winner's trace-constant ratio differs from comparison_ratio",
              file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
