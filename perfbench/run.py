"""muonlab benchmark: closed-loop study workloads and a traced per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload quad_tune --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One process runs one workload with one client: each task starts when the
previous one has ended, as long as it would still end within --seconds.
Task 0 is the reference task, checked against references.json; task k > 0
uses a study seed derived from --seed.  With --trace 0 the last line of
output is the JSON result with the end-to-end metrics, task times rescaled
to a reference host speed (see speed.py); with --trace 1 the reference task
runs once untraced and twice traced, and the result carries the per-layer
metrics of the first traced run.  The benchmark starts no threads or pools
of its own, so BLAS keeps its default thread count.

Everything the benchmark writes goes under .perfbench/ in the repository
root: the task artifacts (replaced per task), one result file per run, and
the spans of each traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import numbers
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("quad_tune", "linmse_pair", "mlp_paper", "bounds_cadence1")
WORK_DIR = ".perfbench"
# A fixed relative path: run configs written into the artifacts embed it, so
# their bytes, and the reference hashes, do not depend on where the
# repository sits.
OUT_DIR = os.path.join(WORK_DIR, "artifacts")
SETUP_PROBES = 9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def setup():
    """Everything before the first task: imports, environment, BLAS warm-up.

    Returns (environment, workloads module).
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy as np
    import muonlab
    if Path(muonlab.__file__).resolve().parent != src / "muonlab":
        raise SystemExit(f"error: muonlab imported from {muonlab.__file__}, not {src}")
    import workloads
    env = environment(np)
    np.linalg.svd(np.random.default_rng(0).standard_normal((100, 196)), full_matrices=False)
    return env, workloads


def environment(np) -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: f"{deps[k]['name']} {deps[k]['version']}" for k in ("blas", "lapack")}
        blas["blas_config"] = deps["blas"].get("openblas configuration", "")
    except (TypeError, KeyError):
        blas = {"blas": "unknown", "lapack": "unknown"}
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = out.stdout.strip() or "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas,
        "cores": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "commit": commit,
        "src_lines": sum(len(p.read_bytes().splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
    }


def measure_setup(workload: str) -> list:
    """Set-up times of fresh processes: spawn until the first task is ready.

    Not rescaled to reference speed: start-up is dominated by loading and
    linking, which a pure-Python calibration unit does not predict.
    """
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-probe",
                              "--workload", workload],
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]) - start)
    return times


# ---------------------------------------------------------------------------
# One task
# ---------------------------------------------------------------------------


def plain_timer(fn):
    """Times fn(); returns (fn(), seconds, seconds)."""
    start = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - start
    return result, raw, raw


def execute(task, seed, timer=plain_timer):
    """Run one task into a fresh OUT_DIR.

    timer(fn) calls fn() and returns (its result, raw seconds, seconds); the
    timed region covers the muonlab calls only.  Returns (raw seconds,
    seconds, values, problems, artifact hashes); the times are None when
    the task raised.
    """
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    os.makedirs(OUT_DIR)
    try:
        (values, problems), raw, seconds = timer(lambda: task(seed, OUT_DIR))
    except Exception:  # a failing task is counted, and the loop goes on
        return None, None, {}, [traceback.format_exc(limit=4).strip()], {}
    hashes = {}
    for name in sorted(os.listdir(OUT_DIR)):
        with open(os.path.join(OUT_DIR, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return raw, seconds, values, problems, hashes


def check(values, problems, hashes, reference=None, rtol=0.0) -> list:
    """Every way the task's outputs are wrong, as messages; [] when correct."""
    bad = list(problems)
    for key, v in values.items():
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
            bad.append(f"{key} = {v!r} is not a finite number")
    if reference is None:
        return bad
    for key in sorted(set(values) | set(reference["values"])):
        got, want = values.get(key), reference["values"].get(key)
        if isinstance(want, float) and isinstance(got, numbers.Real):
            ok = math.isclose(got, want, rel_tol=rtol, abs_tol=0.0)
        else:
            ok = got == want
        if not ok:
            bad.append(f"{key} = {got!r}, reference {want!r}")
    for name in sorted(set(hashes) | set(reference["artifacts"])):
        if hashes.get(name) != reference["artifacts"].get(name):
            bad.append(f"artifact {name}: sha256 {hashes.get(name)} differs from the reference")
    return bad


def plain(values: dict) -> dict:
    """values with numpy scalars turned into Python numbers, for JSON."""
    return {k: (int(v) if isinstance(v, numbers.Integral) else float(v))
            if isinstance(v, numbers.Real) else v for k, v in values.items()}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def load_references(workload: str) -> tuple:
    with open(HERE / "references.json", encoding="utf-8") as fh:
        refs = json.load(fh)
    return refs["workloads"][workload], refs["rtol"]


def timed_run(workloads, workload, seed, seconds):
    """Closed loop with one client; returns (per-task records, failure count).

    A task starts only when, at the median task time so far, it would end
    within `seconds`; task 0 always runs.
    """
    task = workloads.WORKLOADS[workload]
    reference, rtol = load_references(workload)
    sampler = speed.Sampler()
    tasks, failed, elapsed = [], 0, []
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start + statistics.median(elapsed) <= seconds:
        sseed = workloads.study_seed(seed, k)
        t0 = time.perf_counter()
        raw, dt, values, problems, hashes = execute(task, sseed, sampler.time)
        elapsed.append(time.perf_counter() - t0)
        bad = check(values, problems, hashes, reference if k == 0 else None, rtol)
        failed += bool(bad)
        tasks.append({"k": k, "study_seed": sseed, "raw_seconds": raw, "seconds": dt,
                      "failures": bad, "values": plain(values)})
        k += 1
    return tasks, failed


def traced_run(workloads, workload, seed):
    """Reference task untraced, then twice traced; per-layer metrics of the first.

    Returns (per-layer metrics, per-task records, failure count, tracer).
    """
    from tracing import Tracer, unit

    task = workloads.WORKLOADS[workload]
    reference, rtol = load_references(workload)
    sseed = workloads.study_seed(seed, 0)
    tracer = Tracer()
    runs = [execute(task, sseed)]
    with tracer:
        for task_id in (1, 2):
            runs.append(execute(task, sseed, lambda fn, i=task_id: tracer.run_task(i, fn)))
    tasks, failed = [], 0
    for label, (dt, _, values, problems, hashes) in zip(("untraced", "traced", "traced"),
                                                         runs):
        bad = check(values, problems, hashes, reference, rtol)
        if hashes != runs[0][4]:
            bad.append("artifacts differ between runs of the same seed")
        failed += bool(bad)
        tasks.append({"run": label, "study_seed": sseed, "seconds": dt, "failures": bad})
    layers = tracer.metrics(1)
    again = tracer.metrics(2)
    drift = [k for k in layers if unit(k) in ("count", "B") and layers[k] != again[k]]
    if drift:
        failed += 1
        tasks.append({"run": "count check", "failures": [
            f"{k}: {layers[k]} then {again[k]} in two traced runs" for k in drift]})
    if runs[0][0] is not None and runs[1][0] is not None:
        layers["trace.overhead_s"] = runs[1][0] - runs[0][0]
    else:
        layers["trace.overhead_s"] = 0.0
    metrics = {k: {"value": v, "unit": unit(k)} for k, v in layers.items()}
    return metrics, tasks, failed, tracer


def tail_percentile(times) -> str:
    """The highest percentile with at least ten samples beyond it (nearest rank)."""
    n = len(times)
    if n < 11:
        return f"none (n={n}; needs at least 11 tasks)"
    p = math.floor(100 * (1 - 10 / n))
    value = sorted(times)[max(0, math.ceil(p / 100 * n) - 1)]
    return f"p{p} {value:.4f} s (n={n})"


def report_timed(workload, seed, seconds, setup, tasks, failed):
    """Print the end-to-end metrics; returns (metrics, details for the result file)."""
    done = [t for t in tasks if t["seconds"] is not None]
    times = [t["seconds"] for t in done] or [float("nan")]
    raw = [t["raw_seconds"] for t in done] or [float("nan")]
    wall = statistics.median(times)
    quart = statistics.quantiles(times, n=4) if len(times) > 1 else [wall, wall, wall]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(setup)
    print(f"workload {workload}: {len(tasks)} tasks, closed loop, 1 client, "
          f"seed {seed}, {seconds:g} s")
    print(f"wall_s = {wall:.4f} s (median per task at reference speed; q1 {quart[0]:.4f}, "
          f"q3 {quart[2]:.4f}; tail {tail_percentile(times)}; "
          f"raw median {statistics.median(raw):.4f} s)")
    print(f"setup_s = {setup_s:.4f} s (median of {len(setup)} fresh processes)")
    print(f"peak_rss_mb = {rss_mb:.1f} MB")
    print(f"fail_frac = {failed / len(tasks):.4f} ratio ({failed}/{len(tasks)} tasks failed)")
    for t in tasks:
        for msg in t["failures"]:
            print(f"FAIL task {t['k']} (study seed {t['study_seed']}): {msg}")
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "setup_s": {"value": setup_s, "unit": "s"},
               "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
    detail = {"wall_s_quartiles": quart, "setup_s_samples": setup,
              "fail_frac": failed / len(tasks)}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "muonlab" / "__init__.py").is_file():
        print(f"error: muonlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.setup_probe:
        setup()
        print(repr(time.monotonic()))
        return 0
    if args.workload == "all":
        return run_all(args)

    setup_times = measure_setup(args.workload)
    env, workloads = setup()
    if args.trace:
        metrics, tasks, failed, tracer = traced_run(workloads, args.workload, args.seed)
        spans_path = os.path.join(WORK_DIR, "traces",
                                  f"{args.workload}-seed{args.seed}.jsonl.gz")
        tracer.write(spans_path, {"workload": args.workload, "seed": args.seed, "env": env})
        print(f"workload {args.workload}: traced the reference task; spans in {spans_path}")
        for t in tasks:
            for msg in t["failures"]:
                print(f"FAIL {t['run']}: {msg}")
        if tracer.missing:
            print(f"warning: functions not found, so not traced: {', '.join(tracer.missing)}")
        detail = {}
    else:
        tasks, failed = timed_run(workloads, args.workload, args.seed, args.seconds)
        metrics, detail = report_timed(args.workload, args.seed, args.seconds,
                                       setup_times, tasks, failed)
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": failed == 0, "attempted": len(tasks), "failed": failed,
              "metrics": metrics}
    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    with open(os.path.join(WORK_DIR, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(dict(result, env=env, tasks=tasks, **detail), fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in turn, each in its own process, and tabulate the results."""
    rows = []
    for workload in WORKLOAD_NAMES:
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)],
                             capture_output=True, text=True, timeout=900)
        print(out.stdout, end="")
        print(out.stderr, end="", file=sys.stderr)
        if out.returncode != 0:
            return out.returncode
        rows.append((workload, json.loads(out.stdout.splitlines()[-1])))
    for workload, result in rows:
        cells = [f"{k} = {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()]
        cells.append(f"fail_frac = {result['failed'] / result['attempted']:.4g} ratio")
        print(f"{workload}: " + ", ".join(cells))
    return 0 if all(r["correct"] for _, r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
