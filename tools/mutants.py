#!/usr/bin/env python3
"""Mutation audit: does some test fail when a bound or tolerance is loosened?

Each entry of MUTANTS replaces one piece of text in one file under src/.
The script copies src/, tests/ and the files the tests read to a temporary
directory and runs Tier-1 there without acceptance criteria 10 and 11 (the
two long studies), then once per mutation with that one text replaced.  It
writes a JSON report: each mutation "killed" (some test failed; the ids of
the failing tests are listed), "survived", or "error" (the run stopped with
no failing test).  The unmutated run must pass, or no mutation runs.
Standard library only; run from anywhere as

    python3 tools/mutants.py

and it writes MUTANTS.json at the root of the repository.  It exits 0 when every mutation run is killed, 1 when one survives or the
unmutated run fails, and 2 when an entry's text is not in its file exactly
once (the table is stale).
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# id -> (file, text, its replacement, what the replacement loosens)
MUTANTS = {
    "descent-slack": (
        "src/muonlab/verify.py",
        "slack = 1e-8 * max(1.0, abs(nxt.f))",
        "slack = 1e-6 * max(1.0, abs(nxt.f))",
        "check_descent_inequalities' slack 1e-8 -> 1e-6"),
    "adaptive-eta-rule": (
        "src/muonlab/verify.py",
        "> 1e-9 * max(1.0, expect):",
        "> 1e-3 * max(1.0, expect):",
        "check_adaptive_rate_bound's eta-rule tolerance 1e-9 -> 1e-3"),
    "l_t-tol": (
        "src/muonlab/diagnostics.py",
        "tol: float = 1e-6, max_iter",
        "tol: float = 1e-5, max_iter",
        "l_t's default tolerance x10"),
    "momentum-root": (
        "src/muonlab/verify.py",
        "root = np.sqrt((1.0 - beta) / (1.0 + beta))",
        "root = 1.1 * np.sqrt((1.0 - beta) / (1.0 + beta))",
        "momentum_error_bound's root x1.1"),
    "nonconvex-last-term": (
        "src/muonlab/verify.py",
        "+ 2.0 * eta * beta * C / (1.0 - beta))",
        "+ 3.0 * eta * beta * C / (1.0 - beta))",
        "check_nonconvex_rate_bound's last rhs term 2.0 -> 3.0"),
    "best-point-last-on-ties": (
        "src/muonlab/harness.py",
        "if not diverged and fT < best[0]:",
        "if not diverged and fT <= best[0]:",
        "_best_point keeps the last of tied grid points"),
    "rayleigh-factor-2": (
        "src/muonlab/diagnostics.py",
        "bound = rec.L_t * dir_sq + tol",
        "bound = 2.0 * rec.L_t * dir_sq + tol",
        "validate_record's Rayleigh bound x2"),
    "steps-accept-gap": (
        "src/muonlab/verify.py",
        "if any(b != a + 1 for a, b in zip(ts, ts[1:])):",
        "if any(b <= a for a, b in zip(ts, ts[1:])):",
        "_steps accepts records with a gap in t"),
    "steps-accept-missing-column": (
        "src/muonlab/verify.py",
        "if getattr(rec, column) is None:",
        "if False:",
        "_steps accepts a step row without a column its check reads"),
    "constant-J-skips-kind": (
        "src/muonlab/verify.py",
        '    if which == "J":\n        _require_quadratic(problem, "the curvature-average bound")\n',
        "",
        "check_constant_step_linear_bound's J variant runs on a problem of any kind"),
    "nonconvex-accepts-zero": (
        "src/muonlab/verify.py",
        "if value is not None and not value > 0:",
        "if value is not None and value < 0:",
        "check_nonconvex_rate_bound accepts runs = 0, T = 0 and a given eta = 0"),
    "steps-accept-tail": (
        "src/muonlab/verify.py",
        "if len(records) < 2 or records[0].t != 0:",
        "if len(records) < 2:",
        "_steps accepts records that do not start at t = 0"),
    "blas-scope-wraps-processes": (
        "src/muonlab/harness.py",
        "with (contextlib.nullcontext() if submit else matcore.one_blas_thread()),",
        "with matcore.one_blas_thread(),",
        "_run_jobs enters the one-thread BLAS scope for pooled processes too"),
    "run-jobs-after-failure": (
        "src/muonlab/harness.py",
        "while item is not None and not failed:",
        "while item is not None:",
        "a _run_jobs worker keeps taking jobs after one failed"),
    "seed-mode-every-kind": (
        "src/muonlab/harness.py",
        '{kind: {"seed": int, **keys} for kind, keys in (',
        '{kind: {"seed": int, "seed_mode": ("fixed", "per_run"), **keys} for kind, keys in (',
        "every problem kind accepts seed_mode, which only the quadratic reads"),
    "decay-free-text": (
        "src/muonlab/harness.py",
        '"decay": ("two_cluster", "geometric"),',
        '"decay": str,',
        "problem.decay takes any text, refused only when the quadratic is built"),
}

# Tier-1 without the two long acceptance studies
PYTEST = ["-m", "pytest", "-q", "-p", "no:cacheprovider",
          "-k", "not criterion_10 and not criterion_11"]


def _copy_tree(dest: Path) -> None:
    """What Tier-1 reads: the package, the tests, the files some tests parse."""
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)


def _failing(report: Path) -> list:
    """Ids (module::test) of the failed or erroring tests in a JUnit XML report."""
    ids = []
    for case in ET.parse(report).getroot().iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            ids.append(f"{case.get('classname')}::{case.get('name')}")
    return sorted(set(ids))


def _run_suite(tree: Path) -> tuple:
    """(pytest exit code, failing test ids, seconds) of Tier-1 in tree."""
    report = tree / "junit.xml"
    # no bytecode cache, so no run can import a stale compile of another's source
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *PYTEST, f"--junitxml={report}"],
                          cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    seconds = round(time.perf_counter() - start, 1)
    failing = _failing(report) if report.exists() else []
    report.unlink(missing_ok=True)
    return proc.returncode, failing, seconds


def main() -> int:
    stale = []
    for ident, (file, text, _, _) in MUTANTS.items():
        count = (ROOT / file).read_text(encoding="utf-8").count(text)
        if count != 1:
            stale.append(f"{ident}: {text!r} occurs {count} times in {file}")
    if stale:
        print("error: stale mutation table\n  " + "\n  ".join(stale), file=sys.stderr)
        return 2

    result = {"command": "python3 tools/mutants.py",
              "pytest": " ".join(PYTEST[2:]),
              "environment": {"python": platform.python_version(), "cores": os.cpu_count()},
              "mutants": []}
    with tempfile.TemporaryDirectory(prefix="muonlab-mutants-") as scratch:
        tree = Path(scratch)
        _copy_tree(tree)
        rc, failing, seconds = _run_suite(tree)
        result["baseline"] = {"exit_code": rc, "failing": failing, "seconds": seconds}
        print(f"baseline: exit {rc}, {len(failing)} failing, {seconds} s", flush=True)
        if rc == 0:
            for ident, (file, text, replacement, what) in MUTANTS.items():
                path = tree / file
                source = path.read_text(encoding="utf-8")
                path.write_text(source.replace(text, replacement, 1), encoding="utf-8")
                try:
                    rc, failing, seconds = _run_suite(tree)
                finally:
                    path.write_text(source, encoding="utf-8")
                # a nonzero exit with no failing test (say, an import error) is no kill
                status = "survived" if rc == 0 else "killed" if failing else "error"
                result["mutants"].append({"id": ident, "file": file, "what": what,
                                          "from": text, "to": replacement, "status": status,
                                          "failing": failing, "seconds": seconds})
                print(f"{ident}: {status} ({len(failing)} failing, {seconds} s)", flush=True)
    (ROOT / "MUTANTS.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    killed = all(m["status"] == "killed" for m in result["mutants"])
    return 0 if result["baseline"]["exit_code"] == 0 and killed else 1


if __name__ == "__main__":
    sys.exit(main())
