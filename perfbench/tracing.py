"""Span tracing of muonlab from outside its source tree.

A Tracer replaces public functions with timing wrappers where the callers
look them up (a module attribute, a class attribute, or an oracle attribute
on a Problem instance) and puts every original back on exit.  Spans
(label, start, end, parent, task) and per-task counters stay in memory; the
per-layer metrics are derived from them after the traced task has finished,
and the spans are written out when the benchmark ends.

Self time of a span is its duration minus the durations of its direct
children.  Calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import gzip
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

from muonlab import harness, matcore, optim, problems, verify

ORTH_SHAPES = ("15x20", "100x196", "10x196", "64x128")
PROBLEM_KINDS = ("quadratic", "linear_mse", "mlp")
ORACLES = ("value_grad", "value", "grad", "hvp")
FACTORIZING = ("matcore.orth_svd", "matcore.svd", "matcore.nuclear_norm")
RUN_SPANS = ("harness.run_experiment", "harness.lean_run")
OPTIM_FUNCTIONS = ("muon_step", "simplified_muon_step", "gd_step",
                   "gd_nesterov_step", "adam_step", "adamw_step",
                   "orthogonalize", "next_eta")
VERIFY_CHECKS = ("check_quadratic_taylor_identity", "check_descent_inequalities",
                 "check_adaptive_rate_bound", "check_constant_step_linear_bound",
                 "check_nonconvex_J_bound", "check_norm_lemmas",
                 "check_momentum_error_lemma", "check_nonconvex_rate_bound")


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "overhead_s"):
        return "s"
    if last in ("us", "self_us"):
        return "us"
    if last == "bytes":
        return "B"
    if last == "converged_frac":
        return "ratio"
    if last == "factorizations_per_step":
        return "1/step"
    return "count"


def _shape(args) -> str:
    return "x".join(str(d) for d in getattr(args[0], "shape", ()))


# Hooks record what a call returned; they run after the span has closed.

def _hook_lean_run(counts, args, result):
    counts["harness.grid_points"] += 1
    counts["harness.grid_diverged"] += int(result[1])


def _hook_run_experiment(counts, args, result):
    counts["diagnostics.records"] += len(result.records)


def _hook_l_t(counts, args, result):
    counts["diagnostics.l_t.converged"] += int(result[1])


def _hook_emit(counts, args, result):
    counts["harness.emit.bytes"] += os.path.getsize(args[1])


def _hook_verify(counts, args, result):
    counts["verify.instances"] += result.instances
    counts["verify.violations"] += len(result.violations)


class Tracer:
    """Patches muonlab for the duration of a ``with`` block and records spans."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)
        self.task = -1
        self.missing = []
        self._stack = []
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, detail=None, hook=None):
        spans, stack, tracer = self.spans, self._stack, self
        labels = {}

        def traced(*args, **kwargs):
            if detail is None:
                label = name
            else:
                key = detail(args)
                label = labels.get(key)
                if label is None:
                    label = labels[key] = f"{name}.{key}"
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, tracer.task]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer.counts[tracer.task], args, result)
            return result

        return traced

    def run_task(self, task_id, fn):
        """Run fn() as the root span of one task; returns (result, seconds, seconds)."""
        self.task = task_id
        result = self._wrap(fn, "harness.task")()
        root = next(s for s in reversed(self.spans) if s[3] == -1)
        return result, root[2] - root[1], root[2] - root[1]

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, name, detail=None, hook=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, self._wrap(fn, name, detail, hook))
        self._restore.append((owner, attr, fn))

    def _wrap_problem(self, counts, args, problem):
        kind = problem.metadata.get("kind", "other")
        for oracle in ORACLES:
            fn = getattr(problem, oracle)
            if fn is not None:
                setattr(problem, oracle, self._wrap(fn, f"problems.{oracle}.{kind}"))

    def __enter__(self):
        p = self._patch
        p(matcore, "orthogonalize_svd", "matcore.orth_svd", _shape)
        p(matcore, "orthogonalize_ns", "matcore.orth_ns", _shape)
        p(matcore, "svd", "matcore.svd", _shape)
        p(matcore, "nuclear_norm", "matcore.nuclear_norm", _shape)
        if hasattr(harness, "_OptRun"):
            p(harness._OptRun, "step", "optim.step")
        else:
            self.missing.append("harness._OptRun")
        for name in OPTIM_FUNCTIONS:
            p(optim, name, f"optim.{name}")
        p(harness, "build_problem", "problems.build", hook=self._wrap_problem)
        p(verify, "quadratic_new", "problems.build", hook=self._wrap_problem)
        p(harness, "j_t", "diagnostics.j_t")
        p(harness, "hat_j_t", "diagnostics.hat_j_t")
        p(harness, "l_t", "diagnostics.l_t", hook=_hook_l_t)
        p(harness, "distance_metrics", "diagnostics.distance")
        p(harness, "validate_record", "diagnostics.validate")
        for name in VERIFY_CHECKS:
            p(verify, name, f"verify.{name}", hook=_hook_verify)
        for name in ("figure1_study", "figure2_suite", "figure3_suite",
                     "quadratic_check_run"):
            p(harness, name, f"harness.{name}")
        p(harness, "run_experiment", "harness.run_experiment", hook=_hook_run_experiment)
        p(harness, "_lean_final_f", "harness.lean_run", hook=_hook_lean_run)
        for name in ("emit_csv", "emit_summary", "emit_spectrum_csv"):
            p(harness, name, "harness.emit", hook=_hook_emit)
        p(problems, "save_matrix_csv", "harness.emit", hook=_hook_emit)
        p(harness, "read_records_csv", "harness.read")
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()
        return False

    # -- results -----------------------------------------------------------

    def metrics(self, task_id) -> dict:
        """Per-layer metrics of one traced task, every name always present."""
        spans = self.spans
        ids = [i for i, s in enumerate(spans) if s[4] == task_id]
        child = Counter()
        for i in ids:
            s = spans[i]
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        calls, self_s = Counter(), Counter()
        hvps_in_l_t = factorizations_in_runs = 0
        for i in ids:
            label, start, end, parent, _ = spans[i]
            calls[label] += 1
            self_s[label] += (end - start) - child[i]
            if label.startswith("problems.hvp") and parent >= 0 \
                    and spans[parent][0] == "diagnostics.l_t":
                hvps_in_l_t += 1
            if label.startswith(FACTORIZING) and self._inside_run(i):
                factorizations_in_runs += 1
        counts = self.counts[task_id]

        def n(prefix):
            """Calls of the label and of its per-shape or per-kind sublabels."""
            return sum(v for k, v in calls.items() if k == prefix or k.startswith(prefix + "."))

        def secs(prefix):
            return float(sum(v for k, v in self_s.items()
                             if k == prefix or k.startswith(prefix + ".")))

        def per_call_us(prefix):
            return 1e6 * secs(prefix) / n(prefix) if n(prefix) else 0.0

        m = {}
        for key in ("orth_svd", "orth_ns", "svd", "nuclear_norm"):
            m[f"matcore.{key}.calls"] = n(f"matcore.{key}")
            m[f"matcore.{key}.s"] = secs(f"matcore.{key}")
        for shape in ORTH_SHAPES:
            m[f"matcore.orth_svd.{shape}.calls"] = n(f"matcore.orth_svd.{shape}")
            m[f"matcore.orth_svd.{shape}.us"] = per_call_us(f"matcore.orth_svd.{shape}")
        m["matcore.factorizations"] = sum(n(f) for f in FACTORIZING)
        steps = n("optim.step")
        m["matcore.factorizations_per_step"] = factorizations_in_runs / steps if steps else 0.0
        m["optim.steps"] = steps
        m["optim.step.self_s"] = secs("optim")
        m["optim.step.self_us"] = 1e6 * secs("optim") / steps if steps else 0.0
        for key in ("build",) + ORACLES:
            m[f"problems.{key}.calls"] = n(f"problems.{key}")
            m[f"problems.{key}.s"] = secs(f"problems.{key}")
        for oracle in ("value_grad", "hvp"):
            for kind in PROBLEM_KINDS:
                m[f"problems.{oracle}.{kind}.us"] = per_call_us(f"problems.{oracle}.{kind}")
        m["diagnostics.records"] = counts["diagnostics.records"]
        for key in ("j_t", "hat_j_t", "l_t", "distance", "validate"):
            m[f"diagnostics.{key}.calls"] = n(f"diagnostics.{key}")
            m[f"diagnostics.{key}.s"] = secs(f"diagnostics.{key}")
        m["diagnostics.l_t.hvps"] = hvps_in_l_t
        n_l_t = n("diagnostics.l_t")
        m["diagnostics.l_t.converged_frac"] = (
            counts["diagnostics.l_t.converged"] / n_l_t if n_l_t else 0.0)
        m["verify.checks"] = n("verify")
        m["verify.s"] = secs("verify")
        m["verify.instances"] = counts["verify.instances"]
        m["verify.violations"] = counts["verify.violations"]
        m["harness.self_s"] = secs("harness") - secs("harness.emit") - secs("harness.read")
        m["harness.grid_points"] = counts["harness.grid_points"]
        m["harness.grid_diverged"] = counts["harness.grid_diverged"]
        for key in ("emit", "read"):
            m[f"harness.{key}.calls"] = n(f"harness.{key}")
            m[f"harness.{key}.s"] = secs(f"harness.{key}")
        m["harness.emit.bytes"] = counts["harness.emit.bytes"]
        return m

    def _inside_run(self, i) -> bool:
        """True when span i sits inside an optimizer run and not inside a problem build."""
        spans = self.spans
        p = spans[i][3]
        while p >= 0:
            label = spans[p][0]
            if label == "problems.build":
                return False
            if label in RUN_SPANS:
                return True
            p = spans[p][3]
        return False

    def write(self, path, header: dict) -> None:
        """Write a header line and one JSON array per span, gzip-compressed."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(dict(header, missing_patches=self.missing,
                                     fields=["label", "start", "end", "parent", "task"]))
                     + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
