"""Experiment runner and command-line interface.

A run is fully described by an ExperimentConfig (problem, optimizer,
schedule, horizon, diagnostics cadence, seeds, outputs).  Configs round-trip
through a flat ``section.key = value`` text file.  Given a config and a seed,
every emitted byte is reproducible on one numpy/BLAS build at one BLAS
thread count: randomness comes only from seeded generators, and artifacts
carry no timestamps.  The thread count matters because a multithreaded BLAS
sums larger products in a different order (the linear-MSE gradients of the
fig2 pair change in their last bits between 1 and 2 threads).

CSV schema (one row per recorded step, stable column order):
    t, f, grad_F, grad_nuc, eta, J_t, L_t, hatJ_t, distF, distOp,
    ratio_lhs, ratio_rhs, flags
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import matcore, optim, problems, verify
from .diagnostics import (FLAG_DIVERGED, FLAG_FD_KINK, FLAG_POWER_FALLBACK,
                          FLAG_RAYLEIGH, FLAG_ZERO_DIRECTION, RunSummary,
                          StepRecord, average_j, comparison_ratio,
                          direction_rank, distance_metrics, hat_j_t, j_t, l_t,
                          ratio_condition, spectrum, validate_record,
                          weighted_j_tilde)
from .problems import Problem, f_star

CSV_COLUMNS = ("t", "f", "grad_F", "grad_nuc", "eta", "J_t", "L_t", "hatJ_t",
               "distF", "distOp", "ratio_lhs", "ratio_rhs", "flags")

DIVERGENCE_FACTOR = 1e6


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _format_value(v) -> str:
    """Text of a config value or a CSV cell; None is the empty cell."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (tuple, list)):
        return ",".join(_format_value(x) for x in v)
    return str(v)


_MUON_KEYS = {"orthogonalizer": optim.ORTHOGONALIZERS, "ns_steps": int}
_ADAM_KEYS = {"beta1": float, "beta2": float, "eps": float}

# kind -> (optim stepper, its state class, the optimizer.* keys other than kind
# that it reads with their types).  The keys set a Muon state and are passed
# to the other steppers; momentum-free Muon is the Muon stepper with beta = 0.
_OPTIMIZERS = {
    "muon": ("muon_step", optim.MuonState, {"beta": float, **_MUON_KEYS}),
    "simplified_muon": ("muon_step", functools.partial(optim.MuonState, beta=0.0), _MUON_KEYS),
    "gd": ("gd_step", None, {}),
    "gd_nesterov": ("gd_nesterov_step", optim.NesterovState, {"mu": float}),
    "adam": ("adam_step", optim.AdamState, _ADAM_KEYS),
    "adamw": ("adamw_step", optim.AdamState, {**_ADAM_KEYS, "weight_decay": float}),
}

# section -> (default kind, {kind: {each key but kind that the kind reads: its
# type}}).  A type is int, float, bool, str, a tuple of the words the key takes,
# or [int] or [float] for a list, the only values whose text splits on commas.
# The run section has one kind and no kind key.
CONFIG_SCHEMA = {
    "problem": ("quadratic", {kind: {"seed": int, "seed_mode": ("fixed", "per_run"), **keys}
                              for kind, keys in (
        ("quadratic", {"m": int, "n": int, "cond": float, "decay": str, "half": bool,
                       "wstar_scale": float, "wstar": ("uniform", "gaussian")}),
        ("linear_mse", {"d": int, "B": int, "c": int, "features": ("gaussian", "lowrank", "csv"),
                        "target_ratio": float, "path": str, "skip_header": bool}),
        ("mlp", {"input_dim": int, "dims": [int], "B": int, "loss": str,
                 "data": ("lowrank", "gaussian"), "target_ratio": float, "train_layer": int}),
    )}),
    "optimizer": ("gd", {kind: types for kind, (_, _, types) in _OPTIMIZERS.items()}),
    "schedule": ("constant", {
        "constant": {"eta": float},
        "nonconvex_L": {"L": float, "beta": float},
        "nonconvex_Lstar": {"L_star": float, "beta": float},
        "adaptive_rL": {"L": float},
        "adaptive_Lstar": {"L_star": float},
        "theory_J": {"J": float},
    }),
    "run": ("run", {"run": {
        "T": int, "cadence": int, "want_J": bool, "want_L": bool, "want_hatJ": bool,
        "seeds": [int], "out_dir": str, "name": str, "lr_grid": [float], "workers": int,
        "w0": ("zeros", "gaussian", "init"), "checkpoint": bool}}),
}
RUN_KEYS = tuple(CONFIG_SCHEMA["run"][1]["run"])

_TYPE_NAMES = {int: "a whole number", float: "a number", bool: "true or false", str: "text"}


def _typed(key: str, value, cast):
    """The value of config key (section.key) as cast: int takes a whole number, float
    a number, bool true or false, str text, a tuple of words one of them, and [cast]
    one or more (one value is a list of one).  Else it raises ValueError naming the key."""
    if isinstance(cast, list):
        return tuple(_typed(key, v, cast[0])
                     for v in (value if isinstance(value, (tuple, list)) else (value,)))
    if isinstance(cast, tuple):
        if value in cast:
            return value
        raise ValueError(f"{key} takes one of {', '.join(cast)}, got {value!r}")
    try:
        # int(True) and bool("no") would pass, so a bool or str is taken only where wanted
        if isinstance(value, bool) != (cast is bool) or isinstance(value, str) != (cast is str):
            raise TypeError
        typed = cast(value)
        if cast is int and typed != value:
            raise ValueError
        return typed
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key} takes {_TYPE_NAMES[cast]}, got {value!r}") from None


def _parsed(key: str, text: str, cast):
    """The value of config key read from its text in a config file by cast."""
    if isinstance(cast, list):
        return tuple(_parsed(key, part.strip(), cast[0]) for part in text.split(","))
    if cast in (int, float, bool):
        try:
            text = {"true": True, "false": False}[text] if cast is bool else cast(text)
        except (KeyError, ValueError):
            raise ValueError(f"{key} takes {_TYPE_NAMES[cast]}, got {text}") from None
    return _typed(key, text, cast)


def _read_section(section: str, spec: dict, read=_typed):
    """(kind, values) of a config section: the kind it names and each other
    key's value read by its type, once every key is one that kind reads."""
    default, kinds = CONFIG_SCHEMA[section]
    kind = spec.get("kind", default)
    if kind not in kinds:
        raise ValueError(f"unknown {section} kind {kind!r}")
    types = kinds[kind]
    values = {}
    for key, value in spec.items():
        if key in types:
            values[key] = read(f"{section}.{key}", value, types[key])
        elif key != "kind":
            raise ValueError(f"{section}.{key} is not read by {section} kind {kind!r}, "
                             f"which reads: {', '.join(('kind', *types))}")
    return kind, values


# "#" starts a comment at a line's start or after whitespace: data/run#2.csv is one value
_COMMENT = re.compile(r"(?:^|\s)#")


def _config_line(lineno: int, line: str):
    """(section, key, value text) of a config file line; None for a blank or comment."""
    line = _COMMENT.split(line, maxsplit=1)[0].strip()
    if not line:
        return None
    if "=" not in line or "." not in line.split("=", 1)[0]:
        raise ValueError(f"config line {lineno}: expected 'section.key = value'")
    lhs, rhs = line.split("=", 1)
    section, key = lhs.strip().split(".", 1)
    return section, key.strip(), rhs.strip()


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment (possibly several seeds)."""

    problem: dict
    optimizer: dict
    schedule: dict
    T: int = 100
    cadence: int = 1
    want_J: bool = False
    want_L: bool = False
    want_hatJ: bool = False
    seeds: tuple = (0,)
    out_dir: Optional[str] = None
    name: str = "run"
    lr_grid: Optional[tuple] = None
    workers: int = 1
    w0: str = "zeros"
    checkpoint: bool = False

    def _run_values(self) -> dict:
        """The run.* values that are set; an unset lr_grid or out_dir is None."""
        return {key: getattr(self, key) for key in RUN_KEYS if getattr(self, key) is not None}

    def __post_init__(self):
        for key, value in _read_section("run", self._run_values())[1].items():
            setattr(self, key, value)
        if self.T < 1:
            raise ValueError("run.T must be at least 1")
        if self.cadence < 1:
            raise ValueError("run.cadence must be at least 1")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("run.seeds must be distinct")

    def to_text(self) -> str:
        lines = []
        for section, data in (("problem", self.problem),
                              ("optimizer", self.optimizer),
                              ("schedule", self.schedule),
                              ("run", self._run_values())):
            for key in sorted(data):
                text = _format_value(data[key])
                line = f"{section}.{key} = {text}"
                if line.splitlines() != [line] or _config_line(0, line) != (section, key, text):
                    raise ValueError(f"{section}.{key} = {text!r} would not read back")
                lines.append(line)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        sections = {section: {} for section in CONFIG_SCHEMA}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = _config_line(lineno, raw)
            if line is None:
                continue
            section, key, value = line
            if section not in sections:
                raise ValueError(f"config line {lineno}: unknown section {section!r}")
            if section == "run" and key not in RUN_KEYS:
                raise ValueError(f"config line {lineno}: unknown key 'run.{key}'")
            sections[section][key] = value
        for section, spec in sections.items():
            kind, sections[section] = _read_section(section, spec, _parsed)
            if "kind" in spec:
                sections[section]["kind"] = kind
        return cls(**sections.pop("run"), **sections)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_problem(spec: dict, run_seed: int = 0) -> Problem:
    """Construct a Problem from a config section.

    problem.seed is the data seed; with seed_mode = per_run the run seed is
    mixed in so every run draws its own instance (used for the quadratic
    optimum resampling studies).
    """
    kind, spec = _read_section("problem", spec)
    get = spec.get
    base_seed = get("seed", 0)
    per_run = get("seed_mode", "fixed") == "per_run"
    eff = np.random.default_rng([base_seed, run_seed] if per_run else [base_seed])
    if kind == "quadratic":
        m = get("m", 15)
        n = get("n", 20)
        scale = get("wstar_scale", 50.0)
        q_seed = int(eff.integers(0, 2 ** 31))
        Q = problems.make_ill_conditioned_Q(m, get("cond", 1e4), get("decay", "two_cluster"),
                                            seed=q_seed)
        if get("wstar", "uniform") == "uniform":
            W_star = eff.uniform(-scale, scale, size=(m, n))
        else:
            W_star = eff.standard_normal((m, n)) * scale
        return problems.quadratic_new(Q, W_star, half=get("half", True))
    if kind == "linear_mse":
        d = get("d", 196)
        B = get("B", 400)
        features = get("features", "gaussian")
        if features == "gaussian":
            X = problems.gaussian_features(d, B, seed=base_seed)
        elif features == "lowrank":
            X = problems.lowrank_features(d, B, get("target_ratio", 1.41), seed=base_seed)
        else:
            if "path" not in spec:
                raise ValueError("problem.features = csv needs problem.path")
            X = problems.load_features_csv(spec["path"], skip_header=get("skip_header", False))
        Y = problems.onehot_labels(get("c", 10), X.shape[1], seed=base_seed + 1)
        return problems.linear_mse_new(X, Y)
    # kind is "mlp"
    input_dim = get("input_dim", 10)
    dims = get("dims", (8, 6, 4))
    B = get("B", 120)
    if get("data", "lowrank") == "lowrank":
        X = problems.lowrank_features(input_dim, B, get("target_ratio", 2.0), seed=base_seed)
        X = X * (np.sqrt(B) / np.linalg.norm(X, "fro"))
    else:
        X = problems.gaussian_features(input_dim, B, seed=base_seed) / np.sqrt(input_dim)
    Y = problems.onehot_labels(dims[-1], B, seed=base_seed + 1)
    shapes = []
    prev = input_dim
    for width in dims:
        shapes.append((width, prev))
        prev = width
    return problems.mlp_new(shapes, X, Y, loss=get("loss", "softmax_ce"), seed=base_seed + 2,
                            train_layer=get("train_layer"))


class _OptRun:
    """Stateful adapter from optimizer config to a step function.

    step() returns the new parameter together with the semi-orthogonal update
    direction when the optimizer is one of the Muon family (None otherwise).
    W may be one parameter matrix or a (k, m, n) stack of k runs advancing
    together, with eta of shape (k, 1, 1); keep() drops runs from the stack.
    """

    def __init__(self, spec: dict):
        # only the keys the config sets: optim's defaults are the only ones
        self.kind, self.options = _read_section("optimizer", spec)
        stepper, state_class, _ = _OPTIMIZERS[self.kind]
        self.state = None
        if stepper == "muon_step":
            self.state, self.options = state_class(**self.options), {}
        elif state_class is not None:
            self.state = state_class()

    def step(self, W, G, eta, out=None):
        """Advance by one step; the new parameter goes to out when given."""
        # looked up per call, so a wrapper installed on the optim module applies
        stepper = getattr(optim, _OPTIMIZERS[self.kind][0])
        args = (W, G, eta) if self.state is None else (self.state, W, G, eta)
        W_next = stepper(*args, out=out, **self.options)
        return W_next, getattr(self.state, "last_direction", None)

    def keep(self, rows) -> None:
        """Keep only the given runs of a stacked state."""
        if self.state is not None:
            for name, value in vars(self.state).items():
                if isinstance(value, np.ndarray):
                    setattr(self.state, name, value[rows])


def make_schedule(spec: dict, problem: Problem, T: int, W0: np.ndarray):
    """Resolve a schedule config against problem metadata.

    This is the one place that turns a schedule kind into numbers: a horizon
    kind becomes its stepsize and an adaptive kind its divisor, each computed
    once.  Returns (schedule, resolved) where resolved records the constants
    used and where the smoothness constant came from, for provenance in the
    run summary.
    """
    kind, values = _read_section("schedule", spec)
    beta = values.get("beta", 0.0)
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"schedule.beta must lie in [0, 1), got {beta!r}")
    r = min(problem.shape)
    resolved = {"kind": kind}

    def lookup(key):
        """(value, source) of schedule.<key>: the config's, else the metadata's."""
        value = values.get(key, problem.metadata.get(key))
        if value is None:
            raise ValueError(f"schedule {kind!r} needs {key}, which neither the "
                             f"config nor the problem metadata gives")
        return float(value), "config" if key in values else "metadata"

    def positive(**constants):
        """Record the constants in resolved, once each is found positive."""
        for key, value in constants.items():
            if not value > 0:
                raise ValueError(f"schedule constant {key!r} must be positive, got {value}")
        resolved.update(constants)

    if kind == "constant":
        eta = lookup("eta")[0]
        positive(eta=eta)
        return optim.Schedule(kind, eta=eta), resolved
    if kind == "adaptive_rL":
        L, resolved["source"] = lookup("L")
        positive(r=r, L=L)
        return optim.Schedule(kind, divisor=r * L), resolved
    if kind == "adaptive_Lstar":
        Ls, resolved["source"] = lookup("L_star")
        positive(L_star=Ls)
        return optim.Schedule(kind, divisor=Ls), resolved

    fs = f_star(problem)
    if fs is None:
        raise ValueError(f"schedule {kind!r} needs a known optimal value to form delta")
    delta = problem.value(W0) - fs
    if kind == "nonconvex_L":
        L, resolved["source"] = lookup("L")
        positive(delta=delta, r=r, T=T, L=L)
        resolved["beta"] = beta
        eta_squared = (1.0 - beta) * delta / (r * T * L)
    elif kind == "nonconvex_Lstar":
        Ls, resolved["source"] = lookup("L_star")
        positive(delta=delta, T=T, L_star=Ls)
        resolved["beta"] = beta
        eta_squared = (1.0 - beta) * delta / (T * Ls)
    else:  # theory_J
        J = lookup("J")[0]
        positive(delta=delta, J=J, T=T)
        eta_squared = 2.0 * delta / (J * T)
    return optim.Schedule(kind, eta=float(np.sqrt(eta_squared))), resolved


def _initial_w(config: ExperimentConfig, problem: Problem, seed: int) -> np.ndarray:
    if config.w0 == "zeros":
        return np.zeros(problem.shape)
    if config.w0 == "gaussian":
        return np.random.default_rng([seed, 10007]).standard_normal(problem.shape)
    W_init = problem.metadata.get("W_init")
    if W_init is None:
        raise ValueError("problem carries no stored initialization for w0=init")
    return W_init.copy()


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


@dataclass
class RunArtifact:
    """In-memory handle to one run plus the files it emitted."""

    config_text: str
    seed: int
    records: list
    summary: RunSummary
    final_W: np.ndarray
    truncated: bool = False
    grid_results: Optional[list] = None
    best_eta: Optional[float] = None
    csv_path: Optional[str] = None
    summary_path: Optional[str] = None
    config_path: Optional[str] = None
    grid_path: Optional[str] = None
    checkpoint_t: Optional[int] = None
    checkpoint_path: Optional[str] = None
    checkpoint_W: Optional[np.ndarray] = None
    schedule_resolved: Optional[dict] = None


def _divergence_guard(f0: float):
    """Predicate that a loss is finite and at most DIVERGENCE_FACTOR * |f0|."""
    limit = DIVERGENCE_FACTOR * max(abs(f0), 1e-12)
    return lambda f: np.isfinite(f) and f <= limit


def _grid_scan(problem: Problem, opt_spec: dict, etas: Sequence[float], T: int,
               W0: np.ndarray) -> list:
    """Final loss of a diagnostics-free run at every stepsize in etas.

    Returns [(final_f, diverged), ...] in grid order, with (inf, True) for a
    diverged point.  The points advance in lockstep on a (k, m, n) stack:
    the oracle is called once for the stack when it takes stacks and per
    point otherwise, the optimizer steps the whole stack at once (one stacked
    factorization per Muon step), and a point that trips the divergence guard
    leaves the stack.  Each point's result is bit for bit the one a separate
    run would give.
    """
    results = [(float("inf"), True)] * len(etas)
    live = list(range(len(etas)))  # grid index of each stack row
    opt = _OptRun(opt_spec)
    W = np.repeat(W0[None], len(etas), axis=0)
    G = np.empty_like(W)
    eta = np.array(etas, dtype=np.float64).reshape(-1, 1, 1)
    in_bounds = _divergence_guard(problem.value(W0))
    for _ in range(T):
        if problem.value_grad_stacks:
            values, G = problem.eval_value_grad(W)
        else:
            values = []
            for j in range(len(live)):
                f, G[j] = problem.eval_value_grad(W[j])
                values.append(f)
        rows = [j for j, f in enumerate(values) if in_bounds(f)]
        if len(rows) < len(live):
            if not rows:
                return results
            live = [live[j] for j in rows]
            W, G, eta = W[rows], G[rows], eta[rows]
            opt.keep(rows)
        opt.step(W, G, eta, out=W)
    for j, idx in enumerate(live):
        f = problem.value(W[j])
        if in_bounds(f):
            results[idx] = (float(f), False)
    return results


def _best_point(etas: Sequence[float], results: list):
    """(final_f, eta) of the first grid point with the lowest final loss
    among those that did not diverge; (inf, None) when all diverged."""
    best = (float("inf"), None)
    for eta, (fT, diverged) in zip(etas, results):
        if not diverged and fT < best[0]:
            best = (fT, eta)
    return best


def _diagnostic_run(problem: Problem, config: ExperimentConfig, schedule,
                    W0: np.ndarray, seed: int):
    opt = _OptRun(config.optimizer)
    adaptive = schedule.divisor is not None
    W = W0.copy()
    in_bounds = _divergence_guard(problem.value(W0))
    W_star = problem.metadata.get("W_star")
    r = min(problem.shape)
    records = []
    truncated = False
    ckpt_t = config.cadence * ((config.T // 2) // config.cadence) if config.checkpoint else None
    ckpt_W = None
    t = 0
    while t < config.T:
        f, G = problem.eval_value_grad(W)
        if not in_bounds(f):
            truncated = True
            break
        recording = (t % config.cadence == 0)
        need_norms = recording or adaptive
        grad_F = float(np.linalg.norm(G, "fro"))
        grad_nuc = matcore.nuclear_norm(G) if need_norms else None
        eta = optim.next_eta(schedule, grad_nuc=grad_nuc)
        if ckpt_t is not None and t == ckpt_t:
            ckpt_W = W.copy()
        W_next, O = opt.step(W, G, eta)
        if recording:
            rec = StepRecord(t=t, f=float(f), grad_F=grad_F, grad_nuc=grad_nuc,
                             eta=float(eta))
            flags = []
            rank_t = None
            if config.want_J or config.want_hatJ:
                O_diag = O if O is not None else optim.orthogonalize(G)
                if not np.any(O_diag):
                    flags.append(FLAG_ZERO_DIRECTION)
                    rec.J_t = 0.0
                    rank_t = 0
                else:
                    rec.J_t = j_t(problem, W, O_diag)
                    rank_t = direction_rank(O_diag)
                if config.want_hatJ:
                    grad_next = problem.grad(W_next)
                    diff = G - grad_next
                    if not np.any(diff):
                        flags.append(FLAG_ZERO_DIRECTION)
                        rec.hatJ_t = 0.0
                    else:
                        rec.hatJ_t = hat_j_t(problem, W, O_diag, G, grad_next)
            if config.want_L:
                val, conv = l_t(problem, W, seed=seed * 1000003 + t)
                rec.L_t = float(val)
                if not conv:
                    flags.append(FLAG_POWER_FALLBACK)
            if rec.J_t is not None and rec.L_t is not None:
                ok, lhs, rhs = ratio_condition(rec.J_t, rec.L_t, grad_F, grad_nuc)
                rec.ratio_ok, rec.ratio_lhs, rec.ratio_rhs = ok, lhs, rhs
            if problem.kink_margin is not None and (config.want_J or config.want_L):
                if problem.kink_margin(W) < 1e-7:
                    flags.append(FLAG_FD_KINK)
            if W_star is not None:
                rec.dist_F, rec.dist_op = distance_metrics(W, W_star)
            if not validate_record(rec, r, rank_t, strict=problem.hvp_exact):
                flags.append(FLAG_RAYLEIGH)
            rec.flags = ";".join(flags)
            records.append(rec)
        W = W_next
        t += 1
    # terminal row: state after the last completed step (or at truncation)
    f_end, G_end = problem.eval_value_grad(W)
    rec = StepRecord(t=t, f=float(f_end),
                     grad_F=float(np.linalg.norm(G_end, "fro")),
                     grad_nuc=float(np.sum(matcore.svd(G_end).S)))
    if W_star is not None:
        rec.dist_F, rec.dist_op = distance_metrics(W, W_star)
    if truncated:
        rec.flags = FLAG_DIVERGED
    validate_record(rec, r)
    records.append(rec)
    return records, W, truncated, (ckpt_t, ckpt_W)


def _summarize(records, problem: Problem, schedule) -> RunSummary:
    fs = f_star(problem)
    final = records[-1]
    summary = RunSummary(T=final.t, final_f=final.f)
    if fs is not None:
        summary.final_gap = final.f - fs
    j_vals = [rec.J_t for rec in records if rec.J_t is not None]
    if j_vals:
        summary.J_mean = average_j(j_vals)
    d_fs = [rec.dist_F for rec in records if rec.dist_F is not None]
    d_ops = [rec.dist_op for rec in records if rec.dist_op is not None]
    if d_fs:
        summary.D_F = max(d_fs)
        summary.D_op = max(d_ops)
    if (schedule.kind == "constant" and summary.D_op and len(j_vals) == final.t
            and j_vals and schedule.eta <= summary.D_op):
        summary.J_tilde = weighted_j_tilde(j_vals, schedule.eta, summary.D_op)
    meta = problem.metadata
    if (summary.D_F and summary.D_op and meta.get("L") and meta.get("L_star")):
        summary.comparison_ratio = comparison_ratio(summary.D_F, summary.D_op,
                                                    meta["L"], meta["L_star"])
    return summary


def run_experiment(config: ExperimentConfig, seed: Optional[int] = None) -> RunArtifact:
    """Execute one seeded run: optional stepsize tuning, then the recorded run.

    The tuning loop (when run.lr_grid is set) evaluates every grid point with
    a lean pass, never selects a diverged point, and keeps all grid results in
    the artifact so stepsize claims stay auditable.
    """
    if seed is None:
        seed = config.seeds[0]
    problem = build_problem(config.problem, run_seed=seed)
    W0 = _initial_w(config, problem, seed)
    grid_results = None
    best_eta = None
    if config.lr_grid:
        # the grid replaces the schedule, whose keys must still be ones it reads
        _read_section("schedule", config.schedule)
        scan = _grid_scan(problem, config.optimizer, config.lr_grid, config.T, W0)
        grid_results = [{"eta": float(eta), "final_f": None if diverged else fT,
                         "diverged": diverged}
                        for eta, (fT, diverged) in zip(config.lr_grid, scan)]
        best = _best_point(config.lr_grid, scan)
        if best[1] is None:
            raise RuntimeError("every stepsize in the tuning grid diverged")
        best_eta = float(best[1])
        schedule = optim.Schedule("constant", eta=best_eta)
        resolved = {"kind": "constant", "eta": best_eta, "source": "lr_grid"}
    else:
        schedule, resolved = make_schedule(config.schedule, problem, config.T, W0)
    records, final_W, truncated, (ckpt_t, ckpt_W) = _diagnostic_run(
        problem, config, schedule, W0, seed)
    summary = _summarize(records, problem, schedule)
    artifact = RunArtifact(
        config_text=config.to_text(), seed=seed, records=records,
        summary=summary, final_W=final_W, truncated=truncated,
        grid_results=grid_results, best_eta=best_eta,
        checkpoint_t=ckpt_t, checkpoint_W=ckpt_W,
        schedule_resolved=resolved)
    if config.out_dir:
        _write_artifact(config, artifact)
    return artifact


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _csv_text(header: Sequence[str], rows) -> str:
    return "".join(",".join(_format_value(v) for v in row) + "\n"
                   for row in (header, *rows))


def emit_csv(records: Sequence[StepRecord], path: str) -> None:
    """Write step records with the stable column order of CSV_COLUMNS."""
    problems.write_atomic(path, _csv_text(CSV_COLUMNS, (
        (rec.t, rec.f, rec.grad_F, rec.grad_nuc, rec.eta, rec.J_t, rec.L_t,
         rec.hatJ_t, rec.dist_F, rec.dist_op, rec.ratio_lhs, rec.ratio_rhs,
         rec.flags) for rec in records)))


def read_records_csv(path: str) -> list:
    """Inverse of emit_csv."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        if tuple(fh.readline().strip().split(",")) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header in {path}")
        for lineno, line in enumerate(fh, 2):
            cells = line.rstrip("\n").split(",")
            try:
                if len(cells) != len(CSV_COLUMNS):
                    raise ValueError(f"expected {len(CSV_COLUMNS)} fields, got {len(cells)}")
                # the columns follow StepRecord's fields; t, f and grad_F are never empty
                rec = StepRecord(int(cells[0]), float(cells[1]), float(cells[2]),
                                 *(None if c == "" else float(c) for c in cells[3:-1]),
                                 flags=cells[-1])
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: {exc}") from None
            if rec.ratio_lhs is not None and rec.ratio_rhs is not None:
                rec.ratio_ok = bool(rec.ratio_lhs <= rec.ratio_rhs)
            records.append(rec)
    return records


def emit_summary(summary: dict, path: str) -> None:
    """Write a summary dict as stable JSON."""
    problems.write_atomic(path, json.dumps(summary, sort_keys=True, indent=2) + "\n")


def emit_spectrum_csv(singular_values, path: str) -> None:
    problems.write_atomic(path, _csv_text(("index", "sigma"), enumerate(
        np.asarray(singular_values, dtype=np.float64))))


def _write_artifact(config: ExperimentConfig, artifact: RunArtifact) -> None:
    stem = os.path.join(config.out_dir, f"{config.name}_seed{artifact.seed}")
    artifact.csv_path = stem + ".csv"
    emit_csv(artifact.records, artifact.csv_path)
    artifact.summary_path = stem + "_summary.json"
    payload = dict(artifact.summary.to_dict(), seed=artifact.seed,
                   truncated=artifact.truncated, schedule_resolved=artifact.schedule_resolved)
    if artifact.best_eta is not None:
        payload["best_eta"] = artifact.best_eta
    emit_summary(payload, artifact.summary_path)
    artifact.config_path = stem + "_config.txt"
    problems.write_atomic(artifact.config_path, artifact.config_text)
    if artifact.grid_results is not None:
        artifact.grid_path = stem + "_grid.json"
        emit_summary({"grid": artifact.grid_results}, artifact.grid_path)
    if artifact.checkpoint_W is not None:
        artifact.checkpoint_path = stem + f"_ckpt_t{artifact.checkpoint_t}.csv"
        problems.save_matrix_csv(artifact.checkpoint_W, artifact.checkpoint_path)


# ---------------------------------------------------------------------------
# Study drivers
# ---------------------------------------------------------------------------


def default_grid(opt_kind: str, problem: Problem) -> tuple:
    """Nine-point logarithmic stepsize grid spanning four decades.

    Gradient-descent grids are centered at 1/L when the smoothness constant
    is known; Muon-family and Adam grids are absolute.
    """
    L = problem.metadata.get("L")
    if opt_kind in ("gd", "gd_nesterov"):
        base = np.logspace(-2, 2, 9)
        return tuple(base / L) if L else tuple(np.logspace(-2, 2, 9))
    if opt_kind in ("adam", "adamw"):
        return tuple(np.logspace(-4, 0, 9))
    return tuple(np.logspace(-3.5, 0.5, 9))


def ratio_study(m: int = 15, n: int = 20, samples: int = 1000, cond: float = 1e4,
                decay: str = "two_cluster", seed: int = 0,
                out_dir: Optional[str] = None):
    """Distribution of the rate-comparison ratio over random optima.

    Draws W* with i.i.d. uniform entries on [-50, 50], keeps W0 = 0, takes the
    curvature of the half-scaled quadratic (f = trace(E^T Q E) / 2), and computes
    D_F^2 L / (D_op^2 L_star) from the initial displacement for each sample.
    Returns (rows, summary); each row is (sample, dist_F, dist_op, ratio) and
    is reproducible from (seed, sample) alone.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    # scalar curvature has no conditioning to speak of; the ratio is exactly 1
    Q = (np.array([[1.0]]) if m == 1
         else problems.make_ill_conditioned_Q(m, cond, decay, seed=seed))
    S = matcore.svd(Q).S
    L = float(S[0])
    L_star = float(np.sum(S))
    rows = []
    for k in range(samples):
        W_star = np.random.default_rng([seed, k]).uniform(-50.0, 50.0, size=(m, n))
        d_f, d_op = distance_metrics(np.zeros((m, n)), W_star)
        rows.append((k, d_f, d_op, comparison_ratio(d_f, d_op, L, L_star)))
    ratios = np.array([r[3] for r in rows])
    summary = {
        "m": m, "n": n, "samples": samples, "cond": cond, "decay": decay,
        "seed": seed, "L": L, "L_star": L_star,
        "ratio_q10": float(np.quantile(ratios, 0.10)),
        "ratio_q25": float(np.quantile(ratios, 0.25)),
        "ratio_median": float(np.median(ratios)),
        "ratio_q75": float(np.quantile(ratios, 0.75)),
        "ratio_q90": float(np.quantile(ratios, 0.90)),
        "ratio_mean": float(np.mean(ratios)),
    }
    if out_dir:
        problems.write_atomic(os.path.join(out_dir, "ratio_study.csv"),
                              _csv_text(("sample", "distF", "distOp", "ratio"), rows))
        emit_summary(summary, os.path.join(out_dir, "ratio_study_summary.json"))
    return rows, summary


def _fan_out(fn, seeds: list) -> list:
    """[fn(seed) for seed in seeds], spread over min(cores, len(seeds)) processes.

    The processes come from the spawn context, so fn must be importable by
    name and a calling script needs an ``if __name__ == "__main__":`` guard.
    Results come back in seed order, and an exception in a process reaches
    the caller.  With one process to use, nothing is started.
    """
    workers = min(len(os.sched_getaffinity(0)), len(seeds))
    if workers < 2:
        return [fn(seed) for seed in seeds]
    # imported here, so a call that starts no process skips its ~15 ms import
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
    try:
        return list(pool.map(fn, seeds))
    finally:
        pool.shutdown(cancel_futures=True)


def _figure1_seed(seed: int, T: int, m: int, n: int, cond: float) -> dict:
    """figure1_study's run for one seed."""
    problem = build_problem({"kind": "quadratic", "m": m, "n": n, "cond": cond,
                             "decay": "two_cluster", "seed": 0, "seed_mode": "per_run"},
                            run_seed=seed)
    W0 = np.zeros((m, n))
    grid = default_grid("muon", problem)
    best_muon = _best_point(grid, _grid_scan(
        problem, {"kind": "muon", "beta": 0.9}, grid, T, W0))
    eta_gd = 1.0 / problem.metadata["L"]
    f_gd = _grid_scan(problem, {"kind": "gd"}, (eta_gd,), T, W0)[0][0]
    return {"seed": seed, "muon_final_f": best_muon[0], "muon_eta": best_muon[1],
            "gd_final_f": f_gd, "gd_eta": eta_gd}


def figure1_study(seeds: Sequence[int], T: int = 4000, m: int = 15, n: int = 20,
                  cond: float = 1e4, out_dir: Optional[str] = None):
    """Tuned Muon against fixed-stepsize GD (eta = 1/L) on ill-conditioned quadratics.

    Every seed draws its own optimum of a two-cluster quadratic; Muon (beta
    0.9) picks its stepsize from the default grid by final loss, GD uses the
    prescribed 1/L.  Returns per-seed final losses.  Several seeds run in
    spawned processes, one per usable core (see _fan_out); one seed runs here.
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("figure1_study needs at least one seed")
    results = _fan_out(functools.partial(_figure1_seed, T=T, m=m, n=n, cond=cond), seeds)
    wins = sum(1 for r in results if r["muon_final_f"] < r["gd_final_f"])
    summary = {"T": T, "m": m, "n": n, "cond": cond, "decay": "two_cluster",
               "seeds": seeds, "muon_wins": wins,
               "win_fraction": wins / len(results), "runs": results}
    if out_dir:
        emit_summary(summary, os.path.join(out_dir, "figure1_summary.json"))
    return summary


def figure2_suite(kind: str = "lowrank", c: int = 100, seed: int = 0,
                  d: int = 196, B: int = 400, T: int = 400,
                  paper_dims: bool = False, out_dir: Optional[str] = None):
    """Four tuned optimizers on the linear classification MSE.

    kind selects the feature matrix: 'lowrank' targets the concentrated
    spectrum (ratio 1.41), 'gaussian' the flat one.  The comparison ratio is
    computed against the best tuned final iterate taken as the optimum.
    Returns (artifacts, summary).
    """
    if kind not in ("lowrank", "gaussian"):
        raise ValueError("kind must be lowrank or gaussian")
    if paper_dims:
        d, B = 784, 1000
    prob_spec = {"kind": "linear_mse", "features": kind, "d": d, "B": B,
                 "c": c, "seed": seed}
    if kind == "lowrank":
        prob_spec["target_ratio"] = 1.41
    problem = build_problem(prob_spec, run_seed=seed)
    artifacts = {}
    opt_specs = {
        "gd": {"kind": "gd"},
        "gd_nesterov": {"kind": "gd_nesterov", "mu": 0.9},
        "adam": {"kind": "adam"},
        "muon": {"kind": "muon", "beta": 0.9},
    }
    cadence = max(1, T // 50)
    for name, spec in opt_specs.items():
        config = ExperimentConfig(
            problem=prob_spec, optimizer=spec, schedule={"kind": "constant", "eta": 1.0},
            T=T, cadence=cadence, seeds=(seed,), lr_grid=default_grid(name, problem),
            out_dir=out_dir, name=f"fig2_{kind}_c{c}_{name}")
        artifacts[name] = run_experiment(config, seed)
    best_name = min(artifacts, key=lambda k: artifacts[k].summary.final_f)
    W_best = artifacts[best_name].final_W
    d_f, d_op = distance_metrics(np.zeros(problem.shape), W_best)
    meta = problem.metadata
    ratio = comparison_ratio(d_f, d_op, meta["L"], meta["L_star"])
    summary = {
        "kind": kind, "c": c, "d": d, "B": B, "T": T, "seed": seed,
        "concentration_ratio": meta["L_star"] / meta["L"],
        "best_optimizer": best_name,
        "D_F": d_f, "D_op": d_op, "comparison_ratio": ratio,
        "final_f": {name: art.summary.final_f for name, art in artifacts.items()},
        "best_eta": {name: art.best_eta for name, art in artifacts.items()},
    }
    if out_dir:
        emit_summary(summary, os.path.join(out_dir, f"fig2_{kind}_c{c}_summary.json"))
    return artifacts, summary


def figure3_suite(input_dim: int = 10, dims: tuple = (8, 6, 4), B: int = 120,
                  T: int = 200, cadence: int = 10, seed: int = 0,
                  out_dir: Optional[str] = None):
    """Curvature diagnostics for GD and momentum-free Muon on a small MLP.

    The network sees low-rank features and is trained on softmax cross-entropy.
    Trains the designated middle layer, logging J_t, L_t, both gradient norms
    and the two sides of the rate-comparison condition at the given cadence.
    Returns (artifacts, summary); the summary counts the sampled steps where
    Muon's nuclear-to-curvature side beats GD's Frobenius-to-curvature side.
    """
    prob_spec = {"kind": "mlp", "input_dim": input_dim, "dims": tuple(dims),
                 "B": B, "loss": "softmax_ce", "data": "lowrank", "seed": seed}
    problem = build_problem(prob_spec, run_seed=seed)
    artifacts = {}
    for name, spec in (("gd", {"kind": "gd"}),
                       ("muon", {"kind": "simplified_muon"})):
        config = ExperimentConfig(
            problem=prob_spec, optimizer=spec,
            schedule={"kind": "constant", "eta": 1.0},
            T=T, cadence=cadence, want_J=True, want_L=True,
            seeds=(seed,), lr_grid=default_grid(name, problem), out_dir=out_dir,
            name=f"fig3_{name}", w0="init", checkpoint=True)
        artifacts[name] = run_experiment(config, seed)
    muon_side = {}
    gd_side = {}
    for rec in artifacts["muon"].records:
        if rec.J_t is not None and rec.J_t > 0:
            muon_side[rec.t] = rec.grad_nuc ** 2 / rec.J_t
        elif rec.J_t is not None:
            muon_side[rec.t] = float("inf")
    for rec in artifacts["gd"].records:
        if rec.L_t is not None and rec.L_t > 0:
            gd_side[rec.t] = rec.grad_F ** 2 / rec.L_t
    common = sorted(set(muon_side) & set(gd_side))
    wins = sum(1 for t in common if muon_side[t] >= gd_side[t])
    summary = {
        "input_dim": input_dim, "dims": list(dims), "B": B, "T": T,
        "cadence": cadence, "seed": seed, "loss": prob_spec["loss"],
        "sampled_steps": len(common), "muon_side_wins": wins,
        "win_fraction": wins / len(common) if common else None,
        "final_f": {name: art.summary.final_f for name, art in artifacts.items()},
        "best_eta": {name: art.best_eta for name, art in artifacts.items()},
    }
    if out_dir:
        emit_summary(summary, os.path.join(out_dir, "fig3_summary.json"))
    return artifacts, summary


def quadratic_check_run(seed: int = 0, T: int = 500,
                        schedule_kind: str = "adaptive_Lstar",
                        eta: Optional[float] = None, want_J: bool = True):
    """Cadence-1 momentum-free Muon run on a random quadratic, for bound checks.

    The quadratic is build_problem's default: 15x20, cond 1e4, two-cluster
    spectrum, half-scaled, with an optimum drawn per seed on [-50, 50].
    With schedule_kind='constant' and no explicit eta, the stepsize follows
    the epsilon/(C*D) prescription with epsilon set to 1% of the initial gap
    and D the initial operator distance.
    """
    prob_spec = {"kind": "quadratic", "seed": 0, "seed_mode": "per_run"}
    problem = build_problem(prob_spec, run_seed=seed)
    W0 = np.zeros(problem.shape)
    if schedule_kind == "constant" and eta is None:
        delta = problem.value(W0)
        d_hat = distance_metrics(W0, problem.metadata["W_star"])[1]
        eta = min(0.01 * delta / (problem.metadata["L_star"] * d_hat), d_hat)
    sched_spec = {"kind": schedule_kind}
    if eta is not None:
        sched_spec["eta"] = float(eta)
    config = ExperimentConfig(
        problem=prob_spec, optimizer={"kind": "simplified_muon"},
        schedule=sched_spec, T=T, cadence=1, want_J=want_J, seeds=(seed,))
    artifact = run_experiment(config, seed)
    return artifact.records, problem


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _quadratic_run(schedule_kind: str):
    """verify input: the cadence-1 quadratic run whose records the check reads."""
    return lambda a: (quadratic_check_run(seed=a.seed, T=a.iters,
                                          schedule_kind=schedule_kind), {})


def _nonconvex_run(a):
    """verify input: an 8x10 quadratic and the settings of the stochastic runs."""
    problem = build_problem({"kind": "quadratic", "m": 8, "n": 10, "cond": 100.0,
                             "decay": "two_cluster", "seed": a.seed}, run_seed=a.seed)
    return (problem,), {"T": min(a.iters, 300), "beta": a.beta, "sigma": a.sigma,
                        "batch": a.batch, "runs": max(20, a.trials) if a.sigma > 0 else 1,
                        "seed": a.seed}


# verify --check name -> (run, check, which): run(args) gives the check's
# positional and keyword arguments, and which selects the bound's variant
VERIFY_CHECKS = {
    "norm-lemmas": (lambda a: ((a.instances,), {"seed": a.seed}),
                    verify.check_norm_lemmas, None),
    "momentum-error": (lambda a: ((), {"sigma": a.sigma, "batch": a.batch, "beta": a.beta,
                                       "T": min(a.iters, 200), "trials": a.trials,
                                       "seed": a.seed}),
                       verify.check_momentum_error_lemma, None),
    "taylor": (_quadratic_run("constant"), verify.check_quadratic_taylor_identity, None),
    "descent-rL": (_quadratic_run("constant"), verify.check_descent_inequalities, "rL"),
    "descent-Lstar": (_quadratic_run("constant"), verify.check_descent_inequalities, "Lstar"),
    "adaptive-rL": (_quadratic_run("adaptive_rL"), verify.check_adaptive_rate_bound, "rL"),
    "adaptive-Lstar": (_quadratic_run("adaptive_Lstar"), verify.check_adaptive_rate_bound,
                       "Lstar"),
    "constant-rL": (_quadratic_run("constant"), verify.check_constant_step_linear_bound, "rL"),
    "constant-Lstar": (_quadratic_run("constant"), verify.check_constant_step_linear_bound,
                       "Lstar"),
    "constant-J": (_quadratic_run("constant"), verify.check_constant_step_linear_bound, "J"),
    "rate-J": (_quadratic_run("constant"), verify.check_nonconvex_J_bound, None),
    "nonconvex-rL": (_nonconvex_run, verify.check_nonconvex_rate_bound, "rL"),
    "nonconvex-Lstar": (_nonconvex_run, verify.check_nonconvex_rate_bound, "Lstar"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="muonlab",
        description="Matrix-optimizer experiments, diagnostics and bound checks")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="execute a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out")
    p_run.add_argument("--iters", type=int)
    p_run.add_argument("--optimizer")
    p_run.add_argument("--lr", type=float)
    p_run.add_argument("--beta", type=float)

    p_ratio = sub.add_parser("ratio-study", help="comparison-ratio distribution")
    p_ratio.add_argument("--m", type=int, default=15)
    p_ratio.add_argument("--n", type=int, default=20)
    p_ratio.add_argument("--samples", type=int, default=1000)
    p_ratio.add_argument("--cond", type=float, default=1e4)
    p_ratio.add_argument("--decay", default="two_cluster")
    p_ratio.add_argument("--seed", type=int, default=0)
    p_ratio.add_argument("--out")

    p_fig2 = sub.add_parser("fig2", help="tuned optimizer comparison on linear MSE")
    p_fig2.add_argument("--kind", choices=("lowrank", "gaussian"), default="lowrank")
    p_fig2.add_argument("--classes", type=int, default=100)
    p_fig2.add_argument("--seed", type=int, default=0)
    p_fig2.add_argument("--iters", type=int, default=400)
    p_fig2.add_argument("--paper-dims", action="store_true")
    p_fig2.add_argument("--out")

    p_fig3 = sub.add_parser("fig3", help="MLP curvature diagnostics")
    p_fig3.add_argument("--seed", type=int, default=0)
    p_fig3.add_argument("--iters", type=int, default=200)
    p_fig3.add_argument("--cadence", type=int, default=10)
    p_fig3.add_argument("--paper-dims", action="store_true",
                        help="use the 784-input 128/64/10 network instead of the desk 8/6/4")
    p_fig3.add_argument("--out")

    p_spec = sub.add_parser("spectra", help="singular values of a feature matrix")
    p_spec.add_argument("--csv", help="load the matrix from a CSV file")
    p_spec.add_argument("--kind", choices=("gaussian", "lowrank"))
    p_spec.add_argument("--d", type=int, default=784)
    p_spec.add_argument("--B", type=int, default=1000)
    p_spec.add_argument("--ratio", type=float, default=1.41)
    p_spec.add_argument("--seed", type=int, default=0)
    p_spec.add_argument("--out")

    p_ver = sub.add_parser("verify", help="run a bound or inequality check")
    p_ver.add_argument("--check", required=True, choices=tuple(VERIFY_CHECKS))
    p_ver.add_argument("--instances", type=int, default=1000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--iters", type=int, default=500)
    p_ver.add_argument("--sigma", type=float, default=1.0)
    p_ver.add_argument("--batch", type=int, default=1)
    p_ver.add_argument("--beta", type=float, default=0.9)
    p_ver.add_argument("--trials", type=int, default=200)
    p_ver.add_argument("--out")
    return parser


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    optimizer = dict(config.optimizer)
    if args.optimizer:
        optimizer["kind"] = args.optimizer
    if args.beta is not None:
        optimizer["beta"] = args.beta
    changes = {"optimizer": optimizer}
    if args.out:
        changes["out_dir"] = args.out
    if args.iters is not None:
        changes["T"] = args.iters
    if args.lr is not None:
        changes.update(schedule={"kind": "constant", "eta": args.lr}, lr_grid=None)
    # one replace, so __post_init__ checks the overridden values too
    config = replace(config, **changes)
    seeds = (args.seed,) if args.seed is not None else config.seeds
    for seed in seeds:
        artifact = run_experiment(config, seed)
        print(f"seed {seed}: final f = {artifact.summary.final_f:.6g}"
              + (" (diverged)" if artifact.truncated else ""))
    return 0


def _cmd_verify(args) -> int:
    run, check, which = VERIFY_CHECKS[args.check]
    positional, keywords = run(args)
    if which is not None:
        keywords["which"] = which
    report = check(*positional, **keywords)
    if args.out:
        problems.write_atomic(args.out, report.to_json())
    else:
        print(report.to_json(), end="")
    print(f"{report.name}: {'PASS' if report.passed else 'FAIL'} "
          f"({len(report.violations)} violations / {report.instances} instances)")
    return 0 if report.passed else 1


def _cmd_spectra(args) -> int:
    if args.csv:
        A = problems.load_features_csv(args.csv)
    elif args.kind == "gaussian":
        A = problems.gaussian_features(args.d, args.B, seed=args.seed)
    elif args.kind == "lowrank":
        A = problems.lowrank_features(args.d, args.B, args.ratio, seed=args.seed)
    else:
        print("error: pass --csv or --kind", file=sys.stderr)
        return 2
    sv = spectrum(A)
    ratio = float(np.sum(sv ** 2) / sv[0] ** 2)
    if args.out:
        emit_spectrum_csv(sv, args.out)
    print(f"top singular value {sv[0]:.6g}, concentration ratio {ratio:.4f}")
    return 0


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    created = []
    token = problems.new_files.set(created)
    try:
        if args.cmd == "run":
            return _cmd_run(args)
        if args.cmd == "ratio-study":
            _, summary = ratio_study(m=args.m, n=args.n, samples=args.samples,
                                     cond=args.cond, decay=args.decay,
                                     seed=args.seed, out_dir=args.out)
            print(f"median ratio {summary['ratio_median']:.4f} over {args.samples} samples")
            return 0
        if args.cmd == "fig2":
            _, summary = figure2_suite(kind=args.kind, c=args.classes,
                                       seed=args.seed, T=args.iters,
                                       paper_dims=args.paper_dims, out_dir=args.out)
            print(f"comparison ratio {summary['comparison_ratio']:.4f}; "
                  f"final losses {summary['final_f']}")
            return 0
        if args.cmd == "fig3":
            mlp_kw = ({"input_dim": 784, "dims": (128, 64, 10)}
                      if args.paper_dims else {})
            _, summary = figure3_suite(seed=args.seed, T=args.iters,
                                       cadence=args.cadence, out_dir=args.out,
                                       **mlp_kw)
            print(f"Muon side wins at {summary['muon_side_wins']} of "
                  f"{summary['sampled_steps']} sampled steps")
            return 0
        if args.cmd == "spectra":
            return _cmd_spectra(args)
        if args.cmd == "verify":
            return _cmd_verify(args)
        raise AssertionError("unreachable")
    except BaseException as exc:
        # a failed command leaves none of the files it created
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        if not isinstance(exc, (OSError, ValueError, RuntimeError, AssertionError)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        # validate_record raises AssertionError when a run breaks a checked bound
        return 1 if isinstance(exc, AssertionError) else 2
    finally:
        problems.new_files.reset(token)


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
