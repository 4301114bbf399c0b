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
import copy
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
                          StepRecord, comparison_ratio, distance_metrics, hat_j_t,
                          j_t, l_t, ratio_condition, validate_record, weighted_j_tilde)
from .problems import Problem, f_star

CSV_COLUMNS = ("t", "f", "grad_F", "grad_nuc", "eta", "J_t", "L_t", "hatJ_t",
               "distF", "distOp", "ratio_lhs", "ratio_rhs", "flags")

DIVERGENCE_FACTOR = 1e6

# Points whose distances to W* are factorized by one stacked SVD: recorded
# rows in _diagnostic_run, samples in ratio_study.
DISTANCE_BLOCK = 100

# Fewest entries per matrix for which a grid scan splits its rows over the
# cores.  9-point stacked quadratic Muon grids (T=300, 2 cores) took 0.75-0.90 s
# unsplit and 0.48-0.51 s split at 32x64, but gained within the noise at 15x20
# (README.md, "Grid rows on several threads").
SPLIT_MIN_ENTRIES = 32 * 64


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
    "problem": ("quadratic", {kind: {"seed": int, **keys} for kind, keys in (
        ("quadratic", {"seed_mode": ("fixed", "per_run"), "m": int, "n": int, "cond": float,
                       "decay": ("two_cluster", "geometric"), "half": bool,
                       "wstar_scale": float, "wstar": ("uniform", "gaussian")}),
        ("linear_mse", {"d": int, "B": int, "c": int, "features": ("gaussian", "lowrank", "csv"),
                        "target_ratio": float, "path": str, "skip_header": bool}),
        ("mlp", {"input_dim": int, "dims": [int], "B": int, "loss": ("softmax_ce", "mse"),
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


# config key (section.key) or subcommand flag (--name) -> [(test, what the value must
# do)], for every number a user types whose type alone lets through values that would
# fail late or silently.  _typed applies them in turn, before any problem is built.
_RANGE_RULES = (
    ("problem.seed run.seeds --seed --sigma", (lambda v: v >= 0, "be at least 0")),
    # W* draws scale * U(-1, 1) or scale * N(0, 1): both stay finite up to here
    ("problem.wstar_scale", (lambda v: 0 <= v <= 1e300, "lie in [0, 1e300]")),
    ("problem.n problem.d problem.B problem.c problem.input_dim problem.dims problem.target_ratio"
     " run.T run.cadence --iters --cadence --classes --m --n --samples --d --B --ratio"
     " --instances --batch", (lambda v: v >= 1, "be at least 1")),
    ("problem.m", (lambda v: v >= 2, "be at least 2")),
    ("--trials", (lambda v: v >= 50, "be at least 50")),
    ("optimizer.ns_steps", (lambda v: v >= 0, "be >= 0")),
    ("problem.cond --cond", (lambda v: v > 1, "exceed 1")),
    ("optimizer.eps run.lr_grid --lr schedule.eta schedule.L schedule.L_star schedule.J",
     (lambda v: v > 0, "be positive")),
    ("optimizer.beta optimizer.beta1 optimizer.beta2 schedule.beta --beta",
     (lambda v: 0 <= v < 1, "lie in [0, 1)")),
    # sizes: then no m x m, d x d or B x B matrix a build makes exceeds 2^24 entries
    ("problem.m problem.n problem.d problem.B problem.c problem.input_dim problem.dims"
     " --classes --m --n --d --B", (lambda v: v <= 4096, "be at most 4096")),
)
_RANGES = {key: [rule for keys, rule in _RANGE_RULES if key in keys.split()]
           for keys, _ in _RANGE_RULES for key in keys.split()}

_TYPE_NAMES = {int: "a whole number", float: "a number", bool: "true or false", str: "text"}


def _typed(key: str, value, cast):
    """The value of config key (section.key) or flag (--name) as cast: int takes a
    whole number, float a finite number, bool true or false, str text, a tuple of
    words one of them, and [cast] one or more (one value is a list of one), each
    within the key's _RANGES rules.  Else it raises ValueError naming the key.  The
    ranges are tested first, so nan is refused with the range it misses."""
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
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key} takes {_TYPE_NAMES[cast]}, got {value!r}") from None
    for test, what in _RANGES.get(key, ()):
        if not test(typed):
            raise ValueError(f"{key} must {what}, got {value!r}")
    if cast is float and not np.isfinite(typed):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return typed


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
        set_on = {}  # (section, key) -> line that set it
        # a key set twice is reported after every value has been read, so a
        # bad value keeps its own message
        repeated = None
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = _config_line(lineno, raw)
            if line is None:
                continue
            section, key, value = line
            if section not in sections:
                raise ValueError(f"config line {lineno}: unknown section {section!r}")
            if section == "run" and key not in RUN_KEYS:
                raise ValueError(f"config line {lineno}: unknown key 'run.{key}'")
            first = set_on.setdefault((section, key), lineno)
            if first != lineno and repeated is None:
                repeated = f"config line {lineno}: '{section}.{key}' is already set on line {first}"
            sections[section][key] = value
        for section, spec in sections.items():
            kind, sections[section] = _read_section(section, spec, _parsed)
            if "kind" in spec:
                sections[section]["kind"] = kind
        if repeated is not None:
            raise ValueError(repeated)
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

    problem.seed is the data seed; a quadratic with seed_mode = per_run mixes
    in the run seed, so every run draws its own instance (used for the
    optimum resampling studies).
    """
    kind, spec = _read_section("problem", spec)
    get = spec.get
    base_seed = get("seed", 0)
    if kind == "quadratic":
        per_run = get("seed_mode", "fixed") == "per_run"
        eff = np.random.default_rng([base_seed, run_seed] if per_run else [base_seed])
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
            X = _lowrank_features(("problem.target_ratio", "problem.d", "problem.B"),
                                  d, B, get("target_ratio", 1.41), base_seed)
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
    train_layer = get("train_layer")
    if train_layer is not None and not 0 <= train_layer < len(dims):
        raise ValueError(f"problem.train_layer must lie in [0, len(problem.dims) - 1] = "
                         f"[0, {len(dims) - 1}], got {train_layer!r}")
    if get("data", "lowrank") == "lowrank":
        X = _lowrank_features(("problem.target_ratio", "problem.input_dim", "problem.B"),
                              input_dim, B, get("target_ratio", 2.0), base_seed)
        X = X * (np.sqrt(B) / matcore.frobenius_norm(X))
    else:
        X = problems.gaussian_features(input_dim, B, seed=base_seed) / np.sqrt(input_dim)
    Y = problems.onehot_labels(dims[-1], B, seed=base_seed + 1)
    shapes = []
    prev = input_dim
    for width in dims:
        shapes.append((width, prev))
        prev = width
    return problems.mlp_new(shapes, X, Y, loss=get("loss", "softmax_ce"), seed=base_seed + 2,
                            train_layer=train_layer)


def _lowrank_features(names: tuple, rows: int, B: int, ratio: float, seed: int):
    """lowrank_features(rows, B, ratio), refusing a ratio above min(rows, B)
    in the words the user typed: names are those of ratio, rows and B."""
    if ratio > min(rows, B):
        raise ValueError("{} must be at most min({}, {}) = {}, got {!r}".format(
            *names, min(rows, B), ratio))
    return problems.lowrank_features(rows, B, ratio, seed=seed)


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

    def keep(self, rows) -> "_OptRun":
        """A run of the given runs of a stacked state, on views of it for a slice."""
        part = copy.copy(self)
        if self.state is not None:
            part.state = replace(self.state, **{name: value[rows] for name, value
                                                in vars(self.state).items()
                                                if isinstance(value, np.ndarray)})
        return part


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
        """Record the constants in resolved, once each is found positive and finite."""
        for key, value in constants.items():
            if not 0 < value < np.inf:
                raise ValueError(
                    f"schedule constant {key!r} must be positive and finite, got {value}")
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
        raise ValueError("run.w0 = init needs a problem that stores its initialization")
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


class _GridRows:
    """Grid points in lockstep: row j of the (k, m, n) stack W is grid point
    live[j], stepped at eta[j] by opt.  One oracle call evaluates the stack,
    the optimizer steps the stack at once (one stacked factorization per Muon
    step), and a row whose loss trips the divergence guard leaves the stack."""

    def __init__(self, opt_spec: dict, W0: np.ndarray, etas: Sequence[float], live: range):
        self.opt, self.W = _OptRun(opt_spec), np.repeat(W0[None], len(live), axis=0)
        self.eta = np.array([etas[i] for i in live], dtype=np.float64).reshape(-1, 1, 1)
        self.live = list(live)

    def step(self, problem: Problem, in_bounds) -> None:
        """Evaluate every row, drop those whose loss is not in_bounds, step the rest."""
        values, G = problem.value_grad(self.W)
        rows = [j for j, f in enumerate(values) if in_bounds(f)]
        if len(rows) < len(self.live):
            self.live = [self.live[j] for j in rows]
            self.W, G, self.eta = self.W[rows], G[rows], self.eta[rows]
            self.opt = self.opt.keep(rows)
        if rows:
            self.opt.step(self.W, G, self.eta, out=self.W)

    def run(self, problem: Problem, in_bounds, steps: int, results: list) -> None:
        """Take steps steps, then write each row's final loss that is in_bounds to
        results at its grid index."""
        for _ in range(steps):
            self.step(problem, in_bounds)
            if not self.live:
                return
        for f, idx in zip(problem.value(self.W), self.live):
            if in_bounds(f):
                results[idx] = (float(f), False)


def _first_step_keeps_bits_on_one_thread(problem: Problem, opt_spec: dict, eta: float,
                                         W0: np.ndarray) -> bool:
    """True when the first step from W0 at eta gives the same loss, gradient,
    new iterate and direction, bit for bit, with every BLAS call on one thread
    (inside matcore.one_blas_thread) as on the process's thread count.  Each
    way calls the oracle and then steps a fresh optimizer."""
    def first_step():
        f, G = problem.value_grad(W0)
        return (f, G) + _OptRun(opt_spec).step(W0, G, eta)

    plain = first_step()
    with matcore.one_blas_thread():
        one = first_step()
    return all(np.array_equal(a, b) for a, b in zip(plain, one))


def _run_jobs(jobs: list, cores: int, submit=None) -> list:
    """[job() for job in jobs], in job order.  With one job or one core the caller
    runs them in turn; else min(cores, len(jobs)) workers, the calling thread and
    helper threads, take jobs from one queue: worker i starts job i (the caller
    job 0), and each worker that ends a job takes the next one left in list
    order.  The caller runs its jobs itself; the helpers run theirs inside one
    matcore.one_blas_thread() scope or, given submit (a process pool's), each as
    submit(job).result() with no scope, since a spawned process keeps its own
    thread count.  An exception in any job reaches the caller; no worker takes a
    job once one has failed, and no helper thread outlives the call."""
    workers = min(cores, len(jobs))
    if workers < 2:
        return [job() for job in jobs]
    results, failed = [None] * len(jobs), []
    pending = iter(enumerate(jobs))
    firsts = [next(pending) for _ in range(workers)]

    def work(item, via=None):
        while item is not None and not failed:
            try:
                results[item[0]] = via(item[1]).result() if via else item[1]()
            except BaseException:
                failed.append(True)
                raise
            item = next(pending, None)  # next() on a list iterator is atomic

    from concurrent.futures import ThreadPoolExecutor  # imported only to pool
    with (contextlib.nullcontext() if submit else matcore.one_blas_thread()), \
            ThreadPoolExecutor(workers - 1, thread_name_prefix="muonlab-rows") as pool:
        helpers = [pool.submit(work, item, submit) for item in firsts[1:]]
        work(firsts[0])
        for future in helpers:
            future.result()  # raises what a helper raised
    return results


def _scan_jobs(problem: Problem, opt_spec: dict, etas: Sequence[float], T: int,
               W0: np.ndarray, cores: int) -> tuple:
    """(results, jobs) of a grid scan: each job runs a block of rows from W0 as
    _GridRows and writes each point's (final_f, diverged) to results by index.
    There is one job unless cores >= 2, there are two or more points, each
    matrix has at least SPLIT_MIN_ENTRIES entries and a probe passes
    (_first_step_keeps_bits_on_one_thread at etas[0]); then up to `cores`
    contiguous blocks, to run inside matcore.one_blas_thread() as _run_jobs
    does.  Bit invariance on one thread depends on the shapes and the BLAS
    build, not on the kind of problem or optimizer, so the probe decides."""
    results = [(float("inf"), True)] * len(etas)
    in_bounds = _divergence_guard(problem.value(W0))
    parts = (min(cores, len(etas)) if cores >= 2 and len(etas) >= 2
             and W0.size >= SPLIT_MIN_ENTRIES
             and _first_step_keeps_bits_on_one_thread(problem, opt_spec, etas[0], W0) else 1)
    edges = [len(etas) * p // parts for p in range(parts + 1)]
    return results, [lambda live=range(a, b): _GridRows(opt_spec, W0, etas, live).run(
        problem, in_bounds, T, results) for a, b in zip(edges, edges[1:])]


def _grid_scan(problem: Problem, opt_spec: dict, etas: Sequence[float], T: int,
               W0: np.ndarray, cores: int = 1) -> list:
    """Final loss of a diagnostics-free run at every stepsize in etas: [(final_f,
    diverged), ...] in grid order, (inf, True) for a diverged point, each bit for
    bit a separate run's.  See _scan_jobs for cores."""
    results, jobs = _scan_jobs(problem, opt_spec, etas, T, W0, cores)
    _run_jobs(jobs, cores)
    return results


def _best_point(etas: Sequence[float], results: list):
    """(final_f, eta) of the first grid point with the lowest final loss
    among those that did not diverge; (inf, None) when all diverged."""
    best = (float("inf"), None)
    for eta, (fT, diverged) in zip(etas, results):
        if not diverged and fT < best[0]:
            best = (fT, eta)
    return best


def _fill_distances(pending: list, W_star: np.ndarray) -> None:
    """Set dist_F and dist_op of each (record, iterate) pair in pending with one
    stacked distance_metrics call, then empty pending."""
    d_f, d_op = distance_metrics(np.stack([W for _, W in pending]), W_star)
    for (rec, _), f, op in zip(pending, d_f.tolist(), d_op.tolist()):
        rec.dist_F, rec.dist_op = f, op
    pending.clear()


def _diagnostic_run(problem: Problem, config: ExperimentConfig, schedule,
                    W0: np.ndarray, seed: int):
    """The recorded run from W0, calling the oracle once per iterate."""
    opt = _OptRun(config.optimizer)
    adaptive = schedule.divisor is not None
    W = W0.copy()
    f, G = problem.value_grad(W)
    in_bounds = _divergence_guard(f)
    W_star = problem.metadata.get("W_star")
    r = min(problem.shape)
    records = []
    # recorded rows awaiting their distances; every step makes a new W, so
    # holding a reference keeps that iterate
    pending = []
    truncated = False
    ckpt_t = config.cadence * ((config.T // 2) // config.cadence) if config.checkpoint else None
    ckpt_W = None
    t = 0
    while t < config.T:
        if not in_bounds(f):
            truncated = True
            break
        recording = (t % config.cadence == 0)
        need_norms = recording or adaptive
        grad_nuc = matcore.nuclear_norm(G) if need_norms else None
        eta = optim.next_eta(schedule, grad_nuc=grad_nuc)
        if ckpt_t is not None and t == ckpt_t:
            ckpt_W = W.copy()
        W_next, O = opt.step(W, G, eta)
        f_next, G_next = problem.value_grad(W_next)
        if recording:
            grad_F = matcore.frobenius_norm(G)
            rec = StepRecord(t=t, f=float(f), grad_F=grad_F, grad_nuc=grad_nuc,
                             eta=float(eta))
            flags = []
            dir_sq = None
            if config.want_J or config.want_hatJ:
                O_diag = O if O is not None else optim.orthogonalize(G)
                # j_t and hat_j_t give 0.0 for a zero direction or difference
                rec.J_t = j_t(problem, W, O_diag)
                dir_sq = float(np.sum(O_diag * O_diag))
                zero = not np.any(O_diag)
                if config.want_hatJ:
                    rec.hatJ_t = hat_j_t(problem, W, O_diag, G, G_next)
                    zero = zero or not np.any(G - G_next)
                if zero:
                    flags.append(FLAG_ZERO_DIRECTION)
            if config.want_L:
                val, conv = l_t(problem, W, seed=seed * 1000003 + t)
                rec.L_t = float(val)
                if not conv:
                    flags.append(FLAG_POWER_FALLBACK)
            if rec.J_t is not None and rec.L_t is not None:
                rec.ratio_lhs, rec.ratio_rhs = ratio_condition(rec.J_t, rec.L_t,
                                                               grad_F, grad_nuc)
            if problem.kink_margin is not None and (config.want_J or config.want_L):
                if problem.kink_margin(W) < 1e-7:
                    flags.append(FLAG_FD_KINK)
            if W_star is not None:
                pending.append((rec, W))
                if len(pending) == DISTANCE_BLOCK:
                    _fill_distances(pending, W_star)
            if not validate_record(rec, r, dir_sq, strict=problem.hvp_exact):
                flags.append(FLAG_RAYLEIGH)
            rec.flags = ";".join(flags)
            records.append(rec)
        W, f, G = W_next, f_next, G_next
        t += 1
    # terminal row: state after the last completed step (or at truncation)
    rec = StepRecord(t=t, f=float(f), grad_F=matcore.frobenius_norm(G),
                     grad_nuc=float(np.sum(matcore.svd(G))))
    if W_star is not None:
        pending.append((rec, W))
        _fill_distances(pending, W_star)
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
        summary.J_mean = float(np.mean(j_vals))
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


def run_experiment(config: ExperimentConfig, seed: Optional[int] = None, *,
                   problem: Optional[Problem] = None,
                   scanned: Optional[list] = None) -> RunArtifact:
    """Execute one seeded run: optional stepsize tuning, then the recorded run.

    The tuning scan (run.lr_grid; _grid_scan may run its row blocks on threads)
    never selects a diverged point and keeps all grid results in the artifact;
    the recorded run follows on the calling thread.  problem, when given, is
    build_problem(config.problem, seed) built earlier: runs never write to it.
    scanned, when given, is the grid's [(final_f, diverged), ...] from a scan
    made earlier (a study scans every grid before its first run, see
    _tuned_runs), taken in place of the scan.
    """
    if seed is None:
        seed = config.seeds[0]
    if problem is None:
        problem = build_problem(config.problem, run_seed=seed)
    W0 = _initial_w(config, problem, seed)
    grid_results = None
    best_eta = None
    if config.lr_grid:
        # the grid replaces the schedule, whose keys must still be ones it reads
        _read_section("schedule", config.schedule)
        results = scanned if scanned is not None else _grid_scan(
            problem, config.optimizer, config.lr_grid, config.T, W0,
            cores=len(os.sched_getaffinity(0)))
        grid_results = [{"eta": float(eta), "final_f": None if diverged else fT,
                         "diverged": diverged}
                        for eta, (fT, diverged) in zip(config.lr_grid, results)]
        best = _best_point(config.lr_grid, results)
        if best[1] is None:
            raise RuntimeError(f"every stepsize in run.lr_grid = {_format_value(config.lr_grid)} diverged")
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


def default_grid(opt_kind: str, problem: Optional[Problem]) -> tuple:
    """Nine-point logarithmic stepsize grid spanning four decades.

    Gradient-descent grids are centered at 1/L when the smoothness constant
    is known; Muon-family and Adam grids are absolute and read no problem.
    """
    if opt_kind in ("gd", "gd_nesterov"):
        # dividing by 1.0 keeps every bit of the absolute grid
        return tuple(np.logspace(-2, 2, 9) / (problem.metadata.get("L") or 1.0))
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
    meta = problems.quadratic_new(Q, np.zeros((m, n))).metadata
    rows = []
    for start in range(0, samples, DISTANCE_BLOCK):
        block = range(start, min(start + DISTANCE_BLOCK, samples))
        W_stars = np.stack([np.random.default_rng([seed, k]).uniform(-50.0, 50.0, size=(m, n))
                            for k in block])
        # the displacements W0 - W* (W0 = 0) measured from 0: subtracting 0
        # keeps every bit of them
        d_fs, d_ops = distance_metrics(0.0 - W_stars, np.zeros((m, n)))
        for k, d_f, d_op in zip(block, d_fs.tolist(), d_ops.tolist()):
            rows.append((k, d_f, d_op, comparison_ratio(d_f, d_op, meta["L"], meta["L_star"])))
    ratios = np.array([r[3] for r in rows])
    summary = {
        "m": m, "n": n, "samples": samples, "cond": cond, "decay": decay,
        "seed": seed, "L": meta["L"], "L_star": meta["L_star"],
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


def _fan_out(fn, jobs: list) -> list:
    """[fn(job) for job in jobs] on min(usable cores, len(jobs)) processes, the caller's included.

    The caller runs job 0 while each other process, from the spawn context,
    runs the job a dispatch thread of _run_jobs hands it; a process that ends a
    job takes the next one no one has started from the one queue, held in the
    calling process, so a slower core runs fewer.  fn must be importable by
    name, and a calling script needs an ``if __name__ == "__main__":`` guard.
    Results come back in job order, an exception in any job reaches the caller,
    and no process outlives the call.  With one core to use, nothing is started.
    """
    calls = [functools.partial(fn, job) for job in jobs]
    workers = min(len(os.sched_getaffinity(0)), len(jobs))
    if workers < 2:
        return [call() for call in calls]
    # imported here, so a call that starts no process skips its ~15 ms import
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers - 1,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        return _run_jobs(calls, workers, pool.submit)


def _figure1_block(job: tuple, T: int, m: int, n: int, cond: float) -> tuple:
    """figure1_study's work on job = (seed, etas, with_gd), a block of one seed's
    Muon grid: the block's _grid_scan results, and GD's (1/L, final loss) or None."""
    seed, etas, with_gd = job
    problem = build_problem({"kind": "quadratic", "m": m, "n": n, "cond": cond,
                             "decay": "two_cluster", "seed": 0, "seed_mode": "per_run"},
                            run_seed=seed)
    W0 = np.zeros((m, n))
    # cores=1: the fan-out's processes already fill the cores
    results = _grid_scan(problem, {"kind": "muon", "beta": 0.9}, etas, T, W0, cores=1)
    if not with_gd:
        return results, None
    eta_gd = 1.0 / problem.metadata["L"]
    return results, (eta_gd, _grid_scan(problem, {"kind": "gd"}, (eta_gd,), T, W0)[0][0])


def _figure1_join(seed: int, grid: tuple, parts: list) -> dict:
    """figure1_study's row for one seed from its blocks' parts, in grid order."""
    best_f, best_eta = _best_point(grid, [point for results, _ in parts for point in results])
    eta_gd, f_gd = parts[-1][1]
    return {"seed": seed, "muon_final_f": best_f, "muon_eta": best_eta,
            "gd_final_f": f_gd, "gd_eta": eta_gd}


def figure1_study(seeds: Sequence[int], T: int = 4000, m: int = 15, n: int = 20,
                  cond: float = 1e4, out_dir: Optional[str] = None):
    """Tuned Muon against fixed-stepsize GD (eta = 1/L) on ill-conditioned quadratics.

    Every seed draws its own optimum of a two-cluster quadratic; Muon (beta
    0.9) picks its stepsize from the default grid by final loss, GD uses the
    prescribed 1/L.  Returns per-seed final losses.

    The work is spread over the usable cores, the caller's and spawned
    processes', from one job queue (see _fan_out); with fewer seeds than cores,
    each seed's grid is cut into row blocks, the last also running GD, and
    joined in grid order, so the summary is byte for byte a serial run's.  fig2
    and fig3 run in one process, on threads (see _tuned_runs): processes would
    compete for the cores (README, "Seeds on several cores").
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("figure1_study needs at least one seed")
    grid = default_grid("muon", None)
    per_seed = max(1, min(len(grid), len(os.sched_getaffinity(0)) // len(seeds)))
    blocks = [tuple(etas) for etas in np.array_split(grid, per_seed)]
    parts = _fan_out(functools.partial(_figure1_block, T=T, m=m, n=n, cond=cond),
                     [(seed, etas, b == per_seed - 1) for seed in seeds
                      for b, etas in enumerate(blocks)])
    results = [_figure1_join(seed, grid, parts[k * per_seed:(k + 1) * per_seed])
               for k, seed in enumerate(seeds)]
    wins = sum(1 for r in results if r["muon_final_f"] < r["gd_final_f"])
    summary = {"T": T, "m": m, "n": n, "cond": cond, "decay": "two_cluster",
               "seeds": seeds, "muon_wins": wins,
               "win_fraction": wins / len(results), "runs": results}
    if out_dir:
        emit_summary(summary, os.path.join(out_dir, "figure1_summary.json"))
    return summary


def _tuned_runs(prob_spec: dict, seed: int, opt_specs: dict, prefix: str, **run):
    """(problem, {name: artifact}): build the problem once, scan every optimizer's
    grid, then record each optimizer of opt_specs in turn, as run <prefix>_<name>
    with the other run.* settings, through run_experiment given its grid's results.
    The scan builds every grid's row blocks first (_scan_jobs, probe included); when
    each grid splits, one _run_jobs call runs all their blocks, the last optimizer's
    first, else each grid's blocks run alone, as _grid_scan does."""
    problem = build_problem(prob_spec, run_seed=seed)
    cores = len(os.sched_getaffinity(0))
    configs = {name: ExperimentConfig(
        problem=prob_spec, optimizer=spec, schedule={"kind": "constant", "eta": 1.0},
        seeds=(seed,), lr_grid=default_grid(name, problem), name=f"{prefix}_{name}", **run)
        for name, spec in opt_specs.items()}
    scans = {name: _scan_jobs(problem, c.optimizer, c.lr_grid, c.T,
                              _initial_w(c, problem, seed), cores)
             for name, c in configs.items()}
    grids = [jobs for _, jobs in scans.values()]
    if all(len(jobs) > 1 for jobs in grids):
        # the studies list the Muon family last, and its blocks cost the most:
        # queued first, they leave the cheap blocks to fill the end
        grids = [[job for jobs in reversed(grids) for job in jobs]]
    for jobs in grids:
        _run_jobs(jobs, cores)
    return problem, {name: run_experiment(config, seed, problem=problem,
                                          scanned=scans[name][0])
                     for name, config in configs.items()}


def figure2_suite(kind: str = "lowrank", c: int = 100, seed: int = 0,
                  d: int = 196, B: int = 400, T: int = 400,
                  out_dir: Optional[str] = None):
    """Four tuned optimizers on the linear classification MSE.

    kind selects the feature matrix: 'lowrank' targets the concentrated
    spectrum (ratio 1.41), 'gaussian' the flat one.  The comparison ratio is
    computed against the best tuned final iterate taken as the optimum.
    Returns (artifacts, summary).
    """
    if kind not in ("lowrank", "gaussian"):
        raise ValueError("kind must be lowrank or gaussian")
    prob_spec = {"kind": "linear_mse", "features": kind, "d": d, "B": B,
                 "c": c, "seed": seed}
    if kind == "lowrank":
        prob_spec["target_ratio"] = 1.41
    opt_specs = {"gd": {"kind": "gd"}, "gd_nesterov": {"kind": "gd_nesterov", "mu": 0.9},
                 "adam": {"kind": "adam"}, "muon": {"kind": "muon", "beta": 0.9}}
    problem, artifacts = _tuned_runs(prob_spec, seed, opt_specs, f"fig2_{kind}_c{c}",
                                     T=T, cadence=max(1, T // 50), out_dir=out_dir)
    best_name = min(artifacts, key=lambda k: artifacts[k].summary.final_f)
    d_f, d_op = distance_metrics(np.zeros(problem.shape), artifacts[best_name].final_W)
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
    _, artifacts = _tuned_runs(
        prob_spec, seed, {"gd": {"kind": "gd"}, "muon": {"kind": "simplified_muon"}}, "fig3",
        T=T, cadence=cadence, want_J=True, want_L=True, out_dir=out_dir, w0="init",
        checkpoint=True)
    muon_side = {rec.t: rec.grad_nuc ** 2 / rec.J_t if rec.J_t > 0 else float("inf")
                 for rec in artifacts["muon"].records if rec.J_t is not None}
    gd_side = {rec.t: rec.grad_F ** 2 / rec.L_t
               for rec in artifacts["gd"].records if rec.L_t is not None and rec.L_t > 0}
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
    artifact = run_experiment(config, seed, problem=problem)
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
                        "batch": a.batch, "runs": a.trials if a.sigma > 0 else 1,
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


# the paper's sizes, which fig2 and fig3 take with --paper-dims
PAPER_DIMS = {"fig2": {"d": 784, "B": 1000},
              "fig3": {"input_dim": 784, "dims": (128, 64, 10)}}


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
    p_ratio.add_argument("--decay", choices=CONFIG_SCHEMA["problem"][1]["quadratic"]["decay"],
                         default="two_cluster")
    p_ratio.add_argument("--seed", type=int, default=0)
    p_ratio.add_argument("--out")

    p_fig2 = sub.add_parser("fig2", help="tuned optimizer comparison on linear MSE")
    p_fig2.add_argument("--kind", choices=("lowrank", "gaussian"), default="lowrank")
    p_fig2.add_argument("--classes", type=int, default=100)
    p_fig2.add_argument("--seed", type=int, default=0)
    p_fig2.add_argument("--iters", type=int, default=400)
    p_fig2.add_argument("--paper-dims", dest="sizes", action="store_const",
                        const=PAPER_DIMS["fig2"], default={})
    p_fig2.add_argument("--out")

    p_fig3 = sub.add_parser("fig3", help="MLP curvature diagnostics")
    p_fig3.add_argument("--seed", type=int, default=0)
    p_fig3.add_argument("--iters", type=int, default=200)
    p_fig3.add_argument("--cadence", type=int, default=10)
    p_fig3.add_argument("--paper-dims", dest="sizes", action="store_const",
                        const=PAPER_DIMS["fig3"], default={},
                        help="use the 784-input 128/64/10 network instead of the desk 8/6/4")
    p_fig3.add_argument("--out")

    p_spec = sub.add_parser("spectra", help="singular values of a feature matrix")
    source = p_spec.add_mutually_exclusive_group(required=True)
    source.add_argument("--csv", help="load the matrix from a CSV file")
    source.add_argument("--kind", choices=("gaussian", "lowrank"))
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
    if args.csv is not None:
        A = problems.load_features_csv(args.csv)
    elif args.kind == "gaussian":
        A = problems.gaussian_features(args.d, args.B, seed=args.seed)
    else:
        A = _lowrank_features(("--ratio", "--d", "--B"), args.d, args.B, args.ratio, args.seed)
    sv = matcore.svd(A)
    if sv[0] == 0.0:
        raise ValueError(f"{args.csv or 'the feature matrix'} is all zeros: "
                         "its concentration ratio is undefined")
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
        for dest, value in vars(args).items():  # each numeric flag, as argparse typed it
            if type(value) in (int, float):
                _typed(f"--{dest}", value, type(value))
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
                                       seed=args.seed, T=args.iters, out_dir=args.out,
                                       **args.sizes)
            print(f"comparison ratio {summary['comparison_ratio']:.4f}; "
                  f"final losses {summary['final_f']}")
            return 0
        if args.cmd == "fig3":
            _, summary = figure3_suite(seed=args.seed, T=args.iters,
                                       cadence=args.cadence, out_dir=args.out, **args.sizes)
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
