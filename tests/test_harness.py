import argparse
import ast
import concurrent.futures
import dataclasses
import functools
import json
import math
import multiprocessing
import os
import re
import sys
import tempfile
import threading
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from muonlab import diagnostics as dg
from muonlab import harness, matcore, optim, problems, verify


QUAD_SPEC = {"kind": "quadratic", "m": 6, "n": 8, "cond": 100.0,
             "decay": "two_cluster", "seed": 1}
MLP_SPEC = {"kind": "mlp", "input_dim": 6, "dims": (5, 4, 3), "B": 20}


def quad_config(**overrides):
    base = dict(problem=dict(QUAD_SPEC), optimizer={"kind": "gd"},
                schedule={"kind": "constant", "eta": 0.5}, T=50, cadence=1,
                seeds=(1,))
    base.update(overrides)
    return harness.ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def with_line(text, line):
    """Config text with line in place of any line that sets the same key."""
    key = line.split(" = ")[0]
    return "".join(kept for kept in text.splitlines(keepends=True)
                   if not kept.startswith(f"{key} = ")) + line + "\n"


def test_config_round_trip():
    config = quad_config(want_J=True, want_L=True, seeds=(1, 2, 3),
                         lr_grid=(0.1, 0.2), out_dir="runs/x", name="demo",
                         cadence=5, w0="zeros", checkpoint=True)
    text = config.to_text()
    again = harness.ExperimentConfig.from_text(text)
    assert again == config
    assert again.to_text() == text


_WORD = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
# text with commas, spaces, digits and "#"; a "#" after whitespace starts a
# comment, so to_text refuses such a value (see the test after this one)
_PATHLIKE = st.text("abcxyz0189,._-/ #", max_size=16).map(lambda p: f"data/{p}.csv").filter(
    lambda p: not re.search(r"\s#", p))
# text that would read as a number or a switch, were it not a text key's
_NUMBERLIKE = st.one_of(st.text("0123456789", min_size=1, max_size=6),
                        st.sampled_from(("true", "false")),
                        st.builds("{}e{}".format, st.integers(0, 99), st.integers(-9, 9)))
_TEXT = _WORD | _PATHLIKE | _NUMBERLIKE
_STEPSIZE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_WHOLE = st.integers(-10 ** 9, 10 ** 9)
_COUNT = st.integers(1, 10 ** 9)
_WIDTH = st.integers(1, 4096)  # a size key's range
_RATIO = st.floats(min_value=1.0, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(problem=st.one_of(
           st.fixed_dictionaries({"kind": st.just("linear_mse"),
                                  "features": st.sampled_from(("gaussian", "lowrank", "csv")),
                                  "path": _TEXT, "c": _WIDTH,
                                  "skip_header": st.booleans()}),
           st.fixed_dictionaries({"kind": st.just("mlp"),
                                  "loss": st.sampled_from(("softmax_ce", "mse")),
                                  "data": st.sampled_from(("lowrank", "gaussian")),
                                  "dims": st.lists(_WIDTH, min_size=1, max_size=4).map(tuple),
                                  "target_ratio": _RATIO}),
           st.fixed_dictionaries({"kind": st.just("quadratic"), "m": st.integers(2, 4096),
                                  "seed_mode": st.sampled_from(("fixed", "per_run")),
                                  "wstar": st.sampled_from(("uniform", "gaussian")),
                                  "cond": _RATIO.filter(lambda c: c > 1),
                                  "decay": st.sampled_from(("two_cluster", "geometric"))})),
       optimizer=st.fixed_dictionaries({"kind": st.just("muon"),
                                        "beta": st.floats(0.0, 1.0, exclude_max=True),
                                        "orthogonalizer": st.sampled_from(("svd", "ns"))}),
       eta=_STEPSIZE,
       run=st.fixed_dictionaries({
           "T": st.integers(1, 10 ** 9), "cadence": st.integers(1, 10 ** 9),
           "want_J": st.booleans(), "checkpoint": st.booleans(), "workers": _WHOLE,
           "seeds": st.lists(st.integers(0, 10 ** 9), min_size=1, max_size=4,
                             unique=True).map(tuple),
           "lr_grid": st.none() | st.lists(_STEPSIZE, min_size=1, max_size=4).map(tuple),
           "out_dir": st.none() | _TEXT, "name": _TEXT,
           "w0": st.sampled_from(("zeros", "gaussian", "init"))}))
def test_config_text_round_trip_property(problem, optimizer, eta, run):
    config = harness.ExperimentConfig(problem=problem, optimizer=optimizer,
                                      schedule={"kind": "constant", "eta": eta}, **run)
    text = config.to_text()
    again = harness.ExperimentConfig.from_text(text)
    assert again == config
    assert again.to_text() == text


@pytest.mark.parametrize("path", ["data/run#2.csv", "2024", "true", "1e5", "feat,v2.csv"])
def test_text_value_round_trips_as_text(path):
    config = quad_config(problem={"kind": "linear_mse", "features": "csv", "path": path})
    text = config.to_text()
    again = harness.ExperimentConfig.from_text(text)
    assert again == config and again.problem["path"] == path
    assert again.to_text() == text


@pytest.mark.parametrize("key,overrides", [
    ("problem.path", {"problem": {"kind": "linear_mse", "path": "a\nb.csv"}}),
    ("problem.path", {"problem": {"kind": "linear_mse", "path": " a.csv"}}),
    ("problem.path", {"problem": {"kind": "linear_mse", "path": "a.csv "}}),
    ("problem.path", {"problem": {"kind": "linear_mse", "path": "a #2.csv"}}),
    ("problem.path", {"problem": {"kind": "linear_mse", "path": "#2.csv"}}),
    ("run.name", {"name": "a\rb"}),
], ids=["newline", "leading-space", "trailing-space", "hash-after-space", "leading-hash",
        "carriage-return"])
def test_to_text_refuses_a_value_that_would_not_read_back(key, overrides):
    with pytest.raises(ValueError, match=f"^{key} = "):
        quad_config(**overrides).to_text()


@pytest.mark.parametrize("line,message", [
    ("problem.m = abc", "problem.m takes a whole number, got abc"),
    ("problem.mm = 5", "problem.mm is not read by problem kind 'quadratic'"),
    ("problem.seed_mode = per-run",
     "problem.seed_mode takes one of fixed, per_run, got 'per-run'"),
    ("optimizer.kind = lion", "unknown optimizer kind 'lion'"),
    ("run.w0 = zero", "run.w0 takes one of zeros, gaussian, init, got 'zero'"),
])
def test_from_text_reads_each_value_by_its_key(line, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        harness.ExperimentConfig.from_text(with_line(quad_config().to_text(), line))


def test_whole_number_for_a_float_key_snapshots_as_a_float():
    text = quad_config().to_text()
    assert "problem.cond = 100.0\n" in text
    config = harness.ExperimentConfig.from_text(text.replace("cond = 100.0", "cond = 100"))
    assert config == quad_config() and isinstance(config.problem["cond"], float)
    assert config.to_text() == text


def test_cli_run_feature_path_with_a_comma(tmp_path, capsys):
    path = tmp_path / "feat,v2.csv"
    problems.save_matrix_csv(np.random.default_rng(0).standard_normal((5, 9)), str(path))
    cfg_path = tmp_path / "csv.toml"
    spec = {"kind": "linear_mse", "features": "csv", "path": str(path), "c": 2}
    cfg_path.write_text(quad_config(problem=spec, T=3).to_text())
    assert harness.ExperimentConfig.from_file(cfg_path).problem["path"] == str(path)
    assert harness.cli_main(["run", "--config", str(cfg_path)]) == 0
    assert "final f" in capsys.readouterr().out


def test_schema_run_keys_are_the_run_fields():
    names = [f.name for f in dataclasses.fields(harness.ExperimentConfig)]
    assert names == ["problem", "optimizer", "schedule", *harness.RUN_KEYS]


def test_config_from_file(tmp_path):
    config = quad_config()
    path = tmp_path / "exp.toml"
    path.write_text(config.to_text())
    assert harness.ExperimentConfig.from_file(path) == config


def test_config_validation():
    with pytest.raises(ValueError):
        quad_config(T=0)
    with pytest.raises(ValueError):
        quad_config(cadence=0)
    with pytest.raises(ValueError):
        quad_config(seeds=(1, 1))
    with pytest.raises(ValueError):
        quad_config(w0="bogus")
    for grid, bad in (((0.1, -0.001), "-0.001"), ((0.0,), "0.0")):
        with pytest.raises(ValueError, match=f"^run.lr_grid must be positive, got {bad}$"):
            quad_config(lr_grid=grid)
    for key, value in (("T", 4.5), ("T", (1, 2)), ("cadence", 2.5), ("workers", 1.5),
                       ("want_J", "yes"), ("want_L", 1), ("want_hatJ", "no"),
                       ("checkpoint", "true"), ("seeds", (1.5, 2.5)), ("seeds", "a"),
                       ("lr_grid", ("a", 0.1)), ("lr_grid", True)):
        with pytest.raises(ValueError, match=f"^run.{key} takes "):
            quad_config(**{key: value})


@pytest.mark.parametrize("problem,line", [
    (QUAD_SPEC, "problem.seed_mode = per-run"),
    (QUAD_SPEC, "problem.wstar = gauss"),
    ({"kind": "linear_mse", "d": 8, "B": 12, "c": 3}, "problem.features = low_rank"),
    (MLP_SPEC, "problem.data = gaussain"),
    (QUAD_SPEC, "run.w0 = zero"),
    (QUAD_SPEC, "problem.decay = geometirc"),
    (MLP_SPEC, "problem.loss = mae"),
], ids=["seed_mode", "wstar", "features", "data", "w0", "decay", "loss"])
def test_cli_run_misspelt_word_exits_2(tmp_path, capsys, problem, line):
    cfg_path = tmp_path / "bad.toml"
    cfg_path.write_text(with_line(quad_config(problem=problem, T=5).to_text(), line))
    rc = harness.cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    key = line.split(" = ")[0]
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {key} takes one of ")
    assert [p.name for p in tmp_path.iterdir()] == ["bad.toml"]


@pytest.mark.parametrize("problem", [{"kind": "linear_mse", "d": 8, "B": 12, "c": 3}, MLP_SPEC],
                         ids=lambda problem: problem["kind"])
def test_cli_run_seed_mode_on_a_kind_that_never_reads_it_exits_2(tmp_path, capsys, no_work,
                                                                 problem):
    cfg_path = tmp_path / "bad.toml"
    text = quad_config(problem=problem, T=5).to_text()
    cfg_path.write_text(with_line(text, "problem.seed_mode = per_run"))
    rc = harness.cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    reads = ", ".join(("kind", *harness.CONFIG_SCHEMA["problem"][1][problem["kind"]]))
    assert "seed_mode" not in reads
    assert capsys.readouterr().err.splitlines() == [
        f"error: problem.seed_mode is not read by problem kind {problem['kind']!r}, "
        f"which reads: {reads}"]
    assert [p.name for p in tmp_path.iterdir()] == ["bad.toml"]


def test_cli_run_bad_run_value_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.toml"
    cfg_path.write_text(quad_config().to_text() + "run.T = 4.5\n")
    rc = harness.cli_main(["run", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.splitlines() == ["error: run.T takes a whole number, got 4.5"]


@pytest.mark.parametrize("optimizer,grid", [("gd", "-0.001"), ("muon", "0.1,-0.001")])
def test_cli_run_nonpositive_lr_grid_exits_2(tmp_path, capsys, optimizer, grid):
    cfg_path = tmp_path / "bad.toml"
    text = quad_config(optimizer={"kind": optimizer}).to_text()
    cfg_path.write_text(with_line(text, f"run.lr_grid = {grid}"))
    rc = harness.cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.splitlines() == ["error: run.lr_grid must be positive, got -0.001"]
    assert [p.name for p in tmp_path.iterdir()] == ["bad.toml"]


def test_config_rejects_malformed_text():
    with pytest.raises(ValueError):
        harness.ExperimentConfig.from_text("problem.kind quadratic\n")
    with pytest.raises(ValueError):
        harness.ExperimentConfig.from_text("nonsense.key = 1\n")


def test_config_rejects_unknown_run_key():
    text = quad_config().to_text() + "run.cadance = 5\n"
    lineno = text.count("\n")
    with pytest.raises(ValueError, match=f"line {lineno}: unknown key 'run.cadance'"):
        harness.ExperimentConfig.from_text(text)


def test_config_rejects_a_key_set_twice():
    with pytest.raises(ValueError, match="line 2: 'run.T' is already set on line 1"):
        harness.ExperimentConfig.from_text("run.T = 5\nrun.T = 7\n")
    text = quad_config().to_text()
    line = next(l for l in text.splitlines() if l.startswith("optimizer.kind = "))
    with pytest.raises(ValueError, match=r"'optimizer\.kind' is already set on line \d+$"):
        harness.ExperimentConfig.from_text(text + line + "\n")


def test_cli_run_key_set_twice_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "twice.toml"
    text = quad_config(T=5).to_text()
    lines = text.splitlines()
    cfg_path.write_text(text + "run.T = 7\n")
    rc = harness.cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.splitlines() == [f"error: config line {len(lines) + 1}: 'run.T' is "
                                f"already set on line {lines.index('run.T = 5') + 1}"]
    assert [p.name for p in tmp_path.iterdir()] == ["twice.toml"]


def test_config_comments_and_blanks():
    text = quad_config().to_text() + "\n# a comment\n\n"
    assert harness.ExperimentConfig.from_text(text) == quad_config()


# ---------------------------------------------------------------------------
# build_problem
# ---------------------------------------------------------------------------

def test_build_problem_per_run_seed_mode():
    spec = dict(QUAD_SPEC, seed_mode="per_run")
    p1 = harness.build_problem(spec, run_seed=1)
    p2 = harness.build_problem(spec, run_seed=2)
    assert not np.array_equal(p1.metadata["W_star"], p2.metadata["W_star"])
    p1b = harness.build_problem(spec, run_seed=1)
    np.testing.assert_array_equal(p1.metadata["W_star"], p1b.metadata["W_star"])


def test_build_problem_fixed_seed_mode():
    p1 = harness.build_problem(QUAD_SPEC, run_seed=1)
    p2 = harness.build_problem(QUAD_SPEC, run_seed=99)
    np.testing.assert_array_equal(p1.metadata["W_star"], p2.metadata["W_star"])


def test_build_problem_kinds():
    mse = harness.build_problem({"kind": "linear_mse", "d": 5, "B": 9, "c": 2,
                                 "features": "lowrank", "target_ratio": 1.5,
                                 "seed": 3}, 0)
    assert mse.shape == (2, 5)
    mlp = harness.build_problem({"kind": "mlp", "input_dim": 6, "dims": (5, 4, 3),
                                 "B": 20, "seed": 4}, 0)
    assert mlp.shape == (4, 5)  # middle layer
    with pytest.raises(ValueError):
        harness.build_problem({"kind": "nope"}, 0)


def test_build_problem_rejects_unknown_mlp_loss():
    with pytest.raises(ValueError, match="^problem.loss takes one of softmax_ce, mse, "
                                         "got 'bogus'$"):
        harness.build_problem(dict(MLP_SPEC, loss="bogus"), 0)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def test_gd_run_is_monotone_at_one_over_L():
    problem = harness.build_problem(QUAD_SPEC, 1)
    config = quad_config(schedule={"kind": "constant",
                                   "eta": 1.0 / problem.metadata["L"]}, T=200)
    art = harness.run_experiment(config, 1)
    fs = [rec.f for rec in art.records]
    assert all(b <= a + 1e-12 * max(1.0, a) for a, b in zip(fs, fs[1:]))
    assert not art.truncated


def test_gd_protocol_run_15x20_monotone():
    # the full desk protocol: 15x20, two-cluster curvature, eta = 1/L, 4000 steps
    spec = {"kind": "quadratic", "m": 15, "n": 20, "cond": 1e4,
            "decay": "two_cluster", "seed": 0, "seed_mode": "per_run"}
    problem = harness.build_problem(spec, 1)
    config = harness.ExperimentConfig(
        problem=spec, optimizer={"kind": "gd"},
        schedule={"kind": "constant", "eta": 1.0 / problem.metadata["L"]},
        T=4000, cadence=40, seeds=(1,))
    art = harness.run_experiment(config, 1)
    fs = [rec.f for rec in art.records]
    assert all(b <= a + 1e-12 * max(1.0, a) for a, b in zip(fs, fs[1:]))
    assert art.records[-1].t == 4000


def test_single_step_run_has_initial_and_step_rows():
    config = quad_config(T=1)
    art = harness.run_experiment(config, 1)
    assert [rec.t for rec in art.records] == [0, 1]
    assert art.records[0].eta is not None
    assert art.records[1].eta is None


def test_cadence_subsamples_and_keeps_final():
    config = quad_config(T=20, cadence=7)
    art = harness.run_experiment(config, 1)
    assert [rec.t for rec in art.records] == [0, 7, 14, 20]


def test_run_emits_byte_identical_artifacts(tmp_path):
    out = tmp_path / "runs"
    config = quad_config(out_dir=str(out), want_J=True, want_L=True,
                         optimizer={"kind": "muon", "beta": 0.9})
    harness.run_experiment(config, 1)
    first = {p: (out / p).read_bytes() for p in os.listdir(out)}
    harness.run_experiment(config, 1)
    second = {p: (out / p).read_bytes() for p in os.listdir(out)}
    assert first == second and first


def test_divergent_run_truncates_and_flags(tmp_path):
    config = quad_config(schedule={"kind": "constant", "eta": 1e4}, T=400,
                         out_dir=str(tmp_path), name="boom")
    art = harness.run_experiment(config, 1)
    assert art.truncated
    assert dg.FLAG_DIVERGED in art.records[-1].flags
    assert os.path.exists(art.csv_path)


def test_zero_direction_is_flagged_once_per_row(tmp_path):
    # W0 = W* = 0: the direction and the gradient difference both vanish
    problem = {"kind": "quadratic", "m": 4, "n": 5, "cond": 10.0, "decay": "geometric",
               "wstar_scale": 0.0, "seed": 1}
    config = quad_config(problem=problem, optimizer={"kind": "simplified_muon"}, T=2,
                         want_J=True, want_hatJ=True, out_dir=str(tmp_path), name="still")
    art = harness.run_experiment(config, 1)
    rows = harness.read_records_csv(art.csv_path)
    assert [r.flags for r in rows] == [dg.FLAG_ZERO_DIRECTION] * 2 + [""]
    assert all(r.J_t == r.hatJ_t == 0.0 for r in rows[:2])


def records_calling_the_oracle_per_use(config, seed):
    """run_experiment's records and final iterate from a recorded run that calls
    the oracle once for each use of its results: value(W0) for the divergence
    guard, value_grad(W) before each step, grad(W_next) for hatJ_t and
    value_grad(W) again for the terminal row."""
    problem = harness.build_problem(config.problem, seed)
    W0 = harness._initial_w(config, problem, seed)
    schedule, _ = harness.make_schedule(config.schedule, problem, config.T, W0)
    opt = harness._OptRun(config.optimizer)
    guard = harness.DIVERGENCE_FACTOR * max(abs(problem.value(W0)), 1e-12)
    W_star = problem.metadata.get("W_star")
    records, W, t, end_flags = [], W0.copy(), 0, ""
    while t < config.T:
        f, G = problem.value_grad(W)
        if not (np.isfinite(f) and f <= guard):
            end_flags = dg.FLAG_DIVERGED
            break
        recording = t % config.cadence == 0
        grad_nuc = (matcore.nuclear_norm(G) if recording or schedule.divisor is not None
                    else None)
        eta = optim.next_eta(schedule, grad_nuc=grad_nuc)
        W_next, O = opt.step(W, G, eta)
        if recording:
            grad_F = matcore.frobenius_norm(G)
            rec = dg.StepRecord(t=t, f=float(f), grad_F=grad_F, grad_nuc=grad_nuc,
                                eta=float(eta))
            flags, dir_sq = [], None
            if config.want_J or config.want_hatJ:
                O_diag = O if O is not None else optim.orthogonalize(G)
                rec.J_t = dg.j_t(problem, W, O_diag)
                dir_sq = float(np.sum(O_diag * O_diag))
                zero = not np.any(O_diag)
                if config.want_hatJ:
                    grad_next = problem.grad(W_next)
                    rec.hatJ_t = dg.hat_j_t(problem, W, O_diag, G, grad_next)
                    zero = zero or not np.any(G - grad_next)
                if zero:
                    flags.append(dg.FLAG_ZERO_DIRECTION)
            if config.want_L:
                val, conv = dg.l_t(problem, W, seed=seed * 1000003 + t)
                rec.L_t = float(val)
                if not conv:
                    flags.append(dg.FLAG_POWER_FALLBACK)
            if rec.J_t is not None and rec.L_t is not None:
                rec.ratio_lhs, rec.ratio_rhs = dg.ratio_condition(rec.J_t, rec.L_t,
                                                                  grad_F, grad_nuc)
            if problem.kink_margin is not None and (config.want_J or config.want_L):
                if problem.kink_margin(W) < 1e-7:
                    flags.append(dg.FLAG_FD_KINK)
            if W_star is not None:
                rec.dist_F, rec.dist_op = dg.distance_metrics(W, W_star)
            if not dg.validate_record(rec, min(problem.shape), dir_sq,
                                      strict=problem.hvp_exact):
                flags.append(dg.FLAG_RAYLEIGH)
            rec.flags = ";".join(flags)
            records.append(rec)
        W = W_next
        t += 1
    f, G = problem.value_grad(W)
    rec = dg.StepRecord(t=t, f=float(f), grad_F=matcore.frobenius_norm(G),
                        grad_nuc=float(np.sum(matcore.svd(G))), flags=end_flags)
    if W_star is not None:
        rec.dist_F, rec.dist_op = dg.distance_metrics(W, W_star)
    records.append(rec)
    return records, W


@pytest.mark.parametrize("config", [
    quad_config(optimizer={"kind": "muon", "beta": 0.9}, schedule={"kind": "constant",
                "eta": 0.05}, T=12, cadence=1, want_J=True, want_hatJ=True, want_L=True),
    quad_config(schedule={"kind": "constant", "eta": 3.0}, T=40, cadence=3, want_J=True,
                want_hatJ=True),
    quad_config(problem=dict(MLP_SPEC), optimizer={"kind": "simplified_muon"},
                schedule={"kind": "constant", "eta": 0.05}, T=12, cadence=2, w0="init",
                want_J=True, want_L=True),
], ids=["quadratic-hatJ", "quadratic-truncated", "mlp-J-L"])
def test_recorded_run_matches_a_run_calling_the_oracle_per_use(config):
    art = harness.run_experiment(config, 1)
    want, want_W = records_calling_the_oracle_per_use(config, 1)
    assert art.truncated == (want[-1].flags == dg.FLAG_DIVERGED)
    assert art.records == want and np.array_equal(art.final_W, want_W)


def test_recorded_run_calls_the_oracle_once_per_iterate():
    problem = harness.build_problem(QUAD_SPEC, 1)
    value_grad, calls = problem.value_grad, []
    problem.value_grad = lambda W: calls.append(W.shape) or value_grad(W)
    T = 10
    config = quad_config(optimizer={"kind": "simplified_muon"}, T=T,
                         schedule={"kind": "constant", "eta": 0.05},
                         want_J=True, want_hatJ=True)
    art = harness.run_experiment(config, 1, problem=problem)
    # W0, then the iterate after each step
    assert not art.truncated and calls == [problem.shape] * (T + 1)
    calls.clear()
    art = harness.run_experiment(quad_config(schedule={"kind": "constant", "eta": 1e4}),
                                 1, problem=problem)
    k = art.records[-1].t
    assert art.truncated and 1 <= k < 50 and len(calls) == k + 1


def test_tuning_skips_diverged_points():
    config = quad_config(lr_grid=(1e-3, 1e-2, 1e5), T=100,
                         optimizer={"kind": "simplified_muon"})
    art = harness.run_experiment(config, 1)
    assert art.best_eta in (1e-3, 1e-2)
    assert art.grid_results[-1]["diverged"]
    assert art.grid_results[-1]["final_f"] is None
    kept = [g for g in art.grid_results if not g["diverged"]]
    assert min(g["final_f"] for g in kept) == pytest.approx(
        [g for g in art.grid_results if g["eta"] == art.best_eta][0]["final_f"])


def test_all_grid_points_diverged_raises():
    config = quad_config(lr_grid=(1e6, 1e7), T=50,
                         optimizer={"kind": "simplified_muon"})
    with pytest.raises(RuntimeError):
        harness.run_experiment(config, 1)


SCAN_SPECS = [
    {"kind": "muon", "beta": 0.9},
    {"kind": "muon", "beta": 0.9, "orthogonalizer": "ns"},
    {"kind": "simplified_muon"},
    {"kind": "gd"},
    {"kind": "gd_nesterov", "mu": 0.9},
    {"kind": "adam"},
    {"kind": "adamw", "weight_decay": 0.05},
]


def separate_run(problem, spec, eta, T, W0):
    """One grid point run on its own through optim's 2-D steppers.

    Returns ((final_f, diverged), step at which the guard tripped or None).
    """
    kind = spec["kind"]
    muon = optim.MuonState(beta=spec.get("beta", 0.9),
                           orthogonalizer=spec.get("orthogonalizer", "svd"))
    nesterov = optim.NesterovState()
    adam = optim.AdamState()
    step = {
        "muon": lambda W, G: optim.muon_step(muon, W, G, eta),
        "simplified_muon": lambda W, G: optim.simplified_muon_step(W, G, eta),
        "gd": lambda W, G: optim.gd_step(W, G, eta),
        "gd_nesterov": lambda W, G: optim.gd_nesterov_step(nesterov, W, G, eta,
                                                           mu=spec.get("mu", 0.9)),
        "adam": lambda W, G: optim.adam_step(adam, W, G, eta),
        "adamw": lambda W, G: optim.adamw_step(adam, W, G, eta,
                                               weight_decay=spec.get("weight_decay", 0.01)),
    }[kind]
    guard = harness.DIVERGENCE_FACTOR * max(abs(problem.value(W0)), 1e-12)
    W = W0.copy()
    for t in range(T):
        f, G = problem.value_grad(W)
        if not np.isfinite(f) or f > guard:
            return (float("inf"), True), t
        W = step(W, G)
    f = problem.value(W)
    if not np.isfinite(f) or f > guard:
        return (float("inf"), True), T
    return (float(f), False), None


@pytest.mark.parametrize("spec", SCAN_SPECS, ids=lambda s: "-".join(map(str, s.values())))
def test_grid_scan_matches_separate_runs_bitwise(spec):
    problem = harness.build_problem(QUAD_SPEC, 1)
    W0 = np.random.default_rng(5).standard_normal(problem.shape)
    grid = harness.default_grid(spec["kind"], problem)
    scan = harness._grid_scan(problem, spec, grid, 60, W0)
    assert scan == [separate_run(problem, spec, eta, 60, W0)[0] for eta in grid]
    assert any(not diverged for _, diverged in scan)


def uphill_problem(shape=(7, 5), seed=3):
    """f = ||W - W*||^2 with an oracle that points uphill, so every run drifts
    away from W* and a large stepsize trips the divergence guard after a
    number of steps that shrinks as the stepsize grows.  Like every problem
    kind's, its oracle also takes a (k, m, n) stack."""
    W_star = np.random.default_rng(seed).standard_normal(shape)

    def value_grad(W):
        E = W - W_star
        return matcore.per_matrix(np.sum(E * E, axis=(-2, -1)), E), -2.0 * E

    return problems.Problem(shape, value_grad, lambda W, D: -2.0 * D)


@pytest.mark.parametrize("spec", SCAN_SPECS, ids=lambda s: "-".join(map(str, s.values())))
def test_grid_scan_survivors_match_after_divergence(spec):
    problem = uphill_problem()
    W0 = np.zeros(problem.shape)
    grid, T = (0.01, 1.0, 100.0), 40
    reference = [separate_run(problem, spec, eta, T, W0) for eta in grid]
    assert harness._grid_scan(problem, spec, grid, T, W0) == [r for r, _ in reference]
    # the largest stepsize leaves the stack partway through; the smallest survives
    assert 1 < reference[-1][1] < T
    assert not reference[0][0][1]


def test_quadratic_grid_scan_survivors_match_after_divergence():
    # GD at eta > 2/L blows up along the top eigenvector, sooner the larger eta is
    problem = harness.build_problem(QUAD_SPEC, 1)
    W0 = np.random.default_rng(5).standard_normal(problem.shape)
    L = problem.metadata["L"]
    grid, T = tuple(x / L for x in (0.5, 1.0, 2.5, 4.0, 16.0)), 60
    spec = {"kind": "gd"}
    reference = [separate_run(problem, spec, eta, T, W0) for eta in grid]
    assert harness._grid_scan(problem, spec, grid, T, W0) == [r for r, _ in reference]
    tripped = [t for _, t in reference]
    assert tripped[:2] == [None, None]
    assert 1 < tripped[4] < tripped[3] < tripped[2] < T


@pytest.mark.parametrize("optimizer", [
    {"kind": "muon", "beta": 0.8, "orthogonalizer": "ns", "ns_steps": 6},
    {"kind": "simplified_muon", "orthogonalizer": "ns", "ns_steps": 6},
    {"kind": "gd"},
    {"kind": "gd_nesterov", "mu": 0.8},
    {"kind": "adam", "beta1": 0.8, "beta2": 0.99, "eps": 1e-7},
    {"kind": "adamw", "beta1": 0.8, "beta2": 0.99, "eps": 1e-7, "weight_decay": 0.1},
], ids=lambda o: o["kind"])
def test_optimizer_accepts_every_key_its_kind_reads(optimizer):
    art = harness.run_experiment(quad_config(optimizer=optimizer, T=5), 1)
    assert len(art.records) == 6


@pytest.mark.parametrize("optimizer,key", [
    ({"kind": "muon", "orthogonaliser": "ns"}, "orthogonaliser"),
    ({"kind": "muon", "mu": 0.9}, "mu"),
    ({"kind": "simplified_muon", "beta": 0.9}, "beta"),
    ({"kind": "gd", "beta": 0.9}, "beta"),
    ({"kind": "gd", "mu": 0.9}, "mu"),
    ({"kind": "gd_nesterov", "beta": 0.9}, "beta"),
    ({"kind": "adam", "weight_decay": 0.01}, "weight_decay"),
    ({"kind": "adam", "beta": 0.9}, "beta"),
    ({"kind": "adamw", "beta_1": 0.9}, "beta_1"),
], ids=lambda v: v["kind"] if isinstance(v, dict) else v)
def test_cli_run_unread_optimizer_key_exits_2(tmp_path, capsys, optimizer, key):
    cfg_path = tmp_path / "bad.toml"
    cfg_path.write_text(quad_config(optimizer=optimizer, T=5).to_text())
    rc = harness.cli_main(["run", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert f"optimizer.{key} " in err and repr(optimizer["kind"]) in err


@pytest.mark.parametrize("spec", [
    {"kind": "quadratic", "seed": 1, "seed_mode": "per_run", "m": 4, "n": 5,
     "cond": 10.0, "decay": "geometric", "half": False, "wstar_scale": 2.0,
     "wstar": "gaussian"},
    {"kind": "linear_mse", "seed": 1, "d": 5, "B": 9, "c": 2,
     "features": "lowrank", "target_ratio": 1.5, "path": "unread.csv",
     "skip_header": True},
    {"kind": "mlp", "seed": 1, "input_dim": 6, "dims": (5, 4, 3),
     "B": 20, "loss": "mse", "data": "lowrank", "target_ratio": 1.5, "train_layer": 1},
], ids=lambda spec: spec["kind"])
def test_problem_accepts_every_key_its_kind_reads(spec):
    assert set(spec) == {"kind", *harness.CONFIG_SCHEMA["problem"][1][spec["kind"]]}
    assert harness.build_problem(spec, 1).metadata["kind"] == spec["kind"]


# one schedule of each kind, setting every key the kind reads; with T = 6
# these constants make a regrouped formula round differently
SCHEDULES = [
    {"kind": "constant", "eta": 0.5},
    {"kind": "nonconvex_L", "L": 1.8, "beta": 0.7},
    {"kind": "nonconvex_Lstar", "L_star": 14.6, "beta": 0.7},
    {"kind": "adaptive_rL", "L": 1.8},
    {"kind": "adaptive_Lstar", "L_star": 14.6},
    {"kind": "theory_J", "J": 5.3},
]


@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda schedule: schedule["kind"])
def test_schedule_accepts_every_key_its_kind_reads(schedule):
    assert set(schedule) == {"kind", *harness.CONFIG_SCHEMA["schedule"][1][schedule["kind"]]}
    art = harness.run_experiment(quad_config(schedule=schedule, T=5), 1)
    assert art.schedule_resolved["kind"] == schedule["kind"]


@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda schedule: schedule["kind"])
def test_recorded_eta_is_the_closed_form_bit_for_bit(schedule):
    """Every recorded eta equals its rule's formula in the operand order of
    the paper's statement: (1-beta)*delta / (r*T*L), and so on."""
    T = 6
    art = harness.run_experiment(quad_config(schedule=schedule, T=T,
                                             optimizer={"kind": "simplified_muon"}), 1)
    problem = harness.build_problem(QUAD_SPEC, 1)
    delta = problem.value(np.zeros(problem.shape)) - problems.f_star(problem)
    r = min(problem.shape)
    beta = schedule.get("beta", 0.0)
    kind = schedule["kind"]
    assert len(art.records) == T + 1 and not art.truncated
    for rec in art.records[:-1]:
        if kind == "constant":
            want = schedule["eta"]
        elif kind == "nonconvex_L":
            want = float(np.sqrt((1.0 - beta) * delta / (r * T * schedule["L"])))
        elif kind == "nonconvex_Lstar":
            want = float(np.sqrt((1.0 - beta) * delta / (T * schedule["L_star"])))
        elif kind == "adaptive_rL":
            want = float(rec.grad_nuc / (r * schedule["L"]))
        elif kind == "adaptive_Lstar":
            want = float(rec.grad_nuc / schedule["L_star"])
        else:
            want = float(np.sqrt(2.0 * delta / (schedule["J"] * T)))
        assert rec.eta == want


@pytest.mark.parametrize("problem,key", [
    (dict(QUAD_SPEC, conds=100), "conds"),
    (dict(QUAD_SPEC, d=5), "d"),
    (dict(QUAD_SPEC, seedmode="per_run"), "seedmode"),
    ({"kind": "linear_mse", "d": 8, "B": 12, "c": 3, "featurs": "lowrank"}, "featurs"),
    ({"kind": "linear_mse", "d": 8, "B": 12, "c": 3, "m": 4}, "m"),
    (dict(MLP_SPEC, dim=(5, 3)), "dim"),
    (dict(MLP_SPEC, half=True), "half"),
], ids=lambda v: v["kind"] if isinstance(v, dict) else v)
def test_cli_run_unread_problem_key_exits_2(tmp_path, capsys, problem, key):
    cfg_path = tmp_path / "bad.toml"
    cfg_path.write_text(quad_config(problem=problem, T=5).to_text())
    rc = harness.cli_main(["run", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert f"problem.{key} " in err and repr(problem["kind"]) in err


@pytest.mark.parametrize("schedule,key", [
    ({"kind": "constant", "eta": 0.5, "L": 3}, "L"),
    ({"kind": "constant", "etaa": 0.5}, "etaa"),
    ({"kind": "nonconvex_L", "L_star": 3.0}, "L_star"),
    ({"kind": "nonconvex_Lstar", "Lstar": 3.0}, "Lstar"),
    ({"kind": "adaptive_rL", "beta": 0.9}, "beta"),
    ({"kind": "adaptive_Lstar", "L": 3.0}, "L"),
    ({"kind": "theory_J", "eta": 0.1}, "eta"),
], ids=lambda v: v["kind"] if isinstance(v, dict) else v)
def test_cli_run_unread_schedule_key_exits_2(tmp_path, capsys, schedule, key):
    cfg_path = tmp_path / "bad.toml"
    cfg_path.write_text(quad_config(schedule=schedule, T=5).to_text())
    rc = harness.cli_main(["run", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert f"schedule.{key} " in err and repr(schedule["kind"]) in err


def test_tuning_grid_still_checks_schedule_keys():
    config = quad_config(schedule={"kind": "constant", "L": 3}, lr_grid=(0.1, 0.2), T=5)
    with pytest.raises(ValueError, match="schedule.L is not read by schedule kind 'constant'"):
        harness.run_experiment(config, 1)


def test_cli_run_beta_flag_needs_a_momentum_kind(tmp_path, capsys):
    cfg_path = tmp_path / "gd.toml"
    cfg_path.write_text(quad_config(T=5).to_text())
    assert harness.cli_main(["run", "--config", str(cfg_path), "--beta", "0.5"]) == 2
    assert "optimizer.beta " in capsys.readouterr().err
    assert harness.cli_main(["run", "--config", str(cfg_path), "--beta", "0.5",
                             "--optimizer", "muon"]) == 0


@pytest.mark.parametrize("optimizer,key", [
    ({"kind": "muon", "beta": (0.9, 0.8)}, "beta"),
    ({"kind": "muon", "beta": "high"}, "beta"),
    ({"kind": "gd_nesterov", "mu": (0.9, 0.8)}, "mu"),
    ({"kind": "adam", "eps": (1e-8, 1e-7)}, "eps"),
    ({"kind": "adamw", "weight_decay": True}, "weight_decay"),
    ({"kind": "muon", "ns_steps": 5.5}, "ns_steps"),
    ({"kind": "simplified_muon", "orthogonalizer": ("svd", "ns")}, "orthogonalizer"),
], ids=["muon-list-beta", "muon-word-beta", "nesterov-list-mu", "adam-list-eps",
        "adamw-flag-weight_decay", "muon-fraction-ns_steps", "simplified-list-orthogonalizer"])
def test_cli_run_bad_optimizer_value_exits_2(tmp_path, capsys, optimizer, key):
    cfg_path = tmp_path / "bad.toml"
    cfg_path.write_text(quad_config(optimizer=optimizer, T=5).to_text())
    rc = harness.cli_main(["run", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith(f"error: optimizer.{key} takes ")


@pytest.mark.parametrize("optimizer", [{"kind": "lion"},
                                       {"kind": "muon", "beta": 1.5},
                                       {"kind": "muon", "orthogonalizer": "qr"},
                                       {"kind": "simplified_muon", "orthogonalizer": "qr"}])
def test_tuned_config_rejects_bad_optimizer(optimizer):
    config = quad_config(lr_grid=(0.01, 0.1), T=5, optimizer=optimizer)
    with pytest.raises(ValueError):
        harness.run_experiment(config, 1)


def test_adaptive_schedule_run_records_rule():
    config = quad_config(optimizer={"kind": "simplified_muon"},
                         schedule={"kind": "adaptive_Lstar"}, T=30, want_J=True)
    art = harness.run_experiment(config, 1)
    problem = harness.build_problem(QUAD_SPEC, 1)
    Ls = problem.metadata["L_star"]
    for rec in art.records[:-1]:
        assert rec.eta == pytest.approx(rec.grad_nuc / Ls, rel=1e-12)
    assert art.schedule_resolved["source"] == "metadata"


def test_muon_run_with_ns_orthogonalizer():
    config = quad_config(optimizer={"kind": "muon", "beta": 0.9,
                                    "orthogonalizer": "ns"},
                         schedule={"kind": "constant", "eta": 0.2}, T=40)
    art = harness.run_experiment(config, 1)
    assert art.summary.final_f < art.records[0].f


def test_summary_recomputable_from_csv(tmp_path):
    config = quad_config(out_dir=str(tmp_path), want_J=True, want_L=True,
                         optimizer={"kind": "simplified_muon"},
                         schedule={"kind": "constant", "eta": 0.3}, T=60)
    art = harness.run_experiment(config, 1)
    records = harness.read_records_csv(art.csv_path)
    with open(art.summary_path, "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["final_f"] == records[-1].f
    assert summary["T"] == records[-1].t
    j_vals = [rec.J_t for rec in records if rec.J_t is not None]
    assert summary["J_mean"] == pytest.approx(math.fsum(j_vals) / len(j_vals), rel=1e-12)
    assert summary["D_op"] == max(rec.dist_op for rec in records)
    assert summary["J_tilde"] == pytest.approx(
        dg.weighted_j_tilde(j_vals, 0.3, summary["D_op"]), rel=1e-12)
    assert summary["comparison_ratio"] == pytest.approx(
        dg.comparison_ratio(summary["D_F"], summary["D_op"],
                            problems.f_star and
                            harness.build_problem(QUAD_SPEC, 1).metadata["L"],
                            harness.build_problem(QUAD_SPEC, 1).metadata["L_star"]),
        rel=1e-12)


def test_csv_round_trip(tmp_path):
    config = quad_config(want_J=True, want_L=True,
                         optimizer={"kind": "simplified_muon"}, T=25)
    art = harness.run_experiment(config, 1)
    path = tmp_path / "trace.csv"
    harness.emit_csv(art.records, path)
    again = harness.read_records_csv(path)
    assert again == art.records


def test_csv_header_matches_contract(tmp_path):
    config = quad_config(T=5)
    art = harness.run_experiment(config, 1)
    path = tmp_path / "t.csv"
    harness.emit_csv(art.records, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,f,grad_F,grad_nuc,eta,J_t,L_t,hatJ_t,distF,distOp,ratio_lhs,ratio_rhs,flags"


ANY_FLOAT = st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True)
OPTIONAL_FLOAT = st.none() | ANY_FLOAT
FLAGS = (dg.FLAG_ZERO_DIRECTION, dg.FLAG_POWER_FALLBACK, dg.FLAG_FD_KINK,
         dg.FLAG_DIVERGED, dg.FLAG_RAYLEIGH)
STEP_RECORDS = st.lists(st.builds(
    dg.StepRecord, t=st.integers(min_value=0), f=ANY_FLOAT, grad_F=ANY_FLOAT,
    grad_nuc=OPTIONAL_FLOAT, eta=OPTIONAL_FLOAT, J_t=OPTIONAL_FLOAT, L_t=OPTIONAL_FLOAT,
    hatJ_t=OPTIONAL_FLOAT, dist_F=OPTIONAL_FLOAT, dist_op=OPTIONAL_FLOAT,
    ratio_lhs=OPTIONAL_FLOAT, ratio_rhs=OPTIONAL_FLOAT,
    flags=st.lists(st.sampled_from(FLAGS), max_size=3).map(";".join)), max_size=6)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=STEP_RECORDS)
def test_csv_emit_read_emit_is_byte_exact(tmp_path, records):
    # -0.0, subnormals, +-inf and nan all survive the text form
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    harness.emit_csv(records, first)
    harness.emit_csv(harness.read_records_csv(first), second)
    assert second.read_bytes() == first.read_bytes()


def test_step_record_fields_are_the_csv_columns(tmp_path):
    """Each StepRecord field is one CSV column, in order, so no field lives only
    in memory, and a record with every field set reads back equal."""
    names = [f.name for f in dataclasses.fields(dg.StepRecord)]
    assert ([n.replace("_", "").lower() for n in names]
            == [c.replace("_", "").lower() for c in harness.CSV_COLUMNS])
    values = {n: 0.25 * (i + 1) for i, n in enumerate(names)}
    values.update(t=7, flags=";".join(FLAGS[:2]))
    rec = dg.StepRecord(**values)
    harness.emit_csv([rec], tmp_path / "one.csv")
    assert harness.read_records_csv(tmp_path / "one.csv") == [rec]


def _good_row() -> str:
    return ",".join(["0", "1.0", "2.0", "3.0"] + [""] * (len(harness.CSV_COLUMNS) - 4))


def test_read_records_csv_refuses_a_wrong_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(",".join(harness.CSV_COLUMNS[::-1]) + "\n" + _good_row() + "\n")
    with pytest.raises(ValueError, match=re.escape(f"unexpected CSV header in {path}")):
        harness.read_records_csv(path)


@pytest.mark.parametrize("bad", ["0,1.0,2.0", _good_row().replace("1.0", "abc"),
                                 _good_row().replace("0", "zero", 1), ""],
                         ids=["too-few-fields", "word-f", "word-t", "blank-line"])
def test_read_records_csv_names_file_and_line(tmp_path, bad):
    path = tmp_path / "trace.csv"
    path.write_text(",".join(harness.CSV_COLUMNS) + "\n" + _good_row() + "\n" + bad + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path} line 3: ")):
        harness.read_records_csv(path)


class _Unprintable:
    """A cell value that no formatter can turn into text."""

    def __float__(self):
        raise ValueError("unprintable cell")

    __str__ = __float__


def test_emit_csv_failure_leaves_existing_file_unchanged(tmp_path):
    records = harness.run_experiment(quad_config(T=5), 1).records
    records[-1].L_t = _Unprintable()
    path = tmp_path / "trace.csv"
    path.write_bytes(b"earlier contents\n")
    with pytest.raises(ValueError, match="unprintable cell"):
        harness.emit_csv(records, path)
    assert path.read_bytes() == b"earlier contents\n"
    assert os.listdir(tmp_path) == ["trace.csv"]


@pytest.mark.parametrize("emit,obj", [
    (harness.emit_csv, [dg.StepRecord(t=0, f=1.0, grad_F=2.0, grad_nuc=3.0)]),
    (harness.emit_summary, {"final_f": 1.0}),
    (harness.emit_spectrum_csv, [3.0, 1.0]),
    (problems.save_matrix_csv, np.eye(2)),
], ids=["emit_csv", "emit_summary", "emit_spectrum_csv", "save_matrix_csv"])
def test_failed_rename_leaves_target_unchanged_and_no_temp_file(tmp_path, monkeypatch,
                                                                 emit, obj):
    path = tmp_path / "artifact"
    path.write_bytes(b"earlier contents\n")

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        emit(obj, path)
    assert path.read_bytes() == b"earlier contents\n"
    assert os.listdir(tmp_path) == ["artifact"]


def test_write_atomic_creates_parent_directories(tmp_path):
    path = tmp_path / "a" / "b" / "out.txt"
    problems.write_atomic(path, "text\n")
    assert path.read_bytes() == b"text\n"
    assert os.listdir(path.parent) == ["out.txt"]


def _opens_for_writing(call: ast.Call) -> bool:
    """True when a call opens a file in a write mode or writes one whole."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes", "savetxt"):
        return True
    if name not in ("open", "fdopen"):
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg in ("mode", "flags")), None)
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(c in mode.value for c in "wax+")
    return True  # a mode worked out at run time counts as a write


def test_one_function_in_the_package_opens_files_for_writing():
    package = Path(harness.__file__).resolve().parent
    writers = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Call) and _opens_for_writing(node):
            writers.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert writers == ["problems.write_atomic"]


# module-level names that nothing in src/muonlab or perfbench/ refers to, and why they stay
UNREFERENCED_ALLOWED = {}


def _names(node, bare=True):
    """Every identifier and string a node mentions, except dict keys (data, not
    code); a bare name (not an attribute or import) only when bare is true."""
    keys = {id(k) for n in ast.walk(node) if isinstance(n, ast.Dict) for k in n.keys}
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            if bare:
                yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in keys:
            yield n.value


def test_every_module_level_definition_has_a_caller():
    repo = Path(__file__).resolve().parent.parent
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in ("src/muonlab", "perfbench")
             for path in sorted((repo / folder).glob("*.py"))}
    # attributes, imports and strings count in every file; a bare name counts
    # only in the file that defines or imports it, so another file's own
    # function of the same name does not count
    mentions = Counter(name for tree in trees.values() for name in _names(tree, bare=False))
    bare = {path: Counter(n.id for n in ast.walk(tree) if isinstance(n, ast.Name))
            for path, tree in trees.items()}
    imported = {path: {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                       for a in n.names}
                for path, tree in trees.items()}
    unreferenced = set()
    for path, tree in trees.items():
        if path.parent.name != "muonlab":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                uses = mentions[node.name] + sum(
                    bare[other][node.name] for other in trees
                    if other == path or node.name in imported[other])
                # names the definition mentions itself do not count
                if uses == Counter(_names(node))[node.name]:
                    unreferenced.add(f"{path.stem}.{node.name}")
    assert unreferenced == set(UNREFERENCED_ALLOWED)


def test_hatJ_recording():
    config = quad_config(optimizer={"kind": "simplified_muon"},
                         schedule={"kind": "constant", "eta": 0.1},
                         T=10, want_J=True, want_hatJ=True)
    art = harness.run_experiment(config, 1)
    problem = harness.build_problem(QUAD_SPEC, 1)
    for rec in art.records[:-1]:
        assert rec.hatJ_t is not None and np.isfinite(rec.hatJ_t)
        # sanity: same order of magnitude as J_t on a near-isotropic stretch
        assert abs(rec.hatJ_t) <= problem.metadata["L"] * min(problem.shape) + 1e-9


# ---------------------------------------------------------------------------
# ratio study
# ---------------------------------------------------------------------------

def test_ratio_study_scalar_degenerate():
    rows, summary = harness.ratio_study(m=1, n=1, samples=10, seed=0)
    assert all(r[3] == pytest.approx(1.0, rel=1e-12) for r in rows)
    assert summary["ratio_median"] == pytest.approx(1.0, rel=1e-12)


def test_ratio_study_row_replay(tmp_path):
    rows, summary = harness.ratio_study(m=5, n=7, samples=20, cond=100.0,
                                        seed=3, out_dir=str(tmp_path))
    k, d_f, d_op, ratio = rows[7]
    # independent recomputation from the logged sample index
    rng = np.random.default_rng([3, k])
    W_star = rng.uniform(-50.0, 50.0, size=(5, 7))
    assert d_f == pytest.approx(float(np.sqrt(np.sum(W_star ** 2))), abs=1e-10)
    eigs = np.linalg.eigvalsh(W_star @ W_star.T)
    assert d_op == pytest.approx(float(np.sqrt(eigs[-1])), abs=1e-10)
    assert ratio == pytest.approx(d_f ** 2 * summary["L"] / (d_op ** 2 * summary["L_star"]),
                                  abs=1e-10)
    csv_lines = (tmp_path / "ratio_study.csv").read_text().splitlines()
    assert csv_lines[0] == "sample,distF,distOp,ratio"
    assert len(csv_lines) == 21


def test_ratio_study_deterministic():
    r1, s1 = harness.ratio_study(m=4, n=5, samples=15, seed=9)
    r2, s2 = harness.ratio_study(m=4, n=5, samples=15, seed=9)
    assert r1 == r2 and s1 == s2


# ---------------------------------------------------------------------------
# figure suites (smoke scale)
# ---------------------------------------------------------------------------

def test_figure1_study_smoke(tmp_path):
    summary = harness.figure1_study(seeds=(0, 1), T=300, m=6, n=8, cond=100.0,
                                    out_dir=str(tmp_path))
    assert summary["muon_wins"] >= 1
    assert (tmp_path / "figure1_summary.json").exists()


FIG1_SMALL = dict(T=300, m=6, n=8, cond=100.0)


def usable_cores(monkeypatch, count):
    """Make figure1_study see `count` usable cores, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def test_figure1_fan_out_matches_one_seed_calls(tmp_path, monkeypatch):
    started = []

    class SpyPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs["mp_context"].get_start_method())
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    usable_cores(monkeypatch, 1)
    serial = harness.figure1_study(seeds=(0, 1), out_dir=str(tmp_path / "serial"),
                                   **FIG1_SMALL)
    assert started == []
    usable_cores(monkeypatch, 2)
    fanned = [harness.figure1_study(seeds=(0, 1), out_dir=str(tmp_path / name), **FIG1_SMALL)
              for name in ("a", "b")]
    assert started == ["spawn", "spawn"]
    one_seed = [harness.figure1_study(seeds=[seed], **FIG1_SMALL)["runs"][0] for seed in (0, 1)]
    assert fanned[0]["runs"] == fanned[1]["runs"] == serial["runs"] == one_seed
    assert [run["seed"] for run in fanned[0]["runs"]] == [0, 1]
    summaries = {(tmp_path / name / "figure1_summary.json").read_bytes()
                 for name in ("serial", "a", "b")}
    assert len(summaries) == 1


def test_figure1_caller_runs_a_share_of_the_work(monkeypatch):
    sizes = []

    class SpyPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    usable_cores(monkeypatch, 1)
    alone = harness.figure1_study(seeds=[3], **FIG1_SMALL)
    assert sizes == []
    # one seed on two cores: the caller runs one block of rows, one process the other
    usable_cores(monkeypatch, 2)
    split = harness.figure1_study(seeds=[3], **FIG1_SMALL)
    assert sizes == [1]
    assert split == alone and [run["seed"] for run in split["runs"]] == [3]


@pytest.mark.parametrize("seeds", [(0,), (0, 1), tuple(range(6))],
                         ids=["one-seed", "two-seeds", "six-seeds"])
def test_figure1_on_any_core_count_matches_a_serial_run(tmp_path, monkeypatch, seeds):
    """One seed is cut into row blocks; with more seeds than cores, each
    process that ends a seed is handed the next one no one has started, from
    the one queue in the calling process."""
    runs, summaries = [], set()
    for cores in (1, 2, 3):
        usable_cores(monkeypatch, cores)
        out = tmp_path / f"cores{cores}"
        runs.append(harness.figure1_study(seeds=seeds, out_dir=str(out), **FIG1_SMALL)["runs"])
        summaries.add((out / "figure1_summary.json").read_bytes())
    assert runs[0] == runs[1] == runs[2]
    assert len(summaries) == 1
    assert multiprocessing.active_children() == []


def test_figure1_join_keeps_first_on_ties_across_blocks():
    grid = (0.1, 0.2, 0.3, 0.4, 0.5)
    inf = (float("inf"), True)
    gd = (0.05, 9.0)
    # rows 0-2 ran in the caller, rows 3-4 in a spawned process
    tie = [([(2.0, False), (1.0, False), (3.0, False)], None), ([(1.0, False), inf], gd)]
    assert harness._figure1_join(7, grid, tie) == {
        "seed": 7, "muon_final_f": 1.0, "muon_eta": 0.2, "gd_final_f": 9.0, "gd_eta": 0.05}
    # a row that diverged in the spawned block is dropped, whatever came before it
    late = [([inf, inf, inf], None), ([inf, (5.0, False)], gd)]
    assert harness._figure1_join(7, grid, late)["muon_eta"] == 0.5
    none = [([inf, inf, inf], None), ([inf, inf], gd)]
    assert harness._figure1_join(7, grid, none)["muon_final_f"] == float("inf")
    assert harness._figure1_join(7, grid, none)["muon_eta"] is None


def test_figure1_child_error_reaches_caller(monkeypatch):
    usable_cores(monkeypatch, 2)
    # seed -1 is no valid seed; the caller runs seed 0 and a spawned process seed -1
    with pytest.raises(ValueError, match="non-negative") as excinfo:
        harness.figure1_study(seeds=(0, -1), T=5, m=6, n=8, cond=100.0)
    # raised in a child: the pool attaches the child's traceback as the cause
    assert type(excinfo.value.__cause__).__name__ == "_RemoteTraceback"
    assert multiprocessing.active_children() == []


def test_figure1_caller_error_leaves_no_process(monkeypatch):
    usable_cores(monkeypatch, 2)
    with pytest.raises(ValueError, match="non-negative") as excinfo:
        harness.figure1_study(seeds=(-1, 0), T=5, m=6, n=8, cond=100.0)
    assert excinfo.value.__cause__ is None
    assert multiprocessing.active_children() == []


def test_figure1_rejects_empty_seeds(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("built a problem or started a process pool")

    monkeypatch.setattr(harness, "build_problem", fail)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", fail)
    with pytest.raises(ValueError, match="at least one seed"):
        harness.figure1_study(seeds=[])


def test_figure2_suite_smoke(tmp_path):
    artifacts, summary = harness.figure2_suite(kind="gaussian", c=5, seed=0,
                                               d=20, B=40, T=30,
                                               out_dir=str(tmp_path))
    assert set(artifacts) == {"gd", "gd_nesterov", "adam", "muon"}
    assert summary["comparison_ratio"] > 0
    assert all(np.isfinite(v) for v in summary["final_f"].values())
    assert (tmp_path / "fig2_gaussian_c5_summary.json").exists()


def test_figure2_single_class_boundary():
    artifacts, summary = harness.figure2_suite(kind="lowrank", c=1, seed=0,
                                               d=12, B=20, T=20)
    assert np.isfinite(summary["final_f"]["muon"])


def test_figure3_suite_smoke_and_replay(tmp_path):
    artifacts, summary = harness.figure3_suite(input_dim=6, dims=(5, 4, 3), B=30,
                                               T=30, cadence=10, seed=0,
                                               out_dir=str(tmp_path))
    for art in artifacts.values():
        for rec in art.records:
            assert np.isfinite(rec.f)
            if rec.J_t is not None:
                assert np.isfinite(rec.J_t)
            if rec.L_t is not None:
                assert np.isfinite(rec.L_t)
    assert summary["sampled_steps"] > 0
    # replay: recompute J_t at the checkpointed iterate and compare to the CSV
    art = artifacts["muon"]
    assert art.checkpoint_path and os.path.exists(art.checkpoint_path)
    W_ck = problems.load_features_csv(art.checkpoint_path)
    prob = harness.build_problem({"kind": "mlp", "input_dim": 6, "dims": (5, 4, 3),
                                  "B": 30, "loss": "softmax_ce", "data": "lowrank",
                                  "seed": 0}, 0)
    G = prob.grad(W_ck)
    O = optim.orthogonalize(G)
    j_replayed = dg.j_t(prob, W_ck, O)
    row = [rec for rec in art.records if rec.t == art.checkpoint_t][0]
    assert j_replayed == pytest.approx(row.J_t, abs=1e-8 * max(1.0, abs(row.J_t)))


@pytest.mark.parametrize("study", [
    lambda: harness.figure2_suite(kind="lowrank", c=3, d=12, B=20, T=5),
    lambda: harness.figure2_suite(kind="gaussian", c=3, d=12, B=20, T=5),
    lambda: harness.figure3_suite(input_dim=6, dims=(5, 4, 3), B=20, T=5, cadence=2),
    lambda: harness.quadratic_check_run(seed=2, T=5),
], ids=["fig2-lowrank", "fig2-gaussian", "fig3", "quadratic-check"])
def test_each_study_builds_its_problem_once(monkeypatch, study):
    built = []
    build = harness.build_problem

    def counted(spec, *args, **kwargs):
        built.append(spec)
        return build(spec, *args, **kwargs)

    monkeypatch.setattr(harness, "build_problem", counted)
    study()
    assert len(built) == 1


@pytest.mark.parametrize("problem,optimizer,run", [
    (dict(QUAD_SPEC), {"kind": "muon", "beta": 0.9}, {}),
    ({"kind": "linear_mse", "d": 12, "B": 20, "c": 3, "features": "lowrank",
      "target_ratio": 1.41}, {"kind": "muon"}, {}),
    ({"kind": "linear_mse", "d": 12, "B": 20, "c": 3}, {"kind": "gd_nesterov", "mu": 0.9}, {}),
    (dict(MLP_SPEC), {"kind": "simplified_muon"},
     {"checkpoint": True, "want_J": True, "want_L": True, "w0": "init", "cadence": 2}),
], ids=["quadratic", "linmse-lowrank", "linmse-gaussian", "mlp"])
def test_a_passed_problem_gives_the_same_bytes(tmp_path, monkeypatch, problem, optimizer,
                                               run):
    """run_experiment on a problem built beforehand writes what it writes when
    it builds the problem itself."""
    config = quad_config(problem=problem, optimizer=optimizer, T=5, out_dir="out",
                         lr_grid=(0.01, 0.1, 1.0), **run)
    outputs = []
    for kwargs in ({}, {"problem": harness.build_problem(config.problem, 3)}):
        # the same relative out_dir in a directory of its own, so the config snapshots agree
        side = tmp_path / str(len(outputs))
        side.mkdir()
        monkeypatch.chdir(side)
        harness.run_experiment(config, 3, **kwargs)
        outputs.append({p.name: p.read_bytes() for p in (side / "out").iterdir()})
    assert len(outputs[0]) == 4 + run.get("checkpoint", False)
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# grid scans split over the cores
# ---------------------------------------------------------------------------

# an MLP whose trained 40x64 layer has more than SPLIT_MIN_ENTRIES entries
SPLIT_MLP = {"kind": "mlp", "input_dim": 30, "dims": (64, 40, 5), "B": 40}
SPLIT_GRID = (0.01, 0.03, 0.1, 0.3, 1.0)
SIMPLIFIED = {"kind": "simplified_muon"}
MUON = {"kind": "muon", "beta": 0.9}
PROBE = "_first_step_keeps_bits_on_one_thread"


def spy_scopes(monkeypatch):
    """In order: the name of the function that entered each matcore.one_blas_thread
    block, but for every SVD's own, and the number of helper threads of each
    thread pool started."""
    entered, scope, pool = [], matcore.one_blas_thread, concurrent.futures.ThreadPoolExecutor

    def recording():
        caller = sys._getframe(1).f_code.co_name
        if caller != "_lapack_svd":
            entered.append(caller)
        return scope()

    class Recording(pool):
        def __init__(self, workers, **kwargs):
            entered.append(workers)
            super().__init__(workers, **kwargs)

    monkeypatch.setattr(matcore, "one_blas_thread", recording)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    return entered


def split_or_skip(entered):
    if not any(isinstance(event, int) for event in entered):
        pytest.skip("this BLAS gives the MLP other bits on one thread, so the probe refused")


def split_mlp():
    problem = harness.build_problem(SPLIT_MLP, 1)
    assert np.prod(problem.shape) >= harness.SPLIT_MIN_ENTRIES
    return problem, problem.metadata["W_init"]


def test_split_mlp_grid_writes_the_bytes_of_one_core(tmp_path, monkeypatch):
    config = quad_config(problem=SPLIT_MLP, optimizer=SIMPLIFIED, T=6, out_dir="out",
                         lr_grid=SPLIT_GRID, w0="init", want_J=True)
    entered, outputs = spy_scopes(monkeypatch), []
    for cores in (1, 2):
        usable_cores(monkeypatch, cores)
        side = tmp_path / str(cores)
        side.mkdir()
        monkeypatch.chdir(side)
        harness.run_experiment(config, 1)
        outputs.append({p.name: p.read_bytes() for p in (side / "out").iterdir()})
    split_or_skip(entered)
    # the probe's one-thread first step, then the scan's row blocks on 2 threads
    assert entered == [PROBE, "_run_jobs", 1]
    assert len(outputs[0]) == 4 and outputs[0] == outputs[1]


def test_scan_gives_back_the_blas_threads_and_python_threads(monkeypatch, two_blas_threads):
    problem, W0 = split_mlp()
    threads = threading.active_count()
    entered = spy_scopes(monkeypatch)
    split = harness._grid_scan(problem, SIMPLIFIED, SPLIT_GRID, 5, W0, cores=2)
    assert two_blas_threads() == 2 and threading.active_count() == threads
    split_or_skip(entered)
    assert split == harness._grid_scan(problem, SIMPLIFIED, SPLIT_GRID, 5, W0)
    # an oracle that fails at step 3, inside the split steps
    seen, value_grad = [], problem.value_grad

    def failing(W):
        seen.append(two_blas_threads())
        # value(W0), the probe's two calls, then three steps of both row blocks
        if len(seen) > 3 + 3 * 2:
            raise RuntimeError("the oracle failed")
        return value_grad(W)

    problem.value_grad = failing
    with pytest.raises(RuntimeError, match="the oracle failed"):
        harness._grid_scan(problem, SIMPLIFIED, SPLIT_GRID, 5, W0, cores=2)
    assert seen[-1] == 1
    assert two_blas_threads() == 2 and threading.active_count() == threads


def test_probe_refuses_an_oracle_whose_bits_follow_the_thread_count(monkeypatch,
                                                                    two_blas_threads):
    problem, W0 = split_mlp()
    seen, value_grad = [], problem.value_grad

    def thread_dependent(W):
        seen.append(two_blas_threads())
        f, G = value_grad(W)
        return f + 1e-9 * seen[-1], G + 1e-9 * seen[-1]

    problem.value_grad = thread_dependent
    entered = spy_scopes(monkeypatch)
    split = harness._grid_scan(problem, SIMPLIFIED, SPLIT_GRID, 5, W0, cores=2)
    # the probe's second oracle call ran on one thread; no split followed
    assert entered == [PROBE] and seen.count(1) == 1
    assert seen.count(2) == len(seen) - 1 and two_blas_threads() == 2
    seen.clear()
    assert split == harness._grid_scan(problem, SIMPLIFIED, SPLIT_GRID, 5, W0)
    assert set(seen) == {2}


def test_row_blocks_keep_the_bits_when_a_helper_row_diverges_partway(monkeypatch):
    problem, W0 = split_mlp()
    value_grad, tripped = problem.value_grad, []

    def diverging(W):
        # only eta = 1.0, the last row, can move W0 this far in 5 steps of
        # 40x64 directions (||O||_F = sqrt(40)); 0.3 moves it at most 9.5.
        # Momentum makes the bits depend on each row's own optimizer state.
        f, G = value_grad(W)
        far = np.linalg.norm(W - W0, axis=(-2, -1)) > 15.0
        if far.any():
            tripped.append(threading.current_thread().name)
            f = np.where(far, np.inf, f)
        return f, G

    problem.value_grad = diverging
    entered = spy_scopes(monkeypatch)
    split = harness._grid_scan(problem, MUON, SPLIT_GRID, 5, W0, cores=2)
    split_or_skip(entered)
    # rows 0-1 ran in the caller and rows 2-4 on the helper, whose last row
    # diverged partway
    assert tripped and tripped[0].startswith("muonlab-rows")
    assert [diverged for _, diverged in split] == [False] * 4 + [True]
    assert split == harness._grid_scan(problem, MUON, SPLIT_GRID, 5, W0)
    assert split == [harness._grid_scan(problem, MUON, (eta,), 5, W0)[0]
                     for eta in SPLIT_GRID]


def test_row_blocks_with_more_cores_than_rows_run_one_row_each(monkeypatch):
    problem, W0 = split_mlp()
    value_grad, threads = problem.value_grad, []

    def recording(W):
        threads.append(threading.current_thread().name)
        return value_grad(W)

    problem.value_grad = recording
    entered = spy_scopes(monkeypatch)
    grid = SPLIT_GRID[1:4]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more thread switches between the blocks' writes
    try:
        split = harness._grid_scan(problem, MUON, grid, 4, W0, cores=7)
    finally:
        sys.setswitchinterval(interval)
    split_or_skip(entered)
    assert entered[-1] == len(grid) - 1
    # after value(W0) and the probe's two calls, all in the caller, each
    # one-row block calls the oracle for 4 steps and a final value
    later = threads[3:]
    assert threads[:3] == ["MainThread"] * 3
    assert len(later) == 5 * len(grid) and later.count("MainThread") == 5
    assert split == harness._grid_scan(problem, MUON, grid, 4, W0)


@pytest.mark.parametrize("cores", [1, 2])
def test_grid_scan_calls_the_oracle_once_per_block_and_step(monkeypatch, cores):
    problem, W0 = split_mlp()
    value_grad, stacks = problem.value_grad, []

    def counting(W):
        stacks.append(len(W) if W.ndim == 3 else "one matrix")
        return value_grad(W)

    problem.value_grad = counting
    entered = spy_scopes(monkeypatch)
    grid, T = tuple(np.geomspace(0.001, 1.0, 9)), 4
    scan = harness._grid_scan(problem, MUON, grid, T, W0, cores=cores)
    assert not any(diverged for _, diverged in scan)
    if cores == 1:
        # value(W0), then T steps and the final values of the one block of 9 rows
        assert stacks == ["one matrix"] + [9] * (T + 1)
        return
    split_or_skip(entered)
    # value(W0) and the probe's two calls, then the blocks of 5 and 4 rows
    assert stacks[:3] == ["one matrix"] * 3
    assert sorted(stacks[3:]) == [4] * (T + 1) + [5] * (T + 1)


@pytest.mark.parametrize("where", ["caller", "helper"])
def test_a_failing_row_block_reaches_the_caller(monkeypatch, two_blas_threads, where):
    problem, W0 = split_mlp()
    value_grad, calls = problem.value_grad, []

    def failing(W):
        name = threading.current_thread().name
        calls.append(name)
        # value(W0) and the probe's two calls run in the caller; the blocks follow
        in_helper = name.startswith("muonlab-rows")
        if len(calls) > 3 and in_helper == (where == "helper"):
            raise np.linalg.LinAlgError(f"the oracle failed in the {where}")
        return value_grad(W)

    problem.value_grad = failing
    threads = threading.active_count()
    entered = spy_scopes(monkeypatch)
    with pytest.raises(np.linalg.LinAlgError, match=f"failed in the {where}"):
        harness._grid_scan(problem, SIMPLIFIED, SPLIT_GRID, 5, W0, cores=2)
    split_or_skip(entered)
    assert two_blas_threads() == 2 and threading.active_count() == threads


@pytest.mark.parametrize("problem_spec,spec,grid,cores", [
    (SPLIT_MLP, SIMPLIFIED, SPLIT_GRID, 1),
    (SPLIT_MLP, SIMPLIFIED, SPLIT_GRID[:1], 2),
    (MLP_SPEC, SIMPLIFIED, SPLIT_GRID, 2),
], ids=["one-core", "one-point", "below-the-floor"])
def test_scan_missing_a_split_condition_does_not_probe(monkeypatch, problem_spec, spec, grid,
                                                       cores):
    problem = harness.build_problem(problem_spec, 1)
    W0 = problem.metadata.get("W_init", np.ones(problem.shape))
    entered = spy_scopes(monkeypatch)
    harness._grid_scan(problem, spec, grid, 3, W0, cores=cores)
    assert entered == []


@pytest.mark.parametrize("problem_spec,spec", [
    (SPLIT_MLP, {"kind": "gd"}),
    (SPLIT_MLP, {"kind": "adam"}),
    (SPLIT_MLP, {"kind": "muon", "orthogonalizer": "ns"}),
    (dict(QUAD_SPEC, m=40, n=64), SIMPLIFIED),
], ids=["gd", "adam", "ns-route", "stacked-oracle"])
def test_scan_above_the_floor_splits_whatever_the_stepper_or_oracle(monkeypatch, problem_spec,
                                                                    spec):
    problem = harness.build_problem(problem_spec, 1)
    W0 = problem.metadata.get("W_init", np.ones(problem.shape))
    entered = spy_scopes(monkeypatch)
    split = harness._grid_scan(problem, spec, SPLIT_GRID, 5, W0, cores=2)
    split_or_skip(entered)
    assert entered == [PROBE, "_run_jobs", 1]
    assert not all(diverged for _, diverged in split)
    assert split == harness._grid_scan(problem, spec, SPLIT_GRID, 5, W0)


def test_figure1_study_never_splits(monkeypatch):
    usable_cores(monkeypatch, 2)
    entered, cores, scan = spy_scopes(monkeypatch), [], harness._grid_scan

    def recording(*args, **kwargs):
        cores.append(kwargs.get("cores", 1))
        return scan(*args, **kwargs)

    monkeypatch.setattr(harness, "_grid_scan", recording)
    # slices above SPLIT_MIN_ENTRIES; the caller runs the first block of rows
    harness.figure1_study(seeds=[3], T=20, m=40, n=64, cond=100.0)
    assert cores and set(cores) == {1}
    # one dispatch thread hands the spawned process its block, and no scope is
    # entered: each process keeps its own BLAS thread count
    assert entered == [1]


# fig3 on the MLP above: its trained 40x64 layer lets both grids split
FIG3_SPLIT = dict(input_dim=30, dims=(64, 40, 5), B=40, T=6, cadence=2, seed=1)


def test_figure3_pools_both_grids_byte_for_byte(tmp_path, monkeypatch, two_blas_threads):
    """On two cores one pool runs both grids' row blocks, Muon's first, before
    the first run; each recorded run follows on the calling thread at the
    process's thread count, given its grid's results as a list, and fig3 writes
    the bytes of one core."""
    events, run_rows, diagnostic_run = [], harness._GridRows.run, harness._diagnostic_run
    run_experiment = harness.run_experiment

    def rows(self, *args):
        events.append(("rows", self.opt.kind))
        return run_rows(self, *args)

    def recorded(problem, config, *args):
        events.append(("record", config.optimizer["kind"], threading.current_thread().name,
                       two_blas_threads()))
        return diagnostic_run(problem, config, *args)

    def running(config, seed, *, problem, scanned):
        events.append(("run", type(scanned).__name__, len(scanned) == len(config.lr_grid)))
        return run_experiment(config, seed, problem=problem, scanned=scanned)

    monkeypatch.setattr(harness._GridRows, "run", rows)
    monkeypatch.setattr(harness, "_diagnostic_run", recorded)
    monkeypatch.setattr(harness, "run_experiment", running)
    entered, outputs = spy_scopes(monkeypatch), []
    for cores in (1, 2):
        events.clear()
        usable_cores(monkeypatch, cores)
        side = tmp_path / str(cores)
        side.mkdir()
        monkeypatch.chdir(side)
        harness.figure3_suite(**FIG3_SPLIT, out_dir="out")
        outputs.append({p.name: p.read_bytes() for p in (side / "out").iterdir()})
    split_or_skip(entered)
    # both optimizers' probes, then one scope and one helper thread for the study
    assert entered == [PROBE, PROBE, "_run_jobs", 1]
    muon = "simplified_muon"
    # Muon's two blocks are queued first: a thread's first block is one of them
    assert events[0] == ("rows", muon)
    assert sorted(event[1] for event in events[:4]) == ["gd", "gd", muon, muon]
    assert events[4:] == [("run", "list", True), ("record", "gd", "MainThread", 2),
                          ("run", "list", True), ("record", muon, "MainThread", 2)]
    # csv, summary, config, grid and checkpoint per optimizer, and the study summary
    assert len(outputs[0]) == 11 and outputs[0] == outputs[1]


def test_a_failing_grid_block_in_the_study_pool_reaches_the_caller(monkeypatch,
                                                                   two_blas_threads):
    usable_cores(monkeypatch, 2)
    events, run_rows, build = [], harness._GridRows.run, harness.build_problem

    def rows(self, *args):
        events.append(("start", threading.current_thread().name))
        return run_rows(self, *args)

    def building(*args, **kwargs):
        problem = build(*args, **kwargs)
        value_grad, stacks = problem.value_grad, []

        def failing(W):
            # the second step of the first block to get there
            stacks.append(W.ndim)
            if stacks.count(3) == 2:
                events.append(("raise", threading.current_thread().name))
                raise RuntimeError("the oracle failed in a row block")
            return value_grad(W)

        problem.value_grad = failing
        return problem

    monkeypatch.setattr(harness._GridRows, "run", rows)
    monkeypatch.setattr(harness, "build_problem", building)
    entered = spy_scopes(monkeypatch)
    with pytest.raises(RuntimeError, match="failed in a row block"):
        harness.figure3_suite(**FIG3_SPLIT)
    split_or_skip(entered)
    assert entered[-2:] == ["_run_jobs", 1]
    # a thread takes no block once one has failed: the failing thread none, the
    # other at most the one it took while the exception left the block
    after = events[events.index(next(e for e in events if e[0] == "raise")) + 1:]
    raiser = next(name for kind, name in events if kind == "raise")
    assert not [name for kind, name in after if kind == "start" and name == raiser]
    assert len([name for kind, name in after if kind == "start"]) <= 1
    assert len([kind for kind, _ in events if kind == "start"]) < 4
    assert not [t.name for t in threading.enumerate() if t.name.startswith("muonlab-")]
    assert two_blas_threads() == 2


def test_a_study_with_a_grid_that_fails_the_probe_scans_each_grid_alone_then_records(
        tmp_path, monkeypatch, two_blas_threads):
    usable_cores(monkeypatch, 2)
    events, probe = [], harness._first_step_keeps_bits_on_one_thread
    run_rows, diagnostic_run, write = (harness._GridRows.run, harness._diagnostic_run,
                                       harness._write_artifact)

    def probing(problem, spec, eta, W0):
        events.append(("probe", spec["kind"]))
        return spec["kind"] != "gd" and probe(problem, spec, eta, W0)

    def rows(self, *args):
        events.append(("rows", self.opt.kind))
        return run_rows(self, *args)

    def recorded(problem, config, *args):
        events.append(("record", config.optimizer["kind"], threading.current_thread().name,
                       two_blas_threads()))
        return diagnostic_run(problem, config, *args)

    def writing(config, artifact):
        events.append(("write", config.name))
        return write(config, artifact)

    monkeypatch.setattr(harness, PROBE, probing)
    monkeypatch.setattr(harness._GridRows, "run", rows)
    monkeypatch.setattr(harness, "_diagnostic_run", recorded)
    monkeypatch.setattr(harness, "_write_artifact", writing)
    entered = spy_scopes(monkeypatch)
    harness.figure3_suite(**FIG3_SPLIT, out_dir=str(tmp_path))
    split_or_skip(entered)
    # no study pool: Muon's grid alone splits, as run_experiment's would
    assert entered == [PROBE, "_run_jobs", 1]
    muon = "simplified_muon"
    # both probes, then each grid's rows in optimizer order, then each recorded
    # run on the calling thread at the process's thread count and its artifact
    assert events == [("probe", "gd"), ("probe", muon),
                      ("rows", "gd"), ("rows", muon), ("rows", muon),
                      ("record", "gd", "MainThread", 2), ("write", "fig3_gd"),
                      ("record", muon, "MainThread", 2), ("write", "fig3_muon")]


def test_run_jobs_runs_every_job_once():
    """Seven threads on tiny jobs with frequent thread switches: every job runs
    once, and no helper thread outlives the call."""
    log = []
    jobs = [lambda k=k: log.append(k) for k in range(200)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        harness._run_jobs(jobs, 7)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(log) == list(range(200))
    assert not [t.name for t in threading.enumerate() if t.name.startswith("muonlab-")]


def test_run_jobs_hands_only_helper_jobs_to_submit(monkeypatch):
    """Given submit (a one-thread executor's, logging each job), the caller runs
    its own jobs and each helper thread hands its jobs to submit, with no thread
    scope entered; results come back in job order, and no job is handed out
    once one has failed."""
    executor = concurrent.futures.ThreadPoolExecutor(1, thread_name_prefix="submitted")
    submitted, ran, raised = [], [], threading.Event()

    def submit(call):
        submitted.append(call.args[0])
        return executor.submit(call)

    def job(k, fail=False, wait=False):
        ran.append((k, threading.current_thread().name.split("_")[0]))
        if fail:
            raised.set()
            raise RuntimeError(f"job {k} failed")
        if wait:
            # past the failure: its helper marks it as the exception leaves the job
            raised.wait(10)
            time.sleep(0.05)
        return k * k

    entered = spy_scopes(monkeypatch)
    with executor:
        jobs = [functools.partial(job, k) for k in range(7)]
        assert harness._run_jobs(jobs, 3, submit) == [k * k for k in range(7)]
        # two dispatch threads, each starting with its own first job, and no scope
        assert entered == [2] and 0 not in submitted and {1, 2} <= set(submitted)
        assert sorted(ran) == [(k, "submitted" if k in submitted else "MainThread")
                               for k in range(7)]
        submitted.clear()
        ran.clear()
        entered.clear()
        # the caller's job ends after the helper's has failed: no job is handed out
        jobs = ([functools.partial(job, 0, wait=True), functools.partial(job, 1, fail=True)]
                + [functools.partial(job, k) for k in range(2, 5)])
        with pytest.raises(RuntimeError, match="job 1 failed"):
            harness._run_jobs(jobs, 2, submit)
        assert sorted(ran) == [(0, "MainThread"), (1, "submitted")]
        assert submitted == [1] and entered == [1]
    assert not [t.name for t in threading.enumerate() if t.name.startswith("muonlab-")]


def test_only_two_functions_start_pools():
    """_run_jobs constructs the package's one thread pool and _fan_out its one
    process pool; nothing constructs a bare thread or process."""
    package = Path(harness.__file__).resolve().parent
    makers = {}
    for path in sorted(package.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    name = (getattr(getattr(node, "func", None), "id", None)
                            or getattr(getattr(node, "func", None), "attr", None))
                    if isinstance(node, ast.Call) and name in (
                            "ThreadPoolExecutor", "ProcessPoolExecutor", "Thread", "Process"):
                        makers.setdefault(name, set()).add(f"{path.stem}.{fn.name}")
    assert makers == {"ThreadPoolExecutor": {"harness._run_jobs"},
                      "ProcessPoolExecutor": {"harness._fan_out"}}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_multi_seed_order_and_independence(tmp_path, capsys):
    """run goes through run.seeds in order, and each seed's artifacts are
    those of that seed run alone (run.workers has no effect)."""
    outputs = {}
    for workers, seeds in ((3, None), (1, "1"), (1, "2"), (1, "3")):
        cfg_path = tmp_path / f"quad_w{workers}.toml"
        cfg_path.write_text(quad_config(seeds=(1, 2, 3), workers=workers,
                                        optimizer={"kind": "simplified_muon"},
                                        problem=dict(QUAD_SPEC, seed_mode="per_run"),
                                        T=20).to_text())
        out = tmp_path / f"w{workers}"
        argv = ["run", "--config", str(cfg_path), "--out", str(out)]
        assert harness.cli_main(argv + (["--seed", seeds] if seeds else [])) == 0
        printed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert printed == ([f"seed {seeds}"] if seeds else ["seed 1", "seed 2", "seed 3"])
        outputs.setdefault(workers, {}).update(
            {p.name: p.read_bytes() for p in out.iterdir() if not p.name.endswith("_config.txt")})
    assert len(outputs[3]) == 6 and outputs[3] == outputs[1]
    assert len({outputs[3][f"run_seed{s}.csv"] for s in (1, 2, 3)}) == 3


@pytest.mark.parametrize("iters", ["-3", "0"])
def test_cli_run_bad_iters_exits_2(tmp_path, capsys, iters):
    cfg_path = tmp_path / "quad.toml"
    cfg_path.write_text(quad_config().to_text())
    rc = harness.cli_main(["run", "--config", str(cfg_path), "--iters", iters,
                           "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.splitlines() == [f"error: --iters must be at least 1, got {iters}"]
    assert [p.name for p in tmp_path.iterdir()] == ["quad.toml"]


def test_cli_missing_config_exits_2(tmp_path, capsys):
    rc = harness.cli_main(["run", "--config", str(tmp_path / "absent.toml")])
    assert rc == 2
    assert not list(tmp_path.iterdir())


def test_cli_failure_removes_partial_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    # invalid decay makes ratio_study raise after the directory may exist
    rc = harness.cli_main(["ratio-study", "--m", "5", "--n", "6", "--samples", "5",
                           "--decay", "bogus", "--out", str(out)])
    assert rc == 2
    assert not out.exists() or not list(out.iterdir())


def test_cli_record_check_failure_exits_1_and_cleans_up(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "quad.toml"
    cfg_path.write_text(quad_config(seeds=(1, 2), T=5).to_text())
    out = tmp_path / "runs"
    out.mkdir()
    (out / "earlier.txt").write_text("kept")
    real = harness.validate_record
    runs = []

    def failing(rec, *args, **kwargs):
        # seed 1 runs and writes its artifacts; seed 2 fails on its first record
        if rec.t == 0:
            runs.append(rec)
        if len(runs) > 1:
            raise AssertionError("Rayleigh bound violated at t=0")
        return real(rec, *args, **kwargs)

    monkeypatch.setattr(harness, "validate_record", failing)
    rc = harness.cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: Rayleigh bound violated")
    assert sorted(os.listdir(out)) == ["earlier.txt"]


def test_cli_unmapped_failure_still_removes_created_files(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "quad.toml"
    cfg_path.write_text(quad_config(seeds=(1, 2), T=5).to_text())
    out = tmp_path / "runs"
    out.mkdir()
    (out / "earlier.txt").write_text("kept")
    # a file the command replaces existed before it, so it stays
    (out / "run_seed1_config.txt").write_text("older config")
    real = harness.run_experiment

    def failing(config, seed=None):
        # seed 1 runs and writes its artifacts; seed 2 fails before writing
        if seed == 2:
            raise KeyError("no such seed")
        return real(config, seed)

    monkeypatch.setattr(harness, "run_experiment", failing)
    with pytest.raises(KeyError, match="no such seed"):
        harness.cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert sorted(os.listdir(out)) == ["earlier.txt", "run_seed1_config.txt"]
    assert problems.new_files.get() is None  # nothing is recorded outside cli_main
    assert harness.ExperimentConfig.from_file(out / "run_seed1_config.txt").seeds == (1, 2)


def test_cli_unknown_flag_exits_2():
    assert harness.cli_main(["run", "--bogus"]) == 2


def test_cli_run_deterministic(tmp_path, capsys):
    config = quad_config()
    cfg_path = tmp_path / "quad.toml"
    cfg_path.write_text(config.to_text())
    out = tmp_path / "runs"
    assert harness.cli_main(["run", "--config", str(cfg_path), "--seed", "1",
                             "--out", str(out)]) == 0
    first = {p: (out / p).read_bytes() for p in os.listdir(out)}
    assert harness.cli_main(["run", "--config", str(cfg_path), "--seed", "1",
                             "--out", str(out)]) == 0
    second = {p: (out / p).read_bytes() for p in os.listdir(out)}
    assert first == second and first


def test_cli_run_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "quad.toml"
    cfg_path.write_text(quad_config().to_text())
    rc = harness.cli_main(["run", "--config", str(cfg_path), "--seed", "2",
                           "--iters", "10", "--optimizer", "simplified_muon",
                           "--lr", "0.05", "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "final f" in capsys.readouterr().out


def test_cli_verify_norm_lemmas(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = harness.cli_main(["verify", "--check", "norm-lemmas",
                           "--instances", "100", "--seed", "7",
                           "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["instances"] == 100


def test_cli_verify_taylor(tmp_path, capsys):
    rc = harness.cli_main(["verify", "--check", "taylor", "--iters", "50",
                           "--seed", "2"])
    assert rc == 0


@pytest.mark.parametrize("check,beta", [
    ("nonconvex-rL", "1.0"), ("momentum-error", "1.5"), ("momentum-error", "-0.1"),
    ("nonconvex-Lstar", "nan"), ("norm-lemmas", "inf"),
])
def test_cli_verify_beta_outside_unit_interval_exits_2(tmp_path, capsys, check, beta):
    out = tmp_path / "report.json"
    rc = harness.cli_main(["verify", "--check", check, "--beta", beta, "--iters", "5",
                           "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: --beta must lie in [0, 1)")
    assert not out.exists()


@pytest.mark.parametrize("beta", ["1.5", "1.0", "nan", "-0.1"])
def test_cli_run_beta_outside_unit_interval_exits_2(tmp_path, capsys, monkeypatch, beta):
    cfg_path = tmp_path / "muon.toml"
    out = tmp_path / "out"
    cfg_path.write_text(quad_config(optimizer={"kind": "muon"}, T=5).to_text())

    def no_problem(*args, **kwargs):
        raise AssertionError("a problem was built for a refused --beta")

    monkeypatch.setattr(harness, "build_problem", no_problem)
    rc = harness.cli_main(["run", "--config", str(cfg_path), "--beta", beta,
                           "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: --beta must lie in [0, 1)")
    assert not out.exists()


@pytest.mark.parametrize("optimizer,message", [
    ({"kind": "muon", "beta": 1.5}, "optimizer.beta must lie in [0, 1), got 1.5"),
    ({"kind": "muon", "beta": 1.0}, "optimizer.beta must lie in [0, 1), got 1.0"),
    ({"kind": "muon", "beta": float("nan")}, "optimizer.beta must lie in [0, 1), got nan"),
    ({"kind": "muon", "orthogonalizer": "ns", "ns_steps": -1},
     "optimizer.ns_steps must be >= 0, got -1"),
    ({"kind": "simplified_muon", "ns_steps": -1}, "optimizer.ns_steps must be >= 0, got -1"),
], ids=["beta-1.5", "beta-1.0", "beta-nan", "ns_steps-ns", "ns_steps-svd"])
@pytest.mark.parametrize("grid", [None, (0.01, 0.1)], ids=["schedule", "lr_grid"])
def test_cli_run_bad_muon_key_names_the_key(tmp_path, capsys, optimizer, message, grid):
    cfg_path = tmp_path / "muon.toml"
    cfg_path.write_text(quad_config(optimizer=optimizer, T=5, lr_grid=grid).to_text())
    rc = harness.cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert [p.name for p in tmp_path.iterdir()] == ["muon.toml"]


@pytest.mark.parametrize("iters", ["0", "-5"])
@pytest.mark.parametrize("check", ["taylor", "norm-lemmas", "nonconvex-rL"])
def test_cli_verify_iters_below_one_names_the_flag(tmp_path, capsys, monkeypatch, iters, check):
    def no_check(*args, **kwargs):
        raise AssertionError("a check ran for a refused --iters")

    monkeypatch.setattr(harness, "VERIFY_CHECKS", {
        name: (no_check, no_check, which) for name, (_, _, which) in harness.VERIFY_CHECKS.items()})
    out = tmp_path / "report.json"
    rc = harness.cli_main(["verify", "--check", check, "--iters", iters, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --iters must be at least 1, got {iters}"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("changes,message", [
    ({"optimizer": {"kind": "gd_nesterov", "mu": float("nan")}},
     "optimizer.mu must be finite, got nan"),
    ({"optimizer": {"kind": "adamw", "weight_decay": float("nan")}},
     "optimizer.weight_decay must be finite, got nan"),
    ({"problem": dict(QUAD_SPEC, seed=-1)}, "problem.seed must be at least 0, got -1"),
    ({"problem": dict(QUAD_SPEC, m=0)}, "problem.m must be at least 2, got 0"),
], ids=["nan-mu", "nan-weight_decay", "negative-seed", "zero-m"])
def test_cli_run_out_of_range_value_names_the_key(tmp_path, capsys, monkeypatch, changes,
                                                  message):
    def no_problem(*args, **kwargs):
        raise AssertionError("a problem was built for a refused value")

    monkeypatch.setattr(harness, "build_problem", no_problem)
    cfg_path = tmp_path / "bad.toml"
    cfg_path.write_text(quad_config(T=5, **changes).to_text())
    rc = harness.cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert [p.name for p in tmp_path.iterdir()] == ["bad.toml"]


def refuse_work(*args, **kwargs):
    raise AssertionError("work began for a refused input")


@pytest.fixture
def no_work(monkeypatch):
    """Every builder, study and check the CLI calls raises AssertionError (exit 1)."""
    for name in ("build_problem", "figure2_suite", "figure3_suite", "ratio_study"):
        monkeypatch.setattr(harness, name, refuse_work)
    for name in ("gaussian_features", "lowrank_features", "load_features_csv"):
        monkeypatch.setattr(problems, name, refuse_work)
    monkeypatch.setattr(harness, "VERIFY_CHECKS", {
        name: (refuse_work, refuse_work, which)
        for name, (_, _, which) in harness.VERIFY_CHECKS.items()})


@pytest.mark.parametrize("base,line,message", [
    ({}, "problem.n = 0", "problem.n must be at least 1, got 0"),
    ({}, "problem.cond = nan", "problem.cond must exceed 1, got nan"),
    ({}, "problem.wstar_scale = -1.0", "problem.wstar_scale must lie in [0, 1e300], got -1.0"),
    ({}, "problem.wstar_scale = 1e308",
     "problem.wstar_scale must lie in [0, 1e300], got 1e+308"),
    ({"optimizer": {"kind": "adam"}}, "optimizer.eps = nan",
     "optimizer.eps must be positive, got nan"),
    ({"optimizer": {"kind": "adam"}}, "optimizer.beta1 = nan",
     "optimizer.beta1 must lie in [0, 1), got nan"),
    ({"optimizer": {"kind": "adamw"}}, "optimizer.beta2 = nan",
     "optimizer.beta2 must lie in [0, 1), got nan"),
    ({"optimizer": {"kind": "adam"}}, "optimizer.beta1 = 1.0",
     "optimizer.beta1 must lie in [0, 1), got 1.0"),
    ({"optimizer": {"kind": "adam"}}, "optimizer.eps = inf",
     "optimizer.eps must be finite, got inf"),
    ({"w0": "gaussian"}, "run.seeds = 2,-1", "run.seeds must be at least 0, got -1"),
    ({"problem": MLP_SPEC}, "problem.dims = 4,0,3", "problem.dims must be at least 1, got 0"),
    ({"problem": MLP_SPEC}, "problem.input_dim = 0",
     "problem.input_dim must be at least 1, got 0"),
    ({"problem": {"kind": "linear_mse", "d": 8, "B": 12}}, "problem.c = 0",
     "problem.c must be at least 1, got 0"),
    ({"schedule": {"kind": "nonconvex_L"}}, "schedule.beta = 1.0",
     "schedule.beta must lie in [0, 1), got 1.0"),
    ({"schedule": {"kind": "adaptive_rL"}}, "schedule.L = -2.0",
     "schedule.L must be positive, got -2.0"),
    # a 10^6 x 10^6 curvature matrix would need 8 TB
    ({}, "problem.m = 1000000", "problem.m must be at most 4096, got 1000000"),
    ({"problem": MLP_SPEC}, "problem.dims = 4,5000,3",
     "problem.dims must be at most 4096, got 5000"),
], ids=["n", "cond", "wstar_scale", "wstar_scale-huge", "eps", "beta1", "beta2", "beta1-one",
        "eps-inf", "seeds", "dims", "input_dim", "c", "schedule-beta", "schedule-L", "m-huge",
        "dims-huge"])
def test_cli_run_refuses_an_out_of_range_key_before_any_work(tmp_path, capsys, no_work, base,
                                                             line, message):
    cfg_path = tmp_path / "bad.toml"
    cfg_path.write_text(with_line(quad_config(T=5, **base).to_text(), line))
    rc = harness.cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert [p.name for p in tmp_path.iterdir()] == ["bad.toml"]


@pytest.mark.parametrize("argv,message", [
    (["fig2", "--iters", "0"], "--iters must be at least 1, got 0"),
    (["fig2", "--classes", "0"], "--classes must be at least 1, got 0"),
    (["fig3", "--cadence", "0"], "--cadence must be at least 1, got 0"),
    (["spectra", "--kind", "gaussian", "--d", "0"], "--d must be at least 1, got 0"),
    (["spectra", "--kind", "lowrank", "--B", "-1"], "--B must be at least 1, got -1"),
    (["ratio-study", "--samples", "0"], "--samples must be at least 1, got 0"),
    (["ratio-study", "--cond", "nan"], "--cond must exceed 1, got nan"),
    (["ratio-study", "--m", "0"], "--m must be at least 1, got 0"),
    (["verify", "--check", "nonconvex-rL", "--sigma", "nan"],
     "--sigma must be at least 0, got nan"),
    (["verify", "--check", "nonconvex-rL", "--sigma", "-1"],
     "--sigma must be at least 0, got -1.0"),
    (["verify", "--check", "momentum-error", "--sigma", "inf"], "--sigma must be finite, got inf"),
    (["verify", "--check", "momentum-error", "--batch", "0"], "--batch must be at least 1, got 0"),
    (["verify", "--check", "norm-lemmas", "--instances", "0"],
     "--instances must be at least 1, got 0"),
    (["verify", "--check", "momentum-error", "--trials", "10"],
     "--trials must be at least 50, got 10"),
    (["verify", "--check", "taylor", "--seed", "-1"], "--seed must be at least 0, got -1"),
    (["run", "--lr", "-1"], "--lr must be positive, got -1.0"),
    (["run", "--lr", "nan"], "--lr must be positive, got nan"),
    (["run", "--lr", "inf"], "--lr must be finite, got inf"),
    (["spectra", "--kind", "lowrank", "--d", "5", "--B", "8", "--ratio", "9"],
     "--ratio must be at most min(--d, --B) = 5, got 9.0"),
    (["ratio-study", "--m", "5000"], "--m must be at most 4096, got 5000"),
    (["spectra", "--kind", "gaussian", "--B", "100000"], "--B must be at most 4096, got 100000"),
])
def test_cli_refuses_an_out_of_range_flag_before_any_work(tmp_path, capsys, no_work, argv,
                                                          message):
    made = []
    if argv[0] == "run":
        cfg_path = tmp_path / "quad.toml"
        cfg_path.write_text(quad_config(T=5).to_text())
        argv = argv + ["--config", str(cfg_path)]
        made.append(cfg_path.name)
    rc = harness.cli_main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert [p.name for p in tmp_path.iterdir()] == made


def test_range_table_names_only_config_keys_and_flags():
    keys = {f"{section}.{key}" for section, (_, kinds) in harness.CONFIG_SCHEMA.items()
            for types in kinds.values() for key in types}
    parser = harness._build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    flags = {flag for command in commands.values() for action in command._actions
             for flag in action.option_strings}
    assert set(harness._RANGES) - keys - flags == set()


# ---------------------------------------------------------------------------
# exit-code contract
# ---------------------------------------------------------------------------

# values that miss most ranges or are no number at all; none is a large size
_EDGE = st.sampled_from((0, -1, float("inf"), float("-inf"), float("nan"), "many"))
_UNIT = st.floats(0.0, 1.0, exclude_max=True)
_SIZE = st.integers(1, 6)
# each optimizer key's range, as valid draws
_OPTIMIZER_DRAWS = {"beta": _UNIT, "beta1": _UNIT, "beta2": _UNIT, "mu": _UNIT,
                    "eps": st.floats(1e-12, 1.0), "weight_decay": st.floats(0.0, 1.0),
                    "ns_steps": st.integers(0, 6),
                    "orthogonalizer": st.sampled_from(("svd", "ns"))}


def _edged(draw, values: dict, optional=(), counts=(0, 0, 1, 2)) -> dict:
    """values (name -> strategy of its valid values) drawn, with up to two of them
    (a count drawn from counts) drawn as edge values instead and each name of
    optional perhaps left out."""
    # half the inputs keep every value in range, so runs and checks go through too
    count = draw(st.sampled_from(counts))
    edged = draw(st.lists(st.sampled_from(sorted(values)), min_size=count, max_size=count,
                          unique=True))
    drawn = {name: draw(_EDGE if name in edged else valid) for name, valid in values.items()}
    return {name: value for name, value in drawn.items()
            if name in edged or name not in optional or draw(st.booleans())}


def _argv(flags: dict) -> list:
    return [text for flag, value in flags.items() for text in (flag, harness._format_value(value))]


@st.composite
def _run_inputs(draw):
    """(config text, run flags, oversized key or None): a small config and flags,
    each number drawn from its range, up to two of them as edge values; or, in a
    fifth of the inputs, every value in range but one size key of the problem
    kind above the cap of 4096, up to 1e9 (one entry of a dims list)."""
    kind = draw(st.sampled_from(("quadratic", "linear_mse", "mlp")))
    words = {"problem.kind": kind,
             "optimizer.kind": draw(st.sampled_from(tuple(harness._OPTIMIZERS))),
             "run.want_J": draw(st.booleans()), "run.want_L": draw(st.booleans()),
             "run.w0": draw(st.sampled_from(("zeros", "gaussian", "init")))}
    numbers = {"problem.seed": st.integers(0, 9), "schedule.eta": st.floats(1e-4, 1.0),
               "run.T": st.integers(1, 3), "run.cadence": st.integers(1, 3),
               "run.seeds": st.lists(st.integers(0, 9), min_size=1, max_size=2,
                                     unique=True).map(tuple),
               "run.lr_grid": st.lists(st.floats(1e-4, 1.0), min_size=1, max_size=3).map(tuple)}
    if kind == "quadratic":
        numbers.update({"problem.m": st.integers(2, 6), "problem.n": _SIZE,
                        "problem.cond": st.floats(1.5, 1e4),
                        "problem.wstar_scale": st.floats(0.0, 60.0)})
    else:
        numbers.update({"problem.B": _SIZE, "problem.target_ratio": st.floats(1.0, 6.0)})
    if kind == "linear_mse":
        words["problem.features"] = draw(st.sampled_from(("gaussian", "lowrank")))
        numbers.update({"problem.d": _SIZE, "problem.c": _SIZE})
    if kind == "mlp":
        words["problem.data"] = draw(st.sampled_from(("lowrank", "gaussian")))
        numbers.update({"problem.input_dim": _SIZE, "problem.train_layer": st.integers(0, 2),
                        "problem.dims": st.lists(_SIZE, min_size=1, max_size=3).map(tuple)})
    for key in harness._OPTIMIZERS[words["optimizer.kind"]][2]:
        numbers[f"optimizer.{key}"] = _OPTIMIZER_DRAWS[key]
    flags = {"--iters": st.integers(1, 3), "--lr": st.floats(1e-4, 1.0),
             "--seed": st.integers(0, 9)}
    if words["optimizer.kind"] == "muon":  # the one kind that reads what --beta sets
        flags["--beta"] = _UNIT
    sizes = [key for key in numbers
             if any(what == "be at most 4096" for _, what in harness._RANGES.get(key, ()))]
    oversized = draw(st.sampled_from(sizes)) if draw(st.integers(0, 4)) == 0 else None
    values = _edged(draw, {**numbers, **flags},
                    optional=("run.lr_grid", "problem.train_layer", *flags),
                    counts=(0,) if oversized else (0, 0, 1, 2))
    if oversized:
        big = draw(st.integers(4097, 10 ** 9))
        values[oversized] = (values[oversized][:-1] + (big,) if oversized == "problem.dims"
                             else big)
    text = "".join(f"{key} = {harness._format_value(value)}\n"
                   for key, value in {**words, **values}.items() if not key.startswith("--"))
    return text, _argv({flag: value for flag, value in values.items()
                        if flag.startswith("--")}), oversized


def _check_exit(rc: int, err: str, names, workdir: Path, kept) -> None:
    """No traceback; on exit 2 exactly one error line, naming one of names, and no
    file in workdir but those of kept."""
    assert "Traceback" not in err
    if rc == 2:
        lines = [line for line in err.splitlines() if "error:" in line]
        assert len(lines) == 1, err
        assert any(name in lines[0] for name in names), lines[0]
        assert sorted(p.name for p in workdir.rglob("*") if p.is_file()) == sorted(kept)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs=_run_inputs())
def test_cli_run_exit_code_contract_property(capsys, inputs):
    text, flags, oversized = inputs
    with tempfile.TemporaryDirectory() as scratch:
        workdir = Path(scratch)
        (workdir / "cfg.toml").write_text(text)
        rc = harness.cli_main(["run", "--config", str(workdir / "cfg.toml"),
                               "--out", str(workdir / "out"), *flags])
        err = capsys.readouterr().err
        assert rc in (0, 2), err
        names = [line.split(" = ")[0] for line in text.splitlines()] + flags[::2]
        if oversized:
            assert rc == 2, err
            names = [f"{oversized} must be at most 4096"]
        _check_exit(rc, err, names, workdir, ["cfg.toml"])


@st.composite
def _verify_argv(draw):
    check = draw(st.sampled_from(tuple(harness.VERIFY_CHECKS)))
    # --iters, --instances and --trials are always given: their defaults are full scale
    return ["verify", "--check", check, *_argv(_edged(draw, {
        "--iters": st.integers(1, 3), "--instances": _SIZE, "--trials": st.integers(50, 60),
        "--seed": st.integers(0, 9), "--sigma": st.floats(0.0, 2.0), "--batch": st.integers(1, 4),
        "--beta": _UNIT}, optional=("--seed", "--sigma", "--batch", "--beta")))]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_verify_argv())
def test_cli_verify_exit_code_contract_property(capsys, argv):
    with tempfile.TemporaryDirectory() as scratch:
        workdir = Path(scratch)
        rc = harness.cli_main([*argv, "--out", str(workdir / "report.json")])
        err = capsys.readouterr().err
        assert rc in (0, 1, 2), err
        _check_exit(rc, err, argv[3::2], workdir, [])


@pytest.mark.parametrize("name,changes", [
    ("target_ratio", {"problem": {"kind": "linear_mse", "d": 8, "B": 12,
                                  "features": "lowrank", "target_ratio": float("nan")}}),
    ("target_ratio", {"problem": dict(MLP_SPEC, target_ratio=float("nan"))}),
    ("schedule.eta", {"schedule": {"kind": "constant", "eta": float("inf")}}),
], ids=["linmse-nan-target_ratio", "mlp-nan-target_ratio", "constant-inf-eta"])
def test_cli_run_nonfinite_value_exits_2(tmp_path, capsys, name, changes):
    cfg_path = tmp_path / "bad.toml"
    out = tmp_path / "out"
    cfg_path.write_text(quad_config(T=5, **changes).to_text())
    rc = harness.cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and name in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("kind", ["muon", "simplified_muon"])
def test_cli_run_newton_schulz_directions_pass_the_rayleigh_check(tmp_path, capsys, kind):
    """NS5 maps a singular value of 1 to about 1.0101, so on a 2x1 quadratic J_t
    passes L_t times the rank 1, but not L_t * ||O_t||_F^2."""
    cfg_path = tmp_path / "ns.toml"
    cfg_path.write_text(quad_config(problem=dict(QUAD_SPEC, m=2, n=1),
                                    optimizer={"kind": kind, "orthogonalizer": "ns"},
                                    schedule={"kind": "constant", "eta": 0.01},
                                    want_J=True, want_L=True, T=5).to_text())
    rc = harness.cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0, capsys.readouterr().err
    rows = harness.read_records_csv(str(tmp_path / "out" / "run_seed1.csv"))
    assert all(rec.J_t > rec.L_t and rec.flags == "" for rec in rows[:-1])


def test_cli_run_whose_distances_overflow_on_squaring_exits_0(tmp_path, capsys):
    """A step of 1e200 diverges at once; the comparison ratio's D_op ** 2 passes
    the largest float, and the run still ends with its summary."""
    cfg_path = tmp_path / "big.toml"
    cfg_path.write_text(quad_config(problem=dict(QUAD_SPEC, m=3, n=4),
                                    schedule={"kind": "constant", "eta": 1e200}, T=5).to_text())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warnings
        rc = harness.cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0 and "Traceback" not in capsys.readouterr().err
    summary = json.loads((tmp_path / "out" / "run_seed1_summary.json").read_text())
    assert summary["truncated"] and summary["comparison_ratio"] == float("inf")


def test_cli_run_whose_whole_grid_diverges_exits_2_naming_the_grid(tmp_path, capsys):
    """Near W* the divergence guard's floor trips on the first step of every point."""
    cfg_path = tmp_path / "grid.toml"
    cfg_path.write_text(quad_config(problem=dict(QUAD_SPEC, wstar_scale=2.19e-36),
                                    optimizer={"kind": "simplified_muon"}, lr_grid=(1.0,),
                                    T=3).to_text())
    rc = harness.cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: every stepsize in run.lr_grid = 1.0 diverged"]


@pytest.mark.parametrize("problem,schedule", [
    (MLP_SPEC, {"kind": "adaptive_Lstar"}),
    (MLP_SPEC, {"kind": "adaptive_rL"}),
    (QUAD_SPEC, {"kind": "constant", "etta": 0.1}),
    (QUAD_SPEC, {"kind": "theory_J"}),
    (QUAD_SPEC, {"kind": "constant", "eta": (0.1, 0.2)}),
], ids=["mlp-adaptive_Lstar", "mlp-adaptive_rL", "constant-misspelt-eta", "theory_J-no-J",
        "constant-list-eta"])
def test_cli_run_bad_schedule_exits_2(tmp_path, capsys, problem, schedule):
    cfg_path = tmp_path / "bad.toml"
    cfg_path.write_text(quad_config(problem=problem, schedule=schedule, T=5).to_text())
    rc = harness.cli_main(["run", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("key,problem", [
    ("m", dict(QUAD_SPEC, m=(6, 8))),
    ("cond", dict(QUAD_SPEC, cond="high")),
    ("seed", dict(QUAD_SPEC, seed=(1, 2))),
    ("dims", dict(MLP_SPEC, dims="a")),
    ("dims", dict(MLP_SPEC, dims=5.5)),
    ("train_layer", dict(MLP_SPEC, train_layer=(1, 2))),
    ("B", dict(MLP_SPEC, B=(20, 30))),
    ("c", {"kind": "linear_mse", "d": 8, "B": 12, "c": (3, 4)}),
    ("m", dict(QUAD_SPEC, m=6.7)),
    ("half", dict(QUAD_SPEC, half="no")),
    ("dims", dict(MLP_SPEC, dims=(5.5, 4, 3))),
    ("train_layer", dict(MLP_SPEC, train_layer=1.5)),
    ("skip_header", {"kind": "linear_mse", "features": "csv", "path": "features.csv",
                     "skip_header": "no"}),
    ("path", {"kind": "linear_mse", "features": "csv"}),
    ("wstar_scale", dict(QUAD_SPEC, wstar_scale=float("inf"))),
    ("wstar_scale", dict(QUAD_SPEC, wstar_scale=float("nan"))),
    # ranges set by other keys
    ("train_layer", dict(MLP_SPEC, dims=(8, 6, 4), train_layer=5)),
    ("target_ratio", {"kind": "linear_mse", "d": 10, "features": "lowrank",
                      "target_ratio": 50.0}),
    ("target_ratio", dict(MLP_SPEC, input_dim=10, B=5, target_ratio=9.0)),
], ids=["quad-list-m", "quad-word-cond", "quad-list-seed", "mlp-word-dims",
        "mlp-float-dims", "mlp-list-train_layer", "mlp-list-B", "linmse-list-c",
        "quad-fraction-m", "quad-word-half", "mlp-fraction-dims",
        "mlp-fraction-train_layer", "linmse-word-skip_header", "linmse-csv-no-path",
        "quad-inf-wstar_scale", "quad-nan-wstar_scale", "mlp-past-last-train_layer",
        "linmse-above-min-target_ratio", "mlp-above-min-target_ratio"])
def test_cli_run_bad_problem_value_exits_2(tmp_path, capsys, key, problem):
    cfg_path = tmp_path / "bad.toml"
    out = tmp_path / "out"
    cfg_path.write_text(quad_config(problem=problem, T=5).to_text())
    rc = harness.cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert f"problem.{key}" in err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


# verify --check name -> (report name, bound variant)
VERIFY_REPORTS = {
    "norm-lemmas": ("norm_lemmas", None),
    "momentum-error": ("momentum_error_lemma", None),
    "taylor": ("quadratic_taylor_identity", None),
    "descent-rL": ("descent_inequalities", "rL"),
    "descent-Lstar": ("descent_inequalities", "Lstar"),
    "adaptive-rL": ("adaptive_rate_bound", "rL"),
    "adaptive-Lstar": ("adaptive_rate_bound", "Lstar"),
    "constant-rL": ("constant_step_linear_bound", "rL"),
    "constant-Lstar": ("constant_step_linear_bound", "Lstar"),
    "constant-J": ("constant_step_linear_bound", "J"),
    "rate-J": ("nonconvex_J_bound", None),
    "nonconvex-rL": ("nonconvex_rate_bound", "rL"),
    "nonconvex-Lstar": ("nonconvex_rate_bound", "Lstar"),
}


def test_verify_checks_table_covers_every_report():
    assert list(harness.VERIFY_CHECKS) == list(VERIFY_REPORTS)


def refuse_non_json(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("check", list(harness.VERIFY_CHECKS))
def test_cli_verify_every_check(tmp_path, capsys, check):
    out = tmp_path / "report.json"
    rc = harness.cli_main(["verify", "--check", check, "--iters", "40", "--trials", "50",
                           "--instances", "20", "--seed", "3", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text(), parse_constant=refuse_non_json)
    name, which = VERIFY_REPORTS[check]
    assert report["name"] == name
    assert report["params"].get("which") == which


def test_cli_verify_zero_instances_exits_2(capsys):
    rc = harness.cli_main(["verify", "--check", "norm-lemmas", "--instances", "0"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.splitlines() == ["error: --instances must be at least 1, got 0"]


def test_verify_smoothness_constants_bit_exact():
    records, problem = harness.quadratic_check_run(seed=8, T=60, schedule_kind="constant")
    meta, r = problem.metadata, min(problem.shape)
    for which, C in (("rL", r * meta["L"]), ("Lstar", meta["L_star"])):
        report = verify.check_descent_inequalities(records, problem, which=which)
        assert report.params["coef"] == C
        # the same seed draws the same quadratic
        adaptive, same = harness.quadratic_check_run(seed=8, T=30,
                                                     schedule_kind=f"adaptive_{which}")
        assert verify.check_adaptive_rate_bound(adaptive, same, which=which).params["C"] == C
        p = verify.check_constant_step_linear_bound(records, problem, which=which).params
        assert not p.get("vacuous")
        base = (1.0 - p["eta"] / p["D_op"]) ** p["T"] * p["delta"]
        assert p["bound"] == base + 0.5 * C * p["D_op"] * p["eta"]
        if which == "rL":
            # scaling by 0.5 is exact, so multiplying r and L separately agrees
            assert p["bound"] == base + 0.5 * r * meta["L"] * p["D_op"] * p["eta"]


def test_readme_lists_every_verify_check():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("`verify --check` accepts:", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"`([^`]+)`", block) == list(harness.VERIFY_CHECKS)


def test_readme_config_example_runs(tmp_path, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    text = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    config = harness.ExperimentConfig.from_text(text)
    cfg_path = tmp_path / "readme.toml"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert harness.cli_main(["run", "--config", str(cfg_path), "--iters", "3",
                             "--out", str(out)]) == 0
    suffixes = (".csv", "_summary.json", "_config.txt")
    suffixes += ("_grid.json",) if config.lr_grid else ()
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"{config.name}_seed{seed}{suffix}" for seed in config.seeds for suffix in suffixes)


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    j, l = capsys.readouterr().out.splitlines()
    prob = scope["prob"]
    # Muon settles near the optimum; l_t finds the operator norm L of the
    # constant Hessian, and J_t along a semi-orthogonal O is at most L * rank(O)
    assert prob.value(scope["W"]) < 1e-3 * prob.value(np.zeros(prob.shape))
    assert 0.0 < float(j) <= prob.metadata["L"] * min(prob.shape) + 1e-9
    l_val, converged = ast.literal_eval(l)
    assert converged and l_val == pytest.approx(prob.metadata["L"], rel=1e-6)


def test_cli_ratio_study(tmp_path, capsys):
    rc = harness.cli_main(["ratio-study", "--m", "5", "--n", "6",
                           "--samples", "25", "--seed", "1",
                           "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "ratio_study.csv").exists()


@pytest.mark.parametrize("argv,suite,params", [
    (["fig2"], "figure2_suite", {"kind": "lowrank", "c": 100, "seed": 0, "T": 400,
                                 "out_dir": None}),
    (["fig2", "--kind", "gaussian", "--classes", "10", "--seed", "3", "--iters", "7",
      "--out", "o", "--paper-dims"], "figure2_suite",
     {"kind": "gaussian", "c": 10, "seed": 3, "T": 7, "out_dir": "o", "d": 784, "B": 1000}),
    (["fig3"], "figure3_suite", {"seed": 0, "T": 200, "cadence": 10, "out_dir": None}),
    (["fig3", "--seed", "3", "--iters", "7", "--cadence", "2", "--out", "o", "--paper-dims"],
     "figure3_suite", {"seed": 3, "T": 7, "cadence": 2, "out_dir": "o", "input_dim": 784,
                       "dims": (128, 64, 10)}),
], ids=["fig2", "fig2-flags", "fig3", "fig3-flags"])
def test_cli_fig_flags_reach_their_parameters(monkeypatch, capsys, argv, suite, params):
    calls = []

    def spy(**kwargs):
        calls.append(kwargs)
        return {}, {"comparison_ratio": 1.0, "final_f": {}, "muon_side_wins": 0,
                    "sampled_steps": 0}

    monkeypatch.setattr(harness, suite, spy)
    assert harness.cli_main(argv) == 0
    assert calls == [params]


def test_cli_fig3_tiny_run(tmp_path, capsys):
    out = tmp_path / "out"
    assert harness.cli_main(["fig3", "--iters", "2", "--cadence", "1", "--out", str(out)]) == 0
    assert "Muon side wins at " in capsys.readouterr().out
    summary = json.loads((out / "fig3_summary.json").read_text())
    assert summary["T"] == 2 and summary["cadence"] == 1
    for name in ("gd", "muon"):
        assert len(harness.read_records_csv(out / f"fig3_{name}_seed0.csv")) == 3


def test_cli_ratio_study_refuses_an_unknown_decay(tmp_path, capsys, no_work):
    rc = harness.cli_main(["ratio-study", "--decay", "foo", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "argument --decay: invalid choice: 'foo'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    ([], "one of the arguments --csv --kind is required"),
    (["--csv", "x.csv", "--kind", "gaussian"], "argument --kind: not allowed with argument --csv"),
], ids=["neither", "both"])
def test_cli_spectra_takes_one_matrix_source(tmp_path, capsys, no_work, argv, message):
    rc = harness.cli_main(["spectra", *argv, "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_spectra(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    rc = harness.cli_main(["spectra", "--kind", "lowrank", "--d", "10",
                           "--B", "15", "--ratio", "1.41", "--seed", "0",
                           "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,sigma"
    assert len(lines) == 11


def test_cli_spectra_rejects_nan_ratio(tmp_path, capsys, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a feature matrix was drawn for a refused --ratio")

    monkeypatch.setattr(problems, "lowrank_features", no_draw)
    out = tmp_path / "s.csv"
    for ratio in ("nan", "0.5"):
        rc = harness.cli_main(["spectra", "--kind", "lowrank", "--d", "10", "--B", "15",
                               "--ratio", ratio, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --ratio must be at least 1, got {float(ratio)}"]
        assert not out.exists()


def test_cli_spectra_rejects_all_zero_features(tmp_path, capsys):
    zeros = tmp_path / "zeros.csv"
    zeros.write_text("0,0,0\n0,0,0\n")
    out = tmp_path / "s.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = harness.cli_main(["spectra", "--csv", str(zeros), "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {zeros} is all zeros: its concentration ratio is undefined"]
    assert not out.exists()
