import ast
import concurrent.futures
import dataclasses
import json
import os
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from muonlab import diagnostics as dg
from muonlab import harness, optim, problems, verify


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
_NUMBER = st.floats(allow_nan=False)
_WHOLE = st.integers(-10 ** 9, 10 ** 9)
_SEED_MODE = st.sampled_from(("fixed", "per_run"))


@settings(max_examples=200, deadline=None)
@given(problem=st.one_of(
           st.fixed_dictionaries({"kind": st.just("linear_mse"), "seed_mode": _SEED_MODE,
                                  "features": st.sampled_from(("gaussian", "lowrank", "csv")),
                                  "path": _TEXT, "c": _WHOLE,
                                  "skip_header": st.booleans()}),
           st.fixed_dictionaries({"kind": st.just("mlp"), "loss": _TEXT,
                                  "seed_mode": _SEED_MODE,
                                  "data": st.sampled_from(("lowrank", "gaussian")),
                                  "dims": st.lists(_WHOLE, min_size=1, max_size=4).map(tuple),
                                  "target_ratio": _NUMBER}),
           st.fixed_dictionaries({"kind": st.just("quadratic"), "m": _WHOLE,
                                  "seed_mode": _SEED_MODE,
                                  "wstar": st.sampled_from(("uniform", "gaussian")),
                                  "cond": _NUMBER, "decay": _TEXT})),
       optimizer=st.fixed_dictionaries({"kind": st.just("muon"), "beta": _NUMBER,
                                        "orthogonalizer": st.sampled_from(("svd", "ns"))}),
       eta=_NUMBER,
       run=st.fixed_dictionaries({
           "T": st.integers(1, 10 ** 9), "cadence": st.integers(1, 10 ** 9),
           "want_J": st.booleans(), "checkpoint": st.booleans(), "workers": _WHOLE,
           "seeds": st.lists(_WHOLE, min_size=1, max_size=4, unique=True).map(tuple),
           "lr_grid": st.none() | st.lists(_NUMBER, min_size=1, max_size=4).map(tuple),
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
], ids=["seed_mode", "wstar", "features", "data", "w0"])
def test_cli_run_misspelt_word_exits_2(tmp_path, capsys, problem, line):
    cfg_path = tmp_path / "bad.toml"
    cfg_path.write_text(with_line(quad_config(problem=problem, T=5).to_text(), line))
    rc = harness.cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    key = line.split(" = ")[0]
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {key} takes one of ")
    assert [p.name for p in tmp_path.iterdir()] == ["bad.toml"]


def test_cli_run_bad_run_value_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.toml"
    cfg_path.write_text(quad_config().to_text() + "run.T = 4.5\n")
    rc = harness.cli_main(["run", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.splitlines() == ["error: run.T takes a whole number, got 4.5"]


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
    with pytest.raises(ValueError, match="unknown loss 'bogus'"):
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
        f, G = problem.eval_value_grad(W)
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
    number of steps that shrinks as the stepsize grows."""
    W_star = np.random.default_rng(seed).standard_normal(shape)

    def value_grad(W):
        E = W - W_star
        return float(np.sum(E * E)), -2.0 * E

    return problems.Problem(shape, lambda W: value_grad(W)[0],
                            lambda W: value_grad(W)[1], lambda W, D: -2.0 * D,
                            value_grad=value_grad)


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
    # the quadratic's oracle takes the whole stack at once; GD at eta > 2/L
    # blows up along the top eigenvector, sooner the larger eta is
    problem = harness.build_problem(QUAD_SPEC, 1)
    assert problem.value_grad_stacks
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
    {"kind": "linear_mse", "seed": 1, "seed_mode": "fixed", "d": 5, "B": 9, "c": 2,
     "features": "lowrank", "target_ratio": 1.5, "path": "unread.csv",
     "skip_header": True},
    {"kind": "mlp", "seed": 1, "seed_mode": "fixed", "input_dim": 6, "dims": (5, 4, 3),
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
    assert summary["J_mean"] == pytest.approx(dg.average_j(j_vals), rel=1e-12)
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


def _good_row() -> str:
    return ",".join(["0", "1.0", "2.0", "3.0"] + [""] * (len(harness.CSV_COLUMNS) - 4))


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
UNREFERENCED_ALLOWED = {
    "diagnostics.vonneumann_bound": "criterion 7's trace-inequality oracle",
    "diagnostics.concentration_ratio": "criterion 8's effective-rank oracle",
    "matcore.kron": "brute-force Kronecker oracle for the row-major hvp checks",
    "matcore.vec_row": "the row-major vectorization those Kronecker oracles act on",
    "problems.load_labels_csv": "the labels reader that a problem.labels_path key will use",
}


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


def test_figure1_one_seed_starts_no_process(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-seed study started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    usable_cores(monkeypatch, 2)
    summary = harness.figure1_study(seeds=[3], **FIG1_SMALL)
    assert [run["seed"] for run in summary["runs"]] == [3]


def test_figure1_child_error_reaches_caller(monkeypatch):
    usable_cores(monkeypatch, 2)
    with pytest.raises(ValueError, match="cond must exceed 1") as excinfo:
        harness.figure1_study(seeds=(0, 1), T=5, m=6, n=8, cond=0.5)
    # raised in a child: the pool attaches the child's traceback as the cause
    assert type(excinfo.value.__cause__).__name__ == "_RemoteTraceback"


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
    assert err.splitlines() == ["error: run.T must be at least 1"]
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
], ids=["quad-list-m", "quad-word-cond", "quad-list-seed", "mlp-word-dims",
        "mlp-float-dims", "mlp-list-train_layer", "mlp-list-B", "linmse-list-c",
        "quad-fraction-m", "quad-word-half", "mlp-fraction-dims",
        "mlp-fraction-train_layer", "linmse-word-skip_header", "linmse-csv-no-path"])
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
    assert captured.err.splitlines() == [
        "error: the norm-lemma audit needs at least one instance"]


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


def test_cli_ratio_study(tmp_path, capsys):
    rc = harness.cli_main(["ratio-study", "--m", "5", "--n", "6",
                           "--samples", "25", "--seed", "1",
                           "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "ratio_study.csv").exists()


def test_cli_spectra(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    rc = harness.cli_main(["spectra", "--kind", "lowrank", "--d", "10",
                           "--B", "15", "--ratio", "1.41", "--seed", "0",
                           "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,sigma"
    assert len(lines) == 11
