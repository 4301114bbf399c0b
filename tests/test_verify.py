import copy
import json

import numpy as np
import pytest

from muonlab import diagnostics as dg
from muonlab import harness, matcore, optim, problems, verify
import oracles


@pytest.fixture(scope="module")
def taylor_run():
    return harness.quadratic_check_run(seed=3, T=100, schedule_kind="constant", eta=0.2)


@pytest.fixture(scope="module")
def adaptive_Lstar_run():
    return harness.quadratic_check_run(seed=4, T=200, schedule_kind="adaptive_Lstar")


@pytest.fixture(scope="module")
def adaptive_rL_run():
    return harness.quadratic_check_run(seed=5, T=200, schedule_kind="adaptive_rL")


@pytest.fixture(scope="module")
def constant_run():
    return harness.quadratic_check_run(seed=6, T=200, schedule_kind="constant")


# ---------------------------------------------------------------------------
# Taylor identity
# ---------------------------------------------------------------------------

def test_taylor_identity_holds(taylor_run):
    records, problem = taylor_run
    report = verify.check_quadratic_taylor_identity(records, problem)
    assert report.passed
    assert report.worst_margin <= 1e-11


def test_taylor_identity_zero_eta_is_identity():
    prob = problems.quadratic_new(np.diag([2.0, 1.0]), np.zeros((2, 2)))
    recs = [dg.StepRecord(t=0, f=1.5, grad_F=1.0, grad_nuc=1.0, eta=0.0, J_t=3.0),
            dg.StepRecord(t=1, f=1.5, grad_F=1.0, grad_nuc=1.0)]
    report = verify.check_quadratic_taylor_identity(recs, prob)
    assert report.passed


def test_taylor_identity_single_step_hand_check():
    prob = problems.quadratic_new(np.diag([2.0, 1.0]), np.zeros((2, 2)))
    W = np.eye(2)
    eta = 0.1
    G = prob.grad(W)
    gnuc = matcore.nuclear_norm(G)
    O = matcore.orthogonalize_svd(G)
    J = dg.j_t(prob, W, O)
    assert J == pytest.approx(3.0, rel=1e-12)
    W1 = W - eta * O
    drop = prob.value(W) - prob.value(W1)
    assert drop == pytest.approx(eta * gnuc - eta ** 2 * 3.0 / 2.0, rel=1e-12)


def test_taylor_identity_refuses_non_quadratic():
    rng = np.random.default_rng(0)
    mse = problems.linear_mse_new(rng.standard_normal((3, 8)), rng.standard_normal((2, 8)))
    recs = [dg.StepRecord(t=0, f=1.0, grad_F=1.0, grad_nuc=1.0, eta=0.1, J_t=1.0),
            dg.StepRecord(t=1, f=0.9, grad_F=1.0, grad_nuc=1.0)]
    with pytest.raises(ValueError):
        verify.check_quadratic_taylor_identity(recs, mse)


def test_taylor_identity_detects_tampered_f(taylor_run):
    records, problem = taylor_run
    tampered = copy.deepcopy(records)
    tampered[40].f *= 1.01
    report = verify.check_quadratic_taylor_identity(tampered, problem)
    assert not report.passed
    assert report.violations


# ---------------------------------------------------------------------------
# descent inequalities
# ---------------------------------------------------------------------------

def test_descent_inequalities_quadratic(taylor_run):
    records, problem = taylor_run
    for which in ("rL", "Lstar"):
        report = verify.check_descent_inequalities(records, problem, which=which)
        assert report.passed, which


def test_descent_inequalities_linear_mse():
    spec = {"kind": "linear_mse", "features": "gaussian", "d": 6, "B": 12, "c": 3,
            "seed": 9}
    config = harness.ExperimentConfig(
        problem=spec, optimizer={"kind": "simplified_muon"},
        schedule={"kind": "constant", "eta": 0.05}, T=60, cadence=1, want_J=True)
    art = harness.run_experiment(config, 9)
    problem = harness.build_problem(spec, 9)
    for which in ("rL", "Lstar"):
        report = verify.check_descent_inequalities(art.records, problem, which=which)
        assert report.passed, which


def test_descent_inequalities_detect_inflated_eta(taylor_run):
    records, problem = taylor_run
    tampered = copy.deepcopy(records)
    for rec in tampered:
        if rec.eta is not None:
            rec.eta *= 10.0
    report = verify.check_descent_inequalities(tampered, problem, which="Lstar")
    assert not report.passed


def test_descent_inequalities_missing_constant(taylor_run):
    records, problem = taylor_run
    bare = problems.Problem(problem.shape, problem.value_grad, problem.hvp,
                            metadata={"kind": "quadratic"})
    with pytest.raises(ValueError):
        verify.check_descent_inequalities(records, bare, which="Lstar")


# diag(2, 1) at c = 1/2: L_star = 3, a constant every hand-made row below uses
EDGE_PROBLEM = problems.quadratic_new(np.diag([2.0, 1.0]), np.zeros((2, 3)))


@pytest.mark.parametrize("f", [100.0, 0.25])
def test_descent_inequalities_slack_edge(f):
    """A next f above the bound by 1e-7 of max(1, |f|) is a violation, and one
    above it by 1e-9 of it is not: the slack is 1e-8 of it."""
    eta, gnuc = 0.5, 0.5
    bound = f - eta * gnuc + 0.5 * 3.0 * eta ** 2

    def passed(excess):
        recs = [dg.StepRecord(t=0, f=f, grad_F=gnuc, grad_nuc=gnuc, eta=eta),
                dg.StepRecord(t=1, f=bound + excess * max(1.0, abs(bound)),
                              grad_F=1.0, grad_nuc=1.0)]
        return verify.check_descent_inequalities(recs, EDGE_PROBLEM, which="Lstar").passed

    assert not passed(1e-7)
    assert passed(1e-9)


# ---------------------------------------------------------------------------
# adaptive rate bound
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("expect", [2.0, 0.25])
def test_adaptive_rate_bound_eta_rule_edge(expect):
    """An eta off the rule grad_nuc / L_star by 1e-7 of max(1, rule) is refused,
    and one off it by 1e-11 of it is taken: the tolerance is 1e-9 of it."""
    def records(off):
        eta = expect + off * max(1.0, expect)
        return [dg.StepRecord(t=0, f=10.0, grad_F=1.0, grad_nuc=3.0 * expect, eta=eta,
                              dist_F=1.0, dist_op=1.0),
                dg.StepRecord(t=1, f=1.0, grad_F=1.0, grad_nuc=1.0, dist_F=1.0, dist_op=1.0)]

    for off in (1e-7, -1e-7):
        with pytest.raises(ValueError, match="does not follow the adaptive Lstar rule"):
            verify.check_adaptive_rate_bound(records(off), EDGE_PROBLEM, which="Lstar")
    assert verify.check_adaptive_rate_bound(records(1e-11), EDGE_PROBLEM, which="Lstar").passed


def test_adaptive_rate_bound_holds(adaptive_Lstar_run, adaptive_rL_run):
    records, problem = adaptive_Lstar_run
    assert verify.check_adaptive_rate_bound(records, problem, which="Lstar").passed
    records, problem = adaptive_rL_run
    assert verify.check_adaptive_rate_bound(records, problem, which="rL").passed


def test_adaptive_rate_bound_t0_equals_delta(adaptive_Lstar_run):
    records, problem = adaptive_Lstar_run
    report = verify.check_adaptive_rate_bound(records, problem, which="Lstar")
    delta = report.params["delta"]
    assert records[0].f - problems.f_star(problem) == pytest.approx(delta, rel=1e-12)


def test_adaptive_rate_bound_degenerate_start():
    Q = problems.make_ill_conditioned_Q(3, 10.0, "geometric", seed=11)
    prob = problems.quadratic_new(Q, np.zeros((3, 4)))
    W = np.zeros((3, 4))
    sched, _ = harness.make_schedule({"kind": "adaptive_Lstar"}, prob, 5, W)
    assert sched.divisor == prob.metadata["L_star"]
    recs = []
    for t in range(5):
        G = prob.grad(W)
        gnuc = matcore.nuclear_norm(G)
        eta = optim.next_eta(sched, grad_nuc=gnuc)
        d_f, d_op = dg.distance_metrics(W, prob.metadata["W_star"])
        recs.append(dg.StepRecord(t=t, f=prob.value(W), grad_F=matcore.frobenius_norm(G),
                                  grad_nuc=gnuc, eta=eta, dist_F=d_f, dist_op=d_op))
        W = optim.simplified_muon_step(W, G, eta)
    d_f, d_op = dg.distance_metrics(W, prob.metadata["W_star"])
    recs.append(dg.StepRecord(t=5, f=prob.value(W), grad_F=0.0, grad_nuc=0.0,
                              dist_F=d_f, dist_op=d_op))
    report = verify.check_adaptive_rate_bound(recs, prob, which="Lstar")
    assert report.passed
    assert recs[-1].f == 0.0  # trajectory never moved


def test_adaptive_rate_bound_refuses_wrong_schedule(constant_run):
    records, problem = constant_run
    with pytest.raises(ValueError):
        verify.check_adaptive_rate_bound(records, problem, which="Lstar")


def test_adaptive_rate_bound_detects_tampering(adaptive_Lstar_run):
    records, problem = adaptive_Lstar_run
    tampered = copy.deepcopy(records)
    # pretend the run made no progress: the hyperbolic decay at the horizon
    # is far below the initial gap, so the final row must violate
    tampered[-1].f = tampered[0].f
    report = verify.check_adaptive_rate_bound(tampered, problem, which="Lstar")
    assert not report.passed


# ---------------------------------------------------------------------------
# constant-step bound
# ---------------------------------------------------------------------------

def test_constant_step_bounds_hold(constant_run):
    records, problem = constant_run
    for which in ("rL", "Lstar", "J"):
        report = verify.check_constant_step_linear_bound(records, problem, which=which)
        assert report.passed, which
        assert "bound" in report.params


def test_constant_step_bound_T0_equals_delta():
    # a single-step run: bound at T=1 with eta tiny stays essentially delta
    records, problem = harness.quadratic_check_run(seed=12, T=1, schedule_kind="constant")
    report = verify.check_constant_step_linear_bound(records, problem, which="Lstar")
    assert report.passed


def test_constant_step_bound_vacuous_eta():
    prob = problems.quadratic_new(np.diag([2.0, 1.0]), np.zeros((2, 2)))
    recs = [dg.StepRecord(t=0, f=1.0, grad_F=1.0, grad_nuc=1.0, eta=5.0,
                          dist_F=1.0, dist_op=1.0, J_t=1.0),
            dg.StepRecord(t=1, f=0.9, grad_F=1.0, grad_nuc=1.0,
                          dist_F=1.0, dist_op=1.0)]
    report = verify.check_constant_step_linear_bound(recs, prob, which="Lstar")
    assert report.passed
    assert report.params.get("vacuous")


@pytest.mark.parametrize("eta", [5.0, 0.5], ids=["vacuous", "in-range"])
def test_constant_step_J_bound_refuses_a_non_quadratic_at_any_eta(eta):
    # D_op = 1: eta = 5 would take the vacuous return, eta = 0.5 the bound
    rng = np.random.default_rng(0)
    mse = problems.linear_mse_new(rng.standard_normal((3, 8)), rng.standard_normal((2, 8)))
    recs = [dg.StepRecord(t=0, f=1.0, grad_F=1.0, grad_nuc=1.0, eta=eta,
                          dist_F=1.0, dist_op=1.0, J_t=1.0),
            dg.StepRecord(t=1, f=0.9, grad_F=1.0, grad_nuc=1.0, dist_F=1.0, dist_op=1.0)]
    with pytest.raises(ValueError, match="applies to quadratic problems only"):
        verify.check_constant_step_linear_bound(recs, mse, which="J")


def test_constant_step_bound_detects_tampering(constant_run):
    records, problem = constant_run
    tampered = copy.deepcopy(records)
    tampered[-1].f = tampered[0].f * 2.0
    report = verify.check_constant_step_linear_bound(tampered, problem, which="Lstar")
    assert not report.passed


def test_constant_step_bound_requires_constant_eta(adaptive_Lstar_run):
    records, problem = adaptive_Lstar_run
    with pytest.raises(ValueError):
        verify.check_constant_step_linear_bound(records, problem, which="Lstar")


# ---------------------------------------------------------------------------
# the record contract: a whole run from t = 0, cadence 1, and every column a
# check reads on each step row
# ---------------------------------------------------------------------------

# (check, its variant, the name its messages give, the columns each step row needs)
RECORD_CHECKS = [
    (verify.check_quadratic_taylor_identity, {}, "the Taylor identity check", ("eta", "J_t")),
    (verify.check_descent_inequalities, {"which": "rL"}, "the descent check", ("eta",)),
    (verify.check_adaptive_rate_bound, {"which": "Lstar"}, "the adaptive bound check",
     ("eta",)),
    (verify.check_constant_step_linear_bound, {"which": "Lstar"}, "the constant-step check",
     ("eta",)),
    (verify.check_constant_step_linear_bound, {"which": "J"}, "the constant-step check",
     ("eta", "J_t")),
    (verify.check_nonconvex_J_bound, {}, "the curvature-average rate check", ("eta", "J_t")),
]
RECORD_CHECK_IDS = ["taylor", "descent", "adaptive", "constant", "constant-J", "rate-J"]


@pytest.mark.parametrize("check, kwargs, name, columns", RECORD_CHECKS, ids=RECORD_CHECK_IDS)
def test_record_checks_refuse_cadence_2(constant_run, check, kwargs, name, columns):
    records, problem = constant_run
    every_other = records[::2]  # t = 0, 2, ..., 200: what a cadence-2 run logs
    assert every_other[-1] is records[-1]
    with pytest.raises(ValueError, match=f"^{name} needs records .*\\(cadence 1\\)$"):
        check(every_other, problem, **kwargs)


@pytest.mark.parametrize("check, kwargs, name, columns", RECORD_CHECKS, ids=RECORD_CHECK_IDS)
def test_record_checks_refuse_a_step_row_without_a_column(constant_run, check, kwargs,
                                                          name, columns):
    records, problem = constant_run
    for column in columns:
        tampered = copy.deepcopy(records)
        setattr(tampered[57], column, None)
        with pytest.raises(ValueError,
                           match=f"^{name} needs {column} at every step; step 57 has none$"):
            check(tampered, problem, **kwargs)


@pytest.mark.parametrize("check, kwargs, name, columns", RECORD_CHECKS, ids=RECORD_CHECK_IDS)
@pytest.mark.parametrize("part", ["none", "terminal-row", "tail"])
def test_record_checks_refuse_all_but_a_whole_run(constant_run, check, kwargs, name, columns,
                                                  part):
    """No records, the terminal row alone, and a run's tail from t = 10 are each
    refused: a check would pass the first two on no instance, and take the
    tail's first row for W_0 at its absolute t."""
    records, problem = constant_run
    given = {"none": [], "terminal-row": records[-1:], "tail": records[10:]}[part]
    with pytest.raises(ValueError, match=f"^{name} needs a whole run: a step row from "
                                         f"t = 0 and the terminal row$"):
        check(given, problem, **kwargs)


@pytest.mark.parametrize("check", [verify.check_constant_step_linear_bound,
                                   verify.check_nonconvex_J_bound])
def test_constant_step_checks_take_T_from_the_step_rows(constant_run, check):
    """T counts every step row, and a step row without eta is refused, not
    dropped from a shorter run of T - 1 steps."""
    records, problem = constant_run
    assert check(records, problem).params["T"] == len(records) - 1 == 200
    tampered = copy.deepcopy(records)
    tampered[120].eta = None
    with pytest.raises(ValueError, match="needs eta at every step; step 120 has none$"):
        check(tampered, problem)


# ---------------------------------------------------------------------------
# norm lemmas
# ---------------------------------------------------------------------------

def test_norm_lemmas_pass():
    report = verify.check_norm_lemmas(200, dims=(5, 8), seed=1)
    assert report.passed
    assert report.instances == 200
    assert not report.violations


def test_norm_lemmas_zero_matrix_edge():
    # every inequality holds with equality 0 <= 0 at A = 0
    A = np.zeros((3, 4))
    lam = np.diag([2.0, 1.0, 0.5, 3.0])
    assert matcore.frobenius_norm(A) == matcore.nuclear_norm(A) == 0.0
    assert matcore.lambda_norm(A, lam) == 0.0


def test_norm_lemmas_identity_weight_reduction():
    # with the identity weight the mixed inequality becomes the rank bracket
    rng = np.random.default_rng(13)
    A = rng.standard_normal((4, 6))
    n = 6
    lhs = matcore.lambda_norm(A, np.eye(n))
    assert lhs <= np.sqrt(n) * np.linalg.norm(A, 2) + 1e-9
    assert lhs == pytest.approx(matcore.frobenius_norm(A), rel=1e-12)


def test_norm_lemmas_deterministic():
    r1 = verify.check_norm_lemmas(50, seed=7)
    r2 = verify.check_norm_lemmas(50, seed=7)
    assert r1.to_json() == r2.to_json()


# ---------------------------------------------------------------------------
# momentum error lemma
# ---------------------------------------------------------------------------

def test_momentum_error_noiseless():
    report = verify.check_momentum_error_lemma(sigma=0.0, T=10, trials=50, seed=2)
    assert report.passed
    assert report.worst_margin <= 0.0


def test_momentum_error_no_momentum():
    report = verify.check_momentum_error_lemma(sigma=1.0, beta=0.0, T=10,
                                               trials=100, seed=3)
    assert report.passed


def test_momentum_error_refuses_small_trials():
    with pytest.raises(ValueError):
        verify.check_momentum_error_lemma(trials=10)


@pytest.mark.parametrize("beta", [1.0, 1.5, -0.1, float("nan")])
def test_momentum_checks_refuse_beta_outside_unit_interval(beta):
    with pytest.raises(ValueError, match=r"beta must lie in \[0, 1\)"):
        verify.check_momentum_error_lemma(beta=beta)
    problem = harness.build_problem({"kind": "quadratic", "m": 3, "n": 4, "cond": 10.0})
    with pytest.raises(ValueError, match=r"beta must lie in \[0, 1\)"):
        verify.check_nonconvex_rate_bound(problem, beta=beta)


def test_momentum_error_short_run():
    report = verify.check_momentum_error_lemma(sigma=1.0, batch=1, beta=0.9, T=15,
                                               trials=80, seed=4)
    assert report.passed


def test_nonconvex_J_bound_is_tight_on_quadratics(taylor_run):
    records, problem = taylor_run
    report = verify.check_nonconvex_J_bound(records, problem)
    assert report.passed
    # the relation is an identity on quadratics: margin at machine scale
    assert abs(report.worst_margin) <= 1e-9 * max(1.0, abs(report.params["rhs"]))


def test_nonconvex_J_bound_detects_tampering(taylor_run):
    records, problem = taylor_run
    tampered = copy.deepcopy(records)
    for rec in tampered[:-1]:
        rec.grad_nuc *= 1.01
        rec.grad_F *= 1.01
    report = verify.check_nonconvex_J_bound(tampered, problem)
    assert not report.passed


# ---------------------------------------------------------------------------
# nonconvex rate bound
# ---------------------------------------------------------------------------

def test_nonconvex_rate_bound_deterministic():
    prob_spec = {"kind": "quadratic", "m": 8, "n": 10, "cond": 100.0,
                 "decay": "two_cluster", "seed": 5}
    problem = harness.build_problem(prob_spec, 5)
    for which in ("rL", "Lstar"):
        report = verify.check_nonconvex_rate_bound(problem, which=which, T=150,
                                                   beta=0.9, sigma=0.0, runs=1, seed=5)
        assert report.passed, which


@pytest.mark.parametrize("which", ["rL", "Lstar"])
def test_nonconvex_rate_bound_refuses_a_nan_margin(which):
    problem = harness.build_problem({"kind": "quadratic", "m": 3, "n": 4, "cond": 10.0})
    with pytest.raises(ValueError, match=f"^nonconvex-{which} at 0: margin .* is nan$"):
        verify.check_nonconvex_rate_bound(problem, which=which, T=3, sigma=float("nan"))


@pytest.mark.parametrize("kwargs,name", [
    ({"runs": 0}, "runs"), ({"T": 0}, "T"), ({"eta": 0.0}, "eta"), ({"eta": -0.1}, "eta"),
], ids=["runs-0", "T-0", "eta-0", "eta-negative"])
def test_nonconvex_rate_bound_names_a_bad_argument_before_any_oracle_call(kwargs, name):
    problem = harness.build_problem({"kind": "quadratic", "m": 3, "n": 4, "cond": 10.0})

    def unreachable(W):
        raise AssertionError("the oracle was called")

    problem.value_grad = unreachable
    with pytest.raises(ValueError, match=f"^{name} must be"):
        verify.check_nonconvex_rate_bound(problem, **kwargs)


def test_nonconvex_rate_bound_stochastic():
    prob_spec = {"kind": "quadratic", "m": 6, "n": 8, "cond": 50.0,
                 "decay": "two_cluster", "seed": 6}
    problem = harness.build_problem(prob_spec, 6)
    report = verify.check_nonconvex_rate_bound(problem, which="Lstar", T=100,
                                               beta=0.9, sigma=2.0, batch=1,
                                               runs=20, seed=6)
    assert report.passed


@pytest.mark.parametrize("which", ["rL", "Lstar"])
@pytest.mark.parametrize("beta,sigma,batch,eta", [
    (0.9, 0.0, 1, None), (0.5, 2.0, 4, None), (0.0, 1.5, 1, 0.01), (0.99, 0.3, 16, 0.002),
])
def test_nonconvex_rate_rhs_is_the_closed_form(which, beta, sigma, batch, eta):
    problem = harness.build_problem({"kind": "quadratic", "m": 5, "n": 7, "cond": 30.0,
                                     "seed": 2}, 2)
    T = 4
    report = verify.check_nonconvex_rate_bound(problem, which=which, T=T, beta=beta,
                                               sigma=sigma, batch=batch, eta=eta, seed=1)
    meta, r = problem.metadata, min(problem.shape)
    C = r * meta["L"] if which == "rL" else meta["L_star"]
    delta = problem.value(np.zeros(problem.shape)) - meta["f_star"]
    if eta is None:  # the prescribed stepsize sqrt((1 - beta) delta / (T C))
        eta = np.sqrt((1 - beta) * delta / (T * C))
        assert report.params["eta"] == pytest.approx(eta, rel=1e-14)
    want = oracles.nonconvex_rate_rhs(delta, T, eta, C, r, beta, sigma, batch)
    assert report.params["rhs"] == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("beta", [0.0, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("sigma,batch", [(1.0, 1), (0.5, 4), (3.0, 9)])
def test_momentum_error_bound_is_the_closed_form(beta, sigma, batch):
    for t in (0, 1, 2, 7, 50):
        want = oracles.momentum_error_bound(sigma, batch, beta, t)
        assert verify.momentum_error_bound(sigma, batch, beta, t) == pytest.approx(
            want, rel=1e-14), t
        # the oracle bounds the root of the deviation's exact second moment
        weights = [beta ** t] + [(1 - beta) * beta ** (t - s) for s in range(1, t + 1)]
        assert sigma / np.sqrt(batch) * np.sqrt(np.sum(np.square(weights))) <= want * (1 + 1e-12)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def test_check_report_round_trip():
    report = verify.check_norm_lemmas(20, seed=8)
    again = verify.CheckReport(**json.loads(report.to_json()))
    assert again == report


def test_reports_always_carry_raw_margin(taylor_run):
    records, problem = taylor_run
    report = verify.check_quadratic_taylor_identity(records, problem)
    assert np.isfinite(report.worst_margin)


def strict_json(text):
    """json.loads that refuses the non-JSON constants NaN and +-Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_reports_that_check_no_margin_are_strict_json():
    vacuous_records, vacuous_problem = harness.quadratic_check_run(
        seed=0, T=30, schedule_kind="constant", eta=1e6)
    vacuous = verify.check_constant_step_linear_bound(vacuous_records, vacuous_problem)
    assert vacuous.params["vacuous"]
    assert vacuous.passed
    assert strict_json(vacuous.to_json())["worst_margin"] is None
    assert verify.CheckReport(**json.loads(vacuous.to_json())) == vacuous
    # a check of no step row is refused, not passed on no instance
    taylor_records, taylor_problem = harness.quadratic_check_run(
        seed=3, T=5, schedule_kind="constant", eta=0.2)
    with pytest.raises(ValueError, match="needs a whole run"):
        verify.check_quadratic_taylor_identity(taylor_records[:1], taylor_problem)


def test_norm_lemmas_refuse_zero_instances():
    with pytest.raises(ValueError, match="at least one instance"):
        verify.check_norm_lemmas(0)
