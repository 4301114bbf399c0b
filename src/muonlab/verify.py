"""Executable checks of convergence bounds and norm inequalities.

Each checker runs against concrete step records or freshly sampled random
instances and produces a CheckReport: the number of instances tested, any
violations beyond the stated tolerance, and the worst raw margin (so stricter
post-hoc analysis stays possible; None, null in JSON, when no margin was
checked).  A check passes exactly when no violation exceeds its tolerance.

Margins are signed as lhs - rhs, so positive means the inequality failed by
that amount before slack was applied.

Checks that read records take them through one contract, _steps: a whole
run from t = 0 (a step row and the terminal row at least) at cadence 1,
each step row (all but the terminal row) carrying the columns the check
reads, else a ValueError naming the check.  The stochastic checks add noise
to exact gradients, drawn from one seeded generator per trial or run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from typing import Optional, Sequence

import numpy as np

from . import matcore, optim
from .diagnostics import StepRecord, weighted_j_tilde
from .problems import Problem, quadratic_new, f_star, spd_from_eigs


@dataclass
class CheckReport:
    name: str
    params: dict = field(default_factory=dict)
    instances: int = 0
    violations: list = field(default_factory=list)
    worst_margin: Optional[float] = None
    tolerance: float = 0.0
    passed: bool = True

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


class _Margins:
    """Collects signed margins lhs - rhs; a violation is a margin above slack."""

    def __init__(self, tolerance: float):
        self.tolerance = tolerance
        self.worst = float("-inf")
        self.violations = []
        self.count = 0

    def check(self, lhs: float, rhs: float, slack: float, where, label: str = ""):
        margin = float(lhs - rhs)
        if math.isnan(margin):  # nan > slack is false, so it would pass unseen
            raise ValueError(f"{label} at {where}: margin {lhs} - {rhs} is nan")
        self.count += 1
        self.worst = max(self.worst, margin)
        if margin > slack:
            self.violations.append(
                {"where": where, "label": label, "lhs": float(lhs),
                 "rhs": float(rhs), "margin": margin})

    def report(self, name: str, params: dict, instances: int) -> CheckReport:
        return CheckReport(
            name=name, params=params, instances=instances,
            violations=self.violations,
            worst_margin=self.worst if self.count else None,
            tolerance=self.tolerance, passed=not self.violations)


def _steps(records: Sequence[StepRecord], check: str, *columns: str) -> Sequence[StepRecord]:
    """The step rows (all but the terminal one) of a whole cadence-1 run carrying columns."""
    if len(records) < 2 or records[0].t != 0:
        raise ValueError(f"{check} needs a whole run: a step row from t = 0 and the terminal row")
    ts = [r.t for r in records]
    if any(b != a + 1 for a, b in zip(ts, ts[1:])):
        raise ValueError(f"{check} needs records logged at every step (cadence 1)")
    for rec in records[:-1]:
        for column in columns:
            if getattr(rec, column) is None:
                raise ValueError(f"{check} needs {column} at every step; step {rec.t} has none")
    return records[:-1]


def _empirical_d_op(records: Sequence[StepRecord]) -> float:
    dops = [r.dist_op for r in records if r.dist_op is not None]
    if not dops:
        raise ValueError("records carry no operator distances; run with a known optimum")
    return max(dops)


def _smoothness_constant(problem: Problem, which: str) -> float:
    """C = r*L for which="rL" (Frobenius route), L_star for which="Lstar"."""
    meta = problem.metadata
    if which == "rL":
        if "L" not in meta:
            raise ValueError("problem metadata is missing the constant L")
        return min(problem.shape) * meta["L"]
    if which == "Lstar":
        if "L_star" not in meta:
            raise ValueError("problem metadata is missing the constant L_star")
        return meta["L_star"]
    raise ValueError(f"unknown variant {which!r}")


def _constant_eta(steps: Sequence[StepRecord], check: str) -> tuple:
    """(eta, T) of a run whose T step rows all took the one stepsize eta."""
    eta = steps[0].eta
    if any(abs(r.eta - eta) > 1e-12 * max(1.0, eta) for r in steps):
        raise ValueError(f"{check} needs a constant stepsize run")
    return eta, len(steps)


def _require_quadratic(problem: Problem, check: str) -> None:
    if problem.metadata.get("kind") != "quadratic":
        raise ValueError(f"{check} applies to quadratic problems only")


def check_quadratic_taylor_identity(records: Sequence[StepRecord], problem: Problem,
                                    tol: float = 1e-9) -> CheckReport:
    """Per-step identity f_{t+1} = f_t - eta*||grad||_* + eta^2*J_t/2.

    Exact on quadratics driven by momentum-free Muon on the SVD route (the
    exact polar factor), up to rounding; checked in relative terms per step.
    """
    _require_quadratic(problem, "the Taylor identity check")
    steps = _steps(records, "the Taylor identity check", "eta", "J_t")
    margins = _Margins(tol)
    for cur, nxt in zip(steps, records[1:]):
        pred = cur.f - cur.eta * cur.grad_nuc + 0.5 * cur.eta ** 2 * cur.J_t
        scale = max(abs(cur.f), abs(nxt.f), 1e-300)
        rel = abs(nxt.f - pred) / scale
        margins.check(rel, 0.0, tol, where=cur.t, label="taylor-residual")
    return margins.report("quadratic_taylor_identity", {"tol": tol}, len(steps))


def check_descent_inequalities(records: Sequence[StepRecord], problem: Problem,
                               which: str = "Lstar") -> CheckReport:
    """Per-step upper bound f_{t+1} <= f_t - eta*||grad||_* + C*eta^2/2.

    which="rL" uses C = r*L (Frobenius smoothness route); which="Lstar" uses
    C = L_star (spectral smoothness route).  Takes SVD-route records (the exact
    polar factor) and needs exact constants in the problem metadata.
    """
    coef = _smoothness_constant(problem, which)
    steps = _steps(records, "the descent check", "eta")
    margins = _Margins(1e-8)
    for cur, nxt in zip(steps, records[1:]):
        bound = cur.f - cur.eta * cur.grad_nuc + 0.5 * coef * cur.eta ** 2
        slack = 1e-8 * max(1.0, abs(nxt.f))
        margins.check(nxt.f, bound, slack, where=cur.t, label=f"descent-{which}")
    return margins.report("descent_inequalities", {"which": which, "coef": coef},
                          len(steps))


def check_adaptive_rate_bound(records: Sequence[StepRecord], problem: Problem,
                              which: str = "Lstar", tol: float = 1e-8) -> CheckReport:
    """Hyperbolic decay bound for the adaptive stepsize runs.

    Asserts f(W_t) - f* <= 2*C*Delta*D^2 / (2*C*D^2 + t*Delta) at every t,
    with C = r*L or L_star, D the empirical trajectory maximum of the
    operator distance to the optimum, and Delta the initial gap.  Refuses
    records whose stepsizes do not match the adaptive rule.
    """
    fs = f_star(problem)
    if fs is None:
        raise ValueError("the adaptive bound check needs a known optimal value")
    C = _smoothness_constant(problem, which)
    for rec in _steps(records, "the adaptive bound check", "eta"):
        expect = rec.grad_nuc / C
        if abs(rec.eta - expect) > 1e-9 * max(1.0, expect):
            raise ValueError(
                f"step {rec.t}: eta={rec.eta} does not follow the adaptive {which} rule")
    D = _empirical_d_op(records)
    delta = records[0].f - fs
    margins = _Margins(tol)
    if delta <= 0:
        # started at (numerically) the optimum; bound is 0 and the run must stay there
        for rec in records:
            margins.check(rec.f - fs, 0.0, tol, where=rec.t, label="degenerate-start")
    else:
        for rec in records:
            bound = 2.0 * C * delta * D * D / (2.0 * C * D * D + rec.t * delta)
            slack = tol * max(1.0, bound)
            margins.check(rec.f - fs, bound, slack, where=rec.t, label=f"adaptive-{which}")
    return margins.report(
        "adaptive_rate_bound",
        {"which": which, "C": C, "D_op": D, "delta": float(delta)}, len(records))


def check_constant_step_linear_bound(records: Sequence[StepRecord], problem: Problem,
                                     which: str = "Lstar", tol: float = 1e-8) -> CheckReport:
    """Final-iterate bound for constant-stepsize runs on star-convex problems.

    which="rL":    (1 - eta/D)^T * Delta + r*L*D*eta/2
    which="Lstar": (1 - eta/D)^T * Delta + L_star*D*eta/2
    which="J":     (1 - eta/D)^T * Delta + eta^2*Jtilde*T/2   (quadratics only,
                   where the third-derivative term vanishes; needs J_t logged
                   at every step)
    A stepsize above the empirical D is flagged vacuous, not failed.
    """
    if which == "J":
        _require_quadratic(problem, "the curvature-average bound")
    fs = f_star(problem)
    if fs is None:
        raise ValueError("the constant-step bound check needs a known optimal value")
    columns = ("eta", "J_t") if which == "J" else ("eta",)
    steps = _steps(records, "the constant-step check", *columns)
    eta, T = _constant_eta(steps, "the constant-step check")
    D = _empirical_d_op(records)
    delta = records[0].f - fs
    params = {"which": which, "eta": eta, "D_op": D, "T": T, "delta": float(delta)}
    if eta > D:
        return CheckReport("constant_step_linear_bound", params | {"vacuous": True},
                           instances=1, tolerance=tol, passed=True)
    base = (1.0 - eta / D) ** T * delta
    if which == "J":
        jt = weighted_j_tilde([r.J_t for r in steps], eta, D)
        bound = base + 0.5 * eta ** 2 * jt * T
        params["J_tilde"] = jt
    else:
        bound = base + 0.5 * _smoothness_constant(problem, which) * D * eta
    params["bound"] = float(bound)
    margins = _Margins(tol)
    slack = tol * max(1.0, abs(bound))
    margins.check(records[-1].f - fs, bound, slack, where=records[-1].t,
                  label=f"constant-{which}")
    return margins.report("constant_step_linear_bound", params, 1)


def check_nonconvex_J_bound(records: Sequence[StepRecord], problem: Problem,
                            tol: float = 1e-9) -> CheckReport:
    """Run-averaged nuclear gradient norm against the curvature-average bound.

    For a constant-stepsize momentum-free Muon run on the SVD route,
    (1/T) sum ||grad f(W_t)||_* <= (f(W_0) - f(W_T)) / (T*eta) + eta*Jbar/2
    plus a third-derivative term that vanishes on quadratics; on quadratics
    the relation is an identity, so the margin should sit at machine epsilon.
    Needs J_t logged at every step.
    """
    _require_quadratic(problem, "the curvature-average rate check")
    steps = _steps(records, "the curvature-average rate check", "eta", "J_t")
    eta, T = _constant_eta(steps, "the curvature-average rate check")
    lhs = float(np.mean([r.grad_nuc for r in steps]))
    j_bar = float(np.mean([r.J_t for r in steps]))
    rhs = (records[0].f - records[-1].f) / (T * eta) + 0.5 * eta * j_bar
    margins = _Margins(tol)
    slack = tol * max(1.0, abs(rhs))
    margins.check(lhs, rhs, slack, where=T, label="nonconvex-J")
    return margins.report("nonconvex_J_bound",
                          {"eta": eta, "T": T, "J_bar": j_bar,
                           "lhs": lhs, "rhs": float(rhs)}, 1)


# Instances and trials go through the randomized audits in blocks of stacked
# linear algebra; the block sizes bound the working set.  Run as one block
# each, 1000 instances and 200 trials raised a process's peak memory by
# 4.7 MB; in these blocks they raise it by 0.1 MB, as one at a time does.
_NORM_LEMMA_BLOCK = 100
_MOMENTUM_BLOCK = 50


def _spd_draw(n: int, rng: np.random.Generator) -> tuple:
    """The random numbers of one n x n SPD matrix: a Gaussian matrix, then eigenvalues."""
    return rng.standard_normal((n, n)), np.exp(rng.uniform(np.log(0.1), np.log(10.0), n))


def _spd_inverse(M: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(M)
    return (V / w[..., None, :]) @ V.swapaxes(-1, -2)


def check_norm_lemmas(n_instances: int = 1000, dims: tuple = (6, 9),
                      seed: int = 0, slack: float = 1e-9) -> CheckReport:
    """Randomized audit of the norm inequalities used throughout the analysis.

    Per instance, with random A (m x n) and random symmetric PD weight M:
      * Frobenius <= nuclear <= sqrt(r) * Frobenius
      * nuclear(A) <= sqrt(nuclear(M)) * weighted_norm(A, inv(M))
      * Frobenius(A) <= sqrt(opnorm(M)) * weighted_norm(A, inv(M))
      * weighted_norm(A, M) <= sqrt(opnorm(M)) * Frobenius(A)
      * weighted_norm(A, M) <= sqrt(nuclear(M)) * opnorm(A)
    plus the quadratic instantiation of the smoothness transfer: gradients of
    a random SPD quadratic are L-Lipschitz in Frobenius norm and
    L_star-Lipschitz from operator to nuclear norm.

    Instances are drawn one after another from one generator and evaluated
    in blocks of stacked linear algebra; the report is the one that
    evaluating each instance on its own gives, byte for byte.
    """
    if n_instances < 1:
        raise ValueError("the norm-lemma audit needs at least one instance")
    m, n = dims
    if max(m, n) > 20:
        raise ValueError("dims are capped at 20 for the randomized audit")
    rng = np.random.default_rng(seed)
    margins = _Margins(slack)
    r = min(m, n)
    for start in range(0, n_instances, _NORM_LEMMA_BLOCK):
        k = min(_NORM_LEMMA_BLOCK, n_instances - start)
        A, W1, W2 = (np.empty((k, m, n)) for _ in range(3))
        GM, GQ = np.empty((k, n, n)), np.empty((k, m, m))
        eM, eQ = np.empty((k, n)), np.empty((k, m))
        for i in range(k):
            A[i] = rng.standard_normal((m, n))
            GM[i], eM[i] = _spd_draw(n, rng)
            GQ[i], eQ[i] = _spd_draw(m, rng)
            W1[i] = rng.standard_normal((m, n))
            W2[i] = rng.standard_normal((m, n))
        M = spd_from_eigs(GM, eM)
        eigs = np.linalg.eigvalsh(M)
        m_op, m_nuc = eigs[:, -1], np.sum(eigs, axis=1)
        a_f = matcore.frobenius_norm(A)
        a_nuc = matcore.nuclear_norm(A)
        a_op = matcore.svd(A)[:, 0]
        a_w = matcore.lambda_norm(A, M)
        a_winv = matcore.lambda_norm(A, _spd_inverse(M))
        # smoothness transfer on k quadratics built from random SPD curvatures
        quad = quadratic_new(spd_from_eigs(GQ, eQ), np.zeros((k, m, n)))
        L, L_star = quad.metadata["L"], quad.metadata["L_star"]
        Gdiff, Wdiff = quad.grad(W1) - quad.grad(W2), W1 - W2
        checks = (
            (a_f, a_nuc, "frob<=nuc"),
            (a_nuc, np.sqrt(r) * a_f, "nuc<=sqrt(r)frob"),
            (a_nuc, np.sqrt(m_nuc) * a_winv, "nuc<=sqrt(nucM)winv"),
            (a_f, np.sqrt(m_op) * a_winv, "frob<=sqrt(opM)winv"),
            (a_w, np.sqrt(m_op) * a_f, "w<=sqrt(opM)frob"),
            (a_w, np.sqrt(m_nuc) * a_op, "w<=sqrt(nucM)op"),
            (matcore.frobenius_norm(Gdiff), L * matcore.frobenius_norm(Wdiff),
             "lipschitz-F"),
            (matcore.nuclear_norm(Gdiff), L_star * matcore.svd(Wdiff)[:, 0],
             "lipschitz-nuc"),
        )
        for i in range(k):
            for lhs, rhs, label in checks:
                margins.check(lhs[i], rhs[i], slack * max(1.0, rhs[i]),
                              where=start + i, label=label)
    return margins.report("norm_lemmas", {"dims": list(dims), "seed": seed},
                          n_instances)


def _gradient_noise(sigma: float, batch: int, shape: tuple):
    """draw, the noise of a stochastic gradient sample g + draw(rng): N/sqrt(batch)
    with N Gaussian and E||N||_F^2 = sigma^2, so samples are unbiased with expected
    squared deviation sigma^2 / batch.  At sigma = 0 a draw is zeros and takes
    nothing from rng."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if batch < 1:
        raise ValueError("batch must be at least 1")
    if sigma == 0.0:
        return lambda rng: np.zeros(shape)
    entry_std, batch_root = sigma / np.sqrt(shape[0] * shape[1]), np.sqrt(batch)
    return lambda rng: rng.standard_normal(shape) * entry_std / batch_root


def momentum_error_bound(sigma: float, batch: int, beta: float, t: int) -> float:
    """Expected deviation bound between noisy and noise-free momentum buffers."""
    root = np.sqrt((1.0 - beta) / (1.0 + beta))
    return float((root + beta ** t) * sigma / np.sqrt(batch))


def check_momentum_error_lemma(sigma: float = 1.0, batch: int = 1, beta: float = 0.9,
                               T: int = 50, trials: int = 200, seed: int = 0,
                               shape: tuple = (15, 20),
                               slack_factor: float = 1.5) -> CheckReport:
    """Monte-Carlo audit of the momentum error bound on a fixed-point stream.

    Holds the iterate fixed so the true gradient is constant, runs the noisy
    and noise-free momentum recursions side by side, and checks that the
    empirical mean deviation stays below slack_factor times the closed-form
    bound at every step.  Trials advance together in blocks, and the report
    is the one that running the trials one after another gives, byte for
    byte.
    """
    if not 0.0 <= beta < 1.0:  # the range the momentum bounds are stated for
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    if trials < 50:
        raise ValueError("at least 50 trials are needed for stable statistics")
    noise = _gradient_noise(sigma, batch, shape)
    rng = np.random.default_rng(seed)
    m, n = shape
    Q = spd_from_eigs(*_spd_draw(m, rng))
    problem = quadratic_new(Q, rng.standard_normal((m, n)))
    W = rng.standard_normal((m, n))
    g = problem.grad(W)
    err_sum = np.zeros(T + 1)
    for start in range(0, trials, _MOMENTUM_BLOCK):
        # every trial draws its noise from its own generator
        rngs = [np.random.default_rng(seed * 100003 + k + 1)
                for k in range(start, min(trials, start + _MOMENTUM_BLOCK))]
        errs = np.empty((T + 1, len(rngs)))
        for t in range(T + 1):
            G = g + np.stack([noise(trial_rng) for trial_rng in rngs])
            if t == 0:
                M, C = G, g
            else:
                M = beta * M + (1.0 - beta) * G
                C = beta * C + (1.0 - beta) * g
            errs[t] = matcore.frobenius_norm(M - C)
        for err in errs.T:
            # one trial at a time, so every step's sum is added in trial order
            err_sum += err
    mean_err = err_sum / trials
    margins = _Margins(0.0)
    for t in range(T + 1):
        bound = slack_factor * momentum_error_bound(sigma, batch, beta, t)
        margins.check(mean_err[t], bound, 0.0, where=t, label="momentum-error")
    return margins.report(
        "momentum_error_lemma",
        {"sigma": sigma, "batch": batch, "beta": beta, "T": T,
         "trials": trials, "slack_factor": slack_factor}, T + 1)


def check_nonconvex_rate_bound(problem: Problem, which: str = "Lstar",
                               T: int = 200, beta: float = 0.9, sigma: float = 0.0,
                               batch: int = 1, runs: int = 1, seed: int = 0,
                               eta: Optional[float] = None,
                               slack_factor: float = 1.5) -> CheckReport:
    """Average nuclear gradient norm against the constant-stepsize rate bound.

    Runs the momentum stepper from the zero matrix with a stochastic oracle
    and compares the run-averaged (1/T) sum ||grad f(W_t)||_* to the explicit
    right-hand side of the rate bound (Frobenius-constant variant for
    which="rL", spectral-constant variant for which="Lstar").  Stochastic
    bounds hold in expectation, so the empirical average over several seeded
    runs is compared with a Monte-Carlo slack factor.
    """
    if not 0.0 <= beta < 1.0:  # the range the momentum bounds are stated for
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    for name, value in (("runs", runs), ("T", T), ("eta", eta)):
        if value is not None and not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")
    fs = f_star(problem)
    if fs is None:
        raise ValueError("the rate bound check needs a known optimal value")
    noise = _gradient_noise(sigma, batch, problem.shape)
    C = _smoothness_constant(problem, which)
    r = min(problem.shape)
    W0 = np.zeros(problem.shape)
    delta = problem.value(W0) - fs
    if eta is None:
        eta = float(np.sqrt((1.0 - beta) * delta / (T * C)))
    rhs = (delta / (T * eta) + C * eta / 2.0
           + 2.0 * sigma * np.sqrt(r * (1.0 - beta)) / np.sqrt(batch * (1.0 + beta))
           + 2.0 * beta * sigma * np.sqrt(r) / ((1.0 - beta) * T * np.sqrt(batch))
           + 2.0 * eta * beta * C / (1.0 - beta))
    total = 0.0
    for k in range(runs):
        rng = np.random.default_rng(seed * 7919 + k)
        state = optim.MuonState(beta=beta)
        W = W0.copy()
        acc = 0.0
        for _ in range(T):
            g = problem.grad(W)
            acc += matcore.nuclear_norm(g)
            W = optim.muon_step(state, W, g + noise(rng) if sigma > 0 else g, eta)
        total += acc / T
    lhs = total / runs
    margins = _Margins(0.0)
    margins.check(lhs, slack_factor * float(rhs), 0.0, where=0, label=f"nonconvex-{which}")
    return margins.report(
        "nonconvex_rate_bound",
        {"which": which, "T": T, "beta": beta, "sigma": sigma, "batch": batch,
         "runs": runs, "eta": float(eta), "rhs": float(rhs), "lhs": float(lhs),
         "slack_factor": slack_factor}, runs)
