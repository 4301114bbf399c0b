"""Executable checks of convergence bounds and norm inequalities.

Each checker runs against concrete step records or freshly sampled random
instances and produces a CheckReport: the number of instances tested, any
violations beyond the stated tolerance, and the worst raw margin (so stricter
post-hoc analysis stays possible; None, null in JSON, when no margin was
checked).  A check passes exactly when no violation exceeds its tolerance.

Margins are signed as lhs - rhs, so positive means the inequality failed by
that amount before slack was applied.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from typing import Optional, Sequence

import numpy as np

from . import matcore, optim
from .diagnostics import StepRecord, weighted_j_tilde
from .problems import Problem, StochasticGradOracle, quadratic_new, f_star


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

    @classmethod
    def from_json(cls, text: str) -> "CheckReport":
        return cls(**json.loads(text))


class _Margins:
    """Collects signed margins lhs - rhs; a violation is a margin above slack."""

    def __init__(self, tolerance: float):
        self.tolerance = tolerance
        self.worst = float("-inf")
        self.violations = []
        self.count = 0

    def check(self, lhs: float, rhs: float, slack: float, where, label: str = ""):
        margin = float(lhs - rhs)
        self.count += 1
        if margin > self.worst:
            self.worst = margin
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


def _consecutive_steps(records: Sequence[StepRecord]) -> None:
    ts = [r.t for r in records]
    if any(b != a + 1 for a, b in zip(ts, ts[1:])):
        raise ValueError("records must be logged at every step (cadence 1)")


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


def _constant_eta(records: Sequence[StepRecord], check: str) -> tuple:
    """(eta, T) of a run that took T steps at the one stepsize eta."""
    etas = [r.eta for r in records if r.eta is not None]
    if not etas:
        raise ValueError("no steps recorded")
    eta = etas[0]
    if any(abs(e - eta) > 1e-12 * max(1.0, eta) for e in etas):
        raise ValueError(f"{check} needs a constant stepsize run")
    return eta, len(etas)


def _require_quadratic(problem: Problem, check: str) -> None:
    if problem.metadata.get("kind") != "quadratic":
        raise ValueError(f"{check} applies to quadratic problems only")


def check_quadratic_taylor_identity(records: Sequence[StepRecord], problem: Problem,
                                    tol: float = 1e-9) -> CheckReport:
    """Per-step identity f_{t+1} = f_t - eta*||grad||_* + eta^2*J_t/2.

    Exact on quadratics driven by the momentum-free Muon stepper, up to
    floating-point error; checked in relative terms at every step.
    """
    _require_quadratic(problem, "the Taylor identity check")
    _consecutive_steps(records)
    margins = _Margins(tol)
    steps = 0
    for cur, nxt in zip(records, records[1:]):
        if cur.eta is None or cur.J_t is None:
            raise ValueError("records need eta and J_t at every step")
        pred = cur.f - cur.eta * cur.grad_nuc + 0.5 * cur.eta ** 2 * cur.J_t
        scale = max(abs(cur.f), abs(nxt.f), 1e-300)
        rel = abs(nxt.f - pred) / scale
        margins.check(rel, 0.0, tol, where=cur.t, label="taylor-residual")
        steps += 1
    return margins.report("quadratic_taylor_identity", {"tol": tol}, steps)


def check_descent_inequalities(records: Sequence[StepRecord], problem: Problem,
                               which: str = "Lstar") -> CheckReport:
    """Per-step upper bound f_{t+1} <= f_t - eta*||grad||_* + C*eta^2/2.

    which="rL" uses C = r*L (Frobenius smoothness route); which="Lstar" uses
    C = L_star (spectral smoothness route).  Requires exact constants in the
    problem metadata.
    """
    coef = _smoothness_constant(problem, which)
    _consecutive_steps(records)
    margins = _Margins(1e-8)
    steps = 0
    for cur, nxt in zip(records, records[1:]):
        if cur.eta is None:
            raise ValueError("records need eta at every step")
        bound = cur.f - cur.eta * cur.grad_nuc + 0.5 * coef * cur.eta ** 2
        slack = 1e-8 * max(1.0, abs(nxt.f))
        margins.check(nxt.f, bound, slack, where=cur.t, label=f"descent-{which}")
        steps += 1
    return margins.report("descent_inequalities", {"which": which, "coef": coef}, steps)


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
    _consecutive_steps(records)
    for rec in records[:-1]:
        if rec.eta is None:
            raise ValueError("records need eta at every step")
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
    fs = f_star(problem)
    if fs is None:
        raise ValueError("the constant-step bound check needs a known optimal value")
    _consecutive_steps(records)
    eta, T = _constant_eta(records, "the constant-step check")
    D = _empirical_d_op(records)
    delta = records[0].f - fs
    params = {"which": which, "eta": eta, "D_op": D, "T": T, "delta": float(delta)}
    if eta > D:
        report = CheckReport("constant_step_linear_bound", params | {"vacuous": True},
                             instances=1, tolerance=tol, passed=True)
        return report
    base = (1.0 - eta / D) ** T * delta
    if which == "J":
        _require_quadratic(problem, "the curvature-average bound")
        j_vals = [r.J_t for r in records[:-1]]
        if any(v is None for v in j_vals):
            raise ValueError("the J variant needs J_t at every step")
        jt = weighted_j_tilde(j_vals, eta, D)
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

    For a constant-stepsize momentum-free Muon run,
    (1/T) sum ||grad f(W_t)||_* <= (f(W_0) - f(W_T)) / (T*eta) + eta*Jbar/2
    plus a third-derivative term that vanishes on quadratics; on quadratics
    the relation is an identity, so the margin should sit at machine epsilon.
    Needs J_t logged at every step.
    """
    _require_quadratic(problem, "the curvature-average rate check")
    _consecutive_steps(records)
    eta, T = _constant_eta(records, "the curvature-average rate check")
    j_vals = [r.J_t for r in records[:-1]]
    if any(v is None for v in j_vals):
        raise ValueError("J_t must be logged at every step")
    lhs = float(np.mean([r.grad_nuc for r in records[:-1]]))
    j_bar = float(np.mean(j_vals))
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


def _spd(G: np.ndarray, eigs: np.ndarray) -> np.ndarray:
    """R diag(eigs) R^T with R the Q factor of G; G may be a (k, n, n) stack."""
    R, _ = np.linalg.qr(G)
    M = (R * eigs[..., None, :]) @ R.swapaxes(-1, -2)
    return 0.5 * (M + M.swapaxes(-1, -2))


def _spd_inverse(M: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(M)
    return (V / w[..., None, :]) @ V.swapaxes(-1, -2)


def _quadratic_block(Q: np.ndarray, W1: np.ndarray, W2: np.ndarray) -> tuple:
    """(L, L_star, grad(W1) - grad(W2)) of quadratic_new(Q[i], 0) for every
    slice i of a (k, m, m) stack, each bit for bit that problem's metadata
    and gradients, with the same check that every Q[i] is SPD."""
    matcore.require_spd(Q, "Q")
    c = 0.5
    S = matcore.svd(Q).S
    return (2.0 * c * S[:, 0], 2.0 * c * np.sum(S, axis=1),
            2.0 * c * (Q @ W1) - 2.0 * c * (Q @ W2))


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
        M = _spd(GM, eM)
        eigs = np.linalg.eigvalsh(M)
        m_op, m_nuc = eigs[:, -1], np.sum(eigs, axis=1)
        a_f = matcore.frobenius_norm(A)
        a_nuc = matcore.nuclear_norm(A)
        a_op = matcore.svd(A).S[:, 0]
        a_w = matcore.lambda_norm(A, M)
        a_winv = matcore.lambda_norm(A, _spd_inverse(M))
        # smoothness transfer on quadratics built from random SPD curvatures
        L, L_star, Gdiff = _quadratic_block(_spd(GQ, eQ), W1, W2)
        Wdiff = W1 - W2
        checks = (
            (a_f, a_nuc, "frob<=nuc"),
            (a_nuc, np.sqrt(r) * a_f, "nuc<=sqrt(r)frob"),
            (a_nuc, np.sqrt(m_nuc) * a_winv, "nuc<=sqrt(nucM)winv"),
            (a_f, np.sqrt(m_op) * a_winv, "frob<=sqrt(opM)winv"),
            (a_w, np.sqrt(m_op) * a_f, "w<=sqrt(opM)frob"),
            (a_w, np.sqrt(m_nuc) * a_op, "w<=sqrt(nucM)op"),
            (matcore.frobenius_norm(Gdiff), L * matcore.frobenius_norm(Wdiff),
             "lipschitz-F"),
            (matcore.nuclear_norm(Gdiff), L_star * matcore.svd(Wdiff).S[:, 0],
             "lipschitz-nuc"),
        )
        for i in range(k):
            for lhs, rhs, label in checks:
                margins.check(lhs[i], rhs[i], slack * max(1.0, rhs[i]),
                              where=start + i, label=label)
    return margins.report("norm_lemmas", {"dims": list(dims), "seed": seed},
                          n_instances)


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
    if trials < 50:
        raise ValueError("at least 50 trials are needed for stable statistics")
    rng = np.random.default_rng(seed)
    m, n = shape
    Q = _spd(*_spd_draw(m, rng))
    problem = quadratic_new(Q, rng.standard_normal((m, n)))
    W = rng.standard_normal((m, n))
    g = problem.grad(W)
    err_sum = np.zeros(T + 1)
    for start in range(0, trials, _MOMENTUM_BLOCK):
        # every trial's noise comes from its own oracle; a sample is g + noise
        oracles = [StochasticGradOracle(problem, sigma, batch, seed=seed * 100003 + k + 1)
                   for k in range(start, min(trials, start + _MOMENTUM_BLOCK))]
        errs = np.empty((T + 1, len(oracles)))
        for t in range(T + 1):
            G = g + np.stack([oracle.noise() for oracle in oracles])
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
    fs = f_star(problem)
    if fs is None:
        raise ValueError("the rate bound check needs a known optimal value")
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
        oracle = StochasticGradOracle(problem, sigma, batch, seed=seed * 7919 + k)
        state = optim.MuonState(beta=beta)
        W = W0.copy()
        acc = 0.0
        for _ in range(T):
            g = problem.grad(W)
            acc += matcore.nuclear_norm(g)
            W = optim.muon_step(state, W, g + oracle.noise() if sigma > 0 else g, eta)
        total += acc / T
    lhs = total / runs
    margins = _Margins(0.0)
    margins.check(lhs, slack_factor * float(rhs), 0.0, where=0, label=f"nonconvex-{which}")
    return margins.report(
        "nonconvex_rate_bound",
        {"which": which, "T": T, "beta": beta, "sigma": sigma, "batch": batch,
         "runs": runs, "eta": float(eta), "rhs": float(rhs), "lhs": float(lhs),
         "slack_factor": slack_factor}, runs)
