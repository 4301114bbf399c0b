"""Optimizer steppers and stepsize schedules.

Steppers are pure functions of (state, parameter, gradient, stepsize); state
objects own their buffers and are mutated in place, one per run.  The Muon
family moves along the semi-orthogonal factor of a (momentum-averaged)
gradient; the baselines (GD, GD+Nesterov, Adam, AdamW) use the standard
flattened update rules.

Every stepper also takes a (k, m, n) stack of parameters and gradients with a
stepsize of shape (k, 1, 1): the k runs advance together, and each slice gets
exactly the result the 2-D call would give it.  The new parameter is written
to `out` when given (which may be W itself) and to a fresh array otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import matcore

ORTHOGONALIZERS = ("svd", "ns")


def _operands(W, G):
    W = matcore.as_matrices(W)
    G = matcore.as_matrices(G)
    if W.shape != G.shape:
        raise ValueError(f"gradient shape {G.shape} does not match parameter shape {W.shape}")
    return W, G


def _move(W, eta, D, out):
    """W - eta * D, written to out when given."""
    return np.subtract(W, np.multiply(eta, D), out=out)


def orthogonalize(M: np.ndarray, method: str = "svd",
                  ns_steps: int = matcore.DEFAULT_NS_STEPS) -> np.ndarray:
    """Semi-orthogonal update direction for a momentum/gradient matrix.

    The zero matrix yields the zero direction (no movement) regardless of
    method, since the Newton-Schulz route is undefined there.  On a stack
    this holds slice by slice.
    """
    if method == "svd":
        return matcore.orthogonalize_svd(M)  # maps zero slices to zero itself
    if method != "ns":
        raise ValueError(f"unknown orthogonalizer {method!r}")
    nonzero = np.any(M, axis=(-2, -1))
    if nonzero.all():
        return matcore.orthogonalize_ns(M, steps=ns_steps)
    O = np.zeros_like(M)
    if nonzero.any():
        O[nonzero] = matcore.orthogonalize_ns(M[nonzero], steps=ns_steps)
    return O


@dataclass
class MuonState:
    """Momentum buffer and counter for the Muon stepper.

    M is unset before the first step; the first step copies the gradient into
    it exactly, and so does every step when beta is 0 (momentum-free Muon).
    beta stays constant over a run.
    """

    beta: float = 0.9
    orthogonalizer: str = "svd"
    ns_steps: int = matcore.DEFAULT_NS_STEPS
    t: int = 0
    M: Optional[np.ndarray] = None
    last_direction: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must lie in [0, 1)")
        if self.orthogonalizer not in ORTHOGONALIZERS:
            raise ValueError(f"unknown orthogonalizer {self.orthogonalizer!r}")


def muon_step(state: MuonState, W, G, eta, out=None) -> np.ndarray:
    """One Muon update: momentum average, orthogonalize, move.

    M_t = beta*M_{t-1} + (1-beta)*G_t (with M_0 = G_0), then
    W' = W - eta * orthogonalize(M_t).
    """
    W, G = _operands(W, G)
    if np.less(eta, 0).any():
        raise ValueError("eta must be nonnegative")
    if state.t == 0 or state.M is None or state.beta == 0.0:
        state.M = G.copy()
    else:
        state.M *= state.beta
        state.M += (1.0 - state.beta) * G
    state.last_direction = None  # released before the factorization allocates
    O = orthogonalize(state.M, state.orthogonalizer, state.ns_steps)
    state.last_direction = O
    state.t += 1
    return _move(W, eta, O, out)


def simplified_muon_step(W, G, eta, orthogonalizer: str = "svd",
                         ns_steps: int = matcore.DEFAULT_NS_STEPS, out=None) -> np.ndarray:
    """Momentum-free Muon: W' = W - eta * orthogonalize(G)."""
    state = MuonState(beta=0.0, orthogonalizer=orthogonalizer, ns_steps=ns_steps)
    return muon_step(state, W, G, eta, out=out)


def gd_step(W, G, eta, out=None) -> np.ndarray:
    """Plain gradient descent."""
    W, G = _operands(W, G)
    return _move(W, eta, G, out)


@dataclass
class NesterovState:
    v: Optional[np.ndarray] = None


def gd_nesterov_step(state: NesterovState, W, G, eta, mu: float = 0.9,
                     out=None) -> np.ndarray:
    """Gradient descent with Nesterov momentum (velocity form)."""
    W, G = _operands(W, G)
    if state.v is None:
        state.v = G.copy()
    else:
        state.v *= mu
        state.v += G
    D = mu * state.v
    D += G
    return _move(W, eta, D, out)


@dataclass
class AdamState:
    t: int = 0
    m: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None


def adam_step(state: AdamState, W, G, eta, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8, out=None) -> np.ndarray:
    """Adam with bias correction."""
    W, G = _operands(W, G)
    if state.m is None:
        state.m = np.zeros_like(G)
        state.v = np.zeros_like(G)
    state.t += 1
    # in place, in the order of m = beta1*m + (1-beta1)*G and
    # W' = W - (eta*m_hat) / (sqrt(v_hat) + eps), so every rounding is kept
    scratch = np.multiply(1.0 - beta1, G)
    state.m *= beta1
    state.m += scratch
    np.multiply(G, G, out=scratch)
    scratch *= 1.0 - beta2
    state.v *= beta2
    state.v += scratch
    step = np.divide(state.m, 1.0 - beta1 ** state.t)
    step *= eta
    np.divide(state.v, 1.0 - beta2 ** state.t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += eps
    step /= scratch
    return np.subtract(W, step, out=out)


def adamw_step(state: AdamState, W, G, eta, beta1: float = 0.9,
               beta2: float = 0.999, eps: float = 1e-8,
               weight_decay: float = 0.01, out=None) -> np.ndarray:
    """Adam with decoupled weight decay."""
    W = matcore.as_matrices(W)
    decay = np.multiply(np.multiply(eta, weight_decay), W)
    W_new = adam_step(state, W, G, eta, beta1, beta2, eps, out=out)
    return np.subtract(W_new, decay, out=W_new)


# ---------------------------------------------------------------------------
# Stepsize schedules
# ---------------------------------------------------------------------------

CONSTANT = "constant"
NONCONVEX_L = "nonconvex_L"
NONCONVEX_LSTAR = "nonconvex_Lstar"
ADAPTIVE_RL = "adaptive_rL"
ADAPTIVE_LSTAR = "adaptive_Lstar"
THEORY_J = "theory_J"

_ADAPTIVE_KINDS = (ADAPTIVE_RL, ADAPTIVE_LSTAR)


@dataclass(frozen=True)
class Schedule:
    """Stepsize rule: a fixed value, a horizon formula, or an adaptive quotient."""

    kind: str
    params: dict = field(default_factory=dict)


def _require_positive(params: dict, names: tuple) -> None:
    for name in names:
        if name not in params:
            raise ValueError(f"schedule is missing required constant {name!r}")
        if params[name] <= 0:
            raise ValueError(f"schedule constant {name!r} must be positive, got {params[name]}")


def constant_schedule(eta: float) -> Schedule:
    if eta <= 0:
        raise ValueError("eta must be positive")
    return Schedule(CONSTANT, {"eta": float(eta)})


def nonconvex_L_schedule(delta: float, r: int, T: int, L: float, beta: float = 0.0) -> Schedule:
    """Constant stepsize sqrt((1-beta)*delta / (r*T*L))."""
    p = {"delta": delta, "r": r, "T": T, "L": L, "beta": beta}
    _require_positive(p, ("delta", "r", "T", "L"))
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    return Schedule(NONCONVEX_L, p)


def nonconvex_Lstar_schedule(delta: float, T: int, L_star: float, beta: float = 0.0) -> Schedule:
    """Constant stepsize sqrt((1-beta)*delta / (T*L_star))."""
    p = {"delta": delta, "T": T, "L_star": L_star, "beta": beta}
    _require_positive(p, ("delta", "T", "L_star"))
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    return Schedule(NONCONVEX_LSTAR, p)


def adaptive_rL_schedule(r: int, L: float) -> Schedule:
    """Adaptive stepsize: nuclear gradient norm divided by r*L."""
    p = {"r": r, "L": L}
    _require_positive(p, ("r", "L"))
    return Schedule(ADAPTIVE_RL, p)


def adaptive_Lstar_schedule(L_star: float) -> Schedule:
    """Adaptive stepsize: nuclear gradient norm divided by L_star."""
    p = {"L_star": L_star}
    _require_positive(p, ("L_star",))
    return Schedule(ADAPTIVE_LSTAR, p)


def theory_J_schedule(delta: float, J: float, T: int) -> Schedule:
    """Constant stepsize sqrt(2*delta / (J*T)) for positive average curvature J."""
    p = {"delta": delta, "J": J, "T": T}
    _require_positive(p, ("delta", "J", "T"))
    return Schedule(THEORY_J, p)


def next_eta(schedule: Schedule, t: int = 0, grad_nuc: Optional[float] = None) -> float:
    """Stepsize for step t.  Adaptive kinds require the current nuclear
    gradient norm and return exactly 0 when the gradient vanishes."""
    p = schedule.params
    if schedule.kind == CONSTANT:
        return p["eta"]
    if schedule.kind == NONCONVEX_L:
        return float(np.sqrt((1.0 - p["beta"]) * p["delta"] / (p["r"] * p["T"] * p["L"])))
    if schedule.kind == NONCONVEX_LSTAR:
        return float(np.sqrt((1.0 - p["beta"]) * p["delta"] / (p["T"] * p["L_star"])))
    if schedule.kind == THEORY_J:
        return float(np.sqrt(2.0 * p["delta"] / (p["J"] * p["T"])))
    if schedule.kind in _ADAPTIVE_KINDS:
        if grad_nuc is None:
            raise ValueError("adaptive schedules need the nuclear gradient norm")
        if grad_nuc < 0:
            raise ValueError("gradient norm must be nonnegative")
        denom = p["r"] * p["L"] if schedule.kind == ADAPTIVE_RL else p["L_star"]
        return float(grad_nuc / denom)
    raise ValueError(f"unknown schedule kind {schedule.kind!r}")

