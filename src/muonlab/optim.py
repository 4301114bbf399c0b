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

from dataclasses import dataclass
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

    Both methods map the zero matrix to the zero direction (no movement), and
    on a stack they do so slice by slice.
    """
    if method == "svd":
        return matcore.orthogonalize_svd(M)
    if method != "ns":
        raise ValueError(f"unknown orthogonalizer {method!r}")
    return matcore.orthogonalize_ns(M, steps=ns_steps)


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
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")
        if self.orthogonalizer not in ORTHOGONALIZERS:
            raise ValueError(f"orthogonalizer {self.orthogonalizer!r} is unknown")
        if self.ns_steps < 0:
            raise ValueError(f"ns_steps must be >= 0, got {self.ns_steps}")


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

@dataclass(frozen=True)
class Schedule:
    """Stepsize rule: a fixed eta, or, for the adaptive kinds, the nuclear
    gradient norm over a fixed divisor.  Exactly one of the two is set, and it
    is positive; harness.make_schedule works them out from a config."""

    kind: str
    eta: Optional[float] = None
    divisor: Optional[float] = None

    def __post_init__(self):
        if (self.eta is None) == (self.divisor is None):
            raise ValueError("a schedule sets exactly one of eta and divisor")
        if not (self.eta if self.divisor is None else self.divisor) > 0:
            raise ValueError(f"schedule {self.kind!r} needs a positive eta or divisor")


def next_eta(schedule: Schedule, grad_nuc: Optional[float] = None) -> float:
    """Stepsize of the next step.  Adaptive schedules need the current nuclear
    gradient norm and return exactly 0 when the gradient vanishes."""
    if schedule.divisor is None:
        return schedule.eta
    if grad_nuc is None:
        raise ValueError("adaptive schedules need the nuclear gradient norm")
    if grad_nuc < 0:
        raise ValueError("gradient norm must be nonnegative")
    return float(grad_nuc / schedule.divisor)
