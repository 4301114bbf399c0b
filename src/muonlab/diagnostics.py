"""Per-iteration curvature and norm diagnostics.

Naming follows the run CSV columns: J_t is the Hessian quadratic form along
the semi-orthogonal update direction, L_t is the Hessian operator norm at the
current iterate, and hatJ_t is the cross form pairing the orthogonalized
gradient difference with the update direction.  All quantities are defined
through Hessian-vector products under the Frobenius inner product, so they
agree with the row-major vectorized forms by construction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from . import matcore
from .problems import Problem

FLAG_ZERO_DIRECTION = "zero-direction"
FLAG_POWER_FALLBACK = "power-iter-no-converge"
FLAG_FD_KINK = "fd-kink"
FLAG_DIVERGED = "diverged"


@dataclass
class StepRecord:
    """One diagnostics row.  Optional fields stay None when not computed."""

    t: int
    f: float
    grad_F: float
    grad_nuc: float
    eta: Optional[float] = None
    J_t: Optional[float] = None
    L_t: Optional[float] = None
    hatJ_t: Optional[float] = None
    dist_F: Optional[float] = None
    dist_op: Optional[float] = None
    ratio_lhs: Optional[float] = None
    ratio_rhs: Optional[float] = None
    flags: str = ""


FLAG_RAYLEIGH = "rayleigh-violated"


def validate_record(rec: StepRecord, r: int, dir_sq: Optional[float] = None,
                    tol: float = 1e-9, strict: bool = True) -> bool:
    """Check the norm bracket and the Rayleigh bound on a logged row.

    r is min(m, n) of the parameter; dir_sq is ||O_t||_F^2 for the direction
    O_t of J_t (its rank for an SVD direction).  The norm bracket always
    raises on violation.  The Rayleigh bound |J_t| <= L_t * dir_sq, which
    holds for any direction, raises only when strict; with strict=False
    (finite-difference Hessian oracles, where probe steps crossing an activation
    kink can corrupt either side) a violation is reported through the return
    value so the caller can flag the row.
    """
    if rec.grad_nuc < rec.grad_F - tol * max(1.0, rec.grad_F):
        raise AssertionError(
            f"step {rec.t}: nuclear norm {rec.grad_nuc} below Frobenius norm {rec.grad_F}")
    if rec.grad_nuc > np.sqrt(r) * rec.grad_F + tol * max(1.0, rec.grad_F):
        raise AssertionError(
            f"step {rec.t}: nuclear norm {rec.grad_nuc} exceeds sqrt(r)*Frobenius bound")
    if rec.J_t is not None and rec.L_t is not None and dir_sq is not None:
        bound = rec.L_t * dir_sq + tol * max(1.0, abs(rec.L_t) * max(dir_sq, 1.0))
        if abs(rec.J_t) > bound:
            if strict:
                raise AssertionError(f"step {rec.t}: |J_t|={abs(rec.J_t)} exceeds "
                                     f"L_t*||O_t||_F^2={rec.L_t * dir_sq}")
            return False
    return True


@dataclass
class RunSummary:
    """Aggregates of one run: curvature averages, distances, final gap."""

    T: int
    final_f: float
    final_gap: Optional[float] = None
    J_mean: Optional[float] = None
    J_tilde: Optional[float] = None
    D_F: Optional[float] = None
    D_op: Optional[float] = None
    comparison_ratio: Optional[float] = None

    def to_dict(self):
        return asdict(self)


def j_t(problem: Problem, W, O) -> float:
    """Hessian quadratic form along the update direction: <O, hvp(W, O)>.

    Returns 0 for the zero direction (callers flag that case).
    """
    O = matcore.as_matrix(O)
    if not np.any(O):
        return 0.0
    return float(np.sum(O * problem.hvp(W, O)))


def l_t(problem: Problem, W, tol: float = 1e-6, max_iter: int = 100,
        seed: int = 0):
    """Hessian operator norm at W by power iteration on the hvp map.

    Returns (value, converged).  The iteration tracks the Rayleigh quotient
    of the symmetric operator D -> hvp(W, D); its magnitude converges to the
    largest absolute eigenvalue.  On non-convergence the best estimate is
    returned with converged=False.
    """
    rng = np.random.default_rng(seed)
    D = rng.standard_normal(problem.shape)
    D /= matcore.frobenius_norm(D)
    lam_prev = 0.0
    lam = 0.0
    converged = False
    for _ in range(max_iter):
        HD = problem.hvp(W, D)
        lam = float(np.sum(D * HD))
        nrm = matcore.frobenius_norm(HD)
        if nrm == 0.0:
            return 0.0, True
        D = HD / nrm
        if abs(lam - lam_prev) <= tol * max(1.0, abs(lam)):
            converged = True
            break
        lam_prev = lam
    return abs(lam), converged


def hat_j_t(problem: Problem, W, O_t, grad_prev, grad_next) -> float:
    """Cross curvature form: polar factor of the gradient difference against hvp(W, O_t).

    The gradient difference grad_prev - grad_next is orthogonalized through
    the SVD route; a zero difference yields 0 (flagged by callers).
    """
    diff = matcore.as_matrix(grad_prev) - matcore.as_matrix(grad_next)
    if not np.any(diff):
        return 0.0
    O_g = matcore.orthogonalize_svd(diff)
    return float(np.sum(O_g * problem.hvp(W, matcore.as_matrix(O_t))))


def ratio_condition(J_t_val: float, L_t_val: float, grad_F: float, grad_nuc: float):
    """The two sides of J_t/L_t <= (nuclear/Frobenius gradient norm ratio)^2.

    Returns (lhs, rhs), or (None, None) when a denominator is degenerate.
    """
    if L_t_val <= 0 or grad_F <= 0:
        return None, None
    return J_t_val / L_t_val, (grad_nuc / grad_F) ** 2


def weighted_j_tilde(j_values: Sequence[float], eta: float, D_op: float) -> float:
    """Geometrically weighted mean (1/T) sum_t (1 - eta/D_op)^(T-1-t) J_t."""
    vals = np.asarray(list(j_values), dtype=np.float64)
    if vals.size == 0:
        raise ValueError("no J_t values to average")
    if not 0 < eta <= D_op:
        raise ValueError("need 0 < eta <= D_op for the weighted average")
    T = vals.size
    weights = (1.0 - eta / D_op) ** (T - 1 - np.arange(T))
    return float(np.sum(weights * vals) / T)


def distance_metrics(W, W_star):
    """(Frobenius, operator) distances to the reference point.

    W may also be a (k, m, n) stack of points; the result is then two (k,)
    arrays from one stacked SVD, and a 2-D W is a one-matrix stack whose two
    values come back as floats.  A zero displacement has distance 0.0.
    """
    W, W_star = matcore.as_matrices(W), matcore.as_matrix(W_star)
    if W.shape[-2:] != W_star.shape:
        raise ValueError(f"points of shape {W.shape} do not match the reference "
                         f"point of shape {W_star.shape}")
    E = W - W_star
    d_op = np.where(np.any(E, axis=(-2, -1)), matcore.svd(E)[..., 0], 0.0)
    return matcore.frobenius_norm(E), matcore.per_matrix(d_op, E)


def comparison_ratio(D_F: float, D_op: float, L: float, L_star: float) -> float:
    """The rate-comparison quantity D_F^2 L / (D_op^2 L_star)."""
    if min(D_F, D_op, L, L_star) <= 0:
        raise ValueError("all inputs must be positive")
    try:
        return (D_F ** 2 * L) / (D_op ** 2 * L_star)
    except OverflowError:  # a float's ** past the largest float raises; its / and * do not
        return (D_F / D_op) * (D_F / D_op) * (L / L_star)
