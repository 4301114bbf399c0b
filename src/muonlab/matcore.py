"""Dense matrix primitives: norms, SVD and polar factors.

All functions are pure, operate on float64 2-D numpy arrays, and are
deterministic for fixed inputs.
svd, the Frobenius, nuclear and weighted norms and the polar factors also
take a (k, m, n) stack and give each slice bit for bit its 2-D result.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Truncation threshold for the rank decision in orthogonalize_svd, relative to
# the largest singular value.
RANK_TOL = 1e-10

# Per-step quintic coefficients for orthogonalize_ns.  Step k applies
# X <- a*X + b*(X X^T) X + c*(X X^T)^2 X with (a, b, c) = NS_COEFFS[k].
# The schedule was fitted by equioscillation so that the 5-step composition
# maps every singular value s in [0.0025, 1] of the Frobenius-normalized input
# to within 1.1e-2 of 1.  That covers condition numbers up to ~100 for inner
# dimensions up to 16, and far larger condition numbers when the spectrum is
# not adversarial.
NS_COEFFS = (
    (8.4051777065, -24.8508072912, 18.4246170287),
    (4.0771741175, -3.0350424167, 0.5722070526),
    (3.6057913975, -2.6996329798, 0.5340115005),
    (2.6177330845, -1.9412888953, 0.4486398450),
    (1.9449339801, -1.3256873940, 0.3826455631),
)

DEFAULT_NS_STEPS = 5


def as_matrix(A) -> np.ndarray:
    """Validate and return A as a finite float64 2-D array."""
    return _as_finite(A, (2,), "a 2-D matrix")


def as_matrices(A) -> np.ndarray:
    """Validate and return A as a finite float64 2-D array or (k, m, n) stack."""
    return _as_finite(A, (2, 3), "a 2-D matrix or a 3-D stack of matrices")


def _as_finite(A, ndims: tuple, what: str) -> np.ndarray:
    M = np.asarray(A, dtype=np.float64)
    if M.ndim not in ndims:
        raise ValueError(f"expected {what}, got ndim={M.ndim}")
    if M.size == 0:
        raise ValueError("matrix must have at least one entry")
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    return M


class SvdResult(NamedTuple):
    """Thin SVD A = U @ diag(S) @ V.T with k = min(m, n) columns.

    S is nonincreasing and nonnegative; U and V have orthonormal columns.
    Column signs are normalized so the first entry of each U column with
    magnitude above 1e-12 is positive, which makes the factorization
    deterministic.
    """

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


def svd(A) -> SvdResult:
    """Deterministic thin SVD with the sign convention of SvdResult.

    A may also be a (k, m, n) stack: U, S and V then carry a leading k axis,
    and each slice is bit for bit the factorization of that slice alone.
    """
    M = as_matrices(A)
    U, S, Vh = np.linalg.svd(M, full_matrices=False)
    U = np.ascontiguousarray(U)
    V = np.ascontiguousarray(Vh.swapaxes(-1, -2))
    # first entry per column with magnitude above the threshold, vectorized
    big = np.abs(U) > 1e-12
    first = big.argmax(axis=-2)
    lead = np.take_along_axis(U, first[..., None, :], axis=-2)[..., 0, :]
    flip = (lead < 0) & big.any(axis=-2)
    sign = np.where(flip, -1.0, 1.0)[..., None, :]
    U *= sign
    V *= sign
    return SvdResult(U, S, V)


def frobenius_norm(A):
    """Square root of the sum of squared entries.

    A (k, m, n) stack gives a (k,) array: each slice is reduced by the same
    dot product of its raveled entries that np.linalg.norm(slice, "fro")
    takes, so it matches the 2-D call bit for bit (a pairwise sum would not).
    """
    return _frobenius(as_matrices(A))


def _frobenius(M: np.ndarray):
    """frobenius_norm of a validated matrix or stack."""
    if M.ndim == 2:
        return float(np.linalg.norm(M, "fro"))
    f = M.reshape(M.shape[0], -1)
    return np.sqrt((f[:, None, :] @ f[:, :, None])[:, 0, 0])


def nuclear_norm(A):
    """Sum of singular values; a (k, m, n) stack gives a (k,) array."""
    S = np.linalg.svd(as_matrices(A), compute_uv=False)
    if S.ndim == 1:
        return float(np.sum(S))
    return np.sum(S, axis=1)


def orthogonalize_svd(A) -> np.ndarray:
    """Nearest semi-orthogonal matrix to A: U_r @ V_r.T from the thin SVD.

    Singular values at or below RANK_TOL times the largest are truncated, so
    the output has exactly rank r_t with every nonzero singular value equal
    to 1.  The zero matrix maps to the zero matrix.

    A may also be a (k, m, n) stack: all slices are factorized by one LAPACK
    call and each slice gets exactly the result it would get on its own.

    The product U_r @ V_r.T is invariant to paired sign flips, so the raw
    LAPACK factors are used directly.
    """
    M = as_matrices(A)
    U, S, Vh = np.linalg.svd(M, full_matrices=False)
    # S is nonincreasing, so every slice keeps full rank when its last value does
    if (S[..., -1] > RANK_TOL * S[..., 0]).all():
        return U @ Vh
    if M.ndim == 2:
        return _truncated_polar(U, S, Vh)
    return np.stack([_truncated_polar(*f) for f in zip(U, S, Vh)])


def _truncated_polar(U, S, Vh) -> np.ndarray:
    """U_r @ V_r.T of one thin SVD; the zero matrix maps to zero."""
    keep = S > RANK_TOL * S[0]
    if not keep[0]:
        return np.zeros((U.shape[0], Vh.shape[1]))
    return U[:, keep] @ Vh[keep, :]


def orthogonalize_ns(A, steps: int = DEFAULT_NS_STEPS) -> np.ndarray:
    """Approximate the semi-orthogonal factor by Newton-Schulz iteration.

    The input is normalized by its Frobenius norm and then `steps` quintic
    iterations X <- a X + b (X X^T) X + c (X X^T)^2 X are applied with the
    per-step coefficients NS_COEFFS, the last of which repeats past step 5.
    steps=0 returns the normalized input unchanged.

    A may also be a (k, m, n) stack; each slice is normalized by its own
    Frobenius norm and gets exactly the result it would get on its own.

    Raises ValueError on the zero matrix; callers handle the degenerate case
    through the SVD route.
    """
    M = as_matrices(A)
    fn = _frobenius(M)
    if M.ndim == 3:
        fn = fn.reshape(-1, 1, 1)
    if np.any(fn == 0.0):
        raise ValueError("cannot orthogonalize the zero matrix; use the SVD route")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    X = M / fn
    transposed = X.shape[-2] > X.shape[-1]
    if transposed:
        X = X.swapaxes(-1, -2)
    for k in range(steps):
        a, b, c = NS_COEFFS[min(k, len(NS_COEFFS) - 1)]
        P = X @ X.swapaxes(-1, -2)
        X = a * X + (b * P + c * (P @ P)) @ X
    return X.swapaxes(-1, -2) if transposed else X


def require_spd(W: np.ndarray, name: str) -> None:
    """Raise ValueError unless W is symmetric positive definite.

    Symmetric means asymmetry at most 1e-10 relative to the largest entry
    (or 1); positive definite means a smallest eigenvalue above 1e-12
    relative to the largest (or 1).  W may also be a (k, n, n) stack, which
    fails with the message of its first failing slice.
    """
    if W.shape[-1] != W.shape[-2]:
        raise ValueError(f"{name} must be square")
    Wt = W.swapaxes(-1, -2)
    scale = np.maximum(1.0, np.abs(W).max(axis=(-2, -1)))
    asym = np.atleast_1d(np.abs(W - Wt).max(axis=(-2, -1)) > 1e-10 * scale)
    eigs = np.linalg.eigvalsh(0.5 * (W + Wt))
    indefinite = np.atleast_1d(eigs[..., 0] <= 1e-12 * np.maximum(1.0, eigs[..., -1]))
    bad = asym | indefinite
    if bad.any():
        first = int(bad.argmax())
        what = "symmetric" if asym[first] else "positive definite"
        raise ValueError(f"{name} must be {what}")


def lambda_norm(A, weight):
    """Weighted norm sqrt(trace(A W A^T)) for a symmetric positive definite W.

    Raises ValueError if the weight matrix is not symmetric positive definite
    (see require_spd).  A may also be a (k, m, n) stack with a (k, n, n)
    stack of weights; the result is then a (k,) array, and each slice is
    validated and computed bit for bit as its own 2-D call.
    """
    M = as_matrices(A)
    W = as_matrices(weight)
    if W.shape[:-2] != M.shape[:-2]:
        raise ValueError(f"weight of shape {W.shape} does not pair with matrix of shape {M.shape}")
    if W.shape[-1] != W.shape[-2]:
        raise ValueError("weight matrix must be square")
    if W.shape[-1] != M.shape[-1]:
        raise ValueError(
            f"weight matrix is {W.shape[-1]}x{W.shape[-1]}, expected {M.shape[-1]} columns")
    require_spd(W, "weight matrix")
    P = (M @ W) * M
    if M.ndim == 2:
        return float(np.sqrt(max(float(np.sum(P)), 0.0)))
    return np.sqrt(np.maximum(np.sum(P, axis=(1, 2)), 0.0))

