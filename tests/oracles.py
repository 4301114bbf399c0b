"""Brute-force oracles that only the tests use.

The row-major vectorization convention of the package: rows of a matrix are
concatenated, so that kron(P, Q) @ vec_row(D) == vec_row(P @ D @ Q.T).
"""

import numpy as np

from muonlab import matcore


def kron(P, Q, max_entries: int = 1_000_000) -> np.ndarray:
    """Kronecker product, guarded to small sizes (brute-force oracle use only)."""
    Pm = matcore.as_matrix(P)
    Qm = matcore.as_matrix(Q)
    out_entries = Pm.size * Qm.size
    if out_entries > max_entries:
        raise ValueError(
            f"kron output would have {out_entries} entries (limit {max_entries})")
    return np.kron(Pm, Qm)


def vec_row(A) -> np.ndarray:
    """Row-major vectorization: rows concatenated into a length m*n vector."""
    return matcore.as_matrix(A).reshape(-1).copy()


def vonneumann_bound(p_sv, q_sv, r_t: int) -> float:
    """Trace-inequality bound: sum of the r_t largest singular-value products."""
    p = np.asarray(p_sv, dtype=np.float64)
    q = np.asarray(q_sv, dtype=np.float64)
    if np.any(np.diff(p) > 1e-12) or np.any(np.diff(q) > 1e-12):
        raise ValueError("singular values must be sorted nonincreasing")
    if r_t > p.size or r_t > q.size:
        raise ValueError(f"r_t={r_t} exceeds available singular values")
    return float(np.sum(p[:r_t] * q[:r_t]))


def concentration_ratio(A) -> float:
    """Effective-rank proxy ||A||_F^2 / ||A||_op^2; undefined for the zero matrix."""
    S = matcore.svd(A).S
    if S[0] == 0.0:
        raise ValueError("concentration ratio undefined for the zero matrix")
    return float(np.sum(S * S) / (S[0] * S[0]))
