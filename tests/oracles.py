"""Brute-force oracles that only the tests use.

The row-major vectorization convention of the package: rows of a matrix are
concatenated, so that kron(P, Q) @ vec_row(D) == vec_row(P @ D @ Q.T).
"""

import math

import numpy as np

from muonlab import matcore, problems


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


def direction_rank(O) -> int:
    """Rank of a semi-orthogonal direction: its squared Frobenius norm, rounded."""
    return int(round(float(np.sum(O * O))))


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
    S = matcore.svd(A)
    if S[0] == 0.0:
        raise ValueError("concentration ratio undefined for the zero matrix")
    return float(np.sum(S * S) / (S[0] * S[0]))


def ky_fan_constant(curvature, shape) -> float:
    """The least L_* with |<D, A(D)>| <= L_* ||D||_op^2 for every direction D
    of the given (rows, cols) shape, where A multiplies D on one side by the
    symmetric PSD curvature matrix: 2c Q on the left for a quadratic, H = X X^T / B
    on the right for the linear MSE.

    It is the sum of the curvature's top min(rows, cols) eigenvalues (Ky Fan's
    maximum principle; Horn and Johnson, Topics in Matrix Analysis, 1991): D D^T
    (or D^T D) has at most that many nonzero eigenvalues, none above
    ||D||_op^2, and D built from the top eigenvectors attains the sum.  The
    trace of the curvature is the looser bound that drops the rank limit.
    """
    eigs = np.linalg.eigvalsh(matcore.as_matrix(curvature))
    return float(np.sum(eigs[::-1][:min(shape)]))


# Plain 2-D formulas for what matcore, diagnostics.distance_metrics and the
# quadratic value_grad compute over the leading axes of a stack.  A 2-D call,
# a one-matrix stack, must give exactly these bits.

def frobenius_2d(A) -> float:
    return float(np.linalg.norm(A, "fro"))


def nuclear_2d(A) -> float:
    return float(np.sum(matcore._lapack_svd(A, compute_uv=False)))


def polar_2d(A) -> np.ndarray:
    """U_r @ V_r.T, truncated at RANK_TOL; the zero matrix maps to zero."""
    U, S, Vh = matcore._lapack_svd(A)
    if S[-1] > matcore.RANK_TOL * S[0]:
        return U @ Vh
    keep = S > matcore.RANK_TOL * S[0]
    if not keep[0]:
        return np.zeros((U.shape[0], Vh.shape[1]))
    return U[:, keep] @ Vh[keep, :]


def ns_2d(A, steps: int = matcore.DEFAULT_NS_STEPS) -> np.ndarray:
    """Newton-Schulz from A over its Frobenius norm; the zero matrix maps to zero."""
    X = A / (frobenius_2d(A) or 1.0)
    transposed = X.shape[0] > X.shape[1]
    if transposed:
        X = X.T
    for k in range(steps):
        a, b, c = matcore.NS_COEFFS[min(k, len(matcore.NS_COEFFS) - 1)]
        P = X @ X.T
        X = a * X + (b * P + c * (P @ P)) @ X
    return X.T if transposed else X


def lambda_norm_2d(A, W) -> float:
    return float(np.sqrt(max(float(np.sum((A @ W) * A)), 0.0)))


def distances_2d(W, W_star) -> tuple:
    E = W - W_star
    return frobenius_2d(E), float(matcore.svd(E)[0]) if np.any(E) else 0.0


def quadratic_value_grad_2d(Q, W_star, c: float, W) -> tuple:
    E = W - W_star
    QE = Q @ E
    return c * float(np.sum(E * QE)), 2.0 * c * QE


def uncached_mlp_oracles(shapes, X, Y, loss, seed, train_layer):
    """The oracles of mlp_new(shapes, X, Y, loss, seed, train_layer), computed
    with a full forward pass from X on every call, and probe_clean(W, D): true
    when the central-difference probe of hvp(W, D) keeps every hidden ReLU mask
    of W unchanged, so the fd value is a Hessian product, not a kink artifact."""
    rng = np.random.default_rng(seed)
    frozen = [rng.standard_normal(s) * np.sqrt(2.0 / s[1]) for s in shapes]

    def assemble(W):
        ws = list(frozen)
        ws[train_layer] = W
        return ws

    def forward(W):
        acts, pres, H = [X], [], X
        ws = assemble(W)
        for idx, Wi in enumerate(ws):
            Z = Wi @ H
            pres.append(Z)
            H = np.maximum(Z, 0.0) if idx < len(ws) - 1 else Z
            acts.append(H)
        return ws, pres, acts

    def value_grad(W):
        ws, pres, acts = forward(W)
        f, delta = problems._mlp_loss_and_delta(acts[-1], Y, loss)
        for idx in range(len(ws) - 1, -1, -1):
            G = delta @ acts[idx].T
            if idx == train_layer:
                return f, G
            delta = ws[idx].T @ delta
            if idx > 0:
                delta = delta * (pres[idx - 1] > 0)

    def grad(W):
        return value_grad(W)[1]

    def hvp(W, D):
        # central differences at one point at a time: two calls of the 2-D grad
        eps = problems._fd_step(W, D)
        if eps is None:
            return np.zeros_like(D)
        return (grad(W + eps * D) - grad(W - eps * D)) / (2.0 * eps)

    def kink_margin(W):
        hidden = forward(W)[1][:-1]
        return float(min(np.abs(Z).min() for Z in hidden)) if hidden else float("inf")

    def masks(W):
        return [Z > 0 for Z in forward(W)[1][:-1]]

    def probe_clean(W, D):
        dn = float(np.linalg.norm(D, "fro"))
        if dn == 0.0:
            return True
        eps = 1e-4 * (1.0 + float(np.linalg.norm(W, "fro"))) / (1.0 + dn)
        ref = masks(W)
        return all(np.array_equal(got, want)
                   for signed in (W + eps * D, W - eps * D)
                   for got, want in zip(masks(signed), ref))

    return {"value": lambda W: value_grad(W)[0], "value_grad": value_grad, "grad": grad,
            "hvp": hvp, "kink_margin": kink_margin, "probe_clean": probe_clean}


# Closed forms of two verify bounds, written from the statements they check
# rather than from verify's arithmetic.

def momentum_error_bound(sigma: float, batch: int, beta: float, t: int) -> float:
    """Bound on E||M_t - Mbar_t||_F at step t.

    M_t = beta M_{t-1} + (1 - beta) g_t with M_0 = g_0 averages noisy
    gradients g_t = grad + xi_t, Mbar_t the same recursion on the exact
    gradient, and the xi_t are independent with E||xi_t||_F^2 =
    sigma^2 / batch.  The difference is beta^t xi_0 plus (1 - beta) times
    sum_{s=1..t} beta^(t-s) xi_s, so its second moment is at most
    (sigma^2 / batch) ((1 - beta) / (1 + beta) + beta^(2t)), and the square
    root of a sum is at most the sum of the square roots.
    """
    scale = sigma / math.sqrt(batch)
    return scale * math.sqrt((1 - beta) / (1 + beta)) + scale * beta ** t


def nonconvex_rate_rhs(delta: float, T: int, eta: float, C: float, r: int, beta: float,
                       sigma: float, batch: int) -> float:
    """Right-hand side of the constant-stepsize Muon rate bound.

    (1/T) sum_{t<T} E||grad f(W_t)||_* is at most the descent terms
    delta / (T eta) + C eta / 2, the momentum lag 2 beta C eta / (1 - beta),
    and twice sqrt(r) times the momentum error of momentum_error_bound
    averaged over the steps, whose beta^t parts sum to at most
    beta / (1 - beta) over t >= 1.  C is r L (Frobenius constant) or L_star
    (spectral constant), delta = f(W_0) - f*.
    """
    descent = delta / (T * eta) + C * eta / 2
    lag = 2 * beta * C * eta / (1 - beta)
    noise = 2 * math.sqrt(r) * sigma / math.sqrt(batch) * (
        math.sqrt((1 - beta) / (1 + beta)) + beta / ((1 - beta) * T))
    return descent + lag + noise
