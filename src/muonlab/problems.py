"""Objective oracles and data generation.

Each problem kind writes one loss-and-gradient oracle value_grad(W) and a
Hessian-vector product hvp(W, D) over a single matrix parameter; Problem
derives value(W) and grad(W) from value_grad.  Quadratic and linear-MSE
oracles are exact; the MLP oracle backpropagates gradients by hand and
approximates hvp by central finite differences.  Known constants
(smoothness, optimum) live in problem.metadata.
"""

from __future__ import annotations

import contextlib
import csv
import os
import threading
from contextvars import ContextVar
from typing import Optional, Sequence

import numpy as np

from . import matcore


class Problem:
    """Bundle of objective callables over one matrix parameter.

    Attributes:
        shape: (m, n) of the parameter matrix.
        value_grad: the loss-and-gradient oracle, returning (value, grad), a
            float value for one matrix and (k,) values for a (k, m, n) stack,
            each slice bit for bit its own call; value and grad are its halves.
        hvp: Hessian-vector product; hvp(W, D) is linear and symmetric in D.
        hvp_exact: False when hvp is a finite-difference approximation.
        kink_margin: optional callable giving the distance of the nearest
            hidden-layer preactivation to zero (MLPs only).
        metadata: known constants, e.g. L, L_star, W_star, f_star.
    """

    def __init__(self, shape, value_grad, hvp, hvp_exact=True, metadata=None,
                 kink_margin=None):
        self.shape = tuple(shape)
        self.value_grad = value_grad
        self.hvp = hvp
        self.hvp_exact = hvp_exact
        self.kink_margin = kink_margin
        self.metadata = dict(metadata or {})

    def value(self, W):
        return self.value_grad(W)[0]

    def grad(self, W):
        return self.value_grad(W)[1]


def f_star(problem: Problem) -> Optional[float]:
    """Known optimal value; None if unavailable."""
    return problem.metadata.get("f_star")


def quadratic_new(Q, W_star, half: bool = True) -> Problem:
    """Quadratic objective c * trace((W - W*)^T Q (W - W*)).

    half=True uses c = 1/2 (so grad = Q (W - W*)); half=False uses c = 1.
    Exact metadata: L = 2c*||Q||_op, L_star = 2c*||Q||_*, f* = 0, W* known.
    L_star is the trace bound 2c*tr(Q); the least constant with |<D, 2c Q D>|
    <= L_star*||D||_op^2 sums 2c*Q's top min(m, n) eigenvalues, so they agree
    when m <= n.  Q may be a (k, m, m) stack with a (k, m, n) stack W_star:
    k quadratics, L and L_star (k,) arrays, each slice bit for bit its 2-D build.
    """
    Q = matcore.as_matrices(Q)
    W_star = matcore.as_matrices(W_star)
    matcore.require_spd(Q, "Q")
    if Q.shape[:-1] != W_star.shape[:-1]:
        raise ValueError("Q and W_star must agree in stack size and row count")
    c = 0.5 if half else 1.0
    S = matcore.svd(Q)
    meta = {"kind": "quadratic",
            "L": matcore.per_matrix(2.0 * c * S[..., 0], Q),
            "L_star": matcore.per_matrix(2.0 * c * np.sum(S, axis=-1), Q),
            "W_star": W_star, "f_star": 0.0, "Q": Q, "c_scale": c}

    def value_grad(W):
        # Q @ E multiplies each slice of a stack on its own, and the sum over
        # the last two axes adds each slice in the order of its 2-D sum
        E = W - W_star
        QE = Q @ E
        return matcore.per_matrix(c * np.sum(E * QE, axis=(-2, -1)), E), 2.0 * c * QE

    def hvp(W, D):
        return 2.0 * c * (Q @ D)

    return Problem(W_star.shape[-2:], value_grad, hvp, hvp_exact=True, metadata=meta)


def make_ill_conditioned_Q(m: int, cond: float, decay: str = "two_cluster",
                           seed: int = 0) -> np.ndarray:
    """Random symmetric PD matrix with a prescribed spectrum.

    geometric: eigenvalues 1, cond^(-1/(m-1)), ..., 1/cond.
    two_cluster: one eigenvalue at 1 and the rest at 1/cond, which keeps the
    nuclear-to-operator ratio close to 1 while the condition number is cond.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    if cond <= 1:
        raise ValueError("cond must exceed 1")
    if decay == "geometric":
        lam = cond ** (-np.arange(m) / (m - 1))
    elif decay == "two_cluster":
        lam = np.full(m, 1.0 / cond)
        lam[0] = 1.0
    else:
        raise ValueError(f"unknown decay {decay!r}")
    return spd_from_eigs(np.random.default_rng(seed).standard_normal((m, m)), lam)


def spd_from_eigs(G: np.ndarray, eigs: np.ndarray) -> np.ndarray:
    """R diag(eigs) R^T, symmetrized, with R the Q factor of the square G.

    G may also be a (k, n, n) stack with a (k, n) array of eigenvalues.
    """
    R, _ = np.linalg.qr(G)
    M = (R * eigs[..., None, :]) @ R.swapaxes(-1, -2)
    return 0.5 * (M + M.swapaxes(-1, -2))


def linear_mse_new(X, Y) -> Problem:
    """Mean-square loss of a linear model: f(W) = ||W X - Y||_F^2 / (2B).

    X is d x B (features in columns), Y is c x B, W is c x d.  The Hessian is
    the constant map D -> D H with H = X X^T / B.  metadata carries L = ||H||_op,
    L_star = tr(H), the trace bound (the least constant sums H's top min(c, d)
    eigenvalues, so they agree when rank(X) <= c), and the least-squares
    optimal value f_star.  value_grad works in place.
    """
    X = matcore.as_matrix(X)
    Y = matcore.as_matrix(Y)
    if X.shape[1] != Y.shape[1]:
        raise ValueError("X and Y must have the same number of columns")
    B = X.shape[1]
    H = (X @ X.T) / B
    meta = {
        "kind": "linear_mse",
        "L": matcore.svd(X)[0] ** 2 / B,
        "L_star": float(np.sum(X * X)) / B,
        "X": X,
        "Y": Y,
    }

    def value_grad(W):
        R = W @ X
        R -= Y
        G = R @ X.T
        G /= B
        R *= R
        return matcore.per_matrix(0.5 * np.sum(R, axis=(-2, -1)) / B, R), G

    def hvp(W, D):
        return D @ H

    W_opt, *_ = np.linalg.lstsq(X.T, Y.T, rcond=None)
    meta["f_star"] = value_grad(W_opt.T)[0]
    return Problem((Y.shape[0], X.shape[0]), value_grad, hvp, hvp_exact=True,
                   metadata=meta)


def gaussian_features(d: int, B: int, seed: int = 0) -> np.ndarray:
    """d x B matrix of i.i.d. standard normal entries."""
    if d < 1 or B < 1:
        raise ValueError("d and B must be positive")
    return np.random.default_rng(seed).standard_normal((d, B))


def lowrank_features(d: int, B: int, target_ratio: float, seed: int = 0) -> np.ndarray:
    """Synthetic feature matrix with a prescribed concentration ratio.

    Builds X = U diag(s) V^T with random orthogonal factors and a geometric
    singular-value profile s_i = rho^(i-1), with rho solved so that
    ||X||_F^2 / ||X||_op^2 hits target_ratio (within 2%; the bisection is
    essentially exact).  target_ratio=1 yields a rank-1 matrix.
    """
    if d < 1 or B < 1:
        raise ValueError("d and B must be positive")
    k = min(d, B)
    if not target_ratio >= 1:
        raise ValueError(f"target_ratio must be at least 1, got {target_ratio}")
    if target_ratio > k:
        raise ValueError(f"target_ratio {target_ratio} is infeasible for min(d,B)={k}")
    if target_ratio == 1.0:
        rho = 0.0
    elif target_ratio == float(k):
        rho = 1.0
    else:
        # ratio(rho) = (1 - rho^(2k)) / (1 - rho^2), increasing on [0, 1)
        lo, hi = 0.0, 1.0 - 1e-15
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            r_mid = (1.0 - mid ** (2 * k)) / (1.0 - mid ** 2)
            if r_mid < target_ratio:
                lo = mid
            else:
                hi = mid
        rho = 0.5 * (lo + hi)
    s = rho ** np.arange(k) if rho > 0 else np.concatenate(([1.0], np.zeros(k - 1)))
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((d, d)))
    V, _ = np.linalg.qr(rng.standard_normal((B, B)))
    return (U[:, :k] * s) @ V[:, :k].T


def onehot_labels(c: int, B: int, seed: int = 0) -> np.ndarray:
    """c x B matrix whose columns are random one-hot class indicators."""
    if c < 1 or B < 1:
        raise ValueError("c and B must be positive")
    rng = np.random.default_rng(seed)
    Y = np.zeros((c, B))
    Y[rng.integers(0, c, size=B), np.arange(B)] = 1.0
    return Y


# while this holds a list, write_atomic appends every path it newly creates
new_files: ContextVar[Optional[list]] = ContextVar("new_files", default=None)


def write_atomic(path, text: str) -> None:
    """Put text in the file at path whole, creating its directory.

    The text goes to a temporary file beside path that is then renamed onto
    it, so on any failure an existing file stays unchanged and the temporary
    file is removed.  Every artifact is written here.
    """
    path = os.fspath(path)
    folder, name = os.path.split(path)
    os.makedirs(folder or ".", exist_ok=True)
    tmp = os.path.join(folder, f".{name}.{os.getpid()}-{threading.get_ident()}.tmp")
    is_new = not os.path.lexists(path)
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    if is_new and new_files.get() is not None:
        new_files.get().append(path)


def save_matrix_csv(A, path) -> None:
    """Write a matrix as plain comma-separated rows (full float precision)."""
    A = matcore.as_matrix(A)
    write_atomic(path, "".join(",".join(repr(float(x)) for x in row) + "\n" for row in A))


def load_features_csv(path, skip_header: bool = False) -> np.ndarray:
    """Read a rectangular numeric CSV as a feature matrix (rows = features)."""
    rows = []
    width = None
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for i, row in enumerate(reader):
            if skip_header and i == 0:
                continue
            if not row or (len(row) == 1 and row[0].strip() == ""):
                continue
            try:
                vals = [float(x) for x in row]
            except ValueError as exc:
                raise ValueError(f"malformed CSV row {i} in {path}: {exc}") from exc
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise ValueError(f"malformed CSV row {i} in {path}: expected {width} fields, got {len(vals)}")
            rows.append(vals)
    if not rows:
        raise ValueError(f"no data rows in {path}")
    return matcore.as_matrix(np.array(rows))


def _fd_step(W: np.ndarray, D: np.ndarray) -> Optional[float]:
    """Step of the central-difference probe of hvp(W, D), scaled to the
    parameter and direction sizes: 1e-4 * (1 + ||W||_F) / (1 + ||D||_F);
    None for the zero direction."""
    dn = matcore.frobenius_norm(D)
    if dn == 0.0:
        return None
    return 1e-4 * (1.0 + matcore.frobenius_norm(W)) / (1.0 + dn)


def fd_hvp(grad_fn, W, D) -> np.ndarray:
    """Central-difference Hessian-vector product from a gradient oracle,
    with the step of _fd_step.  grad_fn takes the (2, m, n) stack of
    W + eps * D and W - eps * D, as every Problem.grad does, and is called
    once."""
    W = matcore.as_matrix(W)
    D = matcore.as_matrix(D)
    eps = _fd_step(W, D)
    if eps is None:
        return np.zeros_like(D)
    G = grad_fn(np.stack((W + eps * D, W - eps * D)))
    return (G[0] - G[1]) / (2.0 * eps)


# ---------------------------------------------------------------------------
# Bias-free MLP with hand-written backpropagation
# ---------------------------------------------------------------------------


def _mlp_forward(weights, X):
    """Returns (preactivations, activations); ReLU between layers, none after last."""
    acts = [X]
    pres = []
    H = X
    for idx, W in enumerate(weights):
        Z = W @ H
        pres.append(Z)
        H = np.maximum(Z, 0.0) if idx < len(weights) - 1 else Z
        acts.append(H)
    return pres, acts


def _mlp_loss_and_delta(out, Y, loss):
    B = Y.shape[1]
    if loss == "mse":
        R = out - Y
        return matcore.per_matrix(0.5 * np.sum(R * R, axis=(-2, -1)) / B, out), R / B
    # loss is "softmax_ce", as mlp_new checks; classes run down axis -2
    z = out - out.max(axis=-2, keepdims=True)
    ez = np.exp(z)
    p = ez / ez.sum(axis=-2, keepdims=True)
    lse = np.log(ez.sum(axis=-2)) + out.max(axis=-2)
    f = (np.sum(lse, axis=-1) - np.sum(Y * out, axis=(-2, -1))) / B
    return matcore.per_matrix(f, out), (p - Y) / B


def mlp_new(layer_shapes: Sequence[tuple], X, Y, loss: str = "softmax_ce",
            seed: int = 0, train_layer: Optional[int] = None) -> Problem:
    """Bias-free ReLU MLP, exposed as a Problem over one designated layer.

    layer_shapes lists the weight shapes [(n1, n0), (n2, n1), ...]; the chain
    must be consistent with X (n0 x B) and Y (n_last x B).  All layers other
    than train_layer (default: the middle one) are frozen at their seeded
    random initialization.  Gradients are exact via backpropagation; hvp uses
    central finite differences on the gradient (fd_hvp, one stacked call),
    with a step scaled to the parameter and direction sizes.

    The frozen layers below train_layer never depend on W, so they are
    evaluated once here: every oracle starts its forward pass at the trained
    layer from the cached activations.  The problem keeps its own copies of
    those activations and of Y, so changing the caller's X or Y afterwards
    does not change the problem.  hvp and kink_margin take one W.
    """
    if loss not in ("mse", "softmax_ce"):
        raise ValueError(f"unknown loss {loss!r}")
    shapes = [tuple(s) for s in layer_shapes]
    if min(min(s) for s in shapes) < 1:
        raise ValueError(f"every layer width must be at least 1, got {shapes}")
    X = matcore.as_matrix(X)
    Y = matcore.as_matrix(Y).copy(order="K")
    for i in range(1, len(shapes)):
        if shapes[i][1] != shapes[i - 1][0]:
            raise ValueError(f"layer shape chain broken between {shapes[i-1]} and {shapes[i]}")
    if shapes[0][1] != X.shape[0]:
        raise ValueError(f"first layer expects input dim {shapes[0][1]}, data has {X.shape[0]}")
    if shapes[-1][0] != Y.shape[0]:
        raise ValueError(f"last layer outputs dim {shapes[-1][0]}, labels have {Y.shape[0]}")
    if X.shape[1] != Y.shape[1]:
        raise ValueError("X and Y must have the same number of samples")
    if train_layer is None:
        train_layer = len(shapes) // 2
    if not 0 <= train_layer < len(shapes):
        raise ValueError("train_layer out of range")

    rng = np.random.default_rng(seed)
    frozen = [rng.standard_normal(s) * np.sqrt(2.0 / s[1]) for s in shapes]

    # the frozen layers below train_layer, run once: the activation they feed
    # into the trained layer (X itself when train_layer is 0, hence the copy)
    # and their smallest |preactivation|
    pres0, acts0 = _mlp_forward(frozen, X)
    H_in = acts0[train_layer].copy(order="K")
    prefix_margin = [min(np.abs(Z).min() for Z in pres0[:train_layer])] if train_layer else []

    def forward(W):
        """(weights, preactivations, activations) from the trained layer up."""
        ws = [matcore.as_matrices(W)] + frozen[train_layer + 1:]
        pres, acts = _mlp_forward(ws, H_in)
        return ws, pres, acts

    def value_grad(W):
        ws, pres, acts = forward(W)
        f, delta = _mlp_loss_and_delta(acts[-1], Y, loss)
        for idx in range(len(ws) - 1, 0, -1):
            delta = ws[idx].T @ delta
            delta = delta * (pres[idx - 1] > 0)
        return f, delta @ acts[0].T

    def hvp(W, D):
        return fd_hvp(lambda V: value_grad(V)[1], W, D)

    def kink_margin(W):
        _, pres, _ = forward(W)
        margins = prefix_margin + [np.abs(Z).min() for Z in pres[:-1]]
        if not margins:
            return float("inf")
        return float(min(margins))

    meta = {"kind": "mlp", "loss": loss, "train_layer": train_layer,
            "layer_shapes": shapes, "W_init": frozen[train_layer].copy()}
    return Problem(shapes[train_layer], value_grad, hvp, hvp_exact=False,
                   metadata=meta, kink_margin=kink_margin)

