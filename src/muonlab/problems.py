"""Objective oracles and data generation.

Every problem exposes value(W), grad(W) and a Hessian-vector product
hvp(W, D) over a single matrix parameter.  Quadratic and linear-MSE oracles
are exact; the MLP oracle backpropagates gradients by hand and approximates
hvp by central finite differences.  Known constants (smoothness, optimum)
live in problem.metadata.
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
        value, grad, hvp: the oracles; hvp(W, D) is linear and symmetric in D.
        hvp_exact: False when hvp is a finite-difference approximation.
        value_grad: optional fused oracle returning (value, grad) cheaply.
        value_grad_stacks: True when value_grad also takes a (k, m, n) stack
            of parameters and returns a (k,) array of values with the (k, m, n)
            gradients, each slice bit for bit its own 2-D call.
        kink_margin: optional callable giving the distance of the nearest
            hidden-layer preactivation to zero (MLPs only).
        probe_clean: optional predicate, true when the hvp(W, D) probe keeps
            every hidden ReLU mask unchanged (MLPs only).
        metadata: known constants, e.g. L, L_star, W_star, f_star, sigma.
    """

    def __init__(self, shape, value, grad, hvp, hvp_exact=True, metadata=None,
                 value_grad=None, kink_margin=None, probe_clean=None,
                 value_grad_stacks=False):
        self.shape = tuple(shape)
        self.value = value
        self.grad = grad
        self.hvp = hvp
        self.hvp_exact = hvp_exact
        self.value_grad = value_grad
        self.value_grad_stacks = value_grad_stacks
        self.kink_margin = kink_margin
        self.probe_clean = probe_clean
        self.metadata = dict(metadata or {})

    def eval_value_grad(self, W):
        if self.value_grad is not None:
            return self.value_grad(W)
        return self.value(W), self.grad(W)


def f_star(problem: Problem) -> Optional[float]:
    """Known optimal value; None if unavailable."""
    return problem.metadata.get("f_star")


def quadratic_new(Q, W_star, half: bool = True) -> Problem:
    """Quadratic objective c * trace((W - W*)^T Q (W - W*)).

    half=True uses c = 1/2 (so grad = Q (W - W*)); half=False uses c = 1.
    Exact metadata: L = 2c*||Q||_op, L_star = 2c*||Q||_*, f* = 0, W* known.
    value_grad also takes a (k, m, n) stack of parameters.
    """
    Q = matcore.as_matrix(Q)
    W_star = matcore.as_matrix(W_star)
    matcore.require_spd(Q, "Q")
    if Q.shape[0] != W_star.shape[0]:
        raise ValueError("Q and W_star row dimensions must agree")
    c = 0.5 if half else 1.0
    S = matcore.svd(Q).S
    meta = {
        "kind": "quadratic",
        "L": 2.0 * c * float(S[0]),
        "L_star": 2.0 * c * float(np.sum(S)),
        "W_star": W_star,
        "f_star": 0.0,
        "Q": Q,
        "c_scale": c,
    }

    def value(W):
        E = W - W_star
        return c * float(np.sum(E * (Q @ E)))

    def grad(W):
        return 2.0 * c * (Q @ (W - W_star))

    def value_grad(W):
        # Q @ E multiplies each slice of a stack on its own, and the sum over
        # the last two axes adds each slice in the order of its 2-D sum
        E = W - W_star
        QE = Q @ E
        if E.ndim == 2:
            return c * float(np.sum(E * QE)), 2.0 * c * QE
        return c * np.sum(E * QE, axis=(1, 2)), 2.0 * c * QE

    def hvp(W, D):
        return 2.0 * c * (Q @ D)

    return Problem(W_star.shape, value, grad, hvp, hvp_exact=True,
                   metadata=meta, value_grad=value_grad, value_grad_stacks=True)


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
    rng = np.random.default_rng(seed)
    R, _ = np.linalg.qr(rng.standard_normal((m, m)))
    if decay == "geometric":
        lam = cond ** (-np.arange(m) / (m - 1))
    elif decay == "two_cluster":
        lam = np.full(m, 1.0 / cond)
        lam[0] = 1.0
    else:
        raise ValueError(f"unknown decay {decay!r}")
    Q = (R * lam) @ R.T
    return 0.5 * (Q + Q.T)


def linear_mse_new(X, Y) -> Problem:
    """Mean-square loss of a linear model: f(W) = ||W X - Y||_F^2 / (2B).

    X is d x B (features in columns), Y is c x B, W is c x d.  The Hessian is
    the constant map D -> D (X X^T) / B; metadata carries the induced
    smoothness constants L = ||X||_op^2 / B and L_star = ||X||_F^2 / B, and
    the least-squares optimal value f_star.
    """
    X = matcore.as_matrix(X)
    Y = matcore.as_matrix(Y)
    if X.shape[1] != Y.shape[1]:
        raise ValueError("X and Y must have the same number of columns")
    B = X.shape[1]
    H = (X @ X.T) / B
    meta = {
        "kind": "linear_mse",
        "L": matcore.svd(X).S[0] ** 2 / B,
        "L_star": float(np.sum(X * X)) / B,
        "X": X,
        "Y": Y,
    }

    def value(W):
        R = W @ X - Y
        return 0.5 * float(np.sum(R * R)) / B

    def grad(W):
        return ((W @ X - Y) @ X.T) / B

    def value_grad(W):
        R = W @ X - Y
        return 0.5 * float(np.sum(R * R)) / B, (R @ X.T) / B

    def hvp(W, D):
        return D @ H

    W_opt, *_ = np.linalg.lstsq(X.T, Y.T, rcond=None)
    meta["f_star"] = float(value(W_opt.T))
    return Problem((Y.shape[0], X.shape[0]), value, grad, hvp, hvp_exact=True,
                   metadata=meta, value_grad=value_grad)


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
    if target_ratio < 1:
        raise ValueError("target_ratio must be at least 1")
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


def load_labels_csv(path, skip_header: bool = False, integer_classes: bool = False,
                    classes: Optional[int] = None) -> np.ndarray:
    """Read a label matrix: one-hot rows-by-samples, or a single row/column of
    integer class ids (integer_classes=True) expanded to one-hot."""
    raw = load_features_csv(path, skip_header=skip_header)
    if integer_classes:
        flat = raw.reshape(-1) if 1 in raw.shape else None
        if flat is None:
            raise ValueError("integer class labels must form a single row or column")
        ids = flat.astype(int)
        if np.any(ids != flat) or ids.min() < 0:
            raise ValueError("class ids must be nonnegative integers")
        c = int(classes) if classes is not None else int(ids.max()) + 1
        if ids.max() >= c:
            raise ValueError(f"class id {ids.max()} exceeds the declared {c} classes")
        Y = np.zeros((c, ids.size))
        Y[ids, np.arange(ids.size)] = 1.0
        return Y
    col_sums = raw.sum(axis=0)
    if not (np.all((raw == 0) | (raw == 1)) and np.allclose(col_sums, 1.0)):
        raise ValueError("label matrix is not one-hot encoded; pass integer_classes=True for id columns")
    return raw


def _fd_step(W: np.ndarray, D: np.ndarray) -> Optional[float]:
    """Step of the central-difference probe of hvp(W, D), scaled to the
    parameter and direction sizes: 1e-4 * (1 + ||W||_F) / (1 + ||D||_F);
    None for the zero direction."""
    dn = float(np.linalg.norm(D, "fro"))
    if dn == 0.0:
        return None
    return 1e-4 * (1.0 + float(np.linalg.norm(W, "fro"))) / (1.0 + dn)


def fd_hvp(grad_fn, W, D) -> np.ndarray:
    """Central-difference Hessian-vector product from a gradient oracle,
    with the step of _fd_step."""
    W = matcore.as_matrix(W)
    D = matcore.as_matrix(D)
    eps = _fd_step(W, D)
    if eps is None:
        return np.zeros_like(D)
    return (grad_fn(W + eps * D) - grad_fn(W - eps * D)) / (2.0 * eps)


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
        return 0.5 * float(np.sum(R * R)) / B, R / B
    # loss is "softmax_ce", as mlp_new checks
    z = out - out.max(axis=0, keepdims=True)
    ez = np.exp(z)
    p = ez / ez.sum(axis=0, keepdims=True)
    lse = np.log(ez.sum(axis=0)) + out.max(axis=0)
    f = float(np.sum(lse) - np.sum(Y * out)) / B
    return f, (p - Y) / B


def mlp_new(layer_shapes: Sequence[tuple], X, Y, loss: str = "softmax_ce",
            seed: int = 0, train_layer: Optional[int] = None) -> Problem:
    """Bias-free ReLU MLP, exposed as a Problem over one designated layer.

    layer_shapes lists the weight shapes [(n1, n0), (n2, n1), ...]; the chain
    must be consistent with X (n0 x B) and Y (n_last x B).  All layers other
    than train_layer (default: the middle one) are frozen at their seeded
    random initialization.  Gradients are exact via backpropagation; hvp uses
    central finite differences on the gradient, with a step scaled to the
    parameter and direction sizes.

    The frozen layers below train_layer never depend on W, so they are
    evaluated once here: every oracle starts its forward pass at the trained
    layer from the cached activations.  The problem keeps its own copies of
    those activations and of Y, so changing the caller's X or Y afterwards
    does not change the problem.
    """
    if loss not in ("mse", "softmax_ce"):
        raise ValueError(f"unknown loss {loss!r}")
    X = matcore.as_matrix(X)
    Y = matcore.as_matrix(Y).copy(order="K")
    shapes = [tuple(s) for s in layer_shapes]
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
        ws = [matcore.as_matrix(W)] + frozen[train_layer + 1:]
        pres, acts = _mlp_forward(ws, H_in)
        return ws, pres, acts

    def value(W):
        _, _, acts = forward(W)
        f, _ = _mlp_loss_and_delta(acts[-1], Y, loss)
        return f

    def value_grad(W):
        ws, pres, acts = forward(W)
        f, delta = _mlp_loss_and_delta(acts[-1], Y, loss)
        for idx in range(len(ws) - 1, 0, -1):
            delta = ws[idx].T @ delta
            delta = delta * (pres[idx - 1] > 0)
        return f, delta @ acts[0].T

    def grad(W):
        return value_grad(W)[1]

    def hvp(W, D):
        return fd_hvp(grad, W, D)

    def kink_margin(W):
        _, pres, _ = forward(W)
        margins = prefix_margin + [np.abs(Z).min() for Z in pres[:-1]]
        if not margins:
            return float("inf")
        return float(min(margins))

    def _masks(W):
        # hidden masks from train_layer up; those below it never depend on W
        _, pres, _ = forward(W)
        return [Z > 0 for Z in pres[:-1]]

    def probe_clean(W, D):
        """True when the central-difference probe for hvp(W, D) keeps every
        hidden ReLU mask unchanged, i.e. the fd value is a genuine Hessian
        product rather than a kink artifact."""
        W = matcore.as_matrix(W)
        D = matcore.as_matrix(D)
        eps = _fd_step(W, D)
        if eps is None:
            return True
        ref = _masks(W)
        for signed in (W + eps * D, W - eps * D):
            for got, want in zip(_masks(signed), ref):
                if not np.array_equal(got, want):
                    return False
        return True

    meta = {"kind": "mlp", "loss": loss, "train_layer": train_layer,
            "layer_shapes": shapes, "W_init": frozen[train_layer].copy()}
    return Problem(shapes[train_layer], value, grad, hvp, hvp_exact=False,
                   metadata=meta, value_grad=value_grad, kink_margin=kink_margin,
                   probe_clean=probe_clean)


class StochasticGradOracle:
    """Additive-Gaussian stochastic gradient model with controlled variance.

    sample(W) returns grad(W) + noise(), where noise() is N/sqrt(batch) and N
    has i.i.d. Gaussian entries scaled so that E||N||_F^2 = sigma^2.  Samples
    are unbiased and their squared deviation has expectation sigma^2 / batch.
    """

    def __init__(self, problem: Problem, sigma: float, batch: int = 1, seed: int = 0):
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if batch < 1:
            raise ValueError("batch must be at least 1")
        self.problem = problem
        self.sigma = float(sigma)
        self.batch = int(batch)
        self.rng = np.random.default_rng(seed)
        m, n = problem.shape
        self._entry_std = sigma / np.sqrt(m * n)
        self._batch_root = np.sqrt(self.batch)

    def noise(self) -> np.ndarray:
        """One draw of the additive noise N/sqrt(batch); zeros, drawing
        nothing, when sigma is 0."""
        if self.sigma == 0.0:
            return np.zeros(self.problem.shape)
        return self.rng.standard_normal(self.problem.shape) * self._entry_std / self._batch_root

    def sample(self, W) -> np.ndarray:
        G = self.problem.grad(W)
        if self.sigma == 0.0:
            return G
        return G + self.noise()
