"""Minimal dense / graph layers with hand-derived gradients, plus Adam.

Everything is float64 numpy; forward functions accept a leading batch
dimension.  A forward call with ``keep=True`` also returns what its
backward needs: the activation output for tanh (derivative 1 - y*y), the
pre-activation for elu, nothing for identity, and for a graph layer the
row-normalised adjacency and the neighbour mean.  Backward takes that
value as ``saved`` and recomputes it with the same forward code only when
it is not given, so both ways return the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("elu", "tanh", "identity")


def elu(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    # exp only sees the non-positive branch, so large inputs cannot overflow
    return np.where(x >= 0, x, np.expm1(np.minimum(x, 0.0)))


def elu_grad(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.where(x >= 0, 1.0, np.exp(np.minimum(x, 0.0)))


def _activate(name: str, z: np.ndarray, out=None) -> np.ndarray:
    """act(z); tanh writes into out when it is given, which may be z."""
    if name == "elu":
        return elu(z)
    if name == "tanh":
        return np.tanh(z, out=out)
    if name == "identity":
        return z
    raise ValueError(f"unknown activation {name!r}")


def _grad_source(name: str, z: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """What the derivative of activation ``name`` is computed from: the
    output y for tanh, the pre-activation z for elu (exp(z) is not y + 1 to
    the bit), nothing for identity."""
    if name == "tanh":
        return y
    return z if name == "elu" else None


def _backprop_activation(name: str, upstream: np.ndarray, saved, out=None) -> np.ndarray:
    """upstream * act'(z), from the value _grad_source picked, computed in
    place in one array, out or a temporary (the same bits as the plain
    expression).  For identity it is upstream itself."""
    if name == "tanh":
        g = np.multiply(saved, saved, out=out)
        np.subtract(1.0, g, out=g)
        return np.multiply(upstream, g, out=g)
    if name == "elu":
        g = elu_grad(saved)
        return np.multiply(upstream, g, out=g if out is None else out)
    return upstream


def glorot_uniform(rng: np.random.Generator, n_out: int, n_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_out, n_in))


@dataclass
class DenseLayer:
    """y = act(W x + b) with W (out, in), b (out,)."""

    W: np.ndarray
    b: np.ndarray
    activation: str = "identity"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.W.ndim != 2 or self.b.shape != (self.W.shape[0],):
            raise ValueError(f"inconsistent dense shapes {self.W.shape}, {self.b.shape}")

    @property
    def n_in(self) -> int:
        return self.W.shape[1]

    @property
    def n_out(self) -> int:
        return self.W.shape[0]


def make_dense(rng: np.random.Generator, n_in: int, n_out: int, activation: str) -> DenseLayer:
    return DenseLayer(glorot_uniform(rng, n_out, n_in), np.zeros(n_out), activation)


def dense_forward(layer: DenseLayer, x: np.ndarray, keep: bool = False, out=None):
    """y = act(Wx + b).  With keep=True returns (y, saved), saved being the
    value dense_backward needs from this pass.  Wx + b is written into out
    when it is given, and so are y and saved for tanh and identity; an elu
    layer's y is still a new array."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != layer.n_in:
        raise ValueError(f"dense input dim {x.shape[-1]} != {layer.n_in}")
    z = np.matmul(x, layer.W.T, out=out)
    z += layer.b
    y = _activate(layer.activation, z, out=z)  # z is this call's own or out
    return (y, _grad_source(layer.activation, z, y)) if keep else y


def dense_backward(layer: DenseLayer, x: np.ndarray, upstream: np.ndarray, saved=None,
                   need_input: bool = True, dz_out=None, dx_out=None):
    """Gradients for y = act(Wx + b), given dense_forward's saved value (or
    recomputing it when None).

    Returns (dx, dW, db); parameter gradients are summed over any batch
    dimensions of x.  With need_input=False dx is None and not computed.
    upstream * act'(z) is written into dz_out and dx into dx_out when they
    are given (2-D, one row per row of x); dx_out must not overlap upstream
    or dz_out.
    """
    x = np.asarray(x, dtype=float)
    upstream = np.asarray(upstream, dtype=float)
    if saved is None and layer.activation != "identity":
        _, saved = dense_forward(layer, x, keep=True)
    dz = _backprop_activation(layer.activation, upstream, saved, dz_out)
    x2 = x.reshape(-1, layer.n_in)
    dz2 = dz.reshape(-1, layer.n_out)
    dW = dz2.T @ x2
    # dz2's C-ordered rows added one at a time in order, as dz2.sum(axis=0)
    # adds them, without the reduce's per-row cost
    db = np.einsum("ij->j", dz2)
    dx = np.matmul(dz2, layer.W, out=dx_out).reshape(x.shape) if need_input else None
    return dx, dW, db


@dataclass
class SageLayer:
    """Mean-aggregation graph convolution: h_i' = act(W_s h_i + W_n mean_j h_j + b)."""

    W_self: np.ndarray
    W_neigh: np.ndarray
    b: np.ndarray
    activation: str = "identity"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.W_self.shape != self.W_neigh.shape or self.b.shape != (self.W_self.shape[0],):
            raise ValueError("inconsistent sage shapes")

    @property
    def n_in(self) -> int:
        return self.W_self.shape[1]

    @property
    def n_out(self) -> int:
        return self.W_self.shape[0]


def make_sage(rng: np.random.Generator, n_in: int, n_out: int, activation: str) -> SageLayer:
    return SageLayer(
        glorot_uniform(rng, n_out, n_in),
        glorot_uniform(rng, n_out, n_in),
        np.zeros(n_out),
        activation,
    )


def row_normalized(A: np.ndarray) -> np.ndarray:
    """A with each row divided by its degree; empty rows stay zero."""
    A = np.asarray(A, dtype=float)
    deg = A.sum(axis=-1, keepdims=True)
    return A / np.maximum(deg, 1.0)


def _rows_matmul(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """X (..., n) @ W (n, m) as one product over all rows of X.  numpy runs
    the stacked product as one tiny product per leading index, several times
    slower, with the same bits."""
    return (X.reshape(-1, X.shape[-1]) @ W).reshape(X.shape[:-1] + (W.shape[1],))


def sage_forward(layer: SageLayer, X: np.ndarray, A: np.ndarray, keep: bool = False,
                 An: np.ndarray | None = None):
    """X is (..., L, in), A is (..., L, L); isolated nodes aggregate zero.

    An, row_normalized(A), may be passed to skip normalising A again.  With
    keep=True returns (y, saved), saved being (An, neighbour mean, the
    activation's derivative source) for sage_backward.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != layer.n_in:
        raise ValueError(f"sage input dim {X.shape[-1]} != {layer.n_in}")
    if A.shape[-1] != X.shape[-2]:
        raise ValueError("adjacency does not match node count")
    if An is None:
        An = row_normalized(A)
    agg = An @ X
    z = _rows_matmul(X, layer.W_self.T) + _rows_matmul(agg, layer.W_neigh.T) + layer.b
    y = _activate(layer.activation, z)
    return (y, (An, agg, _grad_source(layer.activation, z, y))) if keep else y


def sage_backward(layer: SageLayer, X: np.ndarray, A: np.ndarray, upstream: np.ndarray,
                  saved=None, need_input: bool = True):
    """Returns (dX, dW_self, dW_neigh, db), parameter grads summed over batch.

    saved is sage_forward's; when given, A is not read, and when None the
    forward pass is recomputed.  With need_input=False dX is None and not
    computed.
    """
    X = np.asarray(X, dtype=float)
    upstream = np.asarray(upstream, dtype=float)
    if saved is None:
        _, saved = sage_forward(layer, X, A, keep=True)
    An, agg, act_saved = saved
    dz = _backprop_activation(layer.activation, upstream, act_saved)
    dz2 = dz.reshape(-1, layer.n_out)
    dW_self = dz2.T @ X.reshape(-1, layer.n_in)
    dW_neigh = dz2.T @ agg.reshape(-1, layer.n_in)
    db = np.einsum("ij->j", dz2)  # as in dense_backward
    if not need_input:
        return None, dW_self, dW_neigh, db
    dagg = _rows_matmul(dz, layer.W_neigh)
    dX = _rows_matmul(dz, layer.W_self) + np.swapaxes(An, -1, -2) @ dagg
    return dX, dW_self, dW_neigh, db


def mse(x: np.ndarray, y: np.ndarray) -> float:
    """Mean of squared differences over all entries."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    d = x - y
    return float(np.mean(d * d))


def mse_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d mse / d x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    return 2.0 * (x - y) / x.size


# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators for one flat list of parameter arrays."""

    m: list
    v: list
    step: int = 0
    lr: float = 1e-3

    @classmethod
    def for_params(cls, params, lr: float = 1e-3) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params], step=0, lr=lr)


def adam_step(params, grads, state: AdamState) -> None:
    """One bias-corrected Adam update of params and state, in place.  Every
    length and shape is checked before anything is written."""
    if not len(params) == len(grads) == len(state.m) == len(state.v):
        raise ValueError("params/grads/state length mismatch")
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if not p.shape == g.shape == m.shape == v.shape:
            raise ValueError(f"param/grad/moment shape mismatch {p.shape}, {g.shape}, "
                             f"{m.shape}, {v.shape}")
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def finite_difference_grads(loss_fn, params, h: float = 1e-6):
    """Central finite differences of loss_fn() w.r.t. the live param arrays."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = loss_fn()
            flat[k] = orig - h
            down = loss_fn()
            flat[k] = orig
            gflat[k] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def grad_check(loss_fn, grad_fn, params, h: float = 1e-6) -> dict:
    """Compare analytic gradients against central finite differences.

    Relative error uses a floor of 1e-3 times the largest gradient
    magnitude, so finite-difference noise on near-zero components does not
    dominate.  A fragment with no parameters (or all-zero gradients)
    passes vacuously with error 0.
    """
    analytic = grad_fn()
    numeric = finite_difference_grads(loss_fn, params, h=h)
    gmax = 0.0
    for a, n in zip(analytic, numeric):
        if a.size:
            gmax = max(gmax, float(np.max(np.abs(a))), float(np.max(np.abs(n))))
    floor = max(1e-3 * gmax, 1e-12)
    max_rel = 0.0
    per_param = []
    for a, n in zip(analytic, numeric):
        if a.size == 0:
            per_param.append(0.0)
            continue
        rel = np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = float(rel.max())
        per_param.append(worst)
        max_rel = max(max_rel, worst)
    return {"max_rel_err": max_rel, "per_param": per_param,
            "n_params": int(sum(p.size for p in params))}
