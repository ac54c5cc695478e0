"""Graph Koopman autoencoder for multi-UAV trajectory forecasting.

A two-layer mean-aggregation graph encoder embeds each frame into a
stacked per-node vector; a dense encoder lifts that embedding into a
latent space where a single square matrix advances it linearly in time;
dense and per-node decoders map back to coordinates.  Training is
two-phase: the graph autoencoder alone first, then the latent stage on
frozen embeddings.
"""

from __future__ import annotations

import json
import math
import queue
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from .graphs import GraphSequence, NormalizationSpec, read_numbers, save_table
from .nn import (
    AdamState,
    DenseLayer,
    SageLayer,
    adam_step,
    dense_backward,
    dense_forward,
    glorot_uniform,
    make_dense,
    make_sage,
    mse,
    mse_grad,
    row_normalized,
    sage_backward,
    sage_forward,
)

CHECKPOINT_VERSION = 1


class TrainingDivergence(RuntimeError):
    """Raised when a training loss becomes non-finite."""


class CheckpointError(ValueError):
    """Raised for unreadable or incompatible checkpoint files."""


class ModelStateError(RuntimeError):
    """Raised when model parameters are unusable (e.g. NaN)."""


@dataclass
class GkaeModel:
    graph_encoder: list
    koopman_encoder: list
    K: np.ndarray
    koopman_decoder: list
    graph_decoder: list
    L: int
    d_out: int
    latent: int
    node_dim: int
    norm: NormalizationSpec
    meta: dict

    @property
    def embed_dim(self) -> int:
        return self.node_dim * self.L


def build_model(
    L: int,
    d_out: int = 3,
    norm: NormalizationSpec = NormalizationSpec(),
    seed: int = 0,
) -> GkaeModel:
    """Fresh model with the reference architecture (13 layers, ~1.6K params at L=4)."""
    if d_out not in (2, 3):
        raise ValueError(f"d_out must be 2 or 3, got {d_out}")
    node_dim, hidden, latent = 4, 16, 8  # features per node, dense width, latent size
    rng = np.random.default_rng(seed)
    graph_encoder = [
        make_sage(rng, d_out, node_dim, "elu"),
        make_sage(rng, node_dim, node_dim, "elu"),
    ]
    embed = node_dim * L
    koopman_encoder = [
        make_dense(rng, embed, hidden, "tanh"),
        make_dense(rng, hidden, hidden, "tanh"),
        make_dense(rng, hidden, latent, "tanh"),
    ]
    K = glorot_uniform(rng, latent, latent)
    koopman_decoder = [
        make_dense(rng, latent, hidden, "tanh"),
        make_dense(rng, hidden, hidden, "tanh"),
        make_dense(rng, hidden, embed, "identity"),
    ]
    graph_decoder = [
        make_dense(rng, node_dim, node_dim, "elu"),
        make_dense(rng, node_dim, node_dim, "elu"),
        make_dense(rng, node_dim, node_dim, "elu"),
        make_dense(rng, node_dim, d_out, "identity"),
    ]
    meta = {"epochs_phase1": 0, "epochs_phase2": 0, "seed": seed, "final_losses": {}}
    return GkaeModel(graph_encoder, koopman_encoder, K, koopman_decoder,
                     graph_decoder, L, d_out, latent, node_dim, norm, meta)


def _phase1_params(model: GkaeModel) -> list:
    out = []
    for l in model.graph_encoder:
        out += [l.W_self, l.W_neigh, l.b]
    for l in model.graph_decoder:
        out += [l.W, l.b]
    return out


def _phase2_params(model: GkaeModel) -> list:
    out = []
    for l in model.koopman_encoder:
        out += [l.W, l.b]
    out.append(model.K)
    for l in model.koopman_decoder:
        out += [l.W, l.b]
    return out


def all_parameters(model: GkaeModel) -> list:
    return _phase1_params(model) + _phase2_params(model)


def count_parameters(model: GkaeModel) -> int:
    return int(sum(p.size for p in all_parameters(model)))


# --- forward operations ------------------------------------------------------

def rollout_batch(model: GkaeModel, features: np.ndarray, adjacency: np.ndarray,
                  steps) -> np.ndarray:
    """Forecast R start frames at once, at the given steps only.

    features are (R, L, d_out) normalized start frames, adjacency their
    (R, L, L) graphs and steps increasing step indices >= 1.  Each encoder
    layer is called once over the R frames and each decoder layer once over
    all (step, frame) rows; advancing the latent, z <- z K^T, is the only
    per-step loop, and it runs up to the last requested step.

    Returns (R, len(steps), L, d_out) positions in meters.  A batched matrix
    product does not round like a single-vector one, so a row can differ
    from a forecast of its frame alone in the last bits, and how it differs
    depends on R; the same inputs always give the same bits.
    """
    steps = np.asarray(steps)
    # a fractional or bool step would leave rows of Z unwritten
    if steps.dtype.kind not in "iu" or steps.ndim != 1 or steps.size == 0 \
            or steps[0] < 1 or (np.diff(steps) <= 0).any():
        raise ValueError("steps must be increasing step indices >= 1")
    features = np.asarray(features, dtype=float)
    R = features.shape[0]
    if features.shape[1:] != (model.L, model.d_out) or \
            np.shape(adjacency) != (R, model.L, model.L):
        raise ValueError(f"need (R, {model.L}, {model.d_out}) features and "
                         f"(R, {model.L}, {model.L}) adjacency, got "
                         f"{features.shape} and {np.shape(adjacency)}")
    for p in all_parameters(model):
        if not np.all(np.isfinite(p)):
            raise ModelStateError("model parameters are not finite")
    z = _dense_chain(model.koopman_encoder, _embed_frames(model, features, adjacency))
    Z = np.empty((steps.size, R, model.latent))
    with np.errstate(over="ignore", invalid="ignore"):
        k = 0
        for s in range(1, int(steps[-1]) + 1):
            z = z @ model.K.T
            if s == steps[k]:
                Z[k] = z
                k += 1
        h = _dense_chain(model.koopman_decoder, Z.reshape(-1, model.latent))
        coords = _dense_chain(model.graph_decoder, h.reshape(-1, model.node_dim))
        out = model.norm.invert(coords).reshape(steps.size, R, model.L, model.d_out)
    if not np.isfinite(out).all():
        raise ModelStateError("rollout diverged: predicted positions are not finite")
    return out.swapaxes(0, 1)


def rollout_predict(model: GkaeModel, graph: GraphSequence, horizon_steps: int) -> np.ndarray:
    """Encode the one frame of graph once, advance the latent step by step,
    decode every step: rollout_batch of that frame at steps 1..horizon_steps.

    Returns (horizon_steps, L, d_out) positions in meters.
    """
    if not isinstance(horizon_steps, (int, np.integer)) or horizon_steps < 1:
        raise ValueError(f"horizon_steps must be an integer >= 1, got {horizon_steps!r}")
    if graph.n_frames != 1:
        raise ValueError(f"graph must have one frame, got {graph.n_frames}")
    if not graph.normalized:
        raise ValueError("graph must be normalized before encoding")
    return rollout_batch(model, graph.features, graph.adjacency,
                         np.arange(1, horizon_steps + 1))[0]


# --- batched internals -------------------------------------------------------
#
# A tape lists, per layer, the layer's input and the value its backward
# needs from the forward pass (nn's keep=True), so backward recomputes none
# of the forward pass.  For tanh that value is the layer's output, which is
# already the next layer's input, so a tanh chain's tape costs no more memory
# than its layer inputs; elu layers add their pre-activation.

def _dense_chain(layers: list, x: np.ndarray) -> np.ndarray:
    """Forward through a dense stack, keeping no tape."""
    for layer in layers:
        x = dense_forward(layer, x)
    return x


def _rows(buffer: np.ndarray, n: int, width: int) -> np.ndarray:
    """The first n * width entries of a flat buffer as an (n, width) array."""
    return buffer[:n * width].reshape(n, width)


def _dense_chain_forward(layers: list, x: np.ndarray, outs: list | None = None):
    """Forward through a dense stack over 2-D x; returns (output, tape).
    With outs, one flat buffer per layer, layer k writes its output into
    outs[k] (an elu layer its pre-activation, its output being new)."""
    tape = []
    for k, layer in enumerate(layers):
        out = None if outs is None else _rows(outs[k], len(x), layer.n_out)
        y, saved = dense_forward(layer, x, keep=True, out=out)
        tape.append((x, saved))
        x = y
    return x, tape


def _dense_chain_backward(layers: list, tape: list, upstream: np.ndarray,
                          need_input: bool = True, outs: list | None = None,
                          scratch: np.ndarray | None = None):
    """Backward through a dense stack, popping each tape entry as it passes
    so its arrays can be freed.  Returns (input gradient, or None when not
    need_input; [dW, db] per layer).

    With the forward's outs and a flat scratch buffer, layer k writes
    upstream * act'(z) into scratch and its input gradient over outs[k],
    whose forward values it is the last to read; then only the input
    gradient of layer 0 is a new array.  Every buffer must hold rows x the
    widest layer."""
    up, grads = upstream, [None] * len(layers)
    for k in range(len(layers) - 1, -1, -1):
        x, saved = tape.pop()
        layer, dz_out, dx_out = layers[k], None, None
        if outs is not None:
            dz_out = _rows(scratch, len(x), layer.n_out)
            dx_out = _rows(outs[k], len(x), layer.n_in) if k > 0 else None
        up, dW, db = dense_backward(layer, x, up, saved, need_input=need_input or k > 0,
                                    dz_out=dz_out, dx_out=dx_out)
        grads[k] = [dW, db]
    return up, grads


def _encoder_forward(model: GkaeModel, X: np.ndarray, A: np.ndarray):
    """Graph-encode a (B, L, d) batch; returns ((B, L, node_dim) features, tape).
    A is row-normalised once for both layers."""
    An = row_normalized(A)
    H, tape = X, []
    for layer in model.graph_encoder:
        y, saved = sage_forward(layer, H, A, keep=True, An=An)
        tape.append((H, saved))
        H = y
    return H, tape


def _embed_frames(model: GkaeModel, X: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Graph-encode a (B, L, d) batch into (B, node_dim*L) embeddings."""
    return _encoder_forward(model, X, A)[0].reshape(X.shape[0], model.embed_dim)


def _phase1_forward(model: GkaeModel, X: np.ndarray, A: np.ndarray):
    """Graph autoencoder over a (B, L, d) batch; returns the reconstruction,
    the (B, L, node_dim) encoder output, and the encoder and head tapes."""
    B, L, d = X.shape
    H, enc_tape = _encoder_forward(model, X, A)
    y, head_tape = _dense_chain_forward(model.graph_decoder, H.reshape(B * L, model.node_dim))
    return y.reshape(B, L, d), H, enc_tape, head_tape


def _phase1_loss_grads(model: GkaeModel, X: np.ndarray, A: np.ndarray, alpha1: float):
    """Graph-reconstruction loss over a (B, L, d) batch and its exact gradients
    (scaled by alpha1), ordered as _phase1_params."""
    B, L, d = X.shape
    Xhat, _, enc_tape, head_tape = _phase1_forward(model, X, A)
    loss = mse(Xhat, X)
    up = (alpha1 * mse_grad(Xhat, X)).reshape(B * L, d)
    dflat, head_grads = _dense_chain_backward(model.graph_decoder, head_tape, up)
    dH = dflat.reshape(B, L, model.node_dim)
    grads = []
    for k in range(len(model.graph_encoder) - 1, -1, -1):
        H, saved = enc_tape.pop()
        dH, dWs, dWn, db = sage_backward(model.graph_encoder[k], H, A, dH, saved,
                                         need_input=k > 0)
        grads[:0] = [dWs, dWn, db]
    grads += [g for pair in head_grads for g in pair]
    return loss, grads


class _Workspace:
    """Flat buffers for one pass through the Koopman decoder and back over
    up to `rows` rows, each row as wide as the widest layer: one output per
    layer, the error, and one scratch buffer (see _dense_chain_backward)."""

    def __init__(self, n_layers: int, rows: int, width: int):
        self.outs = [np.empty(rows * width) for _ in range(n_layers)]
        self.error = np.empty(rows * width)
        self.scratch = np.empty(rows * width)


class _Phase2Buffers:
    """The large arrays of phase-2 calls over one set of frames and anchors,
    kept from one call to the next so that an epoch writes into pages it
    already has: the Koopman encoder's layer outputs, the (tau+1, anchors,
    latent) block of latents, the (anchors, latent) product of the
    K-adjoint recurrence, and a free list of decoder workspaces, made as
    passes need them, so one for each pass that runs at once."""

    def __init__(self, model: GkaeModel, frames: int, tau: int, n_anchors: int):
        # one width for every buffer, so a workspace's scratch serves the encoder too
        width = max(l.n_out for l in model.koopman_encoder + model.koopman_decoder)
        self.encoder = [np.empty(frames * width) for _ in model.koopman_encoder]
        self.latents = np.empty((tau + 1, n_anchors, model.latent))
        self.adjoint = np.empty((n_anchors, model.latent))
        self._workspace_args = (len(model.koopman_decoder), frames, width)
        self._idle = queue.SimpleQueue()

    @contextmanager
    def workspace(self):
        """An idle workspace, or a new one if none is idle, given back on exit."""
        try:
            ws = self._idle.get_nowait()
        except queue.Empty:
            ws = _Workspace(*self._workspace_args)
        try:
            yield ws
        finally:
            self._idle.put(ws)


def _latents(K: np.ndarray, z: np.ndarray, anchors: np.ndarray, W: np.ndarray) -> np.ndarray:
    """z[anchors] advanced by K for dt = 0..tau, written into the (tau+1, n,
    latent) block W."""
    np.take(z, anchors, axis=0, out=W[0], mode="clip")  # the caller checked the range
    for d in range(1, W.shape[0]):
        np.matmul(W[d - 1], K.T, out=W[d])
    return W


def _decoder_error(dec: list, w: np.ndarray, target: np.ndarray, ws: _Workspace):
    """Decode w in ws; returns (squared error sum, error, tape), the error
    being the output minus target, written into ws.error."""
    y, tape = _dense_chain_forward(dec, w, ws.outs)
    err = np.subtract(y, target, out=_rows(ws.error, *y.shape))
    sse = float(np.sum(np.multiply(err, err, out=_rows(ws.scratch, *err.shape))))
    return sse, err, tape


def _horizon_grads(dec: list, w: np.ndarray, h: np.ndarray, rows: np.ndarray,
                   scale: float, buffers: _Phase2Buffers):
    """One horizon's prediction term, with targets h[rows]: (squared error
    sum, decoder [dW, db] per layer, gradient w.r.t. w) for the loss
    scale * squared error sum / 2.  Only the gradient w.r.t. w is a new
    array; the rest runs in a workspace of buffers."""
    with buffers.workspace() as ws:
        # mode="raise" would gather into a temporary first; the caller checked rows
        target = np.take(h, rows, axis=0, out=_rows(ws.error, rows.size, h.shape[1]),
                         mode="clip")
        sse, err, tape = _decoder_error(dec, w, target, ws)
        g, grads = _dense_chain_backward(dec, tape, np.multiply(err, scale, out=err),
                                         outs=ws.outs, scratch=ws.scratch)
    return sse, grads, g


def _blas_thread_control():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    when numpy links a BLAS that does not export them."""
    import ctypes

    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


# Decoder rows, summed over horizons, below which the horizon jobs run on
# the calling thread.  Threads hand the GIL back and forth between numpy
# calls; on 2 cores two workers broke even at 120k-180k rows and were 1.3x
# faster at 720k, while calls of a few hundred rows (the gradient checks
# make thousands) ran 3-4x slower.
_POOL_MIN_ROWS = 1 << 17

# Most horizon jobs run at once.  Two, each on one BLAS thread, is what was
# measured (on 2 cores); each job running holds its own workspace, so the
# count does not grow with the machine's cores.
_MAX_WORKERS = 2


@contextmanager
def _horizon_map(tau: int, rows: int):
    """A map for tau horizon jobs of rows decoder rows each, yielding the
    results in order.

    Large jobs go to a thread pool with one worker per OpenBLAS thread, at
    most _MAX_WORKERS, and OpenBLAS is set to one thread meanwhile: 2 jobs x
    1 BLAS thread beat 1 x 2, and 2 x 2 oversubscribe the cores.  At most
    one job more than there are workers is submitted ahead of the consumer.
    On exit pending jobs are cancelled and the thread count is restored.
    With one worker (small jobs, one BLAS thread, or no thread control) it
    is the builtin map.
    """
    control = _blas_thread_control() if rows * tau >= _POOL_MIN_ROWS else None
    threads = control[0]() if control else 1
    workers = min(tau, threads, _MAX_WORKERS)
    if workers == 1:
        yield map
        return
    from concurrent.futures import ThreadPoolExecutor

    def run(fn, items):
        pending = deque()
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()

    pool = ThreadPoolExecutor(workers)
    control[1](1)
    try:
        yield run
    finally:
        pool.shutdown(cancel_futures=True)
        control[1](threads)


def _phase2_loss_grads(model: GkaeModel, h: np.ndarray, anchors: np.ndarray,
                       tau: int, alpha2: float, buffers: _Phase2Buffers | None = None):
    """Latent reconstruction + prediction losses over frozen embeddings h (F, D).

    anchors are distinct row indices into h whose targets h[anchor + dt] for
    dt = 1..tau stay within the same source sequence.  Returns
    (L_rec, L_pred, grads) with grads scaled by alpha2 and ordered as
    _phase2_params.  buffers, made for the same F, tau and anchors, carry
    the large arrays from one call to the next; without them the call makes
    its own.

    Each horizon's decoder pass runs as its own job; the K-adjoint
    recurrence consumes their latent gradients from dt = tau down, and the
    sums over horizons are taken in dt = 1..tau order afterwards, so the
    result does not depend on how many jobs run at once.
    """
    F, D = h.shape
    na = int(anchors.size)
    if na > 0 and (anchors.min() < 0 or anchors.max() + tau >= F):
        raise ValueError(f"anchors + dt must be rows of h for dt = 0..{tau}")
    enc, dec, K = model.koopman_encoder, model.koopman_decoder, model.K
    if buffers is None:
        buffers = _Phase2Buffers(model, F, tau, na)
    z, enc_tape = _dense_chain_forward(enc, h, buffers.encoder)
    dK = np.zeros_like(K)

    with buffers.workspace() as ws:
        sse, err, dec_tape = _decoder_error(dec, z, h, ws)
        rec = sse / err.size  # mse(hr, h): the same sum and division
        # alpha2 * mse_grad(hr, h), pass by pass, written over the error
        np.multiply(err, 2.0, out=err)
        np.divide(err, err.size, out=err)
        np.multiply(err, alpha2, out=err)
        dz, dec_grads = _dense_chain_backward(dec, dec_tape, err, outs=ws.outs,
                                              scratch=ws.scratch)

    pred = 0.0
    if tau > 0 and na > 0:
        n_pred = na * tau * D
        scale = 2.0 * alpha2 / n_pred
        W = _latents(K, z, anchors, buffers.latents)

        def job(d):
            return _horizon_grads(dec, W[d], h, anchors + d, scale, buffers)

        per_horizon = []
        t_grad = None
        horizons = range(tau, 0, -1)
        with _horizon_map(tau, na) as run:
            # both maps yield in order and let go of each result
            for d, (sse, grads, g) in zip(horizons, run(job, horizons)):
                if t_grad is not None:  # g + t_grad @ K, into g
                    g += np.matmul(t_grad, K, out=buffers.adjoint)
                t_grad = g
                dK += t_grad.T @ W[d - 1]
                per_horizon.append((sse, grads))
        # The anchors are distinct, so this plain scatter adds each row once,
        # exactly as np.add.at would, and faster.
        dz[anchors] += np.matmul(t_grad, K, out=buffers.adjoint)
        sse_total = 0.0
        for sse, grads in reversed(per_horizon):
            sse_total += sse
            for pair, (dW, db) in zip(dec_grads, grads):
                pair[0] += dW
                pair[1] += db
        pred = sse_total / n_pred

    with buffers.workspace() as ws:
        _, enc_grads = _dense_chain_backward(enc, enc_tape, dz, need_input=False,
                                             outs=buffers.encoder, scratch=ws.scratch)
    grads = [g for pair in enc_grads for g in pair]
    grads.append(dK)
    grads += [g for pair in dec_grads for g in pair]
    return rec, pred, grads


# --- training ----------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    alpha1: float = 1.0
    alpha2: float = 1.0
    tau: int = 30
    epochs_phase1: int = 400
    epochs_phase2: int = 400
    lr: float = 1e-3
    window: int | None = None  # training window length; defaults to tau + 1
    seed: int = 0

    def __post_init__(self):
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if self.alpha1 < 0 or self.alpha2 < 0:
            raise ValueError("loss weights must be >= 0")
        if self.epochs_phase1 < 0 or self.epochs_phase2 < 0:
            raise ValueError("epoch counts must be >= 0")
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.window is not None and self.window < self.tau + 1:
            raise ValueError(f"window must be >= tau+1, got {self.window}")

    @property
    def effective_window(self) -> int:
        return self.tau + 1 if self.window is None else self.window


def check_training_sequence(model: GkaeModel, seq: GraphSequence, first: GraphSequence,
                            where: str = "") -> None:
    """Refuse a sequence that cannot train model beside first, the dataset's
    first sequence: it must be normalized with the model's norm, have the
    model's node count and feature dimension, and share first's dt and
    threshold, which the checkpoint records once for every sequence.  where
    (a file name, say) begins the message."""
    shape, expected = seq.features.shape[1:], (model.L, model.d_out)
    problems = [text for bad, text in [
        (not seq.normalized, "graph must be normalized before encoding"),
        (seq.norm != model.norm,
         f"scale/offset {seq.norm.scale:g}/{seq.norm.offset} are not the model's "
         f"norm {model.norm.scale:g}/{model.norm.offset}"),
        (shape != expected, f"node count and feature dimension (L, d) = {shape}, "
                            f"model expects {expected}"),
        (seq.dt != first.dt, f"sequences sampled at dt {first.dt:g} and {seq.dt:g} s"),
        (seq.threshold != first.threshold, f"sequences graphed at D_tilde thresholds "
                                           f"{first.threshold:g} and {seq.threshold:g} m"),
    ] if bad]
    if problems:
        raise ValueError(where + "; ".join(problems))


def _stack_dataset(model: GkaeModel, dataset: list, window: int):
    X_parts, A_parts, anchor_parts = [], [], []
    offset = 0
    for seq in dataset:
        check_training_sequence(model, seq, dataset[0])
        if seq.n_frames < window:
            raise ValueError(
                f"sequence of {seq.n_frames} frames is shorter than window={window}")
        X_parts.append(seq.features)
        A_parts.append(seq.adjacency.astype(float))
        anchor_parts.append(offset + np.arange(seq.n_frames - window + 1))
        offset += seq.n_frames
    return (np.concatenate(X_parts), np.concatenate(A_parts),
            np.concatenate(anchor_parts))


# the columns of a training history row and of the loss CSV
_LOSS_COLUMNS = ["epoch", "phase", "L_grec", "L_rec", "L_pred", "total"]


def train(model: GkaeModel, dataset: list, cfg: TrainConfig):
    """Two-phase training; mutates the model in place and returns (model, history).

    Phase 1 fits the graph autoencoder on the reconstruction loss; phase 2
    freezes it and fits the latent encoder, transition matrix and decoder on
    the embedding reconstruction + multi-step prediction losses.  One epoch
    is one full-batch Adam step over every frame / anchor in the dataset.
    The sequences share one threshold, which meta["d_tilde"] records: the
    forecast graphs its start frames at it.
    """
    if not dataset:
        raise ValueError("empty dataset")
    X, A, anchors = _stack_dataset(model, dataset, cfg.effective_window)
    history = []

    def fit(phase: int, params: list, epochs: int, losses) -> None:
        """epochs Adam steps on params, the model's own arrays, updated in
        place; losses() gives one epoch's L_grec, L_rec, L_pred, total and
        gradients."""
        state = AdamState.for_params(params, lr=cfg.lr)
        for e in range(epochs):
            *values, grads = losses()
            if not np.isfinite(values[-1]):
                raise TrainingDivergence(f"phase {phase} loss diverged at epoch {e + 1}")
            adam_step(params, grads, state)
            history.append(dict(zip(_LOSS_COLUMNS, [len(history) + 1, phase, *values])))

    def phase1():
        grec, grads = _phase1_loss_grads(model, X, A, cfg.alpha1)
        return grec, math.nan, math.nan, cfg.alpha1 * grec, grads

    fit(1, _phase1_params(model), cfg.epochs_phase1, phase1)

    if cfg.epochs_phase2 > 0:
        # one graph-autoencoder pass gives the frozen embeddings and the
        # frozen reconstruction loss
        Xhat, H = _phase1_forward(model, X, A)[:2]
        grec = mse(Xhat, X)
        del Xhat  # kept through phase 2, it raised train's peak RSS by about 15 MB
        h = H.reshape(X.shape[0], model.embed_dim)
        buffers = _Phase2Buffers(model, len(h), cfg.tau, anchors.size)

        def phase2():
            rec, pred, grads = _phase2_loss_grads(model, h, anchors, cfg.tau, cfg.alpha2,
                                                  buffers)
            return grec, rec, pred, cfg.alpha2 * (rec + pred), grads

        fit(2, _phase2_params(model), cfg.epochs_phase2, phase2)

    last = {row["phase"]: row for row in history}  # each phase's last epoch
    model.meta.update({
        "epochs_phase1": cfg.epochs_phase1,
        "epochs_phase2": cfg.epochs_phase2,
        "train_seed": cfg.seed,
        "tau": cfg.tau,
        "final_losses": {key: float(last[phase][key]) if phase in last else None
                         for phase, key in [(1, "L_grec"), (2, "L_rec"), (2, "L_pred")]},
        "d_tilde": dataset[0].threshold,
    })
    return model, history


def save_loss_csv(history: list, path) -> None:
    """train's history as a table, one row per epoch; every loss is a float."""
    rows = ([row["epoch"], row["phase"], *(float(row[k]) for k in _LOSS_COLUMNS[2:])]
            for row in history)
    save_table(path, _LOSS_COLUMNS, rows)


# --- checkpointing -----------------------------------------------------------

def _layer_to_dict(layer) -> dict:
    """A DenseLayer or SageLayer as {field: value} in field order, arrays as lists."""
    return {f.name: getattr(layer, f.name) if f.name == "activation"
            else getattr(layer, f.name).tolist() for f in fields(layer)}


def save_checkpoint(model: GkaeModel, path) -> None:
    doc = {
        "version": CHECKPOINT_VERSION,
        "dims": {"L": model.L, "d_out": model.d_out, "latent": model.latent,
                 "node_dim": model.node_dim},
        "norm": {"scale": model.norm.scale, "offset": list(model.norm.offset)},
        "params": {
            "graph_encoder": [_layer_to_dict(l) for l in model.graph_encoder],
            "koopman_encoder": [_layer_to_dict(l) for l in model.koopman_encoder],
            "K": model.K.tolist(),
            "koopman_decoder": [_layer_to_dict(l) for l in model.koopman_decoder],
            "graph_decoder": [_layer_to_dict(l) for l in model.graph_decoder],
        },
        "meta": model.meta,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))


def _dim(dims: dict, key: str) -> int:
    # int() would read 4.7 as 4 and "8" as 8
    value = dims[key]
    if type(value) is not int or value < 1:
        raise CheckpointError(f"checkpoint dims.{key} must be a positive integer, "
                              f"got {value!r}")
    return value


def _layer_chain(params: dict, name: str, cls, n_in: int, n_out: int) -> list:
    """params[name] as finite cls layers whose shapes chain n_in -> ... -> n_out."""
    layers = []
    for k, d in enumerate(params[name]):
        where = f"checkpoint {name}[{k}]"
        arrays = {f.name: read_numbers(d[f.name], f"{where}.{f.name}")
                  for f in fields(cls) if f.name != "activation"}
        try:
            layer = cls(**arrays, activation=d["activation"])
        except ValueError as exc:
            raise CheckpointError(f"{where}: {exc}") from exc
        if layer.n_in != n_in:
            raise CheckpointError(f"{where} takes {layer.n_in} inputs, expected {n_in}")
        layers.append(layer)
        n_in = layer.n_out
    if n_in != n_out:
        raise CheckpointError(f"checkpoint {name} ends in {n_in} outputs, expected {n_out}")
    return layers


def load_checkpoint(path) -> GkaeModel:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError("malformed checkpoint: top level is not a JSON object")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version: {doc.get('version')!r}")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise CheckpointError("checkpoint meta must be a JSON object")
    if not read_numbers(meta.get("d_tilde", 0.0), "checkpoint meta.d_tilde", ()) >= 0:
        raise CheckpointError(f"checkpoint meta.d_tilde must be >= 0, got {meta['d_tilde']}")
    try:
        dims = doc["dims"]
        params = doc["params"]
        norm = NormalizationSpec(scale=doc["norm"]["scale"], offset=doc["norm"]["offset"])
        L, d_out, latent, node_dim = (_dim(dims, k) for k in ("L", "d_out", "latent",
                                                              "node_dim"))
        embed = node_dim * L
        K = read_numbers(params["K"], "checkpoint K", (latent, latent))
        model = GkaeModel(
            graph_encoder=_layer_chain(params, "graph_encoder", SageLayer, d_out, node_dim),
            koopman_encoder=_layer_chain(params, "koopman_encoder", DenseLayer, embed, latent),
            K=K,
            koopman_decoder=_layer_chain(params, "koopman_decoder", DenseLayer, latent, embed),
            graph_decoder=_layer_chain(params, "graph_decoder", DenseLayer, node_dim, d_out),
            L=L, d_out=d_out, latent=latent, node_dim=node_dim, norm=norm,
            meta=dict(meta),
        )
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"incomplete checkpoint: {exc}") from exc
    return model
