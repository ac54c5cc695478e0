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
from dataclasses import dataclass

import numpy as np

from .graphs import GraphSequence, GraphSnapshot, NormalizationSpec
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
    node_dim: int = 4,
    hidden: int = 16,
    latent: int = 8,
) -> GkaeModel:
    """Fresh model with the reference architecture (13 layers, ~1.6K params at L=4)."""
    if d_out not in (2, 3):
        raise ValueError(f"d_out must be 2 or 3, got {d_out}")
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


def _set_phase1_params(model: GkaeModel, arrays: list) -> None:
    it = iter(arrays)
    for l in model.graph_encoder:
        l.W_self, l.W_neigh, l.b = next(it), next(it), next(it)
    for l in model.graph_decoder:
        l.W, l.b = next(it), next(it)


def _phase2_params(model: GkaeModel) -> list:
    out = []
    for l in model.koopman_encoder:
        out += [l.W, l.b]
    out.append(model.K)
    for l in model.koopman_decoder:
        out += [l.W, l.b]
    return out


def _set_phase2_params(model: GkaeModel, arrays: list) -> None:
    it = iter(arrays)
    for l in model.koopman_encoder:
        l.W, l.b = next(it), next(it)
    model.K = next(it)
    for l in model.koopman_decoder:
        l.W, l.b = next(it), next(it)


def all_parameters(model: GkaeModel) -> list:
    return _phase1_params(model) + _phase2_params(model)


def count_parameters(model: GkaeModel) -> int:
    return int(sum(p.size for p in all_parameters(model)))


# --- forward operations ------------------------------------------------------

def _check_graph(model: GkaeModel, graph: GraphSnapshot | GraphSequence) -> None:
    """Check that a snapshot or sequence is normalized and has the model's L and d_out."""
    if not graph.normalized:
        raise ValueError("graph must be normalized before encoding")
    if graph.features.shape[-2:] != (model.L, model.d_out):
        raise ValueError(f"graph has (L, d) = {graph.features.shape[-2:]}, "
                         f"model expects {(model.L, model.d_out)}")


def graph_encode(model: GkaeModel, snapshot: GraphSnapshot) -> np.ndarray:
    """Embed one normalized snapshot into the stacked per-node vector (node_dim*L,)."""
    _check_graph(model, snapshot)
    return _embed_frames(model, snapshot.features[None], snapshot.adjacency[None])[0]


def koopman_encode(model: GkaeModel, h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if h.shape[-1] != model.embed_dim:
        raise ValueError(f"embedding length {h.shape[-1]} != {model.embed_dim}")
    for layer in model.koopman_encoder:
        h = dense_forward(layer, h)
    return h


def koopman_decode(model: GkaeModel, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != model.latent:
        raise ValueError(f"latent length {z.shape[-1]} != {model.latent}")
    for layer in model.koopman_decoder:
        z = dense_forward(layer, z)
    return z


def graph_decode(model: GkaeModel, h: np.ndarray) -> np.ndarray:
    """Apply the shared per-node head to each node_dim block of (..., embed_dim)
    embeddings; returns (..., L, d_out) in normalized coordinates."""
    h = np.asarray(h, dtype=float)
    if h.shape[-1:] != (model.embed_dim,):
        raise ValueError(f"embedding shape {h.shape} does not end in {model.embed_dim}")
    y = h.reshape(-1, model.node_dim)
    for layer in model.graph_decoder:
        y = dense_forward(layer, y)
    return y.reshape(h.shape[:-1] + (model.L, model.d_out))


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
    if steps.ndim != 1 or steps.size == 0 or steps[0] < 1 or (np.diff(steps) <= 0).any():
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
    z = koopman_encode(model, _embed_frames(model, features, adjacency))
    Z = np.empty((steps.size, R, model.latent))
    with np.errstate(over="ignore", invalid="ignore"):
        k = 0
        for s in range(1, int(steps[-1]) + 1):
            z = z @ model.K.T
            if s == steps[k]:
                Z[k] = z
                k += 1
        coords = graph_decode(model, koopman_decode(model, Z.reshape(-1, model.latent)))
        out = model.norm.invert(coords).reshape(steps.size, R, model.L, model.d_out)
    if not np.isfinite(out).all():
        raise ModelStateError("rollout diverged: predicted positions are not finite")
    return out.swapaxes(0, 1)


def rollout_predict(model: GkaeModel, snapshot: GraphSnapshot, horizon_steps: int) -> np.ndarray:
    """Encode once, advance the latent step by step, decode every step:
    rollout_batch of one frame at steps 1..horizon_steps.

    Returns (horizon_steps, L, d_out) positions in meters.
    """
    if horizon_steps < 1:
        raise ValueError(f"horizon_steps must be >= 1, got {horizon_steps}")
    _check_graph(model, snapshot)
    return rollout_batch(model, snapshot.features[None], snapshot.adjacency[None],
                         np.arange(1, horizon_steps + 1))[0]


# --- batched internals -------------------------------------------------------
#
# A tape lists, per layer, the layer's input and the value its backward
# needs from the forward pass (nn's keep=True), so backward recomputes none
# of the forward pass.  For tanh that value is the layer's output, which is
# already the next layer's input, so a tanh chain's tape costs no more memory
# than its layer inputs; elu layers add their pre-activation.

def _dense_chain_forward(layers: list, x: np.ndarray):
    """Forward through a dense stack; returns (output, tape)."""
    tape = []
    for layer in layers:
        y, saved = dense_forward(layer, x, keep=True)
        tape.append((x, saved))
        x = y
    return x, tape


def _dense_chain_backward(layers: list, tape: list, upstream: np.ndarray, acc: list) -> np.ndarray:
    """Backward through a dense stack, accumulating (dW, db) pairs into acc."""
    up = upstream
    for k in range(len(layers) - 1, -1, -1):
        x, saved = tape[k]
        up, dW, db = dense_backward(layers[k], x, up, saved)
        acc[k][0] += dW
        acc[k][1] += db
    return up


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
    """Graph autoencoder over a (B, L, d) batch; returns the reconstruction
    and the encoder and head tapes."""
    B, L, d = X.shape
    H, enc_tape = _encoder_forward(model, X, A)
    y, head_tape = _dense_chain_forward(model.graph_decoder, H.reshape(B * L, model.node_dim))
    return y.reshape(B, L, d), enc_tape, head_tape


def _phase1_loss_grads(model: GkaeModel, X: np.ndarray, A: np.ndarray, alpha1: float):
    """Graph-reconstruction loss over a (B, L, d) batch and its exact gradients
    (scaled by alpha1), ordered as _phase1_params."""
    B, L, d = X.shape
    Xhat, enc_tape, head_tape = _phase1_forward(model, X, A)
    loss = mse(Xhat, X)
    head_acc = [[np.zeros_like(l.W), np.zeros_like(l.b)] for l in model.graph_decoder]
    up = (alpha1 * mse_grad(Xhat, X)).reshape(B * L, d)
    dflat = _dense_chain_backward(model.graph_decoder, head_tape, up, head_acc)
    dH = dflat.reshape(B, L, model.node_dim)
    grads = []
    for k in range(len(model.graph_encoder) - 1, -1, -1):
        H, saved = enc_tape[k]
        dH, dWs, dWn, db = sage_backward(model.graph_encoder[k], H, A, dH, saved)
        grads[:0] = [dWs, dWn, db]
    grads += [g for pair in head_acc for g in pair]
    return loss, grads


def _horizons(model: GkaeModel, w: np.ndarray, h: np.ndarray, anchors: np.ndarray,
              tau: int):
    """Advance the anchors' latents w by K for dt = 1..tau and decode each
    step; yields (latent, error against h[anchors + dt], decoder tape)."""
    for d in range(1, tau + 1):
        w = w @ model.K.T
        y, tape = _dense_chain_forward(model.koopman_decoder, w)
        yield w, y - h[anchors + d], tape


def _phase2_loss_grads(model: GkaeModel, h: np.ndarray, anchors: np.ndarray,
                       tau: int, alpha2: float):
    """Latent reconstruction + prediction losses over frozen embeddings h (F, D).

    anchors are distinct row indices into h whose targets h[anchor + dt] for
    dt = 1..tau stay within the same source sequence.  Returns
    (L_rec, L_pred, grads) with grads scaled by alpha2 and ordered as
    _phase2_params.
    """
    F, D = h.shape
    enc, dec, K = model.koopman_encoder, model.koopman_decoder, model.K
    z, enc_tape = _dense_chain_forward(enc, h)
    enc_acc = [[np.zeros_like(l.W), np.zeros_like(l.b)] for l in enc]
    dec_acc = [[np.zeros_like(l.W), np.zeros_like(l.b)] for l in dec]
    dK = np.zeros_like(K)

    hr, dec_tape = _dense_chain_forward(dec, z)
    loss_rec = mse(hr, h)
    dz = _dense_chain_backward(dec, dec_tape, alpha2 * mse_grad(hr, h), dec_acc)

    loss_pred = 0.0
    na = int(anchors.size)
    if tau > 0 and na > 0:
        n_pred = na * tau * D
        # One block each, not 2*tau separate arrays: those fragmented the
        # heap and raised peak memory by about 10%.
        W = np.empty((tau + 1, na, model.latent))
        gW = np.empty((tau + 1, na, model.latent))
        W[0] = z[anchors]
        sse = 0.0
        for d, (w, err, tape) in enumerate(_horizons(model, W[0], h, anchors, tau), 1):
            W[d] = w
            sse += float(np.sum(err * err))
            gW[d] = _dense_chain_backward(dec, tape, (2.0 * alpha2 / n_pred) * err, dec_acc)
        loss_pred = sse / n_pred
        t_grad = gW[tau]
        for d in range(tau, 0, -1):
            dK += t_grad.T @ W[d - 1]
            down = t_grad @ K
            t_grad = gW[d - 1] + down if d > 1 else down
        # The anchors are distinct, so this plain scatter adds each row once,
        # exactly as np.add.at would, and faster.
        dz[anchors] += t_grad

    _dense_chain_backward(enc, enc_tape, dz, enc_acc)
    grads = [g for pair in enc_acc for g in pair]
    grads.append(dK)
    grads += [g for pair in dec_acc for g in pair]
    return loss_rec, loss_pred, grads


# --- sequence-level losses ---------------------------------------------------

def _sequence_arrays(model: GkaeModel, seq: GraphSequence):
    """Checked (T, L, d) features and (T, L, L) float adjacency of a sequence."""
    _check_graph(model, seq)
    return seq.features, seq.adjacency.astype(float)


def loss_grec(model: GkaeModel, seq: GraphSequence) -> float:
    """Mean squared reconstruction error of node features across the sequence."""
    X, A = _sequence_arrays(model, seq)
    return mse(_phase1_forward(model, X, A)[0], X)


def loss_rec(model: GkaeModel, seq: GraphSequence) -> float:
    """Mean squared embedding reconstruction error through the latent stage."""
    h = _embed_frames(model, *_sequence_arrays(model, seq))
    z, _ = _dense_chain_forward(model.koopman_encoder, h)
    hr, _ = _dense_chain_forward(model.koopman_decoder, z)
    return mse(hr, h)


def loss_pred(model: GkaeModel, seq: GraphSequence, tau: int) -> float:
    """Mean squared multi-step embedding prediction error, averaged over all
    anchors t and horizons dt = 1..tau."""
    X, A = _sequence_arrays(model, seq)
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    if seq.n_frames < tau + 1:
        raise ValueError(f"sequence of {seq.n_frames} frames is shorter than tau+1={tau + 1}")
    h = _embed_frames(model, X, A)
    z, _ = _dense_chain_forward(model.koopman_encoder, h)
    anchors = np.arange(h.shape[0] - tau)
    sse = 0.0
    for _, err, _ in _horizons(model, z[anchors], h, anchors, tau):
        sse += float(np.sum(err * err))
    return sse / (anchors.size * tau * h.shape[1])


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


def _stack_dataset(model: GkaeModel, dataset: list, window: int):
    X_parts, A_parts, anchor_parts = [], [], []
    offset = 0
    for seq in dataset:
        X, A = _sequence_arrays(model, seq)
        if seq.n_frames < window:
            raise ValueError(
                f"sequence of {seq.n_frames} frames is shorter than window={window}")
        X_parts.append(X)
        A_parts.append(A)
        anchor_parts.append(offset + np.arange(seq.n_frames - window + 1))
        offset += seq.n_frames
    return (np.concatenate(X_parts), np.concatenate(A_parts),
            np.concatenate(anchor_parts))


def train(model: GkaeModel, dataset: list, cfg: TrainConfig):
    """Two-phase training; mutates the model in place and returns (model, history).

    Phase 1 fits the graph autoencoder on the reconstruction loss; phase 2
    freezes it and fits the latent encoder, transition matrix and decoder on
    the embedding reconstruction + multi-step prediction losses.  One epoch
    is one full-batch Adam step over every frame / anchor in the dataset.
    """
    if not dataset:
        raise ValueError("empty dataset")
    window = cfg.effective_window
    X, A, anchors = _stack_dataset(model, dataset, window)
    history = []

    params = _phase1_params(model)
    state = AdamState.for_params(params, lr=cfg.lr)
    loss1 = math.nan
    for e in range(cfg.epochs_phase1):
        loss1, grads = _phase1_loss_grads(model, X, A, cfg.alpha1)
        total = cfg.alpha1 * loss1
        if not np.isfinite(total):
            raise TrainingDivergence(f"phase 1 loss diverged at epoch {e + 1}")
        params, state = adam_step(params, grads, state)
        _set_phase1_params(model, params)
        history.append({"epoch": e + 1, "phase": 1, "L_grec": loss1,
                        "L_rec": math.nan, "L_pred": math.nan, "total": total})

    rec = pred = math.nan
    if cfg.epochs_phase2 > 0:
        h = _embed_frames(model, X, A)
        grec_frozen = mse(_phase1_forward(model, X, A)[0], X)
        params2 = _phase2_params(model)
        state2 = AdamState.for_params(params2, lr=cfg.lr)
        for e in range(cfg.epochs_phase2):
            rec, pred, grads = _phase2_loss_grads(model, h, anchors, cfg.tau, cfg.alpha2)
            total = cfg.alpha2 * (rec + pred)
            if not np.isfinite(total):
                raise TrainingDivergence(f"phase 2 loss diverged at epoch {e + 1}")
            params2, state2 = adam_step(params2, grads, state2)
            _set_phase2_params(model, params2)
            history.append({"epoch": cfg.epochs_phase1 + e + 1, "phase": 2,
                            "L_grec": grec_frozen, "L_rec": rec, "L_pred": pred,
                            "total": total})

    model.meta.update({
        "epochs_phase1": cfg.epochs_phase1,
        "epochs_phase2": cfg.epochs_phase2,
        "train_seed": cfg.seed,
        "tau": cfg.tau,
        "final_losses": {"L_grec": float(loss1) if np.isfinite(loss1) else None,
                         "L_rec": float(rec) if np.isfinite(rec) else None,
                         "L_pred": float(pred) if np.isfinite(pred) else None},
    })
    return model, history


def save_loss_csv(history: list, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("epoch,phase,L_grec,L_rec,L_pred,total\n")
        for row in history:
            fh.write(f"{row['epoch']},{row['phase']},{row['L_grec']:.17g},"
                     f"{row['L_rec']:.17g},{row['L_pred']:.17g},{row['total']:.17g}\n")


# --- checkpointing -----------------------------------------------------------

def _dense_to_dict(l: DenseLayer) -> dict:
    return {"W": l.W.tolist(), "b": l.b.tolist(), "activation": l.activation}


def _dense_from_dict(d: dict) -> DenseLayer:
    return DenseLayer(np.asarray(d["W"], dtype=float), np.asarray(d["b"], dtype=float),
                      d["activation"])


def _sage_to_dict(l: SageLayer) -> dict:
    return {"W_self": l.W_self.tolist(), "W_neigh": l.W_neigh.tolist(),
            "b": l.b.tolist(), "activation": l.activation}


def _sage_from_dict(d: dict) -> SageLayer:
    return SageLayer(np.asarray(d["W_self"], dtype=float),
                     np.asarray(d["W_neigh"], dtype=float),
                     np.asarray(d["b"], dtype=float), d["activation"])


def save_checkpoint(model: GkaeModel, path) -> None:
    doc = {
        "version": CHECKPOINT_VERSION,
        "dims": {"L": model.L, "d_out": model.d_out, "latent": model.latent,
                 "node_dim": model.node_dim},
        "norm": {"scale": model.norm.scale, "offset": list(model.norm.offset)},
        "params": {
            "graph_encoder": [_sage_to_dict(l) for l in model.graph_encoder],
            "koopman_encoder": [_dense_to_dict(l) for l in model.koopman_encoder],
            "K": model.K.tolist(),
            "koopman_decoder": [_dense_to_dict(l) for l in model.koopman_decoder],
            "graph_decoder": [_dense_to_dict(l) for l in model.graph_decoder],
        },
        "meta": model.meta,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))


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
    try:
        dims = doc["dims"]
        params = doc["params"]
        norm = NormalizationSpec(scale=doc["norm"]["scale"],
                                 offset=tuple(doc["norm"]["offset"]))
        model = GkaeModel(
            graph_encoder=[_sage_from_dict(d) for d in params["graph_encoder"]],
            koopman_encoder=[_dense_from_dict(d) for d in params["koopman_encoder"]],
            K=np.asarray(params["K"], dtype=float),
            koopman_decoder=[_dense_from_dict(d) for d in params["koopman_decoder"]],
            graph_decoder=[_dense_from_dict(d) for d in params["graph_decoder"]],
            L=int(dims["L"]), d_out=int(dims["d_out"]), latent=int(dims["latent"]),
            node_dim=int(dims["node_dim"]), norm=norm, meta=dict(doc.get("meta", {})),
        )
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"incomplete checkpoint: {exc}") from exc
    return model
