import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from covertswarm import gkae, graphs
from covertswarm.gkae import (
    CheckpointError,
    GkaeModel,
    ModelStateError,
    TrainConfig,
    TrainingDivergence,
    build_model,
    count_parameters,
    load_checkpoint,
    rollout_batch,
    rollout_predict,
    save_checkpoint,
    save_loss_csv,
    train,
)
from covertswarm.graphs import NormalizationSpec, build_snapshot, normalize_snapshot
from covertswarm.nn import (
    DenseLayer,
    SageLayer,
    dense_backward,
    dense_forward,
    grad_check,
    mse,
    mse_grad,
)


def random_sequence(rng, L=2, T=6, d=3, threshold=100.0):
    pos = rng.uniform(0, 500, size=(T, L, d))
    seq = graphs.sequence_from_positions(pos, threshold, 0.1)
    return graphs.normalize(seq, NormalizationSpec(scale=500.0))


def random_snapshot(rng, L=2, d=3):
    """A normalized one-frame sequence of L random nodes."""
    snap = build_snapshot(rng.uniform(0, 500, size=(L, d)), 100.0)
    return normalize_snapshot(snap, NormalizationSpec(scale=500.0))


def zero_params(model):
    for p in gkae.all_parameters(model):
        p[...] = 0.0


def embed(model, snap):
    """The (node_dim*L,) embedding of one normalized one-frame sequence."""
    return gkae._embed_frames(model, snap.features, snap.adjacency)[0]


def head(model, h):
    """The per-node head over each node_dim block of (..., embed_dim)
    embeddings: (..., L, d_out)."""
    y = gkae._dense_chain(model.graph_decoder, h.reshape(-1, model.node_dim))
    return y.reshape(h.shape[:-1] + (model.L, model.d_out))


def phase1_loss(model, seq):
    return gkae._phase1_loss_grads(model, seq.features, seq.adjacency.astype(float), 1.0)[0]


def phase2_losses(model, seq, tau):
    """(L_rec, L_pred) of one sequence, every anchor with a full horizon."""
    h = gkae._embed_frames(model, seq.features, seq.adjacency.astype(float))
    return gkae._phase2_loss_grads(model, h, np.arange(seq.n_frames - tau), tau, 1.0)[:2]


# --- architecture -----------------------------------------------------------------

def test_parameter_count_reference_model():
    model = build_model(4, d_out=3)
    n = count_parameters(model)
    assert n == 1571
    assert 1200 <= n <= 2500


def test_layer_counts_and_dims():
    model = build_model(4, d_out=3)
    assert len(model.graph_encoder) == 2
    assert len(model.koopman_encoder) == 3
    assert len(model.koopman_decoder) == 3
    assert len(model.graph_decoder) == 4
    assert model.K.shape == (8, 8)
    assert model.koopman_encoder[0].n_in == 16
    assert model.koopman_decoder[-1].n_out == 16
    assert model.graph_decoder[-1].n_out == 3
    assert [l.activation for l in model.koopman_encoder] == ["tanh"] * 3
    assert [l.activation for l in model.koopman_decoder] == ["tanh", "tanh", "identity"]
    assert [l.activation for l in model.graph_decoder] == ["elu"] * 3 + ["identity"]


def test_build_model_rejects_bad_dims():
    with pytest.raises(ValueError):
        build_model(4, d_out=5)


# --- graph encode/decode -------------------------------------------------------------

def test_graph_encode_zero_model_zero_embedding():
    model = build_model(3)
    zero_params(model)
    snap = random_snapshot(np.random.default_rng(0), L=3)
    np.testing.assert_array_equal(embed(model, snap), np.zeros(12))


def test_graph_encode_matches_hand_composition():
    rng = np.random.default_rng(1)
    model = build_model(3, seed=4)
    snap = random_snapshot(rng, L=3)
    X = snap.features[0]
    A = snap.adjacency[0].astype(float)

    def elu(v):
        return np.where(v >= 0, v, np.expm1(v))

    H = X
    for layer in model.graph_encoder:
        deg = np.maximum(A.sum(axis=1, keepdims=True), 1.0)
        agg = (A @ H) / deg
        H = elu(H @ layer.W_self.T + agg @ layer.W_neigh.T + layer.b)
    np.testing.assert_allclose(embed(model, snap), H.reshape(-1), rtol=1e-12)


def test_graph_encode_permutation_block_equivariance():
    rng = np.random.default_rng(2)
    model = build_model(4, seed=1)
    pos = rng.uniform(0, 500, size=(4, 3))
    perm = np.array([2, 0, 3, 1])
    spec = NormalizationSpec(scale=500.0)
    h = embed(model, normalize_snapshot(build_snapshot(pos, 100.0), spec))
    h_p = embed(model, normalize_snapshot(build_snapshot(pos[perm], 100.0), spec))
    np.testing.assert_allclose(h_p.reshape(4, 4), h.reshape(4, 4)[perm], atol=1e-12)


def test_graph_encode_validates():
    model = build_model(3)
    snap = random_snapshot(np.random.default_rng(3), L=4)
    with pytest.raises(ValueError):
        rollout_predict(model, snap, 1)
    raw = build_snapshot(np.zeros((3, 3)), 100.0)
    with pytest.raises(ValueError, match="normalized"):
        rollout_predict(model, raw, 1)


@pytest.mark.parametrize("T", [2, 5])
def test_rollout_predict_takes_one_frame(T):
    model = build_model(2, seed=3)
    seq = random_sequence(np.random.default_rng(T), L=2, T=T)
    with pytest.raises(ValueError, match=f"one frame, got {T}"):
        rollout_predict(model, seq, 1)


def test_koopman_encode_matches_hand_composition():
    rng = np.random.default_rng(4)
    model = build_model(2, seed=9)
    h = rng.normal(size=8)
    expected = h
    for layer in model.koopman_encoder:
        expected = np.tanh(layer.W @ expected + layer.b)
    np.testing.assert_allclose(gkae._dense_chain(model.koopman_encoder, h), expected,
                               rtol=1e-12)


def test_koopman_decode_matches_hand_composition():
    rng = np.random.default_rng(5)
    model = build_model(2, seed=9)
    z = rng.normal(size=8)
    expected = np.tanh(model.koopman_decoder[0].W @ z + model.koopman_decoder[0].b)
    expected = np.tanh(model.koopman_decoder[1].W @ expected + model.koopman_decoder[1].b)
    expected = model.koopman_decoder[2].W @ expected + model.koopman_decoder[2].b
    np.testing.assert_allclose(gkae._dense_chain(model.koopman_decoder, z), expected,
                               rtol=1e-12)


def test_koopman_decode_output_length():
    model = build_model(4)
    z = np.zeros(8)
    assert gkae._dense_chain(model.koopman_decoder, z).shape == (16,)


def test_graph_decode_block_permutation():
    rng = np.random.default_rng(6)
    model = build_model(4, seed=2)
    h = rng.normal(size=16)
    perm = np.array([1, 3, 0, 2])
    out = head(model, h)
    out_p = head(model, h.reshape(4, 4)[perm].reshape(-1))
    np.testing.assert_allclose(out_p, out[perm], atol=1e-12)


def test_graph_decode_zero():
    model = build_model(2)
    zero_params(model)
    np.testing.assert_array_equal(head(model, np.zeros(8)), np.zeros((2, 3)))


# --- rollout ----------------------------------------------------------------------------

def test_rollout_horizon_one_equals_manual_chain():
    rng = np.random.default_rng(9)
    model = build_model(2, seed=5, norm=NormalizationSpec(scale=500.0))
    snap = random_snapshot(rng, L=2)
    z = gkae._dense_chain(model.koopman_encoder, embed(model, snap))
    manual = head(model, gkae._dense_chain(model.koopman_decoder, model.K @ z)) * 500.0
    out = rollout_predict(model, snap, 1)
    assert out.shape == (1, 2, 3)
    np.testing.assert_allclose(out[0], manual, rtol=1e-12)


def test_rollout_frame_count():
    model = build_model(2, seed=5)
    snap = random_snapshot(np.random.default_rng(10), L=2)
    assert rollout_predict(model, snap, 7).shape == (7, 2, 3)
    for bad in (0, 7.0, 7.5):  # 7.5 once gave 8 frames
        with pytest.raises(ValueError, match="horizon_steps must be an integer >= 1"):
            rollout_predict(model, snap, bad)


def test_rollout_latent_linearity_consistency():
    # prediction at step 2s equals re-advancing the latent of step s by s
    rng = np.random.default_rng(11)
    model = build_model(2, seed=6, norm=NormalizationSpec(scale=500.0))
    snap = random_snapshot(rng, L=2)
    s = 3
    out = rollout_predict(model, snap, 2 * s)
    z0 = gkae._dense_chain(model.koopman_encoder, embed(model, snap))
    K_s = np.linalg.matrix_power(model.K, s)
    z_2s = K_s @ (K_s @ z0)
    manual = head(model, gkae._dense_chain(model.koopman_decoder, z_2s)) * 500.0
    np.testing.assert_allclose(out[2 * s - 1], manual, rtol=1e-10)


def test_rollout_rejects_nan_parameters():
    model = build_model(2, seed=5)
    model.K[0, 0] = np.nan
    snap = random_snapshot(np.random.default_rng(12), L=2)
    with pytest.raises(ModelStateError):
        rollout_predict(model, snap, 3)


def test_rollout_rejects_non_finite_output():
    # finite parameters whose rollout overflows: spectral radius 1e12
    model = build_model(2, seed=13)
    model.K *= 1e12 / np.abs(np.linalg.eigvals(model.K)).max()
    snap = random_snapshot(np.random.default_rng(13), L=2)
    with pytest.raises(ModelStateError, match="not finite"):
        rollout_predict(model, snap, 30)


def test_rollout_finite_under_bounded_spectral_radius():
    model = build_model(2, seed=13)
    rho = np.abs(np.linalg.eigvals(model.K)).max()
    model.K *= 1.04 / rho
    snap = random_snapshot(np.random.default_rng(13), L=2)
    out = rollout_predict(model, snap, 200)
    assert np.all(np.isfinite(out))


def start_frames(rng, R, L=3):
    """R normalized start frames as (R, L, 3) features and (R, L, L) adjacency."""
    snaps = [random_snapshot(rng, L=L) for _ in range(R)]
    return (np.concatenate([s.features for s in snaps]),
            np.concatenate([s.adjacency for s in snaps]), snaps)


def test_rollout_batch_rows_agree_with_single_start_rollouts():
    rng = np.random.default_rng(31)
    model = build_model(3, seed=7, norm=NormalizationSpec(scale=500.0))
    X, A, snaps = start_frames(rng, 9)
    out = rollout_batch(model, X, A, np.arange(1, 41))
    assert out.shape == (9, 40, 3, 3)
    for row, snap in zip(out, snaps):
        np.testing.assert_allclose(row, rollout_predict(model, snap, 40), rtol=1e-9)


def test_rollout_batch_step_selection_equals_rows_of_full_rollout():
    rng = np.random.default_rng(32)
    model = build_model(3, seed=8, norm=NormalizationSpec(scale=500.0))
    X, A, _ = start_frames(rng, 5)
    full = rollout_batch(model, X, A, np.arange(1, 31))
    steps = np.array([1, 4, 10, 30])
    np.testing.assert_array_equal(rollout_batch(model, X, A, steps), full[:, steps - 1])


def test_rollout_batch_rejects_non_finite_output():
    model = build_model(3, seed=13)
    model.K *= 1e12 / np.abs(np.linalg.eigvals(model.K)).max()
    X, A, _ = start_frames(np.random.default_rng(33), 4)
    with pytest.raises(ModelStateError, match="not finite"):
        rollout_batch(model, X, A, [10, 20, 30])


@pytest.mark.parametrize("steps", [[], [0, 1], [3, 3], [5, 2], [[1, 2]], [1.5, 2.5], [1.0, 2.0],
                                   [True], np.array([1, 2], dtype=np.float32)])
def test_rollout_batch_rejects_bad_steps(steps):
    model = build_model(3, seed=5)
    X, A, _ = start_frames(np.random.default_rng(34), 2)
    with pytest.raises(ValueError, match="increasing"):
        rollout_batch(model, X, A, steps)


def test_rollout_batch_rejects_mismatched_frames():
    model = build_model(3, seed=5)
    X, A, _ = start_frames(np.random.default_rng(35), 2)
    with pytest.raises(ValueError, match="adjacency"):
        rollout_batch(model, X, A[:1], [1])
    with pytest.raises(ValueError, match="adjacency"):
        rollout_batch(model, X[:, :2], A[:, :2, :2], [1])


# --- identity stacks: exact-zero losses ----------------------------------------------

def identity_dense(n_in, n_out, activation="identity"):
    W = np.zeros((n_out, n_in))
    for i in range(min(n_in, n_out)):
        W[i, i] = 1.0
    return DenseLayer(W, np.zeros(n_out), activation)


def identity_sage(n_in, n_out):
    W_self = np.zeros((n_out, n_in))
    for i in range(min(n_in, n_out)):
        W_self[i, i] = 1.0
    return SageLayer(W_self, np.zeros((n_out, n_in)), np.zeros(n_out), "elu")


def identity_model(L=2):
    # exact autoencoder for non-negative features; latent stage is the identity
    embed = 4 * L
    return GkaeModel(
        graph_encoder=[identity_sage(3, 4), identity_sage(4, 4)],
        koopman_encoder=[identity_dense(embed, 16), identity_dense(16, 16),
                         identity_dense(16, embed)],
        K=np.eye(embed),
        koopman_decoder=[identity_dense(embed, 16), identity_dense(16, 16),
                         identity_dense(16, embed)],
        graph_decoder=[identity_dense(4, 4, "elu"), identity_dense(4, 4, "elu"),
                       identity_dense(4, 4, "elu"), identity_dense(4, 3)],
        L=L, d_out=3, latent=embed, node_dim=4,
        norm=NormalizationSpec(scale=500.0), meta={},
    )


def test_perfect_autoencoder_grec_zero():
    rng = np.random.default_rng(14)
    model = identity_model()
    seq = random_sequence(rng, L=2, T=4)
    assert phase1_loss(model, seq) == 0.0


def test_identity_kae_zero_losses_on_constant_sequence():
    model = identity_model()
    pos = np.tile(np.array([[100.0, 200.0, 80.0], [300.0, 350.0, 120.0]]), (5, 1, 1))
    seq = graphs.normalize(graphs.sequence_from_positions(pos, 100.0, 0.1),
                           NormalizationSpec(scale=500.0))
    rec, pred = phase2_losses(model, seq, tau=2)
    assert rec == pytest.approx(0.0, abs=1e-28)
    assert pred == pytest.approx(0.0, abs=1e-28)


# --- losses ------------------------------------------------------------------------------

def test_loss_grec_single_frame_hand_computation():
    rng = np.random.default_rng(15)
    model = build_model(2, seed=8)
    seq = random_sequence(rng, L=2, T=1)
    X = seq.features[0]
    Xhat = head(model, gkae._embed_frames(model, seq.features, seq.adjacency))[0]
    expected = np.mean((Xhat - X) ** 2)
    assert phase1_loss(model, seq) == pytest.approx(expected, rel=1e-12)


def test_losses_nonnegative():
    rng = np.random.default_rng(16)
    model = build_model(2, seed=10)
    seq = random_sequence(rng, L=2, T=5)
    assert phase1_loss(model, seq) >= 0.0
    rec, pred = phase2_losses(model, seq, tau=2)
    assert rec >= 0.0 and pred >= 0.0


def test_loss_pred_single_pair_hand_computation():
    rng = np.random.default_rng(17)
    model = build_model(2, seed=11)
    seq = random_sequence(rng, L=2, T=2)
    h0, h1 = gkae._embed_frames(model, seq.features, seq.adjacency)
    z1 = model.K @ gkae._dense_chain(model.koopman_encoder, h0)
    expected = np.mean((gkae._dense_chain(model.koopman_decoder, z1) - h1) ** 2)
    assert phase2_losses(model, seq, tau=1)[1] == pytest.approx(expected, rel=1e-12)


def test_loss_pred_requires_enough_frames():
    # the prediction loss needs a window of tau + 1 frames in every sequence
    rng = np.random.default_rng(18)
    model = build_model(2, seed=12)
    dataset = [random_sequence(rng, L=2, T=4), random_sequence(rng, L=2, T=3)]
    with pytest.raises(ValueError, match="3 frames is shorter than window=4"):
        train(model, dataset, TrainConfig(tau=3))


# --- full-model gradient check ---------------------------------------------------------

def test_full_model_gradients_match_finite_differences():
    rng = np.random.default_rng(19)
    model = build_model(2, seed=20)
    seq = random_sequence(rng, L=2, T=4)
    X = seq.features
    A = seq.adjacency.astype(float)

    p1 = gkae._phase1_params(model)
    rep1 = grad_check(lambda: gkae._phase1_loss_grads(model, X, A, 1.0)[0],
                      lambda: gkae._phase1_loss_grads(model, X, A, 1.0)[1], p1)
    assert rep1["max_rel_err"] < 1e-4

    h = gkae._embed_frames(model, X, A)
    anchors = np.arange(2)
    p2 = gkae._phase2_params(model)

    def loss2():
        r, p, _ = gkae._phase2_loss_grads(model, h, anchors, 2, 1.0)
        return r + p

    rep2 = grad_check(loss2,
                      lambda: gkae._phase2_loss_grads(model, h, anchors, 2, 1.0)[2],
                      p2)
    assert rep2["max_rel_err"] < 1e-4


# --- phase-2 block jobs ----------------------------------------------------------------

def chain_forward(layers, x):
    tape = []
    for layer in layers:
        y, saved = dense_forward(layer, x, keep=True)
        tape.append((x, saved))
        x = y
    return x, tape


def chain_backward(layers, tape, up, acc):
    for k in range(len(layers) - 1, -1, -1):
        x, saved = tape[k]
        up, dW, db = dense_backward(layers[k], x, up, saved)
        acc[k][0] += dW
        acc[k][1] += db
    return up


def serial_phase2_loss_grads(model, h, anchors, tau, alpha2):
    """Phase-2 losses and gradients with every horizon decoded in turn and
    the latent gradients kept in one block: an oracle written apart from
    the block jobs, which sums in another order."""
    D = h.shape[1]
    enc, dec, K = model.koopman_encoder, model.koopman_decoder, model.K
    z, enc_tape = chain_forward(enc, h)
    enc_acc = [[np.zeros_like(l.W), np.zeros_like(l.b)] for l in enc]
    dec_acc = [[np.zeros_like(l.W), np.zeros_like(l.b)] for l in dec]
    dK = np.zeros_like(K)
    hr, dec_tape = chain_forward(dec, z)
    rec = mse(hr, h)
    dz = chain_backward(dec, dec_tape, alpha2 * mse_grad(hr, h), dec_acc)
    na = anchors.size
    n_pred = na * tau * D
    W = np.empty((tau + 1, na, model.latent))
    gW = np.empty((tau + 1, na, model.latent))
    W[0] = z[anchors]
    sse = 0.0
    w = W[0]
    for d in range(1, tau + 1):
        w = w @ K.T
        W[d] = w
        y, tape = chain_forward(dec, w)
        err = y - h[anchors + d]
        sse += float(np.sum(err * err))
        gW[d] = chain_backward(dec, tape, (2.0 * alpha2 / n_pred) * err, dec_acc)
    t_grad = gW[tau]
    for d in range(tau, 0, -1):
        dK += t_grad.T @ W[d - 1]
        down = t_grad @ K
        t_grad = gW[d - 1] + down if d > 1 else down
    dz[anchors] += t_grad
    chain_backward(enc, enc_tape, dz, enc_acc)
    grads = [g for pair in enc_acc for g in pair] + [dK]
    grads += [g for pair in dec_acc for g in pair]
    return rec, sse / n_pred, grads


def block_phase2_loss_grads(model, h, anchors, tau, alpha2):
    """Phase-2 losses and gradients over blocks of max(1, _BLOCK_ROWS // tau)
    anchors, one block after another with no buffers and no pool: the
    serial loop that the block jobs must reproduce bit for bit."""
    D = h.shape[1]
    enc, dec, K = model.koopman_encoder, model.koopman_decoder, model.K
    z, enc_tape = chain_forward(enc, h)
    enc_acc = [[np.zeros_like(l.W), np.zeros_like(l.b)] for l in enc]
    dec_acc = [[np.zeros_like(l.W), np.zeros_like(l.b)] for l in dec]
    dK = np.zeros_like(K)
    hr, dec_tape = chain_forward(dec, z)
    rec = mse(hr, h)
    dz = chain_backward(dec, dec_tape, alpha2 * mse_grad(hr, h), dec_acc)
    n_pred = anchors.size * tau * D
    block = max(1, gkae._BLOCK_ROWS // tau)
    sse = 0.0
    for i in range(0, anchors.size, block):
        rows = anchors[i:i + block]
        W = [z[rows]]
        for d in range(tau):
            W.append(W[-1] @ K.T)
        W = np.stack(W)
        y, tape = chain_forward(dec, W[1:].reshape(-1, model.latent))
        err = y - h[(np.arange(1, tau + 1)[:, None] + rows).ravel()]
        sse += float(np.sum(err * err))
        acc = [[np.zeros_like(l.W), np.zeros_like(l.b)] for l in dec]
        g = chain_backward(dec, tape, err * (2.0 * alpha2 / n_pred), acc)
        for pair, (dW, db) in zip(dec_acc, acc):
            pair[0] += dW
            pair[1] += db
        g = g.reshape(tau, rows.size, model.latent)
        for d in range(tau - 1, 0, -1):
            g[d - 1] += g[d] @ K
        dK += g.reshape(-1, model.latent).T @ W[:-1].reshape(-1, model.latent)
        dz[rows] += g[0] @ K
    chain_backward(enc, enc_tape, dz, enc_acc)
    grads = [g for pair in enc_acc for g in pair] + [dK]
    grads += [g for pair in dec_acc for g in pair]
    return rec, sse / n_pred, grads


def phase2_inputs(tau, seed=31, frames=None):
    """A perturbed model and the embeddings of one sequence, with every
    anchor whose horizon stays in it; by default just enough anchors for
    the block jobs to run on threads."""
    rng = np.random.default_rng(seed)
    model = build_model(3, seed=seed)
    for p in gkae._phase2_params(model):
        p += rng.normal(scale=0.3, size=p.shape)
    if frames is None:
        frames = -(-gkae._POOL_MIN_ROWS // tau) + tau
    h = rng.normal(size=(frames, model.embed_dim))
    return model, h, np.arange(frames - tau)


def assert_phase2_matches_serial(model, h, anchors, tau, buffers=None):
    want = block_phase2_loss_grads(model, h, anchors, tau, 0.7)
    got = gkae._phase2_loss_grads(model, h, anchors, tau, 0.7, buffers)
    assert got[0] == want[0] and got[1] == want[1]
    assert len(got[2]) == len(want[2]) == 13
    for a, b in zip(got[2], want[2]):
        assert np.array_equal(a, b)


def assert_phase2_near_the_horizon_oracle(model, h, anchors, tau):
    # the two sum in different orders: L_rec shares its pass, the rest may
    # differ in the last bits
    want = serial_phase2_loss_grads(model, h, anchors, tau, 0.7)
    got = gkae._phase2_loss_grads(model, h, anchors, tau, 0.7)
    assert got[0] == want[0]
    assert got[1] == pytest.approx(want[1], rel=1e-12, abs=0)
    for a, b in zip(got[2], want[2]):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def fake_blas(threads):
    """A stand-in for _blas_thread_control reporting `threads` BLAS threads
    and ignoring any change to them."""
    return lambda: (lambda: threads, lambda n: None)


@pytest.mark.parametrize("tau", [1, 2, 5, 13, 30])
@pytest.mark.parametrize("workers", ["one", "machine", "eight", "no BLAS control"])
def test_phase2_horizon_jobs_equal_the_serial_loop_bitwise(monkeypatch, tau, workers):
    if workers == "one":
        monkeypatch.setattr(gkae, "_blas_thread_control", fake_blas(1))
    elif workers == "no BLAS control":
        monkeypatch.setattr(gkae, "_blas_thread_control", lambda: None)
    elif workers == "eight":
        monkeypatch.setattr(gkae, "_blas_thread_control", fake_blas(8))
        monkeypatch.setattr(gkae, "_MAX_WORKERS", 8)
    interval = sys.getswitchinterval()
    try:
        if workers == "eight":  # more workers than cores, switching often
            sys.setswitchinterval(1e-6)
        assert_phase2_matches_serial(*phase2_inputs(tau), tau)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("tau", [1, 2, 5, 13, 30])
def test_phase2_block_jobs_are_near_the_horizon_oracle(tau):
    assert_phase2_near_the_horizon_oracle(*phase2_inputs(tau), tau)


@pytest.mark.parametrize("block_rows, blocks, last", [
    (64, 4, 4),        # blocks of 12 anchors and a ragged last block of 4
    (1 << 15, 1, 40),  # fewer anchors than one block
    (4, 40, 1),        # fewer rows than one horizon: blocks of one anchor
])
def test_phase2_blocks_of_any_size_equal_the_serial_loop_bitwise(monkeypatch, block_rows,
                                                                 blocks, last):
    monkeypatch.setattr(gkae, "_blas_thread_control", fake_blas(2))
    monkeypatch.setattr(gkae, "_POOL_MIN_ROWS", 0)  # the pool takes any call of two jobs
    monkeypatch.setattr(gkae, "_BLOCK_ROWS", block_rows)
    tau = 5
    model, h, anchors = phase2_inputs(tau, frames=40 + tau)
    block = max(1, block_rows // tau)
    sizes = [len(anchors[i:i + block]) for i in range(0, anchors.size, block)]
    assert (len(sizes), sizes[-1]) == (blocks, last)
    assert_calls_sharing_buffers_match_serial(model, h, anchors, tau)
    assert_phase2_near_the_horizon_oracle(model, h, anchors, tau)


def assert_calls_sharing_buffers_match_serial(model, h, anchors, tau):
    """Two phase-2 calls on one set of buffers, the parameters perturbed in
    between, each equal to the serial loop."""
    buffers = gkae._Phase2Buffers(model, len(h), tau)
    rng = np.random.default_rng(tau)
    assert_phase2_matches_serial(model, h, anchors, tau, buffers)
    for p in gkae._phase2_params(model):
        p += rng.normal(scale=0.1, size=p.shape)
    assert_phase2_matches_serial(model, h, anchors, tau, buffers)


@pytest.mark.parametrize("tau", [1, 2, 5, 13, 30])
@pytest.mark.parametrize("workers", [1, 2, 8])
def test_phase2_calls_sharing_buffers_equal_the_serial_loop_bitwise(monkeypatch, tau,
                                                                    workers):
    monkeypatch.setattr(gkae, "_blas_thread_control", fake_blas(workers))
    monkeypatch.setattr(gkae, "_MAX_WORKERS", workers)
    interval = sys.getswitchinterval()
    try:
        if workers == 8:  # more workers than cores, switching often
            sys.setswitchinterval(1e-6)
        assert_calls_sharing_buffers_match_serial(*phase2_inputs(tau), tau)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("layer", [0, 1, 2])
def test_phase2_calls_sharing_buffers_with_an_elu_decoder_layer(monkeypatch, layer):
    # a resumed checkpoint may carry any activation; an elu layer keeps its
    # pre-activation in the buffer and makes its output anew
    monkeypatch.setattr(gkae, "_blas_thread_control", fake_blas(2))
    model, h, anchors = phase2_inputs(5)
    model.koopman_decoder[layer].activation = "elu"
    assert_calls_sharing_buffers_match_serial(model, h, anchors, 5)


@pytest.mark.parametrize("tau", [5, 30])
def test_phase2_second_call_on_kept_buffers_allocates_little(tau):
    # tracemalloc sees numpy's buffers: the first call makes the buffers, the
    # second writes into them
    model, h, anchors = phase2_inputs(tau)
    peaks = []
    tracemalloc.start()
    try:
        buffers = None
        for _ in range(2):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            buffers = buffers or gkae._Phase2Buffers(model, len(h), tau)
            gkae._phase2_loss_grads(model, h, anchors, tau, 1.0, buffers)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    assert peaks[1] < peaks[0] / 4


def test_phase2_buffers_hold_no_array_per_anchor(monkeypatch):
    # a job's latents live in its workspace, one block of anchors long, so
    # what the buffers keep from one call to the next is sized by the
    # frames and the block, and holds no (anchors, ...) array
    tau = 30
    model, h, anchors = phase2_inputs(tau)
    made = []
    buffers_cls = gkae._Phase2Buffers
    monkeypatch.setattr(gkae, "_Phase2Buffers", lambda *a: made.append(buffers_cls(*a))
                        or made[-1])
    gkae._phase2_loss_grads(model, h, anchors, tau, 1.0)
    held = [vars(made[0])]
    while not made[0]._idle.empty():
        held.append(vars(made[0]._idle.get()))
    arrays = [a for attrs in held for v in attrs.values()
              for a in (v if isinstance(v, list) else [v]) if isinstance(a, np.ndarray)]
    assert len(held) > 1 and arrays
    assert all(anchors.size not in a.shape for a in arrays)


def test_phase2_rejects_anchors_whose_horizon_leaves_h():
    model, h, _ = phase2_inputs(2, frames=10)
    for anchors in (np.arange(9), np.array([-1, 0])):
        with pytest.raises(ValueError, match="anchors"):
            gkae._phase2_loss_grads(model, h, anchors, 2, 1.0)


@pytest.mark.parametrize("blas_threads, max_workers, workers",
                         [(2, 2, 2), (16, 2, 2), (16, 8, 8), (3, 8, 3)])
def test_horizon_map_caps_workers_and_jobs_submitted_ahead(monkeypatch, blas_threads,
                                                           max_workers, workers):
    monkeypatch.setattr(gkae, "_blas_thread_control", fake_blas(blas_threads))
    monkeypatch.setattr(gkae, "_MAX_WORKERS", max_workers)
    jobs = 30
    pulled = []

    def items():
        for i in range(jobs):
            pulled.append(i)
            yield i

    with gkae._job_map(jobs, gkae._POOL_MIN_ROWS) as run:
        results = run(lambda i: (i, threading.get_ident()), items())
        first = next(results)
        assert len(pulled) == workers + 1
        rest = list(results)
    assert [i for i, _ in [first] + rest] == list(range(jobs))
    assert len({ident for _, ident in [first] + rest}) <= workers


def n_blocks(anchors, tau):
    return -(-anchors.size // max(1, gkae._BLOCK_ROWS // tau))


def recording_jobs(monkeypatch, control):
    """Make every block job record (its thread, the BLAS thread count)."""
    seen = []
    job = gkae._block_grads

    def recording_job(*args):
        seen.append((threading.get_ident(), control[0]()))
        return job(*args)

    monkeypatch.setattr(gkae, "_block_grads", recording_job)
    return seen


def test_phase2_runs_one_job_per_blas_thread_on_one_thread_blas(monkeypatch):
    control = gkae._blas_thread_control()
    if control is None:
        pytest.skip("numpy's BLAS exports no thread control")
    get, set_ = control
    before = get()
    seen = recording_jobs(monkeypatch, control)
    threads = threading.active_count()
    try:
        set_(2)
        model, h, anchors = phase2_inputs(5)
        gkae._phase2_loss_grads(model, h, anchors, 5, 1.0)
        assert get() == 2
        assert threading.active_count() == threads
        assert len(seen) == n_blocks(anchors, 5) and {n for _, n in seen} == {1}
        assert len({ident for ident, _ in seen}) <= 2
        assert threading.get_ident() not in {ident for ident, _ in seen}
    finally:
        set_(before)


def test_phase2_small_calls_run_on_the_calling_thread(monkeypatch):
    control = gkae._blas_thread_control() or (lambda: None, None)
    seen = recording_jobs(monkeypatch, control)
    before = control[0]()
    model, h, anchors = phase2_inputs(5, frames=gkae._POOL_MIN_ROWS // 5)
    gkae._phase2_loss_grads(model, h, anchors, 5, 1.0)
    assert seen == [(threading.get_ident(), before)] * n_blocks(anchors, 5)


def test_phase2_restores_blas_threads_when_a_job_raises(monkeypatch):
    control = gkae._blas_thread_control()
    if control is None:
        pytest.skip("numpy's BLAS exports no thread control")
    get, set_ = control
    before = get()
    job = gkae._block_grads
    done = []

    def failing_job(*args):
        if len(done) >= 2:
            raise RuntimeError("job failed")
        done.append(job(*args))
        return done[-1]

    monkeypatch.setattr(gkae, "_block_grads", failing_job)
    threads = threading.active_count()
    try:
        set_(2)
        model, h, anchors = phase2_inputs(5)
        with pytest.raises(RuntimeError, match="job failed"):
            gkae._phase2_loss_grads(model, h, anchors, 5, 1.0)
        assert get() == 2
        assert threading.active_count() == threads
    finally:
        set_(before)


# --- training ----------------------------------------------------------------------------

def couzin_dataset(n_seqs=2, duration=4.0):
    from covertswarm import swarm
    from dataclasses import replace
    out = []
    base = swarm.SwarmConfig(L=3, duration=duration)
    for s in range(n_seqs):
        traj = swarm.simulate(replace(base, seed=100 + s))
        seq = graphs.sequence_from_positions(traj.positions, 100.0, base.dt,
                                             NormalizationSpec(scale=500.0))
        out.append(graphs.normalize(seq))
    return out


def test_phase1_loss_decreases_smoothed():
    dataset = couzin_dataset()
    model = build_model(3, seed=0, norm=dataset[0].norm)
    cfg = TrainConfig(tau=3, epochs_phase1=100, epochs_phase2=0, lr=3e-3)
    _, history = train(model, dataset, cfg)
    losses = [row["L_grec"] for row in history]
    smoothed_end = np.mean(losses[-10:])
    assert smoothed_end < losses[0]


def test_train_keeps_no_memory_or_threads_after_it_returns():
    # one sequence long enough for the block jobs to run on threads
    rng = np.random.default_rng(41)
    dataset = [random_sequence(rng, L=2, T=gkae._POOL_MIN_ROWS // 30 + 200)]
    cfg = TrainConfig(tau=30, epochs_phase1=1, epochs_phase2=2)
    train(build_model(2, seed=41), dataset, cfg)  # imports and caches settle
    model = build_model(2, seed=41)
    threads = threading.active_count()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, history = train(model, dataset, cfg)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(history) == 3
    assert kept < 1 << 20
    assert threading.active_count() == threads


def test_zero_length_phase2_keeps_K():
    dataset = couzin_dataset()
    model = build_model(3, seed=1, norm=dataset[0].norm)
    K0 = model.K.copy()
    cfg = TrainConfig(tau=3, epochs_phase1=2, epochs_phase2=0)
    train(model, dataset, cfg)
    np.testing.assert_array_equal(model.K, K0)


def test_training_history_shape_and_phases():
    dataset = couzin_dataset()
    model = build_model(3, seed=2, norm=dataset[0].norm)
    cfg = TrainConfig(tau=3, epochs_phase1=4, epochs_phase2=3)
    _, history = train(model, dataset, cfg)
    assert len(history) == 7
    assert [row["phase"] for row in history] == [1] * 4 + [2] * 3
    assert [row["epoch"] for row in history] == list(range(1, 8))
    for row in history[4:]:
        assert np.isfinite(row["L_rec"]) and np.isfinite(row["L_pred"])
    assert math.isnan(history[0]["L_rec"])


@pytest.mark.parametrize("e1, e2", [(3, 2), (0, 2), (3, 0)])
def test_train_records_the_last_losses_of_each_phase(e1, e2):
    dataset = couzin_dataset()
    model = build_model(3, seed=2, norm=dataset[0].norm)
    _, history = train(model, dataset, TrainConfig(tau=3, epochs_phase1=e1, epochs_phase2=e2))
    last1 = history[e1 - 1] if e1 else {"L_grec": None}
    last2 = history[-1] if e2 else {"L_rec": None, "L_pred": None}
    assert model.meta["final_losses"] == {"L_grec": last1["L_grec"],
                                          "L_rec": last2["L_rec"], "L_pred": last2["L_pred"]}


def test_training_reproducible_by_seed():
    losses = []
    for _ in range(2):
        dataset = couzin_dataset()
        model = build_model(3, seed=3, norm=dataset[0].norm)
        cfg = TrainConfig(tau=3, epochs_phase1=5, epochs_phase2=5, seed=3)
        _, history = train(model, dataset, cfg)
        losses.append([row["total"] for row in history])
    assert losses[0] == losses[1]


def test_training_phase2_losses_improve():
    dataset = couzin_dataset(n_seqs=2, duration=6.0)
    model = build_model(3, seed=4, norm=dataset[0].norm)
    cfg = TrainConfig(tau=3, epochs_phase1=150, epochs_phase2=150, lr=3e-3)
    _, history = train(model, dataset, cfg)
    p2 = [row for row in history if row["phase"] == 2]
    assert np.mean([r["total"] for r in p2[-10:]]) < p2[0]["total"]


def test_training_divergence_raises():
    dataset = couzin_dataset()
    model = build_model(3, seed=5, norm=dataset[0].norm)
    cfg = TrainConfig(tau=3, epochs_phase1=50, epochs_phase2=0, lr=1e80)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergence):
        train(model, dataset, cfg)


def test_training_rejects_bad_dataset():
    model = build_model(3, seed=6)
    with pytest.raises(ValueError):
        train(model, [], TrainConfig(tau=3))
    raw = graphs.sequence_from_positions(np.zeros((5, 3, 3)), 100.0, 0.1)
    with pytest.raises(ValueError, match="normalized"):
        train(model, [raw], TrainConfig(tau=3))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(tau=0)
    with pytest.raises(ValueError):
        TrainConfig(window=10, tau=10)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(alpha1=-1.0)


def test_save_loss_csv(tmp_path):
    dataset = couzin_dataset()
    model = build_model(3, seed=7, norm=dataset[0].norm)
    cfg = TrainConfig(tau=3, epochs_phase1=2, epochs_phase2=2)
    _, history = train(model, dataset, cfg)
    path = tmp_path / "loss.csv"
    save_loss_csv(history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,phase,L_grec,L_rec,L_pred,total"
    assert len(lines) == 5


# --- checkpointing -------------------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    dataset = couzin_dataset()
    model = build_model(3, seed=8, norm=dataset[0].norm)
    train(model, dataset, TrainConfig(tau=3, epochs_phase1=3, epochs_phase2=3))
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    for a, b in zip(gkae.all_parameters(model), gkae.all_parameters(loaded)):
        np.testing.assert_array_equal(a, b)
    assert loaded.norm == model.norm
    assert loaded.meta["epochs_phase1"] == 3


def test_train_records_the_threshold_and_refuses_mixed_ones():
    rng = np.random.default_rng(12)
    model = build_model(2, seed=12)
    cfg = TrainConfig(tau=2, epochs_phase1=1, epochs_phase2=1)
    train(model, [random_sequence(rng, threshold=50.0) for _ in range(2)], cfg)
    assert model.meta["d_tilde"] == 50.0
    assert list(model.meta) == ["epochs_phase1", "epochs_phase2", "seed", "final_losses",
                                "train_seed", "tau", "d_tilde"]
    mixed = [random_sequence(rng, threshold=50.0), random_sequence(rng, threshold=60.0)]
    with pytest.raises(ValueError, match="thresholds 50 and 60 m"):
        train(model, mixed, cfg)


@pytest.mark.parametrize("dts, scales, model_scale, message", [
    ((0.1, 0.2), (500.0, 500.0), 500.0, "sequences sampled at dt 0.1 and 0.2 s"),
    ((0.1, 0.1), (500.0, 1000.0), 500.0, "scale/offset 1000/.* the model's norm 500/"),
    ((0.1, 0.1), (500.0, 500.0), 250.0, "scale/offset 500/.* the model's norm 250/"),
], ids=["mixed dt", "mixed scales", "model scale"])
def test_train_refuses_mixed_dt_and_norms(dts, scales, model_scale, message):
    # each trained without a word, and the checkpoint recorded the model's
    # norm, so every forecast came out in the wrong units
    rng = np.random.default_rng(13)
    dataset = [graphs.normalize(graphs.sequence_from_positions(
        rng.uniform(0, 500, size=(6, 2, 3)), 100.0, dt), NormalizationSpec(scale=scale))
        for dt, scale in zip(dts, scales)]
    model = build_model(2, seed=13, norm=NormalizationSpec(scale=model_scale))
    before = [p.copy() for p in gkae.all_parameters(model)]
    with pytest.raises(ValueError, match=message):
        train(model, dataset, TrainConfig(tau=2, epochs_phase1=1, epochs_phase2=1))
    for a, b in zip(before, gkae.all_parameters(model)):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_fresh_model_reports_zero_epochs(tmp_path):
    model = build_model(2, seed=9)
    path = tmp_path / "fresh.json"
    save_checkpoint(model, path)
    assert load_checkpoint(path).meta["epochs_phase1"] == 0


def test_checkpoint_truncated_file(tmp_path):
    model = build_model(2, seed=10)
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    blob = path.read_text()
    path.write_text(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    model = build_model(2, seed=11)
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)
