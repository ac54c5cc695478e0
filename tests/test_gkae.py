import json
import math

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
    graph_decode,
    graph_encode,
    koopman_decode,
    koopman_encode,
    load_checkpoint,
    loss_grec,
    loss_pred,
    loss_rec,
    rollout_batch,
    rollout_predict,
    save_checkpoint,
    save_loss_csv,
    train,
)
from covertswarm.graphs import NormalizationSpec, build_snapshot, normalize_snapshot
from covertswarm.nn import DenseLayer, SageLayer, grad_check


def random_sequence(rng, L=2, T=6, d=3, threshold=100.0):
    pos = rng.uniform(0, 500, size=(T, L, d))
    seq = graphs.sequence_from_positions(pos, threshold, 0.1)
    return graphs.normalize(seq, NormalizationSpec(scale=500.0))


def frame(seq, k):
    """Frame k of a sequence as a snapshot."""
    return graphs.GraphSnapshot(seq.features[k], seq.adjacency[k], seq.threshold,
                                seq.times[k], seq.normalized)


def random_snapshot(rng, L=2, d=3):
    snap = build_snapshot(rng.uniform(0, 500, size=(L, d)), 100.0)
    return normalize_snapshot(snap, NormalizationSpec(scale=500.0))


def zero_params(model):
    for p in gkae.all_parameters(model):
        p[...] = 0.0


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
    np.testing.assert_array_equal(graph_encode(model, snap), np.zeros(12))


def test_graph_encode_matches_hand_composition():
    rng = np.random.default_rng(1)
    model = build_model(3, seed=4)
    snap = random_snapshot(rng, L=3)
    X = snap.features
    A = snap.adjacency.astype(float)

    def elu(v):
        return np.where(v >= 0, v, np.expm1(v))

    H = X
    for layer in model.graph_encoder:
        deg = np.maximum(A.sum(axis=1, keepdims=True), 1.0)
        agg = (A @ H) / deg
        H = elu(H @ layer.W_self.T + agg @ layer.W_neigh.T + layer.b)
    np.testing.assert_allclose(graph_encode(model, snap), H.reshape(-1), rtol=1e-12)


def test_graph_encode_permutation_block_equivariance():
    rng = np.random.default_rng(2)
    model = build_model(4, seed=1)
    pos = rng.uniform(0, 500, size=(4, 3))
    perm = np.array([2, 0, 3, 1])
    spec = NormalizationSpec(scale=500.0)
    h = graph_encode(model, normalize_snapshot(build_snapshot(pos, 100.0), spec))
    h_p = graph_encode(model, normalize_snapshot(build_snapshot(pos[perm], 100.0), spec))
    np.testing.assert_allclose(h_p.reshape(4, 4), h.reshape(4, 4)[perm], atol=1e-12)


def test_graph_encode_validates():
    model = build_model(3)
    snap = random_snapshot(np.random.default_rng(3), L=4)
    with pytest.raises(ValueError):
        graph_encode(model, snap)
    raw = build_snapshot(np.zeros((3, 3)), 100.0)
    with pytest.raises(ValueError, match="normalized"):
        graph_encode(model, raw)


def test_koopman_encode_matches_hand_composition():
    rng = np.random.default_rng(4)
    model = build_model(2, seed=9)
    h = rng.normal(size=8)
    expected = h
    for layer in model.koopman_encoder:
        expected = np.tanh(layer.W @ expected + layer.b)
    np.testing.assert_allclose(koopman_encode(model, h), expected, rtol=1e-12)


def test_koopman_decode_matches_hand_composition():
    rng = np.random.default_rng(5)
    model = build_model(2, seed=9)
    z = rng.normal(size=8)
    expected = np.tanh(model.koopman_decoder[0].W @ z + model.koopman_decoder[0].b)
    expected = np.tanh(model.koopman_decoder[1].W @ expected + model.koopman_decoder[1].b)
    expected = model.koopman_decoder[2].W @ expected + model.koopman_decoder[2].b
    np.testing.assert_allclose(koopman_decode(model, z), expected, rtol=1e-12)


def test_koopman_decode_output_length():
    model = build_model(4)
    z = np.zeros(8)
    assert koopman_decode(model, z).shape == (16,)


def test_graph_decode_block_permutation():
    rng = np.random.default_rng(6)
    model = build_model(4, seed=2)
    h = rng.normal(size=16)
    perm = np.array([1, 3, 0, 2])
    out = graph_decode(model, h)
    out_p = graph_decode(model, h.reshape(4, 4)[perm].reshape(-1))
    np.testing.assert_allclose(out_p, out[perm], atol=1e-12)


def test_graph_decode_zero():
    model = build_model(2)
    zero_params(model)
    np.testing.assert_array_equal(graph_decode(model, np.zeros(8)), np.zeros((2, 3)))


# --- rollout ----------------------------------------------------------------------------

def test_rollout_horizon_one_equals_manual_chain():
    rng = np.random.default_rng(9)
    model = build_model(2, seed=5, norm=NormalizationSpec(scale=500.0))
    snap = random_snapshot(rng, L=2)
    z = koopman_encode(model, graph_encode(model, snap))
    manual = graph_decode(model, koopman_decode(model, model.K @ z)) * 500.0
    out = rollout_predict(model, snap, 1)
    assert out.shape == (1, 2, 3)
    np.testing.assert_allclose(out[0], manual, rtol=1e-12)


def test_rollout_frame_count():
    model = build_model(2, seed=5)
    snap = random_snapshot(np.random.default_rng(10), L=2)
    assert rollout_predict(model, snap, 7).shape == (7, 2, 3)


def test_rollout_latent_linearity_consistency():
    # prediction at step 2s equals re-advancing the latent of step s by s
    rng = np.random.default_rng(11)
    model = build_model(2, seed=6, norm=NormalizationSpec(scale=500.0))
    snap = random_snapshot(rng, L=2)
    s = 3
    out = rollout_predict(model, snap, 2 * s)
    z0 = koopman_encode(model, graph_encode(model, snap))
    K_s = np.linalg.matrix_power(model.K, s)
    z_2s = K_s @ (K_s @ z0)
    manual = graph_decode(model, koopman_decode(model, z_2s)) * 500.0
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
    return (np.stack([s.features for s in snaps]), np.stack([s.adjacency for s in snaps]),
            snaps)


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


@pytest.mark.parametrize("steps", [[], [0, 1], [3, 3], [5, 2], [[1, 2]]])
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
    assert loss_grec(model, seq) == 0.0


def test_identity_kae_zero_losses_on_constant_sequence():
    model = identity_model()
    pos = np.tile(np.array([[100.0, 200.0, 80.0], [300.0, 350.0, 120.0]]), (5, 1, 1))
    seq = graphs.normalize(graphs.sequence_from_positions(pos, 100.0, 0.1),
                           NormalizationSpec(scale=500.0))
    assert loss_rec(model, seq) == pytest.approx(0.0, abs=1e-28)
    assert loss_pred(model, seq, tau=2) == pytest.approx(0.0, abs=1e-28)


# --- losses ------------------------------------------------------------------------------

def test_loss_grec_single_frame_hand_computation():
    rng = np.random.default_rng(15)
    model = build_model(2, seed=8)
    seq = random_sequence(rng, L=2, T=1)
    X = seq.features[0]
    h = graph_encode(model, frame(seq, 0))
    Xhat = graph_decode(model, h)
    expected = np.mean((Xhat - X) ** 2)
    assert loss_grec(model, seq) == pytest.approx(expected, rel=1e-12)


def test_losses_nonnegative():
    rng = np.random.default_rng(16)
    model = build_model(2, seed=10)
    seq = random_sequence(rng, L=2, T=5)
    assert loss_grec(model, seq) >= 0.0
    assert loss_rec(model, seq) >= 0.0
    assert loss_pred(model, seq, tau=2) >= 0.0


def test_loss_pred_single_pair_hand_computation():
    rng = np.random.default_rng(17)
    model = build_model(2, seed=11)
    seq = random_sequence(rng, L=2, T=2)
    h0 = graph_encode(model, frame(seq, 0))
    h1 = graph_encode(model, frame(seq, 1))
    pred = koopman_decode(model, model.K @ koopman_encode(model, h0))
    expected = np.mean((pred - h1) ** 2)
    assert loss_pred(model, seq, tau=1) == pytest.approx(expected, rel=1e-12)


def test_loss_pred_requires_enough_frames():
    rng = np.random.default_rng(18)
    model = build_model(2, seed=12)
    seq = random_sequence(rng, L=2, T=3)
    with pytest.raises(ValueError, match="shorter"):
        loss_pred(model, seq, tau=3)


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
