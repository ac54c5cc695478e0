import json
import math

import numpy as np
import pytest

from covertswarm import graphs
from covertswarm.graphs import (
    GraphSequence,
    NormalizationSpec,
    build_snapshot,
    denormalize,
    load_sequence_json,
    normalize,
    save_sequence_json,
    sequence_from_positions,
)


def brute_force_adjacency(positions, threshold):
    L = len(positions)
    adj = np.zeros((L, L), dtype=np.int64)
    for i in range(L):
        for j in range(L):
            if i != j and math.dist(positions[i], positions[j]) <= threshold:
                adj[i, j] = 1
    return adj


def test_triangle_fully_connected():
    # equilateral triangle, side 50 m, threshold 100 m
    pos = np.array([[0.0, 0.0, 0.0],
                    [50.0, 0.0, 0.0],
                    [25.0, 25.0 * math.sqrt(3), 0.0]])
    snap = build_snapshot(pos, 100.0)
    expected = np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64)
    np.testing.assert_array_equal(snap.adjacency, expected)


def test_zero_threshold_gives_empty_graph():
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    snap = build_snapshot(pos, 0.0)
    np.testing.assert_array_equal(snap.adjacency, np.zeros((2, 2), dtype=np.int64))


def test_threshold_is_inclusive():
    pos = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]])
    snap = build_snapshot(pos, 100.0)
    assert snap.adjacency[0, 1] == 1 and snap.adjacency[1, 0] == 1


def test_non_finite_positions_rejected():
    pos = np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])
    with pytest.raises(ValueError):
        build_snapshot(pos, 100.0)


def test_adjacency_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(25):
        L = rng.integers(2, 9)
        pos = rng.uniform(0, 300, size=(L, 3))
        snap = build_snapshot(pos, 120.0)
        np.testing.assert_array_equal(snap.adjacency, brute_force_adjacency(pos, 120.0))
        assert np.array_equal(snap.adjacency, snap.adjacency.T)
        assert np.all(np.diag(snap.adjacency) == 0)


def test_adjacency_permutation_covariance():
    rng = np.random.default_rng(1)
    pos = rng.uniform(0, 300, size=(6, 3))
    perm = rng.permutation(6)
    a = build_snapshot(pos, 150.0).adjacency
    b = build_snapshot(pos[perm], 150.0).adjacency
    np.testing.assert_array_equal(b, a[np.ix_(perm, perm)])


def test_neighborhood_complete_and_empty():
    pos = np.zeros((4, 3))
    pos[:, 0] = [0.0, 1.0, 2.0, 3.0]
    full = build_snapshot(pos, 10.0)
    np.testing.assert_array_equal(np.flatnonzero(full.adjacency[0]), [1, 2, 3])
    empty = build_snapshot(pos, 0.0)
    assert not empty.adjacency[0].any()


def test_neighborhood_matches_brute_force_distances():
    rng = np.random.default_rng(4)
    pos = rng.uniform(0, 400, size=(7, 3))
    snap = build_snapshot(pos, 100.0)
    for l in range(7):
        expected = [m for m in range(7)
                    if m != l and math.dist(pos[l], pos[m]) <= 100.0]
        np.testing.assert_array_equal(np.flatnonzero(snap.adjacency[l]), expected)


# --- normalization ------------------------------------------------------------

def seq_of(positions, threshold=100.0, dt=0.1):
    return sequence_from_positions(np.asarray(positions, dtype=float), threshold, dt)


def test_normalize_divides_by_scale():
    seq = seq_of([[[250.0, 250.0, 100.0]]])
    out = normalize(seq, NormalizationSpec(scale=500.0))
    np.testing.assert_allclose(out.snapshots[0].features, [[0.5, 0.5, 0.2]])


def test_normalize_identity_spec():
    seq = seq_of([[[3.0, 4.0, 5.0]]])
    out = normalize(seq, NormalizationSpec(scale=1.0))
    np.testing.assert_allclose(out.snapshots[0].features, [[3.0, 4.0, 5.0]])


def test_normalize_round_trip():
    rng = np.random.default_rng(2)
    pos = rng.uniform(0, 500, size=(5, 4, 3))
    seq = seq_of(pos)
    spec = NormalizationSpec(scale=500.0, offset=(10.0, -5.0, 2.0))
    back = denormalize(normalize(seq, spec))
    np.testing.assert_allclose(back.features_array(), pos, rtol=1e-12)
    assert not back.normalized


def test_normalize_keeps_adjacency():
    rng = np.random.default_rng(3)
    pos = rng.uniform(0, 500, size=(3, 4, 3))
    seq = seq_of(pos)
    out = normalize(seq, NormalizationSpec(scale=500.0))
    np.testing.assert_array_equal(out.adjacency_array(), seq.adjacency_array())
    assert out.threshold == seq.threshold


def test_double_normalize_rejected():
    seq = normalize(seq_of([[[1.0, 2.0, 3.0]]]), NormalizationSpec(scale=2.0))
    with pytest.raises(ValueError, match="already normalized"):
        normalize(seq, NormalizationSpec(scale=2.0))
    with pytest.raises(ValueError):
        denormalize(denormalize(seq))


def test_spec_requires_positive_scale():
    with pytest.raises(ValueError):
        NormalizationSpec(scale=0.0)


def test_sequence_requires_consistency():
    a = build_snapshot(np.zeros((2, 3)), 100.0)
    b = build_snapshot(np.zeros((3, 3)), 100.0)
    with pytest.raises(ValueError):
        GraphSequence([a, b], 0.1, NormalizationSpec())


# --- serialization --------------------------------------------------------------

def test_sequence_json_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    pos = rng.uniform(0, 500, size=(4, 3, 3))
    seq = normalize(seq_of(pos), NormalizationSpec(scale=500.0))
    path = tmp_path / "seq.json"
    save_sequence_json(seq, path)
    doc = json.loads(path.read_text())
    assert set(doc) >= {"dt", "D_tilde", "scale", "frames"}
    assert set(doc["frames"][0]) == {"t", "X", "A"}
    back = load_sequence_json(path)
    np.testing.assert_array_equal(back.features_array(), seq.features_array())
    np.testing.assert_array_equal(back.adjacency_array(), seq.adjacency_array())
    assert back.normalized and back.threshold == seq.threshold
    assert back.norm == seq.norm
