import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertswarm import graphs
from covertswarm.graphs import (
    GraphSequence,
    NormalizationSpec,
    build_snapshot,
    load_sequence_json,
    normalize,
    normalize_snapshot,
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
    np.testing.assert_array_equal(snap.adjacency[0], expected)


def test_zero_threshold_gives_empty_graph():
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    snap = build_snapshot(pos, 0.0)
    np.testing.assert_array_equal(snap.adjacency[0], np.zeros((2, 2), dtype=np.int64))


def test_threshold_is_inclusive():
    pos = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]])
    snap = build_snapshot(pos, 100.0)
    assert snap.adjacency[0, 0, 1] == 1 and snap.adjacency[0, 1, 0] == 1


def test_non_finite_positions_rejected():
    pos = np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])
    with pytest.raises(ValueError):
        build_snapshot(pos, 100.0)


def test_adjacency_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(25):
        L = rng.integers(2, 9)
        pos = rng.uniform(0, 300, size=(L, 3))
        adj = build_snapshot(pos, 120.0).adjacency[0]
        np.testing.assert_array_equal(adj, brute_force_adjacency(pos, 120.0))
        assert np.array_equal(adj, adj.T)
        assert np.all(np.diag(adj) == 0)


def test_adjacency_permutation_covariance():
    rng = np.random.default_rng(1)
    pos = rng.uniform(0, 300, size=(6, 3))
    perm = rng.permutation(6)
    a = build_snapshot(pos, 150.0).adjacency[0]
    b = build_snapshot(pos[perm], 150.0).adjacency[0]
    np.testing.assert_array_equal(b, a[np.ix_(perm, perm)])


def test_neighborhood_complete_and_empty():
    pos = np.zeros((4, 3))
    pos[:, 0] = [0.0, 1.0, 2.0, 3.0]
    full = build_snapshot(pos, 10.0)
    np.testing.assert_array_equal(np.flatnonzero(full.adjacency[0, 0]), [1, 2, 3])
    empty = build_snapshot(pos, 0.0)
    assert not empty.adjacency[0, 0].any()


def test_neighborhood_matches_brute_force_distances():
    rng = np.random.default_rng(4)
    pos = rng.uniform(0, 400, size=(7, 3))
    snap = build_snapshot(pos, 100.0)
    for l in range(7):
        expected = [m for m in range(7)
                    if m != l and math.dist(pos[l], pos[m]) <= 100.0]
        np.testing.assert_array_equal(np.flatnonzero(snap.adjacency[0, l]), expected)


# --- normalization ------------------------------------------------------------

def seq_of(positions, threshold=100.0, dt=0.1):
    return sequence_from_positions(np.asarray(positions, dtype=float), threshold, dt)


def test_normalize_divides_by_scale():
    seq = seq_of([[[250.0, 250.0, 100.0]]])
    out = normalize(seq, NormalizationSpec(scale=500.0))
    np.testing.assert_allclose(out.features[0], [[0.5, 0.5, 0.2]])


def test_normalize_identity_spec():
    seq = seq_of([[[3.0, 4.0, 5.0]]])
    out = normalize(seq, NormalizationSpec(scale=1.0))
    np.testing.assert_allclose(out.features[0], [[3.0, 4.0, 5.0]])


def test_normalize_round_trip():
    rng = np.random.default_rng(2)
    pos = rng.uniform(0, 500, size=(5, 4, 3))
    seq = seq_of(pos)
    spec = NormalizationSpec(scale=500.0, offset=(10.0, -5.0, 2.0))
    out = normalize(seq, spec)
    assert out.normalized
    np.testing.assert_allclose(spec.invert(out.features), pos, rtol=1e-12)


def test_normalize_keeps_adjacency():
    rng = np.random.default_rng(3)
    pos = rng.uniform(0, 500, size=(3, 4, 3))
    seq = seq_of(pos)
    out = normalize(seq, NormalizationSpec(scale=500.0))
    np.testing.assert_array_equal(out.adjacency, seq.adjacency)
    assert out.threshold == seq.threshold


def test_double_normalize_rejected():
    seq = normalize(seq_of([[[1.0, 2.0, 3.0]]]), NormalizationSpec(scale=2.0))
    with pytest.raises(ValueError, match="already normalized"):
        normalize(seq, NormalizationSpec(scale=2.0))


def test_spec_requires_positive_scale():
    with pytest.raises(ValueError):
        NormalizationSpec(scale=0.0)
    with pytest.raises(ValueError, match="scale"):
        NormalizationSpec(scale=np.inf)
    with pytest.raises(ValueError, match="offset"):
        NormalizationSpec(offset=(0.0, np.nan, 0.0))


def valid_fields(T=2, L=3):
    return {"features": np.zeros((T, L, 3)), "adjacency": np.zeros((T, L, L)),
            "times": 0.1 * np.arange(T), "threshold": 100.0, "dt": 0.1,
            "norm": NormalizationSpec(), "normalized": False}


def test_sequence_requires_consistency():
    GraphSequence(**valid_fields())
    with pytest.raises(ValueError, match="adjacency"):  # 3 nodes in X, 2 in A
        GraphSequence(**{**valid_fields(), "adjacency": np.zeros((2, 2, 2))})


@pytest.mark.parametrize("field, value, match", [
    ("adjacency", np.zeros((1, 3, 3)), "adjacency"),        # frame-count mismatch
    ("times", np.zeros(3), "times"),
    ("features", np.zeros((0, 3, 3)), "features"),          # no frames
    ("features", np.zeros((2, 3, 4)), "features"),
    ("features", np.full((2, 3, 3), np.nan), "non-finite"),
    ("times", np.array([0.0, np.inf]), "non-finite"),
    ("adjacency", np.full((2, 3, 3), 0.5), "0 or 1"),
    ("adjacency", np.full((2, 3, 3), 7), "0 or 1"),
    ("threshold", -1.0, "threshold"),
    ("threshold", np.nan, "threshold"),
    # train records it as the checkpoint's meta.d_tilde, which must be finite
    ("threshold", np.inf, "threshold must be finite"),
    ("dt", 0.0, "dt"),
    ("dt", np.nan, "dt"),
    # save_sequence_json wrote "X": [] frames, which do not say d, so no
    # reader could take the file back
    ("features", np.zeros((2, 0, 3)), "L >= 1"),
])
def test_sequence_rejects_malformed_fields(field, value, match):
    with pytest.raises(ValueError, match=match):
        GraphSequence(**{**valid_fields(), field: value})


def test_sequence_stores_int_adjacency():
    seq = GraphSequence(**valid_fields())
    assert seq.adjacency.dtype == np.int64 and seq.features.dtype == float


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("normalized", [False, True])
def test_sequence_equals_per_frame_snapshots(d, normalized):
    rng = np.random.default_rng(d)
    T, threshold, dt = 9, 120.0, 0.1
    pos = rng.uniform(0, 300, size=(T, 5, d))
    spec = NormalizationSpec(scale=300.0, offset=(10.0, -5.0, 2.0))
    seq = sequence_from_positions(pos, threshold, dt, spec)
    snaps = [build_snapshot(pos[k], threshold) for k in range(T)]
    if normalized:
        seq = normalize(seq)
        snaps = [normalize_snapshot(s, spec) for s in snaps]
    assert seq.normalized == normalized and all(s.normalized == normalized for s in snaps)
    assert all(s.n_frames == 1 and s.times.tolist() == [0.0] for s in snaps)
    assert np.array_equal(seq.features, np.concatenate([s.features for s in snaps]))
    assert np.array_equal(seq.adjacency, np.concatenate([s.adjacency for s in snaps]))
    assert np.array_equal(seq.adjacency, [brute_force_adjacency(p, threshold) for p in pos])
    assert seq.times.tolist() == [k * dt for k in range(T)]


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
    np.testing.assert_array_equal(back.features, seq.features)
    np.testing.assert_array_equal(back.adjacency, seq.adjacency)
    np.testing.assert_array_equal(back.times, seq.times)
    assert back.normalized and back.threshold == seq.threshold
    assert back.norm == seq.norm


def test_sequence_json_format_is_pinned(tmp_path):
    pos = np.array([[[0.0, 0.0, 30.0], [50.0, 0.0, 30.0]],
                    [[0.0, 10.0, 30.0], [150.0, 0.0, 30.0]]])
    seq = normalize(sequence_from_positions(pos, 100.0, 0.1),
                    NormalizationSpec(scale=500.0, offset=(0.0, 0.0, 10.0)))
    path = tmp_path / "seq.json"
    save_sequence_json(seq, path)
    assert path.read_text() == (
        '{"dt": 0.1, "D_tilde": 100.0, "scale": 500.0, "offset": [0.0, 0.0, 10.0], '
        '"normalized": true, "frames": ['
        '{"t": 0.0, "X": [[0.0, 0.0, 0.04], [0.1, 0.0, 0.04]], "A": [[0, 1], [1, 0]]}, '
        '{"t": 0.1, "X": [[0.0, 0.02, 0.04], [0.3, 0.0, 0.04]], "A": [[0, 0], [0, 0]]}]}')


def dict_text(seq):
    """The bytes save_sequence_json must write: json.dumps of the sequence's
    header and one {"t", "X", "A"} dict per frame."""
    return json.dumps({
        "dt": seq.dt,
        "D_tilde": seq.threshold,
        "scale": seq.norm.scale,
        "offset": list(seq.norm.offset),
        "normalized": seq.normalized,
        "frames": [{"t": t, "X": x, "A": a} for t, x, a in zip(
            seq.times.tolist(), seq.features.tolist(), seq.adjacency.tolist())],
    })


FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e16, 1e22, 0.1]))


@st.composite
def sequences(draw):
    T, L, d = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.sampled_from([2, 3]))
    values = draw(st.lists(FINITE, min_size=T * L * d + T, max_size=T * L * d + T))
    bits = draw(st.lists(st.integers(0, 1), min_size=T * L * L, max_size=T * L * L))
    norm = NormalizationSpec(scale=draw(st.one_of(st.integers(1, 10 ** 6),
                                                   st.floats(1e-300, 1e300))),
                             offset=tuple(draw(st.lists(FINITE, min_size=3, max_size=3))))
    return GraphSequence(np.reshape(values[T:], (T, L, d)), np.reshape(bits, (T, L, L)),
                         values[:T], draw(st.floats(0.0, 1e300)), draw(FINITE.filter(
                             lambda v: v > 0)), norm, normalized=draw(st.booleans()))


@given(seq=sequences())
@settings(max_examples=300, deadline=None)
def test_sequence_json_bytes_equal_the_dict_encoding(tmp_path_factory, seq):
    path = tmp_path_factory.mktemp("seq") / "seq.json"
    save_sequence_json(seq, path)
    assert path.read_bytes() == dict_text(seq).encode()
    back = load_sequence_json(path)
    for a, b in [(back.features, seq.features), (back.adjacency, seq.adjacency),
                 (back.times, seq.times)]:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert (back.threshold, back.dt, back.norm, back.normalized) == \
        (seq.threshold, seq.dt, seq.norm, seq.normalized)
