"""Proximity graphs over UAV position frames.

A snapshot couples the node feature matrix (positions) with a binary
adjacency built by distance thresholding; sequences of snapshots are the
training and prediction unit for the forecasting model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

DEFAULT_THRESHOLD_M = 100.0


@dataclass(frozen=True)
class NormalizationSpec:
    """Affine coordinate normalization: x' = (x - offset) / scale."""

    scale: float = 500.0
    offset: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"scale must be > 0, got {self.scale}")
        object.__setattr__(self, "offset", tuple(float(v) for v in self.offset))

    def offset_array(self, d: int) -> np.ndarray:
        return np.asarray(self.offset[:d], dtype=float)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """(..., d) coordinates in meters -> normalized units."""
        return (x - self.offset_array(x.shape[-1])) / self.scale

    def invert(self, x: np.ndarray) -> np.ndarray:
        """(..., d) normalized coordinates -> meters."""
        return x * self.scale + self.offset_array(x.shape[-1])


@dataclass
class GraphSnapshot:
    """One graph sample: features (L,d), symmetric 0/1 adjacency (L,L)."""

    features: np.ndarray
    adjacency: np.ndarray
    threshold: float
    timestamp: float = 0.0
    normalized: bool = False

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]


def adjacency_from_positions(positions: np.ndarray, threshold: float) -> np.ndarray:
    """0/1 adjacency with A_ij = 1 iff ||u_i - u_j|| <= threshold, zero
    diagonal; (..., L, d) positions give (..., L, L) adjacencies."""
    positions = np.asarray(positions, dtype=float)
    diff = positions[..., :, None, :] - positions[..., None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    adj = (dist <= threshold).astype(np.int64)
    diag = np.arange(positions.shape[-2])
    adj[..., diag, diag] = 0
    return adj


def build_snapshot(positions: np.ndarray, threshold: float, t: float = 0.0) -> GraphSnapshot:
    """Build an unnormalized snapshot from raw positions in meters."""
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] not in (2, 3):
        raise ValueError(f"positions must be (L, 2|3), got {positions.shape}")
    if not np.all(np.isfinite(positions)):
        raise ValueError("positions contain non-finite coordinates")
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    adj = adjacency_from_positions(positions, threshold)
    return GraphSnapshot(positions.copy(), adj, float(threshold), float(t), normalized=False)


@dataclass
class GraphSequence:
    """Time-ordered snapshots sharing node count, threshold and normalization."""

    snapshots: list
    dt: float
    norm: NormalizationSpec

    def __post_init__(self):
        if not self.snapshots:
            raise ValueError("empty graph sequence")
        first = self.snapshots[0]
        for s in self.snapshots:
            if s.n_nodes != first.n_nodes or s.threshold != first.threshold \
                    or s.normalized != first.normalized:
                raise ValueError("snapshots disagree on L, threshold or normalization")

    @property
    def n_frames(self) -> int:
        return len(self.snapshots)

    @property
    def n_nodes(self) -> int:
        return self.snapshots[0].n_nodes

    @property
    def threshold(self) -> float:
        return self.snapshots[0].threshold

    @property
    def normalized(self) -> bool:
        return self.snapshots[0].normalized

    def features_array(self) -> np.ndarray:
        return np.stack([s.features for s in self.snapshots])

    def adjacency_array(self) -> np.ndarray:
        return np.stack([s.adjacency for s in self.snapshots])


def sequence_from_positions(
    positions: np.ndarray,
    threshold: float,
    dt: float,
    norm: NormalizationSpec = NormalizationSpec(),
    t0: float = 0.0,
) -> GraphSequence:
    """Convert a (T, L, d) position array in meters into an unnormalized sequence."""
    snaps = [build_snapshot(positions[k], threshold, t0 + k * dt)
             for k in range(positions.shape[0])]
    return GraphSequence(snaps, dt, norm)


def normalize(seq: GraphSequence, spec: NormalizationSpec | None = None) -> GraphSequence:
    """Scale features into normalized units; adjacency is untouched."""
    if seq.normalized:
        raise ValueError("sequence is already normalized")
    spec = seq.norm if spec is None else spec
    snaps = [replace(s, features=spec.apply(s.features), normalized=True)
             for s in seq.snapshots]
    return GraphSequence(snaps, seq.dt, spec)


def denormalize(seq: GraphSequence) -> GraphSequence:
    """Inverse of normalize, using the sequence's own spec."""
    if not seq.normalized:
        raise ValueError("sequence is not normalized")
    snaps = [replace(s, features=seq.norm.invert(s.features), normalized=False)
             for s in seq.snapshots]
    return GraphSequence(snaps, seq.dt, seq.norm)


def normalize_snapshot(snap: GraphSnapshot, spec: NormalizationSpec) -> GraphSnapshot:
    if snap.normalized:
        raise ValueError("snapshot is already normalized")
    return replace(snap, features=spec.apply(snap.features), normalized=True)


# --- serialization -----------------------------------------------------------

def sequence_to_dict(seq: GraphSequence) -> dict:
    return {
        "dt": seq.dt,
        "D_tilde": seq.threshold,
        "scale": seq.norm.scale,
        "offset": list(seq.norm.offset),
        "normalized": seq.normalized,
        "frames": [
            {"t": s.timestamp, "X": s.features.tolist(), "A": s.adjacency.tolist()}
            for s in seq.snapshots
        ],
    }


def sequence_from_dict(data: dict) -> GraphSequence:
    norm = NormalizationSpec(scale=data["scale"], offset=tuple(data["offset"]))
    normalized = bool(data["normalized"])
    threshold = float(data["D_tilde"])
    snaps = [
        GraphSnapshot(
            features=np.asarray(f["X"], dtype=float),
            adjacency=np.asarray(f["A"], dtype=np.int64),
            threshold=threshold,
            timestamp=float(f["t"]),
            normalized=normalized,
        )
        for f in data["frames"]
    ]
    return GraphSequence(snaps, float(data["dt"]), norm)


def save_sequence_json(seq: GraphSequence, path) -> None:
    with open(path, "w") as fh:
        json.dump(sequence_to_dict(seq), fh)


def load_sequence_json(path) -> GraphSequence:
    with open(path) as fh:
        return sequence_from_dict(json.load(fh))
