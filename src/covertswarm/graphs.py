"""Proximity graphs over UAV position frames.

A sequence holds T frames as arrays: node features (positions) and binary
adjacencies built by distance thresholding.  Sequences train the
forecasting model; a one-frame sequence is its prediction input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

DEFAULT_THRESHOLD_M = 100.0


@dataclass(frozen=True)
class NormalizationSpec:
    """Affine coordinate normalization: x' = (x - offset) / scale."""

    scale: float = 500.0
    offset: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not 0 < self.scale < np.inf:
            raise ValueError(f"scale must be finite and > 0, got {self.scale}")
        object.__setattr__(self, "offset", tuple(float(v) for v in self.offset))
        if not np.all(np.isfinite(self.offset)):
            raise ValueError(f"offset must be finite, got {self.offset}")

    def offset_array(self, d: int) -> np.ndarray:
        return np.asarray(self.offset[:d], dtype=float)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """(..., d) coordinates in meters -> normalized units."""
        return (x - self.offset_array(x.shape[-1])) / self.scale

    def invert(self, x: np.ndarray) -> np.ndarray:
        """(..., d) normalized coordinates -> meters."""
        return x * self.scale + self.offset_array(x.shape[-1])


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


@dataclass
class GraphSequence:
    """T frames of L nodes: features (T, L, d), 0/1 adjacency (T, L, L) and
    times (T,), sharing one threshold, dt and normalization."""

    features: np.ndarray
    adjacency: np.ndarray
    times: np.ndarray
    threshold: float
    dt: float
    norm: NormalizationSpec
    normalized: bool

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        adjacency = np.asarray(self.adjacency)
        self.times = np.asarray(self.times, dtype=float)
        self.threshold = float(self.threshold)
        shape = self.features.shape
        if len(shape) != 3 or shape[0] < 1 or shape[2] not in (2, 3):
            raise ValueError(f"features X must be (T >= 1, L, 2|3), got {shape}")
        T, L, _ = shape
        if adjacency.shape != (T, L, L):
            raise ValueError(f"adjacency A must be {(T, L, L)}, got {adjacency.shape}")
        if self.times.shape != (T,):
            raise ValueError(f"times t must be ({T},), got {self.times.shape}")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features X contain non-finite values")
        if not np.all(np.isfinite(self.times)):
            raise ValueError("times t contain non-finite values")
        if not np.all((adjacency == 0) | (adjacency == 1)):
            raise ValueError("adjacency A entries must be 0 or 1")
        self.adjacency = adjacency.astype(np.int64, copy=False)
        if not self.threshold >= 0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold}")
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")

    @property
    def n_frames(self) -> int:
        return self.features.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.features.shape[1]

    # The benchmark harness still indexes frames and writes through these
    # views; the two methods below are what it reads the arrays with.
    @property
    def snapshots(self) -> list:
        return [GraphSnapshot(x, a) for x, a in zip(self.features, self.adjacency)]

    def features_array(self) -> np.ndarray:
        return self.features

    def adjacency_array(self) -> np.ndarray:
        return self.adjacency


@dataclass
class GraphSnapshot:
    """One frame of a GraphSequence as views of its (L, d) features and (L, L)
    adjacency.  Only GraphSequence.snapshots makes one, until the benchmark
    harness reads the arrays themselves (ROADMAP direction 3)."""

    features: np.ndarray
    adjacency: np.ndarray


def sequence_from_positions(
    positions: np.ndarray,
    threshold: float,
    dt: float,
    norm: NormalizationSpec = NormalizationSpec(),
) -> GraphSequence:
    """Convert a (T, L, d) position array in meters into an unnormalized
    sequence whose frame k is at time k * dt."""
    features = np.array(positions, dtype=float)
    times = np.arange(features.shape[0]) * dt
    return GraphSequence(features, adjacency_from_positions(features, threshold),
                         times, threshold, dt, norm, normalized=False)


def build_snapshot(positions: np.ndarray, threshold: float) -> GraphSequence:
    """One (L, d) frame of raw positions in meters as an unnormalized
    one-frame sequence at time 0 (its dt of 1 is not used)."""
    return sequence_from_positions(np.asarray(positions, dtype=float)[None], threshold, 1.0)


def normalize(seq: GraphSequence, spec: NormalizationSpec | None = None) -> GraphSequence:
    """Scale features into normalized units; adjacency is untouched."""
    if seq.normalized:
        raise ValueError("sequence is already normalized")
    spec = seq.norm if spec is None else spec
    return GraphSequence(spec.apply(seq.features), seq.adjacency, seq.times,
                         seq.threshold, seq.dt, spec, normalized=True)


# the name the prediction path calls it by, on a build_snapshot result
normalize_snapshot = normalize


# --- serialization -----------------------------------------------------------

def sequence_to_dict(seq: GraphSequence) -> dict:
    return {
        "dt": seq.dt,
        "D_tilde": seq.threshold,
        "scale": seq.norm.scale,
        "offset": list(seq.norm.offset),
        "normalized": seq.normalized,
        "frames": [{"t": t, "X": x, "A": a} for t, x, a in zip(
            seq.times.tolist(), seq.features.tolist(), seq.adjacency.tolist())],
    }


def sequence_from_dict(data: dict) -> GraphSequence:
    if not isinstance(data, dict):
        raise ValueError("top level is not a JSON object")
    frames = data["frames"]

    def field(name):
        try:
            return np.asarray([f[name] for f in frames], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"frames field {name} is missing, not numeric or ragged") from exc

    return GraphSequence(
        features=field("X"),
        adjacency=field("A"),
        times=field("t"),
        threshold=float(data["D_tilde"]),
        dt=float(data["dt"]),
        norm=NormalizationSpec(scale=data["scale"], offset=tuple(data["offset"])),
        normalized=bool(data["normalized"]),
    )


def save_sequence_json(seq: GraphSequence, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(sequence_to_dict(seq)))


def load_sequence_json(path) -> GraphSequence:
    """Read a sequence file; malformed content raises ValueError naming the file."""
    try:
        with open(path) as fh:
            return sequence_from_dict(json.load(fh))
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
