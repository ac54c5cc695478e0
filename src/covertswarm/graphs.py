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


def save_table(path, header: list, rows) -> None:
    """A CSV of a header and rows: floats to 17 significant digits, which
    read back to the same float, anything else (integers, labels) as str."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def read_numbers(value, what: str, shape: tuple | None = None,
                 scan: bool = True) -> np.ndarray:
    """value, a number or a rectangular nested list of numbers as json.load
    gives it, as float64 of the given shape, if any; what names it in errors.
    Each entry is an int or a float (numpy's too), never a bool, a string or
    null, and finite.  np.asarray's dtype refuses strings, null and ints past
    64 bits but reads a bool among numbers as 0 or 1, so a list is scanned
    for bools unless scan is False: the caller knows it holds none."""
    try:
        array = np.asarray(value)
    except ValueError:  # numpy's words for a ragged list
        raise ValueError(f"{what} must be a rectangular list of numbers") from None
    ok = array.dtype.kind in "iuf"
    if ok and scan and array.ndim and not isinstance(value, np.ndarray):
        ok = {bool, np.bool_}.isdisjoint(map(type, np.asarray(value, dtype=object).flat))
    if not ok:
        raise ValueError(f"{what} must hold numbers" if array.ndim else
                         f"{what} must be a number, got {json.dumps(value, default=repr)}")
    array = array.astype(float, copy=False)
    if shape is not None and array.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {array.shape}")
    if not np.isfinite(array).all():
        raise ValueError(f"{what} holds non-finite values" if array.ndim else
                         f"{what} must be finite, got {json.dumps(value, default=repr)}")
    return array


@dataclass(frozen=True)
class NormalizationSpec:
    """Affine coordinate normalization: x' = (x - offset) / scale."""

    scale: float = 500.0
    offset: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not read_numbers(self.scale, "scale", ()) > 0:
            raise ValueError(f"scale must be > 0, got {self.scale}")
        object.__setattr__(self, "offset",
                           tuple(read_numbers(self.offset, "offset", (3,)).tolist()))

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
        self.features = read_numbers(self.features, "features X")
        shape = self.features.shape
        if len(shape) != 3 or min(shape[:2]) < 1 or shape[2] not in (2, 3):
            raise ValueError(f"features X must be (T >= 1, L >= 1, 2|3), got {shape}")
        T, L, _ = shape
        adjacency = read_numbers(self.adjacency, "adjacency A", (T, L, L))
        if not np.all((adjacency == 0) | (adjacency == 1)):
            raise ValueError("adjacency A entries must be 0 or 1")
        self.adjacency = adjacency.astype(np.int64)
        self.times = read_numbers(self.times, "times t", (T,))
        self.threshold = float(read_numbers(self.threshold, "threshold", ()))
        if not self.threshold >= 0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold}")
        self.dt = float(read_numbers(self.dt, "dt", ()))
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")

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

def sequence_from_dict(data: dict, scan: bool = True) -> GraphSequence:
    if not isinstance(data, dict):
        raise ValueError("top level is not a JSON object")
    frames = data["frames"]
    if type(data["normalized"]) is not bool:  # bool() reads the string "false" as true
        raise ValueError(f"'normalized' must be true or false, "
                         f"got {json.dumps(data['normalized'])}")
    return GraphSequence(
        features=read_numbers([f["X"] for f in frames], "frames field X", scan=scan),
        adjacency=read_numbers([f["A"] for f in frames], "frames field A", scan=scan),
        times=read_numbers([f["t"] for f in frames], "frames field t", scan=scan),
        threshold=data["D_tilde"],
        dt=data["dt"],
        norm=NormalizationSpec(scale=data["scale"], offset=data["offset"]),
        normalized=data["normalized"],
    )


def save_sequence_json(seq: GraphSequence, path) -> None:
    """Write seq as the text json.dumps gives for its header fields and a
    list of {"t", "X", "A"} frames, built from whole arrays: json writes a
    finite float as float.__repr__ does, and seq holds finite features and
    times and 0/1 adjacency."""
    T, L, d = seq.features.shape
    head = json.dumps({"dt": seq.dt, "D_tilde": seq.threshold, "scale": seq.norm.scale,
                       "offset": list(seq.norm.offset), "normalized": seq.normalized})
    row = "[" + ", ".join(["%s"] * d) + "]"
    frame = '{"t": %s, "X": [' + ", ".join([row] * L) + '], "A": %s}'
    # each frame's A is the text of the zero matrix with its digits filled in
    blank = np.frombuffer(json.dumps([[0] * L] * L).encode(), np.uint8)
    a_text = np.tile(blank, (T, 1))
    a_text[:, blank == ord("0")] = seq.adjacency.reshape(T, L * L) + ord("0")
    cells = np.empty((T, L * d + 2), dtype=object)
    cells[:, 0] = list(map(float.__repr__, seq.times.tolist()))
    cells[:, 1:-1] = np.array(list(map(float.__repr__, seq.features.ravel().tolist())),
                              dtype=object).reshape(T, L * d)
    cells[:, -1] = a_text.view(f"S{blank.size}")[:, 0].astype(str)
    frames = ", ".join([frame] * T) % tuple(cells.ravel().tolist())
    with open(path, "w") as fh:
        fh.write(head[:-1] + ', "frames": [' + frames + "]}")


def _bool_literals(text: str) -> int:
    """How many times the words true and false stand in JSON text, found at
    memchr's speed through their letters u and f, which no number holds."""
    count = 0
    for word, i in (("true", 2), ("false", 0)):
        at = text.find(word[i])
        while at >= 0:
            count += text.startswith(word, at - i)
            at = text.find(word[i], at + 1)
    return count


def load_sequence_json(path) -> GraphSequence:
    """Read a sequence file; malformed content raises ValueError naming the
    file.  It holds no strings, so only a true or false besides normalized's
    can put a bool in its frames: only then are they scanned for one."""
    try:
        with open(path) as fh:
            text = fh.read()
        return sequence_from_dict(json.loads(text), scan=_bool_literals(text) > 1)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
