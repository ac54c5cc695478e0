"""Couzin-style multi-UAV surveillance swarm simulator.

Each UAV reacts to neighbours in three concentric distance bands
(repulsion, alignment, attraction), with its speed capped and its
horizontal heading change limited per step.  Integration is explicit
Euler; one trajectory is fully determined by its config and seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields

import numpy as np

from .graphs import save_table


@dataclass(frozen=True)
class SwarmConfig:
    """Physical and numerical parameters of one swarm run.

    Defaults reproduce the reference surveillance scenario: four UAVs at
    20 m/s in a 500x500 m area with a 300 m repulsion zone, an empty
    alignment zone and a 500 m attraction zone.
    """

    L: int = 4
    V_max: float = 20.0
    theta_max: float = math.pi / 100.0
    dt: float = 0.1
    r_rep: float = 300.0
    r_ali: float = 0.0
    r_att: float = 500.0
    Z_min: float = 50.0
    Z_max: float = 150.0
    X_size: float = 500.0
    duration: float = 60.0
    seed: int = 0
    preserve_vertical: bool = False

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if not self.V_max > 0:
            raise ValueError(f"V_max must be > 0, got {self.V_max}")
        if not 0 < self.theta_max <= math.pi:
            raise ValueError(f"theta_max must be in (0, pi], got {self.theta_max}")
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not 0 < self.r_rep <= self.r_att:
            raise ValueError(f"need 0 < r_rep <= r_att, got {self.r_rep}, {self.r_att}")
        if not self.r_ali >= 0:
            raise ValueError(f"r_ali must be >= 0, got {self.r_ali}")
        if not self.Z_min < self.Z_max:
            raise ValueError(f"need Z_min < Z_max, got {self.Z_min}, {self.Z_max}")
        if not self.X_size > 0:
            raise ValueError(f"X_size must be > 0, got {self.X_size}")
        if not self.duration > 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if not math.isfinite(self.duration / self.dt):
            raise ValueError(f"duration {self.duration:g} s / dt {self.dt:g} s is more "
                             "steps than a float holds")
        # numpy refuses an array of more bytes than its index type counts
        most = np.iinfo(np.intp).max // (8 * 3 * self.L)
        if self.n_steps + 1 > most:
            raise ValueError(f"duration / dt = {self.duration:g} s / {self.dt:g} s asks for "
                             f"{self.n_steps + 1:.4g} frames, more than the {most:.4g} that "
                             f"one numpy array of {self.L} UAVs' positions holds")

    @property
    def n_steps(self) -> int:
        """Steps in one run: floor(duration / dt)."""
        return int(math.floor(self.duration / self.dt + 1e-9))


@dataclass
class Frame:
    """State of L UAVs at one instant: positions and velocities (..., L, 3).

    Leading axes hold independent swarms; step advances them all at once.
    The frames step returns hold transposed views of coordinate-first
    (3, L, ...) arrays.
    """

    positions: np.ndarray
    velocities: np.ndarray


@dataclass
class Trajectory:
    """Time-indexed swarm states: positions/velocities are (T, L, 3) arrays."""

    positions: np.ndarray
    velocities: np.ndarray
    dt: float

    @property
    def n_frames(self) -> int:
        return self.positions.shape[0]


def init_swarm(config: SwarmConfig, rng) -> Frame:
    """Draw the initial frame: xy uniform in the operation area, altitude
    uniform in [Z_min, Z_max], velocities isotropic with norm V_max.

    rng is one np.random.Generator, or a sequence of R of them for R swarms:
    the frame is then (R, L, 3), and swarm r holds what a single call with
    rng[r] gives, bit for bit (each norm sums the same three squares in the
    same order).
    """
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else list(rng)
    L = config.L
    positions = np.empty((len(rngs), L, 3))
    raw = np.empty((len(rngs), L, 3))
    for r, g in enumerate(rngs):
        positions[r, :, :2] = g.uniform(0.0, config.X_size, size=(L, 2))
        positions[r, :, 2:] = g.uniform(config.Z_min, config.Z_max, size=(L, 1))
        raw[r] = g.normal(size=(L, 3))
    norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    velocities = config.V_max * raw / norms
    return Frame(positions[0], velocities[0]) if single else Frame(positions, velocities)


def _neighbour_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of terms[:, j] over the neighbours j, (C, L, L, ...) -> (C, L, ...).

    The neighbours are added one at a time from +0.0, in the order of a
    matrix product or of a sum over a non-innermost axis.  terms.sum(axis=1)
    sums pairwise whenever the j axis ends up innermost (one swarm, or
    L >= 8), and that rounds differently.  With the neighbour axis first,
    each add runs over one contiguous (L, ...) block.
    """
    acc = terms[:, 0] + 0.0
    for j in range(1, terms.shape[1]):
        acc += terms[:, j]
    return acc


def _zone_forces(positions: np.ndarray, velocities: np.ndarray, config: SwarmConfig):
    """Per-UAV repulsion / alignment / attraction sums, each (3, L, ...).

    positions and velocities are coordinate-first, (3, L, ...), so that
    every pass runs over the trailing swarm axes.  The bands are the
    half-open distance ranges [0, r_rep), [r_rep, r_ali) and
    [max(r_rep, r_ali), r_att): repulsion takes priority, so they never
    overlap even when r_ali < r_rep.  An empty alignment band gives the
    float +0.0 for its sum: x + 0.0 has the bits of x + zeros.
    """
    disp = positions[:, None] - positions[:, :, None]  # [:, j, i] = u_i - u_j
    sq = disp * disp
    # np.linalg.norm's order over a length-3 axis; sq[0] + (sq[1] + sq[2]) differs
    dist = np.sqrt((sq[0] + sq[1]) + sq[2])
    # The diagonal needs no mask: at distance 0 it lies in repulsion, where
    # its u_i - u_i = +0.0 adds nothing.  Repulsion and attraction both sum
    # displacements, so one pass over (2 * 3, L, L, ...) terms sums both.
    bands = np.empty((2,) + dist.shape, bool)
    np.less(dist, config.r_rep, out=bands[0])
    np.logical_and(dist >= max(config.r_rep, config.r_ali), dist < config.r_att,
                   out=bands[1])
    terms = disp * bands[:, None]
    acc = _neighbour_sum(terms.reshape((6,) + dist.shape)).reshape((2,) + positions.shape)
    if config.r_ali > config.r_rep:
        in_ali = (dist >= config.r_rep) & (dist < config.r_ali)
        f_ori = _neighbour_sum(velocities[:, :, None] * in_ali)
    else:  # an empty band: every term would be 0 * v_j, summing to +0.0
        f_ori = 0.0
    return acc[0], f_ori, -acc[1]


def limit_speed(v: np.ndarray, v_max: float) -> np.ndarray:
    """Rescale each coordinate-first (3, ...) vector to norm
    min(||v||, v_max); zero vectors stay zero."""
    v = np.asarray(v, dtype=float)
    # vecdot sums in the order np.linalg.norm does, along axis 0 as along the
    # last axis, so the norms match it to the bit
    n = np.sqrt(np.vecdot(v, v, axis=0))
    with np.errstate(invalid="ignore"):
        scaled = np.minimum(n, v_max) / n * v
    return np.where(n == 0.0, 0.0, scaled)


def limit_turning(
    v_current: np.ndarray,
    v_desired: np.ndarray,
    v_max: float,
    theta_max: float,
    preserve_vertical: bool = False,
) -> np.ndarray:
    """Clamp the horizontal heading change of coordinate-first (3, ...)
    velocities to +/- theta_max.

    Returns v_max * [cos(phi), sin(phi), 0] for the clamped heading phi.
    A horizontally-zero desired velocity keeps the current heading; a
    horizontally-zero current velocity adopts the desired heading without
    clamping.  With preserve_vertical the desired vertical component is
    carried through and the result is rescaled back under the speed cap.

    Both headings atan2(v_y, v_x) are the imaginary part of the complex
    log of v_x + i v_y (C99 Annex G).  numpy's complex log is a loop over
    the C library's clog, and glibc's clog takes that part from the atan2
    that math.atan2 calls, so the headings equal math.atan2's to the bit;
    np.arctan2's SIMD kernels differ in the last bit on some inputs.  That
    rests on the numpy and C library in use; tests/test_swarm.py checks it.
    """
    v_current = np.asarray(v_current, dtype=float)
    v_desired = np.asarray(v_desired, dtype=float)
    z = np.empty((2,) + v_current.shape[1:], complex)  # current, desired
    z.real[0], z.real[1] = v_current[0], v_desired[0]
    z.imag[0], z.imag[1] = v_current[1], v_desired[1]
    with np.errstate(divide="ignore"):  # log(0) is -inf, its imaginary part atan2(+-0, +-0)
        phi_cur, phi_des = np.log(z).imag
    dphi = (phi_des - phi_cur + math.pi) % (2.0 * math.pi) - math.pi
    phi = phi_cur + np.minimum(np.maximum(dphi, -theta_max), theta_max)
    zero = z == 0.0  # horizontally-zero current, desired velocities
    if zero.any():
        phi = np.where(zero[0], phi_des, np.where(zero[1], phi_cur, phi))
    out = np.empty((3,) + phi.shape)
    out[0] = v_max * np.cos(phi)
    out[1] = v_max * np.sin(phi)
    out[2] = v_desired[2] if preserve_vertical else 0.0
    return limit_speed(out, v_max) if preserve_vertical else out


def step(frame: Frame, config: SwarmConfig) -> Frame:
    """Advance every UAV by one dt (synchronous update from the given frame);
    a frame of shape (..., L, 3) advances every swarm in it.

    The work runs on coordinate-first (3, L, ...) arrays, so every numpy
    pass covers all swarms at once instead of looping over tiny (L, L, 3)
    blocks.  The returned frame holds transposed views of those arrays, so
    the next step takes them back without a copy.  A frame laid out as
    (..., L, 3) is copied once: ufuncs give their results the memory order
    of their inputs, so its transposed view would keep every pass in the
    slow order.
    """
    P = np.ascontiguousarray(frame.positions.T)
    V = np.ascontiguousarray(frame.velocities.T)
    f_rep, f_ori, f_att = _zone_forces(P, V, config)
    v_des = limit_speed(V + f_rep + f_ori + f_att, config.V_max)
    new_v = limit_turning(V, v_des, config.V_max, config.theta_max,
                          config.preserve_vertical)
    new_p = P + new_v * config.dt
    new_p[2] = np.minimum(np.maximum(new_p[2], config.Z_min), config.Z_max)
    return Frame(new_p.T, new_v.T)


def simulate_batch(config: SwarmConfig, seeds, frames=None):
    """Simulate one swarm per seed, stepping all of them together.

    Swarm r starts from init_swarm with its own np.random.default_rng(seeds[r])
    and follows, bit for bit, the trajectory simulate gives for that seed.
    frames are the increasing frame indices to keep; the swarms are stepped
    up to the last of them.  By default every frame of config.duration is kept.

    Returns positions and velocities, each (R, len(frames), L, 3).
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    if frames is None:
        frames = np.arange(config.n_steps + 1)
    frames = np.asarray(frames)
    # a fractional or bool index would leave rows of the outputs unwritten
    if frames.dtype.kind not in "iu" or frames.ndim != 1 or frames.size == 0 \
            or frames[0] < 0 or (np.diff(frames) <= 0).any():
        raise ValueError("frames must be increasing indices >= 0")
    frame = init_swarm(config, [np.random.default_rng(s) for s in seeds])
    shape = (len(seeds), frames.size, config.L, 3)
    positions, velocities = np.empty(shape), np.empty(shape)
    k = 0
    for t in range(int(frames[-1]) + 1):
        if t:
            frame = step(frame, config)
        if t == frames[k]:
            positions[:, k], velocities[:, k] = frame.positions, frame.velocities
            k += 1
    return positions, velocities


def simulate(config: SwarmConfig) -> Trajectory:
    """Run the full simulation; frame count is floor(duration/dt) + 1."""
    positions, velocities = simulate_batch(config, [config.seed])
    return Trajectory(positions[0], velocities[0], config.dt)


# --- serialization -----------------------------------------------------------

CSV_HEADER = ["t", "uav_id", "x", "y", "z", "vx", "vy", "vz"]


def save_trajectory_csv(traj: Trajectory, path, first_step: int = 0) -> None:
    """Write one row per (frame, UAV) with 17 significant digits; frame k
    is stamped t = (first_step + k) * dt."""
    T, L = traj.positions.shape[:2]
    t = np.repeat((first_step + np.arange(T)) * traj.dt, L)
    state = np.concatenate([traj.positions, traj.velocities], axis=2).reshape(T * L, 6)
    save_table(path, CSV_HEADER, zip(t.tolist(), np.tile(np.arange(L), T).tolist(),
                                     *state.T.tolist()))


def load_trajectory_csv(path):
    """Read a trajectory CSV; returns (times (T,), positions (T,L,3), velocities (T,L,3)).

    Raises ValueError unless every frame lists UAV ids 0..L-1 in order under
    one timestamp, frame times advance by one uniform dt > 0 (relative
    tolerance 1e-6) and every value is finite.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            rows = list(reader)
        except csv.Error as exc:  # e.g. a field over the csv module's size limit
            raise ValueError(f"malformed trajectory CSV: {exc}") from exc
    if header != CSV_HEADER:
        raise ValueError(f"unexpected trajectory header: {header}")
    if not rows:
        raise ValueError("empty trajectory file")
    if any(len(r) != len(CSV_HEADER) for r in rows):
        raise ValueError(f"every trajectory row needs {len(CSV_HEADER)} fields")
    ids = [int(r[1]) for r in rows]
    L = max(ids) + 1
    T = len(rows) // L if L >= 1 else 0
    if T * L != len(rows) or ids != list(range(L)) * T:
        raise ValueError("trajectory rows must form full frames of UAV ids 0..L-1 in order")
    values = np.array([[float(r[0])] + [float(v) for v in r[2:]] for r in rows])
    if not np.isfinite(values).all():
        raise ValueError("trajectory has non-finite values")
    values = values.reshape(T, L, 7)
    times = values[:, 0, 0].copy()
    if (values[:, :, 0] != times[:, None]).any():
        raise ValueError("rows of one frame have different timestamps")
    if T > 1:
        dt = times[1] - times[0]
        if not (dt > 0 and np.allclose(times - times[0], np.arange(T) * dt,
                                       rtol=1e-6, atol=0.0)):
            raise ValueError("frame timestamps must advance by one uniform dt > 0")
    return times, values[:, :, 1:4].copy(), values[:, :, 4:].copy()


def config_from_dict(data: dict) -> SwarmConfig:
    """Build a SwarmConfig from a dict mirroring the field names."""
    known = {f.name for f in fields(SwarmConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown swarm config keys: {sorted(unknown)}")
    return SwarmConfig(**data)
