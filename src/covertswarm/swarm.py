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
        if self.r_ali < 0:
            raise ValueError(f"r_ali must be >= 0, got {self.r_ali}")
        if not self.Z_min < self.Z_max:
            raise ValueError(f"need Z_min < Z_max, got {self.Z_min}, {self.Z_max}")
        if not self.X_size > 0:
            raise ValueError(f"X_size must be > 0, got {self.X_size}")
        if not self.duration > 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")


@dataclass
class Frame:
    """State of all L UAVs at one instant: positions (L,3), velocities (L,3)."""

    positions: np.ndarray
    velocities: np.ndarray

    def __len__(self) -> int:
        return self.positions.shape[0]


@dataclass
class Trajectory:
    """Time-indexed swarm states: positions/velocities are (T, L, 3) arrays."""

    positions: np.ndarray
    velocities: np.ndarray
    dt: float
    config: SwarmConfig

    @property
    def n_frames(self) -> int:
        return self.positions.shape[0]

    def times(self) -> np.ndarray:
        return np.arange(self.n_frames) * self.dt


def init_swarm(config: SwarmConfig, rng: np.random.Generator) -> Frame:
    """Draw the initial frame: xy uniform in the operation area, altitude
    uniform in [Z_min, Z_max], velocities isotropic with norm V_max."""
    L = config.L
    xy = rng.uniform(0.0, config.X_size, size=(L, 2))
    z = rng.uniform(config.Z_min, config.Z_max, size=(L, 1))
    positions = np.hstack([xy, z])
    raw = rng.normal(size=(L, 3))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    velocities = config.V_max * raw / norms
    return Frame(positions, velocities)


def _zone_forces(positions: np.ndarray, velocities: np.ndarray, config: SwarmConfig):
    """Per-UAV repulsion / alignment / attraction sums, each (L, 3).

    Bands are evaluated as a priority cascade (repulsion first), so they
    never overlap even when r_ali < r_rep.
    """
    L = positions.shape[0]
    disp = positions[:, None, :] - positions[None, :, :]  # disp[i, j] = u_i - u_j
    dist = np.linalg.norm(disp, axis=2)
    off_diag = ~np.eye(L, dtype=bool)
    in_rep = off_diag & (dist < config.r_rep)
    in_ali = off_diag & ~in_rep & (dist < config.r_ali)
    in_att = off_diag & ~in_rep & ~in_ali & (dist < config.r_att)
    f_rep = (disp * in_rep[:, :, None]).sum(axis=1)
    f_ori = in_ali.astype(float) @ velocities
    f_att = -(disp * in_att[:, :, None]).sum(axis=1)
    return f_rep, f_ori, f_att


def limit_speed(v: np.ndarray, v_max: float) -> np.ndarray:
    """Rescale v to norm min(||v||, v_max); the zero vector stays zero."""
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        return np.zeros_like(v)
    return min(n, v_max) / n * v


def limit_turning(
    v_current: np.ndarray,
    v_desired: np.ndarray,
    v_max: float,
    theta_max: float,
    preserve_vertical: bool = False,
) -> np.ndarray:
    """Clamp the horizontal heading change to +/- theta_max.

    Returns v_max * [cos(phi), sin(phi), 0] for the clamped heading phi.
    A horizontally-zero desired velocity keeps the current heading; a
    horizontally-zero current velocity adopts the desired heading without
    clamping.  With preserve_vertical the desired vertical component is
    carried through and the result is rescaled back under the speed cap.
    """
    v_current = np.asarray(v_current, dtype=float)
    v_desired = np.asarray(v_desired, dtype=float)
    cur_h = math.hypot(v_current[0], v_current[1])
    des_h = math.hypot(v_desired[0], v_desired[1])
    if des_h == 0.0 and cur_h > 0.0:
        phi = math.atan2(v_current[1], v_current[0])
    elif cur_h == 0.0:
        phi = math.atan2(v_desired[1], v_desired[0])
    else:
        phi_cur = math.atan2(v_current[1], v_current[0])
        phi_des = math.atan2(v_desired[1], v_desired[0])
        dphi = (phi_des - phi_cur + math.pi) % (2.0 * math.pi) - math.pi
        dphi = max(-theta_max, min(theta_max, dphi))
        phi = phi_cur + dphi
    out = np.array([v_max * math.cos(phi), v_max * math.sin(phi), 0.0])
    if preserve_vertical:
        out[2] = v_desired[2]
        out = limit_speed(out, v_max)
    return out


def step(frame: Frame, config: SwarmConfig) -> Frame:
    """Advance every UAV by one dt (synchronous update from the given frame)."""
    f_rep, f_ori, f_att = _zone_forces(frame.positions, frame.velocities, config)
    new_v = np.empty_like(frame.velocities)
    for i in range(len(frame)):
        v_des = frame.velocities[i] + f_rep[i] + f_ori[i] + f_att[i]
        v_des = limit_speed(v_des, config.V_max)
        new_v[i] = limit_turning(
            frame.velocities[i], v_des, config.V_max, config.theta_max,
            config.preserve_vertical,
        )
    new_p = frame.positions + new_v * config.dt
    new_p[:, 2] = np.clip(new_p[:, 2], config.Z_min, config.Z_max)
    return Frame(new_p, new_v)


def simulate(config: SwarmConfig) -> Trajectory:
    """Run the full simulation; frame count is floor(duration/dt) + 1."""
    rng = np.random.default_rng(config.seed)
    n_steps = int(math.floor(config.duration / config.dt + 1e-9))
    positions = np.empty((n_steps + 1, config.L, 3))
    velocities = np.empty((n_steps + 1, config.L, 3))
    frame = init_swarm(config, rng)
    positions[0], velocities[0] = frame.positions, frame.velocities
    for k in range(n_steps):
        frame = step(frame, config)
        positions[k + 1], velocities[k + 1] = frame.positions, frame.velocities
    return Trajectory(positions, velocities, config.dt, config)


# --- serialization -----------------------------------------------------------

CSV_HEADER = ["t", "uav_id", "x", "y", "z", "vx", "vy", "vz"]


def save_trajectory_csv(traj: Trajectory, path, first_step: int = 0) -> None:
    """Write one row per (frame, UAV) with 17 significant digits; frame k
    is stamped t = (first_step + k) * dt."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for k in range(traj.n_frames):
            t = (first_step + k) * traj.dt
            for i in range(traj.positions.shape[1]):
                row = [f"{t:.17g}", str(i)]
                row += [f"{v:.17g}" for v in traj.positions[k, i]]
                row += [f"{v:.17g}" for v in traj.velocities[k, i]]
                writer.writerow(row)


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
