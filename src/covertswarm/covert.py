"""Ground-network link model, covert power bounding and detection analysis.

Each ground node caps its transmit power so that the strongest air-ground
path to any surveillance UAV stays below the detection threshold; using
predicted UAV positions instead of true ones introduces error, hedged by
a descaling factor applied to the predicted bound.  A detection event is
a true safe bound falling below the descaled predicted bound.

The power bound computes all node-UAV distances as arrays in the same
operation order as a scalar loop (elementwise arithmetic and sqrt are
correctly rounded, so every distance is bit-identical), then applies one
scalar Python pow per node to the nearest distance.  Two facts keep this
bit-identical to the loop over (node, UAV) pairs: libm pow is monotone, so
the largest path gain d ** -eta is that of the smallest d; and the pow is
scalar, because numpy's SIMD pow differs from libm in the last bit on a
fraction of inputs.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np


def noise_power_watts(dbm_per_hz: float = -174.0, bandwidth_hz: float = 1e6) -> float:
    """Noise power over a bandwidth from a spectral density in dBm/Hz."""
    return 10.0 ** (dbm_per_hz / 10.0) * 1e-3 * bandwidth_hz


DEFAULT_NOISE_W = noise_power_watts()  # ~3.98e-15 W at -174 dBm/Hz over 1 MHz


def whole_multiple(total: float, unit: float) -> int:
    """total / unit when that is a whole number >= 1 (relative tolerance
    1e-6), else 0: any other ratio would round and silently shift times."""
    ratio = total / unit
    k = round(ratio) if math.isfinite(ratio) else 0
    return k if k >= 1 and math.isclose(k * unit, total, rel_tol=1e-6) else 0


@dataclass
class GroundNetwork:
    """Static terrestrial ad-hoc network; node positions are (N, 3) with z = 0."""

    positions: np.ndarray
    P_max: float = 20.0
    eta: float = 1.0        # air-ground path-loss exponent
    eta_t: float = 2.0      # ground-ground path-loss exponent
    N0: float = DEFAULT_NOISE_W
    gamma_t: float = 10.0   # linear SNR threshold for a usable link
    M_bar: int = 3          # minimum link count per node

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {self.positions.shape}")
        if self.positions.shape[0] < 1:
            raise ValueError("need at least one ground node")
        if not np.isfinite(self.positions).all():
            raise ValueError("ground node positions must be finite")
        if np.any(self.positions[:, 2] != 0.0):
            raise ValueError("ground nodes must have z = 0")
        if not self.P_max > 0:
            raise ValueError(f"P_max must be > 0, got {self.P_max}")
        if self.eta < 0 or self.eta_t < 0:
            raise ValueError("path-loss exponents must be >= 0")
        if not self.N0 > 0:
            raise ValueError(f"N0 must be > 0, got {self.N0}")

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[0]

    @classmethod
    def uniform_random(cls, n: int, area: float, rng: np.random.Generator, **kwargs):
        xy = rng.uniform(0.0, area, size=(n, 2))
        pos = np.hstack([xy, np.zeros((n, 1))])
        return cls(pos, **kwargs)


@dataclass(frozen=True)
class CovertConfig:
    """Detection-analysis settings."""

    P_det: float = 1e-6          # received-power detection threshold (W)
    lambda_: float = 0.5         # descaling factor applied to predicted bounds
    horizon_s: float = 10.0
    report_interval_s: float = 1.0
    runs: int = 400
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.lambda_ < 1:
            raise ValueError(f"lambda must be in (0, 1), got {self.lambda_}")
        if not self.P_det > 0:
            raise ValueError(f"P_det must be > 0, got {self.P_det}")
        if not self.horizon_s > 0:
            raise ValueError(f"horizon_s must be > 0, got {self.horizon_s}")
        if not self.report_interval_s > 0:
            raise ValueError("report_interval_s must be > 0")
        if not self.n_checks:
            raise ValueError(
                f"horizon {self.horizon_s:g} s is not a whole multiple of the "
                f"report interval {self.report_interval_s:g} s")
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")

    @property
    def n_checks(self) -> int:
        return whole_multiple(self.horizon_s, self.report_interval_s)


# --- link model --------------------------------------------------------------

def received_power(P_n: float, uav_pos: np.ndarray, node_pos: np.ndarray,
                   eta: float) -> float:
    """Power received at a UAV from a ground node: P_n * d^(-eta)."""
    d = float(np.linalg.norm(np.asarray(uav_pos, dtype=float)
                             - np.asarray(node_pos, dtype=float)))
    if d == 0.0:
        raise ValueError("UAV coincides with ground node (d = 0)")
    return P_n * d ** (-eta)


def snr_linear(P_i: float, d: float, nu: float, eta_t: float, N0: float) -> float:
    """Instantaneous linear SNR: P_i * d^(-eta_t) * nu / N0."""
    if d <= 0.0:
        raise ValueError(f"distance must be > 0, got {d}")
    if N0 <= 0.0:
        raise ValueError(f"N0 must be > 0, got {N0}")
    return P_i * d ** (-eta_t) * nu / N0


def mean_snr(P_i: float, d: float, eta_t: float, N0: float) -> float:
    """Time-averaged SNR under unit-mean fading."""
    return snr_linear(P_i, d, 1.0, eta_t, N0)


def mean_link_set(net: GroundNetwork, i: int, P_i: float) -> np.ndarray:
    """Indices j != i whose time-averaged SNR from node i meets the threshold."""
    if not 0 <= i < net.n_nodes:
        raise ValueError(f"node index {i} out of range")
    d = np.linalg.norm(net.positions - net.positions[i], axis=1)
    d[i] = np.inf
    gamma_bar = P_i * d ** (-net.eta_t) / net.N0
    return np.flatnonzero(gamma_bar >= net.gamma_t)


def nominal_power(net: GroundNetwork, i: int, floor: float = 0.0) -> float:
    """Smallest power giving node i at least M_bar mean-SNR links.

    Closed form from the M_bar-th nearest neighbour distance; capped at
    P_max with a warning when the link target is unreachable.
    """
    if net.M_bar >= net.n_nodes:
        raise ValueError(f"M_bar={net.M_bar} must be < N={net.n_nodes}")
    if net.M_bar <= 0:
        return floor
    d = np.linalg.norm(net.positions - net.positions[i], axis=1)
    d = np.sort(np.delete(d, i))
    d_m = d[net.M_bar - 1]
    p = net.gamma_t * net.N0 * d_m ** net.eta_t
    if p > net.P_max:
        warnings.warn(
            f"node {i}: required power {p:.3g} W exceeds P_max={net.P_max} W; capped",
            RuntimeWarning,
        )
        return net.P_max
    return max(p, floor)


def transmit_power_bound(net: GroundNetwork, uav_frame: np.ndarray,
                         P_det: float, nominal: np.ndarray) -> np.ndarray:
    """Per-node covert power cap against one UAV frame (L, 3).

    For each node the worst (largest) path gain over UAVs sets w_n; the
    node transmits min(nominal_n, P_det / w_n).
    """
    uav_frame = np.asarray(uav_frame, dtype=float)
    if uav_frame.ndim != 2 or uav_frame.shape[1] != 3 or uav_frame.shape[0] < 1:
        raise ValueError(f"uav_frame must be (L, 3) with L >= 1, got {uav_frame.shape}")
    if not np.isfinite(uav_frame).all():
        raise ValueError("uav_frame has non-finite coordinates")
    nominal = np.asarray(nominal, dtype=float)
    if nominal.shape != (net.n_nodes,):
        raise ValueError(f"nominal must be ({net.n_nodes},), got {nominal.shape}")
    if np.any(nominal < 0) or np.any(nominal > net.P_max):
        raise ValueError("nominal powers must lie in [0, P_max]")
    # (L, N) distances in the scalar loop's operation order; UAV-major so
    # that the min over UAVs runs along contiguous rows.  A finite UAV about
    # 1e154 m or more away overflows its distance to inf and its path gain to
    # 0, so P_det / w is inf: that UAV caps nothing, which is the right
    # limit, and the overflow and divide warnings say nothing.
    nodes = net.positions
    with np.errstate(over="ignore", divide="ignore"):
        dx = nodes[:, 0] - uav_frame[:, 0, None]
        dy = nodes[:, 1] - uav_frame[:, 1, None]
        dz = nodes[:, 2] - uav_frame[:, 2, None]
        d = np.sqrt(dx * dx + dy * dy + dz * dz)
        if not d.all():
            raise ValueError("UAV coincides with ground node (d = 0)")
        # max over UAVs of d ** -eta is d_min ** -eta because libm pow is
        # monotone; scalar pow, not np.power, whose SIMD path can differ in
        # the last bit
        eta = float(net.eta)
        w = np.array([v ** -eta for v in d.min(axis=0).tolist()])
        return np.minimum(nominal, P_det / w)


# --- prediction metrics ------------------------------------------------------

def prediction_error(true_frame: np.ndarray, pred_frame: np.ndarray) -> float:
    """Mean over UAVs of the squared position error for one frame."""
    true_frame = np.asarray(true_frame, dtype=float)
    pred_frame = np.asarray(pred_frame, dtype=float)
    if true_frame.shape != pred_frame.shape:
        raise ValueError(f"frame shape mismatch {true_frame.shape} vs {pred_frame.shape}")
    diff = true_frame - pred_frame
    return float(np.mean(np.sum(diff * diff, axis=1)))


def baseline_constant_velocity(frames: np.ndarray, horizon_steps: int) -> np.ndarray:
    """Linear extrapolation from the displacement between two consecutive frames.

    frames is (2, L, d); returns (horizon_steps, L, d) starting one step
    after the second frame.
    """
    frames = np.asarray(frames, dtype=float)
    if frames.ndim != 3 or frames.shape[0] != 2:
        raise ValueError(f"need exactly 2 consecutive frames, got shape {frames.shape}")
    if horizon_steps < 1:
        raise ValueError(f"horizon_steps must be >= 1, got {horizon_steps}")
    delta = frames[1] - frames[0]
    steps = np.arange(1, horizon_steps + 1)[:, None, None]
    return frames[1][None, :, :] + steps * delta[None, :, :]


# --- detection analysis ------------------------------------------------------

def detection_events(net: GroundNetwork, true_checks: np.ndarray,
                     pred_checks: np.ndarray, covert: CovertConfig,
                     nominal: np.ndarray):
    """Single-run detection flags over aligned check-time frames.

    true_checks / pred_checks are (C, L, 3) UAV frames at the report
    granularity.  Returns (flags, p_true, p_pred) each (C, N): a node is
    flagged when its true bound falls below lambda times its predicted one.
    """
    true_checks = np.asarray(true_checks, dtype=float)
    pred_checks = np.asarray(pred_checks, dtype=float)
    if true_checks.shape != pred_checks.shape:
        raise ValueError(
            f"misaligned trajectories: {true_checks.shape} vs {pred_checks.shape}")
    C = true_checks.shape[0]
    p_true = np.empty((C, net.n_nodes))
    p_pred = np.empty((C, net.n_nodes))
    for c in range(C):
        p_true[c] = transmit_power_bound(net, true_checks[c], covert.P_det, nominal)
        p_pred[c] = transmit_power_bound(net, pred_checks[c], covert.P_det, nominal)
    flags = p_true < covert.lambda_ * p_pred
    return flags, p_true, p_pred


@dataclass
class DetectionReport:
    """Monte-Carlo detection summary over independent runs."""

    p_true: np.ndarray     # (R, C, N) W
    p_pred: np.ndarray     # (R, C, N) W
    eps_pred: np.ndarray   # (R, C) squared position error per check time
    lambda_: float
    report_interval_s: float

    @property
    def detected(self) -> np.ndarray:
        """(R, C, N) flags, the same expression as detection_events."""
        return self.p_true < self.lambda_ * self.p_pred

    @property
    def n_runs(self) -> int:
        return self.p_true.shape[0]

    @property
    def run_detected(self) -> np.ndarray:
        return self.detected.any(axis=(1, 2))

    @property
    def p_det(self) -> float:
        return float(self.run_detected.mean())

    @property
    def eps_mean(self) -> float:
        return float(self.eps_pred.mean())

    def cell(self, lambda_: float, n_nodes: int) -> DetectionReport:
        """The same runs judged at another lambda over the first n_nodes
        nodes; slices the bounds without copying them."""
        if not 1 <= n_nodes <= self.p_true.shape[2]:
            raise ValueError(
                f"n_nodes must be in [1, {self.p_true.shape[2]}], got {n_nodes}")
        return DetectionReport(self.p_true[:, :, :n_nodes], self.p_pred[:, :, :n_nodes],
                               self.eps_pred, lambda_, self.report_interval_s)

    def save_summary_csv(self, path) -> None:
        """Audit table: one row per (run, check time, node)."""
        detected = self.detected
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run", "delta_t", "node", "P_true", "P_pred", "detected"])
            R, C, N = detected.shape
            for r in range(R):
                for c in range(C):
                    dt_s = (c + 1) * self.report_interval_s
                    for n in range(N):
                        writer.writerow([
                            r, f"{dt_s:.17g}", n,
                            f"{self.p_true[r, c, n]:.17g}",
                            f"{self.p_pred[r, c, n]:.17g}",
                            int(detected[r, c, n]),
                        ])


def detection_probability(nets, true_runs, pred_runs, covert: CovertConfig,
                          nominal=None) -> DetectionReport:
    """Aggregate detection over independent runs.

    nets is one GroundNetwork shared by all runs or a list per run;
    true_runs / pred_runs hold one (C, L, 3) array of check-time frames per
    run, as lists or as (R, C, L, 3) arrays.
    nominal is None (P_max for every node), one (N,) array shared by all
    runs, or a list with one entry per run.
    """
    if len(true_runs) != len(pred_runs) or len(true_runs) == 0:
        raise ValueError("need equally many true and predicted runs")
    R = len(true_runs)
    if isinstance(nets, GroundNetwork):
        nets = [nets] * R
    if nominal is None or np.ndim(nominal) == 1:
        nominal = [nominal] * R
    if len(nets) != R or len(nominal) != R:
        raise ValueError(f"expected {R} networks and nominal powers, "
                         f"got {len(nets)} and {len(nominal)}")
    n_nodes = nets[0].n_nodes
    if any(net.n_nodes != n_nodes for net in nets):
        raise ValueError("all runs must use the same node count")
    C = np.asarray(true_runs[0]).shape[0]
    p_true = np.empty((R, C, n_nodes))
    p_pred = np.empty((R, C, n_nodes))
    eps = np.empty((R, C))
    for r, (net, t_run, p_run, nom) in enumerate(zip(nets, true_runs, pred_runs, nominal)):
        if nom is None:
            nom = np.full(n_nodes, net.P_max)
        _, pt, pp = detection_events(net, t_run, p_run, covert, nom)
        if pt.shape[0] != C:
            raise ValueError("runs disagree on the number of check times")
        p_true[r], p_pred[r] = pt, pp
        for c in range(C):
            eps[r, c] = prediction_error(np.asarray(t_run)[c], np.asarray(p_run)[c])
    return DetectionReport(p_true, p_pred, eps, covert.lambda_, covert.report_interval_s)
