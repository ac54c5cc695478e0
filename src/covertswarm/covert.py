"""Ground-network link model, covert power bounding and detection analysis.

Each ground node caps its transmit power so that the strongest air-ground
path to any surveillance UAV stays below the detection threshold; using
predicted UAV positions instead of true ones introduces error, hedged by
a descaling factor applied to the predicted bound.  A detection event is
a true safe bound falling below the descaled predicted bound.

One kernel bounds the power for any stack of frames, block by block, with
every bit of a scalar loop over (node, UAV) pairs that takes
d = sqrt((dx*dx + dy*dy) + dz*dz) and the largest path gain d ** -eta:
- squared distances are summed in that loop's order; elementwise arithmetic
  is correctly rounded, and ground nodes sit at z = +-0, so dz*dz is the
  UAV's own z*z;
- the minimum over UAVs comes before the sqrt: sqrt is correctly rounded
  and monotone, so sqrt(min s) == min sqrt(s), and min s is 0 exactly when
  some distance is;
- one libm pow per node and frame, on the nearest distance: libm pow is
  monotone, so the largest gain is that of the smallest d.  np.float_power
  has no SIMD loop for float64, so it calls libm's pow once per element as
  the loop does (tests/test_covert.py pins this); np.power's SIMD loop and
  1 / d differ from libm in the last bit on a fraction of inputs.
Nominal powers take each node's distance to its M_bar-th nearest neighbour
the same way: an order statistic of squared distances, then one sqrt and
one libm pow per node.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


# Thermal noise power: -174 dBm/Hz over 1 MHz, about 3.98e-15 W
DEFAULT_NOISE_W = 10.0 ** (-174.0 / 10.0) * 1e-3 * 1e6


def whole_multiple(total: float, unit: float) -> int:
    """total / unit when that is a whole number >= 1 (relative tolerance
    1e-6), else 0: any other ratio would round and silently shift times."""
    ratio = total / unit
    k = round(ratio) if math.isfinite(ratio) else 0
    return k if k >= 1 and math.isclose(k * unit, total, rel_tol=1e-6) else 0


@dataclass
class GroundNetwork:
    """Static terrestrial ad-hoc network; node positions are (N, 3) with z = 0,
    or (R, N, 3): one node set for each run of a Monte-Carlo batch, all with
    the same link parameters."""

    positions: np.ndarray
    P_max: float = 20.0
    eta: float = 1.0        # air-ground path-loss exponent
    eta_t: float = 2.0      # ground-ground path-loss exponent
    N0: float = DEFAULT_NOISE_W
    gamma_t: float = 10.0   # linear SNR threshold for a usable link
    M_bar: int = 3          # minimum link count per node

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim not in (2, 3) or self.positions.shape[-1] != 3:
            raise ValueError(f"positions must be (N, 3) or (R, N, 3), "
                             f"got {self.positions.shape}")
        if 0 in self.positions.shape:
            raise ValueError("need at least one ground node")
        if not np.isfinite(self.positions).all():
            raise ValueError("ground node positions must be finite")
        if np.any(self.positions[..., 2] != 0.0):
            raise ValueError("ground nodes must have z = 0")
        for name in ("P_max", "N0", "gamma_t"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not (0 <= self.eta < math.inf and 0 <= self.eta_t < math.inf):
            raise ValueError(f"path-loss exponents must be finite and >= 0, "
                             f"got eta={self.eta}, eta_t={self.eta_t}")
        if isinstance(self.M_bar, bool) or not isinstance(self.M_bar, (int, np.integer)) \
                or self.M_bar < 0:
            raise ValueError(f"M_bar must be an integer >= 0, got {self.M_bar!r}")

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[-2]

    @classmethod
    def uniform_random(cls, n: int, area: float, rng, **kwargs):
        """n nodes uniform in the area square.  rng is one np.random.Generator,
        or a sequence of R of them for an (R, n, 3) network whose run r holds
        what a single call with rng[r] gives."""
        if not 0 < area < math.inf:
            raise ValueError(f"area must be finite and > 0, got {area}")
        single = isinstance(rng, np.random.Generator)
        rngs = [rng] if single else list(rng)
        pos = np.zeros((len(rngs), n, 3))
        for r, g in enumerate(rngs):
            pos[r, :, :2] = g.uniform(0.0, area, size=(n, 2))
        return cls(pos[0] if single else pos, **kwargs)


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
        if not 0 < self.P_det < math.inf:
            raise ValueError(f"P_det must be finite and > 0, got {self.P_det}")
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

# Distances the power-bound kernel and nominal_powers hold at once: they walk
# their inputs in blocks of about this many, so memory stays flat in runs,
# checks and nodes.
_BLOCK_DISTANCES = 2 ** 15


def nominal_powers(net: GroundNetwork) -> np.ndarray:
    """Smallest power giving each node at least M_bar mean-SNR links: (N,),
    or (R, N) for a network of R runs.

    Closed form from each node's M_bar-th nearest neighbour distance within
    its run; a power above P_max is capped there, as the link target is
    unreachable, and one warning per call counts the capped nodes of all runs.
    """
    N = net.n_nodes
    if net.M_bar >= N:
        raise ValueError(f"M_bar={net.M_bar} must be < N={N}")
    if net.M_bar <= 0:
        return np.zeros(net.positions.shape[:-1])
    pos = net.positions.reshape(-1, N, 3)
    k = net.M_bar - 1
    s_m = np.empty(pos.shape[:2])
    # whole runs per block when a run fits in one, else rows of one run
    per_block = max(1, _BLOCK_DISTANCES // N)
    n_runs, n_rows = (per_block // N, N) if per_block >= N else (1, per_block)
    # a squared distance or a power (libm's pow per node) that overflows is inf,
    # and the capped warning below counts its node, so numpy's would add nothing
    with np.errstate(over="ignore"):
        for r in range(0, len(pos), n_runs):
            x, y = pos[r:r + n_runs, :, 0], pos[r:r + n_runs, :, 1]
            for i in range(0, N, n_rows):
                # squared distances from rows i.. to every node of the run,
                # a node's own at inf
                s = x[:, i:i + n_rows, None] - x[:, None]
                s *= s
                t = y[:, i:i + n_rows, None] - y[:, None]
                t *= t
                s += t
                rows = np.arange(s.shape[1])
                s[:, rows, i + rows] = np.inf
                s_m[r:r + n_runs, i:i + n_rows] = np.partition(s, k, axis=2)[..., k]
        p = net.gamma_t * net.N0 * np.float_power(np.sqrt(s_m, out=s_m), net.eta_t)
    capped = p > net.P_max
    if capped.any():
        warnings.warn(f"{capped.sum()} of {p.size} nodes require more than "
                      f"P_max={net.P_max} W, up to {p.max():.3g} W; capped", RuntimeWarning)
    return np.minimum(p, net.P_max).reshape(net.positions.shape[:-1])


def transmit_power_bound(net: GroundNetwork, uav_frames: np.ndarray,
                         P_det: float, nominal) -> np.ndarray:
    """Per-node covert power caps against UAV frames.

    An (N, 3) network takes frames (..., L, 3) and gives (..., N), as one
    run; an (R, N, 3) network takes frames (R, ..., L, 3), run r against its
    own nodes, and gives (R, ..., N).  nominal is None (P_max), one (N,)
    array or one (R, N) array, R = 1 for an (N, 3) network.  For each node
    the worst (largest) path gain over UAVs sets w_n; the node transmits
    min(nominal_n, P_det / w_n).
    """
    frames = np.asarray(uav_frames, dtype=float)
    one_run = net.positions.ndim == 2
    if frames.ndim < 3 - one_run or frames.shape[-1] != 3 or frames.shape[-2] < 1:
        raise ValueError(f"UAV frames must be ({'' if one_run else 'R, '}..., L, 3) "
                         f"with L >= 1, got {frames.shape}")
    if one_run:
        frames = frames[None]
    if not np.isfinite(frames).all():
        raise ValueError("UAV frames have non-finite coordinates")
    if not 0 < P_det < math.inf:
        raise ValueError(f"P_det must be finite and > 0, got {P_det}")
    R, L = frames.shape[0], frames.shape[-2]
    N, eta = net.n_nodes, float(net.eta)
    if not one_run and len(net.positions) != R:
        raise ValueError(f"the network has node sets for {len(net.positions)} runs, "
                         f"but the frames have {R} runs")
    if nominal is None:
        nominal = net.P_max
    else:
        nominal = np.asarray(nominal, dtype=float)
        if nominal.shape not in ((N,), (R, N)):
            raise ValueError(f"nominal must be ({N},) or ({R}, {N}) for a "
                             f"{net.positions.shape} network, got {nominal.shape}")
        if not ((nominal >= 0) & (nominal <= net.P_max)).all():
            raise ValueError("nominal powers must lie in [0, P_max]")
    # (R, 2, N) node x and y and (R, N) nominal powers, views when shared;
    # nodes sit at z = +-0, so a UAV's dz*dz is its own z*z, bit for bit
    nodes = np.broadcast_to(
        np.ascontiguousarray(net.positions[..., :2].swapaxes(-1, -2)), (R, 2, N))
    nominal = np.broadcast_to(nominal, (R, N))
    uav = frames.reshape(R, -1, L, 3).transpose(3, 0, 1, 2)  # (3, R, F, L) view
    F = uav.shape[2]
    out = np.empty((R, F, N))
    # whole runs per block when a run fits in one, else part of one run
    per_block = max(1, _BLOCK_DISTANCES // (L * N))
    n_runs, n_frames = (per_block // F, F) if per_block >= F else (1, per_block)
    # (runs, frames, L, N) squared distances; a finite UAV about 1e154 m or
    # more away overflows its distance to inf and its path gain to 0, so
    # P_det / w is inf: that UAV caps nothing, which is the right limit,
    # and the overflow and divide warnings say nothing; a gain that
    # overflows to inf is an error, raised below
    with np.errstate(over="ignore", divide="ignore"):
        uz2 = uav[2] * uav[2]
        for r in range(0, R, n_runs):
            rs = slice(r, r + n_runs)
            x, y = nodes[rs, 0, None, None], nodes[rs, 1, None, None]
            for f in range(0, F, n_frames):
                fs = slice(f, f + n_frames)
                s = x - uav[0, rs, fs, :, None]
                s *= s
                t = y - uav[1, rs, fs, :, None]
                t *= t
                s += t
                s += uz2[rs, fs, :, None]
                s = s.min(axis=2)
                if not s.all():
                    raise ValueError("UAV coincides with ground node (d = 0)")
                w = np.float_power(np.sqrt(s, out=s), -eta, out=s)
                if np.isinf(w).any():
                    raise ValueError("UAV so close to a ground node that its path gain "
                                     f"d**-eta overflows (eta={eta:g})")
                np.minimum(nominal[rs, None], np.divide(P_det, w, out=w), out=out[rs, fs])
    out = out.reshape(frames.shape[:-2] + (N,))
    return out[0] if one_run else out


# --- prediction metrics ------------------------------------------------------

def prediction_error(true_frames: np.ndarray, pred_frames: np.ndarray):
    """Mean over UAVs of the squared position error of each (L, d) frame:
    (...) errors for (..., L, d) frames, a float for one frame."""
    true_frames = np.asarray(true_frames, dtype=float)
    pred_frames = np.asarray(pred_frames, dtype=float)
    if true_frames.shape != pred_frames.shape or true_frames.ndim < 2:
        raise ValueError(f"frame shape mismatch {true_frames.shape} vs {pred_frames.shape}")
    diff = true_frames - pred_frames
    eps = np.mean(np.sum(diff * diff, axis=-1), axis=-1)
    return float(eps) if eps.ndim == 0 else eps


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
    """Detection flags of one run: detection_probability of that run alone.

    net is one run's (N, 3) or (1, N, 3) network; true_checks / pred_checks
    are (C, L, 3) UAV frames at the report granularity.  Returns (flags,
    p_true, p_pred) each (C, N), as DetectionReport gives them.
    """
    report = detection_probability(net, [true_checks], [pred_checks], covert, nominal)
    return report.detected[0], report.p_true[0], report.p_pred[0]


@dataclass
class DetectionReport:
    """Monte-Carlo detection summary over independent runs."""

    p_true: np.ndarray     # (R, C, N) W
    p_pred: np.ndarray     # (R, C, N) W
    eps_pred: np.ndarray   # (R, C) squared position error per check time
    lambda_: float

    @property
    def detected(self) -> np.ndarray:
        """(R, C, N) flags: a node is flagged when its true bound falls below
        lambda times its predicted one."""
        return self.p_true < self.lambda_ * self.p_pred

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
                               self.eps_pred, lambda_)


def detection_probability(net: GroundNetwork, true_runs, pred_runs, covert: CovertConfig,
                          nominal=None) -> DetectionReport:
    """Aggregate detection over independent runs.

    net is one (N, 3) network shared by all runs or an (R, N, 3) network
    with a node set per run; true_runs / pred_runs are (R, C, L, 3)
    check-time frames, or R (C, L, 3) arrays.  nominal is None (P_max for
    every node), one (N,) array shared by all runs, or for an (R, N, 3)
    network one (N,) array per run, as nominal_powers gives.
    """
    true_runs = np.asarray(true_runs, dtype=float)
    pred_runs = np.asarray(pred_runs, dtype=float)
    if true_runs.shape != pred_runs.shape or true_runs.ndim != 4 or not len(true_runs):
        raise ValueError(f"need equally many aligned true and predicted (C, L, 3) runs, "
                         f"got {true_runs.shape} and {pred_runs.shape}")
    p_true = transmit_power_bound(net, true_runs, covert.P_det, nominal)
    p_pred = transmit_power_bound(net, pred_runs, covert.P_det, nominal)
    return DetectionReport(p_true, p_pred, prediction_error(true_runs, pred_runs),
                           covert.lambda_)
