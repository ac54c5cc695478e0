import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertswarm import swarm
from covertswarm.swarm import (
    Frame,
    SwarmConfig,
    config_from_dict,
    init_swarm,
    limit_speed,
    limit_turning,
    load_trajectory_csv,
    save_trajectory_csv,
    simulate,
    simulate_batch,
    step,
)


def small_config(**kw):
    base = dict(L=4, duration=5.0, seed=1)
    base.update(kw)
    return SwarmConfig(**base)


# --- config validation --------------------------------------------------------

@pytest.mark.parametrize("bad", [
    dict(L=0),
    dict(V_max=0.0),
    dict(theta_max=0.0),
    dict(theta_max=4.0),
    dict(dt=-0.1),
    dict(r_rep=0.0),
    dict(r_rep=600.0),  # > r_att
    dict(r_ali=-1.0),
    dict(Z_min=200.0),  # >= Z_max
    dict(duration=0.0),
    dict(r_ali=math.nan),  # ran as if the alignment band were empty
])
def test_config_rejects_invalid(bad):
    with pytest.raises(ValueError):
        small_config(**bad)


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        config_from_dict({"L": 4, "vmax": 20.0})


def test_config_defaults_match_reference_scenario():
    cfg = SwarmConfig()
    assert cfg.L == 4
    assert cfg.V_max == 20.0
    assert cfg.theta_max == pytest.approx(math.pi / 100)
    assert cfg.dt == 0.1
    assert (cfg.r_rep, cfg.r_ali, cfg.r_att) == (300.0, 0.0, 500.0)
    assert cfg.X_size == 500.0


# --- init ----------------------------------------------------------------------

def test_init_speeds_and_bounds():
    cfg = small_config(L=4, V_max=20.0)
    frame = init_swarm(cfg, np.random.default_rng(0))
    speeds = np.linalg.norm(frame.velocities, axis=1)
    np.testing.assert_allclose(speeds, 20.0, rtol=1e-12)
    assert np.all(frame.positions[:, :2] >= 0.0)
    assert np.all(frame.positions[:, :2] <= cfg.X_size)
    assert np.all(frame.positions[:, 2] >= cfg.Z_min)
    assert np.all(frame.positions[:, 2] <= cfg.Z_max)


def test_init_single_uav():
    cfg = small_config(L=1)
    frame = init_swarm(cfg, np.random.default_rng(3))
    assert frame.positions.shape == (1, 3)
    assert np.linalg.norm(frame.velocities[0]) == pytest.approx(cfg.V_max)


def test_init_deterministic_by_seed():
    cfg = small_config()
    f1 = init_swarm(cfg, np.random.default_rng(7))
    f2 = init_swarm(cfg, np.random.default_rng(7))
    np.testing.assert_array_equal(f1.positions, f2.positions)
    np.testing.assert_array_equal(f1.velocities, f2.velocities)


# --- interaction forces ---------------------------------------------------------

def forces_on_first(frame, cfg):
    """(f_rep, f_ori, f_att) acting on UAV 0; _zone_forces is coordinate-first."""
    forces = swarm._zone_forces(frame.positions.T, frame.velocities.T, cfg)
    return [f[:, 0] for f in forces]


def test_forces_no_neighbors():
    cfg = small_config(L=1)
    frame = Frame(np.array([[10.0, 20.0, 100.0]]), np.array([[20.0, 0.0, 0.0]]))
    f_rep, f_ori, f_att = forces_on_first(frame, cfg)
    np.testing.assert_array_equal(f_rep, np.zeros(3))
    np.testing.assert_array_equal(f_ori, np.zeros(3))
    np.testing.assert_array_equal(f_att, np.zeros(3))


def test_repulsion_points_away_from_neighbor():
    # two UAVs 100 m apart, inside r_rep=300: f_rep(0) = u0 - u1
    cfg = small_config(L=2)
    frame = Frame(np.array([[0.0, 0.0, 100.0], [100.0, 0.0, 100.0]]),
                  np.zeros((2, 3)))
    f_rep, f_ori, f_att = forces_on_first(frame, cfg)
    np.testing.assert_allclose(f_rep, [-100.0, 0.0, 0.0])
    np.testing.assert_array_equal(f_ori, np.zeros(3))
    np.testing.assert_array_equal(f_att, np.zeros(3))


def test_attraction_band_pulls_toward_neighbor():
    # distance 400 with (r_rep, r_ali, r_att) = (300, 0, 500): only attraction fires
    cfg = small_config(L=2)
    frame = Frame(np.array([[0.0, 0.0, 100.0], [400.0, 0.0, 100.0]]),
                  np.zeros((2, 3)))
    f_rep, f_ori, f_att = forces_on_first(frame, cfg)
    np.testing.assert_array_equal(f_rep, np.zeros(3))
    np.testing.assert_allclose(f_att, [400.0, 0.0, 0.0])


def test_alignment_band_sums_neighbor_velocities():
    cfg = small_config(L=2, r_rep=50.0, r_ali=200.0, r_att=300.0)
    frame = Frame(np.array([[0.0, 0.0, 100.0], [100.0, 0.0, 100.0]]),
                  np.array([[20.0, 0.0, 0.0], [0.0, 15.0, 0.0]]))
    f_rep, f_ori, f_att = forces_on_first(frame, cfg)
    np.testing.assert_array_equal(f_rep, np.zeros(3))
    np.testing.assert_allclose(f_ori, [0.0, 15.0, 0.0])
    np.testing.assert_array_equal(f_att, np.zeros(3))


def test_band_boundaries_are_half_open():
    # exactly at r_rep the pair leaves repulsion and (with r_ali=0) enters attraction
    cfg = small_config(L=2)
    frame = Frame(np.array([[0.0, 0.0, 100.0], [300.0, 0.0, 100.0]]),
                  np.zeros((2, 3)))
    f_rep, _, f_att = forces_on_first(frame, cfg)
    np.testing.assert_array_equal(f_rep, np.zeros(3))
    np.testing.assert_allclose(f_att, [300.0, 0.0, 0.0])


def test_forces_priority_excludes_attraction_inside_repulsion():
    cfg = small_config(L=2)
    frame = Frame(np.array([[0.0, 0.0, 100.0], [100.0, 0.0, 100.0]]),
                  np.zeros((2, 3)))
    _, _, f_att = forces_on_first(frame, cfg)
    np.testing.assert_array_equal(f_att, np.zeros(3))


# --- limit_speed ----------------------------------------------------------------

def test_limit_speed_rescales():
    np.testing.assert_allclose(limit_speed(np.array([30.0, 0.0, 0.0]), 20.0),
                               [20.0, 0.0, 0.0])


def test_limit_speed_below_cap_unchanged():
    np.testing.assert_allclose(limit_speed(np.array([3.0, 4.0, 0.0]), 20.0),
                               [3.0, 4.0, 0.0])


def test_limit_speed_zero_vector():
    np.testing.assert_array_equal(limit_speed(np.zeros(3), 20.0), np.zeros(3))


# --- limit_turning --------------------------------------------------------------

def test_limit_turning_clamps_to_theta_max():
    theta = math.pi / 100
    out = limit_turning(np.array([20.0, 0.0, 0.0]), np.array([0.0, 20.0, 0.0]),
                        20.0, theta)
    np.testing.assert_allclose(
        out, [20.0 * math.cos(theta), 20.0 * math.sin(theta), 0.0], atol=1e-12)


def test_limit_turning_no_change_when_aligned():
    v = np.array([12.0, 16.0, 0.0])
    out = limit_turning(v, v, 20.0, math.pi / 100)
    np.testing.assert_allclose(out, [12.0, 16.0, 0.0], atol=1e-12)
    assert np.linalg.norm(out) == pytest.approx(20.0)


def test_limit_turning_small_negative_rotation_exact():
    theta = math.pi / 100
    v_cur = np.array([20.0, 0.0, 0.0])
    v_des = 20.0 * np.array([math.cos(-theta), math.sin(-theta), 0.0])
    out = limit_turning(v_cur, v_des, 20.0, theta)
    np.testing.assert_allclose(out, v_des, atol=1e-12)


def test_limit_turning_zero_desired_keeps_heading():
    out = limit_turning(np.array([0.0, 20.0, 0.0]), np.zeros(3), 20.0, math.pi / 100)
    np.testing.assert_allclose(out, [0.0, 20.0, 0.0], atol=1e-12)


def test_limit_turning_degenerate_current_adopts_desired_heading():
    out = limit_turning(np.array([0.0, 0.0, 5.0]), np.array([-3.0, 4.0, 0.0]),
                        20.0, math.pi / 100)
    np.testing.assert_allclose(out, [-12.0, 16.0, 0.0], atol=1e-12)


def test_limit_turning_wraps_across_pi():
    # headings at +/-179 deg are 2 deg apart, not 358
    phi = math.pi - math.radians(1.0)
    v_cur = 20.0 * np.array([math.cos(phi), math.sin(phi), 0.0])
    v_des = 20.0 * np.array([math.cos(-phi), math.sin(-phi), 0.0])
    out = limit_turning(v_cur, v_des, 20.0, math.radians(5.0))
    np.testing.assert_allclose(out, v_des, atol=1e-12)


def test_limit_turning_preserve_vertical_respects_speed_cap():
    out = limit_turning(np.array([20.0, 0.0, 0.0]), np.array([20.0, 0.0, 15.0]),
                        20.0, math.pi / 100, preserve_vertical=True)
    assert np.linalg.norm(out) == pytest.approx(20.0)
    assert out[2] > 0.0
    # heading preserved
    assert math.atan2(out[1], out[0]) == pytest.approx(0.0, abs=1e-12)


def edge_pairs():
    edges = [0.0, 5e-324, 1e-310, 1.0, 20.0, 1e308, math.inf]
    edges += [-e for e in edges]
    return np.array([(x, y) for x in edges for y in edges]).T


def wide_pairs():
    rng = np.random.default_rng(1914)
    return rng.standard_normal((2, 10 ** 5)) * 10.0 ** rng.uniform(-300.0, 300.0, (2, 10 ** 5))


@pytest.mark.parametrize("pairs", [edge_pairs, wide_pairs])
def test_headings_are_math_atan2_to_the_bit(pairs, monkeypatch):
    # limit_turning takes headings from numpy's complex log, on the
    # assumption that it runs the C library's atan2 as math.atan2 does;
    # a numpy or libm that breaks it must fail here, not shift trajectories.
    # With the other velocity horizontally zero the unclamped heading is
    # what reaches np.cos, so the test reads it there.
    x, y = pairs()
    want = np.array(list(map(math.atan2, y.tolist(), x.tolist())))
    seen, cos = [], np.cos

    def recording_cos(phi):
        seen.append(phi.copy())
        return cos(phi)

    monkeypatch.setattr(np, "cos", recording_cos)
    v = np.stack([x, y, np.zeros_like(x)])
    limit_turning(np.zeros_like(v), v, 1.0, math.pi)  # the desired heading
    limit_turning(v, np.zeros_like(v), 1.0, math.pi)  # the current heading
    is_zero = (x == 0.0) & (y == 0.0)  # both zero: the desired heading atan2(+0, +0)
    assert same_bits(seen[0], want)
    assert same_bits(seen[1], np.where(is_zero, 0.0, want))


# --- step ------------------------------------------------------------------------

def test_step_with_zero_horizontal_velocities_warns_nothing():
    cfg = small_config(L=1)
    velocities = np.array([[[0.0, 0.0, 5.0]], [[-0.0, 0.0, 0.0]], [[0.0, -0.0, -3.0]],
                           [[20.0, 0.0, 0.0]]])
    frame = Frame(np.full((4, 1, 3), 100.0), velocities)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = step(frame, cfg)
    assert same_bits(out.velocities[:, 0, :2], np.array([[20.0, 0.0]] * 4))


def test_step_single_uav_integrates_position():
    cfg = small_config(L=1, dt=0.1)
    frame = Frame(np.array([[100.0, 100.0, 100.0]]), np.array([[20.0, 0.0, 0.0]]))
    out = step(frame, cfg)
    np.testing.assert_allclose(out.positions[0], [102.0, 100.0, 100.0], atol=1e-12)
    np.testing.assert_allclose(out.velocities[0], [20.0, 0.0, 0.0], atol=1e-12)


def test_step_clamps_altitude():
    cfg = small_config(L=1, preserve_vertical=True)
    frame = Frame(np.array([[100.0, 100.0, cfg.Z_max - 0.5]]),
                  np.array([[0.0, 0.0, 20.0]]))
    out = step(frame, cfg)
    assert out.positions[0, 2] == cfg.Z_max


def test_step_bitwise_deterministic():
    cfg = small_config()
    frame = init_swarm(cfg, np.random.default_rng(5))
    a = step(Frame(frame.positions.copy(), frame.velocities.copy()), cfg)
    b = step(Frame(frame.positions.copy(), frame.velocities.copy()), cfg)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.velocities, b.velocities)


# --- simulate ---------------------------------------------------------------------

def test_simulate_frame_count():
    traj = simulate(small_config(duration=60.0))
    assert traj.n_frames == 601


def test_simulate_invariants_hold():
    cfg = small_config(duration=8.0, seed=11)
    traj = simulate(cfg)
    speeds = np.linalg.norm(traj.velocities, axis=2)
    assert np.all(speeds <= cfg.V_max + 1e-9)
    assert np.all(traj.positions[1:, :, 2] >= cfg.Z_min - 1e-12)
    assert np.all(traj.positions[1:, :, 2] <= cfg.Z_max + 1e-12)


def test_simulate_heading_change_bounded():
    cfg = small_config(duration=8.0, seed=2)
    traj = simulate(cfg)
    ang = np.arctan2(traj.velocities[:, :, 1], traj.velocities[:, :, 0])
    dphi = np.diff(ang, axis=0)
    dphi = (dphi + np.pi) % (2 * np.pi) - np.pi
    assert np.all(np.abs(dphi) <= cfg.theta_max + 1e-9)


def test_simulate_bitwise_reproducible():
    cfg = small_config(seed=42)
    t1 = simulate(cfg)
    t2 = simulate(cfg)
    np.testing.assert_array_equal(t1.positions, t2.positions)
    np.testing.assert_array_equal(t1.velocities, t2.velocities)


def test_simulate_permutation_equivariance():
    cfg = small_config(L=5, duration=1.0, seed=9)
    frame = init_swarm(cfg, np.random.default_rng(9))
    perm = np.array([3, 0, 4, 1, 2])
    f_direct = Frame(frame.positions[perm].copy(), frame.velocities[perm].copy())
    a, b = frame, f_direct
    for _ in range(10):
        a = step(a, cfg)
        b = step(b, cfg)
    np.testing.assert_allclose(b.positions, a.positions[perm], atol=1e-9)
    np.testing.assert_allclose(b.velocities, a.velocities[perm], atol=1e-9)


def test_cohesion_smoke_property():
    # pure attraction (r_rep ~ 0, huge r_att): mean pairwise distance shrinks
    # over a short window for nearly every seed (one-sided sign test, p < 0.05).
    # A permissive turn limit isolates the zone logic from turn-rate lag.
    wins = 0
    n_seeds = 20
    for seed in range(n_seeds):
        cfg = SwarmConfig(L=4, r_rep=1e-9, r_ali=0.0, r_att=1e12,
                          theta_max=math.pi / 4, duration=2.0, seed=seed)
        traj = simulate(cfg)

        def mean_dist(p):
            d = np.linalg.norm(p[:, None, :] - p[None, :, :], axis=2)
            return d[np.triu_indices(cfg.L, 1)].mean()

        if mean_dist(traj.positions[20]) < mean_dist(traj.positions[0]):
            wins += 1
    # P(X >= 15 | n=20, p=0.5) ~ 0.021
    assert wins >= 15


# --- batched stepping against the per-UAV reference loop ---------------------------
#
# The simulator's step loop before it became array functions, kept as the
# reference the batched step must equal bit for bit, with zone forces taken
# one pair of UAVs at a time.

def reference_limit_speed(v, v_max):
    n = float(np.linalg.norm(v))
    if n == 0.0:
        return np.zeros_like(v)
    return min(n, v_max) / n * v


def reference_limit_turning(v_current, v_desired, v_max, theta_max, preserve_vertical):
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
        out = reference_limit_speed(out, v_max)
    return out


def reference_zone_forces(positions, velocities, cfg):
    """(f_rep, f_ori, f_att) of one swarm, each (L, 3): a neighbour falls in
    the first band whose radius its distance is under, each band sums its
    neighbours in index order, and attraction is minus its sum."""
    L = len(positions)
    sums = np.zeros((3, L, 3))  # repulsion, alignment, attraction
    for i in range(L):
        for j in range(L):
            if i == j:
                continue
            dx, dy, dz = (float(a) - float(b) for a, b in zip(positions[i], positions[j]))
            dist = math.sqrt((dx * dx + dy * dy) + dz * dz)
            if dist < cfg.r_rep:
                sums[0, i] += (dx, dy, dz)
            elif dist < cfg.r_ali:
                sums[1, i] += velocities[j]
            elif dist < cfg.r_att:
                sums[2, i] += (dx, dy, dz)
    return sums[0], sums[1], -sums[2]


def reference_step(frame, cfg):
    """One swarm, one UAV at a time."""
    f_rep, f_ori, f_att = reference_zone_forces(frame.positions, frame.velocities, cfg)
    new_v = np.empty_like(frame.velocities)
    for i in range(frame.positions.shape[0]):
        v_des = frame.velocities[i] + f_rep[i] + f_ori[i] + f_att[i]
        v_des = reference_limit_speed(v_des, cfg.V_max)
        new_v[i] = reference_limit_turning(frame.velocities[i], v_des, cfg.V_max,
                                           cfg.theta_max, cfg.preserve_vertical)
    new_p = frame.positions + new_v * cfg.dt
    new_p[:, 2] = np.clip(new_p[:, 2], cfg.Z_min, cfg.Z_max)
    return Frame(new_p, new_v)


def same_bits(a, b):
    """Equal to the bit, so that 0.0 and -0.0 differ, as they do in a CSV."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def swarm_batches(draw):
    """A config drawn like criterion 1's random_config (with theta_max = pi
    and r_ali = 0 drawn on their own, and up to 12 UAVs so that a pairwise
    sum over neighbours would show), a frame of leading shape (), (R,) or
    (2, R) whose swarms come from their own seeds, and UAVs whose
    horizontal velocity is zero or exactly cancelled by the repulsion of a
    close neighbour."""
    r_rep = draw(st.floats(1.0, 400.0))
    cfg = SwarmConfig(
        L=draw(st.integers(1, 12)),
        V_max=draw(st.floats(5.0, 30.0)),
        theta_max=draw(st.one_of(st.just(math.pi), st.floats(0.005, math.pi))),
        dt=draw(st.sampled_from([0.05, 0.1, 0.2])),
        r_rep=r_rep,
        r_ali=draw(st.one_of(st.just(0.0), st.floats(0.0, 500.0))),
        r_att=draw(st.floats(r_rep, 600.0)),
        preserve_vertical=draw(st.booleans()),
    )
    R = draw(st.integers(1, 4))
    lead = draw(st.sampled_from([(), (R,), (2, R)]))
    n_swarms = math.prod(lead)
    seeds = draw(st.lists(st.integers(0, 2 ** 31 - 1),
                          min_size=n_swarms, max_size=n_swarms))
    starts = [init_swarm(cfg, np.random.default_rng(s)) for s in seeds]
    positions = np.stack([f.positions for f in starts])
    velocities = np.stack([f.velocities for f in starts])
    for r in range(n_swarms):
        kind = draw(st.sampled_from(["none", "zero_current", "zero_desired"]))
        if kind == "zero_current":
            velocities[r, draw(st.integers(0, cfg.L - 1)), :2] = 0.0
        elif kind == "zero_desired" and cfg.L == 2:
            # inside r_rep only repulsion acts, and f_rep = u0 - u1 cancels v0
            offset = draw(st.floats(0.05, 0.9)) * r_rep / math.sqrt(3.0)
            positions[r, 1] = positions[r, 0] + offset
            velocities[r, 0, :2] = -(positions[r, 0] - positions[r, 1])[:2]
    shape = lead + (cfg.L, 3)
    return cfg, Frame(positions.reshape(shape), velocities.reshape(shape))


@given(batch=swarm_batches())
@settings(max_examples=80, deadline=None)
def test_batched_step_equals_per_uav_loop_bit_for_bit(batch):
    cfg, frame = batch
    shape = frame.positions.shape
    refs = [Frame(p, v) for p, v in zip(frame.positions.reshape(-1, cfg.L, 3),
                                        frame.velocities.reshape(-1, cfg.L, 3))]
    for _ in range(5):
        frame = step(frame, cfg)
        refs = [reference_step(f, cfg) for f in refs]
        assert same_bits(frame.positions, np.stack([f.positions for f in refs]).reshape(shape))
        assert same_bits(frame.velocities, np.stack([f.velocities for f in refs]).reshape(shape))


def test_zone_bands_use_the_norms_summation_order():
    # (dx*dx + dy*dy) + dz*dz is np.linalg.norm's order; with r_rep between
    # its root and that of dx*dx + (dy*dy + dz*dz), only the first order
    # puts the pair in the band the reference does
    rng = np.random.default_rng(0)
    found = 0
    while found < 5:
        d = rng.uniform(-250.0, 250.0, 3)
        dist = math.sqrt((d[0] * d[0] + d[1] * d[1]) + d[2] * d[2])
        other = math.sqrt(d[0] * d[0] + (d[1] * d[1] + d[2] * d[2]))
        if dist == other:
            continue
        found += 1
        cfg = small_config(L=2, r_rep=max(dist, other))
        positions, velocities = np.array([d, np.zeros(3)]), np.zeros((2, 3))
        want = reference_zone_forces(positions, velocities, cfg)
        got = swarm._zone_forces(positions.T, velocities.T, cfg)
        assert all(same_bits(g.T, w) for g, w in zip(got, want))


coordinate = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-40.0, 40.0))


@given(v=st.lists(st.tuples(coordinate, coordinate, coordinate,
                            coordinate, coordinate, coordinate), min_size=1, max_size=6),
       theta_max=st.one_of(st.just(math.pi), st.floats(0.005, math.pi)),
       preserve_vertical=st.booleans())
@settings(max_examples=200, deadline=None)
def test_array_limits_equal_scalar_reference(v, theta_max, preserve_vertical):
    v = np.array(v)
    cur, des = v[:, :3], v[:, 3:]  # (n, 3); the limits take coordinate-first (3, n)
    want = np.stack([reference_limit_turning(c, d, 20.0, theta_max, preserve_vertical)
                     for c, d in zip(cur, des)])
    assert same_bits(limit_turning(cur.T, des.T, 20.0, theta_max, preserve_vertical).T, want)
    want = np.stack([reference_limit_speed(d, 20.0) for d in des])
    assert same_bits(limit_speed(des.T, 20.0).T, want)


def test_simulate_batch_equals_one_simulate_per_seed():
    cfg = small_config(L=5, duration=3.0, r_ali=350.0, seed=0)
    seeds = [4, 0, 17]
    positions, velocities = simulate_batch(cfg, seeds)
    assert positions.shape == (3, 31, 5, 3)
    for r, seed in enumerate(seeds):
        traj = simulate(replace(cfg, seed=seed))
        assert same_bits(positions[r], traj.positions)
        assert same_bits(velocities[r], traj.velocities)
    frames = [2, 3, 40, 45]  # past the end of duration: stepping follows frames
    kept, _ = simulate_batch(cfg, seeds, frames)
    longer, _ = simulate_batch(replace(cfg, duration=4.5), seeds)
    assert np.array_equal(kept, longer[:, frames])


@pytest.mark.parametrize("frames", [[], [3, 3], [4, 2], [-1, 2], [[1, 2]], [0.5, 2], [0.0, 2.0],
                                    [False, True]])
def test_simulate_batch_rejects_bad_frames(frames):
    with pytest.raises(ValueError, match="increasing"):
        simulate_batch(small_config(), [0], frames)


def test_simulate_batch_needs_a_seed():
    with pytest.raises(ValueError, match="seed"):
        simulate_batch(small_config(), [])


# --- serialization -----------------------------------------------------------------

def test_trajectory_csv_round_trip(tmp_path):
    traj = simulate(small_config(duration=1.0, seed=13))
    path = tmp_path / "traj.csv"
    save_trajectory_csv(traj, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,uav_id,x,y,z,vx,vy,vz"
    times, pos, vel = load_trajectory_csv(path)
    np.testing.assert_array_equal(pos, traj.positions)
    np.testing.assert_array_equal(vel, traj.velocities)
    expected = np.arange(traj.n_frames) * traj.dt
    np.testing.assert_allclose(times, expected)
    save_trajectory_csv(traj, path, first_step=1)
    np.testing.assert_allclose(load_trajectory_csv(path)[0], expected + traj.dt)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_trajectory_csv(path)


@pytest.mark.parametrize("frame, t", [
    (1, "0"),        # frame 1 repeats frame 0's time: dt = 0
    (2, "0.25"),     # 0, 0.1, 0.25: dt not uniform
], ids=["repeated_time", "uneven_dt"])
def test_load_rejects_bad_frame_times(tmp_path, frame, t):
    traj = simulate(small_config(L=2, duration=0.5, seed=3))
    path = tmp_path / "traj.csv"
    save_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    for n in (1 + 2 * frame, 2 + 2 * frame):
        lines[n] = ",".join([t] + lines[n].split(",")[1:])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="uniform dt"):
        load_trajectory_csv(path)
