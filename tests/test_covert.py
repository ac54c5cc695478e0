import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertswarm import covert as cv
from covertswarm.covert import (
    CovertConfig,
    GroundNetwork,
    baseline_constant_velocity,
    detection_events,
    detection_probability,
    nominal_powers,
    prediction_error,
    transmit_power_bound,
    whole_multiple,
)


def grid_network(n=4, spacing=100.0, **kw):
    side = math.ceil(math.sqrt(n))
    pos = [[spacing * (i % side), spacing * (i // side), 0.0] for i in range(n)]
    return GroundNetwork(np.array(pos), **kw)


def brute_force_bound(net, frame, p_det, nominal):
    # independent (l, n) enumeration in plain scalar arithmetic
    out = np.empty(net.n_nodes)
    for n in range(net.n_nodes):
        w = -math.inf
        for l in range(frame.shape[0]):
            dx = net.positions[n, 0] - frame[l, 0]
            dy = net.positions[n, 1] - frame[l, 1]
            dz = net.positions[n, 2] - frame[l, 2]
            d = math.sqrt(dx * dx + dy * dy + dz * dz)
            w = max(w, d ** -float(net.eta))
        out[n] = min(float(nominal[n]), p_det / w)
    return out


# --- link model ------------------------------------------------------------------

def test_noise_power_default():
    assert cv.DEFAULT_NOISE_W == pytest.approx(3.98e-15, rel=1e-2)
    assert GroundNetwork(np.zeros((1, 3))).N0 == cv.DEFAULT_NOISE_W


# --- link sets and nominal power ---------------------------------------------------

def mean_link_set(net, i, P_i):
    """Indices j != i whose time-averaged SNR from node i meets the threshold."""
    d = np.linalg.norm(net.positions - net.positions[i], axis=1)
    d[i] = np.inf
    gamma_bar = P_i * d ** (-net.eta_t) / net.N0
    return np.flatnonzero(gamma_bar >= net.gamma_t)


def test_mean_link_set_zero_power_empty():
    net = grid_network(4)
    assert mean_link_set(net, 0, 0.0).size == 0


def test_mean_link_set_tiny_threshold_all():
    net = grid_network(4, gamma_t=1e-30)
    links = mean_link_set(net, 0, 1.0)
    np.testing.assert_array_equal(links, [1, 2, 3])


def test_mean_link_set_line_hand_case():
    # nodes on a line at 0, 100, 200 m; eta_t=2, N0=1e-12, gamma_t=10
    pos = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0], [200.0, 0.0, 0.0]])
    net = GroundNetwork(pos, eta_t=2.0, N0=1e-12, gamma_t=10.0, M_bar=1)
    # gamma_bar(d) = P / (d^2 * 1e-12); with P = 1e-7: 10.0 at 100 m, 2.5 at 200 m
    links = mean_link_set(net, 0, 1e-7)
    np.testing.assert_array_equal(links, [1])
    brute = [j for j in (1, 2)
             if 1e-7 * math.dist(pos[0], pos[j]) ** -2.0 / 1e-12 >= 10.0]
    np.testing.assert_array_equal(links, brute)


def nominal_power_oracle(net, i):
    """Node i's nominal power from one distance row and one sort, as the
    per-node code computed it before nominal_powers."""
    if net.M_bar <= 0:
        return 0.0
    d = np.linalg.norm(net.positions - net.positions[i], axis=1)
    d_m = np.sort(np.delete(d, i))[net.M_bar - 1]
    return min(net.gamma_t * net.N0 * d_m ** net.eta_t, net.P_max)


def test_nominal_power_closed_form():
    pos = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0], [200.0, 0.0, 0.0],
                    [300.0, 0.0, 0.0]])
    net = GroundNetwork(pos, eta_t=2.0, N0=1e-12, gamma_t=10.0, M_bar=2)
    # second-nearest neighbour of node 0 is at 200 m
    expected = 10.0 * 1e-12 * 200.0 ** 2
    p = nominal_powers(net)[0]
    assert p == pytest.approx(expected, rel=1e-12)
    assert mean_link_set(net, 0, p).size >= net.M_bar


def test_nominal_power_zero_link_target():
    net = grid_network(4, M_bar=0)
    np.testing.assert_array_equal(nominal_powers(net), np.zeros(4))


def test_nominal_power_capped_with_warning():
    # required power 10 * 1e-12 * (2e6)^2 = 40 W exceeds P_max, for both nodes
    pos = np.array([[0.0, 0.0, 0.0], [2e6, 0.0, 0.0]])
    net = GroundNetwork(pos, eta_t=2.0, N0=1e-12, gamma_t=10.0, M_bar=1, P_max=20.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        np.testing.assert_array_equal(nominal_powers(net), [20.0, 20.0])
    assert [str(w.message) for w in caught] == [
        f"node {i}: required power 40 W exceeds P_max=20.0 W; capped" for i in (0, 1)]


def test_nominal_power_overflow_warns_only_the_capped_nodes():
    # each power, about (1e120)^3, overflows to inf; the capped warnings
    # name each node, and numpy adds none of its own
    pos = np.array([[0.0, 0.0, 0.0], [1e120, 0.0, 0.0], [0.0, 1.0, 0.0]])
    net = GroundNetwork(pos, eta_t=3.0, M_bar=2, P_max=20.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        np.testing.assert_array_equal(nominal_powers(net), [20.0, 20.0, 20.0])
    assert [str(w.message) for w in caught] == [
        f"node {i}: required power inf W exceeds P_max=20.0 W; capped" for i in (0, 1, 2)]


def test_nominal_power_distance_overflow_warns_only_the_capped_nodes():
    # nodes 1e200 m apart: the squared distances already overflow to inf,
    # and still only the capped warnings are given
    pos = np.array([[0.0, 0.0, 0.0], [1e200, 0.0, 0.0], [2e200, 0.0, 0.0]])
    net = GroundNetwork(pos, M_bar=2, P_max=20.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        np.testing.assert_array_equal(nominal_powers(net), [20.0, 20.0, 20.0])
    assert [str(w.message) for w in caught] == [
        f"node {i}: required power inf W exceeds P_max=20.0 W; capped" for i in (0, 1, 2)]


@pytest.mark.parametrize("area", [0.0, -500.0, math.nan, math.inf])
def test_uniform_random_rejects_an_area_not_finite_and_positive(area):
    # area 0 put every node at the origin; a negative one failed inside numpy
    with pytest.raises(ValueError, match=f"area must be finite and > 0, got {area}"):
        GroundNetwork.uniform_random(5, area, np.random.default_rng(0))


@pytest.mark.parametrize("M_bar", [-2, -1, 1.0, 2.5, True, "3", None])
def test_ground_network_rejects_m_bar_other_than_a_whole_number(M_bar):
    # M_bar = -2 gave every node a nominal power of 0 W and every cell P_det 0
    with pytest.raises(ValueError, match="M_bar must be an integer >= 0"):
        GroundNetwork(np.zeros((4, 3)), M_bar=M_bar)


def test_nominal_power_rejects_m_bar_too_large():
    net = grid_network(4, M_bar=4)
    with pytest.raises(ValueError):
        nominal_powers(net)


@pytest.mark.parametrize("n", [2, 25, 200, 1000])
@pytest.mark.parametrize("eta_t", [0.0, 1.3, 2.0, 2.7])
def test_nominal_powers_equal_the_per_node_closed_form_bit_for_bit(n, eta_t):
    # blocks of rows (1000 nodes span several), coincident nodes, nodes far
    # enough apart that a power overflows to inf and is capped
    rng = np.random.default_rng(n)
    for area, M_bar in ((500.0, 1), (500.0, 3), (5e5, 5), (1e150, 1)):
        net = GroundNetwork.uniform_random(n, area, rng, eta_t=eta_t,
                                           M_bar=min(M_bar, n - 1), P_max=1e3)
        net.positions[-1] = net.positions[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = [nominal_power_oracle(net, i) for i in range(n)]
            np.testing.assert_array_equal(nominal_powers(net), want)


# --- transmit power bound -------------------------------------------------------------

def test_bound_single_uav_hand_case():
    # UAV 100 m above the node, eta=1, P_det=1e-6, nominal 20 -> 1e-4 W
    net = GroundNetwork(np.array([[0.0, 0.0, 0.0]]), eta=1.0)
    frame = np.array([[0.0, 0.0, 100.0]])
    p = transmit_power_bound(net, frame, 1e-6, np.array([20.0]))
    assert p[0] == pytest.approx(1e-4, rel=1e-12)


def test_bound_saturates_at_nominal():
    # at 1e200 m the distance overflows to inf and the path gain to 0: the
    # UAV still caps nothing, and no overflow or divide warning escapes
    net = GroundNetwork(np.array([[0.0, 0.0, 0.0]]), eta=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (1e9, 1e200):
            p = transmit_power_bound(net, np.array([[0.0, 0.0, z]]), 1e-6, np.array([20.0]))
            assert p[0] == 20.0


def test_bound_nearest_uav_dominates():
    net = GroundNetwork(np.array([[0.0, 0.0, 0.0]]), eta=1.0)
    near = np.array([[0.0, 0.0, 50.0], [0.0, 0.0, 500.0]])
    only_near = np.array([[0.0, 0.0, 50.0], [0.0, 0.0, 1e8]])
    overflowing = np.array([[0.0, 0.0, 50.0], [1e200, 0.0, 100.0]])
    p_a = transmit_power_bound(net, near, 1e-6, np.array([20.0]))
    p_b = transmit_power_bound(net, only_near, 1e-6, np.array([20.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p_c = transmit_power_bound(net, overflowing, 1e-6, np.array([20.0]))
    p_near = transmit_power_bound(net, near[:1], 1e-6, np.array([20.0]))
    assert p_a[0] == pytest.approx(5e-5)
    assert p_a[0] == p_b[0] == p_c[0] == p_near[0]  # far UAV is irrelevant


def test_bound_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n, l = rng.integers(1, 8), rng.integers(1, 6)
        net = GroundNetwork.uniform_random(n, 500.0, rng,
                                           eta=float(rng.uniform(0.5, 3.0)))
        frame = np.column_stack([rng.uniform(0, 500, (l, 2)),
                                 rng.uniform(50, 150, l)])
        nominal = np.full(n, net.P_max)
        got = transmit_power_bound(net, frame, 1e-6, nominal)
        want = brute_force_bound(net, frame, 1e-6, nominal)
        np.testing.assert_array_equal(got, want)


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 1000), l=st.integers(1, 8),
       eta=st.just(0.0) | st.floats(0.0, 3.0), tie=st.none() | st.floats(1.0, 49.0))
@settings(max_examples=100, deadline=None)
def test_bound_equals_oracle_bit_for_bit(seed, n, l, eta, tie):
    rng = np.random.default_rng(seed)
    net = GroundNetwork.uniform_random(n, 500.0, rng, eta=eta)
    frame = np.column_stack([rng.uniform(0, 500, (l, 2)), rng.uniform(50, 150, l)])
    if tie is not None:
        # two UAVs straight above one node at heights h and the next float up;
        # sqrt(fl(h*h)) == h, so the node's two nearest distances are adjacent
        # floats, where a pow that is not monotone would pick the wrong one
        above = np.tile(net.positions[rng.integers(n)], (2, 1))
        above[:, 2] = [tie, np.nextafter(tie, np.inf)]
        frame = rng.permutation(np.vstack([frame, above]))
    nominal = rng.uniform(0.0, net.P_max, n)
    got = transmit_power_bound(net, frame, 1e-6, nominal)
    np.testing.assert_array_equal(got, brute_force_bound(net, frame, 1e-6, nominal))


def squared_distance(node, uav):
    """The per-pair loop's squared distance."""
    dx, dy, dz = node[0] - uav[0], node[1] - uav[1], node[2] - uav[2]
    return dx * dx + dy * dy + dz * dz


def same_bits(a, b):
    """Equal to the bit, so that 0.0 and -0.0 differ, as they do in a CSV."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def pow_or_inf(x, y):
    """Python's pow, which is libm's on floats, with inf where it raises for
    an overflow (or the pole at x = 0)."""
    try:
        return pow(x, y)
    except (OverflowError, ZeroDivisionError):
        return math.inf


def edge_powers():
    d = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-200, 1.5e-154, 0.5, 1.0,
         2.0, 20.0, 1e154, 1e200, 1.7976931348623157e308, math.inf]
    e = [0.0, 5e-324, 1e-300, 0.5, 1.0, 2.0, 2.7, 3.0, 1e300, 1.7976931348623157e308]
    return np.array([(x, y) for x in d for y in e + [-y for y in e]]).T


def wide_powers():
    rng = np.random.default_rng(1915)
    d = np.abs(rng.standard_normal(10 ** 5)) * 10.0 ** rng.uniform(-300.0, 300.0, 10 ** 5)
    e = np.array([0.0, 0.5, 1.0, 2.0, 2.7, 3.0])
    e = np.concatenate([e, -e])
    return np.tile(d, e.size), np.repeat(e, d.size)


@pytest.mark.parametrize("powers", [edge_powers, wide_powers])
def test_float_power_is_libm_pow_to_the_bit(powers):
    # the power bound and nominal_powers take path gains from np.float_power
    # on the assumption that numpy has no SIMD loop for it on float64 and so
    # calls the C library's pow per element, as Python's pow does (np.power's
    # SIMD loop differs in the last bit); a numpy or libm that breaks it must
    # fail here, not shift bounds
    d, e = powers()
    want = np.array(list(map(pow_or_inf, d.tolist(), e.tolist())))
    with np.errstate(all="ignore"):
        got = np.float_power(d, e)
    assert same_bits(got, want), (
        "np.float_power is no longer libm's pow bit for bit: the power bound's "
        "exactness rests on this numpy/libm assumption")


def test_bound_and_nominal_powers_take_their_pow_from_float_power(monkeypatch):
    # the pin above holds for the kernel only while it calls np.float_power
    seen, float_power = [], np.float_power

    def recording_float_power(x, y, **kwargs):
        x = np.array(x)  # a copy: the kernel writes the gains over the distances
        out = float_power(x, y, **kwargs)
        seen.append((x, y, out.copy()))
        return out

    monkeypatch.setattr(np, "float_power", recording_float_power)
    rng = np.random.default_rng(3)
    net = GroundNetwork.uniform_random(40, 500.0, rng, eta=2.7, eta_t=1.3)
    frames = np.column_stack([rng.uniform(0, 500, (12, 2)), rng.uniform(50, 150, 12)])
    transmit_power_bound(net, frames.reshape(4, 3, 3), 1e-6, nominal_powers(net))
    assert [y for _, y, _ in seen] == [1.3, -2.7], \
        "nominal_powers or the power bound no longer takes its pow from np.float_power"
    for x, y, out in seen:
        assert same_bits(out, np.array([pow(v, y) for v in x.ravel().tolist()])
                         .reshape(x.shape))


@pytest.mark.parametrize("eta", [0.0, 0.5, 1.0, 2.7])
def test_bound_on_tied_and_adjacent_squared_distances_equals_the_oracle(eta):
    # the kernel takes the min over UAVs of squared distances before the
    # sqrt; two UAVs at equal squared distances from a node, and two one ulp
    # apart, must give the loop's bits
    net = grid_network(9, spacing=37.0, eta=eta)
    node = net.positions[4]
    a, mirror = node + [300.0, 0.0, 0.5], node + [-300.0, 0.0, 0.5]
    s = squared_distance(node, a)
    assert squared_distance(node, mirror) == s
    b = next(b for b in (node + [300.0, 0.0, 0.5 + j * 1e-11] for j in range(1, 10))
             if squared_distance(node, b) == np.nextafter(s, math.inf))
    nominal = np.full(9, net.P_max)
    for frame in ([a, mirror], [mirror, a], [a, b], [b, a], [b, mirror, a]):
        frame = np.array(frame)
        np.testing.assert_array_equal(transmit_power_bound(net, frame, 1e-6, nominal),
                                      brute_force_bound(net, frame, 1e-6, nominal))


def test_bound_with_a_node_at_negative_zero_height_and_a_uav_on_the_ground():
    # ground nodes may sit at z = -0.0, and a UAV may fly at z = 0 away from
    # every node: dz*dz is the UAV's z*z either way
    pos = np.array([[0.0, 0.0, -0.0], [100.0, 0.0, 0.0], [0.0, 250.0, -0.0]])
    net = GroundNetwork(pos, eta=1.7)
    nominal = np.full(3, net.P_max)
    for frame in ([[50.0, 50.0, 0.0]], [[50.0, 50.0, -0.0], [10.0, -20.0, 80.0]],
                  [[1e-160, 0.0, 0.0]]):
        frame = np.array(frame)
        np.testing.assert_array_equal(transmit_power_bound(net, frame, 1e-6, nominal),
                                      brute_force_bound(net, frame, 1e-6, nominal))


@pytest.mark.parametrize("uav", [[1e-170, 0.0, 0.0], [0.0, -1e-170, 0.0],
                                 [0.0, 0.0, 1e-170], [1e-170, 1e-170, -1e-170]])
def test_bound_raises_when_squares_underflow_to_zero(uav):
    # a UAV 1e-170 m from a node: every square underflows to 0, so the loop's
    # distance is 0 and the kernel raises as it did
    net = GroundNetwork(np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]]), eta=1.0)
    assert squared_distance(net.positions[0], uav) == 0.0
    frame = np.array([[20.0, 30.0, 90.0], uav])
    with pytest.raises(ValueError, match="d = 0"):
        transmit_power_bound(net, frame, 1e-6, np.full(2, net.P_max))


@pytest.mark.parametrize("api", ["transmit_power_bound", "detection_probability"])
def test_bound_raises_when_path_gain_overflows(api):
    # at eta = 3 a UAV 1e-110 m from a node has gain 1e330, past the float
    # range; at 1e-100 m the gain 1e300 is finite and the bound is exact
    net = GroundNetwork(np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]]), eta=3.0)
    nominal = np.full(2, net.P_max)
    near = np.array([[20.0, 30.0, 90.0], [1e-100, 0.0, 0.0]])
    np.testing.assert_array_equal(transmit_power_bound(net, near, 1e-6, nominal),
                                  brute_force_bound(net, near, 1e-6, nominal))
    frame = np.array([[20.0, 30.0, 90.0], [1e-110, 0.0, 0.0]])
    with pytest.raises(ValueError, match="overflows"):
        if api == "transmit_power_bound":
            transmit_power_bound(net, frame, 1e-6, nominal)
        else:
            detection_probability([net], [near[None]], [frame[None]], CovertConfig(runs=1))


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 50), l=st.integers(1, 8),
       data=st.data())
@settings(max_examples=50, deadline=None)
def test_bound_rejects_any_uav_at_a_node(seed, n, l, data):
    rng = np.random.default_rng(seed)
    net = GroundNetwork.uniform_random(n, 500.0, rng)
    frame = np.column_stack([rng.uniform(0, 500, (l, 2)), rng.uniform(50, 150, l)])
    frame[data.draw(st.integers(0, l - 1))] = net.positions[data.draw(st.integers(0, n - 1))]
    with pytest.raises(ValueError, match="d = 0"):
        transmit_power_bound(net, frame, 1e-6, np.full(n, net.P_max))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bound_rejects_non_finite_frame(bad):
    net = grid_network(4, eta=1.0)
    for col in range(3):
        frame = np.array([[0.0, 0.0, 100.0], [50.0, 50.0, 80.0]])
        frame[1, col] = bad
        with pytest.raises(ValueError, match="non-finite"):
            transmit_power_bound(net, frame, 1e-6, np.full(4, net.P_max))


def test_bound_on_stacked_frames_equals_its_per_frame_calls():
    rng = np.random.default_rng(8)
    net = GroundNetwork.uniform_random(30, 500.0, rng, eta=1.5)
    nominal = rng.uniform(0.0, net.P_max, 30)
    frames = np.column_stack([rng.uniform(0, 500, (2 * 5 * 3, 2)),
                              rng.uniform(50, 150, 2 * 5 * 3)]).reshape(2, 5, 3, 3)
    got = transmit_power_bound(net, frames, 1e-6, nominal)
    assert got.shape == (2, 5, 30)
    for a in range(2):
        np.testing.assert_array_equal(transmit_power_bound(net, frames[a], 1e-6, nominal),
                                      got[a])
        for b in range(5):
            np.testing.assert_array_equal(
                transmit_power_bound(net, frames[a, b], 1e-6, nominal), got[a, b])


def test_bound_monotone_in_proximity():
    # moving one UAV strictly closer never increases any node's power
    rng = np.random.default_rng(2)
    net = GroundNetwork.uniform_random(5, 500.0, rng, eta=1.0)
    frame = np.column_stack([rng.uniform(0, 500, (3, 2)), rng.uniform(50, 150, 3)])
    nominal = np.full(5, net.P_max)
    p0 = transmit_power_bound(net, frame, 1e-6, nominal)
    for n in range(5):
        closer = frame.copy()
        closer[0] = net.positions[n] + 0.5 * (frame[0] - net.positions[n])
        p1 = transmit_power_bound(net, closer, 1e-6, nominal)
        assert p1[n] <= p0[n] + 1e-18


def test_bound_validates_inputs():
    net = GroundNetwork(np.array([[0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        transmit_power_bound(net, np.array([[0.0, 0.0, 0.0]]), 1e-6, np.array([20.0]))
    with pytest.raises(ValueError):
        transmit_power_bound(net, np.array([[0.0, 0.0, 100.0]]), 1e-6, np.array([25.0]))


@pytest.mark.parametrize("nominal", [[math.nan, 1.0], [1.0, -math.nan]])
def test_bound_rejects_nan_nominal_power(nominal):
    # a NaN nominal power passed the range check: its node's bound was NaN,
    # and detection_probability flagged that node False
    net = grid_network(2, eta=1.0)
    frame = np.array([[20.0, 30.0, 90.0]])
    with pytest.raises(ValueError, match=r"nominal powers must lie in \[0, P_max\]"):
        transmit_power_bound(net, frame, 1e-6, np.array(nominal))
    with pytest.raises(ValueError, match=r"nominal powers must lie in \[0, P_max\]"):
        detection_probability([net], [frame[None]], [frame[None]], CovertConfig(runs=1),
                              [nominal])


@pytest.mark.parametrize("P_det", [0.0, -1e-6, math.nan, math.inf, -math.inf])
def test_bound_rejects_p_det_not_finite_and_positive(P_det):
    # -1e-6 gave negative bounds and NaN gave NaN bounds, silently
    net = grid_network(2, eta=1.0)
    frame = np.array([[20.0, 30.0, 90.0]])
    with pytest.raises(ValueError, match="P_det must be finite and > 0"):
        transmit_power_bound(net, frame, P_det, np.full(2, net.P_max))


def test_ground_network_validation():
    with pytest.raises(ValueError):
        GroundNetwork(np.array([[0.0, 0.0, 5.0]]))
    with pytest.raises(ValueError):
        GroundNetwork(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        GroundNetwork(np.zeros((2, 3)), P_max=0.0)
    with pytest.raises(ValueError, match="finite"):
        GroundNetwork(np.array([[np.nan, 0.0, 0.0]]))


@pytest.mark.parametrize("field, value", [
    (f, v) for f in ("P_max", "N0", "gamma_t") for v in (0.0, -1.0, math.nan, math.inf)
] + [(f, v) for f in ("eta", "eta_t") for v in (-1.0, math.nan, math.inf)])
def test_ground_network_rejects_non_finite_or_out_of_range_link_settings(field, value):
    # a NaN gamma_t made every nominal power NaN and every P_det 0; a NaN eta
    # was only caught by the kernel's "same eta" check, under its words
    with pytest.raises(ValueError, match=f"{field}|path-loss"):
        GroundNetwork(np.zeros((2, 3)), **{field: value})


# --- prediction metrics -----------------------------------------------------------------

def test_prediction_error_perfect():
    frame = np.arange(12.0).reshape(4, 3)
    assert prediction_error(frame, frame) == 0.0


def test_prediction_error_matches_loop():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 3))
    b = rng.normal(size=(5, 3))
    acc = sum(np.sum((a[i] - b[i]) ** 2) for i in range(5)) / 5
    assert prediction_error(a, b) == pytest.approx(acc, rel=1e-12)


def test_prediction_error_shape_mismatch():
    with pytest.raises(ValueError):
        prediction_error(np.zeros((2, 3)), np.zeros((3, 3)))


# --- constant-velocity baseline ----------------------------------------------------------

def test_cv_baseline_stationary():
    frames = np.zeros((2, 3, 3))
    pred = baseline_constant_velocity(frames, 5)
    np.testing.assert_array_equal(pred, np.zeros((5, 3, 3)))


def test_cv_baseline_straight_line_exact():
    t = np.arange(12.0)
    truth = np.stack([np.column_stack([t * 2, t * -1, np.full(12, 80.0)])], axis=1)
    pred = baseline_constant_velocity(truth[0:2], 10)
    np.testing.assert_allclose(pred, truth[2:12], atol=1e-12)


def test_cv_baseline_error_grows_on_turning_path():
    from covertswarm import swarm
    traj = swarm.simulate(swarm.SwarmConfig(L=4, duration=12.0, seed=5))
    pred = baseline_constant_velocity(traj.positions[0:2], 100)
    errs = [prediction_error(traj.positions[1 + s], pred[s - 1])
            for s in (10, 50, 100)]
    assert errs[0] < errs[1] < errs[2]


def test_cv_baseline_needs_two_frames():
    with pytest.raises(ValueError):
        baseline_constant_velocity(np.zeros((1, 2, 3)), 5)


# --- detection --------------------------------------------------------------------------

def make_checks(d_true, d_pred, C=3):
    # one node at origin, one UAV hovering at the given altitudes
    true = np.tile(np.array([[0.0, 0.0, d_true]]), (C, 1, 1))
    pred = np.tile(np.array([[0.0, 0.7 * d_pred, 0.714142842854285 * d_pred]]),
                   (C, 1, 1))
    # keep pred distance exactly d_pred from origin
    pred[:, 0, 1] = 0.0
    pred[:, 0, 2] = d_pred
    return true, pred


def test_perfect_prediction_never_detected():
    net = GroundNetwork(np.array([[0.0, 0.0, 0.0]]), eta=1.0)
    true, _ = make_checks(100.0, 100.0)
    for lam in (0.1, 0.5, 0.9):
        covert = CovertConfig(lambda_=lam, runs=1)
        flags, _, _ = detection_events(net, true, true, covert,
                                       np.array([net.P_max]))
        assert not flags.any()


def test_detection_hand_case():
    # true bound is 0.4 of predicted; lambda=0.5 -> detected
    net = GroundNetwork(np.array([[0.0, 0.0, 0.0]]), eta=1.0)
    true, pred = make_checks(40.0, 100.0)  # P ~ d under eta=1
    covert = CovertConfig(lambda_=0.5, runs=1)
    flags, p_true, p_pred = detection_events(net, true, pred, covert,
                                             np.array([net.P_max]))
    assert np.allclose(p_true, 0.4 * p_pred)
    assert flags.all()


def test_detection_boundary_not_detected():
    # equality P = lambda * P_hat is not a detection (strict <)
    net = GroundNetwork(np.array([[0.0, 0.0, 0.0]]), eta=1.0)
    true, pred = make_checks(50.0, 100.0)
    covert = CovertConfig(lambda_=0.5, runs=1)
    flags, _, _ = detection_events(net, true, pred, covert, np.array([net.P_max]))
    assert not flags.any()


def test_detection_lambda_monotonicity_event_inclusion():
    rng = np.random.default_rng(4)
    net = GroundNetwork.uniform_random(6, 500.0, rng, eta=1.0)
    true = np.column_stack([rng.uniform(0, 500, (4 * 3, 2)),
                            rng.uniform(50, 150, 12)]).reshape(4, 3, 3)
    pred = true + rng.normal(scale=40.0, size=true.shape)
    pred[:, :, 2] = np.abs(pred[:, :, 2]) + 1.0
    nominal = np.full(6, net.P_max)
    prev = None
    for lam in (0.1, 0.5, 0.9):
        covert = CovertConfig(lambda_=lam, runs=1)
        flags, _, _ = detection_events(net, true, pred, covert, nominal)
        if prev is not None:
            assert np.all(prev <= flags)  # event-set inclusion
        prev = flags


def test_detection_probability_aggregates_runs():
    net = GroundNetwork(np.array([[0.0, 0.0, 0.0]]), eta=1.0)
    t_hit, p_hit = make_checks(40.0, 100.0)
    t_ok, p_ok = make_checks(100.0, 100.0)
    covert = CovertConfig(lambda_=0.5, runs=4)
    report = detection_probability(net, [t_hit, t_ok, t_ok, t_ok],
                                   [p_hit, p_ok, p_ok, p_ok], covert)
    assert report.p_det == 0.25
    np.testing.assert_array_equal(report.run_detected, [True, False, False, False])
    assert report.eps_pred.shape == (4, 3)


def test_detection_probability_monotone_in_n_and_h():
    rng = np.random.default_rng(5)
    nets, trues, preds = [], [], []
    for _ in range(6):
        net = GroundNetwork.uniform_random(8, 500.0, rng, eta=1.0)
        true = np.column_stack([rng.uniform(0, 500, (5 * 4, 2)),
                                rng.uniform(50, 150, 20)]).reshape(5, 4, 3)
        pred = true + rng.normal(scale=60.0, size=true.shape)
        pred[:, :, 2] = np.abs(pred[:, :, 2]) + 1.0
        nets.append(net)
        trues.append(true)
        preds.append(pred)
    covert = CovertConfig(lambda_=0.6, runs=6)
    report = detection_probability(nets, trues, preds, covert)
    # N-monotonicity over node prefixes, H-monotonicity over time prefixes
    for axis_slices, axis in (([report.detected[:, :, :k] for k in range(1, 9)], "N"),
                              ([report.detected[:, :k, :] for k in range(1, 6)], "H")):
        dets = [s.any(axis=(1, 2)).mean() for s in axis_slices]
        assert all(a <= b + 1e-15 for a, b in zip(dets, dets[1:])), axis


def test_detection_misaligned_rejected():
    net = GroundNetwork(np.array([[0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        detection_events(net, np.zeros((3, 1, 3)), np.zeros((2, 1, 3)),
                         CovertConfig(), np.array([20.0]))


def test_report_serialization(tmp_path):
    net = GroundNetwork(np.array([[0.0, 0.0, 0.0]]), eta=1.0)
    true, pred = make_checks(40.0, 100.0)
    covert = CovertConfig(lambda_=0.5, runs=2)
    report = detection_probability(net, [true, true], [pred, pred], covert)
    assert report.p_det == 1.0
    cpath = tmp_path / "audit.csv"
    report.save_summary_csv(cpath)
    lines = cpath.read_text().splitlines()
    assert lines[0] == "run,delta_t,node,P_true,P_pred,detected"
    assert len(lines) == 1 + 2 * 3 * 1
    assert all(line.endswith(",1") for line in lines[1:])


def random_runs(rng, runs, n_nodes, C=3, L=2):
    nets, trues, preds = [], [], []
    for _ in range(runs):
        nets.append(GroundNetwork.uniform_random(n_nodes, 500.0, rng, eta=1.0))
        true = np.column_stack([rng.uniform(0, 500, (C * L, 2)),
                                rng.uniform(50, 150, C * L)]).reshape(C, L, 3)
        pred = true + rng.normal(scale=60.0, size=true.shape)
        pred[:, :, 2] = np.abs(pred[:, :, 2]) + 1.0
        trues.append(true)
        preds.append(pred)
    return nets, trues, preds


def test_detection_probability_per_run_nominal_equals_runs_alone():
    rng = np.random.default_rng(6)
    nets, trues, preds = random_runs(rng, 4, 5)
    nominals = [rng.uniform(0.0, 20.0, 5) for _ in range(4)]
    covert = CovertConfig(lambda_=0.6, runs=4)
    report = detection_probability(nets, trues, preds, covert, nominals)
    for r in range(4):
        alone = detection_probability(nets[r], [trues[r]], [preds[r]], covert, nominals[r])
        for field in ("p_true", "p_pred", "eps_pred", "detected"):
            np.testing.assert_array_equal(getattr(report, field)[r], getattr(alone, field)[0])


def test_report_cell_equals_the_engine_on_the_first_nodes():
    rng = np.random.default_rng(7)
    nets, trues, preds = random_runs(rng, 5, 8)
    report = detection_probability(nets, trues, preds, CovertConfig(lambda_=0.5, runs=5))
    for lam, n in ((0.9, 3), (0.5, 8), (0.2, 1)):
        small = [GroundNetwork(net.positions[:n], eta=1.0) for net in nets]
        want = detection_probability(small, trues, preds, CovertConfig(lambda_=lam, runs=5))
        cell = report.cell(lam, n)
        np.testing.assert_array_equal(cell.detected, want.detected)
        assert cell.p_det == want.p_det and cell.eps_mean == want.eps_mean
    with pytest.raises(ValueError):
        report.cell(0.5, 0)


@given(seed=st.integers(0, 2 ** 32 - 1), runs=st.integers(1, 4), C=st.integers(1, 3),
       L=st.integers(1, 4), eta=st.floats(0.0, 3.0), per_run_nominal=st.booleans(),
       data=st.data())
@settings(max_examples=40, deadline=None)
def test_detection_probability_equals_a_per_frame_loop_bit_for_bit(
        seed, runs, C, L, eta, per_run_nominal, data):
    # a few nodes put several runs in one block of the kernel; enough nodes
    # that one frame's distances fill a block on their own, with the block
    # shrunk so that the per-pair loop below stays quick
    block = 4096
    n = data.draw(st.integers(1, 40) | st.integers(block // L, block // L + 40))
    rng = np.random.default_rng(seed)
    nets = [GroundNetwork.uniform_random(n, 500.0, rng, eta=eta,
                                         P_max=float(rng.uniform(1.0, 20.0)))
            for _ in range(runs)]
    true = np.column_stack([rng.uniform(0, 500, (runs * C * L, 2)),
                            rng.uniform(50, 150, runs * C * L)]).reshape(runs, C, L, 3)
    pred = true + rng.normal(scale=60.0, size=true.shape)
    pred[..., 2] = np.abs(pred[..., 2]) + 1.0
    nominal = [rng.uniform(0.0, net.P_max, n) for net in nets] if per_run_nominal else None
    covert = CovertConfig(lambda_=0.5, runs=runs)
    with mock.patch.object(cv, "_BLOCK_DISTANCES", block):
        report = detection_probability(nets, true, pred, covert, nominal)
    for r, net in enumerate(nets):
        nom = nominal[r] if per_run_nominal else np.full(n, net.P_max)
        for c in range(C):
            np.testing.assert_array_equal(report.p_true[r, c],
                                          brute_force_bound(net, true[r, c], 1e-6, nom))
            np.testing.assert_array_equal(report.p_pred[r, c],
                                          brute_force_bound(net, pred[r, c], 1e-6, nom))
            assert report.eps_pred[r, c] == prediction_error(true[r, c], pred[r, c])


@pytest.mark.parametrize("frames_per_block", [40, 1])
@pytest.mark.parametrize("fault", ["d = 0", "non-finite"])
def test_detection_probability_raises_on_a_fault_in_the_last_block(frames_per_block, fault):
    rng = np.random.default_rng(9)
    block = 4096
    n_nodes = block // (3 * frames_per_block)
    nets, trues, preds = random_runs(rng, 5, n_nodes, C=4, L=3)
    preds = np.array(preds)
    preds[-1, -1, -1] = nets[-1].positions[-1] if fault == "d = 0" else np.nan
    with mock.patch.object(cv, "_BLOCK_DISTANCES", block), \
            pytest.raises(ValueError, match=fault):
        detection_probability(nets, trues, preds, CovertConfig(runs=5))


def test_detection_probability_rejects_mixed_path_loss_exponents():
    rng = np.random.default_rng(10)
    nets, trues, preds = random_runs(rng, 3, 4)
    nets[1] = GroundNetwork(nets[1].positions, eta=2.0)
    with pytest.raises(ValueError, match="eta"):
        detection_probability(nets, trues, preds, CovertConfig(runs=3))


def test_prediction_error_per_frame_over_leading_axes():
    rng = np.random.default_rng(11)
    a, b = rng.normal(size=(2, 3, 5, 3)), rng.normal(size=(2, 3, 5, 3))
    eps = prediction_error(a, b)
    assert eps.shape == (2, 3)
    assert all(eps[i, j] == prediction_error(a[i, j], b[i, j])
               for i in range(2) for j in range(3))
    assert isinstance(prediction_error(a[0, 0], b[0, 0]), float)


def test_covert_config_validation():
    with pytest.raises(ValueError):
        CovertConfig(lambda_=0.0)
    with pytest.raises(ValueError):
        CovertConfig(lambda_=1.0)
    for P_det in (0.0, -1e-6, math.nan, math.inf):
        with pytest.raises(ValueError, match="P_det must be finite and > 0"):
            CovertConfig(P_det=P_det)
    with pytest.raises(ValueError):
        CovertConfig(runs=0)


@pytest.mark.parametrize("horizon, interval", [(2.5, 1.0), (1.0, 3.0), (10.0, 4.0)])
def test_covert_config_rejects_horizon_off_the_report_grid(horizon, interval):
    with pytest.raises(ValueError, match="whole multiple of the report interval"):
        CovertConfig(horizon_s=horizon, report_interval_s=interval)


def test_covert_config_checks_on_the_report_grid():
    assert CovertConfig(horizon_s=0.3, report_interval_s=0.1).n_checks == 3
    assert CovertConfig(horizon_s=10.0, report_interval_s=1.0).n_checks == 10
    assert whole_multiple(0.25, 0.1) == 0
    assert whole_multiple(0.04, 0.1) == 0
    assert whole_multiple(math.inf, 1.0) == 0
