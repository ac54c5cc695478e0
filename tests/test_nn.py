import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertswarm import nn
from covertswarm.nn import (
    AdamState,
    DenseLayer,
    SageLayer,
    adam_step,
    dense_backward,
    dense_forward,
    elu,
    elu_grad,
    grad_check,
    make_dense,
    make_sage,
    mse,
    mse_grad,
    sage_backward,
    sage_forward,
)


# --- activations ---------------------------------------------------------------

def test_elu_values():
    assert elu(0.0) == 0.0
    assert elu(-1.0) == pytest.approx(math.exp(-1) - 1)
    assert elu(-50.0) == pytest.approx(-1.0, abs=1e-12)
    assert elu(3.5) == 3.5


def test_elu_grad_continuous_at_zero():
    assert elu_grad(0.0) == 1.0
    assert elu_grad(-1e-12) == pytest.approx(1.0, abs=1e-9)


@given(st.floats(-20, 20), st.floats(-20, 20))
@settings(max_examples=50, deadline=None)
def test_elu_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert elu(lo) <= elu(hi) + 1e-12


def test_tanh_zero():
    assert nn._activate("tanh", 0.0) == 0.0


# --- dense layer -----------------------------------------------------------------

def test_dense_identity():
    layer = DenseLayer(np.eye(2), np.zeros(2), "identity")
    np.testing.assert_array_equal(dense_forward(layer, np.array([1.0, 2.0])), [1.0, 2.0])


def test_dense_tanh_zero_input():
    layer = DenseLayer(np.ones((3, 2)), np.zeros(3), "tanh")
    np.testing.assert_array_equal(dense_forward(layer, np.zeros(2)), np.zeros(3))


def test_dense_shape_mismatch():
    layer = DenseLayer(np.eye(2), np.zeros(2), "identity")
    with pytest.raises(ValueError):
        dense_forward(layer, np.zeros(3))


@pytest.mark.parametrize("activation", ["elu", "tanh", "identity"])
def test_dense_backward_matches_finite_differences(activation):
    rng = np.random.default_rng(0)
    layer = make_dense(rng, 3, 4, activation)
    x = rng.normal(size=3)
    target = rng.normal(size=4)

    def loss():
        return mse(dense_forward(layer, x), target)

    def grads():
        up = mse_grad(dense_forward(layer, x), target)
        _, dW, db = dense_backward(layer, x, up)
        return [dW, db]

    report = grad_check(loss, grads, [layer.W, layer.b])
    assert report["max_rel_err"] < 1e-4


def test_dense_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    layer = make_dense(rng, 3, 4, "elu")
    x = rng.normal(size=3)
    target = rng.normal(size=4)
    up = mse_grad(dense_forward(layer, x), target)
    dx, _, _ = dense_backward(layer, x, up)
    num = np.zeros(3)
    h = 1e-6
    for k in range(3):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        num[k] = (mse(dense_forward(layer, xp), target)
                  - mse(dense_forward(layer, xm), target)) / (2 * h)
    np.testing.assert_allclose(dx, num, rtol=1e-5, atol=1e-10)


def test_dense_batched_forward_matches_loop():
    rng = np.random.default_rng(2)
    layer = make_dense(rng, 3, 2, "tanh")
    X = rng.normal(size=(5, 3))
    batched = dense_forward(layer, X)
    for i in range(5):
        np.testing.assert_allclose(batched[i], dense_forward(layer, X[i]))


# --- sage layer --------------------------------------------------------------------

def test_sage_no_neighbors_reduces_to_dense_self():
    rng = np.random.default_rng(3)
    layer = make_sage(rng, 3, 4, "elu")
    X = rng.normal(size=(5, 3))
    A = np.zeros((5, 5))
    out = sage_forward(layer, X, A)
    expected = nn._activate("elu", X @ layer.W_self.T + layer.b)
    np.testing.assert_allclose(out, expected)


def test_sage_complete_graph_identical_rows():
    rng = np.random.default_rng(4)
    layer = make_sage(rng, 3, 4, "tanh")
    x = rng.normal(size=3)
    X = np.tile(x, (4, 1))
    A = np.ones((4, 4)) - np.eye(4)
    out = sage_forward(layer, X, A)
    # neighbor mean equals x, so every row sees (x, x)
    for i in range(1, 4):
        np.testing.assert_allclose(out[i], out[0])


def test_sage_permutation_equivariance():
    rng = np.random.default_rng(5)
    layer = make_sage(rng, 3, 4, "elu")
    X = rng.normal(size=(6, 3))
    A = (rng.random((6, 6)) < 0.4).astype(float)
    A = np.triu(A, 1)
    A = A + A.T
    perm = rng.permutation(6)
    P = np.eye(6)[perm]
    out = sage_forward(layer, X, A)
    out_p = sage_forward(layer, X[perm], A[np.ix_(perm, perm)])
    np.testing.assert_allclose(out_p, P @ out, atol=1e-12)


def test_sage_backward_matches_finite_differences():
    rng = np.random.default_rng(6)
    layer = make_sage(rng, 3, 4, "elu")
    X = rng.normal(size=(5, 3))
    A = (rng.random((5, 5)) < 0.5).astype(float)
    A = np.triu(A, 1)
    A = A + A.T
    target = rng.normal(size=(5, 4))

    def loss():
        return mse(sage_forward(layer, X, A), target)

    def grads():
        up = mse_grad(sage_forward(layer, X, A), target)
        _, dWs, dWn, db = sage_backward(layer, X, A, up)
        return [dWs, dWn, db]

    report = grad_check(loss, grads, [layer.W_self, layer.W_neigh, layer.b])
    assert report["max_rel_err"] < 1e-4


def test_sage_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    layer = make_sage(rng, 2, 3, "tanh")
    X = rng.normal(size=(4, 2))
    A = np.ones((4, 4)) - np.eye(4)
    target = rng.normal(size=(4, 3))
    up = mse_grad(sage_forward(layer, X, A), target)
    dX, _, _, _ = sage_backward(layer, X, A, up)
    h = 1e-6
    num = np.zeros_like(X)
    for i in range(4):
        for j in range(2):
            Xp, Xm = X.copy(), X.copy()
            Xp[i, j] += h
            Xm[i, j] -= h
            num[i, j] = (mse(sage_forward(layer, Xp, A), target)
                         - mse(sage_forward(layer, Xm, A), target)) / (2 * h)
    np.testing.assert_allclose(dX, num, rtol=1e-5, atol=1e-10)


# --- saved forward values ---------------------------------------------------------------

@pytest.mark.parametrize("activation", ["elu", "tanh", "identity"])
def test_dense_backward_from_saved_equals_recomputed_bitwise(activation):
    rng = np.random.default_rng(11)
    layer = make_dense(rng, 5, 7, activation)
    x = rng.normal(scale=2.0, size=(64, 5))
    up = rng.normal(size=(64, 7))
    y, saved = dense_forward(layer, x, keep=True)
    np.testing.assert_array_equal(y, dense_forward(layer, x))
    for a, b in zip(dense_backward(layer, x, up, saved), dense_backward(layer, x, up)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("activation", ["elu", "tanh", "identity"])
def test_dense_pass_equals_the_plain_expressions_bitwise(activation):
    """The in-place bias add and activation derivative change no bit."""
    rng = np.random.default_rng(14)
    layer = make_dense(rng, 5, 7, activation)
    x = rng.normal(scale=2.0, size=(64, 5))
    up = rng.normal(size=(64, 7))
    z = x @ layer.W.T + layer.b
    y, dact = {"elu": (nn.elu(z), nn.elu_grad(z)),
               "tanh": (np.tanh(z), 1.0 - np.tanh(z) * np.tanh(z)),
               "identity": (z, 1.0)}[activation]
    dz = up * dact
    assert np.array_equal(dense_forward(layer, x), y)
    dx, dW, db = dense_backward(layer, x, up)
    assert np.array_equal(dW, dz.T @ x) and np.array_equal(db, dz.sum(axis=0))
    assert np.array_equal(dx, dz @ layer.W)


@pytest.mark.parametrize("activation", ["elu", "tanh", "identity"])
def test_dense_pass_into_buffers_equals_fresh_arrays_bitwise(activation):
    rng = np.random.default_rng(15)
    layer = make_dense(rng, 5, 7, activation)
    layer.b[:] = rng.normal(size=7)
    x = rng.normal(scale=2.0, size=(64, 5))
    up = rng.normal(size=(64, 7))
    y, saved = dense_forward(layer, x, keep=True)
    out = np.full((64, 7), np.nan)
    y_out, saved_out = dense_forward(layer, x, keep=True, out=out)
    assert np.array_equal(y_out, y)
    assert np.shares_memory(y_out, out) == (activation != "elu")
    want = dense_backward(layer, x, up, saved)
    dz_out, dx_out = np.full((64, 7), np.nan), np.full((64, 5), np.nan)
    got = dense_backward(layer, x, up, saved_out, dz_out=dz_out, dx_out=dx_out)
    assert np.shares_memory(got[0], dx_out)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("activation", ["elu", "tanh", "identity"])
def test_sage_pass_equals_the_stacked_products_bitwise(activation):
    """Each (B, L, n) @ (n, m) product runs once over the B*L rows; at
    B >= 1000 it has the bits of numpy's stacked per-frame products."""
    rng = np.random.default_rng(16)
    B, L = 1500, 4
    layer = make_sage(rng, 3, 4, activation)
    layer.b[:] = rng.normal(size=4)
    X = rng.normal(scale=2.0, size=(B, L, 3))
    A = np.triu((rng.random((B, L, L)) < 0.5).astype(float), 1)
    A = A + np.swapaxes(A, 1, 2)
    up = rng.normal(size=(B, L, 4))
    An = nn.row_normalized(A)
    agg = An @ X
    z = X @ layer.W_self.T + agg @ layer.W_neigh.T + layer.b
    y = nn._activate(activation, z)
    dz = nn._backprop_activation(activation, up, nn._grad_source(activation, z, y))
    dX = dz @ layer.W_self + np.swapaxes(An, -1, -2) @ (dz @ layer.W_neigh)
    assert np.array_equal(sage_forward(layer, X, A), y)
    got = sage_backward(layer, X, A, up)
    assert np.array_equal(got[0], dX)
    dz2 = dz.reshape(-1, 4)
    for a, b in zip(got[1:], (dz2.T @ X.reshape(-1, 3), dz2.T @ agg.reshape(-1, 3),
                              dz2.sum(axis=0))):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("activation", ["elu", "tanh", "identity"])
def test_sage_backward_from_saved_equals_recomputed_bitwise(activation):
    rng = np.random.default_rng(12)
    layer = make_sage(rng, 3, 4, activation)
    X = rng.normal(scale=2.0, size=(16, 5, 3))
    A = np.triu((rng.random((16, 5, 5)) < 0.5).astype(float), 1)
    A = A + np.swapaxes(A, 1, 2)
    up = rng.normal(size=(16, 5, 4))
    y, saved = sage_forward(layer, X, A, keep=True, An=nn.row_normalized(A))
    np.testing.assert_array_equal(y, sage_forward(layer, X, A))
    for a, b in zip(sage_backward(layer, X, A, up, saved), sage_backward(layer, X, A, up)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("activation", ["elu", "tanh", "identity"])
def test_backward_without_input_gradient_keeps_parameter_gradients_bitwise(activation):
    rng = np.random.default_rng(13)
    dense = make_dense(rng, 5, 7, activation)
    x = rng.normal(scale=2.0, size=(64, 5))
    up = rng.normal(size=(64, 7))
    full = dense_backward(dense, x, up)
    skipped = dense_backward(dense, x, up, need_input=False)
    assert skipped[0] is None
    for a, b in zip(full[1:], skipped[1:]):
        assert np.array_equal(a, b)

    sage = make_sage(rng, 3, 4, activation)
    X = rng.normal(scale=2.0, size=(16, 5, 3))
    A = np.triu((rng.random((16, 5, 5)) < 0.5).astype(float), 1)
    A = A + np.swapaxes(A, 1, 2)
    up = rng.normal(size=(16, 5, 4))
    _, saved = sage_forward(sage, X, A, keep=True)
    full = sage_backward(sage, X, A, up, saved)
    skipped = sage_backward(sage, X, A, up, saved, need_input=False)
    assert skipped[0] is None
    for a, b in zip(full[1:], skipped[1:]):
        assert np.array_equal(a, b)


# --- mse ------------------------------------------------------------------------------

def test_mse_identical_is_zero():
    x = np.arange(6.0).reshape(2, 3)
    assert mse(x, x) == 0.0


def test_mse_scalar_case():
    assert mse(np.array([0.0]), np.array([2.0])) == 4.0


def test_mse_matches_loop_oracle():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 4))
    y = rng.normal(size=(3, 4))
    acc = 0.0
    for i in range(3):
        for j in range(4):
            acc += (x[i, j] - y[i, j]) ** 2
    assert mse(x, y) == pytest.approx(acc / 12)


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        mse(np.zeros(2), np.zeros(3))


@given(st.integers(0, 2 ** 31))
@settings(max_examples=25, deadline=None)
def test_mse_nonnegative(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=5)
    y = rng.normal(size=5)
    assert mse(x, y) >= 0.0


# --- adam ------------------------------------------------------------------------------

def test_adam_zero_gradient_no_change():
    params = [np.array([1.0, -2.0]), np.array([[3.0]])]
    before = [p.copy() for p in params]
    grads = [np.zeros(2), np.zeros((1, 1))]
    state = AdamState.for_params(params)
    assert adam_step(params, grads, state) is None
    for p, q in zip(params, before):
        np.testing.assert_array_equal(p, q)
    assert state.step == 1


def test_adam_first_step_approx_sign():
    # at t=1 the bias-corrected update is -lr * g / (|g| + eps) ~ -lr * sign(g)
    g = np.array([0.3, -2.0, 5.0])
    params = [np.zeros(3)]
    state = AdamState.for_params(params, lr=1e-3)
    adam_step(params, [g], state)
    np.testing.assert_allclose(params[0], -1e-3 * np.sign(g), rtol=1e-6)


def test_adam_deterministic_on_copies():
    import copy
    rng = np.random.default_rng(9)
    params = [rng.normal(size=(2, 2))]
    grads = [rng.normal(size=(2, 2))]
    state = AdamState.for_params(params, lr=0.01)
    a, sa = [p.copy() for p in params], copy.deepcopy(state)
    b, sb = [p.copy() for p in params], copy.deepcopy(state)
    adam_step(a, grads, sa)
    adam_step(b, grads, sb)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(sa.m[0], sb.m[0])
    # the copies moved, the originals did not
    assert not np.array_equal(a[0], params[0])
    assert state.step == 0 and not state.m[0].any()


def functional_adam(params, grads, m, v, t, lr):
    """Reference Adam step that returns new arrays: (params, m, v, t)."""
    b1, b2 = nn.ADAM_BETA1, nn.ADAM_BETA2
    t += 1
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    m = [b1 * mk + (1.0 - b1) * g for mk, g in zip(m, grads)]
    v = [b2 * vk + (1.0 - b2) * (g * g) for vk, g in zip(v, grads)]
    params = [p - lr * (mk / c1) / (np.sqrt(vk / c2) + nn.ADAM_EPS)
              for p, mk, vk in zip(params, m, v)]
    return params, m, v, t


def test_adam_in_place_matches_functional_reference_bit_for_bit():
    rng = np.random.default_rng(12)
    params = [rng.normal(size=(8, 16)), rng.normal(size=16), rng.normal(size=(1, 1))]
    state = AdamState.for_params(params, lr=3e-3)
    ref = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    t = 0
    for _ in range(7):
        grads = [rng.normal(scale=10.0 ** rng.integers(-6, 3), size=p.shape) for p in params]
        adam_step(params, grads, state)
        ref, m, v, t = functional_adam(ref, grads, m, v, t, 3e-3)
    assert state.step == t == 7
    for got, want in zip(params + state.m + state.v, ref + m + v):
        assert got.tobytes() == want.tobytes()


def test_adam_shape_mismatch():
    # each fault sits in the last array, so a check made after a write
    # would leave the first one changed
    for case in ("grad shape", "grad count", "moment count", "moment shape"):
        params = [np.ones(2), np.ones(3)]
        grads = [np.ones(2), np.ones(3)]
        state = AdamState.for_params(params)
        adam_step(params, grads, state)
        if case == "grad shape":
            grads[-1] = np.ones(4)
        elif case == "grad count":
            grads.append(np.ones(1))
        elif case == "moment count":
            state.v.pop()
        else:
            state.m[-1] = np.zeros(4)
        before = [a.copy() for a in params + state.m + state.v]
        with pytest.raises(ValueError, match="mismatch"):
            adam_step(params, grads, state)
        for a, b in zip(params + state.m + state.v, before):
            assert a.tobytes() == b.tobytes(), case
        assert state.step == 1, case


# --- grad_check ---------------------------------------------------------------------

def test_grad_check_linear_layer_is_tight():
    rng = np.random.default_rng(10)
    layer = make_dense(rng, 3, 2, "identity")
    x = rng.normal(size=3)
    target = rng.normal(size=2)

    def loss():
        return mse(dense_forward(layer, x), target)

    def grads():
        up = mse_grad(dense_forward(layer, x), target)
        _, dW, db = dense_backward(layer, x, up)
        return [dW, db]

    report = grad_check(loss, grads, [layer.W, layer.b])
    assert report["max_rel_err"] < 1e-8


def test_grad_check_zero_parameter_fragment_vacuous():
    report = grad_check(lambda: 1.0, lambda: [], [])
    assert report["max_rel_err"] == 0.0
    assert report["n_params"] == 0
