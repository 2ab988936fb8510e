import math

import numpy as np
import pytest

from rotgrad import nn, so3
from rotgrad.nn import (
    LEAKY_SLOPE,
    ForwardCache,
    Mlp,
    adam_init,
    adam_step,
    backward,
    forward,
    init_mlp,
)
from rotgrad.representations import RepKind, baseline_backward, baseline_rotation
from rotgrad.riemannian import L2Frobenius, euclid_grad, loss_value


def test_init_shapes_and_determinism():
    a = init_mlp([5, 8, 3], np.random.default_rng(0))
    b = init_mlp([5, 8, 3], np.random.default_rng(0))
    assert a.layer_sizes == [5, 8, 3]
    assert [w.shape for w in a.weights] == [(5, 8), (8, 3)]
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    bound = np.sqrt(6.0 / 13)
    assert all(np.abs(w).max() <= bound for w in a.weights)
    assert all(np.array_equal(x, np.zeros_like(x)) for x in a.biases)
    with pytest.raises(ValueError):
        init_mlp([5], np.random.default_rng(0))


def test_forward_zero_weights_and_identity():
    m = Mlp([np.zeros((4, 2))], [np.zeros(2)])
    y, _ = forward(m, np.ones((3, 4)))
    assert np.array_equal(y, np.zeros((3, 2)))

    ident = Mlp([np.eye(4)[:, :2]], [np.zeros(2)])  # single linear layer
    x = np.random.default_rng(1).standard_normal((5, 4))
    y, _ = forward(ident, x)
    assert np.array_equal(y, x[:, :2])

    with pytest.raises(ValueError):
        forward(ident, np.ones((3, 7)))


def test_backward_linear_closed_form():
    rng = np.random.default_rng(2)
    m = Mlp([rng.standard_normal((4, 3))], [np.zeros(3)])
    x = rng.standard_normal((6, 4))
    g = rng.standard_normal((6, 3))
    _, cache = forward(m, x)
    dws, dbs = backward(m, cache, g)
    assert np.array_equal(dws[0], x.T @ g)
    assert np.array_equal(dbs[0], g.sum(axis=0))

    dws0, dbs0 = backward(m, cache, np.zeros((6, 3)))
    assert not dws0[0].any() and not dbs0[0].any()

    with pytest.raises(ValueError):
        backward(m, cache, np.zeros((6, 5)))


def test_backward_matches_fd():
    rng = np.random.default_rng(3)
    mlp = init_mlp([5, 4, 3], rng)
    x = rng.standard_normal((4, 5))
    c = rng.standard_normal(3)
    h = 1e-4

    def scalar_loss():
        y, _ = forward(mlp, x)
        return float(((y @ c) ** 2).sum())

    y, cache = forward(mlp, x)
    gout = 2.0 * (y @ c)[:, None] * c[None, :]
    dws, dbs = backward(mlp, cache, gout)

    for li in range(2):
        for arr, grad in ((mlp.weights[li], dws[li]), (mlp.biases[li], dbs[li])):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                keep = arr[idx]
                arr[idx] = keep + h
                up = scalar_loss()
                arr[idx] = keep - h
                down = scalar_loss()
                arr[idx] = keep
                fd = (up - down) / (2 * h)
                assert abs(fd - grad[idx]) <= 1e-4 * max(1.0, abs(fd))


@pytest.mark.parametrize("rep", [RepKind.QUAT4, RepKind.SIX_D], ids=lambda r: r.value)
def test_end_to_end_fd_through_pipeline(rep):
    # two-hidden-unit net, vanilla chain rule all the way to the weights
    rng = np.random.default_rng(4)
    mlp = init_mlp([5, 2, rep.ambient_dim], rng)
    x_in = rng.standard_normal((3, 5))
    r_gts = [so3.sample_uniform_rotation(rng) for _ in range(3)]
    h = 1e-5

    def total_loss():
        ys, _ = forward(mlp, x_in)
        return sum(loss_value(L2Frobenius(r_gts[i]), baseline_rotation(rep, ys[i]))
                   for i in range(3))

    ys, cache = forward(mlp, x_in)
    gout = np.stack([
        baseline_backward(rep, ys[i],
                          euclid_grad(L2Frobenius(r_gts[i]), baseline_rotation(rep, ys[i])))
        for i in range(3)])
    dws, dbs = backward(mlp, cache, gout)

    for li in range(2):
        arr, grad = mlp.weights[li], dws[li]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = arr[idx]
            arr[idx] = keep + h
            up = total_loss()
            arr[idx] = keep - h
            down = total_loss()
            arr[idx] = keep
            fd = (up - down) / (2 * h)
            assert abs(fd - grad[idx]) <= 1e-3 * max(1.0, abs(fd))


def test_adam_zero_grad_is_noop():
    p = np.array([1.0, -2.0])
    st = adam_init(p)
    out = adam_step(st, p.copy(), np.zeros(2))
    assert np.array_equal(out, p)
    assert st.step == 1


def test_adam_constant_grad_limit():
    p = np.array([0.0])
    g = np.array([0.5])
    st = adam_init(p, lr=1e-3)
    prev = p
    for _ in range(5000):
        nxt = adam_step(st, prev, g)
        prev = nxt
    # steady state steps approach lr * sign(g); the update is in place, so
    # keep the value before the last step
    prev = prev.copy()
    last = adam_step(st, nxt, g)
    assert abs((prev - last)[0] - 1e-3) <= 1e-6


def test_adam_two_step_manual_trace():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    g = 0.5
    p = 1.0
    # step 1
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    p1 = p - lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
    # step 2 (same gradient)
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    p2 = p1 - lr * (m / (1 - b1 ** 2)) / (np.sqrt(v / (1 - b2 ** 2)) + eps)

    params = np.array([p])
    st = adam_init(params, lr=lr)
    got1 = adam_step(st, params, np.array([g])).copy()
    got2 = adam_step(st, params, np.array([g]))
    assert abs(got1[0] - p1) <= 1e-15
    assert abs(got2[0] - p2) <= 1e-15


def test_adam_rejects_misaligned_state():
    st = adam_init(np.zeros(3))
    with pytest.raises(ValueError, match="align"):
        adam_step(st, np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------------------
# the parameter vector against a list-of-arrays reference


def _ref_forward(weights, biases, x):
    """List-based forward pass: ``h @ w + b`` and a rectifier selected by np.where."""
    activations, pre = [x], []
    h = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w + b
        pre.append(z)
        h = z if i == len(weights) - 1 else np.where(z > 0.0, z, LEAKY_SLOPE * z)
        activations.append(h)
    return h, activations, pre


def _ref_backward(weights, activations, pre, g):
    n = len(weights)
    dws, dbs = [None] * n, [None] * n
    for i in range(n - 1, -1, -1):
        dws[i] = activations[i].T @ g
        dbs[i] = g.sum(axis=0)
        if i > 0:
            g = g @ weights[i].T
            z = pre[i - 1]
            g = np.where(z > 0.0, g, LEAKY_SLOPE * g)
    return dws, dbs


def _ref_adam(state, params, grads):
    """Adam over a list of arrays in Kingma and Ba's efficient form, returning new arrays."""
    state["step"] += 1
    t = state["step"]
    root_c2 = math.sqrt(1.0 - 0.999 ** t)
    lr_t = state["lr"] * root_c2 / (1.0 - 0.9 ** t)
    eps_hat = 1e-8 * root_c2
    out = []
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * g * g
        out.append(p - lr_t * (m / (np.sqrt(v) + eps_hat)))
    return out


def _textbook_adam(state, params, grads):
    """Adam over a list of arrays with both bias corrections applied to the moments."""
    state["step"] += 1
    t = state["step"]
    c1 = 1.0 - 0.9 ** t
    c2 = 1.0 - 0.999 ** t
    out = []
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * g * g
        out.append(p - state["lr"] * (m / c1) / (np.sqrt(v / c2) + 1e-8))
    return out


def _ref_slopes(pre):
    """The hidden layers' rectifier slopes, selected by np.where."""
    return [np.where(z > 0.0, 1.0, LEAKY_SLOPE) for z in pre[:-1]]


def _flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


def test_parameter_vector_matches_list_reference_bit_for_bit():
    rng = np.random.default_rng(7)
    mlp = init_mlp([48, 128, 128, 10], rng)
    weights = [w.copy() for w in mlp.weights]
    biases = [b.copy() for b in mlp.biases]
    ref = {"step": 0, "lr": 1e-3,
           "m": [np.zeros_like(a) for a in weights + biases],
           "v": [np.zeros_like(a) for a in weights + biases]}
    st = adam_init(mlp.params, lr=1e-3)
    for step in range(50):
        x = rng.standard_normal((32, 48))
        target = rng.standard_normal((32, 10))
        y_ref, acts, pre = _ref_forward(weights, biases, x)
        y, cache = forward(mlp, x)
        assert np.array_equal(y, y_ref)
        for a, b in zip(cache.activations + cache.slopes, acts + _ref_slopes(pre)):
            assert _bits_equal(a, b)
        gout = 2.0 * (y_ref - target) / 32
        dws_ref, dbs_ref = _ref_backward(weights, acts, pre, gout)
        dws, dbs = backward(mlp, cache, gout)
        for a, b in zip(dws + dbs, dws_ref + dbs_ref):
            assert np.array_equal(a, b)
        updated = _ref_adam(ref, weights + biases, dws_ref + dbs_ref)
        weights, biases = updated[:3], updated[3:]
        adam_step(st, mlp.params, mlp.grad)
        assert st.step == step + 1
        for a, b in zip(mlp.weights + mlp.biases, weights + biases):
            assert np.array_equal(a, b)
        assert np.array_equal(st.m, _flat(ref["m"]))
        assert np.array_equal(st.v, _flat(ref["v"]))


# Largest |efficient - textbook| / max(|textbook|, 1e-3) over the 50 steps:
# 7.8e-15 at seed 11 and at most 1.0e-14 at seeds 11-15 (abs at most 8.3e-17).
ADAM_FORMS_RTOL = 1e-13


def test_efficient_adam_tracks_the_textbook_form():
    # each form trains its own copy of the net on the same batches, so the
    # rounding of one step also reaches the next step's gradients
    rng = np.random.default_rng(11)
    mlp = init_mlp([48, 128, 128, 10], rng)
    weights = [w.copy() for w in mlp.weights]
    biases = [b.copy() for b in mlp.biases]
    ref = {"step": 0, "lr": 1e-3,
           "m": [np.zeros_like(a) for a in weights + biases],
           "v": [np.zeros_like(a) for a in weights + biases]}
    st = adam_init(mlp.params, lr=1e-3)
    assert st.scratch.shape == mlp.params.shape
    for _ in range(50):
        x = rng.standard_normal((32, 48))
        target = rng.standard_normal((32, 10))
        y_ref, acts, pre = _ref_forward(weights, biases, x)
        dws_ref, dbs_ref = _ref_backward(weights, acts, pre, 2.0 * (y_ref - target) / 32)
        updated = _textbook_adam(ref, weights + biases, dws_ref + dbs_ref)
        weights, biases = updated[:3], updated[3:]
        y, cache = forward(mlp, x)
        backward(mlp, cache, 2.0 * (y - target) / 32)
        adam_step(st, mlp.params, mlp.grad)
    textbook = _flat(weights + biases)
    assert not np.array_equal(mlp.params, textbook)  # the forms do round differently
    assert np.max(np.abs(mlp.params - textbook) / np.abs(textbook).clip(1e-3)) <= ADAM_FORMS_RTOL


# rectifier edge inputs: signed zeros, infinities, NaN, subnormals
_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -1.0]


def _bits_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _unit_chain():
    # 1-1-1 net: unit weights and biases of -0.0 pass every edge value
    # except -0.0 through the matrix products unchanged
    return Mlp([np.ones((1, 1)), np.ones((1, 1))], [np.array([-0.0]), np.array([-0.0])])


class _StubFirstProduct:
    """Stands in for numpy inside ``rotgrad.nn`` during one forward pass.

    The first ``matmul`` returns ``first`` in place of the input layer's
    product, so the hidden pre-activation can be any value, -0.0 included,
    which no matrix product returns; every ``matmul`` records its left
    operand, so the hidden activations show in either ``keep_cache`` mode.
    """

    def __init__(self, first):
        self.first, self.left = first, []

    def matmul(self, a, b, **kwargs):
        self.left.append(a.copy())
        if len(self.left) == 1:
            return self.first.copy()
        return np.matmul(a, b, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


def test_rectifier_edge_inputs_forward():
    # a hidden bias of -0.0 keeps every pre-activation's bits
    z = np.array(_EDGES)[:, None]
    hidden = np.where(z > 0.0, z, LEAKY_SLOPE * z)
    for keep_cache in (True, False):
        stub = _StubFirstProduct(z)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nn, "np", stub)
            _, cache = forward(_unit_chain(), np.ones_like(z), keep_cache=keep_cache)
        assert len(stub.left) == 2 and _bits_equal(stub.left[1], hidden)
        if keep_cache:
            assert _bits_equal(cache.slopes[0], np.where(z > 0.0, 1.0, LEAKY_SLOPE))
            assert _bits_equal(cache.activations[1], hidden)
        else:
            assert cache is None


@pytest.mark.parametrize("zval", _EDGES, ids=repr)
def test_rectifier_edge_inputs_backward(zval):
    # the cache is built by hand from the slopes, so the hidden
    # pre-activation can be -0.0; at a batch of one row the hidden bias
    # gradient is the rectified hidden gradient itself
    mlp = _unit_chain()
    z = np.array([[zval]])
    acts = [np.ones((1, 1)), np.where(z > 0.0, z, LEAKY_SLOPE * z), np.zeros((1, 1))]
    pre = [z, np.zeros((1, 1))]
    cache = ForwardCache(acts, _ref_slopes(pre))
    for gval in _EDGES:
        g = np.array([[gval]])
        with np.errstate(invalid="ignore"):  # inf * 0 in the weight gradients
            dws, dbs = backward(mlp, cache, g)
            dws_ref, dbs_ref = _ref_backward(mlp.weights, acts, pre, g)
        for a, b in zip(dws + dbs, dws_ref + dbs_ref):
            assert _bits_equal(a, b), (zval, gval)


def test_weights_and_biases_are_views_of_one_parameter_vector():
    mlp = init_mlp([5, 8, 3], np.random.default_rng(8))
    assert mlp.params.shape == (5 * 8 + 8 * 3 + 8 + 3,)
    for a in mlp.weights + mlp.biases:
        assert np.shares_memory(a, mlp.params)
    for a in mlp.grad_weights + mlp.grad_biases:
        assert np.shares_memory(a, mlp.grad)
    assert not np.shares_memory(mlp.params, mlp.grad)

    x = np.random.default_rng(9).standard_normal((4, 5))
    y, cache = forward(mlp, x)
    dws, dbs = backward(mlp, cache, np.ones_like(y))
    assert all(a is b for a, b in zip(dws + dbs, mlp.grad_weights + mlp.grad_biases))

    params = mlp.params
    before = params.copy()
    st = adam_init(params)
    out = adam_step(st, mlp.params, mlp.grad)
    assert out is params and mlp.params is params
    assert not np.array_equal(params, before)
    assert np.array_equal(_flat(mlp.weights + mlp.biases), params)


@pytest.mark.parametrize("out_dim", [3, 4, 6, 9, 10])
@pytest.mark.parametrize("rows", [1, 32, 410, 1638])
def test_forward_without_cache_gives_the_cached_output_bits(rows, out_dim):
    rng = np.random.default_rng(rows * 16 + out_dim)
    mlp = init_mlp([48, 128, 128, out_dim], rng)
    x = rng.standard_normal((rows, 48))
    # non-finite rows propagate NaN and inf through every layer
    for row, value in zip(range(0, rows, 3), (np.nan, np.inf, -np.inf)):
        x[row, row % 48] = value
    with np.errstate(invalid="ignore"):  # inf - inf in the first layer
        y, cache = forward(mlp, x)
        y_free, none = forward(mlp, x, keep_cache=False)
    assert none is None and isinstance(cache, ForwardCache)
    assert _bits_equal(y_free, y)
