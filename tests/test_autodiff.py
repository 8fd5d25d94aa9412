"""Gradient and semantics checks for the autodiff engine.

Every differentiable op is compared against a central-difference oracle;
a handful of values are frozen from hand computation so a silent change
in conventions (padding, axis order) cannot slip through.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgf import autodiff as ad
from sdgf import model as md
from sdgf import training as tr
from sdgf.errors import ConfigError, GraphError, NumericError, ShapeError

from conftest import assert_grads_match, loop_conv1d, relative_error

RNG = np.random.default_rng(20240817)


def leaf(shape, scale=1.0):
    return ad.Tensor(RNG.normal(0.0, scale, shape), requires_grad=True)


# ---------------------------------------------------------------------------
# Frozen hand values


def test_matmul_hand_value():
    a = ad.Tensor([[1.0, 2.0]])
    b = ad.Tensor([[3.0], [4.0]])
    assert ad.matmul(a, b).data.tolist() == [[11.0]]


def test_softmax_hand_value():
    # exp([1,2,3]) / sum = [0.09003057, 0.24472847, 0.66524096]
    y = ad.softmax(ad.Tensor([1.0, 2.0, 3.0]), axis=0)
    np.testing.assert_allclose(
        y.data, [0.09003057317038046, 0.24472847105479767, 0.6652409557748219], atol=1e-12
    )


def test_conv1d_hand_value():
    # Box kernel over [1,2,3,4] with same zero padding: [0+1+2, 1+2+3, 2+3+4, 3+4+0].
    x = ad.Tensor([[[1.0, 2.0, 3.0, 4.0]]])
    k = ad.Tensor([[[1.0, 1.0, 1.0]]])
    np.testing.assert_allclose(ad.conv1d(x, k).data, [[[3.0, 6.0, 9.0, 7.0]]], atol=1e-14)


def test_conv1d_dilated_hand_value():
    # Dilation 2 spreads the taps: out[i] = x[i-2] + x[i] + x[i+2], zeros outside.
    x = ad.Tensor([[[1.0, 2.0, 3.0, 4.0, 5.0]]])
    k = ad.Tensor([[[1.0, 1.0, 1.0]]])
    np.testing.assert_allclose(
        ad.conv1d(x, k, dilation=2).data, [[[4.0, 6.0, 9.0, 6.0, 8.0]]], atol=1e-14
    )


def test_tanh_and_relu_values():
    x = ad.Tensor([-2.0, 0.0, 2.0])
    np.testing.assert_allclose(ad.tanh(x).data, np.tanh([-2.0, 0.0, 2.0]), atol=1e-15)
    np.testing.assert_allclose(ad.relu(x).data, [0.0, 0.0, 2.0], atol=0)


# ---------------------------------------------------------------------------
# Gradients against the finite-difference oracle


def test_grad_elementwise_chain():
    x, y = leaf((3, 4)), leaf((3, 4))
    assert_grads_match(lambda: ((x * y + x - y) * 0.5).sum(), [x, y])


def test_grad_division():
    x, y = leaf((2, 5)), ad.Tensor(RNG.uniform(0.5, 2.0, (2, 5)), requires_grad=True)
    assert_grads_match(lambda: (x / y).sum(), [x, y])


def test_grad_broadcast_add():
    x, b = leaf((4, 3, 5)), leaf((5,))
    assert_grads_match(lambda: (x + b).sum(), [x, b])


def test_grad_broadcast_mul_keepdims():
    x = leaf((3, 4))
    s = leaf((3, 1))
    assert_grads_match(lambda: (x * s).sum(), [x, s])


def test_grad_matmul_2d():
    a, b = leaf((3, 4)), leaf((4, 2))
    assert_grads_match(lambda: ad.matmul(a, b).sum(), [a, b])


def test_grad_matmul_batched():
    a, b = leaf((2, 3, 4)), leaf((2, 4, 5))
    assert_grads_match(lambda: ad.matmul(a, b).sum(), [a, b])


def test_grad_matmul_broadcast_weight():
    # Shared weight multiplying a batch: gradient must sum over the batch.
    a, w = leaf((6, 3, 4)), leaf((4, 2))
    assert_grads_match(lambda: ad.matmul(a, w).sum(), [a, w])


def test_grad_matmul_weight_on_left():
    # theta @ state: the 2-D weight's gradient contracts the batch axis.
    theta, state = leaf((4, 3)), leaf((6, 3, 5))
    w = ad.Tensor(RNG.normal(0.0, 1.0, (6, 4, 5)))
    assert_grads_match(lambda: (ad.matmul(theta, state) * w).sum(), [theta, state])


def test_grad_matmul_4d_batch_against_weight():
    a, w = leaf((2, 3, 4, 5)), leaf((5, 2))
    left = leaf((3, 4))
    out_w = ad.Tensor(RNG.normal(0.0, 1.0, (2, 3, 4, 2)))
    assert_grads_match(lambda: (ad.matmul(a, w) * out_w).sum(), [a, w])
    assert_grads_match(lambda: (ad.matmul(left, a) * 0.5).sum(), [left, a])


def test_grad_tanh_relu_sqrt():
    x = ad.Tensor(RNG.uniform(0.3, 2.0, (4, 4)), requires_grad=True)
    assert_grads_match(lambda: (ad.tanh(x) + ad.relu(x) + ad.sqrt(x)).sum(), [x])


def test_grad_softmax_weighted():
    x = leaf((3, 5))
    w = ad.Tensor(RNG.normal(0.0, 1.0, (3, 5)))
    assert_grads_match(lambda: (ad.softmax(x, axis=1) * w).sum(), [x])


def test_grad_softmax_negative_axis():
    x = leaf((2, 3, 4))
    w = ad.Tensor(RNG.normal(0.0, 1.0, (2, 3, 4)))
    assert_grads_match(lambda: (ad.softmax(x, axis=-1) * w).sum(), [x])


def test_grad_reductions():
    x = leaf((3, 4, 2))
    w = ad.Tensor(RNG.normal(0.0, 1.0, (3, 1, 2)))
    assert_grads_match(lambda: (x.mean(axis=1, keepdims=True) * w).sum(), [x])
    assert_grads_match(lambda: (x.sum(axis=0) * 0.3).sum(), [x])


def test_grad_transpose_reshape():
    x = leaf((2, 3, 4))
    w = ad.Tensor(RNG.normal(0.0, 1.0, (4, 6)))

    def loss():
        t = ad.transpose(x, (2, 0, 1))
        return (ad.reshape(t, (4, 6)) * w).sum()

    assert_grads_match(loss, [x])


def test_grad_concat_narrow():
    a, b = leaf((2, 3)), leaf((2, 5))
    w = ad.Tensor(RNG.normal(0.0, 1.0, (2, 4)))

    def loss():
        joined = ad.concat([a, b], axis=1)
        return (ad.narrow(joined, 1, 2, 4) * w).sum()

    assert_grads_match(loss, [a, b])


def test_grad_conv1d():
    x, k = leaf((2, 3, 8)), leaf((5, 3, 3))
    assert_grads_match(lambda: (ad.conv1d(x, k) * 0.1).sum(), [x, k])


def test_grad_conv1d_dilated():
    x, k = leaf((2, 2, 10)), leaf((3, 2, 5))
    w = ad.Tensor(RNG.normal(0.0, 1.0, (2, 3, 10)))
    assert_grads_match(lambda: (ad.conv1d(x, k, dilation=2) * w).sum(), [x, k])


def test_grad_layer_norm():
    x = leaf((2, 5, 3))
    g = ad.Tensor(RNG.uniform(0.5, 1.5, 5), requires_grad=True)
    b = leaf((5,))
    w = ad.Tensor(RNG.normal(0.0, 1.0, (2, 5, 3)))
    assert_grads_match(lambda: (ad.layer_norm(x, 1, g, b) * w).sum(), [x, g, b], tol=1e-4)


def test_grad_shared_subexpression():
    # y = x + x feeds two consumers; gradients along both paths must add:
    # loss = sum((2x)^2 + 3*(2x)) so dloss/dx = 8x + 6.
    x = leaf((4,))
    y = x + x
    loss = (y * y + y * 3.0).sum()
    loss.backward()
    np.testing.assert_allclose(x.grad, 8.0 * x.data + 6.0, atol=1e-12)


def test_layer_norm_statistics():
    x = ad.Tensor(RNG.normal(3.0, 2.0, (4, 6)))
    ones, zeros = ad.Tensor(np.ones(6)), ad.Tensor(np.zeros(6))
    out = ad.layer_norm(x, 1, ones, zeros).data
    np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-4)


# ---------------------------------------------------------------------------
# Graph mechanics and error behavior


def test_backward_requires_scalar():
    x = leaf((3,))
    with pytest.raises(ShapeError):
        (x * 2.0).backward()


def test_backward_twice_raises():
    x = leaf((3,))
    loss = (x * x).sum()
    loss.backward()
    with pytest.raises(GraphError):
        loss.backward()


def test_backward_through_released_node_raises():
    # Two losses share y; the first backward releases y, so the second
    # must refuse rather than skip y and leave x's gradient short.
    x = leaf((3,))
    y = x * x
    first, second = y.sum(), (y * 2.0).sum()
    first.backward()
    with pytest.raises(GraphError):
        second.backward()


def test_backward_frees_graph_without_cycle_collector():
    net = md.build_model(md.ModelConfig(n_vars=3, input_len=16, horizon=4, hidden=8, levels=2))
    md.set_static_graph(net, RNG.normal(0.0, 1.0, (64, 3)))
    inputs, targets = RNG.normal(0.0, 1.0, (2, 16, 3)), RNG.normal(0.0, 1.0, (2, 4, 3))
    gc.disable()
    try:
        loss = tr.mse_loss(md.forward(ad.Tensor(inputs), net), targets)
        interior = [weakref.ref(n) for n in ad._toposort(loss) if n._vjp is not None]
        assert len(interior) > 100
        grads = ad.backward(loss, md.effective_parameters(net))
        del loss
        alive = [r for r in interior if r() is not None]
    finally:
        gc.enable()
    assert grads and not alive


def test_no_grad_blocks_recording():
    x = leaf((3,))
    with ad.no_grad():
        y = (x * x).sum()
    assert not y.requires_grad
    with pytest.raises(GraphError):
        y.backward()


def test_grad_accumulates_across_backwards():
    x = leaf((3,))
    (x * 2.0).sum().backward()
    (x * 3.0).sum().backward()
    np.testing.assert_allclose(x.grad, 5.0, atol=0)
    x.zero_grad()
    assert x.grad is None


def test_division_by_zero_raises():
    with pytest.raises(NumericError):
        ad.div(ad.Tensor([1.0]), ad.Tensor([0.0]))


def test_nan_production_raises():
    # 0 * inf would be NaN; the guard fires on the op that makes it.
    big = ad.Tensor([1e308])
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        ad.mul(ad.mul(big, big), ad.Tensor([0.0]))


def test_finite_checks_can_be_disabled():
    big = ad.Tensor([1e308])
    previous = ad.set_finite_checks(False)
    try:
        with np.errstate(over="ignore"):
            out = ad.mul(big, big)
        assert np.isinf(out.data[0])
    finally:
        ad.set_finite_checks(previous)


def test_shape_errors():
    with pytest.raises(ShapeError):
        ad.add(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 5))))
    with pytest.raises(ShapeError):
        ad.matmul(ad.Tensor(np.ones(3)), ad.Tensor(np.ones((3, 2))))
    with pytest.raises(ShapeError):
        ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 2))))
    with pytest.raises(ShapeError):
        ad.concat([ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 3)))], axis=1)
    with pytest.raises(ShapeError):
        ad.narrow(ad.Tensor(np.ones((2, 3))), 1, 2, 4)
    with pytest.raises(ConfigError):
        ad.conv1d(ad.Tensor(np.ones((1, 1, 4))), ad.Tensor(np.ones((1, 1, 2))))


def test_parameter_naming_and_backward_collection():
    w = ad.Parameter("w", np.ones((2, 2)))
    b = ad.Parameter("b", np.zeros(2))
    unused = ad.Parameter("unused", np.ones(3))
    frozen = ad.Parameter("frozen", np.ones(2), trainable=False)
    x = ad.Tensor(RNG.normal(0.0, 1.0, (4, 2)))
    loss = (ad.matmul(x, w) + b).sum()
    grads = ad.backward(loss, [w, b, unused, frozen])
    assert set(grads) == {"w", "b"}
    np.testing.assert_allclose(grads["b"], 4.0, atol=0)


# ---------------------------------------------------------------------------
# Properties


@settings(max_examples=50, deadline=None)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
)
def test_softmax_rows_are_distributions(rows, cols, seed):
    x = np.random.default_rng(seed).normal(0.0, 5.0, (rows, cols))
    y = ad.softmax(ad.Tensor(x), axis=1).data
    assert np.all(y > 0.0)
    np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    length=st.integers(3, 32),
    width=st.sampled_from([1, 3, 5]),
    dilation=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
)
def test_conv1d_preserves_length(length, width, dilation, seed):
    rng = np.random.default_rng(seed)
    x = ad.Tensor(rng.normal(0.0, 1.0, (2, 3, length)))
    k = ad.Tensor(rng.normal(0.0, 1.0, (4, 3, width)))
    assert ad.conv1d(x, k, dilation).shape == (2, 4, length)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_softmax_shift_invariance(seed):
    x = np.random.default_rng(seed).normal(0.0, 3.0, (4, 5))
    a = ad.softmax(ad.Tensor(x), axis=1).data
    b = ad.softmax(ad.Tensor(x + 100.0), axis=1).data
    assert relative_error(a, b) < 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_matmul_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, (3, 4))
    b = rng.normal(0.0, 1.0, (4, 5))
    np.testing.assert_allclose(ad.matmul(ad.Tensor(a), ad.Tensor(b)).data, a @ b, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    length=st.integers(1, 12),
    width=st.sampled_from([1, 3, 5]),
    dilation=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
)
def test_conv1d_matches_loops_and_fd(length, width, dilation, seed):
    # Lengths go below the padding, so some taps see only zeros.
    rng = np.random.default_rng(seed)
    x = ad.Tensor(rng.normal(0.0, 1.0, (2, 3, length)), requires_grad=True)
    k = ad.Tensor(rng.normal(0.0, 1.0, (2, 3, width)), requires_grad=True)
    w = ad.Tensor(rng.normal(0.0, 1.0, (2, 2, length)))
    expect = loop_conv1d(x.data, k.data, dilation)
    np.testing.assert_allclose(ad.conv1d(x, k, dilation).data, expect, rtol=0, atol=1e-12)
    assert_grads_match(lambda: (ad.conv1d(x, k, dilation) * w).sum(), [x, k])
