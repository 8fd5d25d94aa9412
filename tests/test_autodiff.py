"""Gradient and semantics checks for the autodiff engine.

Every differentiable op is compared against a central-difference oracle;
a handful of values are frozen from hand computation so a silent change
in conventions (padding, axis order) cannot slip through.
"""

import gc
import inspect
import os
import pathlib
import platform
import subprocess
import sys
import textwrap
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdgf import autodiff as ad
from sdgf import model as md
from sdgf import training as tr
from sdgf.errors import ConfigError, GraphError, NumericError, ShapeError

from conftest import (
    assert_grads_match, chain_layer_norm, loop_conv1d, plain_conv1d, relative_error,
    time_major_leaf,
)
import oracle_ops as ops

RNG = np.random.default_rng(20240817)


def leaf(shape, scale=1.0):
    return ad.Tensor(RNG.normal(0.0, scale, shape), requires_grad=True)


# ---------------------------------------------------------------------------
# Frozen hand values


def test_matmul_hand_value():
    a = ad.Tensor([[1.0, 2.0]])
    b = ad.Tensor([[3.0], [4.0]])
    assert ops.matmul(a, b).data.tolist() == [[11.0]]


def test_softmax_hand_value():
    # exp([1,2,3]) / sum = [0.09003057, 0.24472847, 0.66524096]
    y = ops.softmax(ad.Tensor([1.0, 2.0, 3.0]), axis=0)
    np.testing.assert_allclose(
        y.data, [0.09003057317038046, 0.24472847105479767, 0.6652409557748219], atol=1e-12
    )


def test_conv1d_hand_value():
    # Box kernel over [1,2,3,4] with same zero padding: [0+1+2, 1+2+3, 2+3+4, 3+4+0].
    x = ad.Tensor([[[1.0, 2.0, 3.0, 4.0]]])
    k = ad.Tensor([[[1.0, 1.0, 1.0]]])
    np.testing.assert_allclose(plain_conv1d(x, k).data, [[[3.0, 6.0, 9.0, 7.0]]], atol=1e-14)


def test_conv1d_dilated_hand_value():
    # Dilation 2 spreads the taps: out[i] = x[i-2] + x[i] + x[i+2], zeros outside.
    x = ad.Tensor([[[1.0, 2.0, 3.0, 4.0, 5.0]]])
    k = ad.Tensor([[[1.0, 1.0, 1.0]]])
    np.testing.assert_allclose(
        plain_conv1d(x, k, 2).data, [[[4.0, 6.0, 9.0, 6.0, 8.0]]], atol=1e-14
    )


def test_tanh_values():
    x = ad.Tensor([-2.0, 0.0, 2.0])
    np.testing.assert_allclose(ops.tanh(x).data, np.tanh([-2.0, 0.0, 2.0]), atol=1e-15)


# ---------------------------------------------------------------------------
# Gradients against the finite-difference oracle


def test_grad_elementwise_chain():
    x, y = leaf((3, 4)), leaf((3, 4))
    assert_grads_match(
        lambda: ops.reduce_sum(ops.mul(ops.sub(ops.add(ops.mul(x, y), x), y), 0.5)), [x, y]
    )


def test_grad_division():
    x, y = leaf((2, 5)), ad.Tensor(RNG.uniform(0.5, 2.0, (2, 5)), requires_grad=True)
    assert_grads_match(lambda: ops.reduce_sum(ops.div(x, y)), [x, y])


def test_grad_broadcast_add():
    x, b = leaf((4, 3, 5)), leaf((5,))
    assert_grads_match(lambda: ops.reduce_sum(ops.add(x, b)), [x, b])


def test_grad_broadcast_mul_keepdims():
    x = leaf((3, 4))
    s = leaf((3, 1))
    assert_grads_match(lambda: ops.reduce_sum(ops.mul(x, s)), [x, s])


def test_grad_matmul_2d():
    a, b = leaf((3, 4)), leaf((4, 2))
    assert_grads_match(lambda: ops.reduce_sum(ops.matmul(a, b)), [a, b])


def test_grad_matmul_batched():
    a, b = leaf((2, 3, 4)), leaf((2, 4, 5))
    assert_grads_match(lambda: ops.reduce_sum(ops.matmul(a, b)), [a, b])


def test_grad_matmul_broadcast_weight():
    # Shared weight multiplying a batch: gradient must sum over the batch.
    a, w = leaf((6, 3, 4)), leaf((4, 2))
    assert_grads_match(lambda: ops.reduce_sum(ops.matmul(a, w)), [a, w])


def test_grad_matmul_weight_on_left():
    # theta @ state: the 2-D weight's gradient contracts the batch axis.
    theta, state = leaf((4, 3)), leaf((6, 3, 5))
    w = ad.Tensor(RNG.normal(0.0, 1.0, (6, 4, 5)))
    assert_grads_match(lambda: ops.reduce_sum(ops.mul(ops.matmul(theta, state), w)), [theta, state])


def test_grad_matmul_4d_batch_against_weight():
    a, w = leaf((2, 3, 4, 5)), leaf((5, 2))
    left = leaf((3, 4))
    out_w = ad.Tensor(RNG.normal(0.0, 1.0, (2, 3, 4, 2)))
    assert_grads_match(lambda: ops.reduce_sum(ops.mul(ops.matmul(a, w), out_w)), [a, w])
    assert_grads_match(lambda: ops.reduce_sum(ops.mul(ops.matmul(left, a), 0.5)), [left, a])


@pytest.mark.parametrize("scales", [3, 1])
def test_grad_matmul_stacked_scale_weight(scales):
    # (scales, 1, m, k) weights against a (3, batch, ...) stack, on each
    # side; scales=1 is the shared case that broadcasts over every scale.
    w_left, x_left = leaf((scales, 1, 4, 5)), leaf((3, 2, 5, 6))
    w_right, x_right = leaf((scales, 1, 6, 4)), leaf((3, 2, 5, 6))
    out_w = ad.Tensor(RNG.normal(0.0, 1.0, (3, 2, 4, 6)))
    out_w_right = ad.Tensor(RNG.normal(0.0, 1.0, (3, 2, 5, 4)))
    assert_grads_match(
        lambda: ops.reduce_sum(ops.mul(ops.matmul(w_left, x_left), out_w)), [w_left, x_left]
    )
    assert_grads_match(
        lambda: ops.reduce_sum(ops.mul(ops.matmul(x_right, w_right), out_w_right)),
        [w_right, x_right],
    )


@pytest.mark.parametrize(
    "a_shape,b_shape",
    [
        # (scales, 1, k, L) maps against a (batch, L, n) input: the maps
        # contract the batch, the input contracts the scales, and each
        # side's kept axis joins the other factor's rows.
        ((3, 1, 4, 5), (2, 5, 6)),
        ((2, 6, 5), (3, 1, 5, 4)),
        # Operator stacks folded into a 2-D map and into a shared map.
        ((3, 1, 5, 5), (5, 2)),
        ((3, 1, 5, 5), (1, 1, 5, 2)),
        # Both operands broadcast, along different axes.
        ((1, 2, 4, 5), (3, 1, 5, 6)),
        ((2, 1, 3, 4, 5), (1, 3, 1, 5, 2)),
    ],
)
def test_grad_matmul_broadcast_cases(a_shape, b_shape):
    a, b = leaf(a_shape), leaf(b_shape)
    out_shape = np.broadcast_shapes(a_shape[:-2], b_shape[:-2]) + (a_shape[-2], b_shape[-1])
    out_w = ad.Tensor(RNG.normal(0.0, 1.0, out_shape))
    assert_grads_match(lambda: ops.reduce_sum(ops.mul(ops.matmul(a, b), out_w)), [a, b])


def test_grad_matrix_transpose_keeps_leading_axes():
    x = leaf((2, 3, 4, 5))
    out_w = ad.Tensor(RNG.normal(0.0, 1.0, (2, 3, 5, 4)))
    assert ops.matrix_transpose(x).shape == (2, 3, 5, 4)
    assert_grads_match(lambda: ops.reduce_sum(ops.mul(ops.matrix_transpose(x), out_w)), [x])


def test_grad_tanh_sqrt():
    x = ad.Tensor(RNG.uniform(0.3, 2.0, (4, 4)), requires_grad=True)
    assert_grads_match(lambda: ops.reduce_sum(ops.add(ops.tanh(x), ops.sqrt(x))), [x])


def test_grad_softmax_weighted():
    x = leaf((3, 5))
    w = ad.Tensor(RNG.normal(0.0, 1.0, (3, 5)))
    assert_grads_match(lambda: ops.reduce_sum(ops.mul(ops.softmax(x, axis=1), w)), [x])


def test_grad_softmax_negative_axis():
    x = leaf((2, 3, 4))
    w = ad.Tensor(RNG.normal(0.0, 1.0, (2, 3, 4)))
    assert_grads_match(lambda: ops.reduce_sum(ops.mul(ops.softmax(x, axis=-1), w)), [x])


def test_grad_reductions():
    x = leaf((3, 4, 2))
    w = ad.Tensor(RNG.normal(0.0, 1.0, (3, 1, 2)))
    assert_grads_match(
        lambda: ops.reduce_sum(ops.mul(ops.reduce_mean(x, 1, keepdims=True), w)), [x]
    )
    assert_grads_match(lambda: ops.reduce_sum(ops.mul(ops.reduce_sum(x, 0), 0.3)), [x])


def test_grad_transpose_reshape():
    x = leaf((2, 3, 4))
    w = ad.Tensor(RNG.normal(0.0, 1.0, (4, 6)))

    def loss():
        t = ops.transpose(x, (2, 0, 1))
        return ops.reduce_sum(ops.mul(ops.reshape(t, (4, 6)), w))

    assert_grads_match(loss, [x])


def test_grad_concat_narrow():
    a, b = leaf((2, 3)), leaf((2, 5))
    w = ad.Tensor(RNG.normal(0.0, 1.0, (2, 4)))

    def loss():
        joined = ops.concat([a, b], axis=1)
        return ops.reduce_sum(ops.mul(ops.narrow(joined, 1, 2, 4), w))

    assert_grads_match(loss, [a, b])


def test_grad_time_major():
    # A (batch, L, N) window is read through its time-major rows: the
    # window's gradient passes FD, and the same window laid out
    # time-major (as the RevIN node writes it) reads to the same bytes
    # and takes the same gradient, laid out like it.
    x = leaf((3, 4, 5))
    maps = leaf((4, 2))
    w = ad.Tensor(RNG.normal(0.0, 1.0, (1, 3, 2, 5)))
    assert_grads_match(lambda: ops.reduce_sum(ops.mul(ad.left_map([maps], x), w)), [x, maps])
    laid = time_major_leaf(x)
    out = ad.left_map([maps], laid)
    assert out.data.tobytes() == ad.left_map([maps], x).data.tobytes()
    ops.reduce_sum(ops.mul(out, w)).backward()
    assert laid.grad.tobytes() == x.grad.tobytes()
    assert laid.grad.swapaxes(0, 1).flags.c_contiguous
    for shape in ((3, 4), (2, 3, 4, 5)):
        with pytest.raises(ShapeError, match="window"):
            ad.left_map([maps], ad.Tensor(np.ones(shape)))


def test_grad_conv1d():
    x, k = leaf((2, 3, 8)), leaf((5, 3, 3))
    assert_grads_match(lambda: ops.reduce_sum(ops.mul(plain_conv1d(x, k), 0.1)), [x, k])


def test_grad_conv1d_dilated():
    x, k = leaf((2, 2, 10)), leaf((3, 2, 5))
    w = ad.Tensor(RNG.normal(0.0, 1.0, (2, 3, 10)))
    assert_grads_match(lambda: ops.reduce_sum(ops.mul(plain_conv1d(x, k, 2), w)), [x, k])


def test_grad_layer_norm():
    x = leaf((2, 5, 3))
    g = ad.Tensor(RNG.uniform(0.5, 1.5, 5), requires_grad=True)
    b = leaf((5,))
    w = ad.Tensor(RNG.normal(0.0, 1.0, (2, 5, 3)))
    assert_grads_match(
        lambda: ops.reduce_sum(ops.mul(ad.layer_norm(x, 1, g, b), w)), [x, g, b], tol=1e-4
    )


def test_grad_shared_subexpression():
    # y = x + x feeds two consumers; gradients along both paths must add:
    # loss = sum((2x)^2 + 3*(2x)) so dloss/dx = 8x + 6.
    x = leaf((4,))
    y = ops.add(x, x)
    loss = ops.reduce_sum(ops.add(ops.mul(y, y), ops.mul(y, 3.0)))
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
        ops.mul(x, 2.0).backward()


def test_backward_twice_raises():
    x = leaf((3,))
    loss = ops.reduce_sum(ops.mul(x, x))
    loss.backward()
    with pytest.raises(GraphError):
        loss.backward()


def test_backward_through_released_node_raises():
    # Two losses share y; the first backward releases y, so the second
    # must refuse rather than skip y and leave x's gradient short.
    x = leaf((3,))
    y = ops.mul(x, x)
    first, second = ops.reduce_sum(y), ops.reduce_sum(ops.mul(y, 2.0))
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
        # 12 forward nodes and the loss.
        assert len(interior) == 13
        grads = ad.backward(loss, md.effective_parameters(net))
        del loss
        alive = [r for r in interior if r() is not None]
    finally:
        gc.enable()
    assert grads and not alive


# Interior nodes of a loss's graph: the forward's 12, 9 with no dynamic
# graph, a two-node mean for the gate under gf, no inception block
# under tfl, and the loss.
LOSS_GRAPH_NODES = {(None, 2): 13, ("gsl", 2): 10, ("gf", 2): 13, ("tfl", 2): 11, (None, 0): 10}


@pytest.mark.parametrize("ablation,depth", list(LOSS_GRAPH_NODES))
def test_dropped_graph_frees_itself_without_backward(ablation, depth):
    # No vjp refers to its own node, so a graph nobody ran backward
    # through (a probe, a forward cut short) is freed by reference counting.
    net = md.build_model(
        md.ModelConfig(n_vars=3, input_len=16, horizon=4, hidden=8, levels=2, depth=depth)
    )
    md.set_static_graph(net, RNG.normal(0.0, 1.0, (64, 3)))
    if ablation is not None:
        net = md.ablate(net, ablation)
    inputs, targets = RNG.normal(0.0, 1.0, (2, 16, 3)), RNG.normal(0.0, 1.0, (2, 4, 3))
    gc.disable()
    try:
        loss = tr.mse_loss(md.forward(ad.Tensor(inputs), net), targets)
        nodes = [weakref.ref(n) for n in ad._toposort(loss) if n._vjp is not None]
        assert len(nodes) == LOSS_GRAPH_NODES[ablation, depth]
        del loss
        alive = [r for r in nodes if r() is not None]
    finally:
        gc.enable()
    assert alive == []


# One process at the benchmark's pinned shape; prints minor faults per step.
FAULTS_PER_STEP = textwrap.dedent(
    """
    import resource
    import numpy as np
    from sdgf import autodiff as ad, model as md, training as tr

    rng = np.random.default_rng(0)
    net = md.build_model(md.ModelConfig(input_len=96, horizon=96, n_vars=7, hidden=64, levels=3))
    md.set_static_graph(net, rng.normal(0.0, 1.0, (256, 7)))
    params = md.effective_parameters(net)
    state = tr.AdamState(lr=1e-3)
    inputs, targets = rng.normal(0.0, 1.0, (32, 96, 7)), rng.normal(0.0, 1.0, (32, 96, 7))

    def step():
        loss = tr.mse_loss(md.forward(ad.Tensor(inputs), net), targets)
        grads = ad.backward(loss, params)
        tr.clip_gradients(grads, 5.0)
        tr.adam_step(params, grads, state)
        for p in params:
            p.zero_grad()

    for _ in range(3):
        step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        step()
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
    """
)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
def test_steps_do_not_page_fault_their_working_set():
    # Each step frees its whole graph; the next one should reuse that
    # memory from the heap, not fault it in afresh (thousands a step).
    path = [str(pathlib.Path(ad.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    result = subprocess.run(
        [sys.executable, "-c", FAULTS_PER_STEP],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        capture_output=True,
        text=True,
        check=True,
    )
    faults = float(result.stdout.split()[-1])
    assert faults < 50, f"{faults:.0f} minor page faults per step"


def test_no_grad_blocks_recording():
    x = leaf((3,))
    with ad.no_grad():
        y = ops.reduce_sum(ops.mul(x, x))
    assert not y.requires_grad
    with pytest.raises(GraphError):
        y.backward()


def test_grad_accumulates_across_backwards():
    x = leaf((3,))
    ops.reduce_sum(ops.mul(x, 2.0)).backward()
    ops.reduce_sum(ops.mul(x, 3.0)).backward()
    np.testing.assert_allclose(x.grad, 5.0, atol=0)
    x.zero_grad()
    assert x.grad is None


def test_division_by_zero_raises():
    with pytest.raises(NumericError):
        ops.div(ad.Tensor([1.0]), ad.Tensor([0.0]))


def test_nan_production_raises():
    # 0 * inf would be NaN; the guard fires on the op that makes it.
    big = ad.Tensor([1e308])
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        ops.mul(ops.mul(big, big), ad.Tensor([0.0]))


def test_finite_checks_can_be_disabled():
    big = ad.Tensor([1e308])
    previous = ad.set_finite_checks(False)
    try:
        with np.errstate(over="ignore"):
            out = ops.mul(big, big)
        assert np.isinf(out.data[0])
    finally:
        ad.set_finite_checks(previous)


def test_shape_errors():
    with pytest.raises(ShapeError):
        ops.add(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 5))))
    with pytest.raises(ShapeError):
        ops.matmul(ad.Tensor(np.ones(3)), ad.Tensor(np.ones((3, 2))))
    with pytest.raises(ShapeError):
        ops.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 2))))
    with pytest.raises(ShapeError):
        ops.concat([ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 3)))], axis=1)
    with pytest.raises(ShapeError):
        ops.narrow(ad.Tensor(np.ones((2, 3))), 1, 2, 4)
    with pytest.raises(ConfigError):
        plain_conv1d(ad.Tensor(np.ones((1, 1, 4))), ad.Tensor(np.ones((1, 1, 2))))


def test_parameter_naming_and_backward_collection():
    w = ad.Parameter("w", np.ones((2, 2)))
    b = ad.Parameter("b", np.zeros(2))
    unused = ad.Parameter("unused", np.ones(3))
    x = ad.Tensor(RNG.normal(0.0, 1.0, (4, 2)))
    loss = ops.reduce_sum(ops.add(ops.matmul(x, w), b))
    grads = ad.backward(loss, [w, b, unused])
    assert set(grads) == {"w", "b"}
    np.testing.assert_allclose(grads["b"], 4.0, atol=0)


# The engine, the nodes the package records and the ops it calls. An op
# that only the tests use belongs in oracle_ops instead.
PUBLIC_CALLABLES = {
    "Tensor", "Parameter", "record", "backward", "set_finite_checks", "no_grad", "grad_enabled",
    "cached", "guard_once", "left_product", "left_product_grads", "left_map", "conv1d", "layer_norm",
}


def test_public_callables_are_the_engine_and_the_recorded_nodes():
    exported = {
        name
        for name, obj in vars(ad).items()
        if callable(obj) and not name.startswith("_") and getattr(obj, "__module__", None) == ad.__name__
    }
    assert exported == PUBLIC_CALLABLES
    # Every node is an explicit call: no arithmetic operators or methods.
    assert {name for name in vars(ad.Tensor) if not name.startswith("_")} == {
        "data", "grad", "requires_grad", "shape", "ndim", "size", "accumulate", "zero_grad", "backward"
    }
    assert not [op for op in ("__add__", "__mul__", "__neg__", "__matmul__") if hasattr(ad.Tensor, op)]
    assert list(inspect.signature(ad.Parameter).parameters) == ["name", "data"]


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
    y = ops.softmax(ad.Tensor(x), axis=1).data
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
    assert plain_conv1d(x, k, dilation).shape == (2, 4, length)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_softmax_shift_invariance(seed):
    x = np.random.default_rng(seed).normal(0.0, 3.0, (4, 5))
    a = ops.softmax(ad.Tensor(x), axis=1).data
    b = ops.softmax(ad.Tensor(x + 100.0), axis=1).data
    assert relative_error(a, b) < 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_matmul_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, (3, 4))
    b = rng.normal(0.0, 1.0, (4, 5))
    np.testing.assert_allclose(ops.matmul(ad.Tensor(a), ad.Tensor(b)).data, a @ b, atol=1e-12)


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
    np.testing.assert_allclose(plain_conv1d(x, k, dilation).data, expect, rtol=0, atol=1e-12)
    assert_grads_match(lambda: ops.reduce_sum(ops.mul(plain_conv1d(x, k, dilation), w)), [x, k])


@settings(max_examples=30, deadline=None)
@given(
    length=st.integers(1, 10),
    shapes=st.lists(
        st.tuples(st.integers(1, 3), st.sampled_from([1, 3, 5]), st.integers(1, 3), st.booleans()),
        min_size=1,
        max_size=4,
    ),
    mixing=st.sampled_from(["identity", "mix", "mix+residual"]),
    seed=st.integers(0, 2**31 - 1),
)
@example(length=8, shapes=[(2, 5, 1, False), (3, 5, 1, True)], mixing="identity", seed=1436669988)
def test_multi_kernel_conv1d_is_mixed_concat_of_single_calls(length, shapes, mixing, seed):
    # Kernels of any widths, dilations and output counts, some with a
    # zero bias that takes no gradient; the mix may leave a trailing
    # residual kernel unmixed, and an identity mix with a zero bias is
    # the concatenation of the kernels' outputs.
    rng = np.random.default_rng(seed)
    channels = 2
    x = ad.Tensor(rng.normal(0.0, 1.0, (2, channels, length)), requires_grad=True)
    kernels = [
        ad.Tensor(rng.normal(0.0, 1.0, (out, channels, width)), requires_grad=True)
        for out, width, _, _ in shapes
    ]
    dilations = [d for _, _, d, _ in shapes]
    biases = [
        ad.Tensor(rng.normal(0.0, 1.0, out), requires_grad=True)
        if has
        else ad.Tensor(np.zeros(out))
        for out, _, _, has in shapes
    ]
    mixed = sum(out for out, _, _, _ in shapes)
    out_ch = mixed if mixing == "identity" else 3
    if mixing == "mix+residual":
        kernels.append(ad.Tensor(rng.normal(0.0, 1.0, (out_ch, channels, 1)), requires_grad=True))
        dilations.append(1)
        biases.append(ad.Tensor(rng.normal(0.0, 1.0, out_ch), requires_grad=True))
    if mixing == "identity":
        mix, mix_bias = ad.Tensor(np.eye(mixed)[:, :, None]), ad.Tensor(np.zeros(mixed))
    else:
        mix = ad.Tensor(rng.normal(0.0, 1.0, (out_ch, mixed, 1)), requires_grad=True)
        mix_bias = ad.Tensor(rng.normal(0.0, 1.0, out_ch), requires_grad=True)

    singles = [
        plain_conv1d(x, k, d).data + b.data[None, :, None]
        for k, d, b in zip(kernels, dilations, biases)
    ]
    if mixing == "identity":
        expect = np.concatenate(singles, axis=1)
    else:
        stacked = np.concatenate(singles[: len(shapes)], axis=1)
        expect = np.einsum("om,bml->bol", mix.data[:, :, 0], stacked) + mix_bias.data[None, :, None]
        if mixing == "mix+residual":
            expect = expect + singles[-1]

    def run():
        return ad.conv1d(x, kernels, dilations, biases, mix, mix_bias)

    np.testing.assert_allclose(run().data, expect, rtol=0, atol=1e-12)
    with ad.no_grad():
        np.testing.assert_allclose(run().data, expect, rtol=0, atol=1e-12)
    w = ad.Tensor(rng.normal(0.0, 1.0, expect.shape))
    leaves = [t for t in (x, *kernels, *biases, mix, mix_bias) if t.requires_grad]
    # The loss is linear in each perturbed element, so central differences
    # are exact at any step; a large one keeps their round-off under the
    # tolerance when a gradient sits just above the relative-error floor.
    assert_grads_match(lambda: ops.reduce_sum(ops.mul(run(), w)), leaves, h=1e-2)


def test_multi_kernel_conv1d_rejects_mismatched_arguments():
    x = ad.Tensor(np.ones((1, 2, 5)))
    k3, k1 = ad.Tensor(np.ones((2, 2, 3))), ad.Tensor(np.ones((4, 2, 1)))
    # k3's two channels mixed to four, k1's four added as the residual.
    biases, mix, mix_bias = [np.ones(2), np.ones(4)], np.ones((4, 2, 1)), np.ones(4)
    assert ad.conv1d(x, [k3, k1], [1, 1], biases, mix, mix_bias).shape == (1, 4, 5)
    with pytest.raises(ShapeError, match="one dilation and one bias per kernel"):
        ad.conv1d(x, [k3, k1], [1], biases, mix, mix_bias)
    with pytest.raises(ShapeError, match="does not match kernel"):
        ad.conv1d(x, [k3, k1], [1, 1], [np.ones(3), np.ones(4)], mix, mix_bias)
    with pytest.raises(ShapeError, match="whole leading kernels"):
        # Two mixed channels leave four unmixed; a mix to three cannot take them.
        ad.conv1d(x, [k3, k1], [1, 1], biases, np.ones((3, 2, 1)), np.ones(3))
    with pytest.raises(ShapeError, match="width-1 kernel"):
        ad.conv1d(x, [k3, k1], [1, 1], biases, np.ones((4, 2, 3)), mix_bias)
    with pytest.raises(ShapeError, match="mix_bias"):
        ad.conv1d(x, [k3, k1], [1, 1], biases, mix, np.ones(6))
    with pytest.raises(ConfigError, match="dilation must be >= 1"):
        ad.conv1d(x, [k3, k1], [1, 0], biases, mix, mix_bias)


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from([(1, 1), (2, 5, 3), (3, 4), (2, 3, 1), (4,)]),
    axis=st.integers(0, 2),
    seed=st.integers(0, 2**31 - 1),
)
def test_layer_norm_matches_the_composed_chain(shape, axis, seed):
    rng = np.random.default_rng(seed)
    axis = axis % len(shape)
    x = ad.Tensor(rng.normal(1.0, 3.0, shape), requires_grad=True)
    gain = ad.Tensor(rng.normal(1.0, 0.5, shape[axis]), requires_grad=True)
    bias = ad.Tensor(rng.normal(0.0, 1.0, shape[axis]), requires_grad=True)
    w = rng.normal(0.0, 1.0, shape)
    grads = []
    for norm in (ad.layer_norm, chain_layer_norm):
        for leaf_ in (x, gain, bias):
            leaf_.zero_grad()
        out = norm(x, axis, gain, bias)
        ops.reduce_sum(ops.mul(out, w)).backward()
        grads.append((out.data, x.grad, gain.grad, bias.grad))
    # Unit floor: along a short axis the x gradient is a near-total
    # cancellation, a few 1e-6 made of O(1) terms.
    for fused, chain in zip(*grads):
        assert relative_error(fused, chain, floor=1.0) < 1e-12
    assert_grads_match(
        lambda: ops.reduce_sum(ops.mul(ad.layer_norm(x, axis, gain, bias), w)),
        [x, gain, bias],
        tol=1e-4,
    )


@settings(max_examples=200, deadline=None)
@given(
    exponent=st.integers(0, 308),
    offset=st.sampled_from([0.0, 0.8]),
    spread=st.sampled_from([0.0, 1e-3, 0.5, 0.9]),
    gain_scale=st.sampled_from([1.0, 1e150, 1e300, 1.5e308]),
    seed=st.integers(0, 2**31 - 1),
)
def test_layer_norm_raises_exactly_when_the_chain_raises(
    exponent, offset, spread, gain_scale, seed
):
    # Finite inputs up to 1.7e308: squares overflow from about 1e154,
    # sums from about 1e308, and a large gain can overflow the output.
    rng = np.random.default_rng(seed)
    x = 10.0**exponent * (offset + spread * rng.uniform(-1.0, 1.0, (2, 4, 3)))
    gain = rng.uniform(0.5, 1.0, 4) * gain_scale
    bias = rng.normal(0.0, 1.0, 4)
    assert np.isfinite(x).all()
    outcomes = []
    with np.errstate(all="ignore"):
        for norm in (ad.layer_norm, chain_layer_norm):
            try:
                outcomes.append(norm(ad.Tensor(x), 1, ad.Tensor(gain), ad.Tensor(bias)).data)
            except NumericError:
                outcomes.append(None)
    fused, chain = outcomes
    assert (fused is None) == (chain is None)
    if fused is not None:
        assert fused.tobytes() == chain.tobytes()


def test_layer_norm_raises_on_an_overflowing_variance_with_a_finite_output():
    # Centered values near 1e160 square to inf, so every normalized value
    # is 0 and the output equals the bias: finite, yet the chain raises.
    x = ad.Tensor(np.array([[1e160, -1e160, 0.0]]))
    ones, zeros = ad.Tensor(np.ones(3)), ad.Tensor(np.zeros(3))
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError):
            chain_layer_norm(x, 1, ones, zeros)
        with pytest.raises(NumericError, match="layer_norm"):
            ad.layer_norm(x, 1, ones, zeros)


# ---------------------------------------------------------------------------
# Per-node fast paths


@settings(max_examples=300, deadline=None)
@given(
    shape=st.sampled_from([(), (0,), (3, 0), (1,), (7,), (2, 3, 4)]),
    base=st.sampled_from([0.0, 1.0, 1e308, -1e308]),
    bad=st.lists(
        st.tuples(st.integers(0, 2**16), st.sampled_from([np.inf, -np.inf, np.nan])), max_size=3
    ),
    as_scalar=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_guard_flags_exactly_the_arrays_the_old_check_flags(shape, base, bad, as_scalar, seed):
    # Huge finite values (base 1e308) make any sum overflow, yet are finite.
    data = base * np.random.default_rng(seed).uniform(0.5, 1.0, shape)
    for index, value in bad:
        if data.size:
            data.flat[index % data.size] = value
    if as_scalar and data.shape == ():
        data = data[()]  # a numpy scalar, as a full reduction returns
    flagged = not np.all(np.isfinite(data))
    for probe, op in ((lambda: ad._guard(data, "probe"), "probe"),
                      (lambda: ops.scale(ad.Tensor(data), 1.0), "scale")):
        if flagged:
            with pytest.raises(NumericError, match=f"^{op} produced a non-finite value$"):
                probe()
        else:
            probe()


def test_tensor_keeps_op_results_and_makes_scalars_0d():
    x = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    total = ops.reduce_sum(x)
    assert type(total.data) is np.ndarray
    assert total.data.shape == () and total.data.dtype == np.float64
    total.backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))
    assert ad.Tensor(np.float64(2.5)).data.shape == ()
    assert ad.Tensor(2.5).data.shape == ()
    a = np.ones((2, 3))
    assert ad.Tensor(a).data is a
    t = ad.Tensor(a.T)
    assert t.data.flags.c_contiguous and np.array_equal(t.data, a.T)
    assert ad.Tensor(np.arange(3)).data.dtype == np.float64
    assert ad.Tensor(np.ones(3, dtype=">f8")).data.dtype == np.dtype("=f8")
