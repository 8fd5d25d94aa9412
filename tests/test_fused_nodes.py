"""Each fused stage node against the op-by-op chain it replaced.

The chains live in ``conftest``, except those of ``ad.left_map``, the
wavelet fold and the branch stack, which are a ``matmul`` or two or
joins of ``conftest`` chains and live here. For every node, values and
leaf gradients agree with the chain's to 1e-12 (RevIN, propagation and
loss values bit for bit), under ``no_grad`` the node records nothing and gives the
same values, finite differences pass on every leaf, and the node raises
``NumericError`` on exactly the finite inputs (up to about 1e308) on
which its chain raises.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdgf import autodiff as ad
from sdgf import fusion as fu
from sdgf import graphs as gr
from sdgf import model as md
from sdgf import wavelet as wv
from sdgf import training as tr
from sdgf.errors import NumericError, ShapeError

from conftest import (
    assert_grads_match,
    branch_cfgs,
    chain_dynamic_adjacency,
    chain_forward,
    chain_fuse,
    chain_head,
    chain_mse_loss,
    chain_propagate,
    chain_revin_denormalize,
    chain_revin_normalize,
    model_loss_and_grads,
    relative_error,
    time_major_leaf,
)
import oracle_ops as ops

TOL = 1e-12
SEED = st.integers(0, 2**31 - 1)


def leaf(rng, shape, loc=0.0, scale=1.0):
    return ad.Tensor(rng.normal(loc, scale, shape), requires_grad=True)


def assert_node_matches_chain(
    fused, chain, leaves, weight, exact=False, fd_tol=1e-4, fd_leaves=None, fd_h=1e-5
):
    """Compare ``sum(out * weight)`` of both builders, then check FD on ``fused``.

    ``exact`` asks for bit-identical values. Gradients get a unit floor:
    a cancellation can leave a small entry made of O(1) terms. FD runs
    on ``fd_leaves``, by default every leaf, with step ``fd_h``.
    """
    results = []
    for build in (fused, chain):
        for t in leaves:
            t.zero_grad()
        out = build()
        ops.reduce_sum(ops.mul(out, weight)).backward()
        results.append((out.data, [t.grad for t in leaves]))
    (got, got_grads), (want, want_grads) = results
    assert got.shape == want.shape
    if exact:
        assert got.tobytes() == want.tobytes()
    else:
        assert relative_error(got, want, floor=1.0) < TOL
    for g, w in zip(got_grads, want_grads):
        assert g is not None and w is not None
        assert relative_error(g, w, floor=1.0) < TOL
    with ad.no_grad():
        quiet = fused()
        assert not quiet.requires_grad and quiet._vjp is None
        assert quiet.data.tobytes() == got.tobytes()
    assert_grads_match(
        lambda: ops.reduce_sum(ops.mul(fused(), weight)),
        leaves if fd_leaves is None else fd_leaves,
        tol=fd_tol,
        h=fd_h,
    )


def outcome(build):
    """The node's value, or None if it raised ``NumericError``."""
    try:
        return build().data
    except NumericError:
        return None


def both_outcomes(fused, chain):
    with np.errstate(all="ignore"):
        got, want = outcome(fused), outcome(chain)
    assert (got is None) == (want is None)
    return got, want


def regain(rng, params, gain):
    """Redraw ``params`` uniformly in [-gain, gain]; every gain drawn stays finite."""
    for p in params:
        p.data = rng.uniform(-1.0, 1.0, p.shape) * gain


def huge(rng, shape, exponent, offset, spread):
    """Finite values near 10**exponent: sums and squares of them can overflow."""
    x = 10.0**exponent * (offset + spread * rng.uniform(-1.0, 1.0, shape))
    assert np.isfinite(x).all()
    return x


HUGE = dict(
    exponent=st.integers(0, 308),
    offset=st.sampled_from([0.0, 0.8]),
    spread=st.sampled_from([0.0, 1e-3, 0.5, 0.9]),
    gain=st.sampled_from([1.0, 1e-300, 1e150, 1e300, 1.5e308]),
    seed=SEED,
)


# ---------------------------------------------------------------------------
# RevIN


def revin(rng, n):
    return md.RevinLayer(
        ad.Parameter("gamma", rng.normal(1.0, 0.5, n)), ad.Parameter("beta", rng.normal(0.0, 1.0, n))
    )


@settings(max_examples=30, deadline=None)
@given(batch=st.integers(1, 3), length=st.integers(2, 5), n=st.integers(1, 3), seed=SEED)
def test_revin_normalize_matches_its_chain(batch, length, n, seed):
    check_revin_normalize(batch, length, n, seed)


# More than 64 (batch * time) rows and up to 21 variables, where the
# node's one GEMV per affine gradient adds in another order than the
# chain's numpy sums.
WIDE_REVIN = dict(batch=st.integers(3, 4), n=st.integers(8, 21), seed=SEED)


@settings(max_examples=4, deadline=None)
@given(length=st.integers(22, 32), **WIDE_REVIN)
@example(batch=4, length=24, n=21, seed=0)
def test_revin_normalize_matches_its_chain_at_wide_shapes(batch, length, n, seed):
    check_revin_normalize(batch, length, n, seed)


def check_revin_normalize(batch, length, n, seed):
    rng = np.random.default_rng(seed)
    layer = revin(rng, n)
    x = leaf(rng, (batch, length, n), loc=2.0, scale=3.0)
    _, stats = layer.normalize(x)
    _, chain_stats = chain_revin_normalize(layer, x)
    for got, want in zip(stats, chain_stats):
        assert got.tobytes() == want.tobytes()
    # The statistics are constants of the node, as they were of the
    # chain, so the window's gradient holds them fixed and a central
    # difference in the window (which moves them) is no oracle for it.
    assert_node_matches_chain(
        lambda: layer.normalize(x)[0],
        lambda: chain_revin_normalize(layer, x)[0],
        [x, layer.gamma, layer.beta],
        rng.normal(0.0, 1.0, x.shape),
        exact=True,
        fd_leaves=[layer.gamma, layer.beta],
    )


@settings(max_examples=30, deadline=None)
@given(batch=st.integers(1, 3), horizon=st.integers(1, 4), n=st.integers(1, 3), seed=SEED)
@example(batch=1, horizon=1, n=3, seed=26541176)  # gamma[2] = -4.5e-4
@example(batch=2, horizon=4, n=3, seed=854117973)  # gamma[2] = -6.6e-4
def test_revin_denormalize_matches_its_chain(batch, horizon, n, seed):
    check_revin_denormalize(batch, horizon, n, seed)


@settings(max_examples=4, deadline=None)
@given(horizon=st.integers(22, 32), **WIDE_REVIN)
@example(batch=4, horizon=24, n=21, seed=0)
@example(batch=4, horizon=29, n=19, seed=191)  # FD error 1.8e-4 at a 1e-5 step
def test_revin_denormalize_matches_its_chain_at_wide_shapes(batch, horizon, n, seed):
    check_revin_denormalize(batch, horizon, n, seed)


def check_revin_denormalize(batch, horizon, n, seed):
    rng = np.random.default_rng(seed)
    layer = revin(rng, n)
    _, stats = layer.normalize(ad.Tensor(rng.normal(1.0, 2.0, (batch, 6, n))))
    y = leaf(rng, (batch, horizon, n))
    weight = rng.normal(0.0, 1.0, y.shape)
    assert_node_matches_chain(
        lambda: layer.denormalize(y, stats),
        lambda: chain_revin_denormalize(layer, y, stats),
        [y, layer.gamma, layer.beta],
        weight,
        exact=True,
        fd_leaves=[y, layer.beta],
        # The output is linear in y and beta, so a unit step has no
        # truncation error, and its round-off, about eps * |loss| / step,
        # stays far below the 1e-5 floor even at a loss of a few hundred.
        fd_h=1.0,
    )
    # In gamma the output goes as 1 / (gamma + eps^2), so a central
    # difference in gamma[j] has a truncation error of about
    # (h / (gamma[j] + eps^2))^2: each step stays far inside the distance
    # to its own pole.
    pole = np.abs(layer.gamma.data + layer.eps * layer.eps)
    assert_grads_match(
        lambda: ops.reduce_sum(ops.mul(layer.denormalize(y, stats), weight)),
        [layer.gamma],
        tol=1e-4,
        h=1e-5 * np.minimum(1.0, pole),
    )


@settings(max_examples=200, deadline=None)
@given(**HUGE)
def test_revin_raises_exactly_when_its_chain_raises(exponent, offset, spread, gain, seed):
    rng = np.random.default_rng(seed)
    layer = md.RevinLayer(
        ad.Parameter("gamma", rng.uniform(0.5, 1.0, 3) * gain),
        ad.Parameter("beta", rng.normal(0.0, 1.0, 3)),
    )
    x = ad.Tensor(huge(rng, (2, 4, 3), exponent, offset, spread))
    got, want = both_outcomes(
        lambda: layer.normalize(x)[0], lambda: chain_revin_normalize(layer, x)[0]
    )
    if got is not None:
        assert got.tobytes() == want.tobytes()
    window = rng.normal(0.0, 1.0, (2, 4, 3))
    stats = window.mean(axis=1, keepdims=True), np.sqrt(window.var(axis=1, keepdims=True) + 1e-5)
    y = ad.Tensor(huge(rng, (2, 2, 3), exponent, offset, spread))
    got, want = both_outcomes(
        lambda: layer.denormalize(y, stats), lambda: chain_revin_denormalize(layer, y, stats)
    )
    if got is not None:
        assert got.tobytes() == want.tobytes()


def test_revin_denormalize_raises_on_a_zero_divisor_even_unguarded():
    # gamma = -eps^2 makes the guarded divisor exactly 0; the chain's
    # division raised on that whether or not the finite checks were on.
    eps = md.RevinLayer.eps
    layer = md.RevinLayer(
        ad.Parameter("gamma", np.array([-eps * eps])), ad.Parameter("beta", np.zeros(1))
    )
    stats = (np.zeros((1, 1, 1)), np.ones((1, 1, 1)))
    previous = ad.set_finite_checks(False)
    try:
        for denormalize in (layer.denormalize, lambda y, s: chain_revin_denormalize(layer, y, s)):
            with pytest.raises(NumericError, match="division by zero"):
                denormalize(ad.Tensor(np.ones((1, 2, 1))), stats)
    finally:
        ad.set_finite_checks(previous)


@settings(max_examples=30, deadline=None)
@given(batch=st.integers(1, 3), length=st.integers(2, 20), n=st.integers(1, 3), seed=SEED)
def test_revin_window_is_the_chain_output_laid_out_time_major(batch, length, n, seed):
    # Lengths of 8 and more take numpy's pairwise sums over a single
    # variable's contiguous series, which the window's statistics follow.
    rng = np.random.default_rng(seed)
    layer = revin(rng, n)
    x = leaf(rng, (batch, length, n), loc=2.0, scale=3.0)
    window, stats = layer.normalize(x)
    assert window.shape == (batch, length, n)
    assert window.data.swapaxes(0, 1).flags.c_contiguous
    _, chain_stats = chain_revin_normalize(layer, x)
    for got, want in zip(stats, chain_stats):
        assert got.tobytes() == want.tobytes()
    assert_node_matches_chain(
        lambda: layer.normalize(x)[0],
        lambda: chain_revin_normalize(layer, x)[0],
        [x, layer.gamma, layer.beta],
        rng.normal(0.0, 1.0, window.shape),
        exact=True,
        fd_leaves=[layer.gamma, layer.beta],
    )


# ---------------------------------------------------------------------------
# Graph propagation


def stochastic(rng, shape):
    a = rng.uniform(0.05, 1.0, shape)
    return a / a.sum(axis=-1, keepdims=True)


def propagation_case(rng, kind, depth, dim, nodes, batch, scales, shared_graph):
    """(h, adjacency, cfg, leaves) for one static or dynamic propagation.

    A shared graph is one constant (nodes, nodes) matrix that every item
    reads, as the identity does under ``gsl``.
    """
    lead = (batch,) if kind != "stacked" else (scales, batch)
    h = leaf(rng, (*lead, dim, nodes))
    theta_lead = () if kind != "stacked" else (scales, 1)
    thetas = [
        ad.Parameter(f"theta{k}", rng.normal(0.0, 0.7, (*theta_lead, dim, dim)))
        for k in range(depth + 1)
    ]
    cfg = gr.GraphPropagationConfig(alpha=0.3, depth=depth, theta=thetas)
    if kind == "static":
        return h, stochastic(rng, (nodes, nodes)), cfg, [h, *thetas]
    if shared_graph:
        return h, ad.Tensor(stochastic(rng, (nodes, nodes))), cfg, [h, *thetas]
    adjacency = ad.Tensor(stochastic(rng, (*lead, nodes, nodes)), requires_grad=True)
    # With no hop the graph is never read, and gets no gradient.
    return h, adjacency, cfg, [h, *thetas] + ([adjacency] if depth else [])


def propagation_node(kind):
    return gr.static_graph_conv if kind == "static" else gr.dynamic_graph_conv


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["static", "dynamic", "stacked"]),
    depth=st.integers(0, 3),
    dim=st.integers(1, 3),
    nodes=st.integers(1, 4),
    batch=st.integers(1, 2),
    scales=st.integers(1, 3),
    shared_graph=st.booleans(),
    seed=SEED,
)
def test_propagation_matches_its_chain(kind, depth, dim, nodes, batch, scales, shared_graph, seed):
    rng = np.random.default_rng(seed)
    h, adjacency, cfg, leaves = propagation_case(
        rng, kind, depth, dim, nodes, batch, scales, shared_graph
    )
    node = propagation_node(kind)
    out_shape = chain_propagate(h, adjacency, cfg).shape
    assert_node_matches_chain(
        lambda: node(h, adjacency, cfg),
        lambda: chain_propagate(h, adjacency, cfg),
        leaves,
        rng.normal(0.0, 1.0, out_shape),
        exact=True,
        fd_tol=1e-5,
    )


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["static", "dynamic", "stacked"]), **HUGE)
def test_propagation_raises_exactly_when_its_chain_raises(
    kind, exponent, offset, spread, gain, seed
):
    rng = np.random.default_rng(seed)
    h, adjacency, cfg, _ = propagation_case(rng, kind, 2, 3, 4, 2, 2, False)
    h = ad.Tensor(huge(rng, h.shape, exponent, offset, spread))
    regain(rng, cfg.theta, gain)
    node = propagation_node(kind)
    got, want = both_outcomes(
        lambda: node(h, adjacency, cfg), lambda: chain_propagate(h, adjacency, cfg)
    )
    if got is not None:
        assert got.tobytes() == want.tobytes()


def rejected_propagation(rng, form):
    """(h, adjacency, cfg) in a form that would need broadcasting, which the node rejects."""
    dim, nodes = 3, 4
    one = (2, dim, nodes)  # (batch, features, nodes)
    stack = (3, 2, dim, nodes)  # (slots, batch, features, nodes)
    h_lead, theta_lead, graph_lead, learned = {
        "one h read by per-slot maps": (one, (3, 1), (), False),
        "one map shared by every slot": (stack, (), (), False),
        "a map of size 1 on the slot axis": (stack, (1, 1), (), False),
        "one map per item": (stack, (3, 2), (), False),
        "graphs with more items than h": (one, (), (3, 2), False),
        "a learned graph shared by the items": (one, (), (), True),
        "a learned graph shared by the batch": (stack, (3, 1), (3, 1), True),
        "h of five axes": ((2, *stack), (2, 3, 1), (), False),
    }[form]
    thetas = [
        ad.Parameter(f"theta{k}", rng.normal(0.0, 0.7, (*theta_lead, dim, dim))) for k in range(2)
    ]
    graph = ad.Tensor(stochastic(rng, (*graph_lead, nodes, nodes)), requires_grad=learned)
    return leaf(rng, h_lead), graph, gr.GraphPropagationConfig(alpha=0.3, depth=1, theta=thetas)


@pytest.mark.parametrize(
    "form",
    [
        "one h read by per-slot maps",
        "one map shared by every slot",
        "a map of size 1 on the slot axis",
        "one map per item",
        "graphs with more items than h",
        "a learned graph shared by the items",
        "a learned graph shared by the batch",
        "h of five axes",
    ],
)
def test_propagation_rejects_shapes_that_would_need_broadcasting(form):
    h, adjacency, cfg = rejected_propagation(np.random.default_rng(0), form)
    with pytest.raises(ShapeError, match="do not fit"):
        gr.dynamic_graph_conv(h, adjacency, cfg)


def branch_stack_case(rng, depth, dim, nodes, batch, scales, learned):
    """(h, static, dynamic, cfg, leaves): a shared graph for slot 0, ``scales`` dynamic slots after.

    The dynamic graphs are one learned (scales, batch) stack, or the
    constant identity that stands in for them under ``gsl``. Each hop map
    of ``cfg`` holds one map per slot, (1 + scales, 1, dim, dim).
    """
    h = leaf(rng, (1 + scales, batch, dim, nodes))
    thetas = [
        ad.Parameter(f"theta{k}", rng.normal(0.0, 0.7, (1 + scales, 1, dim, dim)))
        for k in range(depth + 1)
    ]
    static = stochastic(rng, (nodes, nodes))
    if learned:
        dynamic = ad.Tensor(stochastic(rng, (scales, batch, nodes, nodes)), requires_grad=True)
    else:
        dynamic = ad.Tensor(np.eye(nodes))
    cfg = gr.GraphPropagationConfig(alpha=0.3, depth=depth, theta=thetas)
    leaves = [h, *thetas] + ([dynamic] if learned and depth else [])
    return h, static, dynamic, cfg, leaves


def branch_stack_node(h, static, dynamic, cfg):
    return gr.static_graph_conv(h, static, cfg, dynamic=dynamic)


def chain_branch_stack(h, static, dynamic, cfg):
    """Slot 0 and the other slots propagated apart, op by op, then joined."""
    static_cfg, dynamic_cfg = branch_cfgs(cfg)
    first = chain_propagate(ops.reshape(ops.narrow(h, 0, 0, 1), h.shape[1:]), static, static_cfg)
    rest = chain_propagate(ops.narrow(h, 0, 1, h.shape[0] - 1), dynamic, dynamic_cfg)
    return ops.concat([ops.reshape(first, (1, *first.shape)), rest], axis=0)


@settings(max_examples=40, deadline=None)
@given(
    depth=st.integers(0, 3),
    dim=st.integers(1, 3),
    nodes=st.integers(1, 4),
    batch=st.integers(1, 2),
    scales=st.integers(1, 3),
    learned=st.booleans(),
    seed=SEED,
)
@example(depth=3, dim=3, nodes=1, batch=1, scales=2, learned=False, seed=11970)  # 7.1e-6 entries
def test_branch_stack_matches_its_chains(depth, dim, nodes, batch, scales, learned, seed):
    # One node over the whole stack gives each slot the bits of its own
    # branch's chain, and each hop map one gradient over every slot.
    rng = np.random.default_rng(seed)
    h, *case, leaves = branch_stack_case(rng, depth, dim, nodes, batch, scales, learned)
    weight = rng.normal(0.0, 1.0, h.shape)
    assert_node_matches_chain(
        lambda: branch_stack_node(h, *case),
        lambda: chain_branch_stack(h, *case),
        leaves,
        weight,
        exact=True,
        fd_tol=1e-5,
        fd_leaves=leaves[depth + 2 :],
    )
    # The output is linear in h and in every hop map, so a central
    # difference in them has no truncation error, only a round-off of
    # about eps * |loss| / step. At a 1e-5 step that round-off reaches
    # 1e-5 of the error floor (also 1e-5) on an entry near zero; a 0.1
    # step makes it 1e4 times smaller.
    assert_grads_match(
        lambda: ops.reduce_sum(ops.mul(branch_stack_node(h, *case), weight)),
        leaves[: depth + 2],
        tol=1e-5,
        h=0.1,
    )


@settings(max_examples=200, deadline=None)
@given(learned=st.booleans(), **HUGE)
def test_branch_stack_raises_exactly_when_its_chains_raise(
    learned, exponent, offset, spread, gain, seed
):
    rng = np.random.default_rng(seed)
    h, *case, _ = branch_stack_case(rng, 2, 3, 4, 2, 2, learned)
    h = ad.Tensor(huge(rng, h.shape, exponent, offset, spread))
    regain(rng, case[-1].theta, gain)
    got, want = both_outcomes(
        lambda: branch_stack_node(h, *case),
        lambda: chain_branch_stack(h, *case),
    )
    if got is not None:
        assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    nodes=st.integers(1, 5),
    dim=st.integers(1, 6),
    batch=st.integers(1, 4),
    slots=st.integers(1, 4),
    depth=st.integers(0, 3),
    learned=st.booleans(),
    node_major=st.booleans(),
    grad=st.booleans(),
    seed=SEED,
)
def test_each_slot_of_the_stack_is_its_one_graph_call(
    nodes, dim, batch, slots, depth, learned, node_major, grad, seed
):
    # Slot 0 holds the bytes of the static graph's own call and slots 1..
    # those of the dynamic graphs' own call, whether the stack and its
    # slots are laid out node-major (as ``ad.left_map`` writes them) or not.
    rng = np.random.default_rng(seed)
    h, static, dynamic, cfg, _ = branch_stack_case(
        rng, depth, dim, nodes, batch, slots - 1, learned
    )

    def as_laid_out(data):
        # ``ad.Tensor`` would copy a strided array into C order.
        return ad.record(data, "input", (), None)

    if node_major:
        h = as_laid_out(np.ascontiguousarray(h.data.swapaxes(-1, -2)).swapaxes(-1, -2))
    static_cfg, dynamic_cfg = branch_cfgs(cfg)
    with contextlib.nullcontext() if grad else ad.no_grad():
        stack = branch_stack_node(h, static, dynamic, cfg).data
        first = gr.static_graph_conv(as_laid_out(h.data[0]), static, static_cfg).data
        assert stack[0].tobytes() == first.tobytes()
        if slots > 1:
            rest = gr.dynamic_graph_conv(as_laid_out(h.data[1:]), dynamic, dynamic_cfg).data
            assert stack[1:].tobytes() == rest.tobytes()


def test_branch_stack_rejects_a_stack_its_graphs_do_not_fit():
    rng = np.random.default_rng(0)
    h, *case, _ = branch_stack_case(rng, 1, 3, 4, 2, 2, True)
    with pytest.raises(ShapeError, match="do not fit the features"):
        branch_stack_node(ad.Tensor(h.data[0]), *case)
    for shape in [(1, 2, 3, 4), (2, 2, 3, 4), (3, 1, 3, 4), (3, 2, 2, 4)]:
        with pytest.raises(ShapeError, match="do not fit the features"):
            branch_stack_node(ad.Tensor(np.ones(shape)), *case)


# ---------------------------------------------------------------------------
# Dynamic adjacency


def adjacency_case(rng, pairing, length, embed, nodes, batch, scales):
    x = leaf(rng, (batch, length, nodes))
    lead = {"plain": (), "per-scale": (scales, 1), "same": ()}[pairing]
    w1 = ad.Parameter("w1", rng.normal(0.0, 0.5, (*lead, length, embed)))
    w2 = w1 if pairing == "same" else ad.Parameter("w2", rng.normal(0.0, 0.5, w1.shape))
    return x, gr.DynamicGraphLayer(w1, w2)


@settings(max_examples=40, deadline=None)
@given(
    pairing=st.sampled_from(["plain", "per-scale", "same"]),
    length=st.integers(2, 5),
    embed=st.integers(1, 3),
    nodes=st.integers(1, 4),
    batch=st.integers(1, 2),
    scales=st.integers(1, 3),
    seed=SEED,
)
def test_dynamic_adjacency_matches_its_chain(pairing, length, embed, nodes, batch, scales, seed):
    check_dynamic_adjacency(pairing, length, embed, nodes, batch, scales, seed)


@settings(max_examples=6, deadline=None)
@given(
    pairing=st.sampled_from(["plain", "per-scale", "same"]),
    length=st.integers(2, 5),
    embed=st.integers(8, 16),
    nodes=st.integers(8, 24),
    batch=st.integers(1, 2),
    scales=st.integers(1, 3),
    seed=SEED,
)
@example(pairing="per-scale", length=5, embed=16, nodes=21, batch=2, scales=3, seed=0)
def test_dynamic_adjacency_matches_its_chain_at_wide_shapes(
    pairing, length, embed, nodes, batch, scales, seed
):
    # Rows of 8 and more nodes take numpy's pairwise sums in the chain's
    # softmax, against the node's one GEMV per row sum.
    check_dynamic_adjacency(pairing, length, embed, nodes, batch, scales, seed)


def check_dynamic_adjacency(pairing, length, embed, nodes, batch, scales, seed):
    rng = np.random.default_rng(seed)
    x, layer = adjacency_case(rng, pairing, length, embed, nodes, batch, scales)
    leaves = [x, layer.w1] if layer.w1 is layer.w2 else [x, layer.w1, layer.w2]
    out_shape = chain_dynamic_adjacency(x, layer).shape
    assert_node_matches_chain(
        lambda: gr.dynamic_adjacency(x, layer),
        lambda: chain_dynamic_adjacency(x, layer),
        leaves,
        rng.normal(0.0, 1.0, out_shape),
    )


@settings(max_examples=200, deadline=None)
@given(pairing=st.sampled_from(["plain", "per-scale"]), **HUGE)
def test_dynamic_adjacency_raises_exactly_when_its_chain_raises(
    pairing, exponent, offset, spread, gain, seed
):
    rng = np.random.default_rng(seed)
    x, layer = adjacency_case(rng, pairing, 4, 3, 3, 2, 2)
    regain(rng, [layer.w1, layer.w2], gain)
    x = ad.Tensor(huge(rng, x.shape, exponent, offset, spread))
    got, want = both_outcomes(
        lambda: gr.dynamic_adjacency(x, layer), lambda: chain_dynamic_adjacency(x, layer)
    )
    if got is not None:
        assert np.abs(got - want).max() < TOL


# ---------------------------------------------------------------------------
# Window reads and wavelet folds


def chain_left_map(maps, x):
    out = ops.matmul(ops.matrix_transpose(maps), x)
    # A 2-D map fills one slot of the node's leading axis.
    return ops.reshape(out, (1, *out.shape)) if maps.ndim == 2 else out


def chain_fold(w, filt, levels, boundary):
    adjoint = wv.adjoint_operators(filt, levels, boundary, w.shape[-2])
    return ops.matmul(ad.Tensor(adjoint[:, None]), w)


# Leading axes of an (L, K) map and of a per-scale stack.
MAP_LEADS = {
    "2d": lambda scales: (),
    "per-scale": lambda scales: (scales, 1),
}


@settings(max_examples=40, deadline=None)
@given(
    layout=st.sampled_from(sorted(MAP_LEADS)),
    length=st.integers(1, 5),
    k=st.integers(1, 3),
    nodes=st.integers(1, 4),
    batch=st.integers(1, 3),
    scales=st.integers(1, 3),
    seed=SEED,
)
def test_left_map_matches_its_chain(layout, length, k, nodes, batch, scales, seed):
    rng = np.random.default_rng(seed)
    maps = ad.Parameter("maps", rng.normal(0.0, 0.7, (*MAP_LEADS[layout](scales), length, k)))
    x = leaf(rng, (batch, length, nodes))
    out_shape = chain_left_map(maps, x).shape
    assert_node_matches_chain(
        lambda: ad.left_map([maps], x),
        lambda: chain_left_map(maps, x),
        [maps, x],
        rng.normal(0.0, 1.0, out_shape),
    )


@settings(max_examples=40, deadline=None)
@given(
    length=st.integers(1, 5),
    k=st.integers(1, 3),
    nodes=st.integers(1, 4),
    batch=st.integers(1, 3),
    scales=st.integers(1, 3),
    seed=SEED,
)
def test_left_map_of_several_maps_reads_each_as_alone(length, k, nodes, batch, scales, seed):
    # The model's projection: a shared map as slot 0, its per-scale stack
    # after it. Each slot keeps the bits of its map's own read.
    rng = np.random.default_rng(seed)
    maps = [
        ad.Parameter(name, rng.normal(0.0, 0.7, (*lead, length, k)))
        for name, lead in (("shared", ()), ("stack", (scales, 1)))
    ]
    x = leaf(rng, (batch, length, nodes))
    got = ad.left_map(maps, x).data
    alone = [ad.left_map([m], x).data for m in maps]
    assert got.tobytes() == np.concatenate(alone).tobytes()

    def chain():
        return ops.concat([chain_left_map(m, x) for m in maps], axis=0)

    assert_node_matches_chain(
        lambda: ad.left_map(maps, x),
        chain,
        [*maps, x],
        rng.normal(0.0, 1.0, got.shape),
    )


@settings(max_examples=200, deadline=None)
@given(layout=st.sampled_from(sorted(MAP_LEADS)), **HUGE)
def test_left_map_raises_exactly_when_its_chain_raises(
    layout, exponent, offset, spread, gain, seed
):
    rng = np.random.default_rng(seed)
    maps = ad.Parameter("maps", np.zeros((*MAP_LEADS[layout](3), 6, 4)))
    regain(rng, [maps], gain)
    x = ad.Tensor(huge(rng, (2, 6, 3), exponent, offset, spread))
    got, want = both_outcomes(
        lambda: ad.left_map([maps], x), lambda: chain_left_map(maps, x)
    )
    if got is not None:
        assert relative_error(got, want, floor=1.0) < TOL


@settings(max_examples=60, deadline=None)
@given(
    reader=st.sampled_from(["left_map", "dynamic_adjacency", "revin"]),
    length=st.integers(1, 5),
    nodes=st.integers(1, 4),
    batch=st.integers(1, 3),
    scales=st.integers(1, 3),
    grad=st.booleans(),
    seed=SEED,
)
def test_window_readers_read_either_layout_alike(
    reader, length, nodes, batch, scales, grad, seed
):
    # Each reader of a (batch, L, N) window gives the same bytes, and the
    # window the same gradient, whether the window is C-ordered or laid
    # out time-major; the gradient comes back in the window's layout.
    rng = np.random.default_rng(seed)
    x = leaf(rng, (batch, length, nodes))
    if reader == "left_map":
        maps = [
            ad.Parameter(name, rng.normal(0.0, 0.7, (*lead, length, 2)))
            for name, lead in (("shared", ()), ("stack", (scales, 1)))
        ]
        params = maps

        def read(window):
            return ad.left_map(maps, window)

    elif reader == "dynamic_adjacency":
        _, layer = adjacency_case(rng, "per-scale", length, 2, nodes, batch, scales)
        params = [layer.w1, layer.w2]

        def read(window):
            return gr.dynamic_adjacency(window, layer)

    else:
        layer = revin(rng, nodes)
        params = [layer.gamma, layer.beta]

        def read(window):
            return layer.normalize(window)[0]

    weight = None
    results = []
    for window in (x, time_major_leaf(x)):
        for t in (window, *params):
            t.zero_grad()
        with contextlib.nullcontext() if grad else ad.no_grad():
            out = read(window)
            if weight is None:
                weight = rng.normal(0.0, 1.0, out.shape)
            if grad:
                ops.reduce_sum(ops.mul(out, weight)).backward()
        assert out.requires_grad == grad
        results.append((out.data.tobytes(), [t.grad for t in (window, *params)]))
        if grad:
            # The gradient is laid out like the window.
            for view in (lambda a: a, lambda a: a.swapaxes(0, 1)):
                assert view(window.grad).flags.c_contiguous == view(window.data).flags.c_contiguous
    (got, got_grads), (want, want_grads) = results
    assert got == want
    for g, w in zip(got_grads, want_grads):
        assert (g is None) == (not grad) and (w is None) == (not grad)
        if grad:
            assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("reader", ["left_map", "dynamic_adjacency"])
def test_finite_differences_probe_a_time_major_window_in_place(reader):
    # The FD oracle perturbs a strided leaf where it lies, so the window's
    # gradient is checked in the layout the RevIN node writes, not only
    # in C order.
    rng = np.random.default_rng(5)
    x, layer = adjacency_case(rng, "per-scale", 3, 2, 2, 2, 2)
    window = time_major_leaf(x)
    assert not window.data.flags.c_contiguous
    if reader == "left_map":
        maps = leaf(rng, (3, 2))

        def read():
            return ad.left_map([maps], window)

    else:

        def read():
            return gr.dynamic_adjacency(window, layer)

    weight = rng.normal(0.0, 1.0, read().shape)
    assert_grads_match(lambda: ops.reduce_sum(ops.mul(read(), weight)), [window])


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["haar", "db4"]),
    boundary=st.sampled_from(["circular", "symmetric"]),
    levels=st.integers(1, 2),
    layout=st.sampled_from(sorted(MAP_LEADS)),
    k=st.integers(1, 3),
    seed=SEED,
)
def test_wavelet_fold_matches_its_chain(family, boundary, levels, layout, k, seed):
    rng = np.random.default_rng(seed)
    filt = wv.wavelet_filter(family)
    w = ad.Parameter("w", rng.normal(0.0, 0.7, (*MAP_LEADS[layout](levels + 1), 16, k)))
    assert_node_matches_chain(
        lambda: wv.decompose(w, filt, levels, boundary, adjoint=True),
        lambda: chain_fold(w, filt, levels, boundary),
        [w],
        rng.normal(0.0, 1.0, (levels + 1, 1, 16, k)),
    )


@settings(max_examples=200, deadline=None)
@given(
    layout=st.sampled_from(sorted(MAP_LEADS)),
    family=st.sampled_from(["haar", "db4"]),
    **{name: strategy for name, strategy in HUGE.items() if name != "gain"},
)
def test_wavelet_fold_raises_exactly_when_its_chain_raises(
    layout, family, exponent, offset, spread, seed
):
    # The map is the fold's only input, so it carries the whole range.
    rng = np.random.default_rng(seed)
    filt = wv.wavelet_filter(family)
    w = ad.Tensor(huge(rng, (*MAP_LEADS[layout](3), 16, 2), exponent, offset, spread))
    got, want = both_outcomes(
        lambda: wv.decompose(w, filt, 2, "symmetric", adjoint=True),
        lambda: chain_fold(w, filt, 2, "symmetric"),
    )
    if got is not None:
        assert relative_error(got, want, floor=1.0) < TOL


def chain_decompose(x, filt, levels, boundary):
    components = wv.component_operators(filt, levels, boundary, x.shape[-2])
    return ops.matmul(ad.Tensor(components[:, None]), x)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["haar", "db4"]),
    boundary=st.sampled_from(["circular", "symmetric"]),
    levels=st.integers(1, 2),
    batch=st.integers(1, 3),
    nodes=st.integers(1, 3),
    seed=SEED,
)
def test_wavelet_decompose_matches_its_chain(family, boundary, levels, batch, nodes, seed):
    # One node for the component stack, the broadcast product it stands for.
    rng = np.random.default_rng(seed)
    filt = wv.wavelet_filter(family)
    x = leaf(rng, (batch, 16, nodes))
    assert_node_matches_chain(
        lambda: wv.decompose(x, filt, levels, boundary),
        lambda: chain_decompose(x, filt, levels, boundary),
        [x],
        rng.normal(0.0, 1.0, (levels + 1, batch, 16, nodes)),
        exact=True,
    )


# ---------------------------------------------------------------------------
# Fusion gate


def fusion_case(rng, count, batch, dim, nodes):
    branches = leaf(rng, (count, batch, dim, nodes))
    layer = fu.FusionLayer(
        ad.Parameter("q", rng.uniform(-0.5, 0.5, dim)),
        ad.Parameter("w_k", np.eye(dim) + rng.normal(0.0, 0.3, (dim, dim))),
    )
    return branches, layer


@settings(max_examples=40, deadline=None)
@given(
    count=st.integers(1, 4),
    batch=st.integers(1, 3),
    dim=st.integers(1, 3),
    nodes=st.integers(1, 3),
    seed=SEED,
)
def test_fuse_matches_its_chain(count, batch, dim, nodes, seed):
    rng = np.random.default_rng(seed)
    branches, layer = fusion_case(rng, count, batch, dim, nodes)
    _, alpha = fu.fuse(branches, layer)
    _, chain_alpha = chain_fuse(branches, layer)
    assert alpha.shape == (batch, count)
    assert np.abs(alpha - chain_alpha).max() < TOL
    assert_node_matches_chain(
        lambda: fu.fuse(branches, layer)[0],
        lambda: chain_fuse(branches, layer)[0],
        [branches, layer.q, layer.w_k],
        rng.normal(0.0, 1.0, (batch, dim, nodes)),
    )


@settings(max_examples=200, deadline=None)
@given(**HUGE)
def test_fuse_raises_exactly_when_its_chain_raises(exponent, offset, spread, gain, seed):
    # Only the first branch is huge, so its logit alone can overflow: at
    # -inf it weighs 0 and the output stays finite, yet the chain raised.
    # Only the outcome is compared: logits near 1e300 that differ in
    # their last bit can weigh the branches differently.
    rng = np.random.default_rng(seed)
    branches, layer = fusion_case(rng, 3, 2, 3, 4)
    regain(rng, [layer.q, layer.w_k], gain)
    branches.data[0] = huge(rng, branches.shape[1:], exponent, offset, spread)
    both_outcomes(lambda: fu.fuse(branches, layer)[0], lambda: chain_fuse(branches, layer)[0])


# ---------------------------------------------------------------------------
# The ``gf`` mean


def mean_case(rng, count, batch, dim, nodes, node_major):
    branches = leaf(rng, (count, batch, dim, nodes))
    if node_major:
        # ``ad.Tensor`` would copy a strided array into C order.
        laid = np.ascontiguousarray(branches.data.swapaxes(-1, -2)).swapaxes(-1, -2)
        branches = ad.record(laid, "input", (), None)
        branches.requires_grad = True
    return branches


@settings(max_examples=40, deadline=None)
@given(
    count=st.integers(1, 4),
    batch=st.integers(1, 3),
    dim=st.integers(1, 3),
    nodes=st.integers(1, 3),
    node_major=st.booleans(),
    seed=SEED,
)
def test_mean_is_its_chain_bit_for_bit(count, batch, dim, nodes, node_major, seed):
    # ``fu.mean`` takes the steps of ``reduce_mean(branches, 0)``, a sum
    # over the branch axis and then a scale, so its value and the stack's
    # gradient are the chain's bytes in the chain's layout, whether the
    # stack is C-ordered or node-major. Its weights are uniform.
    rng = np.random.default_rng(seed)
    branches = mean_case(rng, count, batch, dim, nodes, node_major)
    weight = rng.normal(0.0, 1.0, (batch, dim, nodes))
    results = []
    for build in (lambda: fu.mean(branches)[0], lambda: ops.reduce_mean(branches, 0)):
        branches.zero_grad()
        out = build()
        ops.reduce_sum(ops.mul(out, weight)).backward()
        results.append((out.data, branches.grad))
    for got, want in zip(*results):
        assert got.tobytes() == want.tobytes() and got.strides == want.strides
    assert_node_matches_chain(
        lambda: fu.mean(branches)[0],
        lambda: ops.reduce_mean(branches, 0),
        [branches],
        weight,
        exact=True,
    )
    _, alpha = fu.mean(branches)
    assert np.array_equal(alpha, np.full((batch, count), 1.0 / count))


@settings(max_examples=200, deadline=None)
@given(
    exponent=HUGE["exponent"],
    offset=HUGE["offset"],
    spread=HUGE["spread"],
    node_major=st.booleans(),
    seed=SEED,
)
def test_mean_raises_exactly_when_its_chain_raises(exponent, offset, spread, node_major, seed):
    # A sum of branches near 1e308 overflows, and the scale keeps it
    # infinite, so the node's output guard raises where the chain's sum did.
    rng = np.random.default_rng(seed)
    branches = mean_case(rng, 3, 2, 3, 4, node_major)
    branches.data[...] = huge(rng, branches.shape, exponent, offset, spread)
    got, want = both_outcomes(
        lambda: fu.mean(branches)[0], lambda: ops.reduce_mean(branches, 0)
    )
    if got is not None:
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Head


def head_case(rng, batch, dim, nodes, horizon, width):
    h = leaf(rng, (batch, dim, nodes))
    params = [
        ad.Parameter("w1", rng.normal(0.0, 0.7, (dim, width))),
        ad.Parameter("b1", rng.normal(0.0, 0.3, width)),
        ad.Parameter("w2", rng.normal(0.0, 0.7, (width, horizon))),
        ad.Parameter("b2", rng.normal(0.0, 0.3, horizon)),
    ]
    return h, params


@settings(max_examples=40, deadline=None)
@given(
    batch=st.integers(1, 3),
    dim=st.integers(1, 3),
    nodes=st.integers(1, 3),
    horizon=st.integers(1, 3),
    width=st.integers(1, 4),
    seed=SEED,
)
def test_head_matches_its_chain(batch, dim, nodes, horizon, width, seed):
    rng = np.random.default_rng(seed)
    h, params = head_case(rng, batch, dim, nodes, horizon, width)
    assert_node_matches_chain(
        lambda: md.head(h, *params),
        lambda: chain_head(h, *params),
        [h, *params],
        rng.normal(0.0, 1.0, (batch, horizon, nodes)),
    )


@settings(max_examples=200, deadline=None)
@given(**HUGE)
def test_head_raises_exactly_when_its_chain_raises(exponent, offset, spread, gain, seed):
    rng = np.random.default_rng(seed)
    h, params = head_case(rng, 2, 3, 4, 3, 5)
    regain(rng, params[::2], gain)
    h = ad.Tensor(huge(rng, h.shape, exponent, offset, spread))
    got, want = both_outcomes(lambda: md.head(h, *params), lambda: chain_head(h, *params))
    if got is not None:
        assert relative_error(got, want, floor=1.0) < TOL


# ---------------------------------------------------------------------------
# Loss


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from([(1,), (3, 2), (2, 3, 4)]), seed=SEED)
def test_mse_loss_matches_its_chain(shape, seed):
    rng = np.random.default_rng(seed)
    pred = leaf(rng, shape)
    target = rng.normal(0.0, 1.0, shape)
    assert_node_matches_chain(
        lambda: tr.mse_loss(pred, target),
        lambda: chain_mse_loss(pred, target),
        [pred],
        rng.normal(0.0, 1.0, ()),
        exact=True,
    )


def test_mse_loss_rejects_empty_or_mismatched_operands_as_its_chain_does():
    for shape, target in [((0, 3), np.zeros((0, 3))), ((2, 3), np.zeros((3, 2)))]:
        pred = ad.Tensor(np.zeros(shape), requires_grad=True)
        for loss in (tr.mse_loss, chain_mse_loss):
            with pytest.raises(ShapeError):
                loss(pred, target)


@settings(max_examples=200, deadline=None)
@given(**HUGE)
def test_mse_loss_raises_exactly_when_its_chain_raises(exponent, offset, spread, gain, seed):
    rng = np.random.default_rng(seed)
    pred = ad.Tensor(huge(rng, (2, 3, 4), exponent, offset, spread))
    target = -gain * rng.uniform(-1.0, 1.0, pred.shape)
    got, want = both_outcomes(
        lambda: tr.mse_loss(pred, target), lambda: chain_mse_loss(pred, target)
    )
    if got is not None:
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# The whole forward pass


@settings(max_examples=30, deadline=None)
@given(
    ablation=st.sampled_from([None, *md.ABLATION_MODES]),
    depth=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
def test_forward_matches_the_chain_wired_model(ablation, depth, seed):
    cfg = md.ModelConfig(
        input_len=16, horizon=4, n_vars=3, hidden=4, levels=2, depth=depth, embed_dim=3,
        seed=seed,
    )
    model = md.build_model(cfg)
    rng = np.random.default_rng(seed)
    md.set_static_graph(model, rng.normal(0.0, 1.0, (40, 3)))
    if ablation is not None:
        model = md.ablate(model, ablation)
    x = ad.Tensor(rng.normal(0.0, 1.0, (2, 16, 3)))
    target = rng.normal(0.0, 1.0, (2, 4, 3))
    got, got_grads = model_loss_and_grads(md.forward, x, model, target)
    want, want_grads = model_loss_and_grads(chain_forward, x, model, target)
    assert relative_error(got, want, floor=1.0) < TOL
    assert got_grads.keys() == want_grads.keys()
    for name, g in got_grads.items():
        assert relative_error(g, want_grads[name], floor=1.0) < TOL, name
    with ad.no_grad():
        assert md.forward(x, model).data.tobytes() == got.tobytes()
