"""Graph construction and propagation checked against loop oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgf import autodiff as ad
from sdgf import graphs as gr
from sdgf.errors import ConfigError, DataError, ShapeError

from conftest import assert_grads_match
import oracle_ops as ops

RNG = np.random.default_rng(1097)


def prop_config(depth, dim, thetas=None):
    if thetas is None:
        thetas = [np.eye(dim) for _ in range(depth + 1)]
    params = [ad.Parameter(f"theta{k}", t) for k, t in enumerate(thetas)]
    return gr.GraphPropagationConfig(alpha=0.5, depth=depth, theta=params)


def loop_propagation(h, a_items, thetas, alpha, depth):
    """Independent nested-loop evaluation of the hop recursion."""
    items, dim, nodes = h.shape
    states = [h.copy()]
    for _ in range(depth):
        prev = states[-1]
        nxt = np.zeros_like(h)
        for b in range(items):
            for d in range(dim):
                for i in range(nodes):
                    acc = 0.0
                    for j in range(nodes):
                        acc += a_items[b, i, j] * prev[b, d, j]
                    nxt[b, d, i] = alpha * h[b, d, i] + (1.0 - alpha) * acc
        states.append(nxt)
    out = np.zeros_like(h)
    for theta, state in zip(thetas, states):
        for b in range(items):
            for n in range(nodes):
                out[b, :, n] += theta @ state[b, :, n]
    return out


# ---------------------------------------------------------------------------
# Static graph


def test_identical_series_correlate_perfectly():
    base = RNG.normal(0.0, 1.0, (2, 50, 1))
    x = np.concatenate([base, base], axis=2)
    m = gr.pearson_matrix(x)
    assert abs(m[0, 1] - 1.0) < 1e-6


def test_negated_series_hand_case():
    base = RNG.normal(0.0, 1.0, (1, 40, 1))
    x = np.concatenate([base, -base], axis=2)
    m = gr.pearson_matrix(x)
    assert abs(m[0, 1] + 1.0) < 1e-6
    a = gr.pearson_adjacency(x)
    # ReLU kills the -1, leaving rows softmax([1, 0]).
    np.testing.assert_allclose(
        a, [[0.7310585786300049, 0.2689414213699951], [0.2689414213699951, 0.7310585786300049]],
        atol=1e-6,
    )


def test_constant_variable_yields_zero_correlation():
    x = np.concatenate(
        [np.full((1, 30, 1), 4.0), RNG.normal(0.0, 1.0, (1, 30, 1))], axis=2
    )
    m = gr.pearson_matrix(x)
    assert np.all(np.isfinite(m))
    np.testing.assert_allclose(m[0], 0.0, atol=1e-12)


def test_correlation_needs_two_steps():
    with pytest.raises(DataError):
        gr.pearson_matrix(np.zeros((1, 1, 3)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), nodes=st.integers(1, 6))
def test_static_adjacency_rows_are_distributions(seed, nodes):
    x = np.random.default_rng(seed).normal(0.0, 2.0, (3, 20, nodes))
    a = gr.pearson_adjacency(x)
    assert a.shape == (nodes, nodes)
    assert np.all(a >= 0.0)
    np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-9)


def test_static_adjacency_affine_invariance():
    x = RNG.normal(0.0, 1.0, (4, 30, 5))
    scale = RNG.uniform(0.5, 3.0, 5)
    offset = RNG.normal(0.0, 10.0, 5)
    a = gr.pearson_adjacency(x)
    b = gr.pearson_adjacency(x * scale + offset)
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_static_adjacency_deterministic():
    x = RNG.normal(0.0, 1.0, (2, 25, 4))
    np.testing.assert_array_equal(gr.pearson_adjacency(x), gr.pearson_adjacency(x.copy()))


# ---------------------------------------------------------------------------
# Propagation


def test_config_validation():
    with pytest.raises(ConfigError):
        gr.GraphPropagationConfig(alpha=1.0, depth=1, theta=[None, None])
    with pytest.raises(ConfigError):
        gr.GraphPropagationConfig(alpha=0.5, depth=2, theta=[None])


def test_identity_graph_identity_maps_doubles_features():
    h = ad.Tensor(RNG.normal(0.0, 1.0, (2, 3, 4)))
    out = gr.static_graph_conv(h, np.eye(4), prop_config(1, 3))
    np.testing.assert_allclose(out.data, 2.0 * h.data, atol=1e-12)


def test_residual_dominates_when_alpha_near_one():
    dim, nodes = 3, 4
    thetas = [RNG.normal(0.0, 1.0, (dim, dim)) for _ in range(3)]
    params = [ad.Parameter(f"t{k}", t) for k, t in enumerate(thetas)]
    cfg = gr.GraphPropagationConfig(alpha=1.0 - 1e-12, depth=2, theta=params)
    h = RNG.normal(0.0, 1.0, (2, dim, nodes))
    a = RNG.uniform(0.0, 1.0, (nodes, nodes))
    a /= a.sum(axis=1, keepdims=True)
    out = gr.static_graph_conv(ad.Tensor(h), a, cfg)
    expected = sum(np.einsum("de,bem->bdm", t, h) for t in thetas)
    np.testing.assert_allclose(out.data, expected, atol=1e-9)


def test_static_conv_matches_loop_oracle():
    dim, nodes, depth = 4, 3, 2
    h = RNG.normal(0.0, 1.0, (2, dim, nodes))
    a = RNG.uniform(0.0, 1.0, (nodes, nodes))
    a /= a.sum(axis=1, keepdims=True)
    thetas = [RNG.normal(0.0, 0.7, (dim, dim)) for _ in range(depth + 1)]
    cfg = gr.GraphPropagationConfig(
        alpha=0.5, depth=depth, theta=[ad.Parameter(f"t{k}", t) for k, t in enumerate(thetas)]
    )
    got = gr.static_graph_conv(ad.Tensor(h), a, cfg).data
    want = loop_propagation(h, np.broadcast_to(a, (2, nodes, nodes)), thetas, 0.5, depth)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_dynamic_conv_matches_loop_oracle():
    dim, nodes, depth = 3, 4, 2
    h = RNG.normal(0.0, 1.0, (2, dim, nodes))
    a = RNG.uniform(0.0, 1.0, (2, nodes, nodes))
    a /= a.sum(axis=2, keepdims=True)
    thetas = [RNG.normal(0.0, 0.7, (dim, dim)) for _ in range(depth + 1)]
    cfg = gr.GraphPropagationConfig(
        alpha=0.5, depth=depth, theta=[ad.Parameter(f"t{k}", t) for k, t in enumerate(thetas)]
    )
    got = gr.dynamic_graph_conv(ad.Tensor(h), ad.Tensor(a), cfg).data
    want = loop_propagation(h, a, thetas, 0.5, depth)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_dynamic_conv_depth_zero_is_identity_map():
    h = ad.Tensor(RNG.normal(0.0, 1.0, (2, 3, 4)))
    a = ad.Tensor(np.broadcast_to(np.eye(4), (2, 4, 4)).copy())
    out = gr.dynamic_graph_conv(h, a, prop_config(0, 3))
    np.testing.assert_allclose(out.data, h.data, atol=1e-12)


def test_uniform_graph_fixes_constant_node_features():
    # Node-constant H is an eigenvector of the uniform adjacency, so the
    # output matches the identity-graph run.
    nodes = 5
    h = np.repeat(RNG.normal(0.0, 1.0, (2, 3, 1)), nodes, axis=2)
    cfg = prop_config(2, 3)
    uniform = gr.static_graph_conv(ad.Tensor(h), np.full((nodes, nodes), 1.0 / nodes), cfg).data
    identity = gr.static_graph_conv(ad.Tensor(h), np.eye(nodes), cfg).data
    np.testing.assert_allclose(uniform, identity, atol=1e-12)


def test_propagation_linear_in_features():
    nodes, dim = 4, 3
    a = RNG.uniform(0.0, 1.0, (nodes, nodes))
    a /= a.sum(axis=1, keepdims=True)
    thetas = [RNG.normal(0.0, 1.0, (dim, dim)) for _ in range(2)]
    cfg = gr.GraphPropagationConfig(
        alpha=0.3, depth=1, theta=[ad.Parameter(f"t{k}", t) for k, t in enumerate(thetas)]
    )
    h1 = RNG.normal(0.0, 1.0, (2, dim, nodes))
    h2 = RNG.normal(0.0, 1.0, (2, dim, nodes))
    c1, c2 = 1.7, -0.4
    combined = gr.static_graph_conv(ad.Tensor(c1 * h1 + c2 * h2), a, cfg).data
    separate = (
        c1 * gr.static_graph_conv(ad.Tensor(h1), a, cfg).data
        + c2 * gr.static_graph_conv(ad.Tensor(h2), a, cfg).data
    )
    np.testing.assert_allclose(combined, separate, atol=1e-10)


def test_hop_states_nonexpansive_for_stochastic_graph():
    nodes = 5
    a = RNG.uniform(0.0, 1.0, (nodes, nodes))
    a /= a.sum(axis=1, keepdims=True)
    h = RNG.normal(0.0, 1.0, (2, 3, nodes))
    states = gr.hop_states(h, lambda state: state @ a.T, alpha=0.4, depth=4)
    assert len(states) == 5
    bound = np.abs(h).max()
    for state in states:
        assert np.abs(state).max() <= bound + 1e-12


def test_shape_mismatch_raises():
    h = ad.Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError):
        gr.static_graph_conv(h, np.eye(5), prop_config(0, 3))
    with pytest.raises(ShapeError):
        gr.dynamic_graph_conv(h, ad.Tensor(np.zeros((2, 5, 5))), prop_config(0, 3))


def misfit(data, shape):
    """``shape`` as it is, or with one axis dropped, added or resized."""
    shape = list(shape)
    how = data.draw(st.sampled_from(["fit", "fit", "drop", "add", "resize"]))
    if how == "drop" and shape:
        del shape[data.draw(st.integers(0, len(shape) - 1))]
    elif how == "add":
        shape.insert(data.draw(st.integers(0, len(shape))), data.draw(st.integers(1, 3)))
    elif how == "resize" and shape:
        shape[data.draw(st.integers(0, len(shape) - 1))] = data.draw(st.integers(1, 4))
    return tuple(shape)


@settings(max_examples=300, deadline=None)
@given(
    form=st.sampled_from(["static", "dynamic", "stack"]),
    slots=st.integers(1, 3),
    batch=st.integers(1, 2),
    dim=st.integers(1, 3),
    nodes=st.integers(1, 3),
    depth=st.integers(0, 2),
    learned=st.booleans(),
    data=st.data(),
)
def test_propagation_refuses_a_misfit_with_a_shape_error_only(
    form, slots, batch, dim, nodes, depth, learned, data
):
    # Each operand fits the call form or misses it by one axis; the call
    # either runs, forward and back, or raises ShapeError, never a numpy
    # ValueError or IndexError.
    stacked = form == "stack" or (form == "dynamic" and data.draw(st.booleans()))
    lead = (slots,) if stacked else ()
    h = ad.Tensor(np.ones(misfit(data, (*lead, batch, dim, nodes))), requires_grad=True)
    theta = misfit(data, (*lead, *(1,) * len(lead), dim, dim))
    cfg = gr.GraphPropagationConfig(alpha=0.5, depth=depth, theta=[
        ad.Parameter(f"theta{k}", np.full(theta, 0.5)) for k in range(depth + 1)
    ])
    items = (slots - 1, batch) if form == "stack" else (*lead, batch)
    graph = np.full(misfit(data, (*items[data.draw(st.integers(0, len(items))):], nodes, nodes)), 0.5)
    graph = ad.Tensor(graph, requires_grad=learned)
    static = np.full(misfit(data, (nodes, nodes)), 0.5)
    try:
        if form == "dynamic":
            out = gr.dynamic_graph_conv(h, graph, cfg)
        else:
            out = gr.static_graph_conv(h, static, cfg, dynamic=graph if form == "stack" else None)
    except ShapeError:
        return
    assert out.shape == h.shape
    out._vjp(np.ones(out.shape))


# ---------------------------------------------------------------------------
# Dynamic adjacency


def test_zero_embeddings_give_uniform_rows():
    layer = gr.DynamicGraphLayer(
        ad.Parameter("w1", np.zeros((10, 4))), ad.Parameter("w2", np.zeros((10, 4)))
    )
    a = gr.dynamic_adjacency(ad.Tensor(RNG.normal(0.0, 1.0, (2, 10, 5))), layer)
    np.testing.assert_allclose(a.data, 0.2, atol=1e-12)


def test_single_node_adjacency_is_one():
    layer = gr.DynamicGraphLayer(
        ad.Parameter("w1", RNG.normal(0.0, 0.3, (6, 2))),
        ad.Parameter("w2", RNG.normal(0.0, 0.3, (6, 2))),
    )
    a = gr.dynamic_adjacency(ad.Tensor(RNG.normal(0.0, 1.0, (3, 6, 1))), layer)
    np.testing.assert_allclose(a.data, 1.0, atol=0)


def test_dynamic_adjacency_matches_embedding_oracle():
    length, nodes, embed = 5, 3, 2
    w1 = RNG.normal(0.0, 0.4, (length, embed))
    w2 = RNG.normal(0.0, 0.4, (length, embed))
    x = RNG.normal(0.0, 1.0, (2, length, nodes))
    layer = gr.DynamicGraphLayer(ad.Parameter("w1", w1), ad.Parameter("w2", w2))
    got = gr.dynamic_adjacency(ad.Tensor(x), layer).data

    want = np.zeros((2, nodes, nodes))
    for b in range(2):
        e1 = np.zeros((nodes, embed))
        e2 = np.zeros((nodes, embed))
        for i in range(nodes):
            for m in range(embed):
                e1[i, m] = np.tanh(sum(x[b, t, i] * w1[t, m] for t in range(length)))
                e2[i, m] = np.tanh(sum(x[b, t, i] * w2[t, m] for t in range(length)))
        for i in range(nodes):
            row = np.array([sum(e1[i, m] * e2[j, m] for m in range(embed)) for j in range(nodes)])
            row = np.exp(row - row.max())
            want[b, i] = row / row.sum()
    np.testing.assert_allclose(got, want, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), nodes=st.integers(1, 5))
def test_dynamic_adjacency_rows_are_distributions(seed, nodes):
    rng = np.random.default_rng(seed)
    layer = gr.DynamicGraphLayer(
        ad.Parameter("w1", rng.normal(0.0, 0.5, (8, 3))),
        ad.Parameter("w2", rng.normal(0.0, 0.5, (8, 3))),
    )
    a = gr.dynamic_adjacency(ad.Tensor(rng.normal(0.0, 1.0, (2, 8, nodes))), layer).data
    assert np.all(a > 0.0)
    np.testing.assert_allclose(a.sum(axis=2), 1.0, atol=1e-9)


def test_gradients_flow_through_dynamic_path():
    length, nodes, dim = 6, 3, 4
    w1 = ad.Parameter("w1", RNG.normal(0.0, 0.4, (length, 2)))
    w2 = ad.Parameter("w2", RNG.normal(0.0, 0.4, (length, 2)))
    thetas = [ad.Parameter(f"t{k}", RNG.normal(0.0, 0.5, (dim, dim))) for k in range(2)]
    cfg = gr.GraphPropagationConfig(alpha=0.5, depth=1, theta=thetas)
    layer = gr.DynamicGraphLayer(w1, w2)
    x = ad.Tensor(RNG.normal(0.0, 1.0, (2, length, nodes)))
    h = ad.Tensor(RNG.normal(0.0, 1.0, (2, dim, nodes)))
    w = ad.Tensor(RNG.normal(0.0, 1.0, (2, dim, nodes)))

    def loss():
        out = gr.dynamic_graph_conv(h, gr.dynamic_adjacency(x, layer), cfg)
        return ops.reduce_sum(ops.mul(out, w))

    assert_grads_match(loss, [w1, w2, *thetas], tol=1e-4)


# ---------------------------------------------------------------------------
# Scale stacks


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    levels=st.integers(1, 3),
)
def test_stacked_scales_match_per_scale_calls(seed, levels):
    # One call with (scales, 1, ...) maps over one window, and one over a
    # (scales, batch, ...) stack, equal one call per scale with its maps.
    rng = np.random.default_rng(seed)
    scales, batch, length, nodes, embed, dim, depth = levels + 1, 3, 8, 4, 3, 5, 2
    w1 = rng.normal(0.0, 0.5, (scales, 1, length, embed))
    w2 = rng.normal(0.0, 0.5, (scales, 1, length, embed))
    thetas = [rng.normal(0.0, 0.5, (scales, 1, dim, dim)) for _ in range(depth + 1)]
    x = rng.normal(0.0, 1.0, (batch, length, nodes))
    h = rng.normal(0.0, 1.0, (scales, batch, dim, nodes))

    layer = gr.DynamicGraphLayer(ad.Parameter("w1", w1), ad.Parameter("w2", w2))
    adj = gr.dynamic_adjacency(ad.Tensor(x), layer)
    out = gr.dynamic_graph_conv(ad.Tensor(h), adj, prop_config(depth, dim, thetas))
    assert adj.shape == (scales, batch, nodes, nodes)
    assert out.shape == (scales, batch, dim, nodes)
    for s in range(scales):
        one = gr.DynamicGraphLayer(ad.Parameter("w1", w1[s, 0]), ad.Parameter("w2", w2[s, 0]))
        want_adj = gr.dynamic_adjacency(ad.Tensor(x), one)
        want_out = gr.dynamic_graph_conv(
            ad.Tensor(h[s]), want_adj, prop_config(depth, dim, [t[s, 0] for t in thetas])
        )
        np.testing.assert_allclose(adj.data[s], want_adj.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.data[s], want_out.data, rtol=0, atol=1e-12)
