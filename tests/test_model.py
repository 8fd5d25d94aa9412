"""Model assembly checks: RevIN, forward contract, ablation, checkpoints, fold cache."""

import contextlib
import dataclasses
import gc
import json
import re
import struct
import warnings
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgf import autodiff as ad
from sdgf import fusion as fu
from sdgf import graphs as gr
from sdgf import model as md
from sdgf import temporal as tp
from sdgf import training as tr
from sdgf import wavelet as wv
from sdgf.errors import CheckpointError, ConfigError, NumericError, ShapeError, StateError

from conftest import (
    branch_cfgs, chain_dynamic_adjacency, fd_gradient, join_checkpoint, model_loss_and_grads,
    refilled, relative_error, split_checkpoint,
)
import oracle_ops as ops

RNG = np.random.default_rng(2024)


def tiny_config(**overrides):
    base = dict(
        input_len=8,
        horizon=4,
        n_vars=3,
        hidden=4,
        levels=1,
        depth=1,
        embed_dim=4,
        seed=7,
    )
    base.update(overrides)
    return md.ModelConfig(**base)


def ready_model(cfg=None, rows=40):
    cfg = cfg or tiny_config()
    model = md.build_model(cfg)
    md.set_static_graph(model, RNG.normal(0.0, 1.0, (rows, cfg.n_vars)))
    return model


# ---------------------------------------------------------------------------
# RevIN


def make_revin(n=2, gamma=None, beta=None):
    g = np.ones(n) if gamma is None else np.asarray(gamma, dtype=np.float64)
    b = np.zeros(n) if beta is None else np.asarray(beta, dtype=np.float64)
    return md.RevinLayer(ad.Parameter("g", g), ad.Parameter("b", b))


def test_revin_hand_normalization():
    layer = make_revin(1)
    out, _ = layer.normalize(ad.Tensor(np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1)))
    expect = (np.array([1.0, 2.0, 3.0]) - 2.0) / np.sqrt(2.0 / 3.0 + 1e-5)
    np.testing.assert_allclose(out.data[0, :, 0], expect, atol=1e-12)
    np.testing.assert_allclose(out.data[0, :, 0], [-1.2247, 0.0, 1.2247], atol=1e-3)


def test_revin_constant_series_is_zero():
    layer = make_revin(2)
    out, _ = layer.normalize(ad.Tensor(np.full((2, 5, 2), 9.0)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


@pytest.mark.parametrize("gamma,beta", [(None, None), ([2.0, 2.0], [1.0, 1.0])])
def test_revin_round_trip(gamma, beta):
    layer = make_revin(2, gamma, beta)
    x = RNG.normal(3.0, 2.0, (4, 6, 2))
    back = layer.denormalize(*layer.normalize(ad.Tensor(x)))
    assert np.abs(back.data - x).max() < 1e-8


def test_revin_zero_prediction_denormalizes_to_mean():
    layer = make_revin(2)
    x = RNG.normal(5.0, 1.5, (3, 8, 2))
    _, stats = layer.normalize(ad.Tensor(x))
    out = layer.denormalize(ad.Tensor(np.zeros((3, 4, 2))), stats)
    np.testing.assert_allclose(out.data, np.broadcast_to(x.mean(axis=1, keepdims=True), (3, 4, 2)), atol=1e-9)


def test_revin_batch_mismatch_raises():
    layer = make_revin(2)
    _, stats = layer.normalize(ad.Tensor(np.zeros((2, 4, 2))))
    with pytest.raises(ShapeError):
        layer.denormalize(ad.Tensor(np.zeros((3, 4, 2))), stats)


# ---------------------------------------------------------------------------
# Forward contract


def test_forward_output_shape_full_size():
    cfg = md.ModelConfig(input_len=96, horizon=96, n_vars=7, hidden=16, seed=1)
    model = md.build_model(cfg)
    md.set_static_graph(model, RNG.normal(0.0, 1.0, (300, 7)))
    y = md.forward(ad.Tensor(RNG.normal(0.0, 1.0, (2, 96, 7))), model)
    assert y.shape == (2, 96, 7)


def test_forward_is_deterministic():
    model = ready_model()
    x = ad.Tensor(RNG.normal(0.0, 1.0, (3, 8, 3)))
    a = md.forward(x, model).data
    b = md.forward(ad.Tensor(x.data.copy()), model).data
    np.testing.assert_array_equal(a, b)


def test_forward_rejects_wrong_dims():
    model = ready_model()
    with pytest.raises(ShapeError):
        md.forward(ad.Tensor(np.zeros((2, 9, 3))), model)
    with pytest.raises(ShapeError):
        md.forward(ad.Tensor(np.zeros((2, 8, 4))), model)


def test_forward_needs_a_frozen_static_graph():
    model = md.build_model(tiny_config())
    x = ad.Tensor(RNG.normal(0.0, 1.0, (2, 8, 3)))
    with pytest.raises(StateError, match="static graph is not frozen"):
        md.forward(x, model)
    md.set_static_graph(model, RNG.normal(0.0, 1.0, (40, 3)))
    assert md.forward(x, model).shape == (2, 4, 3)


def test_forward_nan_free_over_many_random_inputs():
    model = ready_model()
    for trial in range(1000):
        x = np.random.default_rng(trial).normal(0.0, 3.0, (1, 8, 3))
        y = md.forward(ad.Tensor(x), model)
        assert np.all(np.isfinite(y.data))


def test_scale_and_shift_equivariance():
    # With identity affine and every graph input per-window normalized,
    # an affine change of the input maps straight onto the prediction.
    # Large input variance keeps the eps guard inside the std negligible.
    model = ready_model()
    x = RNG.normal(0.0, 30.0, (2, 8, 3))
    c, m = 3.0, 40.0
    base = md.forward(ad.Tensor(x), model).data
    moved = md.forward(ad.Tensor(c * x + m), model).data
    assert relative_error(moved, c * base + m) < 1e-6


def test_gradients_match_finite_differences_on_small_model():
    cfg = tiny_config()
    model = ready_model(cfg)
    params = md.parameters(model)
    x = ad.Tensor(RNG.normal(0.0, 1.0, (2, 8, 3)))
    target = RNG.normal(0.0, 1.0, (2, 4, 3))

    def loss_tensor():
        pred = md.forward(x, model)
        err = ops.sub(pred, ad.Tensor(target))
        return ops.reduce_mean(ops.mul(err, err))

    loss = loss_tensor()
    loss.backward()
    worst = 0.0
    for p in params:
        assert p.grad is not None, f"{p.name} received no gradient"
        oracle = fd_gradient(lambda: float(loss_tensor().data), p)
        worst = max(worst, relative_error(p.grad, oracle))
        p.zero_grad()
    assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"


# ---------------------------------------------------------------------------
# Ablations


def test_ablate_unknown_mode():
    with pytest.raises(ConfigError, match="gsl"):
        md.ablate(ready_model(), "xyz")


def test_ablate_is_nondestructive():
    model = ready_model()
    ablated = md.ablate(model, "gsl")
    assert model.ablation is None
    assert ablated.ablation == "gsl"
    assert ablated.input_proj is model.input_proj


@pytest.mark.parametrize("first", md.ABLATION_MODES)
@pytest.mark.parametrize("second", md.ABLATION_MODES)
def test_a_model_carries_at_most_one_ablation(first, second):
    with pytest.raises(ConfigError, match="already ablated"):
        md.ablate(md.ablate(ready_model(), first), second)


def test_gsl_with_single_node_changes_nothing():
    cfg = tiny_config(n_vars=1)
    model = ready_model(cfg)
    x = ad.Tensor(RNG.normal(0.0, 1.0, (2, 8, 1)))
    full = md.forward(x, model).data
    without = md.forward(x, md.ablate(model, "gsl")).data
    np.testing.assert_allclose(full, without, atol=1e-12)


def test_gf_with_identical_branches_changes_nothing():
    # A constant input normalizes to zero, so every branch is the zero
    # tensor and any convex weighting equals the plain mean.
    model = ready_model()
    x = ad.Tensor(np.full((2, 8, 3), 7.0))
    full = md.forward(x, model).data
    without = md.forward(x, md.ablate(model, "gf")).data
    np.testing.assert_allclose(full, without, atol=1e-12)


def test_gf_reports_uniform_attention():
    model = md.ablate(ready_model(), "gf")
    x = ad.Tensor(RNG.normal(0.0, 1.0, (2, 8, 3)))
    _, details = md.forward_with_details(x, model)
    # levels=1 gives two dynamic branches plus the static one.
    np.testing.assert_allclose(details["alpha"], 1.0 / 3.0, atol=0)


def test_tfl_ablation_matches_wiring_oracle():
    # Without the temporal stage the head must see the fused tensor directly.
    cfg = tiny_config()
    model = ready_model(cfg)
    x = ad.Tensor(RNG.normal(0.0, 1.0, (2, 8, 3)))
    got = md.forward(x, md.ablate(model, "tfl")).data

    def fold(maps):
        return wv.decompose(maps, wv.wavelet_filter(cfg.family), cfg.levels, adjoint=True)

    x_norm, stats = model.revin.normalize(x)
    static_cfg, dynamic_cfg = branch_cfgs(model.graph_cfg)
    h_static = gr.static_graph_conv(
        ops.matmul(ops.matrix_transpose(model.input_proj), x_norm),
        model.static_adjacency,
        static_cfg,
    )
    layer = gr.DynamicGraphLayer(fold(model.dynamic_layer.w1), fold(model.dynamic_layer.w2))
    h_dyn = gr.dynamic_graph_conv(
        ops.matmul(ops.matrix_transpose(fold(model.input_proj)), x_norm),
        gr.dynamic_adjacency(x_norm, layer),
        dynamic_cfg,
    )
    branches = ops.concat([ops.reshape(h_static, (1, *h_static.shape)), h_dyn], axis=0)
    fused, _ = fu.fuse(branches, model.fusion_layer)
    out = md.head(fused, model.head_w1, model.head_b1, model.head_w2, model.head_b2)
    want = model.revin.denormalize(out, stats).data
    np.testing.assert_array_equal(got, want)


def stacked_wiring_forward(x, model):
    """The forward pass with the wavelet components built as one stack.

    ``x_norm`` decomposes into (scales, batch, input_len, n_vars) and the
    projection and embedding maps read that stack, the wiring the folded
    maps in ``md.forward`` stand in for. ``dynamic_adjacency`` reads one
    window, so the embeddings read the stack through its op chain.
    """
    cfg = model.config
    x_norm, stats = model.revin.normalize(x)
    proj_t = ops.matrix_transpose(model.input_proj)
    static_adj = np.eye(cfg.n_vars) if model.ablation == "gsl" else model.static_adjacency
    static_cfg, dynamic_cfg = branch_cfgs(model.graph_cfg)
    h_static = gr.static_graph_conv(ops.matmul(proj_t, x_norm), static_adj, static_cfg)
    comps = wv.decompose(x_norm, wv.wavelet_filter(cfg.family), cfg.levels, cfg.boundary)
    if model.ablation == "gsl":
        dyn_adj = ad.Tensor(np.eye(cfg.n_vars))
    else:
        dyn_adj = chain_dynamic_adjacency(comps, model.dynamic_layer)
    h_dyn = gr.dynamic_graph_conv(ops.matmul(proj_t, comps), dyn_adj, dynamic_cfg)
    branches = ops.concat([ops.reshape(h_static, (1, *h_static.shape)), h_dyn], axis=0)
    if model.ablation == "gf":
        fused = ops.reduce_mean(branches, 0)
    else:
        fused, _ = fu.fuse(branches, model.fusion_layer)
    if model.ablation != "tfl":
        fused = tp.inception_forward(fused, model.block)
    out = md.head(fused, model.head_w1, model.head_b1, model.head_w2, model.head_b2)
    return model.revin.denormalize(out, stats)


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(["haar", "db4"]),
    boundary=st.sampled_from(["circular", "symmetric"]),
    levels=st.integers(1, 3),
    ablation=st.sampled_from([None, *md.ABLATION_MODES]),
    seed=st.integers(0, 2**16),
)
def test_folded_forward_matches_component_stack(family, boundary, levels, ablation, seed):
    cfg = tiny_config(input_len=32, family=family, boundary=boundary, levels=levels, seed=seed)
    model = ready_model(cfg)
    if ablation is not None:
        model = md.ablate(model, ablation)
    rng = np.random.default_rng(seed)
    x = ad.Tensor(rng.normal(0.0, 1.0, (2, 32, 3)))
    target = rng.normal(0.0, 1.0, (2, 4, 3))
    got, got_grads = model_loss_and_grads(md.forward, x, model, target)
    want, want_grads = model_loss_and_grads(stacked_wiring_forward, x, model, target)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert got_grads.keys() == want_grads.keys()
    for name, g in got_grads.items():
        np.testing.assert_allclose(g, want_grads[name], rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("overrides", [{}, {"family": "db4", "boundary": "symmetric"}])
def test_step_graph_never_holds_the_component_stack(overrides):
    cfg = tiny_config(input_len=16, levels=2, **overrides)
    model = ready_model(cfg)
    x = ad.Tensor(RNG.normal(0.0, 1.0, (5, 16, 3)))
    err = ops.sub(md.forward(x, model), ad.Tensor(RNG.normal(0.0, 1.0, (5, 4, 3))))
    shapes = {node.shape for node in ad._toposort(ops.reduce_mean(ops.mul(err, err)))}
    assert (cfg.levels + 1, 5, cfg.input_len, cfg.n_vars) not in shapes


def test_ablations_shrink_effective_parameters_but_not_shape():
    model = ready_model()
    x = ad.Tensor(RNG.normal(0.0, 1.0, (2, 8, 3)))
    full = len(md.effective_parameters(model))
    full_count = sum(p.size for p in md.effective_parameters(model))
    for mode in md.ABLATION_MODES:
        cut = md.ablate(model, mode)
        count = sum(p.size for p in md.effective_parameters(cut))
        assert count < full_count
        assert len(md.effective_parameters(cut)) < full
        assert md.forward(x, cut).shape == (2, 4, 3)


@settings(max_examples=20, deadline=None)
@given(
    n_vars=st.integers(2, 7),
    depth=st.integers(0, 2),
    grad=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_a_tfl_forecast_follows_a_permutation_of_the_columns(n_vars, depth, grad, seed):
    # Without the inception block, which slides its kernels along the
    # node axis, every stage treats the variables alike: permuting the
    # window's columns, with the static graph's rows and columns and the
    # per-variable RevIN affine, permutes the forecast. The other
    # variants depend on the column order.
    rng = np.random.default_rng(seed)
    model = md.ablate(ready_model(tiny_config(input_len=16, levels=2, n_vars=n_vars,
                                              depth=depth, seed=seed % 1000)), "tfl")
    model.revin.gamma.data[...] = rng.uniform(0.5, 1.5, n_vars)
    model.revin.beta.data[...] = rng.normal(0.0, 0.5, n_vars)
    perm = rng.permutation(n_vars)
    moved = dataclasses.replace(
        model,
        revin=md.RevinLayer(ad.Parameter("revin.gamma", model.revin.gamma.data[perm]),
                            ad.Parameter("revin.beta", model.revin.beta.data[perm])),
        static_adjacency=model.static_adjacency[perm][:, perm],
    )
    x = rng.normal(0.0, 1.0, (3, 16, n_vars))
    with contextlib.nullcontext() if grad else ad.no_grad():
        want = md.forward(ad.Tensor(x), model).data[..., perm]
        got = md.forward(ad.Tensor(x[..., perm]), moved).data
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Parameter accounting


def test_parameter_count_matches_formula():
    for cfg in (
        tiny_config(),
        tiny_config(depth=0),
        # An odd width: each branch is ceil(hidden / 2) channels wide.
        tiny_config(hidden=5),
        md.ModelConfig(input_len=96, horizon=96, n_vars=7, hidden=16, seed=0),
    ):
        model = md.build_model(cfg)
        assert sum(p.size for p in md.parameters(model)) == ops.predicted_parameter_count(cfg)


def test_acceptance_size_parameter_count_frozen():
    # input_len 8, horizon 4, 3 vars, hidden 8, 2 levels, depth 1, embeds 16:
    # 6 + 64 + 512 + 768 + 72 + 752 + 212 = 2386, worked out by hand.
    cfg = md.ModelConfig(
        input_len=8, horizon=4, n_vars=3, hidden=8, levels=2, depth=1, embed_dim=16, seed=0
    )
    assert ops.predicted_parameter_count(cfg) == 2386
    assert sum(p.size for p in md.parameters(md.build_model(cfg))) == 2386


def test_every_scale_has_its_own_dynamic_maps():
    # The embedding maps carry one matrix per scale, and each hop map one
    # per slot of the branch stack: the static graph's, then the scales'.
    cfg = tiny_config(levels=2)
    model = md.build_model(cfg)
    scales = cfg.levels + 1
    assert model.dynamic_layer.w1.shape == (scales, 1, cfg.input_len, cfg.embed_dim)
    assert model.dynamic_layer.w2.shape == (scales, 1, cfg.input_len, cfg.embed_dim)
    hop_shape = (1 + scales, 1, cfg.hidden, cfg.hidden)
    assert [t.shape for t in model.graph_cfg.theta] == [hop_shape] * (cfg.depth + 1)
    names = [p.name for p in md.parameters(model)]
    assert len(names) == len(set(names))


def test_hop_maps_keep_the_seeded_draw_order():
    # After input_proj come the static graph's hop maps, then each scale's
    # embedding and hop maps in turn, each map as one rng.uniform draw.
    cfg = tiny_config(levels=2, depth=2)
    model = md.build_model(cfg)
    length, dim, embed = cfg.input_len, cfg.hidden, cfg.embed_dim
    hops = range(cfg.depth + 1)
    rng = np.random.default_rng(cfg.seed)

    def uniform(fan_in, shape):
        return rng.uniform(-1.0 / np.sqrt(fan_in), 1.0 / np.sqrt(fan_in), shape)

    np.testing.assert_array_equal(model.input_proj.data, uniform(length, (length, dim)))
    thetas = [t.data for t in model.graph_cfg.theta]
    for k in hops:
        np.testing.assert_array_equal(thetas[k][0, 0], uniform(dim, (dim, dim)))
    for scale in range(cfg.levels + 1):
        for w in (model.dynamic_layer.w1, model.dynamic_layer.w2):
            np.testing.assert_array_equal(w.data[scale, 0], uniform(length, (length, embed)))
        for k in hops:
            np.testing.assert_array_equal(thetas[k][1 + scale, 0], uniform(dim, (dim, dim)))
    np.testing.assert_array_equal(model.fusion_layer.q.data, rng.uniform(-0.1, 0.1, dim))


def test_seeded_builds_are_identical():
    a = md.build_model(tiny_config())
    b = md.build_model(tiny_config())
    for pa, pb in zip(md.parameters(a), md.parameters(b)):
        assert pa.name == pb.name
        np.testing.assert_array_equal(pa.data, pb.data)


def reachable_parameters(node, found=None) -> dict:
    """Every Parameter reachable through attributes and lists, by identity."""
    found = {} if found is None else found
    if isinstance(node, ad.Parameter):
        found[id(node)] = node
    elif isinstance(node, (list, tuple)):
        for item in node:
            reachable_parameters(item, found)
    elif hasattr(node, "__dict__"):
        for value in vars(node).values():
            reachable_parameters(value, found)
    return found


@pytest.mark.parametrize(
    "overrides",
    [{}, {"depth": 0}, {"levels": 2}, {"hidden": 5}, {"depth": 3}],
)
def test_parameter_tree_lists_every_reachable_parameter_once(overrides):
    model = md.build_model(tiny_config(**overrides))
    params = md.parameters(model)
    ids = [id(p) for p in params]
    assert len(ids) == len(set(ids))
    assert set(ids) == set(reachable_parameters(model))
    names = [p.name for p in params]
    assert len(names) == len(set(names))


def test_ablation_prunes_exactly_its_subtree():
    model = ready_model()
    full = md.parameters(model)
    for mode, subtree in md.ABLATED_SUBTREES.items():
        pruned = reachable_parameters(getattr(model, subtree))
        assert pruned
        kept = md.effective_parameters(md.ablate(model, mode))
        assert [id(p) for p in kept] == [id(p) for p in full if id(p) not in pruned]


def test_step_graph_size_does_not_grow_with_levels():
    # Every scale runs in the same stacked ops, so more levels mean
    # bigger arrays, not more graph nodes.
    counts = []
    for levels in (1, 3):
        model = ready_model(tiny_config(levels=levels))
        x = ad.Tensor(RNG.normal(0.0, 1.0, (2, 8, 3)))
        err = ops.sub(md.forward(x, model), ad.Tensor(RNG.normal(0.0, 1.0, (2, 4, 3))))
        loss = ops.reduce_mean(ops.mul(err, err))
        counts.append(sum(1 for node in ad._toposort(loss) if node._vjp is not None))
    assert counts[0] == counts[1]


@settings(max_examples=30, deadline=None)
@given(
    ablation=st.sampled_from([None, *md.ABLATION_MODES]),
    depth=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
def test_one_step_reaches_exactly_the_effective_parameters(ablation, depth, seed):
    model = ready_model(tiny_config(depth=depth, seed=seed))
    if ablation is not None:
        model = md.ablate(model, ablation)
    rng = np.random.default_rng(seed)
    err = ops.sub(
        md.forward(ad.Tensor(rng.normal(0.0, 1.0, (2, 8, 3))), model),
        ad.Tensor(rng.normal(0.0, 1.0, (2, 4, 3))),
    )
    ops.reduce_mean(ops.mul(err, err)).backward()
    effective = {p.name for p in md.effective_parameters(model)}
    assert effective == {p.name for p in md.parameters(model) if p.grad is not None}


def test_grad_forward_records_12_nodes_at_every_depth():
    # The shape of the benchmark's ``small`` workload. RevIN each way,
    # each wavelet fold, the projection of the branch stack, its
    # propagation, the dynamic adjacency, the fusion gate and the head
    # record one node each, and the inception block two (its conv1d and
    # its layer norm), so deeper propagation adds no node. At depth 0 or
    # under gsl no dynamic graph is learned, so the adjacency and its two
    # folds drop out.
    def count(depth, ablation=None):
        cfg = md.ModelConfig(
            n_vars=4, input_len=24, horizon=12, hidden=16, levels=2, depth=depth, embed_dim=8,
            seed=3,
        )
        model = ready_model(cfg)
        if ablation is not None:
            model = md.ablate(model, ablation)
        y = md.forward(ad.Tensor(RNG.normal(0.0, 1.0, (32, 24, 4))), model)
        return sum(node._vjp is not None for node in ad._toposort(y))

    assert [count(depth) for depth in (0, 1, 2, 3)] == [9, 12, 12, 12]
    assert count(2, "gsl") == 9


def held_arrays(root):
    """Every array the graph below ``root`` keeps: node values and closure cells.

    Asserts on the way that no node's vjp holds the node itself, which
    would keep a dropped graph alive until the cycle collector runs.
    """
    arrays = []
    for node in ad._toposort(root):
        arrays.append(node.data)
        closure = node._vjp.__closure__ if node._vjp is not None else None
        for cell in closure or ():
            value = cell.cell_contents
            assert value is not node, f"the vjp of {node} holds its own node"
            arrays.append(value.data if isinstance(value, ad.Tensor) else value)
    return [a for a in arrays if isinstance(a, np.ndarray)]


@pytest.mark.parametrize("ablation", [None, *md.ABLATION_MODES])
def test_grad_forward_keeps_the_window_only_in_the_readers_layout(ablation):
    model = ready_model(tiny_config(input_len=16, levels=2))
    if ablation is not None:
        model = md.ablate(model, ablation)
    x = ad.Tensor(RNG.normal(0.0, 1.0, (5, 16, 3)))
    arrays = held_arrays(md.forward(x, model))
    # Every held array of the window's shape but the input is the RevIN
    # node's value: one time-major array, read in place by every reader.
    held = [a for a in arrays if a.shape == x.shape and a is not x.data]
    assert held and all(a is held[0] for a in held)
    assert held[0].swapaxes(0, 1).flags.c_contiguous
    with ad.no_grad():
        assert held[0].tobytes() == model.revin.normalize(x)[0].data.tobytes()
    assert not [a for a in arrays if a.shape == (16, 15)]


@pytest.mark.parametrize("grad", [True, False])
@pytest.mark.parametrize("depth", [0, 2])
def test_fusion_reads_both_propagation_outputs_in_place(monkeypatch, grad, depth):
    # One propagation node writes the static branch as slot 0 and the
    # scales after it; fusion reads that node's value as it is, and each
    # slot holds the bits of its branch propagated on its own.
    seen = {}

    def spy(owner, name):
        real = getattr(owner, name)

        def wrapped(*args, **kwargs):
            seen[name] = (args, real(*args, **kwargs))
            return seen[name][1]

        monkeypatch.setattr(owner, name, wrapped)

    for owner, name in [(gr, "static_graph_conv"), (gr, "dynamic_graph_conv"), (fu, "fuse")]:
        spy(owner, name)
    model = ready_model(tiny_config(input_len=16, levels=2, depth=depth))
    x = ad.Tensor(RNG.normal(0.0, 1.0, (5, 16, 3)))
    with contextlib.nullcontext() if grad else ad.no_grad():
        md.forward(x, model)
    (projected, static_adj, graph_cfg), branches = seen["static_graph_conv"]
    dyn_adj = seen["dynamic_graph_conv"][0][1]
    # The static call hands the stack on through the module attribute, so
    # a wrapper of either function (as the benchmark's spans) sees it.
    assert seen["dynamic_graph_conv"][1] is branches
    assert seen["fuse"][0][0] is branches
    assert branches.shape == (4, 5, 4, 3)
    assert static_adj is model.static_adjacency and graph_cfg is model.graph_cfg
    assert seen["dynamic_graph_conv"][0][2] is graph_cfg
    static_cfg, dyn_cfg = branch_cfgs(graph_cfg)
    with ad.no_grad():
        static = gr.static_graph_conv(ad.Tensor(projected.data[0]), static_adj, static_cfg)
        dynamic = gr.dynamic_graph_conv(ad.Tensor(projected.data[1:]), dyn_adj, dyn_cfg)
    assert branches.data[0].tobytes() == static.data.tobytes()
    assert branches.data[1:].tobytes() == dynamic.data.tobytes()


@pytest.mark.parametrize("grad", [True, False])
def test_branch_stack_and_block_output_stay_node_major(monkeypatch, grad):
    # The projection, the propagation and the inception conv write their
    # values node-major (their swapaxes view is C-contiguous), and the
    # head reads the norm's rows in place.
    seen = {}

    def spy(owner, name):
        real = getattr(owner, name)

        def wrapped(*args, **kwargs):
            seen[name] = real(*args, **kwargs)
            return seen[name]

        monkeypatch.setattr(owner, name, wrapped)

    for owner, name in [(ad, "left_map"), (gr, "static_graph_conv"), (ad, "conv1d"),
                        (ad, "layer_norm")]:
        spy(owner, name)
    rows = []

    class Reader(np.ndarray):
        """``head.w1``'s value, noting the left operand of each product with it."""

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and inputs[1] is self:
                rows.append(inputs[0])
            inputs = tuple(i.view(np.ndarray) if isinstance(i, Reader) else i for i in inputs)
            return getattr(ufunc, method)(*inputs, **kwargs)

    model = ready_model(tiny_config(input_len=16, levels=2, depth=2, hidden=6))
    model.head_w1.data = model.head_w1.data.view(Reader)
    x = ad.Tensor(RNG.normal(0.0, 1.0, (5, 16, 3)))
    with contextlib.nullcontext() if grad else ad.no_grad():
        md.forward(x, model)
    for name in ("left_map", "static_graph_conv"):
        value = seen[name].data
        assert value.shape == (4, 5, 6, 3)
        assert value.swapaxes(-1, -2).flags.c_contiguous, name
    for name in ("conv1d", "layer_norm"):
        value = seen[name].data
        assert value.shape == (5, 6, 3)
        assert value.swapaxes(-1, -2).flags.c_contiguous, name
    assert rows[0].shape == (15, 6)
    assert np.shares_memory(rows[0], seen["layer_norm"].data)


# ---------------------------------------------------------------------------
# Checkpoints


def test_checkpoint_round_trip_bit_exact():
    model = ready_model()
    x = ad.Tensor(RNG.normal(0.0, 1.0, (2, 8, 3)))
    before = md.forward(x, model).data
    blob = md.save_checkpoint(model, extra={"note": "smoke"})
    loaded, extra = md.load_checkpoint(blob)
    assert extra == {"note": "smoke"}
    np.testing.assert_array_equal(model.static_adjacency, loaded.static_adjacency)
    for pa, pb in zip(md.parameters(model), md.parameters(loaded)):
        assert pa.name == pb.name
        np.testing.assert_array_equal(pa.data, pb.data)
    np.testing.assert_array_equal(before, md.forward(x, loaded).data)


def test_checkpoint_preserves_ablation():
    model = md.ablate(ready_model(), "tfl")
    loaded, _ = md.load_checkpoint(md.save_checkpoint(model))
    assert loaded.ablation == "tfl"


def test_checkpoint_truncation_and_corruption():
    blob = md.save_checkpoint(ready_model())
    with pytest.raises(CheckpointError, match="truncated"):
        md.load_checkpoint(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError, match="magic"):
        md.load_checkpoint(b"NOPE" + blob[4:])
    bad_version = blob[:5] + bytes([9, 0, 0, 0]) + blob[9:]
    with pytest.raises(CheckpointError, match="version"):
        md.load_checkpoint(bad_version)


def reseal(body: bytes) -> bytes:
    """A checkpoint body with a fresh, matching CRC32 trailer."""
    return body + struct.pack("<I", zlib.crc32(body))


def test_checkpoint_trailer_rejects_flips_and_trailing_bytes():
    blob = md.save_checkpoint(ready_model())
    assert struct.unpack("<I", blob[-4:])[0] == zlib.crc32(blob[:-4])
    with pytest.raises(CheckpointError, match="trailing"):
        md.load_checkpoint(blob + b"\x00")
    flipped = bytearray(blob)
    flipped[len(blob) // 2] ^= 0x10
    with pytest.raises(CheckpointError, match="checksum"):
        md.load_checkpoint(bytes(flipped))
    # A flip in the header is caught by the checksum before the header
    # is parsed, not reported as a config that does not match.
    (head_len,) = struct.unpack("<I", blob[9:13])
    head = blob[13 : 13 + head_len]
    at = 13 + head.index(b'"levels": ') + len(b'"levels": ')
    flipped = bytearray(blob)
    flipped[at] ^= 0x04  # the digit stays a digit: "1" -> "5"
    with pytest.raises(CheckpointError, match="checksum"):
        md.load_checkpoint(bytes(flipped))
    with pytest.raises(CheckpointError, match="trailing bytes after the parameters"):
        md.load_checkpoint(reseal(blob[:-4] + b"\x00"))


def test_checkpoint_rejects_non_finite_parameters():
    bad = refilled(md.save_checkpoint(ready_model()), "head.b2", np.nan)
    with pytest.raises(CheckpointError, match="^parameter 'head.b2' holds non-finite values$"):
        md.load_checkpoint(bad)


@pytest.mark.parametrize("value", [np.inf, 5.0, -0.5])
def test_checkpoint_rejects_a_static_adjacency_that_is_not_row_stochastic(value):
    blob = md.save_checkpoint(ready_model())
    (head_len,) = struct.unpack("<I", blob[9:13])
    at = 13 + head_len + 1  # the has-static byte, then the (n, n) matrix
    body = bytearray(blob[:-4])
    body[at : at + 8] = struct.pack("<d", value)
    with pytest.raises(CheckpointError, match="row-stochastic"):
        md.load_checkpoint(reseal(bytes(body)))


def test_checkpoint_header_with_a_float_count_is_checkpoint_error():
    # A hand-edited header can pass the checksum; a float size must not
    # reach the reader as a slice bound.
    blob = md.save_checkpoint(ready_model())
    (head_len,) = struct.unpack("<I", blob[9:13])
    header = json.loads(blob[13 : 13 + head_len])
    header["config"]["n_vars"] = 3.0
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    body = blob[:9] + struct.pack("<I", len(head)) + head + blob[13 + head_len : -4]
    with pytest.raises(CheckpointError, match="n_vars must be an integer"):
        md.load_checkpoint(reseal(body))


@pytest.mark.parametrize("head", [b"\xff{}", b"{not json", b""])
def test_checkpoint_header_that_is_not_utf8_json_is_checkpoint_error(head):
    # The checksum holds, so only the header's decode can refuse it.
    blob = md.save_checkpoint(ready_model())
    (head_len,) = struct.unpack("<I", blob[9:13])
    body = blob[:9] + struct.pack("<I", len(head)) + head + blob[13 + head_len : -4]
    with pytest.raises(CheckpointError, match="^corrupt checkpoint header: "):
        md.load_checkpoint(reseal(body))


def test_checkpoint_round_trip_without_a_static_graph():
    model = md.build_model(tiny_config())
    assert model.static_adjacency is None
    loaded, extra = md.load_checkpoint(md.save_checkpoint(model, extra={"note": 1}))
    assert loaded.static_adjacency is None
    assert extra == {"note": 1}
    for pa, pb in zip(md.parameters(model), md.parameters(loaded), strict=True):
        assert pa.name == pb.name
        assert pa.data.tobytes() == pb.data.tobytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_checkpoint_mutations_fail_or_load_bit_exact(data):
    model = ready_model()
    blob = md.save_checkpoint(model, extra={"note": "fuzz"})
    kind = data.draw(st.sampled_from(["truncate", "flip", "append"]))
    if kind == "truncate":
        bad = blob[: data.draw(st.integers(0, len(blob) - 1))]
    elif kind == "flip":
        bit = data.draw(st.integers(0, 8 * len(blob) - 1))
        mutated = bytearray(blob)
        mutated[bit // 8] ^= 1 << (bit % 8)
        bad = bytes(mutated)
    else:
        bad = blob + data.draw(st.binary(min_size=1, max_size=64))
    try:
        loaded, extra = md.load_checkpoint(bad)
    except CheckpointError:
        return
    assert extra == {"note": "fuzz"}
    np.testing.assert_array_equal(loaded.static_adjacency, model.static_adjacency)
    for pa, pb in zip(md.parameters(model), md.parameters(loaded), strict=True):
        np.testing.assert_array_equal(pa.data, pb.data)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_resealed_checkpoint_mutations_raise_checkpoint_error_or_load_the_tree(data):
    # Each mutation gets a fresh CRC32, so the parser, not the checksum,
    # has to refuse it.
    model = ready_model()
    blob = md.save_checkpoint(model, extra={"note": "fuzz"})
    body = bytearray(blob[:-4])
    kind = data.draw(st.sampled_from(["flip", "truncate", "append", "overwrite", "parameters"]))
    if kind == "flip":
        body[data.draw(st.integers(0, len(body) - 1))] ^= data.draw(st.integers(1, 255))
    elif kind == "truncate":
        del body[data.draw(st.integers(0, len(body) - 1)) :]
    elif kind == "append":
        body += data.draw(st.binary(min_size=1, max_size=64))
    elif kind == "overwrite":
        at = data.draw(st.integers(0, len(body) - 4))
        body[at : at + 4] = data.draw(st.binary(min_size=4, max_size=4))
    else:
        header, static, values = split_checkpoint(blob)
        listed = header["parameters"]
        at = data.draw(st.integers(0, len(listed) - 1))
        edit = data.draw(st.sampled_from(["drop", "insert", "swap", "replace", "whole"]))
        if edit == "drop":
            del listed[at]
        elif edit == "insert":
            listed.insert(at, data.draw(st.sampled_from(listed) | JSON_VALUES))
        elif edit == "swap":
            other = data.draw(st.integers(0, len(listed) - 1))
            listed[at], listed[other] = listed[other], listed[at]
        elif edit == "replace":
            listed[at] = data.draw(JSON_VALUES)
        else:
            header["parameters"] = data.draw(JSON_VALUES)
        body = join_checkpoint(header, static, values)[:-4]
    try:
        loaded, _ = md.load_checkpoint(reseal(bytes(body)))
    except CheckpointError:
        return
    built = md.build_model(loaded.config)
    assert [(p.name, p.shape) for p in md.parameters(loaded)] == [
        (p.name, p.shape) for p in md.parameters(built)
    ]
    assert all(np.isfinite(p.data).all() for p in md.parameters(loaded))


@pytest.mark.parametrize("overrides", [{}, {"depth": 0, "hidden": 5}])
def test_checkpoint_names_are_the_parameter_tree(overrides):
    # The header lists the tree's [name, shape] pairs in order, and the
    # values block is their <f8 bytes back to back, in the same order.
    model = ready_model(tiny_config(**overrides))
    header, _, values = split_checkpoint(md.save_checkpoint(md.ablate(model, "gsl")))
    params = md.parameters(model)
    assert header["parameters"] == [[p.name, list(p.shape)] for p in params]
    assert b"".join(values) == b"".join(p.data.astype("<f8").tobytes() for p in params)


def test_checkpoint_non_utf8_name_is_checkpoint_error():
    # The names live in the JSON header, so a name that is not UTF-8 is a
    # header that does not decode.
    blob = md.save_checkpoint(ready_model())
    assert blob.count(b"revin.gamma") == 1
    bad = blob.replace(b"revin.gamma", b"\xffevin.gamma")
    with pytest.raises(CheckpointError, match="checksum"):
        md.load_checkpoint(bad)
    with pytest.raises(CheckpointError, match="^corrupt checkpoint header: "):
        md.load_checkpoint(reseal(bad[:-4]))


def test_checkpoint_load_makes_no_rng_draw(monkeypatch):
    model = ready_model()
    blob = md.save_checkpoint(model)

    def no_rng(*args, **kwargs):
        raise AssertionError("load_checkpoint drew from an RNG")

    monkeypatch.setattr(md.np.random, "default_rng", no_rng)
    loaded, _ = md.load_checkpoint(blob)
    for pa, pb in zip(md.parameters(model), md.parameters(loaded), strict=True):
        assert pa.data.tobytes() == pb.data.tobytes()


def test_loaded_arrays_are_owned_writeable_copies():
    blob = md.save_checkpoint(ready_model())
    view = np.frombuffer(blob, dtype=np.uint8)
    loaded, _ = md.load_checkpoint(blob)
    arrays = [p.data for p in md.parameters(loaded)] + [loaded.static_adjacency]
    for array in arrays:
        assert array.flags.owndata and array.flags.writeable and array.flags.c_contiguous
        assert array.dtype == np.float64
        assert not np.shares_memory(array, view)


@pytest.mark.parametrize(
    "edit, message",
    [
        ("drop", 'checkpoint lists null as parameter 26, this config builds ["head.b2", [4]]'),
        ("rename", 'checkpoint lists ["head.b9", [8]] as parameter 24, this config builds ["head.b1", [8]]'),
        ("reshape", 'checkpoint lists ["head.b1", [4]] as parameter 24, this config builds ["head.b1", [8]]'),
        ("duplicate", 'checkpoint lists ["graph.theta0", [3, 1, 4, 4]] as parameter 4, this config builds ["graph.theta1", [3, 1, 4, 4]]'),
        ("reorder", 'checkpoint lists ["revin.beta", [3]] as parameter 0, this config builds ["revin.gamma", [3]]'),
        ("extra", 'checkpoint lists ["head.b3", [4]] as parameter 27, this config builds null'),
        ("truncated", "checkpoint truncated: wanted 32 bytes at offset {last}, have 24"),
        ("trailing", "8 trailing bytes after the parameters"),
    ],
)
def test_checkpoint_parameter_list_must_fill_the_tree(edit, message):
    blob = md.save_checkpoint(ready_model())
    header, static, values = split_checkpoint(blob)
    listed = header["parameters"]
    names = [name for name, _ in listed]
    assert len(listed) == 27
    if edit == "drop":
        del listed[names.index("head.b2")]
    elif edit == "rename":
        listed[names.index("head.b1")][0] = "head.b9"
    elif edit == "reshape":
        # head.b1 is (8,); list it as head.b2's (4,).
        listed[names.index("head.b1")][1] = [4]
    elif edit == "duplicate":
        # Two hop maps: the second is listed under the first's name.
        listed[names.index("graph.theta1")][0] = "graph.theta0"
    elif edit == "reorder":
        # Same shapes, so only the position tells them apart.
        listed[0], listed[1] = listed[1], listed[0]
    elif edit == "extra":
        listed.append(["head.b3", [4]])
    elif edit == "truncated":
        values[-1] = values[-1][:-8]
    else:
        values.append(struct.pack("<d", 0.0))
    # head.b2, the last parameter, holds 4 values (32 bytes).
    message = message.format(last=len(blob) - 4 - 32)
    with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
        md.load_checkpoint(join_checkpoint(header, static, values))


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(levels=9)
    with pytest.raises(ConfigError, match="integer"):
        tiny_config(n_vars=3.0)
    with pytest.raises(ConfigError):
        tiny_config(boundary="wrap")
    with pytest.raises(ConfigError):
        tiny_config(hidden=0)
    with pytest.raises(ConfigError, match="seed"):
        tiny_config(seed=-1)
    with pytest.raises(ConfigError):
        md.ModelConfig(input_len=8, horizon=4, n_vars=3, alpha=1.5)


INTEGER_FIELDS = [f.name for f in dataclasses.fields(md.ModelConfig) if f.type == "int"]


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("name", INTEGER_FIELDS)
def test_integer_fields_reject_bool(name, value):
    # True would build a model one unit wide; False a seed or depth of 0.
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        tiny_config(**{name: value})


# ---------------------------------------------------------------------------
# The no_grad cache: wavelet folds and the inception block's composed kernel


def folded_params(model):
    return {"input_proj": model.input_proj, "dyn.w1": model.dynamic_layer.w1,
            "dyn.w2": model.dynamic_layer.w2}


def block_params(model):
    """The sources of the composed kernel, in ``ad.conv1d``'s order; the first keys its entry."""
    block = model.block
    return [*block.branch_kernels, block.residual_kernel, *block.branch_biases,
            block.residual_bias, block.merge_kernel, block.merge_bias]


BLOCK_NAMES = [p.name for p in block_params(md.build_model(tiny_config()))]


def cache_entry(first):
    """``ad.cached``'s entry for the sources led by ``first``: (key, sources, snapshot, value)."""
    key, refs, snapshot, value = ad._CACHE[first]
    return key, [first] + [ref() for ref in refs], snapshot, value


def no_grad_forecast(x, model):
    with ad.no_grad():
        return md.forward(x, model).data


def cache_model():
    """A tiny model whose biases are not zero, so scaling any parameter moves the forecast."""
    model = ready_model(tiny_config(input_len=16, levels=2))
    rng = np.random.default_rng(9)
    for p in md.parameters(model):
        if not p.data.any():
            p.data[...] = rng.normal(0.0, 0.1, p.shape)
    return model


def assert_an_in_place_write_remakes(model, param, first, write):
    """A write to ``param`` makes the entry led by ``first`` afresh, as a fresh load computes it."""
    if write == "zero_sign":
        param.data.flat[0] = 0.0
    x = ad.Tensor(np.random.default_rng(1).normal(0.0, 1.0, (3, 16, 3)))
    before = no_grad_forecast(x, model)
    value = cache_entry(first)[3]
    assert no_grad_forecast(x, model).tobytes() == before.tobytes()
    assert cache_entry(first)[3] is value
    if write == "scale":
        param.data *= 1.5
    elif write == "one_ulp":
        param.data.flat[0] = np.nextafter(param.data.flat[0], np.inf)
    else:
        param.data.flat[0] = -0.0  # equal to 0.0, but not the same bits
    after = no_grad_forecast(x, model)
    _, sources, snapshot, remade = cache_entry(first)
    assert remade is not value
    assert snapshot[[s is param for s in sources].index(True)] == (param.shape, param.data.tobytes())
    fresh, _ = md.load_checkpoint(md.save_checkpoint(model))
    assert after.tobytes() == no_grad_forecast(x, fresh).tobytes()
    if write == "scale":
        assert after.tobytes() != before.tobytes()


@pytest.mark.parametrize("name", ["input_proj", "dyn.w1", "dyn.w2"])
@pytest.mark.parametrize("write", ["scale", "one_ulp", "zero_sign"])
def test_no_grad_forward_refolds_after_an_in_place_write(name, write):
    model = cache_model()
    param = folded_params(model)[name]
    assert_an_in_place_write_remakes(model, param, param, write)


@pytest.mark.parametrize("name", BLOCK_NAMES)
@pytest.mark.parametrize("write", ["scale", "one_ulp", "zero_sign"])
def test_no_grad_forward_recomposes_the_kernel_after_an_in_place_write(name, write):
    model = cache_model()
    sources = block_params(model)
    param = sources[BLOCK_NAMES.index(name)]
    assert_an_in_place_write_remakes(model, param, sources[0], write)


def test_an_adam_step_remakes_every_cached_value():
    model = cache_model()
    rng = np.random.default_rng(3)
    x = ad.Tensor(rng.normal(0.0, 1.0, (3, 16, 3)))
    target = rng.normal(0.0, 1.0, (3, 4, 3))
    before = no_grad_forecast(x, model)
    firsts = [*folded_params(model).values(), block_params(model)[0]]
    values = [cache_entry(first)[3] for first in firsts]
    params = md.effective_parameters(model)
    _, grads = model_loss_and_grads(md.forward, x, model, target)
    tr.adam_step(params, grads, tr.AdamState(lr=1e-2))
    after = no_grad_forecast(x, model)
    assert all(cache_entry(f)[3] is not v for f, v in zip(firsts, values))
    fresh, _ = md.load_checkpoint(md.save_checkpoint(model))
    assert after.tobytes() == no_grad_forecast(x, fresh).tobytes() != before.tobytes()


def test_no_grad_forwards_reuse_the_fold_and_grad_forwards_refold(monkeypatch):
    cfg = tiny_config(input_len=16, levels=2)
    model = ready_model(cfg)
    twin, _ = md.load_checkpoint(md.save_checkpoint(model))
    folds = []
    real_decompose = wv.decompose

    def decompose(*args, **kwargs):
        folds.append(args[0])
        return real_decompose(*args, **kwargs)

    monkeypatch.setattr(wv, "decompose", decompose)
    rng = np.random.default_rng(2)
    x = ad.Tensor(rng.normal(0.0, 1.0, (3, 16, 3)))
    target = rng.normal(0.0, 1.0, (3, 4, 3))
    no_grad_forecast(x, model)
    assert len(folds) == 3
    cached = no_grad_forecast(x, model)
    assert len(folds) == 3
    # Grad mode neither reads nor fills the cache, and every folded map
    # gets the gradient a model that never ran under no_grad gets.
    got_pred, got = model_loss_and_grads(md.forward, x, model, target)
    want_pred, want = model_loss_and_grads(md.forward, x, twin, target)
    assert len(folds) == 9
    assert got_pred.tobytes() == want_pred.tobytes() == cached.tobytes()
    assert got.keys() == want.keys()
    for name in folded_params(model):
        assert got[name].tobytes() == want[name].tobytes(), name
    for param in folded_params(model).values():
        (fold,) = cache_entry(param)[3]
        assert not fold.requires_grad and not fold.data.flags.writeable


def test_grad_mode_neither_reads_nor_fills_the_kernel_cache():
    model = cache_model()
    twin, _ = md.load_checkpoint(md.save_checkpoint(model))
    rng = np.random.default_rng(4)
    x = ad.Tensor(rng.normal(0.0, 1.0, (3, 16, 3)))
    target = rng.normal(0.0, 1.0, (3, 4, 3))
    first = block_params(model)[0]
    model_loss_and_grads(md.forward, x, model, target)
    assert first not in ad._CACHE
    cached = no_grad_forecast(x, model)
    key, _, _, (weight, out_bias, offsets) = cache_entry(first)
    assert key == ("conv1d", 1, 2, 1, 2, 1) and list(offsets) == [-4, -2, -1, 0, 1, 2, 4]
    assert not weight.flags.writeable and not out_bias.flags.writeable
    # Poison the entry: a no_grad forecast reads it, a grad forward does not.
    ad._CACHE[first] = ad._CACHE[first][:3] + ((np.zeros_like(weight), out_bias, offsets),)
    poisoned = ad._CACHE[first]
    assert no_grad_forecast(x, model).tobytes() != cached.tobytes()
    got_pred, got = model_loss_and_grads(md.forward, x, model, target)
    want_pred, want = model_loss_and_grads(md.forward, x, twin, target)
    assert ad._CACHE[first] is poisoned
    assert got_pred.tobytes() == want_pred.tobytes() == cached.tobytes()
    assert got.keys() == want.keys()
    for name in got:
        assert got[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("batch", [1, 32])
def test_a_cached_forecast_is_a_freshly_loaded_checkpoints(batch):
    model = cache_model()
    x = ad.Tensor(np.random.default_rng(5).normal(0.0, 1.0, (batch, 16, 3)))
    first = no_grad_forecast(x, model)
    cached = no_grad_forecast(x, model)
    fresh, _ = md.load_checkpoint(md.save_checkpoint(model))
    assert first.tobytes() == cached.tobytes() == no_grad_forecast(x, fresh).tobytes()


def test_fold_cache_does_not_keep_a_dropped_model_alive():
    model = ready_model(tiny_config(input_len=16, levels=2))
    no_grad_forecast(ad.Tensor(np.ones((1, 16, 3))), model)
    params = [*folded_params(model).values(), *block_params(model)]
    assert all(p in ad._CACHE for p in params[:4])
    refs = [weakref.ref(model)] + [weakref.ref(p) for p in params]
    del model, params
    gc.collect()
    assert [r() for r in refs] == [None] * 16


# ---------------------------------------------------------------------------
# One finiteness check per forward, in grad mode and under no_grad


def forward_outcome(x, model, how, grads=False):
    """What a forward gives and numpy's warnings on the way.

    ``how`` is "no_grad" (a forecast), "grad" (``md.forward`` recording a
    graph) or "every guard" (``md._forward`` in grad mode, which guards
    every node's output as it goes). A forward gives the bytes of its
    output, with ``grads`` those of every gradient of its MSE against
    zeros too, or the message of the ``NumericError`` it raised.
    """
    params = md.parameters(model)
    for p in params:
        p.zero_grad()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if how == "no_grad":
                got = no_grad_forecast(x, model).tobytes()
            else:
                y = md.forward(x, model) if how == "grad" else md._forward(x, model)[0]
                got = y.data.tobytes()
                if grads:
                    loss = tr.mse_loss(y, np.zeros(y.shape))
                    got = [got, *(g.tobytes() for g in ad.backward(loss, params).values())]
        except NumericError as exc:
            got = str(exc)
    return got, [str(w.message) for w in caught]


def poison(model, x, where, value, series, rng):
    """``value`` in a window cell or series (``where`` < 0) or in one entry of a parameter."""
    if where < 0:
        item, step, var = (rng.integers(n) for n in x.shape)
        x[item, slice(None) if series else step, var] = value
    else:
        params = md.parameters(model)
        param = params[where % len(params)]
        param.data.flat[rng.integers(param.size)] = value


POISONS = dict(
    where=st.integers(-1, 10**6),
    value=st.sampled_from([np.inf, -np.inf, np.nan, 1e200, -1e200]),
    series=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
    mode=st.sampled_from([None, *md.ABLATION_MODES]),
)


@settings(max_examples=60, deadline=None)
@given(**POISONS)
def test_a_no_grad_forecast_raises_or_returns_what_every_guard_gives(where, value, series, seed, mode):
    # The oracle guards every node's output and reads no cache. The
    # no_grad forecast runs with its cache warm.
    model = cache_model()
    net = md.ablate(model, mode) if mode else model
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (2, 16, 3))
    no_grad_forecast(ad.Tensor(x), net)
    poison(model, x, where, value, series, rng)
    x = ad.Tensor(x)
    assert forward_outcome(x, net, "no_grad") == forward_outcome(x, net, "every guard")
    assert ad._output_guards


@settings(max_examples=60, deadline=None)
@given(**POISONS)
def test_a_grad_forward_raises_or_returns_what_every_guard_gives(where, value, series, seed, mode):
    # A training forward checks its output once and replays with every
    # guard on after a failure, so its value, its gradients, its error and
    # its warnings are those of a forward guarded node by node.
    model = cache_model()
    net = md.ablate(model, mode) if mode else model
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (2, 16, 3))
    poison(model, x, where, value, series, rng)
    x = ad.Tensor(x)
    assert forward_outcome(x, net, "grad", True) == forward_outcome(x, net, "every guard", True)
    assert ad._output_guards


@pytest.mark.parametrize("series", [False, True])
@pytest.mark.parametrize("value, op", [
    (np.inf, "revin_normalize"), (np.nan, "revin_normalize"), (1e200, "revin_denormalize"),
])
def test_a_bad_window_names_the_op_a_guard_on_every_node_names(value, op, series):
    # A huge finite series overflows its variance (its mean is rounded
    # at 24 steps): its std is inf, so the normalized window is finite
    # and the forecast is not.
    model = ready_model(tiny_config(input_len=24, levels=2))
    x = np.random.default_rng(6).normal(0.0, 1.0, (3, 24, 3))
    x[1, slice(None) if series else 5, 2] = value
    want = forward_outcome(ad.Tensor(x), model, "every guard")
    assert want[0] == f"{op} produced a non-finite value"
    for how in ("no_grad", "grad"):
        assert forward_outcome(ad.Tensor(x), model, how) == want, how


def test_a_clean_no_grad_forecast_runs_only_the_checked_guards(monkeypatch):
    model = cache_model()
    x = ad.Tensor(np.random.default_rng(7).normal(0.0, 1.0, (3, 16, 3)))
    guarded = []
    real_guard = ad._guard

    def guard(data, op):
        guarded.append(op)
        real_guard(data, op)

    monkeypatch.setattr(ad, "_guard", guard)
    no_grad_forecast(x, model)
    # The products before tanh, the adjacency scores, the fusion logits
    # and the layer-norm variance.
    assert sorted(guarded) == ["dynamic_adjacency", "dynamic_adjacency", "fuse", "head", "layer_norm"]
    guarded.clear()
    with ad.no_grad():
        md.forward(x, model)
        ad.guard_once(lambda: (md.forward(x, model),))
    assert len(guarded) == 2 * 5
    guarded.clear()
    md.forward(x, model)
    assert len(guarded) == 5
    # A forward with every guard on guards each of its 12 nodes' outputs too.
    guarded.clear()
    md._forward(x, model)
    assert len(guarded) == 12 + 5


def test_finite_checks_off_turns_every_guard_off():
    model = cache_model()
    x = np.random.default_rng(8).normal(0.0, 1.0, (3, 16, 3))
    x[0, 3, 1] = np.inf
    previous = ad.set_finite_checks(False)
    try:
        with np.errstate(all="ignore"):
            forecast = no_grad_forecast(ad.Tensor(x), model)
    finally:
        ad.set_finite_checks(previous)
    assert np.isnan(forecast[0]).all() and np.isfinite(forecast[1:]).all()
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="^revin_normalize "):
        no_grad_forecast(ad.Tensor(x), model)
    # The failed forecast left every output guard on.
    with pytest.raises(NumericError, match="^probe produced a non-finite value$"):
        ad.record(np.array([np.inf]), "probe", (), None)
