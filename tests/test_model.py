"""Model assembly checks: RevIN, forward contract, ablation, checkpoints."""

import json
import re
import struct
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
from sdgf import wavelet as wv
from sdgf.errors import CheckpointError, ConfigError, ShapeError, StateError

from conftest import fd_gradient, relative_error

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


def test_forward_needs_static_graph_or_per_batch():
    model = md.build_model(tiny_config())
    x = ad.Tensor(RNG.normal(0.0, 1.0, (2, 8, 3)))
    with pytest.raises(StateError):
        md.forward(x, model)
    model2 = md.build_model(tiny_config(per_batch_static=True))
    assert md.forward(x, model2).shape == (2, 4, 3)


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
    cfg = tiny_config(per_batch_static=True)
    model = md.build_model(cfg)
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
        err = ad.sub(pred, ad.Tensor(target))
        return ad.mul(err, err).mean()

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
    assert model.ablations == frozenset()
    assert ablated.ablations == {"gsl"}
    assert ablated.input_proj is model.input_proj


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
    h_static = gr.static_graph_conv(
        ad.matmul(ad.matrix_transpose(model.input_proj), x_norm),
        model.static_adjacency,
        model.static_cfg,
    )
    layer = gr.DynamicGraphLayer(fold(model.dynamic_layer.w1), fold(model.dynamic_layer.w2))
    h_dyn = gr.dynamic_graph_conv(
        ad.matmul(ad.matrix_transpose(fold(model.input_proj)), x_norm),
        gr.dynamic_adjacency(x_norm, layer),
        model.dynamic_cfg,
    )
    branches = ad.concat([ad.reshape(h_static, (1, *h_static.shape)), h_dyn], axis=0)
    fused, _ = fu.fuse(branches, model.fusion_layer)
    per_var = ad.transpose(fused, (0, 2, 1))
    hidden = ad.tanh(ad.add(ad.matmul(per_var, model.head_w1), model.head_b1))
    out = ad.add(ad.matmul(hidden, model.head_w2), model.head_b2)
    want = model.revin.denormalize(ad.transpose(out, (0, 2, 1)), stats).data
    np.testing.assert_array_equal(got, want)


def stacked_wiring_forward(x, model):
    """The forward pass with the wavelet components built as one stack.

    ``x_norm`` decomposes into (scales, batch, input_len, n_vars) and the
    projection and embedding maps read that stack, the wiring the folded
    maps in ``md.forward`` stand in for.
    """
    cfg = model.config
    x_norm, stats = model.revin.normalize(x)
    proj_t = ad.matrix_transpose(model.input_proj)
    static_adj = np.eye(cfg.n_vars) if "gsl" in model.ablations else model.static_adjacency
    h_static = gr.static_graph_conv(ad.matmul(proj_t, x_norm), static_adj, model.static_cfg)
    comps = wv.decompose(x_norm, wv.wavelet_filter(cfg.family), cfg.levels, cfg.boundary)
    if "gsl" in model.ablations:
        dyn_adj = ad.Tensor(np.eye(cfg.n_vars))
    else:
        dyn_adj = gr.dynamic_adjacency(comps, model.dynamic_layer)
    h_dyn = gr.dynamic_graph_conv(ad.matmul(proj_t, comps), dyn_adj, model.dynamic_cfg)
    branches = ad.concat([ad.reshape(h_static, (1, *h_static.shape)), h_dyn], axis=0)
    if "gf" in model.ablations:
        fused = branches.mean(axis=0)
    else:
        fused, _ = fu.fuse(branches, model.fusion_layer)
    if "tfl" not in model.ablations:
        for block in model.blocks:
            fused = tp.inception_forward(fused, block, cfg.conv_axis)
    per_var = ad.transpose(fused, (0, 2, 1))
    hidden = ad.tanh(ad.add(ad.matmul(per_var, model.head_w1), model.head_b1))
    out = ad.add(ad.matmul(hidden, model.head_w2), model.head_b2)
    return model.revin.denormalize(ad.transpose(out, (0, 2, 1)), stats)


def loss_and_grads(forward, x, model, target):
    """Forecast and the squared-error gradients of ``model``'s effective parameters."""
    params = md.effective_parameters(model)
    for p in params:
        p.zero_grad()
    pred = forward(x, model)
    err = ad.sub(pred, ad.Tensor(target))
    grads = ad.backward(ad.mul(err, err).mean(), params)
    for p in params:
        p.zero_grad()
    return pred.data, grads


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(["haar", "db4"]),
    boundary=st.sampled_from(["circular", "symmetric"]),
    levels=st.integers(1, 3),
    share=st.booleans(),
    ablation=st.sampled_from([None, *md.ABLATION_MODES]),
    seed=st.integers(0, 2**16),
)
def test_folded_forward_matches_component_stack(family, boundary, levels, share, ablation, seed):
    cfg = tiny_config(
        input_len=32, family=family, boundary=boundary, levels=levels,
        share_dynamic_weights=share, seed=seed,
    )
    model = ready_model(cfg)
    if ablation is not None:
        model = md.ablate(model, ablation)
    rng = np.random.default_rng(seed)
    x = ad.Tensor(rng.normal(0.0, 1.0, (2, 32, 3)))
    target = rng.normal(0.0, 1.0, (2, 4, 3))
    got, got_grads = loss_and_grads(md.forward, x, model, target)
    want, want_grads = loss_and_grads(stacked_wiring_forward, x, model, target)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert got_grads.keys() == want_grads.keys()
    for name, g in got_grads.items():
        np.testing.assert_allclose(g, want_grads[name], rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("overrides", [{}, {"share_dynamic_weights": True}])
def test_step_graph_never_holds_the_component_stack(overrides):
    cfg = tiny_config(input_len=16, levels=2, **overrides)
    model = ready_model(cfg)
    x = ad.Tensor(RNG.normal(0.0, 1.0, (5, 16, 3)))
    err = ad.sub(md.forward(x, model), ad.Tensor(RNG.normal(0.0, 1.0, (5, 4, 3))))
    shapes = {node.shape for node in ad._toposort(ad.mul(err, err).mean())}
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


# ---------------------------------------------------------------------------
# Parameter accounting


def test_parameter_count_matches_formula():
    for cfg in (
        tiny_config(),
        tiny_config(share_dynamic_weights=True),
        tiny_config(conv_axis="channels"),
        tiny_config(temporal_blocks=2, branch_width=3),
        md.ModelConfig(input_len=96, horizon=96, n_vars=7, hidden=16, seed=0),
    ):
        model = md.build_model(cfg)
        assert md.parameter_count(model) == md.predicted_parameter_count(cfg)


def test_acceptance_size_parameter_count_frozen():
    # input_len 8, horizon 4, 3 vars, hidden 8, 2 levels, depth 1, embeds 16:
    # 6 + 64 + 512 + 768 + 72 + 752 + 212 = 2386, worked out by hand.
    cfg = md.ModelConfig(
        input_len=8, horizon=4, n_vars=3, hidden=8, levels=2, depth=1, embed_dim=16, seed=0
    )
    assert md.predicted_parameter_count(cfg) == 2386
    assert md.parameter_count(md.build_model(cfg)) == 2386


def test_shared_dynamic_weights_share_objects():
    # Sharing is a size-1 scale axis on the embedding maps, which then
    # broadcast over every scale; the hop maps stay per scale.
    cfg = tiny_config(share_dynamic_weights=True)
    model = md.build_model(cfg)
    scales = cfg.levels + 1
    assert model.dynamic_layer.w1.shape == (1, 1, cfg.input_len, cfg.embed_dim)
    assert model.dynamic_layer.w2.shape == (1, 1, cfg.input_len, cfg.embed_dim)
    assert all(t.shape == (scales, 1, cfg.hidden, cfg.hidden) for t in model.dynamic_cfg.theta)
    names = [p.name for p in md.parameters(model)]
    assert len(names) == len(set(names))


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
    [{}, {"share_dynamic_weights": True}, {"temporal_blocks": 2, "levels": 2},
     {"conv_axis": "channels"}, {"temporal_blocks": 0}],
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
    both = md.ablate(md.ablate(model, "gsl"), "tfl")
    pruned = reachable_parameters([model.dynamic_layer, model.blocks])
    assert [id(p) for p in md.effective_parameters(both)] == [
        id(p) for p in full if id(p) not in pruned
    ]


def test_step_graph_size_does_not_grow_with_levels():
    # Every scale runs in the same stacked ops, so more levels mean
    # bigger arrays, not more graph nodes.
    counts = []
    for levels in (1, 3):
        model = ready_model(tiny_config(levels=levels))
        x = ad.Tensor(RNG.normal(0.0, 1.0, (2, 8, 3)))
        err = ad.sub(md.forward(x, model), ad.Tensor(RNG.normal(0.0, 1.0, (2, 4, 3))))
        loss = ad.mul(err, err).mean()
        counts.append(sum(1 for node in ad._toposort(loss) if node._vjp is not None))
    assert counts[0] == counts[1]


def test_conv_axis_channels_forward():
    cfg = tiny_config(conv_axis="channels")
    model = ready_model(cfg)
    y = md.forward(ad.Tensor(RNG.normal(0.0, 1.0, (2, 8, 3))), model)
    assert y.shape == (2, 4, 3)


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
    assert loaded.ablations == {"tfl"}


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
    blob = md.save_checkpoint(ready_model())
    # head.b2 is a (horizon,) vector: name, ndim byte, one 4-byte dim, values.
    at = blob.index(b"head.b2") + len(b"head.b2") + 1 + 4
    body = bytearray(blob[:-4])
    body[at : at + 8] = struct.pack("<d", np.nan)
    with pytest.raises(CheckpointError, match="head.b2"):
        md.load_checkpoint(reseal(bytes(body)))


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


def checkpoint_names(blob: bytes, n_vars: int) -> list[str]:
    """The parameter names stored in a checkpoint, in stored order."""
    r = md._Reader(blob)
    r.read(len(md.CHECKPOINT_MAGIC) + 4)
    (head_len,) = r.unpack("<I")
    r.read(head_len)
    (has_static,) = r.unpack("<B")
    r.read(n_vars * n_vars * 8 if has_static else 0)
    (count,) = r.unpack("<I")
    names = []
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        names.append(r.read(name_len).decode("utf-8"))
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}I")
        r.read(8 * int(np.prod(shape)))
    # Only the CRC32 trailer follows the parameters.
    assert r.pos == len(blob) - 4
    return names


@pytest.mark.parametrize("overrides", [{}, {"share_dynamic_weights": True}])
def test_checkpoint_names_are_the_parameter_tree(overrides):
    model = ready_model(tiny_config(**overrides))
    names = checkpoint_names(md.save_checkpoint(md.ablate(model, "gsl")), 3)
    assert names == [p.name for p in md.parameters(model)]


def test_checkpoint_non_utf8_name_is_checkpoint_error():
    blob = md.save_checkpoint(ready_model())
    assert blob.count(b"revin.gamma") == 1
    bad = blob.replace(b"revin.gamma", b"\xffevin.gamma")
    with pytest.raises(CheckpointError, match="checksum"):
        md.load_checkpoint(bad)
    with pytest.raises(CheckpointError, match="name"):
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


def parameter_entries(blob: bytes, n_vars: int) -> tuple[bytes, list[bytes]]:
    """A checkpoint body split into what precedes the parameter count and
    one byte string per stored parameter (name, shape and values)."""
    r = md._Reader(blob)
    r.read(len(md.CHECKPOINT_MAGIC) + 4)
    (head_len,) = r.unpack("<I")
    r.read(head_len)
    (has_static,) = r.unpack("<B")
    r.read(n_vars * n_vars * 8 if has_static else 0)
    prefix = blob[: r.pos]
    (count,) = r.unpack("<I")
    entries = []
    for _ in range(count):
        start = r.pos
        (name_len,) = r.unpack("<H")
        r.read(name_len)
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}I")
        r.read(8 * int(np.prod(shape)))
        entries.append(blob[start : r.pos])
    return prefix, entries


@pytest.mark.parametrize(
    "edit, message",
    [
        ("drop", "checkpoint stores 28 parameters, this config builds 29"),
        ("rename", "checkpoint parameter 'head.b9' has no slot in the model"),
        ("reshape", "parameter 'head.b1' has shape (4,), expected (8,)"),
        ("duplicate", "checkpoint stores no value for parameter 'static.theta1'"),
    ],
)
def test_checkpoint_parameter_list_must_fill_the_tree(edit, message):
    blob = md.save_checkpoint(ready_model())
    prefix, entries = parameter_entries(blob, 3)
    names = checkpoint_names(blob, 3)
    assert len(entries) == 29
    if edit == "drop":
        del entries[names.index("head.b2")]
    elif edit == "rename":
        at = names.index("head.b1")
        entries[at] = entries[at].replace(b"head.b1", b"head.b9")
    elif edit == "reshape":
        # head.b1 is (8,) and head.b2 is (4,): swap their names.
        b1, b2 = names.index("head.b1"), names.index("head.b2")
        entries[b1], entries[b2] = (
            entries[b2].replace(b"head.b2", b"head.b1"),
            entries[b1].replace(b"head.b1", b"head.b2"),
        )
    else:
        # Two (hidden, hidden) maps: the second is stored under the first's name.
        at = names.index("static.theta1")
        entries[at] = entries[at].replace(b"static.theta1", b"static.theta0")
    body = prefix + struct.pack("<I", len(entries)) + b"".join(entries)
    with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
        md.load_checkpoint(reseal(body))


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(levels=9)
    with pytest.raises(ConfigError, match="integer"):
        tiny_config(n_vars=3.0)
    with pytest.raises(ConfigError):
        tiny_config(conv_axis="time")
    with pytest.raises(ConfigError):
        tiny_config(hidden=0)
    with pytest.raises(ConfigError):
        md.ModelConfig(input_len=8, horizon=4, n_vars=3, alpha=1.5)
