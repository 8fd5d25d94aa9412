"""Inception block checks: oracles, receptive field, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgf import autodiff as ad
from sdgf import temporal as tp
from sdgf.errors import ConfigError, ShapeError

from conftest import assert_grads_match, loop_conv1d

RNG = np.random.default_rng(515)


def build_block(channels, norm_dim=None, rng=None, fill=None):
    """Randomly initialized block; ``fill`` overrides every weight."""
    rng = rng or RNG
    norm_dim = channels if norm_dim is None else norm_dim
    width = tp.branch_width(channels)

    def init(shape):
        if fill is not None:
            return np.full(shape, float(fill))
        bound = 1.0 / np.sqrt(np.prod(shape[1:]))
        return rng.uniform(-bound, bound, shape)

    kernels = [
        ad.Parameter(f"branch{i}", init((width, channels, k)))
        for i, (k, _) in enumerate(tp.BRANCH_SHAPES)
    ]
    biases = [ad.Parameter(f"bias{i}", np.zeros(width)) for i in range(4)]
    return tp.InceptionBlock(
        channels=channels,
        branch_kernels=kernels,
        branch_biases=biases,
        merge_kernel=ad.Parameter("merge", init((channels, 4 * width, 1))),
        merge_bias=ad.Parameter("merge_b", np.zeros(channels)),
        residual_kernel=ad.Parameter("res", init((channels, channels, 1))),
        residual_bias=ad.Parameter("res_b", np.zeros(channels)),
        norm_gain=ad.Parameter("gain", np.ones(norm_dim)),
        norm_bias=ad.Parameter("shift", np.zeros(norm_dim)),
    )


def test_residual_only_path_is_layer_norm():
    dim = 3
    block = build_block(dim, fill=0.0)
    block.residual_kernel = ad.Parameter("res", np.eye(dim).reshape(dim, dim, 1))
    h = ad.Tensor(RNG.normal(0.0, 1.0, (2, dim, 5)))
    out = tp.inception_forward(h, block)
    expected = ad.layer_norm(h, 1, block.norm_gain, block.norm_bias)
    np.testing.assert_allclose(out.data, expected.data, atol=1e-12)


def test_zero_input_zero_biases_gives_zero():
    block = build_block(4)
    out = tp.inception_forward(ad.Tensor(np.zeros((2, 4, 6))), block)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_single_channel_ramp_matches_loop_oracle():
    # D=1 keeps the oracle readable; biases nonzero to exercise every term.
    block = build_block(1)
    for i, b in enumerate(block.branch_biases):
        block.branch_biases[i] = ad.Parameter(f"bias{i}", np.array([0.1 * (i + 1)]))
    block.merge_bias = ad.Parameter("merge_b", np.array([-0.2]))
    block.residual_bias = ad.Parameter("res_b", np.array([0.05]))
    x = np.arange(6, dtype=np.float64).reshape(1, 1, 6)

    got = tp._pre_norm(ad.Tensor(x), block).data

    branch_outs = []
    for (width, dilation), kernel, bias in zip(
        tp.BRANCH_SHAPES, block.branch_kernels, block.branch_biases
    ):
        branch_outs.append(loop_conv1d(x, kernel.data, dilation) + bias.data[0])
    concat = np.concatenate(branch_outs, axis=1)
    merged = loop_conv1d(concat, block.merge_kernel.data, 1) + block.merge_bias.data[0]
    residual = loop_conv1d(x, block.residual_kernel.data, 1) + block.residual_bias.data[0]
    np.testing.assert_allclose(got, merged + residual, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    batch=st.integers(1, 3),
    dim=st.integers(1, 5),
    nodes=st.integers(1, 8),
    seed=st.integers(0, 2**31 - 1),
)
def test_shape_preserved(batch, dim, nodes, seed):
    rng = np.random.default_rng(seed)
    block = build_block(dim, rng=rng)
    h = ad.Tensor(rng.normal(0.0, 1.0, (batch, dim, nodes)))
    assert tp.inception_forward(h, block).shape == (batch, dim, nodes)


def test_receptive_field_spans_at_most_four():
    # Widest branch is width 5 at dilation 2: offsets up to 4 positions.
    dim, nodes, center = 2, 16, 8
    block = build_block(dim, fill=1.0)
    block.residual_kernel = ad.Parameter("res", np.zeros((dim, dim, 1)))
    for i in range(4):
        block.branch_biases[i] = ad.Parameter(f"bias{i}", np.zeros(tp.branch_width(dim)))
    block.merge_bias = ad.Parameter("merge_b", np.zeros(dim))
    x = np.zeros((1, dim, nodes))
    x[0, :, center] = 1.0
    response = tp._pre_norm(ad.Tensor(x), block).data
    hit = np.nonzero(np.abs(response).max(axis=(0, 1)) > 0.0)[0]
    assert hit.size > 0
    assert np.all(np.abs(hit - center) <= 4)


def test_conv_over_channel_axis_preserves_shape():
    # The block convolves the feature axis; channels = node count.
    batch, dim, nodes = 2, 5, 3
    block = build_block(nodes, norm_dim=dim)
    h = ad.Tensor(RNG.normal(0.0, 1.0, (batch, dim, nodes)))
    out = tp.inception_forward(h, block, conv_axis="channels")
    assert out.shape == (batch, dim, nodes)


def test_bad_axis_and_channel_mismatch():
    block = build_block(4)
    h = ad.Tensor(np.zeros((1, 4, 6)))
    with pytest.raises(ConfigError):
        tp.inception_forward(h, block, conv_axis="time")
    with pytest.raises(ShapeError):
        tp.inception_forward(ad.Tensor(np.zeros((1, 3, 6))), block)


def test_block_gradients_match_finite_differences():
    dim, nodes = 2, 6
    block = build_block(dim)
    h = ad.Tensor(RNG.normal(0.0, 1.0, (2, dim, nodes)))
    w = ad.Tensor(RNG.normal(0.0, 1.0, (2, dim, nodes)))
    params = [
        *block.branch_kernels,
        *block.branch_biases,
        block.merge_kernel,
        block.merge_bias,
        block.residual_kernel,
        block.residual_bias,
        block.norm_gain,
        block.norm_bias,
    ]

    def loss():
        return (tp.inception_forward(h, block) * w).sum()

    assert_grads_match(loss, params, tol=1e-4)
