"""Attention-gated branch fusion checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgf import autodiff as ad
from sdgf import fusion as fu
from sdgf.errors import ShapeError

from conftest import assert_grads_match
import oracle_ops as ops

RNG = np.random.default_rng(733)


def make_layer(dim, rng=None, zero_query=False):
    rng = rng or RNG
    q = np.zeros(dim) if zero_query else rng.uniform(-0.5, 0.5, dim)
    w = np.eye(dim) + rng.normal(0.0, 0.05, (dim, dim))
    return fu.FusionLayer(ad.Parameter("q", q), ad.Parameter("w_k", w))


def random_branches(count, shape, rng=None):
    rng = rng or RNG
    return [ad.Tensor(rng.normal(0.0, 1.0, shape)) for _ in range(count)]


def stack(branches):
    """The (branches, batch, features, nodes) stack ``fuse`` takes."""
    return ad.Tensor(np.stack([b.data for b in branches]))


def per_branch_fuse(branches, layer):
    """Reference gate that scores each branch in its own calls."""
    dim = branches[0].shape[1]
    query = ops.reshape(layer.q, (dim, 1))
    logits = [
        ops.matmul(ops.matmul(ops.reduce_mean(b, 2), ops.transpose(layer.w_k, (1, 0))), query)
        for b in branches
    ]
    alpha = ops.softmax(ops.concat(logits, axis=1), axis=1)
    fused = None
    for i, b in enumerate(branches):
        term = ops.mul(b, ops.reshape(ops.narrow(alpha, 1, i, 1), (b.shape[0], 1, 1)))
        fused = term if fused is None else ops.add(fused, term)
    return fused.data, alpha.data


def test_identical_branches_pass_through():
    shape = (2, 3, 4)
    h = ad.Tensor(RNG.normal(0.0, 1.0, shape))
    copies = [ad.Tensor(h.data.copy()) for _ in range(3)]
    fused, alpha = fu.fuse(stack([h, *copies]), make_layer(3))
    np.testing.assert_allclose(fused.data, h.data, atol=1e-12)
    np.testing.assert_allclose(alpha, 0.25, atol=1e-12)


def test_zero_query_averages_branches():
    shape = (2, 3, 5)
    branches = random_branches(4, shape)
    fused, alpha = fu.fuse(stack(branches), make_layer(3, zero_query=True))
    np.testing.assert_allclose(alpha, 0.25, atol=1e-12)
    np.testing.assert_allclose(
        fused.data, sum(b.data for b in branches) / 4.0, atol=1e-12
    )


def test_two_branch_hand_oracle():
    # N=1 makes the node pooling the identity, so the pooled descriptors
    # are set directly and the whole gate reduces to a softmax-weighted sum.
    q = np.array([0.3, -0.7])
    w_k = np.array([[1.1, 0.2], [-0.4, 0.9]])
    pooled = np.array([[0.5, -1.0], [1.5, 0.25]])
    layer = fu.FusionLayer(ad.Parameter("q", q), ad.Parameter("w_k", w_k))
    fused, alpha = fu.fuse(ad.Tensor(pooled.reshape(2, 1, 2, 1)), layer)

    logits = np.array([q @ (w_k @ pooled[i]) for i in range(2)])
    weights = np.exp(logits - logits.max())
    weights /= weights.sum()
    expected = weights[0] * pooled[0] + weights[1] * pooled[1]
    np.testing.assert_allclose(alpha[0], weights, atol=1e-12)
    np.testing.assert_allclose(fused.data[0, :, 0], expected, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), count=st.integers(1, 5))
def test_alpha_rows_are_distributions(seed, count):
    rng = np.random.default_rng(seed)
    shape = (3, 4, 2)
    branches = random_branches(count + 1, shape, rng)
    _, alpha = fu.fuse(stack(branches), make_layer(4, rng))
    assert alpha.shape == (3, count + 1)
    assert np.all(alpha >= 0.0)
    np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), levels=st.integers(1, 3))
def test_stacked_gate_matches_per_branch_calls(seed, levels):
    # Static branch plus levels + 1 scales, as the model stacks them.
    rng = np.random.default_rng(seed)
    branches = random_branches(levels + 2, (3, 4, 5), rng)
    layer = make_layer(4, rng)
    fused, alpha = fu.fuse(stack(branches), layer)
    want_fused, want_alpha = per_branch_fuse(branches, layer)
    np.testing.assert_allclose(fused.data, want_fused, rtol=0, atol=1e-12)
    np.testing.assert_allclose(alpha, want_alpha, rtol=0, atol=1e-12)


def test_output_is_convex_combination():
    shape = (2, 3, 4)
    branches = random_branches(4, shape)
    fused, _ = fu.fuse(stack(branches), make_layer(3))
    stacked = np.stack([b.data for b in branches])
    assert np.all(fused.data <= stacked.max(axis=0) + 1e-10)
    assert np.all(fused.data >= stacked.min(axis=0) - 1e-10)


def test_swapping_two_branches_swaps_alpha_exactly():
    # Adjacent swaps only commute additions, which is bitwise-safe;
    # arbitrary permutations may reassociate the accumulation instead.
    shape = (2, 3, 4)
    layer = make_layer(3)
    a, b, c = random_branches(3, shape)
    fused_1, alpha_1 = fu.fuse(stack([a, b, c]), layer)
    fused_2, alpha_2 = fu.fuse(stack([b, a, c]), layer)
    np.testing.assert_array_equal(alpha_1[:, [1, 0, 2]], alpha_2)
    np.testing.assert_array_equal(fused_1.data, fused_2.data)


def test_reversing_branches_preserves_output():
    shape = (2, 3, 4)
    layer = make_layer(3)
    branches = random_branches(4, shape)
    fused_1, alpha_1 = fu.fuse(stack(branches), layer)
    fused_2, alpha_2 = fu.fuse(stack(branches[::-1]), layer)
    np.testing.assert_allclose(alpha_1[:, ::-1], alpha_2, atol=1e-15)
    np.testing.assert_allclose(fused_1.data, fused_2.data, atol=1e-12)


def test_branch_shape_mismatch_names_the_branch():
    # One stack cannot hold branches of different shapes; what can still
    # go wrong is passing a single branch, or a stack of the wrong width.
    with pytest.raises(ShapeError, match="branches, batch, features, nodes"):
        fu.fuse(ad.Tensor(np.zeros((2, 3, 4))), make_layer(3))
    with pytest.raises(ShapeError, match="feature dim 3"):
        fu.fuse(ad.Tensor(np.zeros((3, 2, 3, 4))), make_layer(4))


def test_gradients_flow_through_gate():
    shape = (2, 3, 4)
    q = ad.Parameter("q", RNG.uniform(-0.3, 0.3, 3))
    w_k = ad.Parameter("w_k", np.eye(3) + RNG.normal(0.0, 0.1, (3, 3)))
    layer = fu.FusionLayer(q, w_k)
    branches = ad.Tensor(RNG.normal(0.0, 1.0, (3, *shape)), requires_grad=True)
    w = ad.Tensor(RNG.normal(0.0, 1.0, shape))

    def loss():
        fused, _ = fu.fuse(branches, layer)
        return ops.reduce_sum(ops.mul(fused, w))

    assert_grads_match(loss, [q, w_k, branches], tol=1e-4)
