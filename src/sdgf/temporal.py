"""Inception-style dilated convolution block with residual and layer norm.

Four parallel convolutions with kernel widths {3, 5} and dilations
{1, 2} run over the last axis of a (batch, features, positions) tensor,
their channel-concatenated output is merged by a width-1 convolution,
a width-1 residual projection of the input is added, and the result is
layer-normalized over the feature axis.

Everything up to the norm is linear in the input, so the branches, the
merge and the residual run as one composed-kernel ``conv1d`` over the
union of the branches' taps (seven offsets from -4 to 4), and the block
records two graph nodes: that convolution and the layer norm. A
nonlinearity inserted before the merge would end the composition; the
branches would then need their own convolutions.

The fused representation carries nodes on its last axis, and the kernels
slide over it: the features are the block's channels. Its memory is
node-major, (batch, nodes, features), and so is the block's output.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad
from .errors import ShapeError

BRANCH_SHAPES = ((3, 1), (3, 2), (5, 1), (5, 2))
# Branch dilations, then the width-1 residual's.
_DILATIONS = (*(d for _, d in BRANCH_SHAPES), 1)


@dataclass
class InceptionBlock:
    """Parameters for one block operating on ``channels`` feature maps."""

    channels: int
    branch_kernels: list[ad.Parameter]
    branch_biases: list[ad.Parameter]
    merge_kernel: ad.Parameter
    merge_bias: ad.Parameter
    residual_kernel: ad.Parameter
    residual_bias: ad.Parameter
    norm_gain: ad.Parameter
    norm_bias: ad.Parameter


def branch_width(channels: int) -> int:
    """Per-branch channel count: half the block width, rounded up."""
    return (channels + 1) // 2


def _pre_norm(h: ad.Tensor, block: InceptionBlock) -> ad.Tensor:
    """Branches, merge, and residual; everything before the layer norm."""
    return ad.conv1d(
        h,
        [*block.branch_kernels, block.residual_kernel],
        _DILATIONS,
        [*block.branch_biases, block.residual_bias],
        mix=block.merge_kernel,
        mix_bias=block.merge_bias,
    )


def inception_forward(h: ad.Tensor, block: InceptionBlock) -> ad.Tensor:
    """Run one block over (batch, features, nodes), preserving the shape."""
    if h.ndim != 3:
        raise ShapeError(f"expected (batch, features, nodes), got {h.shape}")
    if h.shape[1] != block.channels:
        raise ShapeError(f"block was built for {block.channels} features, got {h.shape}")
    return ad.layer_norm(_pre_norm(h, block), block.norm_gain, block.norm_bias)
