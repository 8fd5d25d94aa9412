"""Attention gate that merges the static branch with the per-scale branches.

The branches arrive as one (branches, batch, features, nodes) stack, the
static branch first and the wavelet scales after it. Each branch is
pooled over nodes into a descriptor, scored against a learned query
through a key map, and the softmax over the branch axis weights a convex
combination of the full branch tensors. Scores are computed per batch
item, so different windows can prefer different graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ShapeError


@dataclass
class FusionLayer:
    """Learned query vector and key map shared by all branches."""

    q: ad.Parameter
    w_k: ad.Parameter


def fuse(branches: ad.Tensor, layer: FusionLayer) -> tuple[ad.Tensor, np.ndarray]:
    """Blend a (branches, batch, features, nodes) stack into one tensor.

    Returns the fused (batch, features, nodes) tensor and the
    (batch, branches) attention weights as a plain array, in stack order.
    The weights are a report, not a graph node: a node off the loss path
    would keep its inputs alive after backward.
    """
    if branches.ndim != 4:
        raise ShapeError(
            f"branches must be one (branches, batch, features, nodes) stack, got {branches.shape}"
        )
    count, batch, dim, _ = branches.shape
    if layer.q.shape != (dim,) or layer.w_k.shape != (dim, dim):
        raise ShapeError(
            f"fusion parameters {layer.q.shape}/{layer.w_k.shape} do not fit feature dim {dim}"
        )

    pooled = branches.mean(axis=3)
    keyed = ad.matmul(pooled, ad.transpose(layer.w_k, (1, 0)))
    logits = ad.matmul(keyed, ad.reshape(layer.q, (dim, 1)))
    alpha = ad.softmax(logits, axis=0)
    fused = ad.reduce_sum(ad.mul(branches, ad.reshape(alpha, (count, batch, 1, 1))), axis=0)
    return fused, alpha.data.reshape(count, batch).T.copy()
