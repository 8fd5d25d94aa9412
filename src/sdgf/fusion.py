"""Attention gate that merges the static branch with the per-scale branches.

The branches arrive as one (branches, batch, features, nodes) stack, the
static branch first and the wavelet scales after it. The model keeps that
stack node-major in memory (see ``autodiff``); the gate's reductions run
over that memory order and its outputs keep it. Each branch is
pooled over nodes into a descriptor, scored against a learned query
through a key map, and the softmax over the branch axis weights a convex
combination of the full branch tensors. Scores are computed per batch
item, so different windows can prefer different graphs.

The gate is one recorded node with a hand-derived VJP. Its forward takes
the steps of the op-by-op chain it stands for (pool, key, score,
softmax, weighted sum) in that order, and the logits are guarded as well
as the output, so it raises ``NumericError`` where that chain did. The
``gf`` ablation's plain mean over the branch axis is one node too.
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
    dim = branches.shape[2]
    if layer.q.shape != (dim,) or layer.w_k.shape != (dim, dim):
        raise ShapeError(
            f"fusion parameters {layer.q.shape}/{layer.w_k.shape} do not fit feature dim {dim}"
        )

    q, w_k = layer.q, layer.w_k
    # The reductions run over the stack's node-major memory, (branches,
    # batch, nodes, features), whatever the stack's layout.
    stack = branches.data.swapaxes(-1, -2)
    pooled = stack.sum(axis=2) * (1.0 / branches.shape[3])
    keyed = np.matmul(pooled, w_k.data.T)
    logits = np.matmul(keyed, q.data)
    shifted = np.exp(logits - logits.max(axis=0))
    alpha = shifted / shifted.sum(axis=0)
    fused = (branches.data * alpha[:, :, None, None]).sum(axis=0)

    def vjp(g):
        # The gradient node-major, in place when it is laid out so.
        g = np.ascontiguousarray(g.swapaxes(-1, -2)).swapaxes(-1, -2)
        g_alpha = np.einsum("bnf,cbnf->cb", g.swapaxes(-1, -2), stack)
        g_logits = alpha * (g_alpha - (g_alpha * alpha).sum(axis=0))
        if q.requires_grad:
            q.accumulate(g_logits.reshape(-1) @ keyed.reshape(-1, dim))
        g_keyed = g_logits[:, :, None] * q.data
        if w_k.requires_grad:
            w_k.accumulate(g_keyed.reshape(-1, dim).T @ pooled.reshape(-1, dim))
        if branches.requires_grad:
            g_pooled = np.matmul(g_keyed, w_k.data) * (1.0 / branches.shape[3])
            # Written in the stack's own layout, which the propagation reads in place.
            g_branches = np.empty_like(branches.data)
            np.multiply(g[None], alpha[:, :, None, None], out=g_branches)
            g_branches += g_pooled[..., None]
            branches.accumulate(g_branches)

    # Logits are guarded too: one of -inf would weigh its branch 0.
    out = ad.record(fused, "fuse", (branches, q, w_k), vjp, (logits,))
    return out, alpha.T.copy()


def mean(branches: ad.Tensor) -> tuple[ad.Tensor, np.ndarray]:
    """The ``gf`` ablation's unweighted blend: ``fuse`` with uniform weights.

    One node taking the steps of a sum over the branch axis and then a
    scale by 1 / branches, so its value, gradient and their layouts are
    that chain's bit for bit. A sum that overflows stays infinite after
    the scale, so the output guard raises where the chain did.
    """
    count = branches.shape[0]
    c = 1.0 / count

    def vjp(g):
        branches.accumulate(np.broadcast_to((g * c)[None], branches.shape))

    out = ad.record(branches.data.sum(axis=0) * c, "mean", (branches,), vjp)
    return out, np.full((branches.shape[1], count), c)
