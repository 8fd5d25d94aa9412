"""Static and dynamic graph construction plus K-hop propagation.

The static graph is a correlation prior: per-item Pearson coefficients
over the time axis, averaged, rectified, and row-softmaxed into a
row-stochastic matrix. It is plain data, not a learned quantity, and
Pearson correlation is invariant to the standardization that precedes
it, so it is computed with numpy outside the autodiff graph.

Dynamic graphs are learned per wavelet scale from node embeddings; they
live inside the graph so the embedding weights train end to end.

Propagation mixes a residual of the input with neighborhood averages:

    H(0) = H;  H(k) = alpha * H(0) + (1 - alpha) * A @ H(k-1)

and the output sums per-hop linear maps Theta_k(H(k)). ``literal``
collapses every hop to the single-hop mix alpha*H + (1-alpha)*A*H for
comparison runs.

The dynamic stages broadcast over leading axes, so one call serves every
wavelet scale: the embedding maps are (scales, 1, length, d_e) and the
hop maps (scales, 1, features, features), giving (scales, batch, nodes,
nodes) adjacencies and (scales, batch, features, nodes) outputs. A
size-1 scale axis shares one set of maps across all scales. Weights
apply from the left (``w.T @ x``) so time stays on the axis the inputs
already carry it on and no input is transposed.

Because the embedding maps only read their input from the left, the
model hands ``dynamic_adjacency`` one (batch, length, nodes) window and
maps folded with the wavelet operators (``wavelet.decompose`` with
``adjoint=True``); that equals passing the (scales, batch, length,
nodes) component stack with the unfolded maps, without building it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError, ShapeError


# ---------------------------------------------------------------------------
# Static graph


def pearson_matrix(x: np.ndarray, eps: float = 1e-9) -> np.ndarray:
    """Batch-averaged Pearson correlation between variables.

    ``x`` is (batch, length, variables); correlation is taken over the
    time axis per batch item, then averaged over the batch. ``eps`` in
    the denominator turns constant-variable entries into 0 rather than
    NaN (including the diagonal).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"expected (batch, length, variables), got {x.shape}")
    if x.shape[1] < 2:
        raise DataError(f"correlation needs at least 2 time steps, got {x.shape[1]}")
    centered = x - x.mean(axis=1, keepdims=True)
    cov = np.einsum("bli,blj->bij", centered, centered) / x.shape[1]
    std = np.sqrt(np.einsum("bii->bi", cov))
    denom = std[:, :, None] * std[:, None, :] + eps
    return (cov / denom).mean(axis=0)


def pearson_adjacency(x: np.ndarray, eps: float = 1e-9) -> np.ndarray:
    """Row-stochastic static adjacency: ReLU then row softmax of the PCC."""
    scores = np.maximum(pearson_matrix(x, eps), 0.0)
    shifted = np.exp(scores - scores.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Propagation


@dataclass
class GraphPropagationConfig:
    """Residual mix weight, hop count, and the per-hop feature maps.

    Each map is (features, features), or (scales, 1, features, features)
    for a stack of per-scale maps.
    """

    alpha: float
    depth: int
    theta: list[ad.Parameter] = field(default_factory=list)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie strictly inside (0, 1), got {self.alpha}")
        if self.depth < 0:
            raise ConfigError(f"depth must be nonnegative, got {self.depth}")
        if len(self.theta) != self.depth + 1:
            raise ConfigError(
                f"need {self.depth + 1} hop maps for depth {self.depth}, got {len(self.theta)}"
            )


def _hop_states(h: ad.Tensor, mix, alpha: float, depth: int, literal: bool) -> list[ad.Tensor]:
    """The sequence H(0)..H(depth) produced by the propagation recursion."""
    one_hop = None
    states = [h]
    for _ in range(depth):
        if literal:
            if one_hop is None:
                one_hop = ad.add(ad.scale(h, alpha), ad.scale(mix(h), 1.0 - alpha))
            states.append(one_hop)
        else:
            states.append(ad.add(ad.scale(h, alpha), ad.scale(mix(states[-1]), 1.0 - alpha)))
    return states


def _apply_hops(states: list[ad.Tensor], cfg: GraphPropagationConfig) -> ad.Tensor:
    out = None
    for theta, state in zip(cfg.theta, states):
        term = ad.matmul(theta, state)
        out = term if out is None else ad.add(out, term)
    return out


def _propagate(h: ad.Tensor, a_t: ad.Tensor, cfg: GraphPropagationConfig, literal: bool):
    def mix(state):
        return ad.matmul(state, a_t)

    return _apply_hops(_hop_states(h, mix, cfg.alpha, cfg.depth, literal), cfg)


def static_graph_conv(
    h: ad.Tensor,
    adjacency: np.ndarray,
    cfg: GraphPropagationConfig,
    literal: bool = False,
) -> ad.Tensor:
    """Propagate (batch, features, nodes) through one shared graph."""
    adjacency = np.asarray(adjacency, dtype=np.float64)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ShapeError(f"adjacency must be square, got {adjacency.shape}")
    if h.ndim != 3 or h.shape[2] != adjacency.shape[0]:
        raise ShapeError(f"node axis of {h.shape} does not match adjacency {adjacency.shape}")
    return _propagate(h, ad.Tensor(adjacency.T), cfg, literal)


def dynamic_graph_conv(
    h: ad.Tensor,
    adjacency: ad.Tensor,
    cfg: GraphPropagationConfig,
    literal: bool = False,
) -> ad.Tensor:
    """Propagate (..., features, nodes) through per-item graphs (..., nodes, nodes).

    Leading axes of ``h``, ``adjacency`` and the hop maps broadcast, so a
    (scales, batch, ...) stack with (scales, 1, features, features) hop
    maps runs every scale in one call.
    """
    if adjacency.ndim < 2 or adjacency.shape[-1] != adjacency.shape[-2]:
        raise ShapeError(f"adjacency must be (..., nodes, nodes), got {adjacency.shape}")
    if h.ndim < 2 or h.shape[-1] != adjacency.shape[-1]:
        raise ShapeError(f"features {h.shape} do not match adjacency {adjacency.shape}")
    return _propagate(h, ad.matrix_transpose(adjacency), cfg, literal)


# ---------------------------------------------------------------------------
# Dynamic graph learning


@dataclass
class DynamicGraphLayer:
    """Two embedding maps (..., length, d_e) from variable time profiles to d_e."""

    w1: ad.Parameter
    w2: ad.Parameter


def dynamic_adjacency(x_scale: ad.Tensor, layer: DynamicGraphLayer) -> ad.Tensor:
    """Row-stochastic per-item adjacency learned from wavelet components.

    ``x_scale`` is (..., length, variables): one scale as (batch, length,
    variables), every scale as (scales, batch, length, variables), or the
    window itself with maps folded with the wavelet operators (see the
    module docstring); the maps' leading axes broadcast against it. Each
    variable's length-L profile maps through w1/w2 into two embeddings;
    the row softmax of their inner products is the (..., variables,
    variables) adjacency.
    """
    if x_scale.ndim < 3:
        raise ShapeError(f"expected (..., batch, length, variables), got {x_scale.shape}")
    if layer.w1.shape[-2] != x_scale.shape[-2] or layer.w1.shape != layer.w2.shape:
        raise ShapeError(
            f"embedding maps {layer.w1.shape}/{layer.w2.shape} do not fit length {x_scale.shape[-2]}"
        )
    e1_t = ad.tanh(ad.matmul(ad.matrix_transpose(layer.w1), x_scale))
    e2_t = ad.tanh(ad.matmul(ad.matrix_transpose(layer.w2), x_scale))
    scores = ad.matmul(ad.matrix_transpose(e1_t), e2_t)
    return ad.softmax(scores, axis=-1)
