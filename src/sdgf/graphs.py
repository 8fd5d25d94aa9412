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

and the output sums per-hop linear maps Theta_k(H(k)).

The dynamic stages broadcast over leading axes, so one call serves every
wavelet scale: the embedding maps are (scales, 1, length, d_e) and the
hop maps (scales, 1, features, features), giving (scales, batch, nodes,
nodes) adjacencies and (scales, batch, features, nodes) outputs, each
scale through its own maps. Weights apply from the left (``w.T @ x``)
so time stays on the axis the inputs already carry it on and no input
is transposed.

Because the embedding maps only read their input from the left, the
model hands ``dynamic_adjacency`` one window and maps folded with the
wavelet operators (``wavelet.decompose`` with ``adjoint=True``); that
equals passing the (scales, batch, length, nodes) component stack with
the unfolded maps, without building it. The window it hands over is the
RevIN node itself, laid out time-major as (length, batch * nodes), with
``nodes`` passed alongside; both maps of every scale read it in one 2-D
GEMM (``autodiff.left_product``), and the window's gradient goes back
as one contiguous array in that layout. A caller holding (batch,
length, nodes) windows passes no ``nodes`` and a recorded
``autodiff.time_major`` node lays them out.

The model propagates its (1 + scales, batch, features, nodes) branch
stack in one node, the static graph as slot 0 and the per-scale dynamic
graphs after it: it calls ``static_graph_conv`` with the dynamic graphs
alongside, which hands the stack to ``dynamic_graph_conv``. Each hop map
is stored as the node reads it, one (1 + scales, 1, features, features)
array whose slot 0 serves the static graph. Called with one graph, each
of the two is the same node over that graph alone. Each propagation, at
any depth, is one recorded autodiff node, and so is
``dynamic_adjacency``, which reads both embedding maps in one product of
the maps laid side by side. Their VJPs are derived by hand, and each
node raises ``NumericError`` where the op-by-op chain it stands for did
(see ``_propagate`` and ``dynamic_adjacency``). The forwards build the
hop states and the softmax in place on arrays they made themselves, in
the chain's operand order, so the values stay the chain's.
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

    Each map is (features, features), or (slots, 1, features, features)
    for a stack of per-slot maps.
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


def hop_states(h: np.ndarray, a_t: np.ndarray, alpha: float, depth: int):
    """The arrays H(0)..H(depth) of the propagation recursion; ``a_t`` is A^T.

    Each hop takes the recursion's ops in order: ``alpha * H(0)`` plus
    ``(H(k-1) @ A^T) * (1 - alpha)``, the scaling and the sum in place
    on the product (which has the sum's shape; addition commutes bit for
    bit).
    """
    states = [h]
    kept = h * alpha
    for _ in range(depth):
        mixed = np.matmul(states[-1], a_t)
        mixed *= 1.0 - alpha
        mixed += kept
        states.append(mixed)
    return states


def _propagate(h: ad.Tensor, adjacency, cfg: GraphPropagationConfig, static=None) -> ad.Tensor:
    """Propagation as one recorded node.

    ``adjacency`` is an array or a tensor. Without ``static``, it and the
    hop maps of ``cfg`` broadcast against ``h``. With ``static``, a shared
    (nodes, nodes) graph, ``h`` is the (1 + S, batch, features, nodes)
    branch stack: slot 0 hops through ``static`` and slots 1.. through
    ``adjacency``, and each hop map holds one (features, features) map
    per slot, (1 + S, 1, features, features). The graphs (per item) are
    laid side by side along the slot axis, so every product is one numpy
    call over the stack, each slot's the product its branch alone takes.

    The forward takes the ops of the op-by-op chain in its order (the hop
    states, then the per-hop maps summed hop by hop), so its values are
    the chain's bit for bit. Every step is linear up to the output, and
    each hop state reaches the output through its own map, so a
    non-finite state makes the output non-finite: the output guard alone
    raises where the chain raised.
    """
    alpha, depth, thetas = cfg.alpha, cfg.depth, cfg.theta
    maps = [t.data for t in thetas]
    graph = adjacency.data if isinstance(adjacency, ad.Tensor) else adjacency
    # The slots that read ``adjacency``.
    run = slice(None) if static is None else slice(1, None)

    def joined(transposed):
        """Every slot's graph, or its transpose, in one contiguous array."""
        lay = (lambda a: a.swapaxes(-1, -2)) if transposed else np.asarray
        if static is None:
            return np.ascontiguousarray(lay(graph))
        out = np.empty((*h.shape[:2], *static.shape))
        out[0], out[run] = lay(static), lay(graph)
        return out

    a_t = joined(True) if depth else None
    # With no hop a graph is never read, so it is no parent of the node.
    learned = adjacency if isinstance(adjacency, ad.Tensor) and depth else None
    states = hop_states(h.data, a_t, alpha, depth)
    total, shapes = None, []
    for k, (theta, state) in enumerate(zip(maps, states)):
        term = np.matmul(theta, state)
        shapes.append(term.shape)
        total = term if k == 0 else np.add(total, term)
    parents = (h, *thetas, *(() if learned is None else (learned,)))

    def vjp(g):
        # Each state's gradient from its own map.
        grads = []
        for theta, m, state, shape in zip(thetas, maps, states, shapes):
            g_term = ad.unbroadcast(g, shape)
            if theta.requires_grad:
                theta.accumulate(ad.matmul_operand_grad(g_term, state, m.shape, -2))
            grads.append(ad.matmul_operand_grad(m, g_term, state.shape, -1))
        # The hops' gradients read A laid out afresh: a product on the
        # transpose view of a_t costs more than the copy, and the graph
        # does not hold a_t until its backward.
        a = joined(False).swapaxes(-1, -2) if depth else None
        g_graph = None
        for k in range(depth, 0, -1):
            g_mix = grads[k] * (1.0 - alpha)
            prev = states[k - 1]
            grads[k - 1] = grads[k - 1] + ad.matmul_operand_grad(g_mix, a, prev.shape, -2)
            grads[0] = grads[0] + ad.unbroadcast(grads[k] * alpha, h.data.shape)
            if learned is not None and learned.requires_grad:
                g_k = ad.matmul_operand_grad(prev[run], g_mix[run], learned.shape, -1)
                g_graph = g_k if g_graph is None else g_graph + g_k
        if h.requires_grad:
            h.accumulate(grads[0])
        if g_graph is not None:
            learned.accumulate(g_graph.swapaxes(-1, -2))

    return ad.record(total, "propagate", parents, vjp)


def static_graph_conv(
    h: ad.Tensor, adjacency: np.ndarray, cfg: GraphPropagationConfig, dynamic=None
) -> ad.Tensor:
    """Propagate (batch, features, nodes) through one shared graph.

    With ``dynamic``, the per-item graphs of ``dynamic_graph_conv``, ``h``
    is the model's (1 + scales, batch, features, nodes) branch stack and
    ``cfg`` holds (1 + scales, 1, features, features) hop maps: slot 0
    takes the shared graph and slots 1.. the per-item graphs, all in that
    call's one node.
    """
    adjacency = np.asarray(adjacency, dtype=np.float64)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ShapeError(f"adjacency must be square, got {adjacency.shape}")
    if h.ndim != (3 if dynamic is None else 4) or h.shape[-1] != adjacency.shape[0]:
        raise ShapeError(f"node axis of {h.shape} does not match adjacency {adjacency.shape}")
    if dynamic is None:
        return _propagate(h, adjacency, cfg)
    return dynamic_graph_conv(h, dynamic, cfg, static=adjacency)


def dynamic_graph_conv(
    h: ad.Tensor, adjacency: ad.Tensor, cfg: GraphPropagationConfig, static=None
) -> ad.Tensor:
    """Propagate (..., features, nodes) through per-item graphs (..., nodes, nodes).

    Leading axes of ``h``, ``adjacency`` and the hop maps broadcast, so a
    (scales, batch, ...) stack with (scales, 1, features, features) hop
    maps runs every scale in one call. ``static`` is how
    ``static_graph_conv`` hands over the shared graph for slot 0 of a
    branch stack (see ``_propagate``).
    """
    if adjacency.ndim < 2 or adjacency.shape[-1] != adjacency.shape[-2]:
        raise ShapeError(f"adjacency must be (..., nodes, nodes), got {adjacency.shape}")
    if h.ndim < 2 or h.shape[-1] != adjacency.shape[-1]:
        raise ShapeError(f"features {h.shape} do not match adjacency {adjacency.shape}")
    if static is None:
        return _propagate(h, adjacency, cfg)
    slots, dim = h.shape[0], h.shape[-2]
    if any(t.shape != (slots, 1, dim, dim) for t in cfg.theta):
        raise ShapeError(f"hop maps {cfg.theta[0].shape} do not fit the stack {h.shape}")
    try:
        return _propagate(h, adjacency, cfg, static)
    except ValueError:  # a graph that broadcasts to no slot
        shapes = (static.shape, adjacency.shape)
        raise ShapeError(f"graphs {shapes} do not fit the stack {h.shape}") from None


# ---------------------------------------------------------------------------
# Dynamic graph learning


@dataclass
class DynamicGraphLayer:
    """Two embedding maps from variable time profiles to d_e.

    Each map is one (length, d_e) matrix or a (scales, 1, length, d_e)
    stack, one matrix per scale.
    """

    w1: ad.Parameter
    w2: ad.Parameter


def dynamic_adjacency(
    x_scale: ad.Tensor, layer: DynamicGraphLayer, nodes: int | None = None
) -> ad.Tensor:
    """Row-stochastic per-item adjacency learned from wavelet components.

    ``x_scale`` is one scale or the window as (batch, length, variables),
    or every scale as (scales, batch, length, variables); with the window,
    the maps are folded with the wavelet operators (see the module
    docstring). With ``nodes`` given, ``x_scale`` is the same windows
    laid out time-major, (..., length, batch * nodes), as the model's
    RevIN node writes them; otherwise a recorded ``ad.time_major`` node
    lays them out first. The maps are (length, d_e) or (scales, 1,
    length, d_e); ``ad.left_product`` raises ``ShapeError`` for any other
    shape. Each variable's length-L profile maps through w1/w2 into two
    embeddings; the row softmax of their inner products is the ([scales,]
    batch, variables, variables) adjacency.

    Both maps read the input in one ``ad.left_product`` of the maps laid
    side by side, one 2-D GEMM over a window, and the window's gradient
    goes back in the window's own layout. The softmax works in place on
    its own fresh arrays.
    """
    if nodes is None:
        x_scale, nodes = ad.time_major(x_scale), x_scale.shape[-1]
    w1, w2 = layer.w1, layer.w2
    if x_scale.ndim < 2 or w1.shape[-2] != x_scale.shape[-2] or w1.shape != w2.shape:
        raise ShapeError(
            f"embedding maps {w1.shape}/{w2.shape} do not fit windows {x_scale.shape}"
        )
    # One product for both embeddings: the maps transposed, side by side.
    embed = w1.shape[-1]
    maps_t = np.concatenate((w1.data.swapaxes(-1, -2), w2.data.swapaxes(-1, -2)), axis=-2)
    cols = x_scale.data
    pre = ad.left_product(maps_t, cols, nodes)
    emb = np.tanh(pre)
    e1_t, e2_t = emb[..., :embed, :], emb[..., embed:, :]
    scores = np.matmul(e1_t.swapaxes(-1, -2), e2_t)
    adjacency = scores - scores.max(axis=-1, keepdims=True)
    np.exp(adjacency, out=adjacency)
    adjacency /= adjacency.sum(axis=-1, keepdims=True)

    def vjp(g):
        g_scores = adjacency * (g - (g * adjacency).sum(axis=-1, keepdims=True))
        # matmul runs faster on a contiguous copy of the transposed scores,
        # with the same bits.
        g_scores_t = np.ascontiguousarray(g_scores.swapaxes(-1, -2))
        g_emb = np.concatenate(
            (np.matmul(e2_t, g_scores_t), np.matmul(e1_t, g_scores)), axis=-2
        )
        g_pre = g_emb * (1.0 - emb * emb)
        g_maps, g_x = ad.left_product_grads(
            maps_t, cols, nodes, g_pre, w1.requires_grad or w2.requires_grad,
            x_scale.requires_grad,
        )
        if g_x is not None:
            x_scale.accumulate(g_x)
        if g_maps is not None:
            g_maps = g_maps.swapaxes(-1, -2)
            if w1.requires_grad:
                w1.accumulate(g_maps[..., :embed])
            if w2.requires_grad:
                w2.accumulate(g_maps[..., embed:])

    # The products before tanh and the scores before the softmax are
    # guarded too: tanh(inf) is 1 and a score of -inf weighs 0.
    return ad.record(adjacency, "dynamic_adjacency", (x_scale, w1, w2), vjp, (pre, scores))
