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

One call serves every wavelet scale: the embedding maps are (scales, 1,
length, d_e) and the hop maps (scales, 1, features, features), giving
(scales, batch, nodes, nodes) adjacencies and (scales, batch, features,
nodes) outputs, each scale through its own maps. Weights apply from the
left (``w.T @ x``) so time stays on the axis the inputs already carry it
on and no input is transposed.

Because the embedding maps only read their input from the left, the
model hands ``dynamic_adjacency`` one window and maps folded with the
wavelet operators (``wavelet.decompose`` with ``adjoint=True``); that
equals reading each wavelet component with the unfolded maps, without
building the components. The window it hands over is the RevIN node
itself, laid out time-major (see ``autodiff``): both maps of every scale
read it in one 2-D GEMM (``autodiff.left_product``).

The model propagates its (1 + scales, batch, features, nodes) branch
stack in one node, the static graph as slot 0 and the per-scale dynamic
graphs after it: it calls ``static_graph_conv`` with the dynamic graphs
alongside, which hands the stack to ``dynamic_graph_conv``. Each hop map
is stored as the node reads it, one (1 + scales, 1, features, features)
array whose slot 0 serves the static graph. Called with one graph, each
of the two is the same node over that graph alone; ``static_graph_conv``
takes the same route into ``dynamic_graph_conv`` then, with no dynamic
graphs.

The node runs the recursion above on node-major (..., nodes, features)
states (see ``autodiff``), so each hop map Theta_k is one GEMM per slot
over the rows of every item, forward and back. Each propagation, at any
depth, is one recorded autodiff node, and so is ``dynamic_adjacency``,
which reads both embedding maps in one product of the maps laid side by
side. Their VJPs are derived by hand, and each node raises
``NumericError`` where the op-by-op chain it stands for did (see
``_propagate`` and ``dynamic_adjacency``). The forwards build the hop
states and the softmax in place on arrays they made themselves, in the
chain's operand order, so the values stay the chain's.

``dynamic_adjacency`` keeps its tanh embeddings in the (scales * 2 d_e,
batch * nodes) rows of the GEMM that made them; only the scores read a
contiguous (scales, batch, 2 d_e, nodes) copy. Its VJP works on one
fresh array for the softmax, takes the row sums as one GEMV and writes
the embeddings' gradient into those rows, where the maps' and the
window's gradients read it in place. Its gradients agree with the
chain's to the fused-node tolerance, not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError, ShapeError


# ---------------------------------------------------------------------------
# Static graph


def pearson_matrix(x: np.ndarray) -> np.ndarray:
    """Batch-averaged Pearson correlation between variables.

    ``x`` is (batch, length, variables); correlation is taken over the
    time axis per batch item, then averaged over the batch. A 1e-9 in
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
    denom = std[:, :, None] * std[:, None, :] + 1e-9
    return (cov / denom).mean(axis=0)


def pearson_adjacency(x: np.ndarray) -> np.ndarray:
    """Row-stochastic static adjacency: ReLU then row softmax of the PCC."""
    scores = np.maximum(pearson_matrix(x), 0.0)
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


def hop_states(h: np.ndarray, mix, alpha: float, depth: int):
    """The arrays H(0)..H(depth) of the propagation recursion.

    ``mix(H)`` is the graph's product with ``H`` as a fresh array. Each
    hop takes the recursion's ops in order: ``alpha * H(0)`` plus
    ``mix(H(k-1)) * (1 - alpha)``, the scaling and the sum in place on
    the product (which has the sum's shape; addition commutes bit for
    bit).
    """
    states = [h]
    kept = h * alpha
    for _ in range(depth):
        mixed = mix(states[-1])
        mixed *= 1.0 - alpha
        mixed += kept
        states.append(mixed)
    return states


def _propagate(h: ad.Tensor, adjacency, cfg: GraphPropagationConfig, static=None) -> ad.Tensor:
    """Propagation as one recorded node.

    ``h`` is (batch, features, nodes) with (features, features) hop maps,
    or (slots, batch, features, nodes) with (slots, 1, features,
    features) maps, one per slot. ``adjacency``, an array or a tensor of
    (..., nodes, nodes) graphs, broadcasts to the batch axes of ``h``; a
    graph that takes a gradient has one matrix per item. ``static`` is a
    shared (nodes, nodes) array: with ``adjacency`` None it is the one
    graph of a (batch, features, nodes) ``h``, and with both, ``h`` is
    the (1 + S, batch, features, nodes) branch stack, slot 0 hopping
    through ``static`` and slots 1.. through ``adjacency``. Anything else
    raises ``ShapeError``, before any operand is read.

    The node reads ``h`` node-major (see ``autodiff``), in place when it
    is laid out so (``ad.left_map``'s value) and copied once otherwise,
    so a slot's bits do not depend on the layout of ``h``. Each hop is
    ``A @ H(k-1)`` per item on the graphs as stored, all slots written
    into one array, and each hop map is one GEMM per slot over the rows
    of every item, on theta^T laid out once per call, forward and back.

    The forward takes the ops of the op-by-op chain in its order (the hop
    states, then the per-hop maps summed hop by hop), so its values are
    the chain's bit for bit. Every step is linear up to the output, and
    each hop state reaches the output through its own map, so a
    non-finite state makes the output non-finite: the output guard alone
    raises where the chain raised.
    """
    alpha, depth, thetas = cfg.alpha, cfg.depth, cfg.theta
    graph = adjacency.data if isinstance(adjacency, ad.Tensor) else adjacency
    # With no hop a graph is never read, so it is no parent of the node.
    learned = adjacency if isinstance(adjacency, ad.Tensor) and depth else None
    # In a stack slot 0 reads ``static`` and the others ``graph``; alone,
    # either graph reads every item.
    stack = static is not None and graph is not None
    graph = static if graph is None else graph
    lead, (dim, nodes) = h.shape[:-3], (0, 0, *h.shape)[-2:]  # fewer than 3 axes are refused
    # The batch axes of the slots that read ``graph``.
    items = (h.shape[0] - 1, *h.shape[1:-2]) if stack and h.ndim == 4 else h.shape[:-2]
    if (
        h.ndim not in (3, 4)
        or (static is not None and (static.shape != (nodes, nodes) or h.ndim != 3 + stack))
        or graph.ndim < 2
        or graph.shape[-2:] != (nodes, nodes)
        or graph.ndim - 2 > len(items)
        or any(s not in (1, t) for s, t in zip(graph.shape[-3::-1], items[::-1]))
        or (learned is not None and learned.requires_grad and graph.shape[:-2] != items)
        or any(t.shape != (*lead, *(1,) * len(lead), dim, dim) for t in thetas)
    ):
        raise ShapeError(
            f"graphs {[a.shape for a in (static, adjacency) if a is not None]} and hop maps"
            f" {[t.shape for t in thetas]} do not fit the features {h.shape}"
        )
    static, run = (static, slice(1, None)) if stack else (None, slice(None))

    def mix(x, graphs=(static, graph)):
        """``graphs[k] @ x`` per item, slot 0 through ``graphs[0]`` when ``static`` is given."""
        if static is None:
            return np.matmul(graphs[1], x)
        out = np.empty(x.shape)
        np.matmul(graphs[0], x[0], out=out[0])
        np.matmul(graphs[1], x[run], out=out[run])
        return out

    # H(0) node-major: ``h`` as it is when it is laid out so, else a copy.
    states = hop_states(np.ascontiguousarray(h.data.swapaxes(-1, -2)), mix, alpha, depth)
    # Each map with its batch axis (of size 1) dropped, as is and
    # transposed, contiguous: the rows of every item of a slot, (...,
    # batch * nodes, features), meet it in one GEMM.
    maps = [t.data.reshape(*lead, dim, dim) for t in thetas]
    maps_t = [np.ascontiguousarray(m.swapaxes(-1, -2)) for m in maps]
    rows = [state.reshape(*lead, -1, dim) for state in states]
    total = np.matmul(rows[0], maps_t[0]).reshape(states[0].shape)
    for r, m_t in zip(rows[1:], maps_t[1:]):
        total += np.matmul(r, m_t).reshape(total.shape)
    parents = (h, *thetas, *(() if learned is None else (learned,)))

    def vjp(g):
        g = np.ascontiguousarray(g.swapaxes(-1, -2))
        g_rows = g.reshape(*lead, -1, dim)
        # Each state's gradient from its own map, and each map's from its
        # state: one GEMM per slot each, on operands as they are stored.
        grads = []
        for theta, m, r in zip(thetas, maps, rows):
            if theta.requires_grad:
                theta.accumulate((g_rows.swapaxes(-1, -2) @ r).reshape(theta.shape))
            grads.append((g_rows @ m).reshape(g.shape))
        # The hops' adjoint reads each graph transposed and scaled by
        # 1 - alpha, laid out afresh in one pass: a product on the
        # transpose view costs more, and the scaling saves a pass over
        # the states per hop.
        graphs_t = [
            None if a is None else np.multiply(a.swapaxes(-1, -2), 1.0 - alpha, order="C")
            for a in ((static, graph) if depth else ())
        ]
        g_graph = carry = None
        for k in range(depth, 0, -1):
            # grads[k] is H(k)'s whole gradient by now.
            prev, g_k = states[k - 1], grads[k]
            grads[k - 1] += mix(g_k, graphs_t)
            if learned is not None and learned.requires_grad:
                g_a = g_k[run] @ prev[run].swapaxes(-1, -2)
                g_graph = g_a if g_graph is None else g_graph + g_a
            # Every H(k) reaches the output through alpha * H(0) as well.
            if carry is not None:
                g_k += carry
            carry = g_k
        if carry is not None:
            carry *= alpha
            grads[0] += carry
        if h.requires_grad:
            h.accumulate(grads[0].swapaxes(-1, -2))
        if g_graph is not None:
            g_graph *= 1.0 - alpha
            learned.accumulate(g_graph)

    return ad.record(total.swapaxes(-1, -2), "propagate", parents, vjp)


def static_graph_conv(
    h: ad.Tensor, adjacency: np.ndarray, cfg: GraphPropagationConfig, dynamic=None
) -> ad.Tensor:
    """Propagate (batch, features, nodes) through one shared graph.

    With ``dynamic``, the per-item graphs of ``dynamic_graph_conv``, ``h``
    is the model's (1 + scales, batch, features, nodes) branch stack and
    ``cfg`` holds (1 + scales, 1, features, features) hop maps: slot 0
    takes the shared graph and slots 1.. the per-item graphs, all in that
    call's one node. Either way the call hands the shared graph over to
    ``dynamic_graph_conv``, whose ``_propagate`` checks every shape.
    """
    return dynamic_graph_conv(h, dynamic, cfg, static=np.asarray(adjacency, dtype=np.float64))


def dynamic_graph_conv(
    h: ad.Tensor, adjacency: ad.Tensor | None, cfg: GraphPropagationConfig, static=None
) -> ad.Tensor:
    """Propagate (..., features, nodes) through per-item graphs (..., nodes, nodes).

    ``h`` is (batch, features, nodes) or a (scales, batch, features,
    nodes) stack with (scales, 1, features, features) hop maps, which runs
    every scale in one call; the graphs broadcast to its batch axes (see
    ``_propagate``, which checks every shape). ``static`` is how
    ``static_graph_conv`` hands over its shared graph: for slot 0 of a
    branch stack, or, with ``adjacency`` None, as the one graph.
    """
    return _propagate(h, adjacency, cfg, static)


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


def dynamic_adjacency(x_scale: ad.Tensor, layer: DynamicGraphLayer) -> ad.Tensor:
    """Row-stochastic per-item adjacency learned from one (batch, length, variables) window.

    The maps are (length, d_e), or (scales, 1, length, d_e) maps folded
    with the wavelet operators (see the module docstring);
    ``ad.left_product`` raises ``ShapeError`` for any other shape. Each
    variable's length-L profile maps through w1/w2 into two embeddings;
    the row softmax of their inner products is the ([scales,] batch,
    variables, variables) adjacency.

    Both maps read the window in one ``ad.left_product`` of the maps laid
    side by side, one 2-D GEMM. The softmax works in place on its own
    fresh arrays.
    """
    w1, w2 = layer.w1, layer.w2
    if x_scale.ndim != 3 or w1.shape[-2] != x_scale.shape[1] or w1.shape != w2.shape:
        raise ShapeError(
            f"embedding maps {w1.shape}/{w2.shape} do not fit the window {x_scale.shape}"
        )
    # One product for both embeddings: the maps transposed, side by side.
    # The embeddings stay in the GEMM's rows; the scores read a contiguous
    # copy.
    embed, nodes = w1.shape[-1], x_scale.shape[2]
    maps_t = np.concatenate((w1.data.swapaxes(-1, -2), w2.data.swapaxes(-1, -2)), axis=-2)
    # A view with no slot axis for one pair of (length, d_e) maps.
    pre = ad.left_product([maps_t], x_scale.data).reshape(*maps_t.shape[:-3], -1, 2 * embed, nodes)
    emb = np.tanh(pre)
    emb_c = np.ascontiguousarray(emb)
    scores = np.matmul(emb_c[..., :embed, :].swapaxes(-1, -2), emb_c[..., embed:, :])
    adjacency = scores - scores.max(axis=-1, keepdims=True)
    np.exp(adjacency, out=adjacency)
    adjacency /= adjacency.sum(axis=-1, keepdims=True)

    def vjp(g):
        # The softmax's adjoint A * (g - sum_j g * A), in place on one
        # fresh array, its row sums one GEMV.
        sums = (g * adjacency).reshape(-1, nodes) @ np.ones(nodes)
        g_scores = g - sums.reshape(*g.shape[:-1], 1)
        g_scores *= adjacency
        # matmul runs faster on a contiguous copy of the transposed scores.
        g_scores_t = np.ascontiguousarray(g_scores.swapaxes(-1, -2))
        # The embeddings' gradient is written into the GEMM's rows, where
        # ``left_product_grads`` reads it in place.
        g_pre = np.empty_like(emb)
        np.matmul(emb[..., embed:, :], g_scores_t, out=g_pre[..., :embed, :])
        np.matmul(emb[..., :embed, :], g_scores, out=g_pre[..., embed:, :])
        slope = emb * emb
        g_pre *= np.subtract(1.0, slope, out=slope)
        wanted = (w1.requires_grad or w2.requires_grad, x_scale.requires_grad)
        g_maps, g_x = ad.left_product_grads([maps_t], x_scale.data, g_pre, *wanted)
        if g_x is not None:
            x_scale.accumulate(g_x)
        if g_maps is not None:
            if w1.requires_grad:
                w1.accumulate(g_maps[0][..., :embed, :].swapaxes(-1, -2))
            if w2.requires_grad:
                w2.accumulate(g_maps[0][..., embed:, :].swapaxes(-1, -2))

    # The products before tanh and the scores before the softmax are
    # guarded too: tanh(inf) is 1 and a score of -inf weighs 0.
    return ad.record(adjacency, "dynamic_adjacency", (x_scale, w1, w2), vjp, (pre, scores))
