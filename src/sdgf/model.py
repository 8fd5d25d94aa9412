"""The forecasting model: normalization, graph branches, fusion, head.

Forward pipeline for a (batch, input_len, n_vars) window:

    revin normalize
      -> one (1 + scales, batch, hidden, n_vars) branch stack, projected
         and propagated in one node each: slot 0 over the correlation
         graph frozen from the training split, then each wavelet scale
         (scales = levels + 1) over one adjacency per item learned from it
      -> attention-gated fusion of that stack
      -> inception block
      -> per-variable MLP head mapping features to the horizon
    revin denormalize

Every stage records one autodiff node with a hand-derived VJP (the
inception block two: its conv1d and its layer norm), and so do the
projection of the branch stack (``ad.left_map``) and each wavelet fold:
a grad forward records 12 nodes at any propagation depth from 1 up,
whether fusion is the gate or the ``gf`` ablation's mean. At
depth 0 no graph is read, so the dynamic adjacency is not learned (the
identity stands in, as under ``gsl``), its maps are no effective
parameters, and a grad forward records 9 nodes. RevIN keeps its
statistics as constants of its nodes. The head runs each layer as one
2-D product over the (batch * n_vars) rows of per-variable features.

Each stage hands its output on in the layout its readers take (see
``autodiff``). The RevIN node's (batch, input_len, n_vars) window is
time-major, and the projection (``input_proj`` for slot 0, its fold
for the scales) and the embedding maps read it as 2-D GEMMs for every
slot and item at once. The propagation's value (``gr.static_graph_conv``
with the dynamic graphs alongside) is the stack fusion reads. That
stack, and the inception block's output after it, are node-major, so
propagation takes each hop map as one GEMM per slot over the (batch *
n_vars, hidden) rows, fusion and the layer norm reduce along that
memory, and the head reads its rows in place.

The per-scale weights live on a leading scale axis: embedding maps are
(scales, 1, input_len, embed_dim), one per scale. The hop maps
``graph.theta{k}`` are (1 + scales, 1, hidden, hidden), one per slot of
the branch stack, the static graph's first: the layout the propagation
reads.

The wavelet components are fixed linear maps of the window along time,
and the input projection and both embedding maps read them only from
the left. The forward pass therefore folds the component operators into
those maps (``wv.decompose(..., adjoint=True)``, one node each), and
the folded (scales, 1, input_len, ·) maps read the normalized window
directly:
``fold(w)[s].T @ x == w[s].T @ component_s(x)``, so the (scales, batch,
input_len, n_vars) component stack is never built. Only the summation
order differs from building it. A fold costs about
scales * input_len**2 * (2 * embed_dim + hidden) multiply-adds (only
``hidden`` under the ``gsl`` ablation or at depth 0), against the
scales * input_len**2 * batch * n_vars that building the stack costs.
A forward that records a graph refolds, because the fold is part of
the gradient path. Under ``no_grad`` the folds, like the inception
block's composed kernel, follow the one cache rule of ``ad.cached``:
an entry is kept per parameter version, keyed on the wavelet settings
and reused only while the parameter's values are bit-for-bit equal to
the copy taken when it was made, so an optimizer step and an in-place
write both refold. Repeated forecasts with unchanged weights therefore
pay one comparison per map instead of a fold, whatever the batch.

``forward_with_details`` runs every forward, a training step's and a
forecast's alike, through ``ad.guard_once``: one NaN/Inf check of the
output in place of one per node, and on a failure a replay with every
guard on, which raises what a forward guarded node by node raises.

``SdgfModel`` is the one parameter tree: ``parameters``,
``effective_parameters`` and the checkpoint's ``[name, shape]`` list all
come from a walk over its fields. One private function, ``_assemble``,
lays the tree out; ``build_model`` fills it from the seeded RNG and
``load_checkpoint`` from the checkpoint's one block of values, in tree
order, so a load draws no random numbers and copies each stored
parameter once, from a ``memoryview`` of the blob into an array the
parameter owns.

An ablation switches one stage to a neutral implementation (identity
graphs, unweighted fusion or no inception block) without touching the
rest, and leaves the subtree named in ``ABLATED_SUBTREES`` unused. A
model carries at most one: ``SdgfModel.ablation`` is None or one mode.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import struct
import zlib
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from . import fusion as fu
from . import graphs as gr
from . import temporal as tp
from . import wavelet as wv
from .errors import CheckpointError, ConfigError, NumericError, ShapeError, StateError

# Ablation mode -> the SdgfModel field whose parameters it leaves unused.
ABLATED_SUBTREES = {"gsl": "dynamic_layer", "gf": "fusion_layer", "tfl": "block"}
ABLATION_MODES = tuple(ABLATED_SUBTREES)

CHECKPOINT_MAGIC = b"SDGF\x00"
CHECKPOINT_VERSION = 6


@dataclass
class ModelConfig:
    """Hyperparameters; everything downstream is derived from these.

    The model has one inception block, ``tp.branch_width(hidden)`` wide
    per branch. Integer fields take ``int`` only, not ``bool``.
    """

    input_len: int
    horizon: int
    n_vars: int
    hidden: int = 64
    levels: int = 3
    family: str = "haar"
    boundary: str = "circular"
    depth: int = 2
    alpha: float = 0.5
    embed_dim: int = 16
    seed: int = 0

    def __post_init__(self):
        for name in ("input_len", "horizon", "n_vars", "hidden", "levels", "depth",
                     "embed_dim", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("input_len", "horizon", "n_vars", "hidden", "embed_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie strictly inside (0, 1), got {self.alpha}")
        if self.depth < 0:
            raise ConfigError(f"depth must be >= 0, got {self.depth}")
        if self.boundary not in wv.BOUNDARIES:
            raise ConfigError(f"unknown boundary {self.boundary!r}; available: {wv.BOUNDARIES}")
        wv.wavelet_filter(self.family)
        admissible = wv.max_levels(self.input_len, wv.wavelet_filter(self.family))
        if not 1 <= self.levels <= admissible:
            raise ConfigError(
                f"levels must lie in [1, {admissible}] for input_len {self.input_len}"
                f" and family {self.family}, got {self.levels}"
            )


@dataclass
class RevinLayer:
    """Per-window standardization with a learnable affine, invertible.

    ``normalize`` returns the window statistics next to its output and
    ``denormalize`` takes them back, so the layer keeps no state between
    calls and ablated views of a model can share it.
    """

    gamma: ad.Parameter
    beta: ad.Parameter
    eps: ClassVar[float] = 1e-5

    def normalize(self, x: ad.Tensor) -> tuple[ad.Tensor, tuple[np.ndarray, np.ndarray]]:
        """Remove per-(item, variable) mean/std over time, then affine.

        Returns the normalized (batch, length, vars) window and the
        (batch, 1, vars) mean and std. One recorded node; the statistics
        are constants of it. ``var`` is the mean square of the same
        centred values the output divides, which is how ``np.var``
        computes it. The node works on one time-major (length, batch,
        vars) copy of the raw window, so every elementwise pass runs along
        contiguous rows, and its value is laid out so (see ``autodiff``),
        as every reader of the window takes it.

        The statistics are summed over time in the order numpy sums the
        time axis of the (batch, length, vars) window, so the values are
        bit for bit those of normalizing it in that layout: row after row
        of the time-major copy, or, for one variable in a batch of more
        than one window, pairwise along each window's contiguous series.
        """
        gamma, beta = self.gamma, self.beta
        if x.ndim != 3 or x.shape[2] != gamma.shape[0]:
            raise ShapeError(f"expected (batch, time, {gamma.shape[0]}), got {x.shape}")
        batch, length, n = x.shape
        cols = np.ascontiguousarray(x.data.swapaxes(0, 1))

        def time_sum(a):
            if n == 1 and batch > 1:
                return np.ascontiguousarray(a.T).sum(axis=-1)[..., None]
            return a.sum(axis=0, keepdims=True)

        mean = time_sum(cols) / length
        z = cols - mean
        std = np.sqrt(time_sum(z * z) / length + self.eps)
        z /= std
        # The affine runs on the (length, batch * vars) rows, with gamma
        # and beta tiled along them once, so numpy's inner loops run the
        # whole row rather than one window's vars. ``repeat`` tiles them
        # without ``np.tile``'s Python-level dispatch.
        gamma_row = gamma.data[None].repeat(batch, axis=0).reshape(batch * n)
        data = z.reshape(length, batch * n) * gamma_row
        data += beta.data[None].repeat(batch, axis=0).reshape(batch * n)

        def vjp(g):
            g = g.swapaxes(0, 1)
            if x.requires_grad:
                g_x = g.reshape(length, batch * n) * gamma_row / std.reshape(batch * n)
                x.accumulate(g_x.reshape(length, batch, n).swapaxes(0, 1))
            # Each affine gradient sums the (length * batch, vars) rows in
            # one GEMV; numpy's ``sum(axis=0)`` runs a vars-long loop per row.
            if gamma.requires_grad:
                gamma.accumulate(np.ones(length * batch) @ (g * z).reshape(length * batch, n))
            if beta.requires_grad:
                beta.accumulate(np.ones(length * batch) @ g.reshape(length * batch, n))

        # Linear up to the output: a non-finite centred value makes the
        # output non-finite too, so the output guard is enough.
        out = ad.record(
            data.reshape(length, batch, n).swapaxes(0, 1), "revin_normalize", (x, gamma, beta), vjp
        )
        return out, (mean.reshape(batch, 1, n), std.reshape(batch, 1, n))

    def denormalize(self, y: ad.Tensor, stats: tuple[np.ndarray, np.ndarray]) -> ad.Tensor:
        """Invert the affine and restore the statistics ``normalize`` returned.

        One recorded node; like ``normalize`` it is linear up to its
        output, so the output guard is enough.
        """
        mean, std = stats
        gamma, beta = self.gamma, self.beta
        n = gamma.shape[0]
        if y.ndim != 3 or y.shape[2] != n or y.shape[0] != mean.shape[0]:
            raise ShapeError(
                f"expected (batch {mean.shape[0]}, horizon, {n}) to invert, got {y.shape}"
            )
        # eps^2 keeps the division defined if gamma is driven to zero.
        guard = gamma.data + self.eps * self.eps
        if (guard == 0.0).any():
            raise NumericError("division by zero; use an epsilon guard upstream")
        shifted = y.data - beta.data
        data = shifted / guard * std + mean

        def vjp(g):
            g_shifted = g * std / guard
            if y.requires_grad:
                y.accumulate(g_shifted)
            # As in ``normalize``, each affine gradient is one GEMV over the
            # (batch * horizon, vars) rows. gamma's sums g_shifted * shifted
            # and divides the sum by -guard, once per var.
            ones = np.ones(g.shape[0] * g.shape[1])
            if beta.requires_grad:
                beta.accumulate(-(ones @ g_shifted.reshape(-1, n)))
            if gamma.requires_grad:
                gamma.accumulate(-(ones @ (g_shifted * shifted).reshape(-1, n)) / guard)

        return ad.record(data, "revin_denormalize", (y, gamma, beta), vjp)


def head(h: ad.Tensor, w1, b1, w2, b2) -> ad.Tensor:
    """The per-variable MLP: (batch, features, nodes) -> (batch, horizon, nodes).

    ``tanh(v @ w1 + b1) @ w2 + b2`` for each node's feature vector ``v``,
    as one recorded node: the nodes of every item are the rows of one
    (batch * nodes, features) matrix, so each layer is one 2-D GEMM. On
    the model's node-major features that matrix is a view, no copy. The
    product before ``tanh`` is guarded as well as the output, since
    ``tanh`` maps an infinite value to a finite one.
    """
    if h.ndim != 3 or w1.ndim != 2 or w1.shape[0] != h.shape[1]:
        raise ShapeError(f"head maps {w1.shape} do not fit (batch, features, nodes) {h.shape}")
    batch, dim, nodes = h.shape
    rows = h.data.transpose(0, 2, 1).reshape(batch * nodes, dim)
    pre = rows @ w1.data + b1.data
    hidden = np.tanh(pre)
    data = (hidden @ w2.data + b2.data).reshape(batch, nodes, -1).transpose(0, 2, 1)

    def vjp(g):
        g = g.transpose(0, 2, 1).reshape(batch * nodes, -1)
        if b2.requires_grad:
            b2.accumulate(g.sum(axis=0))
        if w2.requires_grad:
            w2.accumulate(hidden.T @ g)
        g_pre = (g @ w2.data.T) * (1.0 - hidden * hidden)
        if b1.requires_grad:
            b1.accumulate(g_pre.sum(axis=0))
        if w1.requires_grad:
            w1.accumulate(rows.T @ g_pre)
        if h.requires_grad:
            h.accumulate((g_pre @ w1.data.T).reshape(batch, nodes, dim).transpose(0, 2, 1))

    return ad.record(data, "head", (h, w1, b1, w2, b2), vjp, (pre,))


@dataclass
class SdgfModel:
    """The parameter tree; field order is the parameter order."""

    config: ModelConfig
    revin: RevinLayer
    input_proj: ad.Parameter
    graph_cfg: gr.GraphPropagationConfig
    dynamic_layer: gr.DynamicGraphLayer
    fusion_layer: fu.FusionLayer
    block: tp.InceptionBlock
    head_w1: ad.Parameter
    head_b1: ad.Parameter
    head_w2: ad.Parameter
    head_b2: ad.Parameter
    static_adjacency: np.ndarray | None = None
    ablation: str | None = None


def build_model(cfg: ModelConfig) -> SdgfModel:
    """Construct a model with seeded initialization in a fixed order."""
    return _assemble(cfg)


def _assemble(cfg: ModelConfig, stored=None) -> SdgfModel:
    """Lay out the parameter tree of ``cfg`` and fill it from one source.

    With ``stored`` None, values are drawn from the RNG seeded with
    ``cfg.seed``, in the order the tree is laid out, so a seed always
    gives the same parameters. Otherwise ``stored(name, shape)`` gives
    each parameter's array, and no RNG is made.
    """
    rng = np.random.default_rng(cfg.seed) if stored is None else None
    n, length, dim = cfg.n_vars, cfg.input_len, cfg.hidden
    scales = cfg.levels + 1

    def param(name, shape, draw):
        """``draw(shape)`` makes the seeded value; it is not called for stored ones."""
        return ad.Parameter(name, draw(shape) if stored is None else stored(name, shape))

    def linear(name, fan_in, shape):
        bound = 1.0 / np.sqrt(fan_in)
        return param(name, shape, lambda s: rng.uniform(-bound, bound, s))

    def stacked(rows, maps):
        """(rows, 1, *shape) draws for ``maps`` ((fan_in, shape) each).

        Draws row by row, each row's maps in order, exactly as calling
        ``linear`` for every map of one row, then the next, would.
        """
        sizes = [math.prod(shape) for _, shape in maps]
        draws = np.split(rng.random((rows, sum(sizes))), np.cumsum(sizes)[:-1], axis=1)
        out = []
        for (fan_in, shape), u in zip(maps, draws):
            bound = 1.0 / np.sqrt(fan_in)
            # rng.uniform(-b, b) computes -b + 2b * u from the same u.
            out.append(-bound + 2 * bound * u.reshape(rows, 1, *shape))
        return out

    revin = RevinLayer(param("revin.gamma", (n,), np.ones), param("revin.beta", (n,), np.zeros))
    input_proj = linear("input_proj", length, (length, dim))
    # Each hop map holds slot 0's (the static graph's) map and then one
    # per scale. The static maps are drawn first, the scales' after the
    # embedding maps, row by row.
    hops = range(cfg.depth + 1)
    embed = (length, cfg.embed_dim)
    if stored is None:
        bound = 1.0 / np.sqrt(dim)
        static = [rng.uniform(-bound, bound, (dim, dim)) for _ in hops]
        w1, w2, *rest = stacked(scales, [(length, embed)] * 2 + [(dim, (dim, dim))] * len(hops))
        maps = [np.concatenate((s[None, None], r)) for s, r in zip(static, rest)]
    graph_cfg = gr.GraphPropagationConfig(alpha=cfg.alpha, depth=cfg.depth, theta=[
        param(f"graph.theta{k}", (1 + scales, 1, dim, dim), lambda s: maps[k]) for k in hops
    ])
    dynamic_layer = gr.DynamicGraphLayer(
        param("dyn.w1", (scales, 1, *embed), lambda s: w1),
        param("dyn.w2", (scales, 1, *embed), lambda s: w2),
    )

    fusion_layer = fu.FusionLayer(
        param("fusion.q", (dim,), lambda s: rng.uniform(-0.1, 0.1, s)),
        param("fusion.w_k", (dim, dim), lambda s: np.eye(dim) + rng.normal(0.0, 0.01, s)),
    )

    width = tp.branch_width(dim)
    block = tp.InceptionBlock(
        channels=dim,
        branch_kernels=[
            linear(f"block.branch{i}", dim * k, (width, dim, k))
            for i, (k, _) in enumerate(tp.BRANCH_SHAPES)
        ],
        branch_biases=[param(f"block.branch{i}_bias", (width,), np.zeros) for i in range(4)],
        merge_kernel=linear("block.merge", 4 * width, (dim, 4 * width, 1)),
        merge_bias=param("block.merge_bias", (dim,), np.zeros),
        residual_kernel=linear("block.residual", dim, (dim, dim, 1)),
        residual_bias=param("block.residual_bias", (dim,), np.zeros),
        norm_gain=param("block.norm_gain", (dim,), np.ones),
        norm_bias=param("block.norm_bias", (dim,), np.zeros),
    )

    head_w1 = linear("head.w1", dim, (dim, 2 * dim))
    head_b1 = param("head.b1", (2 * dim,), np.zeros)
    head_w2 = linear("head.w2", 2 * dim, (2 * dim, cfg.horizon))
    head_b2 = param("head.b2", (cfg.horizon,), np.zeros)

    return SdgfModel(
        config=cfg,
        revin=revin,
        input_proj=input_proj,
        graph_cfg=graph_cfg,
        dynamic_layer=dynamic_layer,
        fusion_layer=fusion_layer,
        block=block,
        head_w1=head_w1,
        head_b1=head_b1,
        head_w2=head_w2,
        head_b2=head_b2,
    )


def _walk(node, skip=frozenset()):
    """Parameters under ``node`` in field order, except top-level fields in ``skip``."""
    if isinstance(node, ad.Parameter):
        yield node
    elif isinstance(node, list):
        for item in node:
            yield from _walk(item)
    elif dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            if f.name not in skip:
                yield from _walk(getattr(node, f.name))


def parameters(model: SdgfModel) -> list[ad.Parameter]:
    """All parameters, in the tree's field order."""
    return list(_walk(model))


def effective_parameters(model: SdgfModel) -> list[ad.Parameter]:
    """Parameters that the forward pass actually uses under the ablation.

    At depth 0 no hop reads a graph, so the dynamic embedding maps go
    unused, as under ``gsl``.
    """
    skip = {ABLATED_SUBTREES[model.ablation]} if model.ablation else set()
    if model.config.depth == 0:
        skip.add("dynamic_layer")
    return list(_walk(model, skip))


def set_static_graph(model: SdgfModel, series: np.ndarray) -> None:
    """Freeze the static adjacency from a (rows, n_vars) training series."""
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2 or series.shape[1] != model.config.n_vars:
        raise ShapeError(f"expected (rows, {model.config.n_vars}), got {series.shape}")
    model.static_adjacency = gr.pearson_adjacency(series[None, :, :])


def _fold(p: ad.Parameter, cfg: ModelConfig) -> ad.Tensor:
    """``p`` folded with the wavelet component operators of ``cfg``.

    Under ``no_grad`` the fold is cached by ``ad.cached`` with the
    wavelet settings as its key; grad mode neither reads nor writes the
    cache.
    """
    def fold():
        filt = wv.wavelet_filter(cfg.family)
        return (wv.decompose(p, filt, cfg.levels, cfg.boundary, adjoint=True),)

    return ad.cached((p,), ("wavelet_fold", cfg.family, cfg.levels, cfg.boundary), fold)[0]


def forward_with_details(x: ad.Tensor, model: SdgfModel) -> tuple[ad.Tensor, dict]:
    """Forward pass returning the prediction and inspection artifacts.

    The details dict carries the (batch, 1 + scales) fusion weights, the
    static adjacency and the (scales, batch, n_vars, n_vars) dynamic
    adjacencies as plain arrays.

    One projection node writes the whole (1 + scales, batch, hidden,
    n_vars) branch stack and one propagation node runs over it, slot 0
    through the static graph, the rest through the dynamic ones. The
    output is checked for NaN/Inf once, in grad mode and under
    ``no_grad`` alike (see ``ad.guard_once``).
    """
    cfg = model.config
    if x.ndim != 3 or x.shape[1] != cfg.input_len or x.shape[2] != cfg.n_vars:
        raise ShapeError(
            f"expected (batch, {cfg.input_len}, {cfg.n_vars}), got {x.shape}"
        )
    return ad.guard_once(lambda: _forward(x, model))


def _forward(x: ad.Tensor, model: SdgfModel) -> tuple[ad.Tensor, dict]:
    """``forward_with_details`` on a window of the right shape."""
    cfg = model.config
    batch, n = x.shape[0], cfg.n_vars
    window, stats = model.revin.normalize(x)

    if model.ablation == "gsl":
        static_adj = np.eye(n)
    elif model.static_adjacency is None:
        raise StateError("static graph is not frozen; call set_static_graph first")
    else:
        static_adj = model.static_adjacency
    # Every map that reads the wavelet components does so from the left,
    # so each is folded with the component operators and reads the window.
    # With no hop, no dynamic graph is read, so none is learned.
    if model.ablation == "gsl" or cfg.depth == 0:
        dyn_adj = ad.Tensor(np.eye(n))
    else:
        layer = model.dynamic_layer
        dyn_adj = gr.dynamic_adjacency(
            window, gr.DynamicGraphLayer(_fold(layer.w1, cfg), _fold(layer.w2, cfg))
        )
    # Time profiles project from the left, (hidden, length) @ (length, vars):
    # slot 0 through the projection itself, each scale through its fold.
    projected = ad.left_map((model.input_proj, _fold(model.input_proj, cfg)), window)
    branches = gr.static_graph_conv(projected, static_adj, model.graph_cfg, dynamic=dyn_adj)
    if model.ablation == "gf":
        fused, alpha = fu.mean(branches)
    else:
        fused, alpha = fu.fuse(branches, model.fusion_layer)

    if model.ablation != "tfl":
        fused = tp.inception_forward(fused, model.block)

    out = head(fused, model.head_w1, model.head_b1, model.head_w2, model.head_b2)
    y = model.revin.denormalize(out, stats)
    details = {
        "alpha": alpha,
        "static": np.asarray(static_adj),
        "dynamic": np.broadcast_to(dyn_adj.data, (cfg.levels + 1, batch, n, n)),
    }
    return y, details


def forward(x: ad.Tensor, model: SdgfModel) -> ad.Tensor:
    """Predict (batch, horizon, n_vars) from (batch, input_len, n_vars)."""
    return forward_with_details(x, model)[0]


def ablate(model: SdgfModel, mode: str) -> SdgfModel:
    """A view of the full model with one stage neutralized; parameters shared."""
    if mode not in ABLATION_MODES:
        raise ConfigError(f"unknown ablation mode {mode!r}; available: {ABLATION_MODES}")
    if model.ablation is not None:
        raise ConfigError(f"model is already ablated ({model.ablation!r}); ablate the full model")
    return dataclasses.replace(model, ablation=mode)


# ---------------------------------------------------------------------------
# Checkpointing


def save_checkpoint(model: SdgfModel, extra: dict | None = None) -> bytes:
    """Serialize config, frozen static graph, and all parameter values.

    Version 6 layout: magic, version and header length; a JSON header of
    ``config``, ``ablation``, ``extra`` (any JSON-safe dict the caller
    wants carried along; the training pipeline stores its dataset scaler
    here) and ``parameters``, the tree's ``[name, shape]`` list in
    order; a has-static byte and the (n_vars, n_vars) static matrix;
    every parameter's values as little-endian float64, in that order
    with nothing between them; and a CRC32 of every byte before it.
    """
    params = parameters(model)
    header = {
        "config": dataclasses.asdict(model.config),
        "ablation": model.ablation,
        "extra": extra or {},
        "parameters": [[p.name, list(p.shape)] for p in params],
    }
    head_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    out = bytearray(CHECKPOINT_MAGIC)
    out += struct.pack("<II", CHECKPOINT_VERSION, len(head_bytes))
    out += head_bytes
    if model.static_adjacency is None:
        out += b"\x00"
    else:
        out += b"\x01"
        out += np.ascontiguousarray(model.static_adjacency, dtype="<f8").tobytes()
    for p in params:
        out += np.ascontiguousarray(p.data, dtype="<f8").tobytes()
    out += struct.pack("<I", zlib.crc32(out))
    return bytes(out)


class _Reader:
    def __init__(self, blob: memoryview):
        self.blob = blob
        self.pos = 0

    def read(self, count: int) -> memoryview:
        if self.pos + count > len(self.blob):
            raise CheckpointError(
                f"checkpoint truncated: wanted {count} bytes at offset {self.pos},"
                f" have {len(self.blob) - self.pos}"
            )
        chunk = self.blob[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))


def load_checkpoint(blob: bytes) -> tuple[SdgfModel, dict]:
    """Rebuild a model from ``save_checkpoint`` output, bit-exact.

    The magic and version say which layout follows, so they are read
    first; then the CRC32 trailer is checked before any other byte is
    parsed. A checksum mismatch (truncation, trailing bytes, flipped
    bits), a header whose ``parameters`` differ from the tree the config
    builds, a values block that does not end where the tree's values
    do, non-finite parameter values, a static adjacency that is not
    finite and row-stochastic, an ``ablation`` that is neither null nor
    one mode name and an ``extra`` that is not a JSON object each raise
    ``CheckpointError``.

    The blob is read through a ``memoryview``, and ``_assemble`` takes
    the values in tree order (no RNG draw). At each position the
    header's entry must be the ``[name, shape]`` the tree builds there
    before that entry's values are read, and each read is sized by the
    config's shape, never by the header's. Each parameter's bytes are
    copied once, into an array that parameter owns.
    """
    body = memoryview(blob)[:-4]
    r = _Reader(body)
    if r.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise CheckpointError("not a checkpoint: bad magic")
    (version,) = r.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if zlib.crc32(body) != struct.unpack("<I", blob[-4:])[0]:
        raise CheckpointError(
            "checkpoint checksum mismatch: the file is truncated, has trailing bytes"
            " or is corrupt"
        )
    (head_len,) = r.unpack("<I")
    try:
        header = json.loads(str(r.read(head_len), "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from None
    try:
        cfg = ModelConfig(**header["config"])
        mode = header["ablation"]
        listed = header["parameters"]
    except (KeyError, TypeError, ConfigError) as exc:
        raise CheckpointError(f"checkpoint config does not match this build: {exc}") from None
    if mode is not None and mode not in ABLATION_MODES:
        raise CheckpointError(
            f"checkpoint ablation {mode!r} is neither null nor one of {ABLATION_MODES}"
        )
    if not isinstance(listed, list):
        raise CheckpointError(f"checkpoint parameters is a {type(listed).__name__}, not a list")

    (has_static,) = r.unpack("<B")
    static_raw = r.read(cfg.n_vars * cfg.n_vars * 8) if has_static else None
    position = itertools.count()

    def check(built):
        """Raise unless the header lists ``built`` (None past the tree's end) here."""
        at = next(position)
        stored = listed[at] if at < len(listed) else None
        if stored != built:
            raise CheckpointError(
                f"checkpoint lists {json.dumps(stored)} as parameter {at},"
                f" this config builds {json.dumps(built)}"
            )

    def from_checkpoint(name, shape):
        check([name, list(shape)])
        flat = np.frombuffer(r.read(8 * math.prod(shape)), dtype="<f8")
        if not np.isfinite(flat).all():
            raise CheckpointError(f"parameter {name!r} holds non-finite values")
        return flat.reshape(shape).copy()

    model = _assemble(cfg, from_checkpoint)
    check(None)
    if r.pos != len(body):
        raise CheckpointError(f"{len(body) - r.pos} trailing bytes after the parameters")
    model.ablation = mode
    if static_raw is not None:
        adjacency = np.frombuffer(static_raw, dtype="<f8").reshape(cfg.n_vars, cfg.n_vars)
        if not (
            np.all(np.isfinite(adjacency))
            and np.all(adjacency >= 0.0)
            and np.allclose(adjacency.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)
        ):
            raise CheckpointError("checkpoint static adjacency is not finite and row-stochastic")
        model.static_adjacency = adjacency.copy()
    extra = header.get("extra", {})
    if not isinstance(extra, dict):
        raise CheckpointError(f"checkpoint extra is a {type(extra).__name__}, not a JSON object")
    return model, extra
