"""The forecasting model: normalization, graph branches, fusion, head.

Forward pipeline for a (batch, input_len, n_vars) window:

    revin normalize
      -> static branch:  input projection -> propagation over the
         correlation graph (frozen from the training split, or per-batch)
      -> dynamic branches, one per wavelet scale (scales = levels + 1):
         each scale's component is projected, learns one adjacency per
         item and propagates through it, all scales in each call
      -> attention-gated fusion of the (1 + scales, batch, hidden, n_vars)
         branch stack, static branch first
      -> inception block(s)
      -> per-variable MLP head mapping features to the horizon
    revin denormalize

The per-scale weights live on a leading scale axis: embedding maps are
(scales, 1, input_len, embed_dim) and hop maps (scales, 1, hidden,
hidden); ``share_dynamic_weights`` makes the embedding maps' scale axis
size 1.

The wavelet components are fixed linear maps of the window along time,
and the input projection and both embedding maps read them only from
the left. The forward pass therefore folds the component operators into
those maps (``wv.decompose(..., adjoint=True)``), and the folded
(scales, 1, input_len, ·) maps read the normalized window directly:
``fold(w)[s].T @ x == w[s].T @ component_s(x)``, so the (scales, batch,
input_len, n_vars) component stack is never built. Only the summation
order differs from building it. The fold is redone on every forward, at
about scales * input_len**2 * (2 * embed_dim + hidden) multiply-adds
(only ``hidden`` under the ``gsl`` ablation), in place of the
scales * input_len**2 * batch * n_vars that building the stack costs; so
it saves work only while batch * n_vars > 2 * embed_dim + hidden, and
costs more on smaller batches.

``SdgfModel`` is the one parameter tree: ``parameters``,
``effective_parameters`` and the checkpoint's name list all come from a
walk over its fields. One private function, ``_assemble``, lays the tree
out; ``build_model`` fills it from the seeded RNG and ``load_checkpoint``
from the stored arrays by name, so a load draws no random numbers and
copies each stored parameter once, from a ``memoryview`` of the blob
into an array the parameter owns.

Ablations switch individual stages to neutral implementations (identity
graphs, unweighted fusion, no temporal block) without touching the rest;
each one leaves the subtree named in ``ABLATED_SUBTREES`` unused.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import fusion as fu
from . import graphs as gr
from . import temporal as tp
from . import wavelet as wv
from .errors import CheckpointError, ConfigError, ShapeError, StateError

# Ablation mode -> the SdgfModel field whose parameters it leaves unused.
ABLATED_SUBTREES = {"gsl": "dynamic_layer", "gf": "fusion_layer", "tfl": "blocks"}
ABLATION_MODES = tuple(ABLATED_SUBTREES)

CHECKPOINT_MAGIC = b"SDGF\x00"
CHECKPOINT_VERSION = 3


@dataclass
class ModelConfig:
    """Hyperparameters; everything downstream is derived from these."""

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
    literal_eq3: bool = False
    per_batch_static: bool = False
    share_dynamic_weights: bool = False
    temporal_blocks: int = 1
    branch_width: int = 0
    conv_axis: str = "nodes"
    seed: int = 0

    def __post_init__(self):
        for name in ("input_len", "horizon", "n_vars", "hidden", "levels", "depth",
                     "embed_dim", "temporal_blocks", "branch_width", "seed"):
            if not isinstance(getattr(self, name), int):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("input_len", "horizon", "n_vars", "hidden", "embed_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.temporal_blocks < 0:
            raise ConfigError(f"temporal_blocks must be >= 0, got {self.temporal_blocks}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie strictly inside (0, 1), got {self.alpha}")
        if self.depth < 0:
            raise ConfigError(f"depth must be >= 0, got {self.depth}")
        if self.branch_width < 0:
            raise ConfigError(f"branch_width must be >= 0, got {self.branch_width}")
        if self.conv_axis not in tp.CONV_AXES:
            raise ConfigError(f"unknown conv axis {self.conv_axis!r}; available: {tp.CONV_AXES}")
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
    eps: float = 1e-5

    def normalize(self, x: ad.Tensor) -> tuple[ad.Tensor, tuple[np.ndarray, np.ndarray]]:
        """Remove per-(item, variable) mean/std over time, then affine.

        Returns the normalized tensor and the (mean, std) statistics.
        """
        if x.ndim != 3 or x.shape[2] != self.gamma.shape[0]:
            raise ShapeError(f"expected (batch, time, {self.gamma.shape[0]}), got {x.shape}")
        n = x.shape[2]
        mean = x.data.mean(axis=1, keepdims=True)
        std = np.sqrt(x.data.var(axis=1, keepdims=True) + self.eps)
        z = ad.div(ad.sub(x, ad.Tensor(mean)), ad.Tensor(std))
        out = ad.add(
            ad.mul(z, ad.reshape(self.gamma, (1, 1, n))), ad.reshape(self.beta, (1, 1, n))
        )
        return out, (mean, std)

    def denormalize(self, y: ad.Tensor, stats: tuple[np.ndarray, np.ndarray]) -> ad.Tensor:
        """Invert the affine and restore the statistics ``normalize`` returned."""
        mean, std = stats
        n = self.gamma.shape[0]
        if y.ndim != 3 or y.shape[2] != n or y.shape[0] != mean.shape[0]:
            raise ShapeError(
                f"expected (batch {mean.shape[0]}, horizon, {n}) to invert, got {y.shape}"
            )
        # eps^2 keeps the division defined if gamma is driven to zero.
        guard = ad.add(ad.reshape(self.gamma, (1, 1, n)), self.eps * self.eps)
        z = ad.div(ad.sub(y, ad.reshape(self.beta, (1, 1, n))), guard)
        return ad.add(ad.mul(z, ad.Tensor(std)), ad.Tensor(mean))


@dataclass
class SdgfModel:
    """The parameter tree; field order is the parameter order."""

    config: ModelConfig
    revin: RevinLayer
    input_proj: ad.Parameter
    static_cfg: gr.GraphPropagationConfig
    dynamic_layer: gr.DynamicGraphLayer
    dynamic_cfg: gr.GraphPropagationConfig
    fusion_layer: fu.FusionLayer
    blocks: list[tp.InceptionBlock]
    head_w1: ad.Parameter
    head_b1: ad.Parameter
    head_w2: ad.Parameter
    head_b2: ad.Parameter
    static_adjacency: np.ndarray | None = None
    ablations: frozenset = field(default_factory=frozenset)


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
        """(rows, 1, *shape) parameters for ``maps`` ((name, fan_in, shape) each).

        Draws row by row, each row's maps in order, exactly as calling
        ``linear`` for every map of one scale, then the next, would.
        """
        if stored is not None:
            return [ad.Parameter(name, stored(name, (rows, 1, *shape))) for name, _, shape in maps]
        sizes = [int(np.prod(shape)) for _, _, shape in maps]
        draws = np.split(rng.random((rows, sum(sizes))), np.cumsum(sizes)[:-1], axis=1)
        out = []
        for (name, fan_in, shape), u in zip(maps, draws):
            bound = 1.0 / np.sqrt(fan_in)
            # rng.uniform(-b, b) computes -b + 2b * u from the same u.
            out.append(ad.Parameter(name, -bound + 2 * bound * u.reshape(rows, 1, *shape)))
        return out

    revin = RevinLayer(param("revin.gamma", (n,), np.ones), param("revin.beta", (n,), np.zeros))
    input_proj = linear("input_proj", length, (length, dim))
    static_cfg = gr.GraphPropagationConfig(
        alpha=cfg.alpha,
        depth=cfg.depth,
        theta=[linear(f"static.theta{k}", dim, (dim, dim)) for k in range(cfg.depth + 1)],
    )

    embed = [(f"dyn.w{i}", length, (length, cfg.embed_dim)) for i in (1, 2)]
    hops = [(f"dyn.theta{k}", dim, (dim, dim)) for k in range(cfg.depth + 1)]
    if cfg.share_dynamic_weights:
        w1, w2 = stacked(1, embed)
        thetas = stacked(scales, hops)
    else:
        w1, w2, *thetas = stacked(scales, embed + hops)

    fusion_layer = fu.FusionLayer(
        param("fusion.q", (dim,), lambda s: rng.uniform(-0.1, 0.1, s)),
        param("fusion.w_k", (dim, dim), lambda s: np.eye(dim) + rng.normal(0.0, 0.01, s)),
    )

    conv_ch = dim if cfg.conv_axis == "nodes" else n
    width = cfg.branch_width or tp.branch_width(conv_ch)
    blocks = []
    for b in range(cfg.temporal_blocks):
        kernels = [
            linear(f"block{b}.branch{i}", conv_ch * k, (width, conv_ch, k))
            for i, (k, _) in enumerate(tp.BRANCH_SHAPES)
        ]
        biases = [param(f"block{b}.branch{i}_bias", (width,), np.zeros) for i in range(4)]
        blocks.append(
            tp.InceptionBlock(
                channels=conv_ch,
                branch_kernels=kernels,
                branch_biases=biases,
                merge_kernel=linear(f"block{b}.merge", 4 * width, (conv_ch, 4 * width, 1)),
                merge_bias=param(f"block{b}.merge_bias", (conv_ch,), np.zeros),
                residual_kernel=linear(f"block{b}.residual", conv_ch, (conv_ch, conv_ch, 1)),
                residual_bias=param(f"block{b}.residual_bias", (conv_ch,), np.zeros),
                norm_gain=param(f"block{b}.norm_gain", (dim,), np.ones),
                norm_bias=param(f"block{b}.norm_bias", (dim,), np.zeros),
            )
        )

    head_w1 = linear("head.w1", dim, (dim, 2 * dim))
    head_b1 = param("head.b1", (2 * dim,), np.zeros)
    head_w2 = linear("head.w2", 2 * dim, (2 * dim, cfg.horizon))
    head_b2 = param("head.b2", (cfg.horizon,), np.zeros)

    return SdgfModel(
        config=cfg,
        revin=revin,
        input_proj=input_proj,
        static_cfg=static_cfg,
        dynamic_layer=gr.DynamicGraphLayer(w1, w2),
        dynamic_cfg=gr.GraphPropagationConfig(alpha=cfg.alpha, depth=cfg.depth, theta=thetas),
        fusion_layer=fusion_layer,
        blocks=blocks,
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
    """Parameters that the forward pass actually uses under the ablations."""
    return list(_walk(model, {ABLATED_SUBTREES[mode] for mode in model.ablations}))


def parameter_count(model: SdgfModel) -> int:
    return sum(p.size for p in parameters(model))


def predicted_parameter_count(cfg: ModelConfig) -> int:
    """Closed-form parameter count; tests pin it against the built model."""
    length, horizon, n, dim = cfg.input_len, cfg.horizon, cfg.n_vars, cfg.hidden
    scales = cfg.levels + 1
    hops = cfg.depth + 1
    total = 2 * n + length * dim
    total += hops * dim * dim * (1 + scales)
    pairs = 1 if cfg.share_dynamic_weights else scales
    total += pairs * 2 * length * cfg.embed_dim
    total += dim + dim * dim
    conv_ch = dim if cfg.conv_axis == "nodes" else n
    width = cfg.branch_width or tp.branch_width(conv_ch)
    per_block = sum(width * conv_ch * k for k, _ in tp.BRANCH_SHAPES) + 4 * width
    per_block += conv_ch * 4 * width + conv_ch
    per_block += conv_ch * conv_ch + conv_ch
    per_block += 2 * dim
    total += cfg.temporal_blocks * per_block
    total += dim * 2 * dim + 2 * dim + 2 * dim * horizon + horizon
    return total


def set_static_graph(model: SdgfModel, series: np.ndarray) -> None:
    """Freeze the static adjacency from a (rows, n_vars) training series."""
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2 or series.shape[1] != model.config.n_vars:
        raise ShapeError(f"expected (rows, {model.config.n_vars}), got {series.shape}")
    model.static_adjacency = gr.pearson_adjacency(series[None, :, :])


def forward_with_details(x: ad.Tensor, model: SdgfModel) -> tuple[ad.Tensor, dict]:
    """Forward pass returning the prediction and inspection artifacts.

    The details dict carries the (batch, 1 + scales) fusion weights, the
    static adjacency and the (scales, batch, n_vars, n_vars) dynamic
    adjacencies as plain arrays.
    """
    cfg = model.config
    if x.ndim != 3 or x.shape[1] != cfg.input_len or x.shape[2] != cfg.n_vars:
        raise ShapeError(
            f"expected (batch, {cfg.input_len}, {cfg.n_vars}), got {x.shape}"
        )
    batch, n = x.shape[0], cfg.n_vars
    x_norm, stats = model.revin.normalize(x)

    if "gsl" in model.ablations:
        static_adj = np.eye(n)
    elif cfg.per_batch_static:
        static_adj = gr.pearson_adjacency(x_norm.data)
    else:
        if model.static_adjacency is None:
            raise StateError(
                "static graph is not frozen; call set_static_graph or enable per-batch mode"
            )
        static_adj = model.static_adjacency
    # Time profiles project from the left: (hidden, length) @ (..., length, vars).
    h_static = gr.static_graph_conv(
        ad.matmul(ad.matrix_transpose(model.input_proj), x_norm),
        static_adj,
        model.static_cfg,
        cfg.literal_eq3,
    )

    # Every map that reads the wavelet components does so from the left,
    # so each is folded with the component operators and reads x_norm.
    def fold(maps):
        return wv.decompose(
            maps, wv.wavelet_filter(cfg.family), cfg.levels, cfg.boundary, adjoint=True
        )

    if "gsl" in model.ablations:
        dyn_adj = ad.Tensor(np.eye(n))
    else:
        layer = model.dynamic_layer
        dyn_adj = gr.dynamic_adjacency(
            x_norm, gr.DynamicGraphLayer(fold(layer.w1), fold(layer.w2))
        )
    h_dyn = gr.dynamic_graph_conv(
        ad.matmul(ad.matrix_transpose(fold(model.input_proj)), x_norm),
        dyn_adj,
        model.dynamic_cfg,
        cfg.literal_eq3,
    )

    branches = ad.concat([ad.reshape(h_static, (1, *h_static.shape)), h_dyn], axis=0)
    if "gf" in model.ablations:
        fused = branches.mean(axis=0)
        alpha = np.full((batch, branches.shape[0]), 1.0 / branches.shape[0])
    else:
        fused, alpha = fu.fuse(branches, model.fusion_layer)

    if "tfl" not in model.ablations:
        for block in model.blocks:
            fused = tp.inception_forward(fused, block, cfg.conv_axis)

    per_var = ad.transpose(fused, (0, 2, 1))
    hidden = ad.tanh(ad.add(ad.matmul(per_var, model.head_w1), model.head_b1))
    out = ad.add(ad.matmul(hidden, model.head_w2), model.head_b2)
    y = model.revin.denormalize(ad.transpose(out, (0, 2, 1)), stats)
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
    """A view of the model with one stage neutralized; parameters shared."""
    if mode not in ABLATION_MODES:
        raise ConfigError(f"unknown ablation mode {mode!r}; available: {ABLATION_MODES}")
    return dataclasses.replace(model, ablations=model.ablations | {mode})


# ---------------------------------------------------------------------------
# Checkpointing


def save_checkpoint(model: SdgfModel, extra: dict | None = None) -> bytes:
    """Serialize config, frozen static graph, and all parameter values.

    ``extra`` is any JSON-safe dict the caller wants carried along (the
    training pipeline stores its dataset scaler here). A CRC32 of every
    byte before it ends the checkpoint.
    """
    header = {
        "config": dataclasses.asdict(model.config),
        "ablations": sorted(model.ablations),
        "extra": extra or {},
    }
    head_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<I", CHECKPOINT_VERSION)
    out += struct.pack("<I", len(head_bytes))
    out += head_bytes
    if model.static_adjacency is None:
        out += b"\x00"
    else:
        out += b"\x01"
        out += np.ascontiguousarray(model.static_adjacency, dtype="<f8").tobytes()
    params = parameters(model)
    out += struct.pack("<I", len(params))
    for p in params:
        name = p.name.encode("utf-8")
        out += struct.pack("<H", len(name))
        out += name
        out += struct.pack("<B", p.ndim)
        out += struct.pack(f"<{p.ndim}I", *p.shape)
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
    bits), a layout that does not fill the body exactly, non-finite
    parameter values and a static adjacency that is not finite and
    row-stochastic each raise ``CheckpointError``.

    The blob is read through a ``memoryview``, and the tree is assembled
    from the stored arrays by name (no RNG draw): each parameter's bytes
    are copied once, into an array that parameter owns.
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
    except (KeyError, TypeError, ConfigError) as exc:
        raise CheckpointError(f"checkpoint config does not match this build: {exc}") from None

    (has_static,) = r.unpack("<B")
    static_raw = r.read(cfg.n_vars * cfg.n_vars * 8) if has_static else None
    (count,) = r.unpack("<I")
    stored = []
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        try:
            name = str(r.read(name_len), "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"corrupt parameter name: {exc}") from None
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}I")
        stored.append((name, shape, np.frombuffer(r.read(8 * math.prod(shape)), dtype="<f8")))
    if r.pos != len(body):
        raise CheckpointError(f"{len(body) - r.pos} trailing bytes after the parameters")

    # The tree takes each stored array whose name and shape fit a slot;
    # the checks below, in their fixed order, reject a checkpoint in
    # which any slot was left empty or any array found no slot.
    by_name = {name: flat for name, _, flat in stored}
    slots = {}

    def from_checkpoint(name, shape):
        slots[name] = shape
        flat = by_name.get(name)
        if flat is None or flat.size != math.prod(shape):
            return np.empty(shape)
        return flat.reshape(shape).copy()

    model = _assemble(cfg, from_checkpoint)
    try:
        for mode in header.get("ablations", []):
            model = ablate(model, mode)
    except (TypeError, ConfigError) as exc:
        raise CheckpointError(f"checkpoint ablations do not match this build: {exc}") from None
    if static_raw is not None:
        adjacency = np.frombuffer(static_raw, dtype="<f8").reshape(cfg.n_vars, cfg.n_vars)
        if not (
            np.all(np.isfinite(adjacency))
            and np.all(adjacency >= 0.0)
            and np.allclose(adjacency.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)
        ):
            raise CheckpointError("checkpoint static adjacency is not finite and row-stochastic")
        model.static_adjacency = adjacency.copy()

    if count != len(slots):
        raise CheckpointError(
            f"checkpoint stores {count} parameters, this config builds {len(slots)}"
        )
    for name, shape, flat in stored:
        if name not in slots:
            raise CheckpointError(f"checkpoint parameter {name!r} has no slot in the model")
        if tuple(shape) != slots[name]:
            raise CheckpointError(
                f"parameter {name!r} has shape {tuple(shape)}, expected {slots[name]}"
            )
        if not np.all(np.isfinite(flat)):
            raise CheckpointError(f"parameter {name!r} holds non-finite values")
    if len(by_name) != count:
        missing = next(name for name in slots if name not in by_name)
        raise CheckpointError(f"checkpoint stores no value for parameter {missing!r}")
    return model, header.get("extra", {})
