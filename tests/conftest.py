"""Shared numeric oracles for the test suite."""

import csv
import json
import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from sdgf import autodiff as ad
from sdgf import graphs as gr
from sdgf import model as md
from sdgf import temporal as tp
from sdgf import wavelet as wv
from sdgf.data import SeriesTable
from sdgf.errors import DataError, GraphError

import oracle_ops as ops


def fd_gradient(build_loss, leaf: ad.Tensor, h=1e-5) -> np.ndarray:
    """Central-difference gradient of ``build_loss()`` w.r.t. ``leaf.data``.

    ``build_loss`` must rebuild the computation from current leaf values
    and return the scalar loss as a float. ``h`` is one step for every
    element or an array of steps in the leaf's shape. Each element is
    perturbed in place by its index, so a strided leaf (a time-major
    window, a node-major stack) is probed as it is laid out.
    """
    value = leaf.data
    grad = np.zeros_like(value)
    steps = np.broadcast_to(np.asarray(h, dtype=np.float64), value.shape)
    with ad.no_grad():
        for i in np.ndindex(value.shape):
            saved, step = value[i], steps[i]
            value[i] = saved + step
            up = build_loss()
            value[i] = saved - step
            down = build_loss()
            value[i] = saved
            grad[i] = (up - down) / (2.0 * step)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-5) -> float:
    """Worst-case elementwise relative error with an absolute floor."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def assert_grads_match(build_loss, leaves, tol: float = 1e-5, h=1e-5) -> None:
    """Backprop the loss and compare every leaf gradient to the FD oracle.

    ``h`` is the central-difference step (see ``fd_gradient``). A loss that is linear in every
    leaf element can take a large step, which shrinks the round-off of
    ``(up - down) / 2h`` without any truncation error.
    """
    for leaf in leaves:
        leaf.zero_grad()
    loss = build_loss()
    loss.backward()
    for leaf in leaves:
        assert leaf.grad is not None, "leaf never received a gradient"
        oracle = fd_gradient(lambda: float(build_loss().data), leaf, h)
        err = relative_error(leaf.grad, oracle)
        assert err < tol, f"gradient mismatch: relative error {err:.3e}"


def time_major_leaf(x: ad.Tensor) -> ad.Tensor:
    """A leaf of ``x``'s (batch, L, N) values laid out time-major, as RevIN lays out its window."""
    # ``ad.Tensor`` would copy a strided array into C order.
    laid = ad.record(np.ascontiguousarray(x.data.swapaxes(0, 1)).swapaxes(0, 1), "x", (), None)
    laid.requires_grad = True
    return laid


def loop_conv1d(x: np.ndarray, kernel: np.ndarray, dilation: int) -> np.ndarray:
    """Zero-padded same-length dilated convolution, written as bare loops."""
    batch, in_ch, length = x.shape
    out_ch, _, width = kernel.shape
    pad = dilation * (width - 1) // 2
    out = np.zeros((batch, out_ch, length))
    for b in range(batch):
        for o in range(out_ch):
            for t in range(length):
                acc = 0.0
                for c in range(in_ch):
                    for j in range(width):
                        src = t + j * dilation - pad
                        if 0 <= src < length:
                            acc += kernel[o, c, j] * x[b, c, src]
                out[b, o, t] = acc
    return out


def plain_conv1d(x, kernel, dilation: int = 1) -> ad.Tensor:
    """One kernel as ``ad.conv1d`` takes it: zero biases and an identity mix."""
    out = kernel.shape[0]
    zero = np.zeros(out)
    return ad.conv1d(x, [kernel], [dilation], [zero], np.eye(out)[:, :, None], zero)


def chain_layer_norm(x, gain, bias, eps: float = 1e-5) -> ad.Tensor:
    """Layer norm over the features of (batch, features, nodes), composed
    from primitive ops, as ``ad.layer_norm`` was.

    Every op guards its own output, so this chain raises ``NumericError``
    on exactly the inputs the fused op must raise on.
    """
    x = ad._as_tensor(x)
    m = ops.reduce_mean(x, 1, keepdims=True)
    centered = ops.sub(x, m)
    var = ops.reduce_mean(ops.mul(centered, centered), 1, keepdims=True)
    normed = ops.div(centered, ops.sqrt(ops.add(var, eps)))
    side = (1, x.shape[1], 1)
    return ops.add(ops.mul(normed, ops.reshape(gain, side)), ops.reshape(bias, side))


# ---------------------------------------------------------------------------
# Op-by-op chains the fused stage nodes replaced. Every op guards its own
# output, so a chain raises ``NumericError`` on exactly the inputs its
# fused node must raise on.


def chain_revin_normalize(layer, x):
    """``RevinLayer.normalize`` as six primitive ops."""
    n = x.shape[2]
    mean = x.data.mean(axis=1, keepdims=True)
    std = np.sqrt(x.data.var(axis=1, keepdims=True) + layer.eps)
    z = ops.div(ops.sub(x, ad.Tensor(mean)), ad.Tensor(std))
    scaled = ops.mul(z, ops.reshape(layer.gamma, (1, 1, n)))
    out = ops.add(scaled, ops.reshape(layer.beta, (1, 1, n)))
    return out, (mean, std)


def chain_revin_denormalize(layer, y, stats):
    """``RevinLayer.denormalize`` as primitive ops."""
    mean, std = stats
    n = layer.gamma.shape[0]
    guard = ops.add(ops.reshape(layer.gamma, (1, 1, n)), layer.eps * layer.eps)
    z = ops.div(ops.sub(y, ops.reshape(layer.beta, (1, 1, n))), guard)
    return ops.add(ops.mul(z, ad.Tensor(std)), ad.Tensor(mean))


def chain_propagate(h, adjacency, cfg):
    """K-hop propagation through ``adjacency`` (an array or a tensor), op by op.

    In the node's op order: ``h`` laid out once as (..., nodes,
    features), each hop ``A @ H(k-1)`` on the graph as given, then each
    state's rows, (..., batch * nodes, features), times its map's
    transpose laid out contiguously with the map's batch axis dropped,
    the terms summed and the sum transposed back.
    """
    a = adjacency if isinstance(adjacency, ad.Tensor) else ad.Tensor(adjacency)
    h_n = ops.contiguous(ops.matrix_transpose(h))
    states = [h_n]
    for _ in range(cfg.depth):
        mixed = ops.scale(ops.matmul(a, states[-1]), 1.0 - cfg.alpha)
        states.append(ops.add(ops.scale(h_n, cfg.alpha), mixed))
    out = None
    for theta, state in zip(cfg.theta, states):
        *lead, nodes, dim = state.shape
        rows = ops.reshape(state, (*lead[:-1], lead[-1] * nodes, dim)) if lead else state
        theta_t = ops.contiguous(
            ops.reshape(ops.matrix_transpose(theta), (*theta.shape[:-3], dim, dim))
        )
        shape = np.broadcast_shapes(theta.shape[:-2], tuple(lead)) + (nodes, dim)
        term = ops.reshape(ops.matmul(rows, theta_t), shape)
        out = term if out is None else ops.add(out, term)
    return ops.matrix_transpose(out)


def branch_cfgs(cfg):
    """The static branch's and the scales' hop maps of a branch stack's ``cfg``.

    Slot 0 of each (1 + scales, 1, hidden, hidden) map, as one (hidden,
    hidden) map, and slots 1..; ``ops.narrow`` takes them, so their
    gradients reach the one parameter.
    """
    slots, _, dim, _ = cfg.theta[0].shape
    first = [ops.reshape(ops.narrow(t, 0, 0, 1), (dim, dim)) for t in cfg.theta]
    rest = [ops.narrow(t, 0, 1, slots - 1) for t in cfg.theta]
    return [gr.GraphPropagationConfig(cfg.alpha, cfg.depth, maps) for maps in (first, rest)]


def chain_dynamic_adjacency(x, layer):
    """``graphs.dynamic_adjacency`` as two embedding products and a softmax."""
    e1_t = ops.tanh(ops.matmul(ops.matrix_transpose(layer.w1), x))
    e2_t = ops.tanh(ops.matmul(ops.matrix_transpose(layer.w2), x))
    return ops.softmax(ops.matmul(ops.matrix_transpose(e1_t), e2_t), axis=-1)


def chain_fuse(branches, layer):
    """``fusion.fuse`` as ten primitive ops; returns the fused tensor and alpha."""
    count, batch, dim, _ = branches.shape
    pooled = ops.reduce_mean(branches, 3)
    keyed = ops.matmul(pooled, ops.transpose(layer.w_k, (1, 0)))
    logits = ops.matmul(keyed, ops.reshape(layer.q, (dim, 1)))
    alpha = ops.softmax(logits, axis=0)
    fused = ops.reduce_sum(ops.mul(branches, ops.reshape(alpha, (count, batch, 1, 1))), axis=0)
    return fused, alpha.data.reshape(count, batch).T.copy()


def chain_head(h, w1, b1, w2, b2):
    """``model.head`` as batched matmuls, adds, a tanh and two transposes."""
    hidden = ops.tanh(ops.add(ops.matmul(ops.transpose(h, (0, 2, 1)), w1), b1))
    return ops.transpose(ops.add(ops.matmul(hidden, w2), b2), (0, 2, 1))


def chain_forward(x, model):
    """``model.forward`` wired from the chains above, under any ablation.

    The folds and the inception block are the model's own; every other
    stage is its op-by-op chain.
    """
    cfg = model.config
    n = cfg.n_vars

    def fold(p):
        return wv.decompose(p, wv.wavelet_filter(cfg.family), cfg.levels, cfg.boundary, adjoint=True)

    x_norm, stats = chain_revin_normalize(model.revin, x)
    static_adj = np.eye(n) if model.ablation == "gsl" else model.static_adjacency
    static_cfg, dynamic_cfg = branch_cfgs(model.graph_cfg)
    h_static = chain_propagate(
        ops.matmul(ops.matrix_transpose(model.input_proj), x_norm), static_adj, static_cfg
    )
    if model.ablation == "gsl":
        dyn_adj = ad.Tensor(np.eye(n))
    else:
        layer = model.dynamic_layer
        dyn_adj = chain_dynamic_adjacency(
            x_norm, gr.DynamicGraphLayer(fold(layer.w1), fold(layer.w2))
        )
    h_dyn = chain_propagate(
        ops.matmul(ops.matrix_transpose(fold(model.input_proj)), x_norm), dyn_adj, dynamic_cfg
    )
    branches = ops.concat([ops.reshape(h_static, (1, *h_static.shape)), h_dyn], axis=0)
    if model.ablation == "gf":
        fused = ops.reduce_mean(branches, 0)
    else:
        fused, _ = chain_fuse(branches, model.fusion_layer)
    if model.ablation != "tfl":
        fused = tp.inception_forward(fused, model.block)
    out = chain_head(fused, model.head_w1, model.head_b1, model.head_w2, model.head_b2)
    return chain_revin_denormalize(model.revin, out, stats)


def chain_mse_loss(pred, target):
    """``training.mse_loss`` as a difference, a square and a mean."""
    err = ops.sub(pred, ad.Tensor(target))
    return ops.reduce_mean(ops.mul(err, err))


def model_loss_and_grads(forward, x, model, target):
    """Forecast and the squared-error gradients of ``model``'s effective parameters.

    The gradients are copies: a parameter's optimizer slot, which
    ``ad.backward`` returns, is overwritten by the next backward.
    """
    params = md.effective_parameters(model)
    for p in params:
        p.zero_grad()
    pred = forward(x, model)
    grads = ad.backward(chain_mse_loss(pred, target), params)
    for p in params:
        p.zero_grad()
    return pred.data, {name: g.copy() for name, g in grads.items()}


@dataclass
class LoopAdamState:
    """Per-parameter moment estimates for ``loop_adam_step``."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def loop_adam_step(params, grads, state: LoopAdamState) -> None:
    """The per-parameter Adam update ``training.adam_step`` replaced."""
    state.t += 1
    correct1 = 1.0 - state.beta1**state.t
    correct2 = 1.0 - state.beta2**state.t
    for p in params:
        if p.name not in grads:
            raise GraphError(f"no gradient recorded for parameter {p.name!r}")
        g = grads[p.name]
        m = state.m.get(p.name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        else:
            v = state.v[p.name]
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * (g * g)
        state.m[p.name] = m
        state.v[p.name] = v
        step = state.lr * (m / correct1) / (np.sqrt(v / correct2) + state.eps)
        p.data = p.data - step


def loop_inception(x: np.ndarray, block) -> np.ndarray:
    """One inception block, including its layer norm, as bare loops.

    ``x`` is (batch, features, nodes); the kernels slide over the nodes.
    """
    outs = []
    for (_, dilation), kernel, bias in zip(
        tp.BRANCH_SHAPES, block.branch_kernels, block.branch_biases
    ):
        outs.append(loop_conv1d(x, kernel.data, dilation) + bias.data[None, :, None])
    merged = loop_conv1d(np.concatenate(outs, axis=1), block.merge_kernel.data, 1)
    pre = merged + block.merge_bias.data[None, :, None]
    pre = pre + loop_conv1d(x, block.residual_kernel.data, 1)
    pre = pre + block.residual_bias.data[None, :, None]
    out = np.zeros_like(pre)
    for b in range(pre.shape[0]):
        for t in range(pre.shape[2]):
            col = pre[b, :, t]
            normed = (col - col.mean()) / np.sqrt(col.var() + 1e-5)
            out[b, :, t] = normed * block.norm_gain.data + block.norm_bias.data
    return out


def loop_load_csv(path: str) -> SeriesTable:
    """Parse a header + float rows; the first column may be dates.

    The cell-by-cell loader ``data.load_csv`` replaced, kept as its
    oracle with one rule added: a cell whose float is not finite (``inf``,
    ``nan``, ``1e400``) is a defect, reported where the conversion
    reports its own.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise DataError(f"{path} is empty")
    header = [c.strip() for c in rows[0]]
    if not header:
        raise DataError(f"{path} has an empty header row")
    has_dates = header[0].lower() == "date"
    names = header[1:] if has_dates else header
    if not names:
        raise DataError(f"{path} has no value columns")
    data_rows = rows[1:]
    if not data_rows:
        raise DataError(f"{path} has a header but no data rows")

    values = np.empty((len(data_rows), len(names)))
    timestamps: list[str] | None = [] if has_dates else None
    for r, row in enumerate(data_rows, start=1):
        if len(row) != len(header):
            raise DataError(
                f"row {r} has {len(row)} cells, header has {len(header)} columns"
            )
        cells = row[1:] if has_dates else row
        if has_dates:
            timestamps.append(row[0].strip())
        for c, cell in enumerate(cells):
            text = cell.strip()
            if not text:
                raise DataError(f"missing value at row {r}, column {names[c]!r}")
            try:
                values[r - 1, c] = float(text)
            except ValueError:
                raise DataError(
                    f"non-numeric value {text!r} at row {r}, column {names[c]!r}"
                ) from None
            if not math.isfinite(values[r - 1, c]):
                raise DataError(f"non-finite value {text!r} at row {r}, column {names[c]!r}")
    return SeriesTable(values=values, names=names, timestamps=timestamps)


def split_checkpoint(blob: bytes) -> tuple[dict, bytes, list[bytes]]:
    """A version-6 checkpoint's JSON header, its static section (the
    has-static byte and the matrix) and each listed parameter's values.

    A parameter's values start where the sizes listed before it end.
    """
    (head_len,) = struct.unpack("<I", blob[9:13])
    header = json.loads(blob[13 : 13 + head_len])
    start = 13 + head_len
    n_vars = header["config"]["n_vars"]
    at = start + 1 + (8 * n_vars * n_vars if blob[start] else 0)
    static = blob[start:at]
    values = []
    for _, shape in header["parameters"]:
        values.append(blob[at : at + 8 * math.prod(shape)])
        at += len(values[-1])
    assert at == len(blob) - 4, "only the CRC32 trailer follows the values"
    return header, static, values


def join_checkpoint(header: dict, static: bytes, values: list[bytes]) -> bytes:
    """The version-6 checkpoint made of these parts, under a fresh CRC32."""
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    body = (
        md.CHECKPOINT_MAGIC + struct.pack("<II", md.CHECKPOINT_VERSION, len(head))
        + head + static + b"".join(values)
    )
    return body + struct.pack("<I", zlib.crc32(body))


def refilled(blob: bytes, name: str, value: float) -> bytes:
    """``blob`` with the first value of parameter ``name`` replaced, resealed."""
    header, static, values = split_checkpoint(blob)
    at = [listed for listed, _ in header["parameters"]].index(name)
    values[at] = struct.pack("<d", value) + values[at][8:]
    return join_checkpoint(header, static, values)
