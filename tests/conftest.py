"""Shared numeric oracles for the test suite."""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from sdgf import autodiff as ad
from sdgf import temporal as tp
from sdgf.data import SeriesTable
from sdgf.errors import DataError, GraphError


def fd_gradient(build_loss, leaf: ad.Tensor, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of ``build_loss()`` w.r.t. ``leaf.data``.

    ``build_loss`` must rebuild the computation from current leaf values
    and return the scalar loss as a float.
    """
    grad = np.zeros_like(leaf.data)
    flat_value = leaf.data.ravel()
    flat_grad = grad.ravel()
    with ad.no_grad():
        for i in range(flat_value.size):
            saved = flat_value[i]
            flat_value[i] = saved + h
            up = build_loss()
            flat_value[i] = saved - h
            down = build_loss()
            flat_value[i] = saved
            flat_grad[i] = (up - down) / (2.0 * h)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-5) -> float:
    """Worst-case elementwise relative error with an absolute floor."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def assert_grads_match(build_loss, leaves, tol: float = 1e-5, h: float = 1e-5) -> None:
    """Backprop the loss and compare every leaf gradient to the FD oracle.

    ``h`` is the central-difference step. A loss that is linear in every
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


def chain_layer_norm(x, axis: int, gain, bias, eps: float = 1e-5) -> ad.Tensor:
    """Layer norm composed from primitive ops, as ``ad.layer_norm`` was.

    Every op guards its own output, so this chain raises ``NumericError``
    on exactly the inputs the fused op must raise on.
    """
    x = ad._as_tensor(x)
    m = ad.reduce_mean(x, axis, keepdims=True)
    centered = ad.sub(x, m)
    var = ad.reduce_mean(ad.mul(centered, centered), axis, keepdims=True)
    normed = ad.div(centered, ad.sqrt(ad.add(var, eps)))
    side = [1] * x.ndim
    side[axis] = x.shape[axis]
    return ad.add(ad.mul(normed, ad.reshape(gain, side)), ad.reshape(bias, side))


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
        if not p.trainable:
            continue
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


def loop_inception(x: np.ndarray, block, conv_axis: str = "nodes") -> np.ndarray:
    """One inception block, including its layer norm, as bare loops.

    ``x`` is (batch, features, nodes); with ``conv_axis="channels"`` the
    kernels slide over the features and the nodes are their channels.
    """
    h = x.transpose(0, 2, 1) if conv_axis == "channels" else x
    outs = []
    for (_, dilation), kernel, bias in zip(
        tp.BRANCH_SHAPES, block.branch_kernels, block.branch_biases
    ):
        outs.append(loop_conv1d(h, kernel.data, dilation) + bias.data[None, :, None])
    merged = loop_conv1d(np.concatenate(outs, axis=1), block.merge_kernel.data, 1)
    pre = merged + block.merge_bias.data[None, :, None]
    pre = pre + loop_conv1d(h, block.residual_kernel.data, 1)
    pre = pre + block.residual_bias.data[None, :, None]
    if conv_axis == "channels":
        pre = pre.transpose(0, 2, 1)
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
