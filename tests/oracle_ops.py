"""Reference ops that only the test oracles use.

The package records each model stage as one fused node, so it no longer
needs the primitives those nodes replaced. The op-by-op chains in
``conftest`` are built from them, unchanged and recorded through
``ad.record``: each op guards its own output, so a chain raises
``NumericError`` exactly where its fused node must. The closed-form
parameter count that the model tests pin the built tree against is here
too.
"""

import math
from typing import Sequence

import numpy as np

from sdgf import model as md
from sdgf import temporal as tp
from sdgf.autodiff import Tensor, _as_tensor, _check_axis, record, unbroadcast
from sdgf.errors import NumericError, ShapeError


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeError(f"cannot broadcast shapes {a.shape} and {b.shape}") from None

    def vjp(g):
        if a.requires_grad:
            a.accumulate(unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(unbroadcast(-g, b.data.shape))

    return record(data, "sub", (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"cannot broadcast shapes {a.shape} and {b.shape}") from None

    def vjp(g):
        if a.requires_grad:
            a.accumulate(unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(unbroadcast(g * a.data, b.data.shape))

    return record(data, "mul", (a, b), vjp)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"cannot broadcast shapes {a.shape} and {b.shape}") from None

    def vjp(g):
        if a.requires_grad:
            a.accumulate(unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(unbroadcast(g, b.data.shape))

    return record(data, "add", (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if np.any(b.data == 0.0):
        raise NumericError("division by zero; use an epsilon guard upstream")
    try:
        data = a.data / b.data
    except ValueError:
        raise ShapeError(f"cannot broadcast shapes {a.shape} and {b.shape}") from None

    def vjp(g):
        if a.requires_grad:
            a.accumulate(unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return record(data, "div", (a, b), vjp)


def tanh(x) -> Tensor:
    x = _as_tensor(x)
    data = np.tanh(x.data)

    def vjp(g):
        if x.requires_grad:
            x.accumulate(g * (1.0 - data * data))

    return record(data, "tanh", (x,), vjp)


def sqrt(x) -> Tensor:
    x = _as_tensor(x)
    data = np.sqrt(x.data)

    def vjp(g):
        if x.requires_grad:
            x.accumulate(g / (2.0 * data))

    return record(data, "sqrt", (x,), vjp)


def softmax(x, axis: int) -> Tensor:
    """Stable softmax along ``axis`` (max subtraction before exponentiation)."""
    x = _as_tensor(x)
    axis = _check_axis(x, axis)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        if x.requires_grad:
            inner = (g * data).sum(axis=axis, keepdims=True)
            x.accumulate(data * (g - inner))

    return record(data, "softmax", (x,), vjp)


def transpose(x, axes: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"invalid permutation {axes} for shape {x.shape}")
    data = np.transpose(x.data, axes)
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        if x.requires_grad:
            x.accumulate(np.transpose(g, inverse))

    return record(data, "transpose", (x,), vjp)


def matrix_transpose(x) -> Tensor:
    """Swap the last two axes, keeping any leading (batch, scale) axes."""
    x = _as_tensor(x)
    if x.ndim < 2:
        raise ShapeError(f"matrix_transpose needs a >=2-d operand, got {x.shape}")
    return transpose(x, (*range(x.ndim - 2), x.ndim - 1, x.ndim - 2))


def contiguous(x) -> Tensor:
    """The same values laid out C-contiguous, as a node lays out an operand
    whose strided view would send a product to another BLAS kernel."""
    x = _as_tensor(x)
    data = np.ascontiguousarray(x.data)

    def vjp(g):
        if x.requires_grad:
            x.accumulate(g)

    return record(data, "contiguous", (x,), vjp)


def reshape(x, shape: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    shape = tuple(shape)
    if math.prod(shape) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    data = x.data.reshape(shape)

    def vjp(g):
        if x.requires_grad:
            x.accumulate(g.reshape(x.data.shape))

    return record(data, "reshape", (x,), vjp)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat needs at least one tensor")
    axis = _check_axis(tensors[0], axis)
    base = list(tensors[0].shape)
    for i, t in enumerate(tensors[1:], start=1):
        other = list(t.shape)
        if len(other) != len(base) or any(
            o != b for j, (o, b) in enumerate(zip(other, base)) if j != axis
        ):
            raise ShapeError(f"concat operand {i} has shape {t.shape}, expected {tensors[0].shape} off axis {axis}")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def vjp(g):
        index: list = [slice(None)] * g.ndim
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index[axis] = slice(start, stop)
                t.accumulate(g[tuple(index)])

    return record(data, "concat", tuple(tensors), vjp)


def narrow(x, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` entries along ``axis``."""
    x = _as_tensor(x)
    axis = _check_axis(x, axis)
    if not (0 <= start and start + length <= x.shape[axis]):
        raise ShapeError(f"slice [{start}:{start + length}) exceeds axis {axis} of shape {x.shape}")
    index: list = [slice(None)] * x.ndim
    index[axis] = slice(start, start + length)
    data = x.data[tuple(index)]

    def vjp(g):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[tuple(index)] = g
            x.accumulate(full)

    return record(data, "narrow", (x,), vjp)


def predicted_parameter_count(cfg: md.ModelConfig) -> int:
    """Closed-form parameter count; tests pin it against the built model."""
    length, horizon, n, dim = cfg.input_len, cfg.horizon, cfg.n_vars, cfg.hidden
    scales = cfg.levels + 1
    hops = cfg.depth + 1
    total = 2 * n + length * dim
    total += hops * dim * dim * (1 + scales)
    total += scales * 2 * length * cfg.embed_dim
    total += dim + dim * dim
    width = tp.branch_width(dim)
    total += sum(width * dim * k for k, _ in tp.BRANCH_SHAPES) + 4 * width
    total += dim * 4 * width + dim
    total += dim * dim + dim
    total += 2 * dim
    total += dim * 2 * dim + 2 * dim + 2 * dim * horizon + horizon
    return total
