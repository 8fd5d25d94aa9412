"""Reference ops that only the test oracles use.

The package records each model stage as one fused node, so it no longer
needs the primitives those nodes replaced. The op-by-op chains in
``conftest`` are built from them, unchanged and recorded through
``ad.record``: each op guards its own output, so a chain raises
``NumericError`` exactly where its fused node must. The broadcasting
``matmul`` and its gradient rules (``unbroadcast``,
``matmul_operand_grad``) are here as well: no node of the package
broadcasts. So are the generic reductions and ``scale``, which the
``gf`` ablation's mean (``fusion.mean``) replaced. The closed-form
parameter count that the model tests pin the built tree against is here
too.
"""

import math
from typing import Sequence

import numpy as np

from sdgf import model as md
from sdgf import temporal as tp
from sdgf.autodiff import Tensor, _as_tensor, record
from sdgf.errors import NumericError, ShapeError


def _check_axis(x: Tensor, axis: int) -> int:
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"axis {axis} out of range for shape {x.shape}")
    return axis % x.ndim


def unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def matmul_operand_grad(p: np.ndarray, q: np.ndarray, shape: tuple, keep: int) -> np.ndarray:
    """Gradient of one ``matmul`` operand of ``shape``, as one batched GEMM.

    For the left operand ``p`` is the output gradient, ``q`` the right
    operand and ``keep`` is -2; for the right operand ``p`` is the left
    operand, ``q`` the output gradient and ``keep`` is -1. The gradient
    contracts ``p`` and ``q`` over their shared matrix axis and over every
    batch axis the operand is broadcast along (size 1 or missing): those
    axes join the GEMM's inner dimension, so no (batch..., m, k) stack is
    built to be summed. The batch axes the operand keeps stay batch axes
    of the GEMM, which broadcasts a factor of size 1 along them. An
    operand that keeps every batch axis of the output needs none of that
    and takes the plain product.
    """
    out_grad = p if keep == -2 else q
    if tuple(shape[:-2]) == out_grad.shape[:-2]:
        return p @ np.swapaxes(q, -1, -2) if keep == -2 else np.swapaxes(p, -1, -2) @ q
    if keep == -2:
        p, q = np.swapaxes(p, -1, -2), np.swapaxes(q, -1, -2)
    # Both factors now contract on axis -2 and hold their rows on axis -1.
    # On an axis the operand is broadcast along, both have the full size.
    nb = max(p.ndim, q.ndim) - 2
    p, q = p[(None,) * (nb + 2 - p.ndim)], q[(None,) * (nb + 2 - q.ndim)]
    lead = (1,) * (nb + 2 - len(shape)) + tuple(shape[:-2])
    kept = [i for i in range(nb) if lead[i] != 1]
    inner = [i for i in range(nb) if lead[i] == 1] + [nb]

    def as_gemm(f):
        f = f.transpose(kept + inner + [nb + 1])
        return f.reshape(f.shape[: len(kept)] + (math.prod(f.shape[len(kept) : -1]), f.shape[-1]))

    return np.matmul(np.swapaxes(as_gemm(p), -1, -2), as_gemm(q)).reshape(shape)


def matmul(a, b) -> Tensor:
    """Matrix product with numpy-style broadcasting over leading axes."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    try:
        data = np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeError(f"matmul batch dimensions disagree: {a.shape} vs {b.shape}") from None

    def vjp(g):
        if a.requires_grad:
            a.accumulate(matmul_operand_grad(g, b.data, a.data.shape, -2))
        if b.requires_grad:
            b.accumulate(matmul_operand_grad(a.data, g, b.data.shape, -1))

    return record(data, "matmul", (a, b), vjp)


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


def scale(x, c: float) -> Tensor:
    x = _as_tensor(x)
    c = float(c)
    data = x.data * c

    def vjp(g):
        if x.requires_grad:
            x.accumulate(g * c)

    return record(data, "scale", (x,), vjp)


def reduce_sum(x, axis: int | None = None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    if axis is None:
        data = x.data.sum()

        def vjp(g):
            if x.requires_grad:
                x.accumulate(np.broadcast_to(g, x.data.shape))

        return record(data, "sum", (x,), vjp)

    axis = _check_axis(x, axis)
    if x.data.shape[axis] == 0:
        raise ShapeError(f"cannot reduce over empty axis {axis} of shape {x.shape}")
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if x.requires_grad:
            x.accumulate(np.broadcast_to(g if keepdims else np.expand_dims(g, axis), x.data.shape))

    return record(data, "sum", (x,), vjp)


def reduce_mean(x, axis: int | None = None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    count = x.data.size if axis is None else x.data.shape[_check_axis(x, axis)]
    if count == 0:
        raise ShapeError(f"cannot average over empty axis {axis} of shape {x.shape}")
    total = reduce_sum(x, axis, keepdims)
    return scale(total, 1.0 / count)


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
