"""Reverse-mode automatic differentiation over dense float64 arrays.

Every operation computes its result with numpy and records a
vector-Jacobian closure on the output tensor; ``backward`` walks the
recorded graph once in reverse topological order and accumulates
gradients on the inputs. Values are always float64: the gradient checks
in the test suite need the precision, and desk-scale training does not
need anything faster.

A recorded graph is one-shot. As ``backward`` finishes with each
interior node it releases the node's closure, its parent links and its
gradient, so a step's graph is freed by reference counting the moment
the caller drops the loss, without waiting for the cycle collector.
Leaf gradients (parameters, inputs) are kept. A later ``backward`` that
reaches a released node raises ``GraphError``.

Outputs are checked for NaN/Inf after every operation (a non-finite
value is an error state, not a value). ``set_finite_checks`` can switch
the guard off for throughput experiments.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, GraphError, NumericError, ShapeError

_grad_enabled = True
_finite_checks = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation, FD probes)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def set_finite_checks(enabled: bool) -> bool:
    """Toggle the post-op NaN/Inf guard. Returns the previous setting."""
    global _finite_checks
    previous = _finite_checks
    _finite_checks = bool(enabled)
    return previous


def _guard(data: np.ndarray, op: str) -> None:
    if _finite_checks and not np.all(np.isfinite(data)):
        raise NumericError(f"{op} produced a non-finite value")


class Tensor:
    """A float64 array plus the provenance needed for backpropagation.

    Leaf tensors are plain values; tensors produced by the ops below
    carry their input tensors in ``_parents`` and a closure in ``_vjp``
    that pushes the output gradient back to those inputs.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_released", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[], None] | None = None
        self._released = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, g: np.ndarray) -> None:
        if g.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {g.shape} does not match value shape {self.data.shape}"
            )
        if self.grad is None:
            # Views (slices, broadcasts) are copied so later accumulation
            # cannot alias another node's gradient buffer.
            self.grad = g if g.base is None else g.copy()
        else:
            self.grad = self.grad + g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable input.

        Each interior node is released once its closure has run (see the
        module docstring). Raises if the value is not a scalar or if the
        graph reaches a node that an earlier backward released.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {self.data.shape}")
        if not self.requires_grad:
            raise GraphError("no graph was recorded for this tensor (built under no_grad?)")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        # Popping drops the list's reference, so a released node whose
        # consumers are released too is freed before the walk moves on.
        while order:
            node = order.pop()
            if node._vjp is not None:
                node._vjp()
                node._vjp = None
                node._parents = ()
                node.grad = None
                node._released = True

    # Convenience arithmetic; the model code reads better with operators.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis, keepdims)

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class Parameter(Tensor):
    """A named, trainable leaf tensor."""

    __slots__ = ("name", "trainable")

    def __init__(self, name: str, data, trainable: bool = True):
        super().__init__(data, requires_grad=trainable)
        self.name = name
        self.trainable = bool(trainable)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _toposort(root: Tensor) -> list[Tensor]:
    # Iterative postorder: parents appear before children, each node once.
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._released:
            raise GraphError("backward already ran through this graph; rebuild it first")
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _make(data: np.ndarray, op: str, parents: tuple[Tensor, ...], vjp_builder) -> Tensor:
    """Wrap an op result, recording provenance when gradients are wanted."""
    _guard(data, op)
    track = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=track)
    if track:
        out._parents = parents
        out._vjp = vjp_builder(out)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
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


def _contract_batch(p: np.ndarray, q: np.ndarray, keep: int) -> np.ndarray:
    """Sum ``p`` times ``q`` over every axis but ``keep``, as one GEMM.

    Both operands have the same shape off ``keep``; the result is
    (p.shape[keep], q.shape[keep]).
    """
    keep %= p.ndim
    summed = [i for i in range(p.ndim) if i != keep]
    return np.tensordot(p, q, axes=(summed, summed))


# ---------------------------------------------------------------------------
# Elementwise ops


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"cannot broadcast shapes {a.shape} and {b.shape}") from None

    def build(out):
        def vjp():
            g = out.grad
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.data.shape))

        return vjp

    return _make(data, "add", (a, b), build)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeError(f"cannot broadcast shapes {a.shape} and {b.shape}") from None

    def build(out):
        def vjp():
            g = out.grad
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g, b.data.shape))

        return vjp

    return _make(data, "sub", (a, b), build)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"cannot broadcast shapes {a.shape} and {b.shape}") from None

    def build(out):
        def vjp():
            g = out.grad
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.data.shape))

        return vjp

    return _make(data, "mul", (a, b), build)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if np.any(b.data == 0.0):
        raise NumericError("division by zero; use an epsilon guard upstream")
    try:
        data = a.data / b.data
    except ValueError:
        raise ShapeError(f"cannot broadcast shapes {a.shape} and {b.shape}") from None

    def build(out):
        def vjp():
            g = out.grad
            if a.requires_grad:
                a._accumulate(_unbroadcast(g / b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

        return vjp

    return _make(data, "div", (a, b), build)


def scale(x, c: float) -> Tensor:
    x = _as_tensor(x)
    c = float(c)
    data = x.data * c

    def build(out):
        def vjp():
            if x.requires_grad:
                x._accumulate(out.grad * c)

        return vjp

    return _make(data, "scale", (x,), build)


def relu(x) -> Tensor:
    x = _as_tensor(x)
    data = np.maximum(x.data, 0.0)

    def build(out):
        # Subgradient at 0 is taken as 0.
        mask = x.data > 0.0

        def vjp():
            if x.requires_grad:
                x._accumulate(out.grad * mask)

        return vjp

    return _make(data, "relu", (x,), build)


def tanh(x) -> Tensor:
    x = _as_tensor(x)
    data = np.tanh(x.data)

    def build(out):
        def vjp():
            if x.requires_grad:
                x._accumulate(out.grad * (1.0 - out.data * out.data))

        return vjp

    return _make(data, "tanh", (x,), build)


def sqrt(x) -> Tensor:
    x = _as_tensor(x)
    data = np.sqrt(x.data)

    def build(out):
        def vjp():
            if x.requires_grad:
                x._accumulate(out.grad / (2.0 * out.data))

        return vjp

    return _make(data, "sqrt", (x,), build)


# ---------------------------------------------------------------------------
# Linear algebra


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

    def build(out):
        def vjp():
            g = out.grad
            if a.requires_grad:
                if a.ndim == 2 and b.ndim > 2:
                    # A weight applied to a batch: contract the batch axes
                    # in the GEMM instead of summing a (batch, m, k) stack.
                    ga = _contract_batch(g, b.data, -2)
                else:
                    ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape)
                a._accumulate(ga)
            if b.requires_grad:
                if b.ndim == 2 and a.ndim > 2:
                    gb = _contract_batch(a.data, g, -1)
                else:
                    gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape)
                b._accumulate(gb)

        return vjp

    return _make(data, "matmul", (a, b), build)


def softmax(x, axis: int) -> Tensor:
    """Stable softmax along ``axis`` (max subtraction before exponentiation)."""
    x = _as_tensor(x)
    axis = _check_axis(x, axis)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def build(out):
        def vjp():
            if x.requires_grad:
                g = out.grad
                y = out.data
                inner = (g * y).sum(axis=axis, keepdims=True)
                x._accumulate(y * (g - inner))

        return vjp

    return _make(data, "softmax", (x,), build)


def _check_axis(x: Tensor, axis: int) -> int:
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"axis {axis} out of range for shape {x.shape}")
    return axis % x.ndim


# ---------------------------------------------------------------------------
# Reductions


def reduce_sum(x, axis: int | None = None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    if axis is None:
        data = x.data.sum()

        def build(out):
            def vjp():
                if x.requires_grad:
                    x._accumulate(np.broadcast_to(out.grad, x.data.shape))

            return vjp

        return _make(data, "sum", (x,), build)

    axis = _check_axis(x, axis)
    if x.data.shape[axis] == 0:
        raise ShapeError(f"cannot reduce over empty axis {axis} of shape {x.shape}")
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def build(out):
        def vjp():
            if x.requires_grad:
                g = out.grad if keepdims else np.expand_dims(out.grad, axis)
                x._accumulate(np.broadcast_to(g, x.data.shape))

        return vjp

    return _make(data, "sum", (x,), build)


def reduce_mean(x, axis: int | None = None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    count = x.data.size if axis is None else x.data.shape[_check_axis(x, axis)]
    if count == 0:
        raise ShapeError(f"cannot average over empty axis {axis} of shape {x.shape}")
    total = reduce_sum(x, axis, keepdims)
    return scale(total, 1.0 / count)


# ---------------------------------------------------------------------------
# Shape surgery


def transpose(x, axes: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"invalid permutation {axes} for shape {x.shape}")
    data = np.transpose(x.data, axes)
    inverse = tuple(np.argsort(axes))

    def build(out):
        def vjp():
            if x.requires_grad:
                x._accumulate(np.transpose(out.grad, inverse))

        return vjp

    return _make(data, "transpose", (x,), build)


def reshape(x, shape: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    shape = tuple(shape)
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    data = x.data.reshape(shape)

    def build(out):
        def vjp():
            if x.requires_grad:
                x._accumulate(out.grad.reshape(x.data.shape))

        return vjp

    return _make(data, "reshape", (x,), build)


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

    def build(out):
        def vjp():
            g = out.grad
            index: list = [slice(None)] * g.ndim
            for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    index[axis] = slice(start, stop)
                    t._accumulate(g[tuple(index)])

        return vjp

    return _make(data, "concat", tuple(tensors), build)


def narrow(x, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` entries along ``axis``."""
    x = _as_tensor(x)
    axis = _check_axis(x, axis)
    if not (0 <= start and start + length <= x.shape[axis]):
        raise ShapeError(f"slice [{start}:{start + length}) exceeds axis {axis} of shape {x.shape}")
    index: list = [slice(None)] * x.ndim
    index[axis] = slice(start, start + length)
    data = x.data[tuple(index)]

    def build(out):
        def vjp():
            if x.requires_grad:
                g = np.zeros_like(x.data)
                g[tuple(index)] = out.grad
                x._accumulate(g)

        return vjp

    return _make(data, "narrow", (x,), build)


# ---------------------------------------------------------------------------
# Convolution and normalization


def conv1d(x, kernel, dilation: int = 1) -> Tensor:
    """Dilated cross-correlation with "same" zero padding.

    ``x`` is (batch, channels, length) and ``kernel`` is
    (out_channels, channels, width) with odd width, so the output length
    equals the input length: pad = dilation * (width - 1) / 2 per side.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if x.ndim != 3 or kernel.ndim != 3:
        raise ShapeError(f"conv1d expects 3-d input and kernel, got {x.shape} and {kernel.shape}")
    if kernel.shape[1] != x.shape[1]:
        raise ShapeError(f"kernel channels {kernel.shape} do not match input {x.shape}")
    width = kernel.shape[2]
    if width % 2 == 0:
        raise ConfigError(f"even kernel width {width} cannot keep length under same padding")
    dilation = int(dilation)
    if dilation < 1:
        raise ConfigError(f"dilation must be >= 1, got {dilation}")

    batch, channels, length = x.shape
    out_channels = kernel.shape[0]
    pad = dilation * (width - 1) // 2
    # im2col with the contracted axes first: cols[c, j, b, l] is
    # x[b, c, l + j * dilation - pad] (zero outside), so the forward pass
    # and both gradients are single 2-D GEMMs over (channels * width).
    padded = np.pad(x.data.transpose(1, 0, 2), ((0, 0), (0, 0), (pad, pad)))
    windows = sliding_window_view(padded, length, axis=2)[:, :, ::dilation]
    cols = windows.transpose(0, 2, 1, 3).reshape(channels * width, batch * length)
    flat_kernel = kernel.data.reshape(out_channels, channels * width)
    out_data = (flat_kernel @ cols).reshape(out_channels, batch, length).transpose(1, 0, 2)

    def build(out):
        def vjp():
            g = out.grad.transpose(1, 0, 2).reshape(out_channels, batch * length)
            if kernel.requires_grad:
                kernel._accumulate((g @ cols.T).reshape(kernel.data.shape))
            if x.requires_grad:
                g_cols = (flat_kernel.T @ g).reshape(channels, width, batch, length)
                g_pad = np.zeros((channels, batch, length + 2 * pad))
                for j in range(width):
                    g_pad[:, :, j * dilation : j * dilation + length] += g_cols[:, j]
                x._accumulate(g_pad[:, :, pad : pad + length].transpose(1, 0, 2))

        return vjp

    return _make(out_data, "conv1d", (x, kernel), build)


def layer_norm(x, axis: int, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize to zero mean / unit variance along ``axis``, then affine.

    Composed from primitive ops, so the gradient comes from the chain
    rule rather than a hand-derived formula.
    """
    if eps <= 0.0:
        raise ConfigError(f"layer_norm eps must be positive, got {eps}")
    x = _as_tensor(x)
    axis = _check_axis(x, axis)
    gain, bias = _as_tensor(gain), _as_tensor(bias)
    expect = (x.shape[axis],)
    if gain.shape != expect or bias.shape != expect:
        raise ShapeError(
            f"layer_norm affine must have shape {expect}, got {gain.shape} and {bias.shape}"
        )
    m = reduce_mean(x, axis, keepdims=True)
    centered = sub(x, m)
    var = reduce_mean(mul(centered, centered), axis, keepdims=True)
    normed = div(centered, sqrt(add(var, eps)))
    side = [1] * x.ndim
    side[axis] = x.shape[axis]
    return add(mul(normed, reshape(gain, side)), reshape(bias, side))


# ---------------------------------------------------------------------------
# Gradient extraction


def backward(loss: Tensor, parameters: Iterable[Parameter]) -> dict[str, np.ndarray]:
    """Run backprop from a scalar loss and return gradients by parameter name.

    Parameters that did not take part in the computation are absent from
    the result; the optimizer treats that as an error.
    """
    loss.backward()
    grads: dict[str, np.ndarray] = {}
    for p in parameters:
        if p.trainable and p.grad is not None:
            grads[p.name] = p.grad
    return grads
