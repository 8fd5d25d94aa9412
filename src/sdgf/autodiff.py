"""Reverse-mode automatic differentiation over dense float64 arrays.

Every operation computes its result with numpy and records, through
``record``, a vector-Jacobian function on the output tensor: ``vjp(g)``
takes the output's gradient ``g`` and pushes it to the inputs.
``backward`` walks the recorded graph once in reverse topological order,
calling each node's ``vjp`` with the gradient gathered on it. Values are
always float64: the gradient checks in the test suite need the
precision, and desk-scale training does not need anything faster.

A ``vjp`` closes over its inputs and over arrays, never over its own
output tensor (one that needs the output value closes over the array),
so a recorded graph holds no reference cycle: a graph the caller drops
is freed by reference counting, whether or not ``backward`` ran through
it, without waiting for the cycle collector. A recorded graph is
one-shot. As ``backward`` finishes with each interior node it releases
the node's ``vjp``, its parent links and its gradient, so a step's graph
is freed the moment the caller drops the loss. Leaf gradients
(parameters, inputs) are kept. A parameter that has an optimizer slot
(``Parameter.slot``, its view in the gradient vector of the
``training.AdamState`` that last bound it) keeps its gradient there, so
the next ``backward`` overwrites the array an earlier one returned (or
adds to it, without a ``zero_grad`` between them): a caller that needs a
gradient past the next ``backward`` copies it. A later ``backward`` that
reaches a released node raises ``GraphError``.

A non-finite value is an error state, not a value: the op that first
produces one raises ``NumericError`` naming itself. An op checks for
NaN/Inf the intermediates it names as ``checked`` and its output. A
forward run through ``guard_once`` (every model forward, in training and
in forecasts alike) checks only those intermediates and its final
output, and replays with every guard on after a failure, so it raises
where the op-by-op guard raises; the per-op output guard serves that
replay and ops called on their own. The check is one ``isfinite`` pass
and one reduction called on the array itself, so an array passes exactly
when every element is finite, whatever the sum of its elements would
be. ``set_finite_checks`` can switch every check off for throughput
experiments.

Under ``no_grad`` an operand derived from parameters alone (the model's
wavelet folds, ``conv1d``'s composed kernel) is made once per parameter
version: ``cached`` keeps it, next to the bytes of its sources, while the
sources stay bit for bit the same. Grad mode makes every such operand
afresh, as part of the gradient path.

Each recorded op pays a fixed Python cost on top of its arithmetic, and
on small shapes that cost dominates, so the per-op path calls numpy
directly rather than through its Python-level helpers (``np.all``,
``np.pad``, ``np.prod``). For the same reason the model's stages (RevIN,
graph propagation, dynamic adjacency, fusion gate or mean, head,
wavelet transforms) are single fused nodes, built in their own modules
on the public pieces this one exports: ``record`` makes a node (and
guards chosen intermediates as well as the output) and
``Tensor.accumulate`` adds a gradient to a parent. Each node takes the
one call form the model uses, and ``Tensor`` has no arithmetic
operators.

Layouts: an op's float64 result is stored as the op laid it out,
strided views included; only a ``Tensor`` built from a caller's array is
made C-contiguous. A value keeps its logical shape, and only the nodes
that read it know its memory layout: each reads its operand in place
when it is laid out as the node wants and copies it once otherwise, so
a node's result does not depend on its operand's layout. Gradients
follow the same rule: ``Tensor.accumulate`` hands an interior node its
first gradient as the consumer's VJP made it, view or not, and that
node's VJP reads it as it reads an operand. Only a leaf's view gradient
is copied, laid out like the value it belongs to. The model keeps two
values laid out for their readers:

- its (..., features, nodes) values are node-major: ``left_map``, the
  propagation node and ``conv1d`` write a C-contiguous (..., nodes,
  features) array and hand on its swapaxes view, so the stages after
  them read each item's rows in place, and elementwise ops and
  reductions on such a view keep its memory order;
- its (batch, L, N) window is time-major: the RevIN node writes it as a
  C-contiguous (L, batch, N) array. Learned time maps read the window
  from the left (``w^T @ x``), per wavelet scale and per batch item:
  ``left_map`` is that read as one node, and ``left_product`` and
  ``left_product_grads`` are its array-level forward and gradients,
  which ``graphs.dynamic_adjacency`` shares. They take a list of maps
  and the window's (L, batch * N) rows, so the forward and each
  gradient are one 2-D GEMM per map rather than one small product per
  (scale, item). ``left_product`` hands on the GEMM's rows as they
  are, K-major, (slots, K, batch, N) in memory: the adjacency reads
  them so, and ``left_map`` copies them node-major.

The other nodes here are ``conv1d`` and ``layer_norm`` for the
inception block. The ops the fused stages replaced, the broadcasting
``matmul``, its gradient rules and the generic reductions among them,
live in ``tests/oracle_ops.py``: only the tests' op-by-op chains use
them, as the oracles that each fused node must match and must raise
where they raise.

A training step allocates its graph's arrays afresh, and ``backward``
frees them all again. By default glibc then trims the freed top of the
heap back to the kernel and serves mid-sized arrays with ``mmap``, so
the next step page-faults the same memory back in (thousands of faults
per step at the benchmark's shapes). Loading this module on glibc
therefore sets two ``mallopt`` values once: ``M_MMAP_THRESHOLD`` to
4 MiB, so every array below it comes from the heap, and
``M_TRIM_THRESHOLD`` to 128 MiB, so the heap keeps that much freed top
for the next step. Both are needed: setting either one turns off
glibc's dynamic tuning of the other, so on the benchmark's widest shape
either one alone faults more than neither. Arrays of 4 MiB or more stay
mapped, where numpy asks for huge pages. The settings hold for the whole
process that imports ``sdgf``; other C libraries are left as they are.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import weakref
from typing import Callable, Iterable

import numpy as np

from .errors import ConfigError, GraphError, NumericError, SdgfError, ShapeError

_grad_enabled = True
_finite_checks = True
_output_guards = True  # off only in ``guard_once``'s first pass
_FLOAT64 = np.dtype(np.float64)


def _keep_freed_heap() -> None:
    """Make glibc reuse a step's freed arrays (see the module docstring)."""
    try:
        glibc = (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):  # no confstr or no such name
        return
    if not glibc:
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 128 << 20)  # M_TRIM_THRESHOLD


_keep_freed_heap()


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
    # ``np.isfinite(...).all()`` skips ``np.all``'s Python dispatch; on a
    # numpy scalar (a full reduction's result) both give a numpy bool.
    if _finite_checks and not np.isfinite(data).all():
        raise NumericError(f"{op} produced a non-finite value")


class Tensor:
    """A float64 array plus the provenance needed for backpropagation.

    Leaf tensors are plain values; tensors produced by the ops below
    carry their input tensors in ``_parents`` and in ``_vjp`` the function
    that takes the output gradient and pushes it back to those inputs.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_released", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        # Most op results already are what the slow path would make.
        # Anything else, numpy scalars included, goes through asarray and
        # so becomes an array of its own shape (0-d for a scalar).
        if not (type(data) is np.ndarray and data.dtype is _FLOAT64 and data.flags.c_contiguous):
            data = np.asarray(data, dtype=np.float64)
            if not data.flags.c_contiguous:
                data = np.ascontiguousarray(data)
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], None] | None = None
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

    def accumulate(self, g: np.ndarray) -> None:
        """Add ``g`` to this tensor's gradient; every VJP passes gradients on this way."""
        if g.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {g.shape} does not match value shape {self.data.shape}"
            )
        # An interior node takes its first gradient as handed over, view
        # or not: no VJP writes into its incoming gradient, and a second
        # one makes a new array. A leaf keeps its gradient, so a view (a
        # slice, a broadcast) is copied in the value's memory order and
        # cannot alias another node's gradient buffer.
        if self.grad is not None:
            self.grad = self.grad + g
        elif g.base is None or self._vjp is not None:
            self.grad = g
        else:
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, g)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable input.

        Each interior node is released once its ``vjp`` has run (see the
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
                node._vjp(node.grad)
                node._vjp = None
                node._parents = ()
                node.grad = None
                node._released = True

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class Parameter(Tensor):
    """A named leaf tensor that the optimizer updates.

    ``slot``, once the optimizer gives it one (``training.adam_step``),
    is the parameter's view in the optimizer's gradient vector:
    ``accumulate`` then copies the first gradient of a backward into it
    and adds later ones in place, so the gradient is laid out where the
    optimizer reads it.
    """

    __slots__ = ("name", "slot")

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.slot: np.ndarray | None = None

    def accumulate(self, g: np.ndarray) -> None:
        slot = self.slot
        if slot is not None and g.shape == slot.shape == self.data.shape:
            if self.grad is None:
                np.copyto(slot, g)
                self.grad = slot
                return
            if self.grad is slot:
                slot += g
                return
        super().accumulate(g)

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


def record(
    data: np.ndarray, op: str, parents: tuple[Tensor, ...], vjp, checked=()
) -> Tensor:
    """Wrap an op result, recording provenance when gradients are wanted.

    Every op, here and in the stage modules, makes its node through this
    one call. ``vjp(g)`` pushes the node's output gradient ``g`` to the
    ``parents``; it is stored only when a parent requires a gradient and
    recording is on, and ``backward`` calls it once. It must not refer to
    the node this returns (a ``vjp`` that needs the output value closes
    over ``data``), so a dropped graph frees itself. The result is
    guarded, and so is each array in ``checked``: the intermediates of a
    fused op that a later step could turn finite again (a product before
    ``tanh``, scores before a softmax, whose ``exp(-inf)`` is 0), so the
    fused op raises ``NumericError`` where the chain of ops it stands for
    did.
    """
    for inner in checked:
        _guard(inner, op)
    if _output_guards:
        _guard(data, op)
    track = False
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                track = True
                break
    if type(data) is np.ndarray and data.dtype is _FLOAT64:
        # As the op laid it out, views and strides included.
        out = Tensor.__new__(Tensor)
        out.data, out.grad, out.requires_grad = data, None, track
        out._parents, out._vjp, out._released = (), None, False
    else:
        out = Tensor(data, requires_grad=track)
    if track:
        out._parents = parents
        out._vjp = vjp
    return out


# ---------------------------------------------------------------------------
# Forwards: cached no_grad operands and one finiteness check


# First source -> (key, weak references to the other sources, a snapshot
# of every source's values, the value); see ``cached``.
_CACHE = weakref.WeakKeyDictionary()


def cached(sources: tuple[Tensor, ...], key: tuple, make: Callable[[], tuple]) -> tuple:
    """``make()``, a tuple derived from the values of ``sources`` alone, cached under ``no_grad``.

    Grad mode neither reads nor writes the cache: there the value is part
    of the gradient path and is made afresh. Under ``no_grad`` one entry
    is kept per first source, with ``key`` (the settings the value was
    made with) and a snapshot of every source, its shape and the bytes of
    its values; every source is held weakly, so the cache never keeps a
    model alive. The entry is reused while the key matches, the sources
    are the same tensors and each one's snapshot is unchanged, so an
    optimizer step and any other write, in place or by rebinding
    ``.data``, even one that only flips the sign of a zero, make the value
    afresh.
    Comparing bytes costs about half of an elementwise compare. Only a value whose arrays
    are all finite is kept, so a hit passes every guard that making it
    would pass; the kept arrays are read-only.
    """
    if _grad_enabled:
        return make()
    first, rest = sources[0], sources[1:]
    hit = _CACHE.get(first)
    if (
        hit is not None
        and hit[0] == key
        and all(ref() is s for ref, s in zip(hit[1], rest))
        and hit[2] == _snapshot(sources)
    ):
        return hit[3]
    value = make()
    arrays = [v.data if isinstance(v, Tensor) else v for v in value]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    if all(np.isfinite(a).all() for a in arrays):
        for a in arrays:
            a.setflags(write=False)
        refs = tuple(weakref.ref(s) for s in rest)
        _CACHE[first] = (key, refs, _snapshot(sources), value)
    return value


def _snapshot(sources: tuple[Tensor, ...]) -> tuple:
    """Each source's shape and the bytes of its values: equal exactly when the bits are."""
    return tuple((s.data.shape, s.data.tobytes()) for s in sources)


def guard_once(run: Callable[[], tuple]) -> tuple:
    """``run()``, a forward returning its output tensor first, checked once for NaN/Inf.

    With checks off (``set_finite_checks``) or inside another such call,
    ``run()`` runs as it is. Otherwise, in grad mode and under
    ``no_grad`` alike, a first pass skips every node's output guard but
    keeps each ``checked`` guard, with numpy's floating-point warnings
    off, and only its output is checked. A first pass that raises an
    ``SdgfError`` (not only a ``NumericError``: with an output guard
    skipped, a forward can reach a later error that the guard would have
    preempted), or whose output is not all finite, is dropped, graph and
    all, and run again with every guard on and under the caller's
    ``np.errstate``, so a failure raises the error, and prints the
    warnings, of a forward guarded node by node. A forward that passes
    every guard passes the first pass with the same bits. One that fails
    a guard fails the first pass too: every node either passes a
    non-finite input on to its output or guards, as ``checked``, the
    intermediate that would turn it finite again, so a non-finite value
    reaches the output or raises on the way.
    """
    global _output_guards
    if not (_finite_checks and _output_guards):
        return run()
    _output_guards = False
    try:
        with np.errstate(all="ignore"):
            result = run()
        if np.isfinite(result[0].data).all():
            return result
    except SdgfError:  # the run below raises what a forward guarded node by node raises
        pass
    finally:
        _output_guards = True
    return run()


# ---------------------------------------------------------------------------
# Linear algebra


def _time_rows(window: np.ndarray) -> np.ndarray:
    """The (L, batch * N) rows of a (batch, L, N) window, in place if it is time-major."""
    batch, length, n = window.shape
    return np.ascontiguousarray(window.swapaxes(0, 1)).reshape(length, batch * n)


def left_product(maps_t: list, window: np.ndarray) -> np.ndarray:
    """``m @ x`` for each map ``m`` of ``maps_t`` and each (L, N) item ``x`` of ``window``.

    Each map is one (K, L) map or an (S, 1, K, L) stack, one map per
    scale, filling one or S slots of the result's leading axis, in order.
    Each map's product is one 2-D GEMM, (S * K, L) @ (L, batch * N), on
    the window's time-major rows (see the module docstring), in place of
    a (K, L) @ (L, N) product per (scale, item); one GEMM over the rows of
    several maps would pick another BLAS kernel on some shapes and move
    last bits. The result is the (slots, batch, K, N) view of the GEMMs'
    rows, laid out (slots, K, batch, N); ``left_product_grads`` reads a
    gradient laid out so in place.
    """
    if (
        any(m.ndim not in (2, 4) or m.shape[1:-2] not in ((), (1,)) for m in maps_t)
        or len({m.shape[-2:] for m in maps_t}) != 1
        or window.ndim != 3
        or window.shape[1] != maps_t[0].shape[-1]
    ):
        raise ShapeError(
            f"maps (K, L) or (S, 1, K, L) of shapes {[m.shape for m in maps_t]} cannot read"
            f" a (batch, L, N) window {window.shape}"
        )
    (k, length), (batch, _, nodes) = maps_t[0].shape[-2:], window.shape
    cols = _time_rows(window)
    rows = [m.reshape(-1, length) for m in maps_t]
    out, start = np.empty((sum(map(len, rows)), cols.shape[1])), 0
    for r in rows:
        np.matmul(r, cols, out=out[start : start + len(r)])
        start += len(r)
    return out.reshape(-1, k, batch, nodes).transpose(0, 2, 1, 3)


def left_product_grads(maps_t: list, window, g, want_maps: bool, want_window: bool):
    """The (``maps_t``, ``window``) gradients of ``left_product`` for its output gradient ``g``.

    Each is one 2-D GEMM over the maps' rows side by side, and ``None``
    unless wanted; the maps' gradient is a list, one array per map. ``g``
    is read in place when it is laid out as ``left_product`` lays out its
    product, and copied once otherwise. The window's gradient is a
    (batch, L, N) view of time-major rows, laid out like the model's
    window.
    """
    blocks = [m.reshape(-1, window.shape[1]) for m in maps_t]
    rows = np.concatenate(blocks)
    batch, length, nodes = window.shape
    g = np.swapaxes(g.reshape(-1, batch, maps_t[0].shape[-2], nodes), 1, 2)
    g = g.reshape(len(rows), batch * nodes)
    g_maps = g_window = None
    if want_maps:
        g_rows, start, g_maps = g @ _time_rows(window).T, 0, []
        for m, block in zip(maps_t, blocks):
            g_maps.append(g_rows[start : start + len(block)].reshape(m.shape))
            start += len(block)
    if want_window:
        g_window = (rows.T @ g).reshape(length, batch, nodes).swapaxes(0, 1)
    return g_maps, g_window


def left_map(maps, x) -> Tensor:
    """``maps^T @ x`` for a sequence of maps over one (batch, L, N) window ``x``.

    The maps fill the slots of the result's leading axis in order, an
    (L, K) map one slot and an (S, 1, L, K) stack S, so the result is
    (slots, batch, K, N). One node, where a transpose and a ``matmul``
    per map record more; the forward and each gradient are 2-D GEMMs
    (see ``left_product``). The value is a node-major copy of
    ``left_product``'s rows (see the module docstring).
    """
    parts = [_as_tensor(m) for m in maps]
    x = _as_tensor(x)
    maps_t = [np.swapaxes(p.data, -1, -2) for p in parts]
    data = np.ascontiguousarray(left_product(maps_t, x.data).swapaxes(-1, -2)).swapaxes(-1, -2)

    def vjp(g):
        g_maps, g_x = left_product_grads(
            maps_t, x.data, g, any(p.requires_grad for p in parts), x.requires_grad
        )
        if g_maps is not None:
            for p, g_p in zip(parts, g_maps):
                if p.requires_grad:
                    p.accumulate(np.swapaxes(g_p, -1, -2))
        if g_x is not None:
            x.accumulate(g_x)

    return record(data, "left_map", (*parts, x), vjp)


# ---------------------------------------------------------------------------
# Convolution and normalization


def conv1d(x, kernels, dilations, biases, mix, mix_bias) -> Tensor:
    """Dilated cross-correlations with "same" zero padding, mixed by a width-1 kernel.

    ``x`` is (batch, channels, length); each kernel is (out_k, channels,
    width) of odd width, with one int in ``dilations`` and one (out_k,)
    vector in ``biases``, and pads dilation * (width - 1) / 2 per side.
    ``mix`` (out, m, 1) and its (out,) ``mix_bias`` mix the outputs of
    the leading kernels, m channels in all; the kernels after them, if
    any, have ``out`` channels in all and are added as they are, a
    residual path. The inception block is one such call: its branches
    and then its residual as the kernels, its merge as the mix. One
    kernel under an identity mix with zero biases is the plain
    convolution. The (batch, out, length) result is node-major (see the
    module docstring).

    All of this is linear, so it is one node and one im2col over the
    union of the kernels' tap offsets. The kernels are placed at their
    taps in one stack, and the mix is applied to that stack and the
    biases, arrays the size of the kernels, to give one composed kernel
    for one GEMM. The VJP sends the composed kernel's gradient back
    through the mix to every kernel and bias and to the mix itself.
    Under ``no_grad`` the composed kernel, its bias and the taps are
    kept by ``cached``, so a call with unchanged parameters builds only
    the im2col and runs the one GEMM.
    """
    x, mix, mix_bias = _as_tensor(x), _as_tensor(mix), _as_tensor(mix_bias)
    kernels = [_as_tensor(k) for k in kernels]
    biases = [_as_tensor(b) for b in biases]
    dilations = [int(d) for d in dilations]
    if not kernels or len(dilations) != len(kernels) or len(biases) != len(kernels):
        raise ShapeError(
            f"conv1d needs one dilation and one bias per kernel, got {len(kernels)}"
            f" kernels, {len(dilations)} dilations and {len(biases)} biases"
        )
    if x.ndim != 3:
        raise ShapeError(f"conv1d expects a 3-d input, got {x.shape}")
    batch, channels, length = x.data.shape
    reaches, rows = [], []
    total = 0
    for k, d, b in zip(kernels, dilations, biases):
        if k.ndim != 3:
            raise ShapeError(f"conv1d expects 3-d input and kernel, got {x.shape} and {k.shape}")
        if k.data.shape[1] != channels:
            raise ShapeError(f"kernel channels {k.shape} do not match input {x.shape}")
        width = k.data.shape[2]
        if width % 2 == 0:
            raise ConfigError(f"even kernel width {width} cannot keep length under same padding")
        if d < 1:
            raise ConfigError(f"dilation must be >= 1, got {d}")
        if b.shape != (k.data.shape[0],):
            raise ShapeError(f"bias {b.shape} does not match kernel {k.shape}")
        reaches.append(d * (width - 1) // 2)
        rows.append((total, total + k.data.shape[0]))
        total += k.data.shape[0]
    if mix.ndim != 3 or mix.shape[2] != 1:
        raise ShapeError(f"mix must be a width-1 kernel (out, m, 1), got {mix.shape}")
    out_channels, mixed = mix.data.shape[:2]
    if all(hi != mixed for _, hi in rows) or total - mixed not in (0, out_channels):
        raise ShapeError(
            f"mix {mix.shape} must take the outputs of whole leading kernels and leave"
            f" none or {out_channels} channels unmixed, of {[hi - lo for lo, hi in rows]}"
        )
    if mix_bias.shape != (out_channels,):
        raise ShapeError(f"mix_bias {mix_bias.shape} does not match mix {mix.shape}")

    mixer = mix.data.reshape(out_channels, mixed)

    def compose():
        # ``placed`` stacks the kernels as rows laid out (tap, channel) over
        # the union of their tap offsets; kernel k fills the taps slots[k].
        offsets = sorted(set().union(*(range(-r, r + 1, d) for r, d in zip(reaches, dilations))))
        index = {o: j for j, o in enumerate(offsets)}
        slots = [[index[o] for o in range(-r, r + 1, d)] for r, d in zip(reaches, dilations)]
        placed = np.zeros((total, len(offsets), channels))
        stacked_bias = np.zeros(total)
        for k, b, sl, (lo, hi) in zip(kernels, biases, slots, rows):
            placed[lo:hi, sl] = k.data.transpose(0, 2, 1)
            stacked_bias[lo:hi] = b.data
        placed = placed.reshape(total, len(offsets) * channels)
        weight = mixer @ placed[:mixed]
        out_bias = mixer @ stacked_bias[:mixed]
        if mixed < total:
            weight += placed[mixed:]
            out_bias += stacked_bias[mixed:]
        out_bias += mix_bias.data
        return weight, out_bias, offsets, placed, stacked_bias, slots

    if _grad_enabled:
        weight, out_bias, offsets, placed, stacked_bias, slots = compose()
    else:
        # No VJP runs, so only the composed kernel and the taps are needed,
        # and they depend on the parameters alone (see ``cached``).
        sources = (*kernels, *biases, mix, mix_bias)
        weight, out_bias, offsets = cached(sources, ("conv1d", *dilations), lambda: compose()[:3])
    pad, count = -offsets[0], len(offsets)

    # im2col with the contracted axes first and the batch innermost:
    # cols[j, c, l, b] is x[b, c, l + offsets[j]] (zero outside), so the
    # forward pass and both gradients are single 2-D GEMMs over
    # (taps * channels), and each tap's rows are copied in runs of
    # length * batch elements even when the length is a handful of nodes.
    padded = np.zeros((channels, length + 2 * pad, batch))
    padded[:, pad : pad + length] = x.data.transpose(1, 2, 0)
    cols = np.empty((count, channels, length, batch))
    for j, o in enumerate(offsets):
        cols[j] = padded[:, o + pad : o + pad + length]
    cols = cols.reshape(count * channels, length * batch)
    product = (weight @ cols).reshape(out_channels, length, batch).transpose(2, 1, 0)
    out_data = np.add(product, out_bias, out=np.empty((batch, length, out_channels)))
    out_data = out_data.swapaxes(1, 2)

    def vjp(g):
        g = g.transpose(1, 2, 0).reshape(out_channels, batch * length)
        if x.requires_grad:
            g_cols = (weight.T @ g).reshape(count, channels, length, batch)
            g_pad = np.zeros((channels, length + 2 * pad, batch))
            for j, o in enumerate(offsets):
                g_pad[:, o + pad : o + pad + length] += g_cols[j]
            x.accumulate(g_pad[:, pad : pad + length].transpose(2, 0, 1))
        g_placed = g @ cols.T
        g_stacked = g.sum(axis=1)
        if mix.requires_grad:
            g_mix = g_placed @ placed[:mixed].T
            g_mix += g_stacked[:, None] * stacked_bias[:mixed]
            mix.accumulate(g_mix.reshape(mix.data.shape))
        if mix_bias.requires_grad:
            mix_bias.accumulate(g_stacked)
        g_placed = np.concatenate((mixer.T @ g_placed, g_placed[: total - mixed]))
        g_placed = g_placed.reshape(total, count, channels)
        g_stacked = np.concatenate((mixer.T @ g_stacked, g_stacked[: total - mixed]))
        for k, b, sl, (lo, hi) in zip(kernels, biases, slots, rows):
            if k.requires_grad:
                k.accumulate(g_placed[lo:hi, sl].transpose(0, 2, 1))
            if b.requires_grad:
                b.accumulate(g_stacked[lo:hi])

    return record(out_data, "conv1d", (x, *kernels, *biases, mix, mix_bias), vjp)


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize a (batch, features, nodes) ``x`` over its features, then affine.

    ``gain`` and ``bias`` are (features,). One recorded node with a
    hand-derived VJP. The forward takes the
    steps of the op chain it stands for (mean, centre, mean of
    squares, sqrt(var + 1e-5), divide, scale, shift) in that order, so its
    values are that chain's bit for bit, and it raises ``NumericError``
    exactly when one of the chain's ops would. For that the variance is
    checked as well as the output: a variance that overflows to inf
    sends every normalized value to 0, so the output alone would pass.
    """
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    if x.ndim != 3:
        raise ShapeError(f"layer_norm expects (batch, features, nodes), got {x.shape}")
    expect = (x.shape[1],)
    if gain.shape != expect or bias.shape != expect:
        raise ShapeError(
            f"layer_norm affine must have shape {expect}, got {gain.shape} and {bias.shape}"
        )
    if x.shape[1] == 0:
        raise ShapeError(f"cannot normalize over no features, shape {x.shape}")
    inv_count = 1.0 / x.shape[1]
    centered = x.data - x.data.sum(axis=1, keepdims=True) * inv_count
    var = (centered * centered).sum(axis=1, keepdims=True) * inv_count
    std = np.sqrt(var + 1e-5)
    normed = centered / std
    gain_side = gain.data[:, None]
    data = normed * gain_side + bias.data[:, None]

    def vjp(g):
        if bias.requires_grad:
            bias.accumulate(g.sum(axis=(0, 2)))
        if gain.requires_grad:
            gain.accumulate((g * normed).sum(axis=(0, 2)))
        if x.requires_grad:
            g_normed = g * gain_side
            mean_g = g_normed.sum(axis=1, keepdims=True) * inv_count
            mean_gn = (g_normed * normed).sum(axis=1, keepdims=True) * inv_count
            x.accumulate((g_normed - mean_g - normed * mean_gn) / std)

    return record(data, "layer_norm", (x, gain, bias), vjp, checked=(var,))


# ---------------------------------------------------------------------------
# Gradient extraction


def backward(loss: Tensor, parameters: Iterable[Parameter]) -> dict[str, np.ndarray]:
    """Run backprop from a scalar loss and return gradients by parameter name.

    Parameters that did not take part in the computation are absent from
    the result; the optimizer treats that as an error. The arrays are the
    parameters' ``.grad``: for a parameter with an optimizer slot, the
    slot itself, which the next ``backward`` overwrites (see the module
    docstring). The slots of a state's whole parameter list tile its
    gradient vector, which ``training.clip_gradients`` then scales in place.
    """
    loss.backward()
    grads: dict[str, np.ndarray] = {}
    for p in parameters:
        if p.grad is not None:
            grads[p.name] = p.grad
    return grads
