"""Undecimated multi-level wavelet decomposition along the time axis.

The transform is the stationary (a trous) form: level ``l`` smooths with
the family's low-pass kernel dilated by ``2**(l-1)`` and emits the
difference ``detail_l = smooth_{l-1} - smooth_l``. Components therefore
telescope, so details plus the final approximation sum back to the input
exactly, and every component keeps the input's length.

The smoothing kernel is the orthonormal low-pass divided by its sum, so
constants are fixed points of every level. Circular boundary handling is
the default because it preserves shift covariance exactly; symmetric
reflection is available for series where wraparound is unphysical.

Every component is a fixed linear map of the input along time: the taps
are constants and each boundary rule is a fixed index map, so level
``l``'s smoothing is a constant (length, length) matrix and each
component is a product of them. ``component_operators`` builds those
matrices once per (filter, levels, boundary, length), stacked on a
leading scale axis, and caches them read-only; ``decompose`` applies the
stack as one recorded node. This is the same transform as running the
taps level by level (Shensa 1992), up to floating-point summation order.

The scale axis leads: a (batch, length, variables) input decomposes into
one (levels + 1, batch, length, variables) tensor, details fine to
coarse and the approximation last.

The model never builds that stack. Every stage that reads a component
applies a time map from the left, ``w.T @ (ops[s] @ x)``, and matrix
products associate, so the same value is ``(ops[s].T @ w).T @ x``.
``decompose(w, ..., adjoint=True)`` folds the operators into such maps
(``adjoint_operators`` caches the transposed stack read-only), and the
folded maps read the (batch, length, variables) input directly. A fold
is one recorded node: a map shared by every scale meets the stack as
one (scales * length, length) matrix, so its forward and its VJP are
each one 2-D GEMM, and per-scale maps take one batched GEMM each way.
The identity is exact in real arithmetic; in floating point only the
summation order changes. ``decompose`` folds afresh on every call and
keeps no fold; the model caches the folds of its parameters between
``no_grad`` forwards and reuses one only while the parameter's values
are bit-for-bit equal to a copy taken when it was folded (see
``autodiff.cached``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ShapeError

# Orthonormal low-pass coefficients (sum = sqrt(2), unit energy).
_HAAR_LOWPASS = (0.7071067811865476, 0.7071067811865476)
_DB4_LOWPASS = (
    0.23037781330885523,
    0.7148465705525415,
    0.6308807679295904,
    -0.02798376941698385,
    -0.18703481171888114,
    0.030841381835986965,
    0.032883011666982945,
    -0.010597401784997278,
)

BOUNDARIES = ("circular", "symmetric")


@dataclass(frozen=True)
class WaveletFilter:
    """The orthonormal low-pass analysis filter of a named family."""

    name: str
    lowpass: tuple[float, ...]

    @property
    def support(self) -> int:
        return len(self.lowpass)


_FAMILIES = {
    "haar": WaveletFilter("haar", _HAAR_LOWPASS),
    "db4": WaveletFilter("db4", _DB4_LOWPASS),
}


def wavelet_filter(name: str) -> WaveletFilter:
    """Look up a filter family by name."""
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown wavelet family {name!r}; available: {sorted(_FAMILIES)}"
        ) from None


def max_levels(length: int, filt: WaveletFilter) -> int:
    """Deepest level whose dilated support still fits in ``length``."""
    if length < filt.support:
        raise ConfigError(
            f"series length {length} is below the {filt.name} support {filt.support}"
        )
    level = 1
    while filt.support * 2**level <= length:
        level += 1
    return level


def _tap_indices(length: int, offset: int, boundary: str) -> np.ndarray:
    """Source index for each output position when shifting back by ``offset``."""
    src = np.arange(length) - offset
    if boundary == "circular":
        return src % length
    # Half-sample symmetric reflection, applied until in range.
    while src.min() < 0 or src.max() >= length:
        src = np.where(src < 0, -src - 1, src)
        src = np.where(src >= length, 2 * length - 1 - src, src)
    return src


def decompose(
    x: ad.Tensor,
    filt: WaveletFilter,
    levels: int,
    boundary: str = "circular",
    *,
    adjoint: bool = False,
) -> ad.Tensor:
    """Split a (batch, length, variables) tensor into levels+1 components.

    Returns one (levels + 1, batch, length, variables) node: details
    fine to coarse, approximation last, each ``ops[s] @ x``. Its VJP
    applies the transposed operators.

    With ``adjoint=True``, ``x`` is a map with time on axis -2 and the
    result is the folded map ``ops[s].T @ x`` for each component
    operator ``ops[s]``, recorded as one node: a (length, k) map folds
    into one (levels + 1, 1, length, k) stack, and a (levels + 1, 1,
    length, k) stack of per-scale maps pairs scale ``s`` with operator
    ``s``. Because ``fold(w)[s].T @ x == w[s].T @ (ops[s] @ x)``, a map
    that reads the components from the left reads ``x`` directly once
    folded, and the component stack is never built.
    """
    if adjoint:
        if x.ndim != 2 and not (x.ndim == 4 and x.shape[1] == 1):
            raise ShapeError(
                f"decompose expects (length, k) or (scales, 1, length, k), got {x.shape}"
            )
    elif x.ndim != 3:
        raise ShapeError(f"decompose expects (batch, length, variables), got {x.shape}")
    if boundary not in BOUNDARIES:
        raise ConfigError(f"unknown boundary mode {boundary!r}; available: {BOUNDARIES}")
    if levels < 1:
        raise ConfigError(f"levels must be >= 1, got {levels}")
    length = x.shape[-2]
    admissible = max_levels(length, filt)
    if levels > admissible:
        raise ConfigError(
            f"{levels} levels need dilated support {filt.support * 2 ** (levels - 1)}"
            f" > length {length}; maximum admissible level is {admissible}"
        )

    if adjoint:
        return _fold(x, adjoint_operators(filt, levels, boundary, length))
    ops = component_operators(filt, levels, boundary, length)
    scales, batch = ops.shape[0], x.shape[0]

    def vjp(g):
        # The sum over scales of ops[s].T @ g[s]: per item, the scales
        # join one GEMM's inner dimension.
        g = g.swapaxes(0, 1).reshape(batch, scales * length, -1)
        x.accumulate(np.matmul(ops.reshape(scales * length, length).T, g))

    return ad.record(np.matmul(ops[:, None], x.data), "wavelet_decompose", (x,), vjp)


def _fold(w: ad.Tensor, ops: np.ndarray) -> ad.Tensor:
    """``ops[s] @ w`` for every scale ``s``, as one (scales, 1, length, k) node.

    ``ops`` is the cached (scales, length, length) adjoint stack. A
    (length, k) map shared by every scale meets the stack as one
    (scales * length, length) matrix, so the forward and the VJP are
    each one 2-D GEMM. A (scales, 1, length, k) stack of per-scale maps
    takes one batched GEMM each way. The stack is only ever read through
    views, never copied.
    """
    scales, length, _ = ops.shape
    k = w.shape[-1]
    per_scale = w.ndim == 4
    if per_scale and w.shape[0] != scales:
        raise ShapeError(f"{w.shape[0]} per-scale maps cannot fold with {scales} components")
    rows = ops.reshape(scales * length, length)
    if per_scale:
        data = np.matmul(ops, w.data.reshape(scales, length, k))
    else:
        data = rows @ w.data.reshape(length, k)

    def vjp(g):
        if per_scale:
            g = np.matmul(ops.transpose(0, 2, 1), g.reshape(scales, length, k))
        else:
            g = rows.T @ g.reshape(scales * length, k)
        w.accumulate(g.reshape(w.data.shape))

    return ad.record(data.reshape(scales, 1, length, k), "wavelet_fold", (w,), vjp)


@functools.lru_cache(maxsize=32)
def component_operators(
    filt: WaveletFilter, levels: int, boundary: str, length: int
) -> np.ndarray:
    """The (levels + 1, length, length) maps from a series to each component.

    Details fine to coarse, approximation last, so component ``i`` of a
    (batch, length, variables) input is ``ops[i] @ x``. The stack is
    cached and shared, so it is read-only.
    """
    dc_gain = sum(filt.lowpass)
    rows = np.arange(length)
    previous = np.eye(length)
    operators = []
    for level in range(1, levels + 1):
        dilation = 2 ** (level - 1)
        smoothing = np.zeros((length, length))
        for k, c in enumerate(filt.lowpass):
            smoothing[rows, _tap_indices(length, k * dilation, boundary)] += c / dc_gain
        smoothed = smoothing @ previous
        operators.append(previous - smoothed)
        previous = smoothed
    operators.append(previous)
    stacked = np.stack(operators)
    stacked.setflags(write=False)
    return stacked


@functools.lru_cache(maxsize=32)
def adjoint_operators(
    filt: WaveletFilter, levels: int, boundary: str, length: int
) -> np.ndarray:
    """``component_operators`` with each map transposed: ``ops[i].T``.

    Stored contiguous, cached and shared, so it is read-only and no
    ``decompose(..., adjoint=True)`` call copies it.
    """
    stacked = np.ascontiguousarray(
        component_operators(filt, levels, boundary, length).transpose(0, 2, 1)
    )
    stacked.setflags(write=False)
    return stacked
