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
matrices once per (filter, levels, boundary, length) and caches them
read-only; ``decompose`` then applies each as one matmul. This is the
same transform as running the taps level by level (Shensa 1992), up to
floating-point summation order.
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
    """An orthonormal analysis pair from a named family."""

    name: str
    lowpass: tuple[float, ...]
    highpass: tuple[float, ...]

    @property
    def support(self) -> int:
        return len(self.lowpass)


def _quadrature_mirror(lowpass: tuple[float, ...]) -> tuple[float, ...]:
    n = len(lowpass)
    return tuple((-1.0) ** k * lowpass[n - 1 - k] for k in range(n))


_FAMILIES = {
    "haar": WaveletFilter("haar", _HAAR_LOWPASS, _quadrature_mirror(_HAAR_LOWPASS)),
    "db4": WaveletFilter("db4", _DB4_LOWPASS, _quadrature_mirror(_DB4_LOWPASS)),
}


def wavelet_filter(name: str) -> WaveletFilter:
    """Look up a filter family by name."""
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown wavelet family {name!r}; available: {sorted(_FAMILIES)}"
        ) from None


@dataclass
class Decomposition:
    """Detail components ordered fine to coarse, approximation last."""

    components: list[ad.Tensor]
    levels: int


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
) -> Decomposition:
    """Split a (batch, length, variables) tensor into levels+1 components.

    Gradients flow through every component back to ``x``.
    """
    if x.ndim != 3:
        raise ShapeError(f"decompose expects (batch, length, variables), got {x.shape}")
    if boundary not in BOUNDARIES:
        raise ConfigError(f"unknown boundary mode {boundary!r}; available: {BOUNDARIES}")
    if levels < 1:
        raise ConfigError(f"levels must be >= 1, got {levels}")
    length = x.shape[1]
    admissible = max_levels(length, filt)
    if levels > admissible:
        raise ConfigError(
            f"{levels} levels need dilated support {filt.support * 2 ** (levels - 1)}"
            f" > length {length}; maximum admissible level is {admissible}"
        )

    components = [
        ad.matmul(ad.Tensor(op), x) for op in component_operators(filt, levels, boundary, length)
    ]
    return Decomposition(components, levels)


@functools.lru_cache(maxsize=32)
def component_operators(
    filt: WaveletFilter, levels: int, boundary: str, length: int
) -> tuple[np.ndarray, ...]:
    """The (length, length) maps from a series to each component.

    Details fine to coarse, approximation last, so component ``i`` of a
    (batch, length, variables) input is ``ops[i] @ x``. The arrays are
    cached and shared, so they are read-only.
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
    for op in operators:
        op.setflags(write=False)
    return tuple(operators)
