"""Wavelet decomposition checks: filter families, reconstruction, covariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgf import autodiff as ad
from sdgf import wavelet as wv
from sdgf.errors import ConfigError, ShapeError

from conftest import assert_grads_match
import oracle_ops as ops

RNG = np.random.default_rng(41)


def decompose_arrays(x: np.ndarray, family: str, levels: int, boundary: str = "circular"):
    out = wv.decompose(ad.Tensor(x), wv.wavelet_filter(family), levels, boundary)
    return list(out.data)


def loop_decompose(x: np.ndarray, family: str, levels: int, boundary: str = "circular"):
    """Reference transform: shift, scale and add one tap at a time per level."""
    filt = wv.wavelet_filter(family)
    taps = [c / sum(filt.lowpass) for c in filt.lowpass]
    length = x.shape[1]
    components = []
    smooth = x
    for level in range(1, levels + 1):
        dilation = 2 ** (level - 1)
        smoothed = np.zeros_like(smooth)
        for k, tap in enumerate(taps):
            smoothed += tap * np.take(smooth, wv._tap_indices(length, k * dilation, boundary), axis=1)
        components.append(smooth - smoothed)
        smooth = smoothed
    components.append(smooth)
    return components


# ---------------------------------------------------------------------------
# Filter families


def quadrature_mirror(h):
    """The high-pass filter of the bank: the alternating-sign reversal of ``h``."""
    return np.array([(-1.0) ** k * h[len(h) - 1 - k] for k in range(len(h))])


@pytest.mark.parametrize("family", ["haar", "db4"])
def test_filter_orthonormality(family):
    f = wv.wavelet_filter(family)
    h = np.array(f.lowpass)
    g = quadrature_mirror(h)
    assert abs(h.sum() - np.sqrt(2.0)) < 1e-12
    assert abs(g.sum()) < 1e-12
    assert abs((h * h).sum() - 1.0) < 1e-12
    for m in range(1, f.support // 2):
        assert abs(np.dot(h[: -2 * m], h[2 * m :])) < 1e-12


@pytest.mark.parametrize("family", ["haar", "db4"])
def test_filter_bank_roundtrip(family):
    # One decimated analysis/synthesis pass with the stored low-pass and
    # its mirror must be the identity on circular signals: the bank is
    # orthonormal.
    f = wv.wavelet_filter(family)
    h = np.array(f.lowpass)
    g = quadrature_mirror(h)
    length = 32
    x = RNG.normal(0.0, 1.0, length)
    approx = np.zeros(length // 2)
    detail = np.zeros(length // 2)
    for i in range(length // 2):
        for k in range(f.support):
            approx[i] += h[k] * x[(2 * i + k) % length]
            detail[i] += g[k] * x[(2 * i + k) % length]
    rebuilt = np.zeros(length)
    for i in range(length // 2):
        for k in range(f.support):
            rebuilt[(2 * i + k) % length] += h[k] * approx[i] + g[k] * detail[i]
    np.testing.assert_allclose(rebuilt, x, atol=1e-10)


def test_unknown_family_rejected():
    with pytest.raises(ConfigError):
        wv.wavelet_filter("sym5")


# ---------------------------------------------------------------------------
# max_levels


def test_max_levels_frozen_cases():
    assert wv.max_levels(96, wv.wavelet_filter("haar")) == 6
    assert wv.max_levels(2, wv.wavelet_filter("haar")) == 1
    assert wv.max_levels(96, wv.wavelet_filter("db4")) == 4


def test_max_levels_below_support():
    with pytest.raises(ConfigError):
        wv.max_levels(4, wv.wavelet_filter("db4"))


@settings(max_examples=40, deadline=None)
@given(shorter=st.integers(8, 200), extra=st.integers(0, 100))
def test_max_levels_monotone_in_length(shorter, extra):
    f = wv.wavelet_filter("db4")
    assert wv.max_levels(shorter + extra, f) >= wv.max_levels(shorter, f)


# ---------------------------------------------------------------------------
# Decomposition semantics


def test_constant_series_all_detail_zero():
    x = np.full((1, 8, 1), 5.0)
    parts = decompose_arrays(x, "haar", 2)
    assert len(parts) == 3
    np.testing.assert_allclose(parts[0], 0.0, atol=1e-12)
    np.testing.assert_allclose(parts[1], 0.0, atol=1e-12)
    np.testing.assert_allclose(parts[2], x, atol=1e-12)


def test_haar_single_level_matches_moving_average_oracle():
    # Independent oracle: circular causal 2-point average, detail = x - smooth.
    series = np.array([1.0, 2.0, 3.0, 4.0])
    length = series.size
    smooth = np.array([(series[t] + series[(t - 1) % length]) / 2.0 for t in range(length)])
    detail, approx = decompose_arrays(series.reshape(1, -1, 1), "haar", 1)
    np.testing.assert_allclose(detail[0, :, 0], series - smooth, atol=1e-10)
    np.testing.assert_allclose(approx[0, :, 0], smooth, atol=1e-10)
    # Frozen hand values for the same case.
    np.testing.assert_allclose(approx[0, :, 0], [2.5, 1.5, 2.5, 3.5], atol=1e-12)
    np.testing.assert_allclose(detail[0, :, 0], [-1.5, 0.5, 0.5, 0.5], atol=1e-12)


@pytest.mark.parametrize("family,levels", [("haar", 3), ("haar", 6), ("db4", 3)])
@pytest.mark.parametrize("boundary", ["circular", "symmetric"])
def test_components_sum_to_input(family, levels, boundary):
    x = RNG.normal(0.0, 3.0, (2, 96, 5))
    parts = decompose_arrays(x, family, levels, boundary)
    assert all(p.shape == x.shape for p in parts)
    np.testing.assert_allclose(sum(parts), x, atol=1e-8)


@pytest.mark.parametrize(
    "family,levels,length",
    # The first two cases per family sit at the shortest admissible
    # length, support * 2**(levels - 1); the others are longer.
    [("haar", 1, 2), ("haar", 3, 8), ("haar", 3, 37), ("haar", 6, 96),
     ("db4", 1, 8), ("db4", 3, 32), ("db4", 2, 45), ("db4", 4, 192)],
)
@pytest.mark.parametrize("boundary", ["circular", "symmetric"])
def test_operators_match_tap_loop(family, levels, length, boundary):
    x = RNG.normal(0.0, 2.0, (3, length, 2))
    expected = loop_decompose(x, family, levels, boundary)
    got = decompose_arrays(x, family, levels, boundary)
    assert len(got) == levels + 1
    for g, e in zip(got, expected):
        np.testing.assert_allclose(g, e, rtol=0, atol=1e-12)


def test_cached_operators_are_shared_and_read_only():
    filt = wv.wavelet_filter("db4")
    ops = wv.component_operators(filt, 2, "symmetric", 24)
    assert wv.component_operators(filt, 2, "symmetric", 24) is ops
    assert [op.shape for op in ops] == [(24, 24)] * 3
    for op in ops:
        with pytest.raises(ValueError):
            op[0, 0] = 1.0


def test_cached_adjoint_operators_are_shared_read_only_transposes():
    filt = wv.wavelet_filter("db4")
    ops = wv.component_operators(filt, 2, "symmetric", 24)
    adj = wv.adjoint_operators(filt, 2, "symmetric", 24)
    assert wv.adjoint_operators(filt, 2, "symmetric", 24) is adj
    assert adj.flags["C_CONTIGUOUS"] and not adj.flags["WRITEABLE"]
    np.testing.assert_array_equal(adj, ops.transpose(0, 2, 1))
    # Wrapping the cached stack in a tensor, as decompose does, copies nothing.
    assert np.shares_memory(ad.Tensor(adj[:, None]).data, adj)


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(["haar", "db4"]),
    boundary=st.sampled_from(["circular", "symmetric"]),
    levels=st.integers(1, 3),
    maps=st.sampled_from(["2d", "per-scale"]),
    seed=st.integers(0, 2**31 - 1),
)
def test_folded_maps_read_the_input_as_maps_read_components(family, boundary, levels, maps, seed):
    # fold(w)[s].T @ x == w[s].T @ decompose(x)[s] for every scale s.
    rng = np.random.default_rng(seed)
    filt = wv.wavelet_filter(family)
    x = rng.normal(0.0, 1.0, (2, 32, 3))
    shape = {"2d": (32, 4), "per-scale": (levels + 1, 1, 32, 4)}[maps]
    w = rng.normal(0.0, 1.0, shape)
    folded = wv.decompose(ad.Tensor(w), filt, levels, boundary, adjoint=True).data
    assert folded.shape == (levels + 1, 1, 32, 4)
    comps = wv.decompose(ad.Tensor(x), filt, levels, boundary).data
    want = np.swapaxes(np.broadcast_to(w, folded.shape), -1, -2) @ comps
    np.testing.assert_allclose(np.swapaxes(folded, -1, -2) @ x, want, rtol=0, atol=1e-12)


def test_adjoint_needs_time_on_the_second_last_axis():
    with pytest.raises(ShapeError):
        wv.decompose(ad.Tensor(np.zeros(16)), wv.wavelet_filter("haar"), 1, adjoint=True)
    # A stack holds one map per component.
    with pytest.raises(ShapeError, match="1 per-scale maps cannot fold with 2 components"):
        wv.decompose(ad.Tensor(np.zeros((1, 1, 16, 2))), wv.wavelet_filter("haar"), 1, adjoint=True)
    with pytest.raises(ConfigError, match="maximum admissible level is 4"):
        wv.decompose(ad.Tensor(np.zeros((16, 2))), wv.wavelet_filter("haar"), 5, adjoint=True)


def test_too_many_levels_reports_maximum():
    x = ad.Tensor(np.zeros((1, 16, 1)))
    with pytest.raises(ConfigError, match="maximum admissible level is 4"):
        wv.decompose(x, wv.wavelet_filter("haar"), 5)


def test_bad_boundary_rejected():
    x = ad.Tensor(np.zeros((1, 16, 1)))
    with pytest.raises(ConfigError):
        wv.decompose(x, wv.wavelet_filter("haar"), 1, boundary="zero")


@settings(max_examples=30, deadline=None)
@given(shift=st.integers(1, 95), seed=st.integers(0, 2**31 - 1))
def test_shift_covariance_under_circular_boundary(shift, seed):
    x = np.random.default_rng(seed).normal(0.0, 1.0, (1, 96, 2))
    base = decompose_arrays(x, "haar", 3)
    rolled = decompose_arrays(np.roll(x, shift, axis=1), "haar", 3)
    for b, r in zip(base, rolled):
        np.testing.assert_allclose(np.roll(b, shift, axis=1), r, atol=1e-10)


@pytest.mark.parametrize("boundary", ["circular", "symmetric"])
def test_linearity(boundary):
    x = RNG.normal(0.0, 1.0, (2, 64, 3))
    y = RNG.normal(0.0, 1.0, (2, 64, 3))
    a, b = 2.5, -1.25
    combined = decompose_arrays(a * x + b * y, "db4", 3, boundary)
    separate = [
        a * px + b * py
        for px, py in zip(
            decompose_arrays(x, "db4", 3, boundary), decompose_arrays(y, "db4", 3, boundary)
        )
    ]
    for c, s in zip(combined, separate):
        np.testing.assert_allclose(c, s, atol=1e-10)


@pytest.mark.parametrize("family", ["haar", "db4"])
def test_low_frequency_energy_lands_in_approximation(family):
    t = np.arange(96)
    x = np.sin(2.0 * np.pi * t / 96.0).reshape(1, -1, 1)
    parts = decompose_arrays(x, family, 3)
    energies = [float((p * p).sum()) for p in parts]
    assert energies[-1] / sum(energies) >= 0.90


def test_alternating_signal_energy_lands_in_finest_detail():
    x = ((-1.0) ** np.arange(96)).reshape(1, -1, 1)
    parts = decompose_arrays(x, "haar", 3)
    energies = [float((p * p).sum()) for p in parts]
    assert energies[0] / sum(energies) >= 0.90


def test_gradient_flows_through_decomposition():
    x = ad.Tensor(RNG.normal(0.0, 1.0, (1, 8, 2)), requires_grad=True)
    weights = ad.Tensor(RNG.normal(0.0, 1.0, (3, 1, 8, 2)))

    def loss():
        return ops.reduce_sum(ops.mul(wv.decompose(x, wv.wavelet_filter("haar"), 2), weights))

    assert_grads_match(loss, [x])
