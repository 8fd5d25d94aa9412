"""Every ``raise`` in ``src/`` that no other test reaches, one row each.

A row is (call, error type, message fragment). The calls go through the
public functions, so each row pins a check where a caller meets it.
"""

import numpy as np
import pytest

from sdgf import autodiff as ad
from sdgf import cli
from sdgf import data
from sdgf import graphs as gr
from sdgf import model as md
from sdgf import training as tr
from sdgf import wavelet as wv
from sdgf.config import RunConfig
from sdgf.errors import ConfigError, DataError, ShapeError

T = ad.Tensor


def ones(*shape):
    return T(np.ones(shape))


def conv(x=(1, 2, 5), kernel=(2, 2, 3)):
    """``conv1d`` over one kernel with an identity mix, for shapes of ``x`` and the kernel."""
    out = kernel[0]
    return ad.conv1d(ones(*x), [ones(*kernel)], [1], [np.zeros(out)], np.eye(out)[:, :, None],
                     np.zeros(out))


def prop_cfg(depth, dim=3):
    thetas = [ad.Parameter(f"t{k}", np.eye(dim)) for k in range(max(depth, 0) + 1)]
    return gr.GraphPropagationConfig(alpha=0.5, depth=depth, theta=thetas)


def embedding(length=4):
    return gr.DynamicGraphLayer(ad.Parameter("w1", np.ones((length, 2))),
                                ad.Parameter("w2", np.ones((length, 2))))


def tiny_model():
    return md.build_model(md.ModelConfig(input_len=8, horizon=4, n_vars=3, hidden=4, levels=1,
                                         depth=1, embed_dim=4, seed=7))


def adam_with_a_misshapen_gradient():
    p = ad.Parameter("p", np.ones(3))
    tr.adam_step([p], {"p": np.ones(2)}, tr.AdamState(lr=0.1))


def date_only_csv(tmp_path):
    path = tmp_path / "dates.csv"
    path.write_text("date\n2020-01-01\n2020-01-02\n")
    return data.load_csv(str(path))


ROWS = {
    "accumulate a misshapen gradient": (
        lambda: ones(3).accumulate(np.ones(2)), ShapeError, "does not match value shape"),
    "left_product over a window of another length": (
        lambda: ad.left_product([np.ones((2, 4))], np.ones((2, 5, 3))), ShapeError,
        "cannot read a (batch, L, N) window"),
    "left_product of a bare map, not a list": (
        lambda: ad.left_product(np.ones((2, 4)), np.ones((2, 4, 3))), ShapeError,
        "cannot read a (batch, L, N) window"),
    "conv1d over a 2-d input": (lambda: conv(x=(2, 5)), ShapeError, "3-d input, got"),
    "conv1d with a 2-d kernel": (lambda: conv(kernel=(2, 2)), ShapeError, "3-d input and kernel"),
    "conv1d with a kernel of other channels": (
        lambda: conv(kernel=(2, 3, 3)), ShapeError, "do not match input"),
    "layer_norm over a 2-d input": (
        lambda: ad.layer_norm(ones(2, 3), ones(3), ones(3)), ShapeError,
        "expects (batch, features, nodes)"),
    "layer_norm with a misshapen gain": (
        lambda: ad.layer_norm(ones(2, 3, 4), ones(2), ones(3)), ShapeError, "affine must have"),
    "layer_norm over no features": (
        lambda: ad.layer_norm(T(np.ones((2, 0, 4))), T(np.ones(0)), T(np.ones(0))), ShapeError,
        "no features"),
    "pearson over 2-d values": (
        lambda: gr.pearson_matrix(np.ones((4, 3))), ShapeError, "(batch, length, variables)"),
    "a negative propagation depth": (lambda: prop_cfg(-1), ConfigError, "depth must be"),
    "a static graph that is not square": (
        lambda: gr.static_graph_conv(ones(2, 3, 4), np.ones((4, 5)), prop_cfg(1)), ShapeError,
        "graphs [(4, 5)] and hop maps"),
    "a dynamic graph that is not square": (
        lambda: gr.dynamic_graph_conv(ones(2, 3, 4), ones(2, 4, 5), prop_cfg(1)), ShapeError,
        "graphs [(2, 4, 5)] and hop maps"),
    "a window of two axes": (
        lambda: gr.dynamic_adjacency(ones(4, 6), embedding()), ShapeError,
        "do not fit the window"),
    "embedding maps of another length": (
        lambda: gr.dynamic_adjacency(ones(2, 5, 3), embedding(4)), ShapeError,
        "do not fit the window"),
    "decompose a 2-d input": (
        lambda: wv.decompose(ones(8, 3), wv.wavelet_filter("haar"), 1), ShapeError,
        "(batch, length, variables)"),
    "decompose to level 0": (
        lambda: wv.decompose(ones(2, 8, 3), wv.wavelet_filter("haar"), 0), ConfigError,
        "levels must be >= 1"),
    "a negative model depth": (
        lambda: md.ModelConfig(input_len=8, horizon=4, n_vars=3, depth=-1), ConfigError,
        "depth must be >= 0"),
    "RevIN over windows of other variables": (
        lambda: tiny_model().revin.normalize(ones(2, 8, 4)), ShapeError,
        "expected (batch, time, 3)"),
    "a head over 2-d features": (
        lambda: md.head(ones(4, 3), ones(4, 8), ones(8), ones(8, 2), ones(2)), ShapeError,
        "head maps"),
    "a static graph from series of other variables": (
        lambda: md.set_static_graph(tiny_model(), np.ones((20, 4))), ShapeError,
        "expected (rows, 3)"),
    "adam with a misshapen gradient": (
        adam_with_a_misshapen_gradient, ShapeError, "does not match parameter 'p'"),
    "repeat-last over a split with no windows": (
        lambda: tr.repeat_last_metrics(data.make_windows(np.ones((10, 1)), 2, 1)), DataError,
        "has no windows"),
    "a series of 1-d values": (
        lambda: data.SeriesTable(np.ones(3), ["a"]), DataError, "must be 2-d"),
    "a series with a name too few": (
        lambda: data.SeriesTable(np.ones((3, 2)), ["a"]), DataError, "1 names for 2 variables"),
    "a series with a timestamp too few": (
        lambda: data.SeriesTable(np.ones((3, 1)), ["a"], ["2020", "2021"]), DataError,
        "2 timestamps for 3 rows"),
    "a CSV with dates and no values": (date_only_csv, DataError, "has no value columns"),
    "a scaler over no rows": (
        lambda: data.Scaler.fit(np.ones((0, 3))), DataError, "cannot fit a scaler"),
    "windows over 1-d values": (
        lambda: data.make_windows(np.ones(10), 2, 1), DataError, "must be 2-d"),
    "split ratios that do not sum to 1": (
        lambda: data.make_windows(np.ones((10, 1)), 2, 1, (0.5, 0.2, 0.2)), ConfigError,
        "summing to 1"),
    "a synthetic series of no rows": (
        lambda: data.synthesize(data.SynthSpec(n_vars=1, rows=0, periods=[4.0])), ConfigError,
        "rows >= 1"),
    "a synthetic period of 0": (
        lambda: data.synthesize(data.SynthSpec(n_vars=1, rows=5, periods=[0.0])), ConfigError,
        "periods must be positive"),
    "an unknown config key": (lambda: RunConfig.defaults()["no.such"], ConfigError,
                              "unknown config key"),
    "a count that is not an int": (
        lambda: cli.main(["eval", "--checkpoint", "m.ckpt", "--data", "d.csv", "--batch", "x"]),
        None, "invalid int value: 'x'"),
}


@pytest.mark.parametrize("row", sorted(ROWS))
def test_each_check_raises_its_error(row, tmp_path, capsys):
    call, error, fragment = ROWS[row]
    if error is None:
        # A usage error: ``cli.main`` prints it on one line and returns 1.
        assert call() == 1
        assert fragment in capsys.readouterr().err
        return
    with pytest.raises(error) as caught:
        call(tmp_path) if call is date_only_csv else call()
    assert fragment in str(caught.value)
