"""End-to-end command-line tests.

Everything runs through main(argv) in-process against temp dirs. The
exported-artifact checks recompute metrics from the files themselves.
"""

import contextlib
import csv
import io
import json
import math
import os
import re
import signal
import struct
import tempfile
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgf import cli
from sdgf import config as cf
from sdgf import model as md
from sdgf.cli import main
from sdgf.data import SeriesTable, load_csv, save_csv

TINY = [
    "model.input_len=8",
    "model.horizon=4",
    "model.hidden=4",
    "wavelet.levels=1",
    "gcn.depth=1",
    "gcn.embed_dim=4",
    "train.epochs=3",
    "train.patience=10",
    "train.batch=16",
    "train.seed=1",
]


def sets(pairs):
    out = []
    for pair in pairs:
        out.extend(["--set", pair])
    return out


def make_csv(tmp_path, name="series.csv", n_vars=2, rows=120, periods="24,20", seed=0):
    path = tmp_path / name
    code = main(
        ["synth", "--out", str(path)]
        + sets(
            [
                f"synth.n_vars={n_vars}",
                f"synth.rows={rows}",
                f"synth.periods={periods}",
                "synth.pairs=",
                f"synth.seed={seed}",
            ]
        )
    )
    assert code == 0
    return path


def train_tiny(tmp_path, data, out_name="run", extra=()):
    out = tmp_path / out_name
    code = main(["train", "--data", str(data), "--out", str(out)] + sets(TINY + list(extra)))
    assert code == 0
    return out


def metric_from(text, split):
    for line in text.splitlines():
        if line.startswith(f"split={split} "):
            fields = dict(part.split("=") for part in line.split())
            return float(fields["mse"]), float(fields["mae"])
    raise AssertionError(f"no metrics line for {split} in:\n{text}")


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_loadable_csv_and_config(tmp_path):
    path = make_csv(tmp_path, n_vars=3, rows=50, periods="12,18,24")
    table = load_csv(path)
    assert table.values.shape == (50, 3)
    assert table.names == ["v0", "v1", "v2"]
    resolved = (tmp_path / "series.csv.cfg").read_text()
    assert "synth.n_vars = 3" in resolved


def test_synth_is_deterministic(tmp_path):
    a = make_csv(tmp_path, "a.csv", seed=5)
    b = make_csv(tmp_path, "b.csv", seed=5)
    assert a.read_bytes() == b.read_bytes()


def test_synth_requires_output_path(tmp_path, capsys):
    assert main(["synth"]) == 1
    assert "output path" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train


def test_train_writes_artifacts(tmp_path, capsys):
    data = make_csv(tmp_path)
    out = train_tiny(tmp_path, data)
    stdout = capsys.readouterr().out
    assert (out / "model.ckpt").stat().st_size > 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["train_losses"]) == report["epochs_run"]
    for key in ("grad_norm_max", "grad_norm_median", "clipped_fraction"):
        assert len(report[key]) == report["epochs_run"]
    assert "test_mse" in report
    assert report["repeat_last_mse"] > 0 and report["repeat_last_mae"] > 0
    metric_from(stdout, "test")
    # The resolved config must parse and reflect the overrides.
    from sdgf.config import RunConfig

    resolved = RunConfig.load(str(out / "resolved.cfg"))
    assert resolved["model.input_len"] == 8
    assert resolved["data.path"] == str(data)


def test_train_bad_dataset_path_names_it(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "missing.csv")] + sets(TINY))
    assert code == 2
    assert "missing.csv" in capsys.readouterr().err


def test_train_non_finite_cell_is_a_data_error(tmp_path, capsys):
    rows = [f"{np.sin(r / 5):.6f},{np.cos(r / 7):.6f}" for r in range(1, 121)]
    rows[60] = rows[60].split(",")[0] + ",inf"
    data = tmp_path / "inf.csv"
    data.write_text("a,b\n" + "\n".join(rows) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "run")] + sets(TINY))
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: non-finite value 'inf' at row 61, column 'b'\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "synth"])
def test_a_config_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, command):
    config = tmp_path / "latin.cfg"
    config.write_bytes(b"model.hidden = 4\n# caf\xe9 \xff\n")
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--data", str(make_csv(tmp_path)), "--out", str(out)]
    else:
        argv = ["synth", "--out", str(out)]
    capsys.readouterr()
    assert main(argv + ["--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: cannot read config [^\n]*latin\.cfg[^\n]*\n", err), err
    assert not out.exists()


def test_a_csv_with_a_byte_order_mark_trains(tmp_path):
    # Spreadsheet exports start with the mark; it must not stick to "date".
    table = load_csv(str(make_csv(tmp_path)))
    rows = [f"t{r:04d},{float(a)!r},{float(b)!r}" for r, (a, b) in enumerate(table.values)]
    data = tmp_path / "exported.csv"
    data.write_text("date,a,b\n" + "\n".join(rows) + "\n", encoding="utf-8-sig")
    assert data.read_bytes().startswith(b"\xef\xbb\xbfdate,")
    out = train_tiny(tmp_path, data)
    assert (out / "model.ckpt").is_file()
    loaded = load_csv(str(data))
    assert loaded.names == ["a", "b"] and loaded.timestamps[0] == "t0000"
    assert loaded.values.tobytes() == table.values.tobytes()


def test_a_config_with_a_byte_order_mark_is_read(tmp_path, capsys):
    text = "synth.n_vars = 2\nsynth.periods = 24,20\nsynth.pairs =\nsynth.rows = 50\n"
    written = []
    for encoding in ("utf-8", "utf-8-sig"):
        config = tmp_path / f"{encoding}.cfg"
        config.write_text(text, encoding=encoding)
        out = tmp_path / f"{encoding}.csv"
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
    # A mark does not excuse bytes that are not UTF-8 further on.
    config.write_bytes(b"\xef\xbb\xbfsynth.n_vars = 2\n# caf\xe9\n")
    capsys.readouterr()
    assert main(["synth", "--config", str(config), "--out", str(tmp_path / "bad.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read config ")


# Bytes that are not UTF-8 (with and without a byte-order mark), and a
# quoted field longer than the csv module's field limit (131072
# characters by default).
UNPARSABLE_CSVS = {
    "not-utf8": b"a,b\n1,2\n3,\xff\n5,6\n",
    "bom-not-utf8": b"\xef\xbb\xbfa,b\n1,2\n3,\xff\n5,6\n",
    "latin-1-header": b"caf\xe9,b\n1,2\n",
    "oversized-field": b'a,b\n1,"' + b"9" * 200_000 + b'"\n',
    "oversized-unquoted-field": b"a,b\n1," + b"9" * 200_000 + b"\n",
    # Zeros parse to a finite 0.0, so only the line-length check turns this one away.
    "oversized-zeros-field": b"a,b\n1," + b"0" * 200_000 + b"\n",
}


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("kind", list(UNPARSABLE_CSVS))
def test_a_csv_that_does_not_parse_is_a_data_error(trained, tmp_path, capsys, kind, command):
    data = tmp_path / f"{kind}.csv"
    data.write_bytes(UNPARSABLE_CSVS[kind])
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--data", str(data), "--out", str(out)] + sets(TINY)
    else:
        argv = ["eval", "--checkpoint", str(trained[1]), "--data", str(data),
                "--out", str(out), "--export-predictions"]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: cannot parse [^\n]*{kind}\.csv: [^\n]*\n", err), err
    assert not out.exists()


def test_train_requires_data_path(capsys):
    assert main(["train"] + sets(TINY)) == 1
    assert "data.path" in capsys.readouterr().err


# A typo, then the model switches that no longer exist.
UNKNOWN_KEYS = [
    "train.lrr=0.1",
    "gcn.literal_eq3=false",
    "gcn.share_embeddings=false",
    "static_graph.per_batch=false",
    "temporal.conv_axis=nodes",
    "temporal.blocks=1",
    "temporal.branch_width=0",
    "data.standardize=true",
    "synth.amplitude=1",
]


def test_train_unknown_config_key_is_usage_error(tmp_path, capsys):
    data = make_csv(tmp_path)
    config = tmp_path / "run.cfg"
    for assignment in UNKNOWN_KEYS:
        key = assignment.partition("=")[0]
        config.write_text(f"model.hidden = 4\n{assignment}\n")
        for flags in (["--set", assignment], ["--config", str(config)]):
            capsys.readouterr()
            out = tmp_path / "run"
            code = main(["train", "--data", str(data), "--out", str(out)] + flags)
            assert code == 1
            err = capsys.readouterr().err
            assert re.fullmatch(rf"error: [^\n]*{re.escape(key)}[^\n]*\n", err), err
            assert not out.exists()


@pytest.mark.parametrize("flag", ["--data", "--out", "--set"])
def test_a_value_resolved_cfg_cannot_write_back_is_a_usage_error(tmp_path, capsys, flag):
    # In resolved.cfg a '#' starts a comment, so the run would not read
    # back as itself; it stops before writing anything.
    data = make_csv(tmp_path)
    hashed = tmp_path / "lag#1.csv"
    hashed.write_bytes(data.read_bytes())
    plain_out, hashed_out = tmp_path / "run", tmp_path / "run#1"
    args, key = {
        "--data": (["--data", str(hashed), "--out", str(plain_out)], "data.path"),
        "--out": (["--data", str(data), "--out", str(hashed_out)], "out.dir"),
        "--set": (["--set", f"data.path={hashed}", "--out", str(plain_out)], "data.path"),
    }[flag]
    capsys.readouterr()
    assert main(["train"] + args + sets(TINY)) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: key '{re.escape(key)}' [^\n]*\n", err), err
    assert not plain_out.exists() and not hashed_out.exists()


def test_train_reports_are_reproducible(tmp_path):
    data = make_csv(tmp_path)
    out_a = train_tiny(tmp_path, data, "a")
    out_b = train_tiny(tmp_path, data, "b")
    rep_a = json.loads((out_a / "report.json").read_text())
    rep_b = json.loads((out_b / "report.json").read_text())
    assert rep_a["train_losses"] == rep_b["train_losses"]
    assert rep_a["val_mse"] == rep_b["val_mse"]
    assert (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()


def test_train_numeric_failure_keeps_the_best_checkpoint(tmp_path, capsys, monkeypatch):
    from sdgf import autodiff as ad
    from sdgf import model as md
    from sdgf import training as tr

    data = make_csv(tmp_path)
    clean = train_tiny(tmp_path, data, "clean", extra=["train.epochs=2"])
    scored = []
    real_evaluate, real_forward = tr.evaluate, md.forward

    def evaluate(*args, **kwargs):
        scored.append(args[2])
        return real_evaluate(*args, **kwargs)

    def forward(x, model):
        # Every training forward after epoch 1's validation sees an inf.
        if len(scored) >= 2:
            x = ad.Tensor(np.where(np.arange(x.shape[1])[:, None] == 0, np.inf, x.data))
        return real_forward(x, model)

    monkeypatch.setattr(tr, "evaluate", evaluate)
    monkeypatch.setattr(md, "forward", forward)
    out = tmp_path / "failed"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "--data", str(data), "--out", str(out)] + sets(TINY))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and "non-finite" in err and "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert scored == ["val", "val"]
    assert (out / "model.ckpt").read_bytes() == (clean / "model.ckpt").read_bytes()
    loaded, _ = md.load_checkpoint((out / "model.ckpt").read_bytes())
    best, _ = md.load_checkpoint((clean / "model.ckpt").read_bytes())
    for pa, pb in zip(md.parameters(loaded), md.parameters(best), strict=True):
        assert pa.data.tobytes() == pb.data.tobytes()
    report = json.loads((out / "report.json").read_text())
    clean_report = json.loads((clean / "report.json").read_text())
    assert report["failed_epoch"] == 2 and f"error: {report['error']}" in err
    assert report["best_epoch"] == clean_report["best_epoch"]
    assert report["val_mse"] == clean_report["val_mse"]
    assert (out / "resolved.cfg").exists()
    assert sorted(p.name for p in out.iterdir()) == ["model.ckpt", "report.json", "resolved.cfg"]


def test_train_non_finite_gradient_is_one_error_line(tmp_path, capsys, monkeypatch):
    from sdgf import training as tr

    data = make_csv(tmp_path)
    real_backward, calls = tr.ad.backward, []

    def backward(loss, params):
        # The third step's head.b2 gradient holds a NaN.
        grads = real_backward(loss, params)
        calls.append(None)
        if len(calls) == 3:
            grads["head.b2"][0] = np.nan
        return grads

    monkeypatch.setattr(tr.ad, "backward", backward)
    out = tmp_path / "nan-grad"
    capsys.readouterr()
    code = main(["train", "--data", str(data), "--out", str(out)] + sets(TINY))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: gradient norm is nan; non-finite gradients: ['head.b2']")
    assert err.count("\n") == 1 and "Traceback" not in err
    report = json.loads((out / "report.json").read_text())
    assert report["failed_epoch"] == 0 and report["epochs_run"] == 0


def test_train_failure_before_any_epoch_writes_strict_json(tmp_path, capsys, monkeypatch):
    from sdgf import autodiff as ad
    from sdgf import model as md

    data = make_csv(tmp_path)
    real_forward = md.forward

    def forward(x, model):
        # Every forward sees an inf, so no epoch ever ends.
        x = ad.Tensor(np.where(np.arange(x.shape[1])[:, None] == 0, np.inf, x.data))
        return real_forward(x, model)

    def reject(constant):
        raise AssertionError(f"report.json holds the non-JSON constant {constant}")

    monkeypatch.setattr(md, "forward", forward)
    out = tmp_path / "failed"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "--data", str(data), "--out", str(out)] + sets(TINY))
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    assert report["failed_epoch"] == 0 and report["epochs_run"] == 0
    assert report["best_val_mse"] is None


def test_train_overflowing_lr_prints_one_error_line(tmp_path, capsys):
    # The first update sends every weight to about 1e300, so the next
    # forward overflows; the guard's error is all that reaches stderr.
    data = make_csv(tmp_path)
    out = tmp_path / "huge-lr"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(
            ["train", "--data", str(data), "--out", str(out)] + sets(TINY + ["train.lr=1e300"])
        )
    err = capsys.readouterr().err
    assert code == 3
    assert re.fullmatch(r"error: [^\n]* produced a non-finite value\n", err), err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_train_failure_before_any_epoch_removes_an_older_checkpoint(tmp_path, capsys):
    # The run has no checkpoint of its own, so a junk one from an earlier
    # run must not stay beside its report and resolved.cfg.
    data = make_csv(tmp_path)
    out = tmp_path / "huge-lr"
    out.mkdir()
    (out / "model.ckpt").write_bytes(b"an older run's checkpoint")
    code = main(
        ["train", "--data", str(data), "--out", str(out)] + sets(TINY + ["train.lr=1e300"])
    )
    capsys.readouterr()
    assert code == 3
    assert not (out / "model.ckpt").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["failed_epoch"] == 0 and report["best_epoch"] == -1
    assert sorted(p.name for p in out.iterdir()) == ["report.json", "resolved.cfg"]


def test_train_overflowing_data_prints_one_error_line(tmp_path, capsys):
    # Finite cells whose variance overflows: the scaler says so, and no
    # numpy warning reaches stderr ahead of it.
    data = tmp_path / "huge.csv"
    rows = [f"{(-1) ** h * 1e200!r},{h}.0" for h in range(120)]
    data.write_text("a,b\n" + "\n".join(rows) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "run")] + sets(TINY))
    assert code == 3
    assert capsys.readouterr().err == "error: scaler statistics produced a non-finite value\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# ---------------------------------------------------------------------------
# eval


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trained")
    data = make_csv(tmp, rows=160)
    out = train_tiny(tmp, data)
    return data, out / "model.ckpt", out


def test_eval_on_a_huge_test_cell_prints_one_error_line(trained, tmp_path, capsys):
    # A 1e200 cell in the test split overflows its windows' variance, so
    # the normalized windows are finite and their forecasts are not: the
    # denormalization is the first node whose output is non-finite.
    data, ckpt, _ = trained
    rows = data.read_text().splitlines()
    cells = rows[150].split(",")
    cells[1] = "1e200"
    rows[150] = ",".join(cells)
    huge = tmp_path / "huge.csv"
    huge.write_text("\n".join(rows) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(huge)])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "error: revin_denormalize produced a non-finite value\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_eval_prints_metrics_and_matches_train_report(trained, capsys):
    data, ckpt, out = trained
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 0
    got_mse, got_mae = metric_from(capsys.readouterr().out, "test")
    report = json.loads((out / "report.json").read_text())
    # The printed line carries 12 significant digits.
    assert abs(got_mse - report["test_mse"]) < 1e-9
    assert abs(got_mae - report["test_mae"]) < 1e-9


def test_eval_is_deterministic(trained, capsys):
    data, ckpt, _ = trained
    capsys.readouterr()
    main(["eval", "--checkpoint", str(ckpt), "--data", str(data)])
    first = capsys.readouterr().out
    main(["eval", "--checkpoint", str(ckpt), "--data", str(data)])
    assert capsys.readouterr().out == first


def test_eval_export_recomputes_to_printed_metrics(trained, tmp_path, capsys):
    data, ckpt, _ = trained
    out = tmp_path / "exports"
    capsys.readouterr()
    code = main(
        ["eval", "--checkpoint", str(ckpt), "--data", str(data),
         "--split", "val", "--out", str(out), "--export-predictions"]
    )
    assert code == 0
    printed_mse, printed_mae = metric_from(capsys.readouterr().out, "val")
    with open(out / "predictions_val.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    err = np.array([float(r["y_true"]) - float(r["y_pred"]) for r in rows])
    assert abs(float(np.mean(err**2)) - printed_mse) < 1e-9
    assert abs(float(np.mean(np.abs(err))) - printed_mae) < 1e-9
    # Self-describing manifest sits next to the export.
    manifest = json.loads((out / "eval_val.json").read_text())
    assert manifest["split"] == "val"
    assert abs(manifest["mse"] - printed_mse) < 1e-9


def test_eval_attention_dump_rows_are_distributions(trained, tmp_path):
    data, ckpt, _ = trained
    out = tmp_path / "attn"
    code = main(
        ["eval", "--checkpoint", str(ckpt), "--data", str(data),
         "--out", str(out), "--dump-attention"]
    )
    assert code == 0
    dump = json.loads((out / "attention_test.json").read_text())
    # levels=1 decomposition: static + detail_1 + approx.
    assert dump["branch_names"] == ["static", "detail_1", "approx"]
    weights = np.array(dump["weights"])
    assert weights.shape[1] == 3
    assert np.all(weights >= 0)
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-9)


def test_eval_graph_dumps_are_row_stochastic(trained, tmp_path):
    data, ckpt, _ = trained
    out = tmp_path / "graphs"
    code = main(
        ["eval", "--checkpoint", str(ckpt), "--data", str(data),
         "--out", str(out), "--dump-graphs"]
    )
    assert code == 0
    for name in ("static_graph.csv", "dynamic_graph_detail_1.csv", "dynamic_graph_approx.csv"):
        with open(out / name, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["node", "v0", "v1"]
        for row in rows[1:]:
            values = np.array([float(v) for v in row[1:]])
            assert np.all(values >= 0)
            assert abs(values.sum() - 1.0) < 1e-9


def test_eval_dumps_come_from_the_scoring_pass(trained, tmp_path, monkeypatch):
    from sdgf import model as md

    data, ckpt, _ = trained
    batches = []
    real = md.forward_with_details

    def counted(x, model):
        batches.append(x.shape[0])
        return real(x, model)

    monkeypatch.setattr(md, "forward_with_details", counted)
    out = tmp_path / "dumps"
    code = main(
        ["eval", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out),
         "--dump-attention", "--dump-graphs", "--export-predictions"]
    )
    assert code == 0
    # The test split fits in one batch, so one forward serves every output.
    assert len(batches) == 1
    assert len(json.loads((out / "attention_test.json").read_text())["weights"]) == batches[0]
    with open(out / "predictions_test.csv", newline="") as handle:
        assert len({row["window"] for row in csv.DictReader(handle)}) == batches[0]


@pytest.mark.parametrize("batch", ["0", "-4"])
def test_eval_batch_below_one_is_usage_error(trained, capsys, batch):
    data, ckpt, _ = trained
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data), "--batch", batch])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: argument --batch: must be >= 1, got {batch}\n"


def test_eval_dimension_mismatch_is_data_error(trained, tmp_path, capsys):
    _, ckpt, _ = trained
    other = make_csv(tmp_path, "three.csv", n_vars=3, rows=60, periods="12,18,24")
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(ckpt), "--data", str(other)])
    assert code == 2
    assert "variables" in capsys.readouterr().err


@pytest.mark.parametrize(
    "order, names, message",
    [
        ([1, 0], ["v1", "v0"], "column 1 of '.*' is 'v1', but the checkpoint was trained on 'v0'"),
        ([0, 1], ["v0", "w1"], "column 2 of '.*' is 'w1', but the checkpoint was trained on 'v1'"),
    ],
)
def test_eval_on_columns_the_checkpoint_was_not_trained_on_is_a_data_error(
    trained, tmp_path, capsys, order, names, message
):
    # The same series under permuted or renamed columns: only the stored
    # names tell that the scaler and the static graph would meet the
    # wrong series.
    data, ckpt, _ = trained
    table = load_csv(str(data))
    other = tmp_path / "other.csv"
    save_csv(SeriesTable(table.values[:, order], names, table.timestamps), str(other))
    capsys.readouterr()
    out = tmp_path / "out"
    code = main(
        ["eval", "--checkpoint", str(ckpt), "--data", str(other), "--out", str(out),
         "--export-predictions"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert re.fullmatch(f"error: {message}\n", err), err
    assert not out.exists()


def test_eval_missing_checkpoint(trained, tmp_path, capsys):
    data, _, _ = trained
    code = main(["eval", "--checkpoint", str(tmp_path / "nope.ckpt"), "--data", str(data)])
    assert code == 2
    assert "nope.ckpt" in capsys.readouterr().err


def test_eval_corrupt_checkpoint(trained, tmp_path, capsys):
    data, ckpt, _ = trained
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(ckpt.read_bytes()[:40])
    assert main(["eval", "--checkpoint", str(bad), "--data", str(data)]) == 2


def test_eval_checkpoint_with_a_corrupt_header_is_a_data_error(trained, tmp_path, capsys):
    # A header that is not UTF-8, under a checksum that holds.
    data, ckpt, _ = trained
    blob = ckpt.read_bytes()
    (head_len,) = struct.unpack("<I", blob[9:13])
    body = blob[:9] + struct.pack("<I", 2) + b"\xff{" + blob[13 + head_len : -4]
    bad = tmp_path / "bad-header.ckpt"
    bad.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(bad), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: corrupt checkpoint header: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_eval_non_utf8_parameter_name(trained, tmp_path, capsys):
    data, ckpt, _ = trained
    bad = tmp_path / "bad-name.ckpt"
    bad.write_bytes(ckpt.read_bytes().replace(b"revin.gamma", b"\xffevin.gamma"))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(bad), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def resealed(blob: bytes, at: int, value: float) -> bytes:
    """``blob`` with the float64 at ``at`` replaced and its CRC32 trailer redone."""
    body = bytearray(blob[:-4])
    body[at : at + 8] = struct.pack("<d", value)
    return bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))


def reheadered(blob: bytes, edit) -> bytes:
    """``blob`` with ``edit`` applied to its JSON header and its CRC32 trailer redone."""
    (head_len,) = struct.unpack("<I", blob[9:13])
    header = json.loads(blob[13 : 13 + head_len])
    edit(header)
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    body = blob[:9] + struct.pack("<I", len(head)) + head + blob[13 + head_len : -4]
    return body + struct.pack("<I", zlib.crc32(body))


# Defect -> (how the checkpoint is changed, what the error line names).
CHECKPOINT_DEFECTS = {
    "trailing-bytes": (lambda blob: blob + b"\x00\x00", "trailing"),
    "non-finite-parameter": (
        lambda blob: resealed(blob, blob.index(b"head.b2") + len(b"head.b2") + 1 + 4, np.inf),
        "non-finite",
    ),
    "static-not-stochastic": (
        lambda blob: resealed(blob, 13 + struct.unpack("<I", blob[9:13])[0] + 1, 0.75),
        "row-stochastic",
    ),
    # A config field this build no longer has, under a valid checksum.
    "removed-model-switch": (
        lambda blob: reheadered(blob, lambda h: h["config"].update(literal_eq3=False)),
        "does not match this build",
    ),
    # The trained model has depth 1, which ``true`` equals in Python.
    "bool-integer-field": (
        lambda blob: reheadered(blob, lambda h: h["config"].update(depth=True)),
        "depth must be an integer",
    ),
    # The layout before the ablation became one optional mode name.
    "version-3": (
        lambda blob: reheadered(
            blob[:5] + struct.pack("<I", 3) + blob[9:],
            lambda h: h.update(ablations=[h.pop("ablation")] if h["ablation"] else []),
        ),
        "unsupported checkpoint version 3",
    ),
    # Before each hop's maps were one stack: the same layout, another tree.
    "version-4": (
        lambda blob: reheadered(blob[:5] + struct.pack("<I", 4) + blob[9:], lambda h: None),
        "unsupported checkpoint version 4",
    ),
    "ablation-missing": (lambda blob: reheadered(blob, lambda h: h.pop("ablation")), "ablation"),
    # A model carries no ablation or exactly one, by name.
    **{
        f"ablation-{kind}": (
            lambda blob, value=value: reheadered(blob, lambda h: h.update(ablation=value)),
            "checkpoint ablation",
        )
        for kind, value in [
            ("list", ["gsl"]),
            ("two-modes", ["gsl", "tfl"]),
            ("object", {"gsl": 1, "tfl": [1]}),
            ("number", 1),
            ("bool", True),
            ("empty", ""),
            ("unknown", "xyz"),
        ]
    },
}


@pytest.mark.parametrize("defect", list(CHECKPOINT_DEFECTS))
def test_eval_rejects_checkpoints_that_used_to_load(trained, tmp_path, capsys, defect):
    data, ckpt, _ = trained
    make, named = CHECKPOINT_DEFECTS[defect]
    bad = tmp_path / f"{defect}.ckpt"
    bad.write_bytes(make(ckpt.read_bytes()))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(bad), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: [^\n]*\n", err), err
    assert named in err


def run_quietly(argv):
    """``main(argv)``'s exit code and stderr, with stdout dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


@settings(max_examples=25, deadline=None)
@given(
    key=st.sampled_from(["synth.noise", "synth.periods", "train.lr", "train.clip"]),
    bad=st.sampled_from(["nan", "inf", "-inf"]),
    slot=st.integers(0, 1),
)
def test_a_non_finite_config_value_is_a_usage_error(trained, key, bad, slot):
    value = ",".join(bad if j == slot else "24" for j in range(2)) if key == "synth.periods" else bad
    with tempfile.TemporaryDirectory() as tmp:
        if key.startswith("synth."):
            argv = ["synth", "--out", f"{tmp}/s.csv"] + sets(
                ["synth.n_vars=2", "synth.periods=24,20", "synth.pairs=", f"{key}={value}"]
            )
        else:
            argv = ["train", "--data", str(trained[0]), "--out", f"{tmp}/run"] + sets(
                TINY + [f"{key}={value}"]
            )
        code, err = run_quietly(argv)
        assert code == 1
        assert re.fullmatch(r"error: [^\n]*\n", err), err
        assert os.listdir(tmp) == []


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_malformed_checkpoint_extra_is_a_data_error(trained, data):
    # The checksum is valid; only what the checkpoint carries is wrong.
    csv_path, ckpt, _ = trained
    model, extra = md.load_checkpoint(ckpt.read_bytes())
    field = data.draw(st.sampled_from(["extra", "names", "mean", "std"]))
    if field == "extra":
        extra = data.draw(st.sampled_from([[extra], "extra", 1.5]))
    elif field == "names":
        bad = ["v0,v1", 1.5, None, [0, 1], ["v0"], ["v0", "v1", "v2"], [["v0"], "v1"], ["v1", "v0"]]
        extra = {**extra, "names": data.draw(st.sampled_from(bad))}
    else:
        scaler = {"mean": [0.5, -0.5], "std": [2.0, 3.0]}
        bad = [math.nan, math.inf, -math.inf, "short", "long", "nested", "text", "missing"]
        defect = data.draw(st.sampled_from(bad + [0.0, -1.0] * (field == "std")))
        if defect == "missing":
            del scaler[field]
        elif isinstance(defect, str):
            scaler[field] = {"short": [1.0], "long": [1.0] * 3, "nested": [[1.0, 1.0]], "text": "ab"}[defect]
        else:
            scaler[field][data.draw(st.integers(0, 1))] = defect
        extra = {**extra, "scaler": scaler}
    with tempfile.TemporaryDirectory() as tmp:
        bad_ckpt = f"{tmp}/bad.ckpt"
        with open(bad_ckpt, "wb") as handle:
            handle.write(md.save_checkpoint(model, extra))
        code, err = run_quietly(
            ["eval", "--checkpoint", bad_ckpt, "--data", str(csv_path), "--export-predictions"]
        )
        assert code == 2
        assert re.fullmatch(r"error: [^\n]*\n", err), err
        assert os.listdir(tmp) == ["bad.ckpt"]


def test_single_batch_overfit_then_eval(tmp_path, capsys):
    # Overfit the single train batch directly, package the weights as a
    # checkpoint, and confirm the eval command reproduces the overfit
    # MSE through its own CSV/scaler/window pipeline.
    from sdgf import autodiff as ad
    from sdgf import model as md
    from sdgf import training as tr
    from sdgf.data import Scaler, make_windows

    data = make_csv(tmp_path, rows=60)
    table = load_csv(data)
    raw = make_windows(table.values, 8, 4)
    scaler = Scaler.fit(table.values[: raw.train_end])
    dataset = make_windows(scaler.transform(table.values), 8, 4)
    model = md.build_model(
        md.ModelConfig(input_len=8, horizon=4, n_vars=2, hidden=8,
                       levels=1, depth=1, embed_dim=4, seed=1)
    )
    md.set_static_graph(model, dataset.values[: dataset.train_end])
    inputs, targets = dataset.batch(dataset.split_starts("train"))
    params = md.effective_parameters(model)
    state = tr.AdamState(lr=0.01)
    for _ in range(500):
        loss = tr.mse_loss(md.forward(ad.Tensor(inputs), model), targets)
        if float(loss.data) < 5e-4:
            break
        grads = ad.backward(loss, params)
        tr.clip_gradients(grads, 5.0)
        tr.adam_step(params, grads, state)
        for p in params:
            p.zero_grad()
    ckpt = tmp_path / "overfit.ckpt"
    extra = {"names": list(table.names), "scaler": scaler.to_dict()}
    ckpt.write_bytes(md.save_checkpoint(model, extra=extra))

    capsys.readouterr()
    assert main(
        ["eval", "--checkpoint", str(ckpt), "--data", str(data), "--split", "train"]
    ) == 0
    got_mse, _ = metric_from(capsys.readouterr().out, "train")
    assert got_mse < 1e-3


def test_eval_scores_a_checkpoint_without_a_scaler_on_raw_values(tmp_path, capsys):
    # ``training.train(extra=None)`` writes no scaler and no column names;
    # the CLI always does.
    from sdgf import training as tr
    from sdgf.data import make_windows

    data = make_csv(tmp_path, rows=160)
    dataset = make_windows(load_csv(data).values, 8, 4)
    model = md.build_model(
        md.ModelConfig(input_len=8, horizon=4, n_vars=2, hidden=4, levels=1, depth=1,
                       embed_dim=4, seed=1)
    )
    _, blob = tr.train(model, dataset, tr.TrainConfig(epochs=1, batch=16), extra=None)
    assert md.load_checkpoint(blob)[1] == {}
    ckpt = tmp_path / "raw.ckpt"
    ckpt.write_bytes(blob)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 0
    want = tr.evaluate(md.load_checkpoint(blob)[0], dataset, "test", 32)
    assert metric_from(capsys.readouterr().out, "test") == pytest.approx(want, rel=1e-11)


# ---------------------------------------------------------------------------
# ablate


def test_ablate_unknown_mode_lists_valid(tmp_path, capsys):
    data = make_csv(tmp_path)
    code = main(["ablate", "--data", str(data), "--mode", "xyz"] + sets(TINY))
    assert code == 1
    err = capsys.readouterr().err
    for mode in ("gsl", "gf", "tfl"):
        assert mode in err


def test_ablate_emits_two_rows_per_metric(tmp_path, capsys):
    data = make_csv(tmp_path, rows=160)
    out = tmp_path / "ablation"
    capsys.readouterr()
    code = main(
        ["ablate", "--data", str(data), "--out", str(out), "--mode", "gf"]
        + sets(TINY + ["train.epochs=2"])
    )
    assert code == 0
    stdout = capsys.readouterr().out
    rows = list(csv.DictReader(stdout.splitlines()))
    by_metric = {}
    for row in rows:
        by_metric.setdefault(row["metric"], []).append(row["model"])
    expected = ["full", "wo-gf", "repeat-last"]
    assert by_metric == {"mse": expected, "mae": expected}
    for row in rows:
        float(row["value"])  # numeric values throughout
    assert (out / "ablation.csv").read_text() == stdout
    assert (out / "full.ckpt").exists()
    assert (out / "wo-gf.ckpt").exists()
    assert (out / "resolved.cfg").exists()


def test_ablate_all_trains_every_variant(tmp_path, capsys):
    data = make_csv(tmp_path, rows=160)
    out = tmp_path / "ablation-all"
    capsys.readouterr()
    code = main(
        ["ablate", "--data", str(data), "--out", str(out), "--mode", "all"]
        + sets(TINY + ["train.epochs=1"])
    )
    assert code == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    labels = ["full", "wo-gsl", "wo-gf", "wo-tfl", "repeat-last"]
    assert [row["model"] for row in rows] == labels * 2
    assert [row["metric"] for row in rows] == ["mse"] * 5 + ["mae"] * 5
    for label in labels[:-1]:
        assert (out / f"{label}.ckpt").exists()


def test_ablate_keeps_the_variants_that_finish_when_one_fails(tmp_path, capsys, monkeypatch):
    from sdgf import training as tr
    from sdgf.errors import NumericError

    data = make_csv(tmp_path, rows=160)
    real_train = tr.train

    def train(model, *args, **kwargs):
        if model.ablation == "gf":
            raise NumericError("matmul produced a non-finite value")
        return real_train(model, *args, **kwargs)

    monkeypatch.setattr(tr, "train", train)
    out = tmp_path / "ablation-failed"
    capsys.readouterr()
    code = main(
        ["ablate", "--data", str(data), "--out", str(out), "--mode", "all"]
        + sets(TINY + ["train.epochs=1"])
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "error: ablation variant wo-gf: matmul produced a non-finite value\n"
    rows = list(csv.DictReader(captured.out.splitlines()))
    labels = ["full", "wo-gsl", "wo-tfl", "repeat-last"]
    assert [row["model"] for row in rows] == labels * 2
    assert (out / "ablation.csv").read_text() == captured.out
    assert sorted(p.name for p in out.iterdir()) == [
        "ablation.csv", "full.ckpt", "resolved.cfg", "wo-gsl.ckpt", "wo-tfl.ckpt"
    ]


def test_ablate_variant_failing_in_scoring_leaves_no_checkpoint(tmp_path, capsys, monkeypatch):
    from sdgf import training as tr
    from sdgf.errors import NumericError

    data = make_csv(tmp_path, rows=160)
    real_evaluate = tr.evaluate

    def evaluate(model, dataset, split, *args, **kwargs):
        # Training's validation passes; the test-split score fails.
        if model.ablation == "gf" and split == "test":
            raise NumericError("mse produced a non-finite value")
        return real_evaluate(model, dataset, split, *args, **kwargs)

    monkeypatch.setattr(tr, "evaluate", evaluate)
    out = tmp_path / "ablation-scoring"
    out.mkdir()
    # A checkpoint from an earlier run of the failing variant.
    (out / "wo-gf.ckpt").write_bytes(b"stale")
    capsys.readouterr()
    code = main(
        ["ablate", "--data", str(data), "--out", str(out), "--mode", "gf"]
        + sets(TINY + ["train.epochs=1"])
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "error: ablation variant wo-gf: mse produced a non-finite value\n"
    rows = list(csv.DictReader(captured.out.splitlines()))
    assert [row["model"] for row in rows] == ["full", "repeat-last"] * 2
    assert (out / "ablation.csv").read_text() == captured.out
    assert sorted(p.name for p in out.iterdir()) == ["ablation.csv", "full.ckpt", "resolved.cfg"]


def test_ablate_with_no_test_windows_fails_before_training(tmp_path, capsys, monkeypatch):
    from sdgf import training as tr

    # 110 rows leave 11 for the test split, one fewer than a window takes.
    data = make_csv(tmp_path, rows=110)

    def train(*args, **kwargs):
        raise AssertionError("ablate trained with no test windows to score")

    monkeypatch.setattr(tr, "train", train)
    out = tmp_path / "ablation-no-test"
    capsys.readouterr()
    code = main(["ablate", "--data", str(data), "--out", str(out), "--mode", "gf"] + sets(TINY))
    assert code == 2
    assert capsys.readouterr().err == "error: split 'test' has no windows\n"
    assert not out.exists()


class Unhandled(Exception):
    """Raised by the test's own SIGTERM handler, which ``main`` must cover."""


def test_a_sigterm_ends_like_ctrl_c(tmp_path, capsys, monkeypatch):
    def terminated(args):
        signal.raise_signal(signal.SIGTERM)
        raise AssertionError("the SIGTERM did not end the command")

    def unhandled(signum, frame):
        raise Unhandled

    # A handler of the test's own stands in for the default one, which
    # would end the test run if ``main`` did not take the signal over.
    outer = signal.signal(signal.SIGTERM, unhandled)
    try:
        monkeypatch.setattr(cli, "_cmd_synth", terminated)
        capsys.readouterr()
        code = main(["synth", "--out", str(tmp_path / "x.csv")])
        assert code == 130
        assert capsys.readouterr().err == "error: interrupted\n"
        assert signal.getsignal(signal.SIGTERM) is unhandled
        with pytest.raises(Unhandled):
            signal.raise_signal(signal.SIGTERM)
    finally:
        signal.signal(signal.SIGTERM, outer)


@pytest.mark.parametrize("where", ["training", "writing"])
def test_an_interrupt_is_one_error_line(tmp_path, capsys, monkeypatch, where):
    from sdgf import training as tr

    data = make_csv(tmp_path)

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    # In training, or while the first output file is half written.
    owner, name = (tr, "train") if where == "training" else (os, "fsync")
    monkeypatch.setattr(owner, name, interrupt)
    out = tmp_path / "interrupted"
    capsys.readouterr()
    code = main(["train", "--data", str(data), "--out", str(out)] + sets(TINY))
    assert code == 130
    assert capsys.readouterr().err == "error: interrupted\n"
    if where == "training":
        assert not out.exists()
    else:
        # The checkpoint is the first file written, and its temporary file is gone.
        assert list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# usage


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert capsys.readouterr().err != ""


def test_unknown_flag_is_usage_error(capsys):
    assert main(["eval", "--checkpoint", "x", "--data", "y", "--bogus"]) == 1


# ---------------------------------------------------------------------------
# environment


@pytest.mark.parametrize("command", ["synth", "train"])
def test_a_failed_allocation_is_one_error_line(trained, tmp_path, capsys, monkeypatch, command):
    # A real oversized allocation can succeed on a host that overcommits
    # memory, so the failure is raised where the command first allocates.
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (10**12,)")

    monkeypatch.setattr(cli, "synthesize" if command == "synth" else "load_csv", fail)
    out = tmp_path / "out"
    if command == "synth":
        argv = ["synth", "--out", str(out)]
    else:
        argv = ["train", "--data", str(trained[0]), "--out", str(out)] + sets(TINY)
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 7.28 TiB for an array with shape (10**12,)\n"
    )
    assert not out.exists()


# ---------------------------------------------------------------------------
# any override


def override_value(key: str, command: str):
    """Text for ``--set key=...``: a value of the key's type or an edge case.

    Integers stay in [-2, 64], so no example allocates more than a few
    MB, and ``train`` and ``ablate`` run at most one epoch.
    """
    default = cf.DEFAULTS[key]
    if key == "train.epochs" and command != "synth":
        return st.integers(-2, 1).map(str)
    if isinstance(default, int):
        return st.integers(-2, 64).map(str)
    if isinstance(default, float):
        edges = [0.0, 1e-300, 1e308, -1e308, math.nan, math.inf, -math.inf]
        return st.one_of(st.floats(-2.0, 64.0), st.sampled_from(edges)).map(repr)
    if key == "synth.periods":
        period = st.sampled_from(["24", "3", "0", "-1", "1e308", "nan"])
        return st.lists(period, max_size=4).map(",".join)
    if key == "synth.pairs":
        pair = st.tuples(*[st.integers(-2, 64)] * 3).map(lambda t: ":".join(map(str, t)))
        return st.lists(pair, max_size=3).map(",".join)
    choices = {"wavelet.family": ["haar", "db4"], "wavelet.boundary": ["circular", "symmetric"]}
    return st.sampled_from(choices.get(key, [default]))


def reject_constant(name):
    raise AssertionError(f"non-strict JSON constant {name}")


@settings(max_examples=50, deadline=None)
@given(command=st.sampled_from(["synth", "train", "ablate"]), data=st.data())
def test_any_override_exits_cleanly_and_writes_strict_files(trained, command, data):
    overrides = data.draw(
        st.fixed_dictionaries({}, optional={k: override_value(k, command) for k in cf.DEFAULTS})
    )
    # At most one value that does not parse, so most examples get past the parser.
    junk = data.draw(st.none() | st.sampled_from(sorted(cf.DEFAULTS)))
    if junk is not None:
        overrides[junk] = data.draw(st.text(alphabet="ab01:,.-e ", max_size=5))
    with tempfile.TemporaryDirectory() as tmp:
        if command == "synth":
            argv = ["synth", "--out", f"{tmp}/s.csv"]
        else:
            argv = [command, "--data", str(trained[0]), "--out", f"{tmp}/run"]
            argv += sets(TINY + ["train.epochs=1"])
        if command == "ablate":
            argv += ["--mode", data.draw(st.sampled_from([*md.ABLATION_MODES, "all", "xyz"]))]
        argv += sets(f"{key}={value}" for key, value in overrides.items())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = run_quietly(argv)
        assert code in (0, 1, 2, 3)
        assert (err == "") if code == 0 else re.fullmatch(r"error: [^\n]*\n", err), err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        for root, _, files in os.walk(tmp):
            for name in files:
                assert not name.endswith(".tmp"), name
                if name.endswith(".json"):
                    with open(os.path.join(root, name), encoding="utf-8") as handle:
                        json.load(handle, parse_constant=reject_constant)


# ---------------------------------------------------------------------------
# any CSV

# What a cell can hold besides an ordinary number: non-finite spellings,
# a float that overflows, a blank, and text.
ODD_CELLS = ["inf", "-inf", "nan", "Infinity", "-Infinity", "NaN", "1e400", "", " ", "x1"]
# Raw bytes a file's last cell on one line may hold instead: a byte that
# is not UTF-8, or a quoted field past the csv module's field limit.
RAW_CELLS = [b"caf\xe9", b"\xff", b'"' + b"9" * 200_000 + b'"']


@st.composite
def odd_csv(draw):
    """CSV bytes with two or three series and few rows, some cells odd.

    Rows run from none up to a few more than a one-epoch ``TINY`` train
    needs. A column may be constant and a row may lose its last cell.
    One line in four ends in one of ``RAW_CELLS``.
    """
    n_vars = draw(st.integers(2, 3))
    rows = draw(st.integers(0, 160))
    dates = draw(st.booleans())
    constant = draw(st.sets(st.integers(0, n_vars - 1), max_size=n_vars))
    odd = draw(st.dictionaries(
        st.tuples(st.integers(0, max(rows - 1, 0)), st.integers(0, n_vars - 1)),
        st.sampled_from(ODD_CELLS), max_size=2,
    ))
    short = draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=1))
    lines = [",".join((["date"] if dates else []) + [f"v{j}" for j in range(n_vars)])]
    for r in range(rows):
        cells = [
            odd.get((r, j), "1.5" if j in constant else f"{math.sin(r / (3 + j)):.6f}")
            for j in range(n_vars)
        ]
        if r in short:
            cells = cells[:-1]
        stamp = f"2020-01-{1 + r // 24:02d} {r % 24:02d}:00"
        lines.append(",".join(([stamp] if dates else []) + cells))
    lines = [line.encode("utf-8") for line in lines]
    raw = draw(st.sampled_from([None] * 3 + RAW_CELLS))
    if raw is not None:
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = lines[at].rpartition(b",")[0] + b"," + raw
    return b"\n".join(lines) + b"\n"


@settings(max_examples=30, deadline=None)
@given(blob=odd_csv())
def test_any_csv_trains_and_evals_cleanly_and_writes_strict_files(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "series.csv")
        with open(path, "wb") as handle:
            handle.write(blob)
        run = os.path.join(tmp, "run")
        argvs = [["train", "--data", path, "--out", run] + sets(TINY + ["train.epochs=1"])]
        argvs.append(["eval", "--checkpoint", os.path.join(run, "model.ckpt"), "--data", path,
                      "--export-predictions", "--dump-attention", "--dump-graphs"])
        for argv in argvs:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, err = run_quietly(argv)
            assert code in (0, 1, 2, 3)
            assert (err == "") if code == 0 else re.fullmatch(r"error: [^\n]*\n", err), err
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        for root, _, files in os.walk(tmp):
            for name in files:
                assert not name.endswith(".tmp"), name
                if name.endswith(".json"):
                    with open(os.path.join(root, name), encoding="utf-8") as handle:
                        json.load(handle, parse_constant=reject_constant)
