"""End-to-end command-line tests.

Everything runs through main(argv) in-process against temp dirs. The
exported-artifact checks recompute metrics from the files themselves.
"""

import csv
import json
import struct
import zlib

import numpy as np
import pytest

from sdgf.cli import main
from sdgf.data import load_csv

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


def test_train_requires_data_path(capsys):
    assert main(["train"] + sets(TINY)) == 1
    assert "data.path" in capsys.readouterr().err


def test_train_unknown_config_key_is_usage_error(tmp_path, capsys):
    data = make_csv(tmp_path)
    code = main(["train", "--data", str(data), "--set", "train.lrr=0.1"])
    assert code == 1
    assert "train.lrr" in capsys.readouterr().err


def test_train_reports_are_reproducible(tmp_path):
    data = make_csv(tmp_path)
    out_a = train_tiny(tmp_path, data, "a")
    out_b = train_tiny(tmp_path, data, "b")
    rep_a = json.loads((out_a / "report.json").read_text())
    rep_b = json.loads((out_b / "report.json").read_text())
    assert rep_a["train_losses"] == rep_b["train_losses"]
    assert rep_a["val_mse"] == rep_b["val_mse"]
    assert (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
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
    code = main(["train", "--data", str(data), "--out", str(out)] + sets(TINY))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and "non-finite" in err and "Traceback" not in err
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


# ---------------------------------------------------------------------------
# eval


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trained")
    data = make_csv(tmp, rows=160)
    out = train_tiny(tmp, data)
    return data, out / "model.ckpt", out


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


def test_eval_dimension_mismatch_is_data_error(trained, tmp_path, capsys):
    _, ckpt, _ = trained
    other = make_csv(tmp_path, "three.csv", n_vars=3, rows=60, periods="12,18,24")
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(ckpt), "--data", str(other)])
    assert code == 2
    assert "variables" in capsys.readouterr().err


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


@pytest.mark.parametrize("defect", ["trailing-bytes", "non-finite-parameter", "static-not-stochastic"])
def test_eval_rejects_checkpoints_that_used_to_load(trained, tmp_path, capsys, defect):
    data, ckpt, _ = trained
    blob = ckpt.read_bytes()
    if defect == "trailing-bytes":
        bad_blob = blob + b"\x00\x00"
    elif defect == "non-finite-parameter":
        bad_blob = resealed(blob, blob.index(b"head.b2") + len(b"head.b2") + 1 + 4, np.inf)
    else:
        (head_len,) = struct.unpack("<I", blob[9:13])
        bad_blob = resealed(blob, 13 + head_len + 1, 0.75)
    bad = tmp_path / f"{defect}.ckpt"
    bad.write_bytes(bad_blob)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(bad), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert {"trailing-bytes": "trailing", "non-finite-parameter": "non-finite",
            "static-not-stochastic": "row-stochastic"}[defect] in err


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


# ---------------------------------------------------------------------------
# usage


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert capsys.readouterr().err != ""


def test_unknown_flag_is_usage_error(capsys):
    assert main(["eval", "--checkpoint", "x", "--data", "y", "--bogus"]) == 1
