"""Command-line entry points: train, eval, ablate, synth.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric
failure, 130 interrupted (Ctrl-C, or a SIGTERM, which ``main`` turns into
the same ``KeyboardInterrupt`` while it runs and then hands back to the
handler it found). Every command that writes outputs
also writes the fully resolved configuration next to them, and every
output file is replaced whole or not at all (``data.atomic_open``), so
an interrupt leaves a file being written as it was. When training hits
a numeric failure, ``sdgf train`` writes the best checkpoint so far (or,
when no epoch ended, removes the ``model.ckpt`` an earlier run left) and
a partial report naming the epoch and the error, then exits 3. When one
variant of ``sdgf ablate`` does, in training or in scoring, the others
still run, their checkpoints and ``ablation.csv`` rows are written, no
checkpoint is left for the failed one, and the error line names it
before the exit with 3. Numpy's floating-point warnings are off in every
command, so stderr carries the ``error:`` line alone: the autodiff guard
checks every op's output in training and each forecast's output (with
a replay that names the op, see ``autodiff.guard_once``), and the
metrics and scaler statistics check their own results, each raising
``NumericError`` on a non-finite value.
Every JSON file is strict: a value that is not finite, such as the best
validation MSE of a run that failed before any epoch ended, is written
as ``null``. A failed allocation (``MemoryError``) is an environment
error: one ``error:`` line and exit 2, like a data error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import pathlib
import signal
import sys

import numpy as np

from . import config as cf
from . import model as md
from . import training as tr
from .data import Scaler, atomic_open, load_csv, make_windows, save_csv, synthesize
from .errors import (
    ConfigError,
    DataError,
    NumericError,
    SdgfError,
    ShapeError,
)


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors map to exit code 1."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sdgf", description="Graph-fusion forecaster")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    train = sub.add_parser("train", help="fit a model and write the best checkpoint")
    _config_args(train)
    train.set_defaults(func=_cmd_train)

    evl = sub.add_parser("eval", help="score a checkpoint on a dataset split")
    evl.add_argument("--checkpoint", required=True)
    evl.add_argument("--data", required=True)
    evl.add_argument("--split", default="test", choices=("train", "val", "test"))
    evl.add_argument("--batch", type=_positive_int, default=32)
    evl.add_argument("--out", help="output directory (default: the checkpoint's)")
    evl.add_argument("--export-predictions", action="store_true")
    evl.add_argument("--dump-attention", action="store_true")
    evl.add_argument("--dump-graphs", action="store_true")
    evl.set_defaults(func=_cmd_eval)

    abl = sub.add_parser("ablate", help="train full and ablated variants, compare")
    _config_args(abl)
    abl.add_argument("--mode", required=True, help="gsl, gf, tfl, or all three")
    abl.set_defaults(func=_cmd_ablate)

    syn = sub.add_parser("synth", help="write a synthetic dataset CSV")
    syn.add_argument("--config")
    syn.add_argument("--set", action="append", metavar="KEY=VALUE")
    syn.add_argument("--out", help="output CSV path (overrides synth.out)")
    syn.set_defaults(func=_cmd_synth)
    return parser


def _positive_int(text: str) -> int:
    """argparse type for a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _config_args(parser) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE")
    parser.add_argument("--data", help="dataset CSV (overrides data.path)")
    parser.add_argument("--out", help="output directory (overrides out.dir)")


def _resolve_config(args) -> cf.RunConfig:
    cfg = cf.RunConfig.load(args.config) if args.config else cf.RunConfig.defaults()
    cfg = cfg.override(args.set or [])
    values = dict(cfg.values)
    if getattr(args, "data", None):
        values["data.path"] = args.data
    if getattr(args, "out", None):
        values["out.dir"] = args.out
    return cf.RunConfig(values)


def _prepare_dataset(cfg: cf.RunConfig):
    """Load, standardize on train-split statistics, window.

    Returns the table, the windows and the checkpoint ``extra``: the
    column names and the scaler that ``sdgf eval`` applies again.
    """
    path = cfg["data.path"]
    if not path:
        raise ConfigError("data.path is required (set it in the config or via --data)")
    table = load_csv(path)
    dataset = make_windows(table.values, cfg["model.input_len"], cfg["model.horizon"])
    # Splits depend only on the row count, so only the values change.
    scaler = Scaler.fit(table.values[: dataset.train_end])
    dataset = dataclasses.replace(dataset, values=scaler.transform(table.values))
    return table, dataset, {"names": list(table.names), "scaler": scaler.to_dict()}


def _out_dir(cfg: cf.RunConfig) -> pathlib.Path:
    out = pathlib.Path(cfg["out.dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _metric_line(split: str, mse: float, mae: float) -> str:
    return f"split={split} mse={mse:.12g} mae={mae:.12g}"


def _write_bytes(path, blob: bytes) -> None:
    with atomic_open(path, "wb") as handle:
        handle.write(blob)


def _finite_or_null(value):
    """``value`` with every float that is not finite replaced by ``None``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _write_json(path, payload: dict, **kwargs) -> None:
    """Write strict JSON: a float that is not finite becomes ``null``."""
    with atomic_open(path, "w", encoding="utf-8") as handle:
        json.dump(_finite_or_null(payload), handle, allow_nan=False, **kwargs)


# ---------------------------------------------------------------------------
# train


def _cmd_train(args) -> int:
    cfg = _resolve_config(args)
    table, dataset, extra = _prepare_dataset(cfg)
    model = md.build_model(cf.model_config(cfg, table.n_vars))
    try:
        report, blob = tr.train(model, dataset, cf.train_config(cfg), extra=extra)
    except NumericError as exc:
        # Keep what the run had earned before it failed; main() exits 3.
        # With no epoch earned, an older run's checkpoint would sit beside
        # this run's report and resolved.cfg as if it belonged to them.
        out = _out_dir(cfg)
        if exc.checkpoint:
            _write_bytes(out / "model.ckpt", exc.checkpoint)
        else:
            (out / "model.ckpt").unlink(missing_ok=True)
        cfg.save(out / "resolved.cfg")
        _write_json(
            out / "report.json",
            {**exc.report.to_dict(), "failed_epoch": exc.epoch, "error": str(exc)},
            indent=2,
            sort_keys=True,
        )
        raise
    out = _out_dir(cfg)
    _write_bytes(out / "model.ckpt", blob)
    cfg.save(out / "resolved.cfg")

    best, _ = md.load_checkpoint(blob)
    payload = report.to_dict()
    if len(dataset.split_starts("test")) > 0:
        test_mse, test_mae = tr.evaluate(best, dataset, "test", cfg["train.batch"])
        payload["test_mse"] = test_mse
        payload["test_mae"] = test_mae
        payload["repeat_last_mse"], payload["repeat_last_mae"] = tr.repeat_last_metrics(
            dataset, "test"
        )
        print(_metric_line("test", test_mse, test_mae))
    _write_json(out / "report.json", payload, indent=2, sort_keys=True)
    print(f"best epoch {report.best_epoch} val mse {report.best_val_mse:.12g}")
    print(f"wrote {out / 'model.ckpt'}")
    return 0


# ---------------------------------------------------------------------------
# eval


def _branch_names(model: md.SdgfModel) -> list:
    scales = [f"detail_{i}" for i in range(1, model.config.levels + 1)] + ["approx"]
    return ["static", *scales]


def _load_eval_dataset(model: md.SdgfModel, extra: dict, path: str):
    table = load_csv(path)
    if table.n_vars != model.config.n_vars:
        raise ShapeError(
            f"checkpoint expects {model.config.n_vars} variables,"
            f" dataset {path!r} has {table.n_vars}"
        )
    # The scaler and the static graph belong to the columns the model was
    # trained on, in that order; a checkpoint written without names
    # (``training.train(extra=None)``) is taken as it is.
    if "names" in extra:
        names = extra["names"]
        if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
            raise DataError("stored column names are not a list of strings")
        for i, (want, got) in enumerate(itertools.zip_longest(names, table.names), 1):
            if want != got:
                raise DataError(
                    f"column {i} of {path!r} is {got!r}, but the checkpoint was trained on"
                    f" {want!r}"
                )
    values = table.values
    if extra.get("scaler") is not None:
        values = Scaler.from_dict(extra["scaler"], table.n_vars).transform(values)
    dataset = make_windows(values, model.config.input_len, model.config.horizon)
    return table, dataset


def _cmd_eval(args) -> int:
    try:
        blob = pathlib.Path(args.checkpoint).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {args.checkpoint!r}: {exc}") from exc
    model, extra = md.load_checkpoint(blob)
    table, dataset = _load_eval_dataset(model, extra, args.data)

    details = _DetailSums() if args.dump_attention or args.dump_graphs else None
    preds, targets, _ = tr.predict_split(
        model, dataset, args.split, args.batch, details.add if details else None
    )
    split_mse, split_mae = tr.mse(preds, targets), tr.mae(preds, targets)
    print(_metric_line(args.split, split_mse, split_mae))

    wants_files = args.export_predictions or args.dump_attention or args.dump_graphs
    if not wants_files:
        return 0
    out = pathlib.Path(args.out) if args.out else pathlib.Path(args.checkpoint).parent
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "checkpoint": str(args.checkpoint),
        "data": str(args.data),
        "split": args.split,
        "batch": args.batch,
        "mse": split_mse,
        "mae": split_mae,
    }
    _write_json(out / f"eval_{args.split}.json", manifest, indent=2, sort_keys=True)

    if args.export_predictions:
        path = out / f"predictions_{args.split}.csv"
        _write_predictions(path, table.names, preds, targets)
        print(f"wrote {path}")
    if args.dump_attention:
        path = out / f"attention_{args.split}.json"
        weights = np.concatenate(details.alphas)
        _write_json(path, {"branch_names": _branch_names(model), "weights": weights.tolist()})
        print(f"wrote {path}")
    if args.dump_graphs:
        path = out / "static_graph.csv"
        _write_adjacency(path, table.names, details.static)
        print(f"wrote {path}")
        dynamic_means = details.dynamic_sum / details.windows
        for name, mean_adj in zip(_branch_names(model)[1:], dynamic_means):
            path = out / f"dynamic_graph_{name}.csv"
            _write_adjacency(path, table.names, mean_adj)
            print(f"wrote {path}")
    return 0


def _write_predictions(path, names, preds, targets) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["window", "variable", "step", "y_true", "y_pred"])
        count, horizon, _ = preds.shape
        for w in range(count):
            for v, name in enumerate(names):
                for step in range(horizon):
                    writer.writerow(
                        [w, name, step + 1,
                         f"{targets[w, step, v]:.17g}", f"{preds[w, step, v]:.17g}"]
                    )


def _write_adjacency(path, names, matrix) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["node", *names])
        for name, row in zip(names, np.asarray(matrix)):
            writer.writerow([name, *(f"{v:.17g}" for v in row)])


@dataclasses.dataclass
class _DetailSums:
    """Fusion weights per window, the static adjacency and the summed dynamic
    adjacencies, gathered from the forward pass that scores the split."""

    alphas: list = dataclasses.field(default_factory=list)
    static: np.ndarray | None = None
    dynamic_sum: np.ndarray | float = 0.0
    windows: int = 0

    def add(self, details: dict) -> None:
        self.alphas.append(details["alpha"])
        self.static = details["static"]
        self.dynamic_sum = self.dynamic_sum + details["dynamic"].sum(axis=1)
        self.windows += len(details["alpha"])


# ---------------------------------------------------------------------------
# ablate


def _cmd_ablate(args) -> int:
    cfg = _resolve_config(args)
    # Reject bad modes before spending time on training.
    if args.mode == "all":
        modes = md.ABLATION_MODES
    elif args.mode in md.ABLATION_MODES:
        modes = (args.mode,)
    else:
        raise ConfigError(
            f"unknown ablation mode {args.mode!r}; available: {(*md.ABLATION_MODES, 'all')}"
        )
    table, dataset, extra = _prepare_dataset(cfg)
    # Every variant is scored on the test split: fail before any training.
    if len(dataset.split_starts("test")) == 0:
        raise DataError("split 'test' has no windows")
    tcfg = cf.train_config(cfg)
    out = _out_dir(cfg)
    cfg.save(out / "resolved.cfg")

    results = {}
    failed = []
    for mode in (None, *modes):
        label = "full" if mode is None else f"wo-{mode}"
        model = md.build_model(cf.model_config(cfg, table.n_vars))
        if mode is not None:
            model = md.ablate(model, mode)
        checkpoint = out / f"{label}.ckpt"
        try:
            _, blob = tr.train(model, dataset, tcfg, extra=extra)
            best, _ = md.load_checkpoint(blob)
            results[label] = tr.evaluate(best, dataset, "test", tcfg.batch)
        except NumericError as exc:
            # The other variants still run; main() exits 3 at the end. A
            # checkpoint left by an earlier run would sit beside an
            # ablation.csv with no row for it.
            failed.append(f"variant {label}: {exc}")
            checkpoint.unlink(missing_ok=True)
            continue
        _write_bytes(checkpoint, blob)
    results["repeat-last"] = tr.repeat_last_metrics(dataset, "test")

    lines = ["model,metric,value"]
    for metric, index in (("mse", 0), ("mae", 1)):
        for label in results:
            lines.append(f"{label},{metric},{results[label][index]:.12g}")
    report = "\n".join(lines) + "\n"
    with atomic_open(out / "ablation.csv", "w", encoding="utf-8") as handle:
        handle.write(report)
    sys.stdout.write(report)
    if failed:
        raise NumericError("ablation " + "; ".join(failed))
    return 0


# ---------------------------------------------------------------------------
# synth


def _cmd_synth(args) -> int:
    cfg = cf.RunConfig.load(args.config) if args.config else cf.RunConfig.defaults()
    cfg = cfg.override(args.set or [])
    out = args.out or cfg["synth.out"]
    if not out:
        raise ConfigError("an output path is required (synth.out or --out)")
    table = synthesize(cf.synth_spec(cfg))
    path = pathlib.Path(out)
    if path.parent != pathlib.Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    save_csv(table, path)
    cfg.save(str(path) + ".cfg")
    print(f"wrote {path} ({table.rows} rows x {table.n_vars} vars)")
    return 0


# ---------------------------------------------------------------------------


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    try:
        previous = signal.signal(signal.SIGTERM, _interrupt)
    except ValueError:  # not the main thread, whose signals are not ours to take
        return _run(argv)
    try:
        return _run(argv)
    finally:
        # None stands for a handler that was not installed from Python.
        signal.signal(signal.SIGTERM, signal.SIG_DFL if previous is None else previous)


def _run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # Every non-finite value a command can produce is caught by a
        # check that raises a typed error (the autodiff guard, the
        # metrics, the scaler); numpy's own warnings would only repeat
        # it, as raw lines on stderr ahead of the error line.
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SdgfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
