"""Train-and-forecast benchmark for the sdgf package.

Usage, from the repository root:

    python3 bench/run.py --workload pinned --seed 1 --seconds 35 --trace 0
    python3 bench/run.py                # every workload, each in its own process

One workload runs in this process as a closed loop: one caller, batches
back to back. Timed set-ups, fixed ``training.train`` runs, optimizer
steps, ``no_grad`` forecasts and ``predict_split`` calls take turns, all
through the package's public API. ``--trace 0`` prints the end-to-end metrics,
measured with tracing off; ``--trace 1`` repeats the work with spans
around the package's stages (see ``spans.py``) and prints the per-layer
metrics. The last line of stdout is one JSON object; the exit code is 1
if a correctness check failed and 2 if the package cannot be imported.
See README.md in this directory for the metric and workload tables.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "out"
BATCH = 32
# Share of the measured time each activity gets. The next activity is
# always the one furthest behind its share, so every metric samples the
# whole run in short pieces.
SHARES = {"train": 0.4, "step": 0.2, "forecast": 0.1, "predict": 0.1, "setup": 0.1,
          "gauge": 0.1}
# Mean seconds of one ``HostGauge.run`` at the reference speed: what it
# took, interleaved with the workloads, on a 2-vCPU VM in its usual state.
GAUGE_S = 0.0025
TRACED_REPS = 5  # traced set-ups and checkpoint loads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Benchmark the package of this checkout, never an installed copy; with
# no package here there is nothing to measure, so exit 2 without a result.
if not (ROOT / "src" / "sdgf" / "__init__.py").is_file():
    print(f"no sdgf package under {ROOT / 'src'}", file=sys.stderr)
    raise SystemExit(2)
sys.path.insert(0, str(ROOT / "src"))
from sdgf import autodiff, data, errors, model, training  # noqa: E402

from spans import SpanRecorder  # noqa: E402  (needs the package on sys.path)


@dataclass(frozen=True)
class Workload:
    """Generated series, model shape and the fixed training run.

    ``ratios`` is the train/val/test split. The default 70/20/10 needs
    ten test-window spans of rows for one test batch; pinned and wide-db4
    take 60/20/20 and 50/25/25 instead, which keep one test batch while
    cutting a train() epoch to 18 and 11 steps. That bounds both the run
    time and the memory a long epoch holds: every step's graph stays
    alive until the cycle collector runs, and wide-db4's 61-step epoch at
    70/20/10 peaked near 4 GiB.
    """

    n_vars: int
    rows: int
    periods: tuple
    lag_pairs: tuple
    model: dict
    lr: float
    epochs: int
    noise: float = 0.1
    ratios: tuple = (0.7, 0.2, 0.1)
    model_seed: int = 0
    beats_repeat_last: bool = False


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "pinned": Workload(
        n_vars=7,
        rows=1280,
        periods=(24, 48, 96, 168, 12, 36, 72),
        lag_pairs=((0, 1, 6), (2, 3, 12), (4, 5, 3)),
        model=dict(input_len=96, horizon=96, hidden=64, levels=3, family="haar",
                   boundary="circular", depth=2, embed_dim=16),
        lr=1e-3,
        epochs=1,
        ratios=(0.6, 0.2, 0.2),
    ),
    "wide-db4": Workload(
        n_vars=21,
        rows=1280,
        periods=(24, 48, 96, 168, 12, 36, 72) * 3,
        lag_pairs=((0, 7, 6), (1, 8, 12), (2, 9, 24), (3, 14, 3), (4, 15, 9), (5, 16, 18)),
        model=dict(input_len=192, horizon=96, hidden=32, levels=4, family="db4",
                   boundary="symmetric", depth=2, embed_dim=16),
        lr=1e-3,
        epochs=1,
        ratios=(0.5, 0.25, 0.25),
    ),
    "small": Workload(
        n_vars=4,
        rows=2000,
        periods=(96, 24, 20, 96),
        lag_pairs=((0, 1, 18), (2, 3, 12)),
        model=dict(input_len=24, horizon=12, hidden=16, levels=2, depth=1, embed_dim=8),
        lr=5e-3,
        epochs=5,
        model_seed=3,
        beats_repeat_last=True,
    ),
}

# name -> unit. Printed on every workload.
END_TO_END = {
    "setup_s": "s",
    "train_step_ms_mean": "ms",
    "train_windows_per_s": "windows/s",
    "forecast_ms_mean": "ms",
    "forecast_windows_per_s": "windows/s",
    "val_mse": "mse",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "autodiff.conv1d_ms": "ms",
    "autodiff.conv1d_calls": "count",
    "temporal.inception_ms": "ms",
    "wavelet.decompose_ms": "ms",
    "graphs.dynamic_adjacency_ms": "ms",
    "graphs.dynamic_conv_ms": "ms",
    "graphs.static_conv_ms": "ms",
    "fusion.fuse_ms": "ms",
    "autodiff.backward_ms": "ms",
    "autodiff.graph_nodes": "count",
    "autodiff.guard_ms": "ms",
    "autodiff.graph_mb": "MB",
    "model.forward_ms": "ms",
    "model.forward_self_ms": "ms",
    "model.checkpoint_save_ms": "ms",
    "model.checkpoint_load_ms": "ms",
    "model.checkpoint_bytes": "bytes",
    "training.eval_s": "s",
    "training.loss_ms": "ms",
    "training.clip_ms": "ms",
    "training.adam_ms": "ms",
    "data.load_csv_ms": "ms",
    "data.make_windows_ms": "ms",
    "graphs.pearson_ms": "ms",
    "model.build_ms": "ms",
    "data.batch_ms": "ms",
    "training.step_ms_p50": "ms",
    "training.step_ms_p95": "ms",
    "forecast.ms_p50": "ms",
    "forecast.ms_p95": "ms",
    "error_rate": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_pct": "%",
}
# Per-step stage times taken from the traced training steps.
STEP_LAYERS = (
    "autodiff.conv1d", "temporal.inception", "wavelet.decompose", "graphs.dynamic_adjacency",
    "graphs.dynamic_conv", "graphs.static_conv", "fusion.fuse", "autodiff.backward",
    "model.forward", "training.loss", "training.clip", "training.adam", "data.batch",
)


@dataclass
class Outcome:
    """What one workload run measured and whether its checks held."""

    metrics: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


# ---------------------------------------------------------------------------
# Inputs and set-up


def write_inputs(wl: Workload, seed: int, path: pathlib.Path) -> None:
    """The generated CSV is all the package sees of the workload seed."""
    spec = data.SynthSpec(n_vars=wl.n_vars, rows=wl.rows, periods=list(wl.periods),
                          lag_pairs=list(wl.lag_pairs), noise=wl.noise, seed=seed)
    data.save_csv(data.synthesize(spec), str(path))


def set_up(wl: Workload, csv_path: pathlib.Path):
    """The ``sdgf train`` path: load, standardize on train rows, window, build."""
    table = data.load_csv(str(csv_path))
    length, horizon = wl.model["input_len"], wl.model["horizon"]
    raw = data.make_windows(table.values, length, horizon, wl.ratios)
    scaler = data.Scaler.fit(table.values[: raw.train_end])
    dataset = data.make_windows(scaler.transform(table.values), length, horizon, wl.ratios)
    cfg = model.ModelConfig(n_vars=table.n_vars, seed=wl.model_seed, **wl.model)
    net = model.build_model(cfg)
    model.set_static_graph(net, dataset.values[: dataset.train_end])
    extra = {"names": list(table.names), "scaler": scaler.to_dict()}
    return dataset, net, extra


def train_config(wl: Workload) -> training.TrainConfig:
    # patience == epochs: the run never stops early, so its work is fixed.
    return training.TrainConfig(
        lr=wl.lr, epochs=wl.epochs, patience=wl.epochs, batch=BATCH, seed=0
    )


# ---------------------------------------------------------------------------
# Host speed


class HostGauge:
    """Fixed memory-bound work outside the package, timed to gauge the host.

    Its inputs never change, so only the host changes its time: a pass
    over an 8 MB array and a scattered ``np.add.at``, the kinds of memory
    traffic that a step's graph of large arrays makes. It writes into
    buffers it owns, so the package's use of the heap does not change
    what the gauge allocates.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.values = rng.standard_normal(1 << 20)
        self.scaled = np.empty_like(self.values)
        self.index = rng.integers(0, 1 << 10, 1 << 17)
        self.bins = np.zeros(1 << 10)

    def run(self) -> float:
        began = perf_counter()
        np.multiply(self.values, 1.0001, out=self.scaled)
        np.add.at(self.bins, self.index, self.scaled[: 1 << 17])
        return perf_counter() - began


# ---------------------------------------------------------------------------
# Timed loops


def full_batches(starts: np.ndarray, seed: int):
    """Endless seeded sequence of full batches of window starts."""
    rng = np.random.default_rng(seed)
    while True:
        order = rng.permutation(starts)
        for i in range(0, len(order) - BATCH + 1, BATCH):
            yield order[i : i + BATCH]


class Stepper:
    """Optimizer steps on one model, exactly as ``training.train`` takes
    them, timed one at a time."""

    def __init__(self, out: Outcome, wl: Workload, net, dataset, seed: int):
        self.out, self.net, self.dataset = out, net, dataset
        self.cfg = train_config(wl)
        self.params = model.effective_parameters(net)
        self.state = training.AdamState(lr=self.cfg.lr)
        self.batches = full_batches(dataset.split_starts("train"), seed)
        self._step(next(self.batches))  # warm-up, untimed

    def _step(self, chunk) -> None:
        inputs, targets = self.dataset.batch(chunk)
        loss = training.mse_loss(model.forward(autodiff.Tensor(inputs), self.net), targets)
        grads = autodiff.backward(loss, self.params)
        training.clip_gradients(grads, self.cfg.clip)
        training.adam_step(self.params, grads, self.state)
        for p in self.params:
            p.zero_grad()

    def step(self, recorder=None) -> float | None:
        """Seconds of one timed step, or None if it raised."""
        chunk = next(self.batches)
        # Free the previous step's graph (cyclic garbage) outside the
        # timed region, so no step pays for its predecessors' collection.
        gc.collect()
        self.out.attempted += 1
        began = perf_counter()
        try:
            if recorder is None:
                self._step(chunk)
            else:
                with recorder.span("training.step", step=self.out.attempted):
                    self._step(chunk)
        except errors.SdgfError as exc:
            self.out.failed += 1
            self.out.failures.append(f"train step raised {exc!r}")
            return None
        return perf_counter() - began


class Forecaster:
    """``no_grad`` forwards on batches of test windows, timed one by one."""

    def __init__(self, out: Outcome, net, dataset):
        self.out, self.net, self.dataset = out, net, dataset
        starts = dataset.split_starts("test")
        self.chunks = [starts[i : i + BATCH] for i in range(0, len(starts) - BATCH + 1, BATCH)]
        self.k = 0

    def forecast(self) -> float | None:
        """Seconds of one timed batch, or None if it raised."""
        inputs, _ = self.dataset.batch(self.chunks[self.k % len(self.chunks)])
        self.k += 1
        self.out.attempted += 1
        began = perf_counter()
        try:
            with autodiff.no_grad():
                pred = model.forward(autodiff.Tensor(inputs), self.net)
        except errors.SdgfError as exc:
            self.out.failed += 1
            self.out.failures.append(f"forecast raised {exc!r}")
            return None
        elapsed = perf_counter() - began
        self.out.check(bool(np.all(np.isfinite(pred.data))), "forecast batch is not finite")
        return elapsed


def predict_test(out: Outcome, net, dataset) -> float:
    """Wall seconds of one ``predict_split`` over the test split (the ``sdgf eval`` path)."""
    out.attempted += 1
    began = perf_counter()
    preds, targets, _ = training.predict_split(net, dataset, "test", BATCH)
    wall = perf_counter() - began
    out.check(bool(np.all(np.isfinite(preds))), "predict_split forecasts are not finite")
    out.check(preds.shape == targets.shape, "predict_split shapes differ")
    return wall


def graph_stats(net, dataset) -> tuple[int, float]:
    """Nodes of one step's graph and the megabytes their values hold."""
    inputs, targets = dataset.batch(dataset.split_starts("train")[:BATCH])
    loss = training.mse_loss(model.forward(autodiff.Tensor(inputs), net), targets)
    seen = {id(loss)}
    stack = [loss]
    nbytes = 0
    while stack:
        node = stack.pop()
        nbytes += node.data.nbytes
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen), nbytes / 1e6


# ---------------------------------------------------------------------------
# One workload


def mean(xs) -> float:
    return float(statistics.fmean(xs))


def median(xs) -> float:
    return float(statistics.median(xs))


def p95(xs) -> float:
    return float(statistics.quantiles(xs, n=20)[-1]) if len(xs) > 1 else float(xs[0])


def check_forecasts(out: Outcome, wl: Workload, best, dataset, val_mse: float) -> None:
    """The checkpoint round trip is bit-exact and the best model is what train() scored."""
    inputs, _ = dataset.batch(dataset.split_starts("test")[:BATCH])
    again, _ = model.load_checkpoint(model.save_checkpoint(best))
    with autodiff.no_grad():
        first = model.forward(autodiff.Tensor(inputs), best).data
        second = model.forward(autodiff.Tensor(inputs), again).data
    out.check(bool(np.all(np.isfinite(first))), "test forecast is not finite")
    out.check(np.array_equal(first, second), "forecast differs after a checkpoint round trip")
    rescored, _ = training.evaluate(best, dataset, "val", BATCH)
    out.check(rescored == val_mse,
              f"best checkpoint scores {rescored!r} on val, train() said {val_mse!r}")
    if wl.beats_repeat_last:
        baseline, _ = training.repeat_last_metrics(dataset, "val")
        out.check(val_mse < baseline,
                  f"val mse {val_mse:.6g} does not beat repeat-last {baseline:.6g}")


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, csv_path: pathlib.Path,
                 spans_path: pathlib.Path) -> Outcome:
    """Untraced work for ``seconds`` (half of it when tracing follows).

    After an untimed warm-up, the activities are a fixed ``train()`` run
    on a fresh set-up, one optimizer step, one no_grad forecast batch,
    one ``predict_split``, a timed set-up with a timed checkpoint load,
    and one ``HostGauge`` pass. Each turn runs the one furthest behind
    its share of ``SHARES``, so every metric samples the whole run in
    pieces of at most one ``train()``. The host's speed drifts: within
    seconds between two levels about 1.4x apart, where a median jumps
    but a mean moves in proportion, and over minutes for whole runs,
    which the gauge measures. So the gated timings are means, scaled to
    the speed at which the gauge takes ``GAUGE_S``.
    """
    out = Outcome()
    write_inputs(wl, seed, csv_path)
    # An untimed first train() gives the checkpoint the forecasts use and
    # grows the heap to its working size, which later runs reuse.
    dataset, net, extra = set_up(wl, csv_path)
    report, blob = training.train(net, dataset, train_config(wl), extra=extra)
    val_mses = [report.best_val_mse]
    best, _ = model.load_checkpoint(blob)
    check_forecasts(out, wl, best, dataset, report.best_val_mse)
    stepper = Stepper(out, wl, net, dataset, seed)
    forecaster = Forecaster(out, best, dataset)
    forecaster.forecast()  # warm-up, untimed
    gauge = HostGauge()
    gauge.run()  # warm-up, untimed

    times = {kind: [] for kind in SHARES}
    load_times = []
    spent = dict.fromkeys(SHARES, 0.0)
    deadline = perf_counter() + (seconds / 2 if trace else seconds)
    while perf_counter() < deadline or not all(times.values()):
        kind = min(SHARES, key=lambda k: spent[k] / SHARES[k])
        if kind == "train":
            gc.collect()
            train_set, train_net, extra = set_up(wl, csv_path)
            began = perf_counter()
            report, _ = training.train(train_net, train_set, train_config(wl), extra=extra)
            elapsed = perf_counter() - began
            out.check(report.epochs_run == wl.epochs,
                      f"train ran {report.epochs_run} of {wl.epochs} epochs")
            val_mses.append(report.best_val_mse)
        elif kind == "setup":
            began = perf_counter()
            set_up(wl, csv_path)
            elapsed = perf_counter() - began
            began = perf_counter()
            model.load_checkpoint(blob)
            load_times.append(perf_counter() - began)
            spent[kind] += load_times[-1]
        elif kind == "step":
            elapsed = stepper.step()
        elif kind == "forecast":
            elapsed = forecaster.forecast()
        elif kind == "gauge":
            elapsed = gauge.run()
        else:
            elapsed = predict_test(out, best, dataset)
        if elapsed is None:  # raised; counted in out.failed
            elapsed = 0.0
        else:
            times[kind].append(elapsed)
        spent[kind] += elapsed
        if elapsed == 0.0 and perf_counter() >= deadline:
            break
    out.check(len(set(val_mses)) == 1,
              f"repeated train() runs disagree: val mse {sorted(set(val_mses))}")

    m = out.metrics
    step_times, forecast_times = times["step"], times["forecast"]
    # Times at the reference host speed: in a run whose gauge took 30%
    # longer than GAUGE_S, every time is divided by 1.3.
    slowdown = mean(times["gauge"]) / GAUGE_S
    m["setup_s"] = (mean(times["setup"]) + mean(load_times)) / slowdown
    m["train_step_ms_mean"] = 1e3 * mean(step_times) / slowdown
    # Throughputs are windows over the mean wall time of one call.
    train_windows = wl.epochs * len(dataset.split_starts("train"))
    m["train_windows_per_s"] = train_windows / mean(times["train"]) * slowdown
    m["forecast_ms_mean"] = 1e3 * mean(forecast_times) / slowdown
    test_windows = len(dataset.split_starts("test"))
    m["forecast_windows_per_s"] = test_windows / mean(times["predict"]) * slowdown
    m["val_mse"] = val_mses[0]
    out.samples = {"setup": len(times["setup"]), "checkpoint_load": len(load_times),
                   "train_runs": len(times["train"]), "train_windows": train_windows,
                   "train_steps": len(step_times), "forecast_batches": len(forecast_times),
                   "predict_split": len(times["predict"]), "test_windows": test_windows,
                   "measured_s": sum(spent.values()), "gauge": len(times["gauge"]),
                   "host_slowdown": slowdown}
    if trace:
        step_times += traced_run(out, wl, seed, seconds, csv_path, val_mses[0], stepper, best,
                                 spans_path)
    m["training.step_ms_p50"] = 1e3 * median(step_times)
    m["training.step_ms_p95"] = 1e3 * p95(step_times)
    m["forecast.ms_p50"] = 1e3 * median(forecast_times)
    m["forecast.ms_p95"] = 1e3 * p95(forecast_times)
    m["error_rate"] = out.failed / out.attempted
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def traced_run(out: Outcome, wl: Workload, seed: int, seconds: float, csv_path, val_mse: float,
               stepper: Stepper, best, spans_path: pathlib.Path) -> list[float]:
    """Repeat the work with spans on and derive the per-layer metrics.

    Untraced, traced and guard-off traced steps alternate on one model,
    so the overhead and guard figures compare like with like.
    Returns the untraced step times it took.
    """
    m = out.metrics
    rec = SpanRecorder()
    with rec.installed():
        for k in range(TRACED_REPS):
            with rec.span("setup", step=k):
                set_up(wl, csv_path)
        with rec.span("train"):
            dataset, net, extra = set_up(wl, csv_path)
            report, _ = training.train(net, dataset, train_config(wl), extra=extra)
        blob = model.save_checkpoint(best)
        for _ in range(TRACED_REPS):
            model.load_checkpoint(blob)
    out.check(report.best_val_mse == val_mse,
              f"traced train() gives val mse {report.best_val_mse!r}, untraced {val_mse!r}")

    # One step of each kind in turn: a slow spell of the host lasts
    # seconds, so neighbouring steps see the same machine.
    bare = SpanRecorder()
    untraced, traced, unguarded = [], [], []
    deadline = perf_counter() + 0.4 * seconds
    while (len(unguarded) < 10 and not out.failed) or perf_counter() < deadline:
        bare_step = stepper.step()
        with rec.installed():
            traced_step = stepper.step(recorder=rec)
        previous = autodiff.set_finite_checks(False)
        try:
            with bare.installed():
                unguarded_step = stepper.step(recorder=bare)
        finally:
            autodiff.set_finite_checks(previous)
        if None not in (bare_step, traced_step, unguarded_step):
            untraced.append(bare_step)
            traced.append(traced_step)
            unguarded.append(unguarded_step)
    rec.dump(spans_path)

    durations, inclusive, exclusive, calls = rec.per_root("training.step")
    for name in STEP_LAYERS:
        m[f"{name}_ms"] = 1e3 * median(inclusive[name])
    m["model.forward_self_ms"] = 1e3 * median(exclusive["model.forward"])
    m["autodiff.conv1d_calls"] = median(calls["autodiff.conv1d"])
    m["trace.coverage"] = sum(map(sum, exclusive.values())) / sum(durations)
    # Medians of per-triple differences: each triple ran back to back.
    m["trace.overhead_pct"] = 100.0 * median([t / u - 1.0 for u, t in zip(untraced, traced)])
    m["autodiff.guard_ms"] = 1e3 * median([t - g for t, g in zip(traced, unguarded)])
    out.check(m["trace.coverage"] >= 0.9, f"spans cover {m['trace.coverage']:.3f} < 0.9 of a step")

    _, setup_inclusive, _, _ = rec.per_root("setup")
    for span in ("data.load_csv", "data.make_windows", "graphs.pearson", "model.build"):
        m[f"{span}_ms"] = 1e3 * median(setup_inclusive[span])
    _, train_inclusive, _, train_calls = rec.per_root("train")
    m["training.eval_s"] = train_inclusive["training.eval"][0] / train_calls["training.eval"][0]
    m["model.checkpoint_save_ms"] = 1e3 * median(rec.durations("model.checkpoint_save"))
    m["model.checkpoint_load_ms"] = 1e3 * median(rec.durations("model.checkpoint_load"))
    m["model.checkpoint_bytes"] = len(blob)
    m["autodiff.graph_nodes"], m["autodiff.graph_mb"] = graph_stats(net, dataset)
    out.samples.update(traced_steps=len(traced), untraced_steps_in_trace=len(untraced),
                       unguarded_steps=len(unguarded), spans=len(rec.spans))
    return untraced


# ---------------------------------------------------------------------------
# Reporting


def git_head() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(seed: int, samples: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = None
    return {
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_head": git_head(),
        "seed": seed,
        "samples": samples,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    wl = WORKLOADS[name]
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-{seed}-", dir=WORK_DIR) as tmp:
        csv_path = pathlib.Path(tmp) / "series.csv"
        spans_path = WORK_DIR / f"spans-{name}-{seed}.jsonl"
        out = run_workload(wl, seed, seconds, trace, csv_path, spans_path)
    names = PER_LAYER if trace else END_TO_END
    print("env " + json.dumps(environment(seed, out.samples), sort_keys=True))
    for key, value in out.metrics.items():
        unit = END_TO_END.get(key) or PER_LAYER[key]
        print(f"{name} {key} = {value:.6g} {unit}")
    for message in out.failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    correct = not out.failures
    result = {
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": out.metrics[k], "unit": u} for k, u in names.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        # Each workload in a fresh process, so peak RSS and caches are its own.
        status = 0
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status = max(status, subprocess.run(cmd, check=False).returncode)
        return status
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
