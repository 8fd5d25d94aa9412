r"""Dataset ingestion, sliding windows, chronological splits, synthesis.

CSV files are UTF-8, with or without the byte-order mark spreadsheet
exports write, and ETT-style: a header row, an optional leading
"date" column, and float64 values everywhere else. The file is decoded
in one read, so a file that does not decode is a ``DataError`` that
names the bad byte's offset in the file (after the mark, if any).

A *plain* file is parsed by one ``np.loadtxt`` call. Plain means: no
``"`` and no NUL; lines end in ``\n`` or ``\r\n`` and hold no other
``\r`` (the last line may also end in a lone ``\r``, which
``csv.reader`` reads the same way); no line is blank or longer than
``csv.field_size_limit()``; and every data line has the header's number
of commas (``loadtxt`` raises on a changed column count, and a table
whose shape is not (data lines, names) is dropped). ``str.partition``
splits the date cell off each line. numpy strips the same whitespace as
``str.strip`` and converts with ``PyOS_string_to_double``, the routine
``float`` uses, so a table it returns with every value finite is the
exact path's table bit for bit; any other outcome falls back.

The exact path takes every other file, and every plain file that
``loadtxt`` rejects, so it owns quoted cells, the forms only ``float``
reads (``1_0``, non-ASCII digits) and every error message.
``csv.reader`` splits the rows, and a row it cannot split (a field past
its size limit) is a ``DataError``. One pass over the rows checks each
row's width, takes its date cell and gathers its value cells into one
flat list, and one call converts that list (``str.strip``, then
``float``, so blank cells and the separator characters ``str.strip``
removes but ``float`` does not read as they always have), and one
``np.isfinite`` over the result rejects ``inf``, ``nan`` and cells such
as ``1e400`` that overflow to infinity: a forecaster has no use for a
value that is not a number. Only a file that fails the width check, the
conversion or the finiteness check is scanned again cell by cell, to
name its first defect in file order.

Exports use 17 significant digits so a save/load round trip is
bit-exact, and every file this package writes goes through
``atomic_open``, so a failed write leaves the previous file whole.

Windows are stride-1 (input_len rows in, horizon rows out). Splits are
chronological by row count; a window belongs to a split only when every
row it touches lies inside that split's range, so train windows can
never peek at validation or test rows.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import pathlib
import secrets
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from .errors import ConfigError, DataError, NumericError


@dataclass
class SeriesTable:
    """A dense multivariate series: (rows, n_vars) values plus names."""

    values: np.ndarray
    names: list[str]
    timestamps: list[str] | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DataError(f"series values must be 2-d, got shape {self.values.shape}")
        if len(self.names) != self.values.shape[1]:
            raise DataError(
                f"{len(self.names)} names for {self.values.shape[1]} variables"
            )
        if self.timestamps is not None:
            if len(self.timestamps) != self.values.shape[0]:
                raise DataError(
                    f"{len(self.timestamps)} timestamps for {self.values.shape[0]} rows"
                )
            # Only a column of ISO stamps is judged, by time: any other
            # (1/9/2020, or offsets mixed with none) is taken in file order.
            stamps = self.timestamps
            try:
                times = [datetime.fromisoformat(t) for t in stamps]
                i = next((i for i in range(1, len(times)) if times[i] <= times[i - 1]), 0)
            except (ValueError, TypeError):
                i = 0
            if i:
                raise DataError(
                    f"timestamps not strictly increasing at row {i + 1}:"
                    f" {stamps[i]!r} after {stamps[i - 1]!r}"
                )

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_vars(self) -> int:
        return self.values.shape[1]


def load_csv(path: str) -> SeriesTable:
    """Parse a header + float rows; the first column may be dates."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot parse {path}: {exc}") from None
    table = _plain_table(text)
    if table is not None:
        return table
    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise DataError(f"cannot parse {path}: {exc}") from None
    if not rows:
        raise DataError(f"{path} is empty")
    header = [c.strip() for c in rows[0]]
    if not header:
        raise DataError(f"{path} has an empty header row")
    has_dates = header[0].lower() == "date"
    names = header[1:] if has_dates else header
    if not names:
        raise DataError(f"{path} has no value columns")
    data_rows = rows[1:]
    if not data_rows:
        raise DataError(f"{path} has a header but no data rows")

    width = len(header)
    timestamps: list[str] | None = [] if has_dates else None
    cells: list[str] = []
    for row in data_rows:
        if len(row) != width:
            raise _first_defect(data_rows, width, names, has_dates)
        if has_dates:
            timestamps.append(row[0].strip())
            cells.extend(row[1:])
        else:
            cells.extend(row)
    try:
        values = np.fromiter(map(float, map(str.strip, cells)), np.float64, len(cells))
    except ValueError:
        raise _first_defect(data_rows, width, names, has_dates) from None
    if not np.isfinite(values).all():
        raise _first_defect(data_rows, width, names, has_dates)
    return SeriesTable(
        values=values.reshape(len(data_rows), len(names)), names=names, timestamps=timestamps
    )


def _plain_table(text: str) -> SeriesTable | None:
    """The table of a plain file's ``text``, or None when it needs ``csv.reader``.

    None also when ``np.loadtxt`` fails on the values or reads one that is
    not finite: the ``csv.reader`` path then names the defect.
    """
    if '"' in text or "\0" in text:
        return None
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    lines = [line.removesuffix("\r") for line in lines]
    limit = csv.field_size_limit()
    if len(lines) < 2 or any(not line or "\r" in line or len(line) > limit for line in lines):
        return None
    header = [c.strip() for c in lines[0].split(",")]
    has_dates = header[0].lower() == "date"
    names = header[1:] if has_dates else header
    if not names:
        return None
    lines = lines[1:]
    timestamps = None
    if has_dates:
        parts = [line.partition(",") for line in lines]
        timestamps = [stamp.strip() for stamp, _, _ in parts]
        lines = [rest for _, _, rest in parts]
        if not all(lines):
            return None
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if values.shape != (len(lines), len(names)) or not np.isfinite(values).all():
        return None
    return SeriesTable(values=values, names=names, timestamps=timestamps)


def _first_defect(rows: list, width: int, names: list, has_dates: bool) -> DataError:
    """The error for the first bad row or cell of ``rows``, in file order.

    Called only once the fast path has failed on ``rows``, so a defect exists.
    """
    for r, row in enumerate(rows, start=1):
        if len(row) != width:
            return DataError(f"row {r} has {len(row)} cells, header has {width} columns")
        for name, cell in zip(names, row[1:] if has_dates else row):
            text = cell.strip()
            if not text:
                return DataError(f"missing value at row {r}, column {name!r}")
            try:
                value = float(text)
            except ValueError:
                return DataError(f"non-numeric value {text!r} at row {r}, column {name!r}")
            if not math.isfinite(value):
                return DataError(f"non-finite value {text!r} at row {r}, column {name!r}")


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open ``path`` for writing so that it is replaced whole or not at all.

    ``mode`` is ``"w"`` or ``"wb"``; ``kwargs`` go to ``open``. Writes go
    to a new temporary file in the same directory, which is flushed to
    disk and renamed over ``path`` (``os.replace``) when the block ends.
    If the block raises, the temporary file is removed and ``path`` keeps
    whatever it held before.
    """
    path = pathlib.Path(path)
    temp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    handle = open(temp, mode.replace("w", "x"), **kwargs)
    try:
        with handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def save_csv(table: SeriesTable, path: str) -> None:
    """Write a table back out; 17 significant digits round-trip float64."""
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if table.timestamps is not None:
            writer.writerow(["date", *table.names])
            for stamp, row in zip(table.timestamps, table.values):
                writer.writerow([stamp, *(f"{v:.17g}" for v in row)])
        else:
            writer.writerow(table.names)
            for row in table.values:
                writer.writerow([f"{v:.17g}" for v in row])


@dataclass
class Scaler:
    """Per-variable standardization statistics from the training rows."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, values: np.ndarray) -> "Scaler":
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1:
            raise DataError(f"cannot fit a scaler on shape {values.shape}")
        mean, std = values.mean(axis=0), values.std(axis=0)
        # Finite values can still overflow the statistics, and an inf
        # std would quietly scale every value to 0.
        if not (np.isfinite(mean).all() and np.isfinite(std).all()):
            raise NumericError("scaler statistics produced a non-finite value")
        # Constant columns scale by 1 so transform stays defined.
        return cls(mean=mean, std=np.where(std < 1e-12, 1.0, std))

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=np.float64) - self.mean) / self.std

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d: dict, n_vars: int) -> "Scaler":
        """The scaler ``to_dict`` wrote; ``d`` comes from a file, so it is checked."""
        try:
            mean = np.asarray(d["mean"], dtype=np.float64)
            std = np.asarray(d["std"], dtype=np.float64)
        except (KeyError, TypeError, ValueError):
            raise DataError("stored scaler is not a dict of mean and std lists") from None
        finite = np.isfinite(mean).all() and np.isfinite(std).all()
        if not (mean.shape == std.shape == (n_vars,) and finite and (std > 0.0).all()):
            raise DataError(f"stored scaler needs finite mean and std > 0 for {n_vars} variables")
        return cls(mean=mean, std=std)


SPLITS = ("train", "val", "test")


@dataclass
class WindowDataset:
    """All stride-1 windows over a series plus per-split index lists."""

    values: np.ndarray
    input_len: int
    horizon: int
    train_end: int
    val_end: int
    splits: dict = field(default_factory=dict)

    def split_starts(self, split: str) -> np.ndarray:
        if split not in SPLITS:
            raise ConfigError(f"unknown split {split!r}; available: {SPLITS}")
        return self.splits[split]

    def batch(self, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Materialize (inputs, targets) for the given window starts."""
        starts = np.asarray(starts, dtype=np.intp)
        steps = np.arange(self.input_len + self.horizon)
        windows = self.values[starts[:, None] + steps[None, :]]
        return windows[:, : self.input_len], windows[:, self.input_len :]


def make_windows(
    values: np.ndarray,
    input_len: int,
    horizon: int,
    ratios: tuple[float, float, float] = (0.7, 0.2, 0.1),
) -> WindowDataset:
    """Enumerate windows and assign them to chronological splits.

    A window starting at row i covers rows [i, i + input_len + horizon);
    it joins a split only if that whole range lies inside the split.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise DataError(f"series values must be 2-d, got shape {values.shape}")
    if input_len < 1 or horizon < 1:
        raise ConfigError(f"input_len and horizon must be >= 1, got {input_len}, {horizon}")
    if len(ratios) != 3 or any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must be three positive numbers summing to 1: {ratios}")
    rows = values.shape[0]
    span = input_len + horizon
    if rows < span:
        raise DataError(f"need at least {span} rows for one window, got {rows}")
    # The nudge keeps exact products exact: 0.7 + 0.2 rounds below 0.9,
    # and 100 * that would otherwise truncate to 89.
    train_end = int(rows * ratios[0] + 1e-6)
    val_end = int(rows * (ratios[0] + ratios[1]) + 1e-6)

    def contained(lo, hi):
        starts = np.arange(lo, max(lo, hi - span + 1), dtype=np.intp)
        return starts

    splits = {
        "train": contained(0, train_end),
        "val": contained(train_end, val_end),
        "test": contained(val_end, rows),
    }
    return WindowDataset(
        values=values,
        input_len=input_len,
        horizon=horizon,
        train_end=train_end,
        val_end=val_end,
        splits=splits,
    )


@dataclass
class SynthSpec:
    """Recipe for a sinusoid series with known cross-variable structure.

    ``lag_pairs`` entries (src, dst, lag) overwrite variable ``dst`` with
    variable ``src`` delayed by ``lag`` rows (noise included, so the
    dependency is genuinely informative) plus dst's own noise.
    """

    n_vars: int
    rows: int
    periods: list[float]
    lag_pairs: list[tuple[int, int, int]] = field(default_factory=list)
    noise: float = 0.0
    seed: int = 0


def synthesize(spec: SynthSpec) -> SeriesTable:
    """Generate the series described by ``spec``, deterministic in seed."""
    if spec.n_vars < 1 or spec.rows < 1:
        raise ConfigError(f"need n_vars >= 1 and rows >= 1, got {spec.n_vars}, {spec.rows}")
    if len(spec.periods) != spec.n_vars:
        raise ConfigError(f"{len(spec.periods)} periods for {spec.n_vars} variables")
    if not all(math.isfinite(v) for v in (*spec.periods, spec.noise)):
        raise ConfigError(f"periods and noise must be finite: {spec}")
    if any(p <= 0 for p in spec.periods):
        raise ConfigError(f"periods must be positive: {spec.periods}")
    if spec.noise < 0 or spec.seed < 0:
        raise ConfigError(f"noise and seed must be >= 0, got {spec.noise} and {spec.seed}")
    targets = set()
    max_lag = 0
    for src, dst, lag in spec.lag_pairs:
        if not (0 <= src < spec.n_vars and 0 <= dst < spec.n_vars):
            raise ConfigError(f"lag pair ({src}, {dst}, {lag}) names a missing variable")
        if src == dst:
            raise ConfigError(f"lag pair ({src}, {dst}, {lag}) copies a variable onto itself")
        if dst in targets:
            raise ConfigError(f"variable {dst} is the target of two lag pairs")
        if lag < 1 or lag >= spec.rows:
            raise ConfigError(f"lag must lie in [1, rows), got {lag} for {spec.rows} rows")
        targets.add(dst)
        max_lag = max(max_lag, lag)

    rng = np.random.default_rng(spec.seed)
    # Noise for a virtual prehistory of max_lag rows keeps lagged copies
    # stationary from row 0 (no startup transient).
    noise = spec.noise * rng.standard_normal((max_lag + spec.rows, spec.n_vars))
    t = np.arange(spec.rows, dtype=np.float64)
    values = np.empty((spec.rows, spec.n_vars))
    for j in range(spec.n_vars):
        values[:, j] = np.sin(2.0 * np.pi * t / spec.periods[j]) + noise[max_lag:, j]
    for src, dst, lag in spec.lag_pairs:
        delayed = t - lag
        values[:, dst] = (
            np.sin(2.0 * np.pi * delayed / spec.periods[src])
            + noise[max_lag - lag : max_lag - lag + spec.rows, src]
            + noise[max_lag:, dst]
        )
    # Finite settings can still overflow: 1e308 noise draws infinities.
    if not np.isfinite(values).all():
        raise ConfigError(f"noise {spec.noise} overflows the series")
    names = [f"v{j}" for j in range(spec.n_vars)]
    return SeriesTable(values=values, names=names)
