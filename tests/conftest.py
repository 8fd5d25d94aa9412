"""Shared numeric oracles for the test suite."""

import csv
import math

import numpy as np

from sdgf import autodiff as ad
from sdgf.data import SeriesTable
from sdgf.errors import DataError


def fd_gradient(build_loss, leaf: ad.Tensor, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of ``build_loss()`` w.r.t. ``leaf.data``.

    ``build_loss`` must rebuild the computation from current leaf values
    and return the scalar loss as a float.
    """
    grad = np.zeros_like(leaf.data)
    flat_value = leaf.data.ravel()
    flat_grad = grad.ravel()
    with ad.no_grad():
        for i in range(flat_value.size):
            saved = flat_value[i]
            flat_value[i] = saved + h
            up = build_loss()
            flat_value[i] = saved - h
            down = build_loss()
            flat_value[i] = saved
            flat_grad[i] = (up - down) / (2.0 * h)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-5) -> float:
    """Worst-case elementwise relative error with an absolute floor."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def assert_grads_match(build_loss, leaves, tol: float = 1e-5) -> None:
    """Backprop the loss and compare every leaf gradient to the FD oracle."""
    for leaf in leaves:
        leaf.zero_grad()
    loss = build_loss()
    loss.backward()
    for leaf in leaves:
        assert leaf.grad is not None, "leaf never received a gradient"
        oracle = fd_gradient(lambda: float(build_loss().data), leaf)
        err = relative_error(leaf.grad, oracle)
        assert err < tol, f"gradient mismatch: relative error {err:.3e}"


def loop_conv1d(x: np.ndarray, kernel: np.ndarray, dilation: int) -> np.ndarray:
    """Zero-padded same-length dilated convolution, written as bare loops."""
    batch, in_ch, length = x.shape
    out_ch, _, width = kernel.shape
    pad = dilation * (width - 1) // 2
    out = np.zeros((batch, out_ch, length))
    for b in range(batch):
        for o in range(out_ch):
            for t in range(length):
                acc = 0.0
                for c in range(in_ch):
                    for j in range(width):
                        src = t + j * dilation - pad
                        if 0 <= src < length:
                            acc += kernel[o, c, j] * x[b, c, src]
                out[b, o, t] = acc
    return out


def loop_load_csv(path: str) -> SeriesTable:
    """Parse a header + float rows; the first column may be dates.

    The cell-by-cell loader ``data.load_csv`` replaced, kept as its
    oracle with one rule added: a cell whose float is not finite (``inf``,
    ``nan``, ``1e400``) is a defect, reported where the conversion
    reports its own.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
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

    values = np.empty((len(data_rows), len(names)))
    timestamps: list[str] | None = [] if has_dates else None
    for r, row in enumerate(data_rows, start=1):
        if len(row) != len(header):
            raise DataError(
                f"row {r} has {len(row)} cells, header has {len(header)} columns"
            )
        cells = row[1:] if has_dates else row
        if has_dates:
            timestamps.append(row[0].strip())
        for c, cell in enumerate(cells):
            text = cell.strip()
            if not text:
                raise DataError(f"missing value at row {r}, column {names[c]!r}")
            try:
                values[r - 1, c] = float(text)
            except ValueError:
                raise DataError(
                    f"non-numeric value {text!r} at row {r}, column {names[c]!r}"
                ) from None
            if not math.isfinite(values[r - 1, c]):
                raise DataError(f"non-finite value {text!r} at row {r}, column {names[c]!r}")
    return SeriesTable(values=values, names=names, timestamps=timestamps)
