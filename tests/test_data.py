"""Data pipeline checks: CSV round trips, windows, splits, synthesis."""

import itertools
import re
import types
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdgf import data as dt
from sdgf import graphs as gr
from sdgf.errors import ConfigError, DataError, NumericError

from conftest import loop_load_csv

RNG = np.random.default_rng(88)


# ---------------------------------------------------------------------------
# CSV in/out


def test_small_table_loads(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n3,4\n5,6\n")
    table = dt.load_csv(str(path))
    assert table.names == ["a", "b"]
    assert table.timestamps is None
    np.testing.assert_array_equal(table.values, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])


def test_date_column_becomes_timestamps(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("date,HUFL\n2016-07-01 00:00:00,5.8\n2016-07-01 01:00:00,5.2\n")
    table = dt.load_csv(str(path))
    assert table.names == ["HUFL"]
    assert table.timestamps == ["2016-07-01 00:00:00", "2016-07-01 01:00:00"]


def test_blank_cell_names_row_and_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("date,HUFL,MUFL\n2016-01-01,1.0,2.0\n2016-01-02,,2.5\n")
    with pytest.raises(DataError, match=r"row 2, column 'HUFL'"):
        dt.load_csv(str(path))


def test_non_numeric_cell_names_row_and_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n3,oops\n")
    with pytest.raises(DataError, match=r"row 2, column 'b'"):
        dt.load_csv(str(path))


def test_ragged_row_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(DataError, match="row 2"):
        dt.load_csv(str(path))


def test_empty_and_headerless_files_rejected(tmp_path):
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(DataError, match="empty"):
        dt.load_csv(str(empty))
    bare = tmp_path / "h.csv"
    bare.write_text("a,b\n")
    with pytest.raises(DataError, match="no data rows"):
        dt.load_csv(str(bare))


def test_missing_file_mentions_path(tmp_path):
    missing = str(tmp_path / "nope.csv")
    with pytest.raises(DataError, match="nope.csv"):
        dt.load_csv(missing)


def test_unsorted_timestamps_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("date,a\n2020-01-02,1\n2020-01-01,2\n")
    with pytest.raises(DataError, match="strictly increasing"):
        dt.load_csv(str(path))


# Ways of writing a time that need not sort as text: month first, and
# unpadded months, days or hours.
STAMP_LAYOUTS = [
    lambda t: t.strftime("%m/%d/%Y %H:%M"),
    lambda t: f"{t.month}/{t.day}/{t.year} {t.hour}:{t:%M}",
    lambda t: f"{t:%Y-%m-%d} {t.hour}:{t:%M}",
]


@settings(max_examples=150, deadline=None)
@given(
    start=st.datetimes(datetime(1990, 1, 1), datetime(2030, 1, 1)),
    minutes=st.lists(st.integers(1, 60 * 24 * 40), min_size=1, max_size=8),
    layout=st.integers(0, len(STAMP_LAYOUTS) - 1),
    defect=st.sampled_from(["none", "swap", "repeat"]),
    quoted=st.booleans(),
    data=st.data(),
)
@example(datetime(2020, 1, 9), [60 * 24], 1, "none", False, None)  # 1/9/2020, 1/10/2020
@example(datetime(2020, 1, 1, 9), [60], 2, "none", True, None)  # 9:00, 10:00
def test_a_date_column_is_judged_by_time_and_only_when_it_is_iso(
    tmp_path_factory, start, minutes, layout, defect, quoted, data
):
    # Increasing times load in any layout; ISO stamps with one adjacent
    # swap or repeat raise at that row. A quoted date cell sends the
    # file through csv.reader, an unquoted one through np.loadtxt.
    times = itertools.accumulate(minutes, lambda t, m: t + timedelta(minutes=m), initial=start)
    times = list(times)
    if defect == "none":
        stamps = [STAMP_LAYOUTS[layout](t) for t in times]
    else:
        stamps = [t.isoformat(sep=" ") for t in times]
        i = data.draw(st.integers(1, len(stamps) - 1))
        if defect == "swap":
            stamps[i - 1], stamps[i] = stamps[i], stamps[i - 1]
        else:
            stamps[i] = stamps[i - 1]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_text("date,a\n" + "".join(
        (f'"{stamp}"' if quoted else stamp) + f",{r}\n" for r, stamp in enumerate(stamps)
    ))
    if defect == "none":
        assert dt.load_csv(str(path)).timestamps == stamps
    else:
        with pytest.raises(DataError) as caught:
            dt.load_csv(str(path))
        assert str(caught.value) == (
            f"timestamps not strictly increasing at row {i + 1}:"
            f" {stamps[i]!r} after {stamps[i - 1]!r}"
        )


def test_stamps_that_cannot_be_compared_are_taken_in_file_order():
    stamps = ["2020-01-01 10:00+01:00", "2020-01-01 09:00", "2020-01-01 08:00"]
    assert dt.SeriesTable(np.ones((3, 1)), ["a"], stamps).timestamps == stamps


def test_csv_round_trip_bit_exact(tmp_path):
    values = np.concatenate(
        [
            RNG.normal(0.0, 1e-7, (20, 2)),
            RNG.normal(0.0, 1e9, (20, 2)),
            np.array([[0.1, -1.0 / 3.0]] * 20),
        ],
        axis=1,
    )
    table = dt.SeriesTable(values=values, names=["a", "b", "c", "d", "e", "f"])
    path = str(tmp_path / "round.csv")
    dt.save_csv(table, path)
    back = dt.load_csv(path)
    np.testing.assert_array_equal(back.values, values)
    assert back.names == table.names


def test_csv_round_trip_with_dates(tmp_path):
    table = dt.SeriesTable(
        values=RNG.normal(0.0, 5.0, (4, 2)),
        names=["x", "y"],
        timestamps=[f"2020-01-0{i}" for i in range(1, 5)],
    )
    path = str(tmp_path / "round.csv")
    dt.save_csv(table, path)
    back = dt.load_csv(path)
    np.testing.assert_array_equal(back.values, table.values)
    assert back.timestamps == table.timestamps


# Cell texts in the forms real files hold and the forms that must fail;
# none holds a comma, quote or line break, so each line is one CSV row.
NUMBERS = st.floats(allow_nan=True, allow_infinity=True)
CELL_BODIES = st.one_of(
    NUMBERS.map(repr),
    NUMBERS.map(lambda v: f"{v:.17g}"),
    NUMBERS.map(lambda v: f"{v:e}"),
    st.sampled_from(
        ["inf", "-inf", "-nan", "nan", "1_0", "1e400", "-1e400", "0", "-0", "+.5", "5.",
         "abc", "1.2.3", "1e", "0x10", "1 2", "\u0661\u0662"]
    ),
    st.sampled_from(["", " "]),
)
PADDING = st.sampled_from(
    ["", " ", "  ", "\t", "\u3000", "\x1c", "\x1d", "\x1e", "\x1f", " \x1c", "\x1f\t"]
)
CELLS = st.tuples(PADDING, CELL_BODIES, PADDING).map("".join)


def outcome(loader, path):
    """What a loader makes of a file: its table, bit for bit, or its error."""
    try:
        table = loader(path)
    except DataError as exc:
        return "error", str(exc)
    return "table", table.values.shape, table.values.tobytes(), table.names, table.timestamps


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n_vars=st.integers(1, 4), rows=st.integers(1, 6), dates=st.booleans())
def test_load_csv_matches_the_cell_loop(tmp_path_factory, data, n_vars, rows, dates):
    header = ["date"] * dates + [f"v{j}" for j in range(n_vars)]
    lines = [",".join(header)]
    for r in range(rows):
        kind = data.draw(st.sampled_from(["full"] * 15 + ["short", "long", "blank"]))
        if kind == "blank":
            lines.append("")
            continue
        width = {"full": len(header), "short": len(header) - 1, "long": len(header) + 1}[kind]
        cells = data.draw(st.lists(CELLS, min_size=width, max_size=width))
        if dates and cells:
            cells[0] = data.draw(st.sampled_from(["", " ", "\x1c"])) + f"2020-01-{r + 1:02d}"
        lines.append(",".join(cells))
    text = "\n".join(lines) + data.draw(st.sampled_from(["", "\n", "\r\n"]))
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    with open(path, "w", newline="") as handle:
        handle.write(text)
    assert outcome(dt.load_csv, str(path)) == outcome(loop_load_csv, str(path))


# Plain files: cells padded with every kind of whitespace str.strip removes,
# and at most one defect that makes a file need csv.reader or fail.
PLAIN_PADDING = st.one_of(PADDING, st.sampled_from(["\x0b", "\x0c", "\x0b \x0c"]))
FINITE = st.floats(allow_nan=False, allow_infinity=False)
PLAIN_CELLS = st.tuples(
    PLAIN_PADDING,
    st.one_of(FINITE.map(repr), FINITE.map(lambda v: f"{v:.17g}"), FINITE.map(lambda v: f"{v:e}")),
    PLAIN_PADDING,
).map("".join)
BAD_NUMBERS = ["inf", "nan", "1e400", "1_0", "\u0661"]
DEFECTS = ["blank line", "whitespace line", "quoted cell", "lone CR", "NUL", "short row",
           "long row", *BAD_NUMBERS]


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    n_vars=st.integers(1, 4),
    rows=st.integers(1, 6),
    dates=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n"]),
    final_newline=st.booleans(),
    bom=st.booleans(),
    defect=st.sampled_from(["none"] * 16 + DEFECTS),
)
def test_load_csv_plain_files_match_the_cell_loop(
    tmp_path_factory, data, n_vars, rows, dates, newline, final_newline, bom, defect
):
    lines = [",".join(["date"] * dates + [f"v{j}" for j in range(n_vars)])]
    for r in range(rows):
        stamp = [data.draw(PLAIN_PADDING) + f"2020-01-{r + 1:02d}"] * dates
        lines.append(stamp + data.draw(st.lists(PLAIN_CELLS, min_size=n_vars, max_size=n_vars)))
    row = lines[data.draw(st.integers(1, rows))]
    col = data.draw(st.integers(dates, dates + n_vars - 1))
    if defect in ("blank line", "whitespace line"):
        line = "" if defect == "blank line" else data.draw(st.sampled_from([" ", "\t", "\x0c"]))
        lines.insert(data.draw(st.integers(1, len(lines))), [line])
    elif defect == "quoted cell":
        row[col] = f'"{row[col]}"'
    elif defect == "NUL":
        row[col] += "\0"
    elif defect == "short row":
        del row[col]
    elif defect == "long row":
        row.append(data.draw(PLAIN_CELLS))
    elif defect in BAD_NUMBERS:
        row[col] = data.draw(PLAIN_PADDING) + defect + data.draw(PLAIN_PADDING)
    ends = [newline] * (len(lines) - 1 + final_newline)
    if defect == "lone CR":
        ends[data.draw(st.integers(0, len(ends) - 1))] = "\r"
    text = "".join(
        (line if isinstance(line, str) else ",".join(line)) + end
        for line, end in zip(lines, ends + [""])
    )
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = outcome(loop_load_csv, str(path))
    if bom:
        path.write_text("\ufeff" + text, encoding="utf-8", newline="")
    assert outcome(dt.load_csv, str(path)) == expected


# Files one rule of the plain check alone keeps from np.loadtxt.
EDGE_FILES = [
    "\n1\n2\n",  # blank header
    '"v0",v1\n1,2\n',  # quoted header
    'date,a\n"2020-01-01",1\n',  # quoted date
    "v0\r1.5\n2.5\n",  # lone CR after a one-column header
    "a,b\n1,2\r\r\n",  # CR before CRLF
    "a,b\n1,2\n\r",  # CR after the final newline
    "a,b\r\n1,2\r",  # final lone CR, which csv.reader also ends a row at
    "a,b\n1.5\n",  # the only data row is short
    "a\n1\n\n",  # trailing blank line
    "date,a\n2020-01-01\n",  # no value cell, and no comma for the date
    "date,a\n2020-01-01,\n",  # an empty value cell after the date
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", EDGE_FILES)
def test_load_csv_edge_files_match_the_cell_loop(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert outcome(dt.load_csv, str(path)) == outcome(loop_load_csv, str(path))


def test_plain_files_load_without_csv_reader(tmp_path, monkeypatch):
    values = np.array([[0.1, -2.5e-300], [1.0 / 3.0, 7e22], [-0.0, 5.0]])
    stamps = ["2020-01-01", "2020-01-02", "2020-01-03"]
    body = [f"{a!r},{b!r}" for a, b in values.tolist()]
    files = {
        "lf": ("a,b\n" + "\n".join(body) + "\n", None),
        "crlf": ("a,b\r\n" + "\r\n".join(body), None),
        "bom": ("\ufeffa,b\n" + "\n".join(body), None),
        "dated": ("date,a,b\r\n" + "".join(f"{t}, {r}\r\n" for t, r in zip(stamps, body)), stamps),
    }

    def refuse(*args, **kwargs):
        raise AssertionError("a plain file reached csv.reader")

    monkeypatch.setattr(dt.csv, "reader", refuse)
    for name, (text, timestamps) in files.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(text, encoding="utf-8", newline="")
        table = dt.load_csv(str(path))
        assert table.values.tobytes() == values.tobytes(), name
        assert table.names == ["a", "b"] and table.timestamps == timestamps, name


def test_decode_error_names_the_byte_offset_in_the_file(tmp_path):
    path = tmp_path / "t.csv"
    head = b"a,b\n" + b"1.25,2.5\n" * 2000 + b"3,"
    assert len(head) > 8192
    path.write_bytes(head + b"\xff\n")
    with pytest.raises(DataError, match=rf"can't decode byte 0xff in position {len(head)}:"):
        dt.load_csv(str(path))


def test_load_csv_names_the_first_defect_in_file_order(tmp_path):
    path = tmp_path / "t.csv"
    # The ragged row 3 fails the width pass first; row 2's word comes first in the file.
    path.write_text("a,b\n1,2\n3,oops\n4\n, \n")
    with pytest.raises(DataError, match=r"^non-numeric value 'oops' at row 2, column 'b'$"):
        dt.load_csv(str(path))
    path.write_text("date,a,b\nd1,1,2\nd2, \x1f ,2\nd3,x,2\n")
    with pytest.raises(DataError, match=r"^missing value at row 2, column 'a'$"):
        dt.load_csv(str(path))


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "-nan", "1e400", " -1E400 ", "Infinity"])
def test_load_csv_rejects_non_finite_cells(tmp_path, cell):
    path = tmp_path / "t.csv"
    path.write_text(f"date,a,b\nd1,1,2\nd2,3,{cell}\nd3,4\nd4,x,5\n")
    # The non-finite cell of row 2 comes before row 3's short row and row 4's word.
    message = f"non-finite value {cell.strip()!r} at row 2, column 'b'"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        dt.load_csv(str(path))
    path.write_text(f"a,b\n1,oops\n{cell},2\n")
    with pytest.raises(DataError, match=r"^non-numeric value 'oops' at row 1, column 'b'$"):
        dt.load_csv(str(path))


def test_load_csv_strips_what_float_does_not(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n \x1c2,\u30003.5\x1f\n")
    np.testing.assert_array_equal(dt.load_csv(str(path)).values, [[2.0, 3.5]])


def test_atomic_open_failure_keeps_the_previous_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"previous contents")
    with pytest.raises(RuntimeError, match="midway"):
        with dt.atomic_open(path, "wb") as handle:
            handle.write(b"half of the new")
            raise RuntimeError("midway")
    assert path.read_bytes() == b"previous contents"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
    with dt.atomic_open(path, "w", encoding="utf-8") as handle:
        handle.write("new")
    assert path.read_text(encoding="utf-8") == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_save_csv_that_fails_midway_leaves_no_partial_file(tmp_path):
    path = tmp_path / "t.csv"
    dt.save_csv(dt.SeriesTable(values=[[1.0], [2.0]], names=["a"]), str(path))
    before = path.read_bytes()
    # The second row cannot be formatted, after the first was written.
    broken = types.SimpleNamespace(names=["a"], timestamps=None, values=[[3.0], ["x"]])
    with pytest.raises(ValueError):
        dt.save_csv(broken, str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


# ---------------------------------------------------------------------------
# Scaler


def test_scaler_standardizes():
    values = RNG.normal(7.0, 3.0, (100, 4))
    scaler = dt.Scaler.fit(values)
    z = scaler.transform(values)
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)


def test_scaler_handles_constant_columns():
    values = np.column_stack([np.full(50, 3.0), RNG.normal(0.0, 1.0, 50)])
    scaler = dt.Scaler.fit(values)
    z = scaler.transform(values)
    assert np.all(np.isfinite(z))
    np.testing.assert_allclose(z[:, 0], 0.0, atol=0)


def test_scaler_rejects_overflowing_statistics():
    # Finite values whose variance overflows would give an inf std.
    values = np.column_stack([np.array([1e200, -1e200, 1e200]), np.zeros(3)])
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="^scaler statistics"):
        dt.Scaler.fit(values)


def test_scaler_serialization_round_trip():
    scaler = dt.Scaler.fit(RNG.normal(2.0, 4.0, (30, 3)))
    back = dt.Scaler.from_dict(scaler.to_dict(), 3)
    np.testing.assert_array_equal(back.mean, scaler.mean)
    np.testing.assert_array_equal(back.std, scaler.std)


# ---------------------------------------------------------------------------
# Windows and splits


def test_window_enumeration_example():
    # rows - span + 1 = 6 windows: the last one ends on the last row.
    ds = dt.make_windows(RNG.normal(0.0, 1.0, (10, 2)), input_len=3, horizon=2)
    inputs, targets = ds.batch(np.arange(6))
    np.testing.assert_array_equal(inputs[0], ds.values[0:3])
    np.testing.assert_array_equal(targets[0], ds.values[3:5])
    np.testing.assert_array_equal(targets[-1], ds.values[8:10])


def test_single_window_boundary():
    # rows - span + 1 = 1 window, covering every row.
    ds = dt.make_windows(RNG.normal(0.0, 1.0, (5, 1)), input_len=3, horizon=2)
    inputs, targets = ds.batch(np.arange(1))
    np.testing.assert_array_equal(np.concatenate((inputs[0], targets[0])), ds.values)


def test_split_boundaries_at_70_and_90():
    ds = dt.make_windows(RNG.normal(0.0, 1.0, (100, 1)), input_len=4, horizon=2)
    assert ds.train_end == 70
    assert ds.val_end == 90
    assert ds.split_starts("train").max() + 6 <= 70
    assert ds.split_starts("val").min() >= 70
    assert ds.split_starts("test").min() >= 90


def test_too_few_rows_reports_minimum():
    with pytest.raises(DataError, match="at least 8 rows"):
        dt.make_windows(np.zeros((7, 1)), input_len=5, horizon=3)


def test_unknown_split_rejected():
    ds = dt.make_windows(np.zeros((30, 1)), input_len=2, horizon=1)
    with pytest.raises(ConfigError):
        ds.split_starts("holdout")


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(12, 300),
    input_len=st.integers(1, 8),
    horizon=st.integers(1, 8),
)
def test_no_leakage_and_window_count(rows, input_len, horizon):
    span = input_len + horizon
    if rows < span:
        rows = span
    ds = dt.make_windows(np.zeros((rows, 1)), input_len, horizon)
    for start in ds.split_starts("train"):
        assert start + span <= ds.train_end
    for start in ds.split_starts("val"):
        assert start >= ds.train_end and start + span <= ds.val_end
    for start in ds.split_starts("test"):
        assert start >= ds.val_end and start + span <= rows
    # Splits never overlap and never exceed the enumeration.
    all_starts = np.concatenate([ds.split_starts(s) for s in dt.SPLITS])
    assert len(np.unique(all_starts)) == len(all_starts)
    assert all_starts.size <= rows - span + 1


# ---------------------------------------------------------------------------
# Synthesis


def test_lagged_copy_is_exact_without_noise():
    spec = dt.SynthSpec(n_vars=2, rows=240, periods=[24.0, 24.0], lag_pairs=[(0, 1, 3)])
    table = dt.synthesize(spec)
    x1, x2 = table.values[:, 0], table.values[:, 1]
    np.testing.assert_allclose(x2[3:], x1[:-3], atol=1e-12)
    corr = np.corrcoef(x1[:-3], x2[3:])[0, 1]
    assert abs(corr - 1.0) < 1e-12


def test_same_seed_reproduces_bit_exact():
    spec = dt.SynthSpec(
        n_vars=3, rows=100, periods=[24.0, 30.0, 12.0], lag_pairs=[(0, 2, 5)], noise=0.4, seed=11
    )
    a = dt.synthesize(spec)
    b = dt.synthesize(spec)
    np.testing.assert_array_equal(a.values, b.values)


def test_paired_variables_dominate_correlation():
    spec = dt.SynthSpec(
        n_vars=4,
        rows=720,
        periods=[24.0, 24.0, 36.0, 36.0],
        lag_pairs=[(0, 1, 3), (2, 3, 5)],
    )
    table = dt.synthesize(spec)
    pcc = gr.pearson_matrix(table.values[None, :, :])
    off = np.abs(pcc - np.diag(np.diag(pcc)))
    assert off[0].argmax() == 1
    assert off[1].argmax() == 0
    assert off[2].argmax() == 3
    assert off[3].argmax() == 2


def test_lagged_noise_propagates_from_source():
    # The copy must include the source's noise so the link carries
    # information beyond the shared sinusoid shape.
    spec = dt.SynthSpec(
        n_vars=2, rows=500, periods=[24.0, 24.0], lag_pairs=[(0, 1, 4)], noise=0.5, seed=3
    )
    table = dt.synthesize(spec)
    x1, x2 = table.values[:, 0], table.values[:, 1]
    clean = np.sin(2.0 * np.pi * np.arange(500) / 24.0)
    resid_src = (x1 - clean)[:-4]
    resid_dst = (x2 - np.sin(2.0 * np.pi * (np.arange(500) - 4.0) / 24.0))[4:]
    corr = np.corrcoef(resid_src, resid_dst)[0, 1]
    assert corr > 0.65


def test_synth_spec_validation():
    good = dict(n_vars=2, rows=50, periods=[10.0, 10.0])
    with pytest.raises(ConfigError):
        dt.synthesize(dt.SynthSpec(**{**good, "periods": [10.0]}))
    with pytest.raises(ConfigError):
        dt.synthesize(dt.SynthSpec(**good, lag_pairs=[(0, 1, 50)]))
    with pytest.raises(ConfigError):
        dt.synthesize(dt.SynthSpec(**good, lag_pairs=[(0, 0, 3)]))
    with pytest.raises(ConfigError):
        dt.synthesize(dt.SynthSpec(**good, lag_pairs=[(0, 1, 2), (0, 1, 3)]))
    with pytest.raises(ConfigError):
        dt.synthesize(dt.SynthSpec(**good, lag_pairs=[(0, 5, 2)]))
    with pytest.raises(ConfigError, match="seed"):
        dt.synthesize(dt.SynthSpec(**good, seed=-1))
    # Finite settings whose series overflows.
    with np.errstate(over="ignore"), pytest.raises(ConfigError, match="overflow"):
        dt.synthesize(dt.SynthSpec(**good, noise=1e308))
    with np.errstate(over="ignore"), pytest.raises(ConfigError, match="overflow"):
        dt.synthesize(dt.SynthSpec(**good, noise=1e308, lag_pairs=[(0, 1, 2)]))
