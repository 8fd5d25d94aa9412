"""Smoke test of the benchmark at tiny sizes (a few seconds).

Run from the repository root:  python3 -m pytest -q bench
"""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """The ``small`` workload shrunk to a one-epoch, sub-second train()."""
    wl = dataclasses.replace(run.WORKLOADS["small"], rows=700, epochs=1,
                             beats_repeat_last=False)
    monkeypatch.setitem(run.WORKLOADS, "small", wl)
    monkeypatch.setattr(run, "TRACED_REPS", 2)
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "out")
    return wl


def bench(capsys, seed: int, trace: int) -> dict:
    status = run.main(["--workload", "small", "--seed", str(seed), "--seconds", "0.5",
                       "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert status == 0, lines
    return json.loads(lines[-1])


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(tiny, capsys, trace, section):
    result = bench(capsys, seed=1, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, metric in result["metrics"].items():
        assert np.isfinite(metric["value"]), name


def test_seed_changes_the_data_not_the_metric_names(tiny, capsys, tmp_path: pathlib.Path):
    tables = []
    for seed in (1, 2):
        path = tmp_path / f"{seed}.csv"
        run.write_inputs(tiny, seed, path)
        tables.append(run.data.load_csv(str(path)).values)
    assert tables[0].shape == tables[1].shape
    assert not np.array_equal(tables[0], tables[1])
    first, second = bench(capsys, seed=1, trace=0), bench(capsys, seed=2, trace=0)
    assert set(first["metrics"]) == set(second["metrics"])
    assert first["metrics"]["val_mse"]["value"] != second["metrics"]["val_mse"]["value"]
