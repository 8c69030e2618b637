"""Every committed ``BENCH_*.json`` is well formed: each run it records
passed its benchmark checks, and reports only metrics that
``BENCHMARK.json`` declares, in the declared units."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    return {w["name"] for w in spec["workloads"]}, units


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_runs_are_correct_and_declared(path):
    workloads, units = declared()
    runs = json.loads(path.read_text())["runs"]
    assert runs
    for run in runs:
        where = f"{run['side']} {run['env']['workload']} pair {run['pair']}"
        assert run["env"]["workload"] in workloads, where
        result = run["result"]
        assert result["correct"] is True and result["failed"] == 0, where
        assert result["metrics"], where
        for name, metric in result["metrics"].items():
            assert units.get(name) == metric["unit"], (where, name)


def test_there_is_a_bench_file():
    assert BENCH_FILES
