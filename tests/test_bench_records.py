"""Committed benchmark records (`BENCH_*.json` at the repository root) speak
the benchmark's language: workloads and metrics that BENCHMARK.json declares,
each measured on both the parent and the change."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def declared() -> tuple[set, set]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    return {w["name"] for w in bench["workloads"]}, metrics


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_names_declared_workloads_and_metrics(path):
    workloads, metrics = declared()
    record = json.loads(path.read_text())
    assert record["workloads"], path.name
    for workload, entry in record["workloads"].items():
        assert workload in workloads, workload
        assert entry["metrics"], workload
        for metric, values in entry["metrics"].items():
            assert metric in metrics, (workload, metric)
            assert "parent" in values and "change" in values, (workload, metric)
