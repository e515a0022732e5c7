"""Tests for scripts/bench_pairs.py with its benchmark runs stubbed out."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
LAYER = {m["name"]: m["better"] for m in BENCH["per_layer"]}


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def stubbed(monkeypatch):
    """The script with ``run`` replaced by a stub that records its calls.

    Every change-side metric reads 2 and every parent one 1, except
    ``estimation.ingest.rows``, which reads 0 on the parent."""
    bench_pairs = load_script()
    calls = []

    def run(checkout, workload, seed, seconds, trace):
        side = checkout.name
        calls.append((side, workload, seed, trace))
        names = LAYER if trace else [m["name"] for m in BENCH["end_to_end"]]
        value = {"parent": 1.0, "change": 2.0}[side]
        metrics = {name: {"value": value} for name in names}
        if trace and side == "parent":
            metrics["estimation.ingest.rows"] = {"value": 0.0}
        return {"workload": workload, "seed": seed, "trace": trace,
                "record": {"env": {"python": "stub"}}, "result": {"metrics": metrics}}

    def no_process(*args, **kwargs):
        raise AssertionError("a benchmark process was started")

    monkeypatch.setattr(bench_pairs, "run", run)
    monkeypatch.setattr(subprocess, "run", no_process)
    return bench_pairs, calls


def test_three_alternating_traced_pairs_per_workload(tmp_path, stubbed):
    bench_pairs, calls = stubbed
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"), "--out", str(out)]) == 0
    report = json.loads(out.read_text())

    traced_calls = [call for call in calls if call[3] == 1]
    assert len(traced_calls) == 2 * 3 * len(WORKLOADS)
    assert all(seed == 1 for _, _, seed, _ in traced_calls)
    for workload in WORKLOADS:
        pairs = [p for p in report["traced"] if p["workload"] == workload]
        firsts = [p["first"] for p in pairs]
        assert len(firsts) == 3 and all(a != b for a, b in zip(firsts, firsts[1:]))
        assert all(p[side]["trace"] == 1 for p in pairs for side in ("parent", "change"))

        layer = report["traced_summary"][workload]
        assert set(layer) == set(LAYER)
        for name, direction in LAYER.items():
            assert layer[name]["pairs"] == 3
            assert layer[name]["change_wins"] == (3 if direction == "higher" else 0)
        assert layer["markov.propagate.self_ms"]["median_ratio"] == 2.0
        assert layer["estimation.ingest.rows"]["median_ratio"] is None

    assert len(report["pairs"]) == 10 * len(WORKLOADS)
    assert report["summary"][WORKLOADS[0]]["ops_per_s"]["change_wins"] == 10
