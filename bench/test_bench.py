"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import matchvote as mv  # noqa: E402
from matchvote import fixtures  # noqa: E402
from tracing import COUNT_METRICS, Tracer, bindings, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smallest_size_reports_every_metric(workload, trace):
    result = run_bench(
        "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--size", "smoke"
    )
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def traced_counts(run) -> dict:
    tracer = Tracer()
    with tracer.installed():
        with tracer.span("bench.op", "seq_phragmen/fig1"):
            run()
    metrics = layer_metrics(tracer.spans)
    return {name: metrics[name] for name in COUNT_METRICS}


def test_traced_counts_repeat():
    election = fixtures.fig1()
    first = traced_counts(lambda: mv.seq_phragmen(election))
    second = traced_counts(lambda: mv.seq_phragmen(election))
    assert first == second
    assert first["engine.oracle.calls"] > 0
    assert first["engine.tiebreak.calls"] + first["engine.value.calls"] > 0
    assert first["sequential.crossing.calls"] > 0
    assert first["sequential.rounds"] == election.k


def test_wrappers_are_removed():
    before = bindings()
    tracer = Tracer()
    with tracer.installed():
        during = bindings()
        mv.seq_pav(fixtures.fig1())
    after = bindings()
    assert tracer.spans
    assert any(during[key] is not before[key] for key in before)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_calls_through_imported_names_are_traced():
    tracer = Tracer()
    with tracer.installed():
        mv.exact_thiele(fixtures.fig1(), mv.WeightSequence.pav())
    sites = {(s.name, s.site) for s in tracer.spans}
    assert ("engine.weighted_approval_winner", "exact_thiele") in sites
    assert ("engine.max_weight_matching", "engine") in sites


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rules", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
