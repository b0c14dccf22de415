"""Smoke test of the benchmark: every workload at its smallest size.

    python3 -m pytest perfbench/tests
"""

import fnmatch
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import layers  # noqa: E402
import workloads  # noqa: E402
from equibundle import cli, congruence, cyclotomic, moduli  # noqa: E402, F401
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
DESIGN = json.loads((BENCH_DIR / "design.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, seed=1):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    *human, last = proc.stdout.strip().splitlines()
    return human, json.loads(last)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_listed_metric_is_printed_and_no_reply_is_wrong(workload, trace, section):
    human, result = run(workload, trace)
    listed = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == listed
    for name in listed:
        assert any(line.startswith(f"{name} ") for line in human), name
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("failed_frac 0 ") for line in human)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_for_a_seed(workload):
    runs = [run(workload, 1, seed=7)[1]["metrics"] for _ in range(2)]
    counts = [{name: m["value"] for name, m in r.items() if m["unit"] == "count"} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] > 0


def test_design_record_covers_every_workload_and_names_real_metrics():
    assert sorted(DESIGN["workloads"]) == sorted(WORKLOADS)
    layer_names = [m["name"] for m in BENCH["per_layer"]]
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    for row in DESIGN["layer_to_end_to_end"]:
        for pattern in row["layer_metrics"]:
            assert fnmatch.filter(layer_names, pattern), pattern
        for workload, metrics in row["moves"].items():
            assert workload in WORKLOADS and set(metrics) <= end_to_end
        assert set(row["no_change"]) <= set(WORKLOADS)


def test_tracer_rebinds_every_alias_and_restores_them():
    point_term, mul = cyclotomic.eval_point_term, cyclotomic.CycloNum.__mul__
    tracer = layers.Tracer("equibundle", workloads.search_candidates)
    tracer.install()
    try:
        wrapped = cyclotomic.eval_point_term
        assert wrapped is not point_term
        assert congruence.eval_point_term is wrapped and moduli.eval_point_term is wrapped
        assert cyclotomic.CycloNum.__rmul__ is cyclotomic.CycloNum.__mul__ is not mul
        results = list(congruence.search_realizable(5, 1, 1, [1], 1, 3, 1))
    finally:
        tracer.uninstall()
    assert moduli.eval_point_term is point_term and cyclotomic.CycloNum.__rmul__ is mul
    # the generator's steps are timed, not only the call that creates it
    assert tracer.self_ns["congruence.search_realizable"] > 0
    assert tracer.counts["search.accepted"] == len(results) > 0


def test_a_name_gone_from_the_package_reads_absent(monkeypatch):
    monkeypatch.delattr(cyclotomic, "sin2_term")
    tracer = layers.Tracer("equibundle", workloads.search_candidates)
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["cyclotomic.sin2_term"]
    metrics = tracer.metrics()
    assert metrics["cyclotomic.sin2_term.calls"] == 0 and metrics["cyclotomic.sin2_term.self_s"] == 0
