"""Smoke test of the e14 benchmark: every workload at 1/20 size, one
round, outputs still checked against the references.

Run with ``pytest benchmarks/e14 -q``; tier-1 (``testpaths = tests``)
does not collect it.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def run_benchmark(*flags):
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py")] + list(flags),
        stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    return [json.loads(line) for line in completed.stdout.splitlines()
            if line.startswith("{")]


def load_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_every_workload_runs_and_verifies():
    manifest = load_manifest()
    results = run_benchmark("--quick")
    assert len(results) == len(manifest["workloads"]) == 6
    names = {metric["name"] for metric in manifest["end_to_end"]}
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == names
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_traced_round_reports_every_layer_metric():
    manifest = load_manifest()
    units = {metric["name"]: metric["unit"]
             for metric in manifest["per_layer"]}
    for workload in ("keyed_window_mp2", "shared_windows"):
        (result,) = run_benchmark("--quick", "--trace", "1",
                                  "--workload", workload)
        assert result["correct"]
        assert {name: metric["unit"]
                for name, metric in result["metrics"].items()} == units
    # The multiprocess trace has spans from both workers and the parent.
    with open(os.path.join(HERE, "out", "trace-keyed_window_mp2.jsonl"),
              encoding="utf-8") as handle:
        processes = {json.loads(line)["span_id"].split(":")[0]
                     for line in handle}
    assert processes == {"main", "w0", "w1"}
