"""Smoke test of the benchmark at tiny input sizes.

Runs every workload in both modes through the real command line and
checks the output contract of ``BENCHMARK.json``: the output check
passes, and the last line names every metric with its unit.  Run from
the repository root::

    python -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def result_of(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reports_every_metric_and_passes_the_check(workload, trace):
    result = result_of(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    units = {k: m["unit"] for k, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in spec}
    values = {k: m["value"] for k, m in result["metrics"].items()}
    if trace:
        # Eq. 8 is off in the cluster-dp bag and on everywhere else, where
        # each call decides for every VM slot (max_vms=16) of its rows.
        assert (values["eq8.calls"] == 0) == (workload == "cluster-dp")
        if workload != "cluster-dp":
            assert values["eq8.cells_per_call"] >= 16
        assert values["kernel.rounds"] > 0
    else:
        assert all(v > 0 for v in values.values())


def test_layer_counts_repeat_exactly():
    def counts():
        metrics = result_of("swf-serial", 1)["metrics"]
        return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}

    assert counts() == counts()

