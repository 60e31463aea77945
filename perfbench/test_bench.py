"""Self-test of the benchmark: exact counters repeat between two traced runs.

    python3 -m pytest perfbench/test_bench.py -q

Each workload runs twice with tracing on and the shortest run length (two
traced passes each); the counters later changes may cite as counts must
agree exactly, and every output must pass the correctness gate.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).with_name("run.py")

EXACT_COUNTERS = (
    "simulate.integrate.steps",
    "simulate.integrate.node_steps",
    "simulate.integrate.buffer_bytes",
    "model.rhs.calls",
    "linalg.sym_eigen.calls",
    "cli.write_trajectory_csv.bytes",
    "cli.write_metrics_csv.bytes",
)


def _traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["scenarios", "sweep", "network-checks"])
def test_counters_repeat_exactly(workload):
    first, second = _traced_run(workload), _traced_run(workload)
    for line in (first, second):
        assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    counts = {name: first["metrics"][name]["value"] for name in EXACT_COUNTERS}
    assert counts == {name: second["metrics"][name]["value"] for name in EXACT_COUNTERS}
    assert counts["model.rhs.calls"] == 4 * counts["simulate.integrate.steps"] > 0
    if workload == "network-checks":
        assert counts["linalg.sym_eigen.calls"] == 8
        assert counts["cli.write_trajectory_csv.bytes"] == 0
    else:
        assert counts["cli.write_trajectory_csv.bytes"] > 0
        assert first["metrics"]["trace.top_span_share"]["value"] >= 0.9
