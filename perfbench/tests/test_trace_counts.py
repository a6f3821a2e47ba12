"""Per-layer work counts of a traced run repeat exactly for the same seed.

Run from the root of a checkout: python3 -m pytest perfbench/tests
Each case makes two traced runs of one workload (about a minute for closure).
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"]


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_counts_repeat_exactly_for_one_seed(workload):
    first, second = traced_run(workload, 11), traced_run(workload, 11)
    assert first["correct"] and second["correct"]
    counts = [{name: run["metrics"][name]["value"] for name in COUNTS}
              for run in (first, second)]
    assert counts[0] == counts[1]
    assert any(counts[0].values())
