"""Checks on the benchmark itself.

    python3 -m pytest perfbench/test_counts.py

Run from the root of a checkout.  Each benchmark run is its own process,
so the counts must not depend on hash randomisation either.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True)
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["correct"], proc.stdout
    return doc["metrics"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat(workload):
    first = run_bench(workload, 7, 1)
    second = run_bench(workload, 7, 1)
    assert set(first) == {m["name"] for m in SPEC["per_layer"]}
    counts = [name for name, m in first.items() if m["unit"] == "count"]
    assert ([first[n]["value"] for n in counts]
            == [second[n]["value"] for n in counts])
    assert first["lie.lie_coefficients.calls"]["value"] > 0
    assert first["expr.normalize.terms_out"]["value"] > 0


def test_end_to_end_metrics_are_listed():
    metrics = run_bench("solve", 7, 0)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())
