"""Determinism self-check of the benchmark.

Two traced runs with the same seed, in two separate processes (so with
different string-hash seeds), must report identical values for every
count metric, and both must pass their oracles.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count"}


@pytest.mark.parametrize("workload", ["catalog-ingest", "oai-federation", "portal-mix"])
def test_traced_counts_repeat_exactly(workload):
    first, second = traced_run(workload, 5), traced_run(workload, 5)
    assert first["correct"] and second["correct"]
    assert counts(first) == counts(second)
    assert any(value for name, value in counts(first).items() if name != "src.loc")
