"""Self-test of the benchmark at a tiny size.

Each workload runs end to end through ``run.py --size tiny``.  The tests
check that every metric named in ``BENCHMARK.json`` is printed with its
unit, that the output checks pass, that another seed changes the inputs
but not the metric set, and that the exact counters of a traced run
repeat across two runs of one seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig4_roc", "fig9_density", "serve")

#: Counters that must repeat exactly across traced runs of one seed.
EXACT = (
    "deployment.gz_builds",
    "attacks.pmf_calls",
    "localization.rows",
    "network.index_builds",
    "experiments.store_saves",
    "experiments.store_bytes_written",
)


def _declared(kind: str) -> dict:
    """Names and units of the metrics ``BENCHMARK.json`` declares."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in benchmark[kind]}


def _run(workload: str, seed: int, trace: int) -> tuple:
    """Run the benchmark once; returns its human lines and its result."""
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            f"--workload={workload}",
            f"--seed={seed}",
            "--seconds=1",
            f"--trace={trace}",
            "--size=tiny",
        ],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _inputs_digest(lines) -> str:
    (line,) = [line for line in lines if line.startswith("inputs ")]
    return line.split()[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_checks_pass(workload):
    declared = _declared("end_to_end")
    digests = set()
    for seed in (1, 2):
        lines, result = _run(workload, seed, 0)
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        units = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert units == declared
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
        digests.add(_inputs_digest(lines))
    assert len(digests) == 2, "another seed must change the inputs"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    declared = _declared("per_layer")
    first_lines, first = _run(workload, 1, 1)
    _, again = _run(workload, 1, 1)
    for result in (first, again):
        assert result["correct"] is True
        units = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert units == declared
    for name in EXACT:
        assert first["metrics"][name]["value"] == again["metrics"][name]["value"], name
    if workload == "fig9_density":
        # Two g(z) tables per density: the session's and the training pass's.
        assert first["metrics"]["deployment.gz_builds"]["value"] == 8
    assert any(line.startswith("tracing overhead") for line in first_lines)
