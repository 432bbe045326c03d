"""The benchmark's own checks: seeded inputs are byte-identical, and the
machine-independent counters of a traced run repeat exactly.

    python3 -m pytest perfbench/test_counters.py

The counter test runs every workload's traced mode twice (a few minutes).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# counts of work and outcomes; every timing is left out
COUNTERS = [m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
            if m["unit"] in ("count", "ratio")]


def _generate(name, seed, blocks=2):
    files = {}
    tasks = [t for b in range(blocks)
             for t in workloads.WORKLOADS[name].block(seed, b, files.__setitem__)]
    return files, [t.argv for t in tasks]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed(name):
    assert _generate(name, 7) == _generate(name, 7)
    assert _generate(name, 7) != _generate(name, 8)


def test_surfaces_shift_without_unary_minus():
    files, _ = _generate("analysis", 3)
    assert not any("--" in text or "+-" in text for text in files.values())


def _traced(name, seed):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--trace", "1"],
        cwd=HERE.parent, check=True, capture_output=True, text=True).stdout
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNTERS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counters_repeat_for_a_seed(name):
    first = _traced(name, 5)
    assert first == _traced(name, 5)
