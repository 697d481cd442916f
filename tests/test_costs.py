"""Scaling gates on the stages of ``costs.STAGES``, counted in Python
opcodes, and the opcode pins of ``BENCH_baseline.json``.

An order-N square has N^2 cells, so every "square" stage of building,
writing, reading and verifying it should cost at most about four times as
much when N doubles.  A ring, and a border of inner order n, has 4n + 4
cells, so a "ring" stage or a corner build should cost at most about
twice as much when its size doubles.  The gates compare opcode counts
(``costs.opcodes``) at each stage's pin size and twice that, so they hold
on any machine, and only as ratios, so they hold on every interpreter
version the package supports.  The counts themselves are pinned only on
the version that wrote the bench file.
"""

import json
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

from costs import STAGES, code_name, opcodes, pinned_totals, stage_opcodes

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "BENCH_baseline.json"

# a quadratic stage costs x4 per doubling of N; the margin covers the
# per-ring and per-line work that grows more slowly
MAX_GROWTH = 4.4
# a border, or a ring, costs x2 per doubling of its order
MAX_BORDER_GROWTH = 2.2


def _of_kind(kind):
    return [name for name, stage in STAGES.items() if stage.kind == kind]


def _grows_by_at_most(name, growth):
    pin = STAGES[name].pin
    small, large = (sum(stage_opcodes(name, size).values()) for size in (pin, 2 * pin))
    assert 0 < large <= growth * small, (small, large)


@pytest.mark.parametrize("stage", _of_kind("square"))
def test_square_stages_grow_with_the_cells(stage):
    _grows_by_at_most(stage, MAX_GROWTH)


@pytest.mark.parametrize("stage", _of_kind("ring"))
def test_ring_stages_grow_with_the_ring(stage):
    _grows_by_at_most(stage, MAX_BORDER_GROWTH)


@pytest.mark.parametrize(
    "stage", _of_kind("corners"), ids=lambda name: name.split("-", 1)[1]
)
def test_corner_builds_grow_with_the_border(stage):
    _grows_by_at_most(stage, MAX_BORDER_GROWTH)


def test_opcode_counts_are_deterministic_and_per_function():
    def inner(k):
        return [x for x in range(k)]

    def outer(k):
        twice = lambda x: 2 * x  # noqa: E731
        thrice = lambda x: 3 * x  # noqa: E731
        return inner(k), inner(2 * k), twice(k), thrice(k)

    first, second = opcodes(outer, 50), opcodes(outer, 50)
    assert first == second
    assert first[(__name__, code_name(outer.__code__))] > 0
    # two code objects with one qualified name still count apart
    assert sum("<lambda>" in code for _, code in first) == 2
    assert sum(first.values()) > sum(opcodes(outer, 10).values())


_pinned_totals = cache(pinned_totals)


def _bench():
    return json.loads(BENCH.read_text(encoding="utf-8"))


def test_the_bench_file_measures_the_stage_table_at_its_sizes():
    stages = _bench()["stages"]
    assert list(stages) == list(STAGES)
    for name, stage in STAGES.items():
        assert stages[name]["sizes"] == {
            "pin": stage.pin, "wall": list(stage.wall), "peak": stage.peak
        }, name
        assert list(stages[name]["wall_ms"]) == [str(size) for size in stage.wall], name


@pytest.mark.skipif(
    _bench()["python"] != "%d.%d" % sys.version_info[:2],
    reason="opcode counts move with the interpreter's version",
)
def test_opcode_totals_match_the_bench_file_on_its_python_version():
    stages = _bench()["stages"]
    assert _pinned_totals() == {name: stages[name]["opcodes"] for name in STAGES}


def test_opcode_totals_do_not_depend_on_the_hash_seed():
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    run = subprocess.run(
        [sys.executable, "-c", "import json, costs; print(json.dumps(costs.pinned_totals()))"],
        env={
            **os.environ,
            "PYTHONHASHSEED": seed,
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
        },
        capture_output=True, text=True, check=True,
    )
    assert json.loads(run.stdout) == _pinned_totals()
