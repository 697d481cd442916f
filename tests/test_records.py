"""The result records are named tuples: immutable, normalised, cheap to import."""

import math
import subprocess
import sys
from pathlib import Path

import pytest

from magicborders import BorderPlan, CanonicalBorder, OmegaKey, SearchBudget, build_border
from magicborders.assemble import render_frame

SRC = Path(__file__).resolve().parents[1] / "src"

COLD_START = """
import sys
sys.path.insert(0, sys.argv[1])
import magicborders.cli
from magicborders import build_border, construct_with_corners
build_border(3)
construct_with_corners(4, 1, 2)
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""


def test_cold_start_imports_neither_dataclasses_nor_inspect():
    # -I -S: no site packages, so nothing but the package itself can pull them in
    run = subprocess.run(
        [sys.executable, "-I", "-S", "-c", COLD_START, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert run.stdout == "[]\n", run.stderr


BUILD_AND_VERIFY = """
import sys
sys.path.insert(0, sys.argv[1])
import magicborders.cli
from magicborders import build_border, build_square, verify_border, verify_bordered
assert verify_border(build_border(7)).valid
assert verify_bordered(build_square(12)).valid
print(sorted({"typing", "importlib.resources"} & set(sys.modules)))
"""


def test_building_and_verifying_import_neither_typing_nor_importlib_resources():
    # annotations come from collections.abc, and only a corner build that
    # reads the seed tables loads importlib.resources
    run = subprocess.run(
        [sys.executable, "-I", "-S", "-c", BUILD_AND_VERIFY, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert run.stdout == "[]\n", run.stderr


def test_fields_cannot_be_assigned():
    plan = build_border(4)
    with pytest.raises(AttributeError):
        plan.v = 3
    with pytest.raises(AttributeError):
        plan.extra = 3
    with pytest.raises(AttributeError):
        OmegaKey(4, 1, 2).n = 6


def test_plan_lines_become_tuples_through_the_constructor_and_replace():
    plan = BorderPlan(4, 1, 2, [34, 33, 32, 9], iter([6, 30, 29, 10]))
    assert plan.b == (34, 33, 32, 9) and plan.c == (6, 30, 29, 10)
    edited = plan._replace(b=[34, 33, 32, 8])
    assert type(edited) is BorderPlan and edited.b == (34, 33, 32, 8)
    assert edited.c is plan.c


def test_canonical_border_sorts_its_sets():
    border = CanonicalBorder(n=4, v=1, w=2, b_set=[34, 9, 33, 32], c_set=(30, 6, 10, 29))
    assert border.b_set == (9, 32, 33, 34) and border.c_set == (6, 10, 29, 30)
    assert border._replace(c_set=[29, 6, 30, 10]).c_set == (6, 10, 29, 30)
    assert CanonicalBorder.from_plan(build_border(4)).to_plan().b == tuple(sorted(build_border(4).b))


@pytest.mark.parametrize("field", ["max_nodes", "max_seconds"])
@pytest.mark.parametrize("bad", [0, -1, math.nan])
def test_search_budget_rejects_limits_that_are_not_positive(field, bad):
    with pytest.raises(ValueError, match=field):
        SearchBudget(**{field: bad})
    with pytest.raises(ValueError, match=field):
        SearchBudget()._replace(**{field: bad})


def test_defaults_and_keyword_construction():
    assert SearchBudget() == (None, None)
    assert SearchBudget(max_seconds=2.5).max_seconds == 2.5
    assert BorderPlan(n=4, v=1, w=2, b=(), c=()) == BorderPlan(4, 1, 2, (), ())


def test_hash_and_repr_follow_the_fields():
    plan = build_border(5)
    assert hash(plan) == hash((plan.n, plan.v, plan.w, plan.b, plan.c))
    assert repr(OmegaKey(4, 1, 2)) == "OmegaKey(n=4, v=1, w=2)"
    frame = render_frame(plan)
    assert repr(frame) == "BorderFrame(n=5)"
