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
from magicborders import construct_with_corners
from magicborders.corners import audit_order_m
assert verify_border(build_border(7)).valid
assert verify_bordered(build_square(12)).valid
# one corner build from each seed table, and the paper's order-m table
construct_with_corners(4, 1, 2)
construct_with_corners(6, 1, 2)
audit_order_m(8)
print(sorted({"typing", "importlib.resources"} & set(sys.modules)))
"""


def test_building_and_verifying_import_neither_typing_nor_importlib_resources():
    # annotations come from collections.abc, and the seed tables are literals
    run = subprocess.run(
        [sys.executable, "-I", "-S", "-c", BUILD_AND_VERIFY, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert run.stdout == "[]\n", run.stderr


CSV_ROUND_TRIP = """
import sys
sys.path.insert(0, sys.argv[1])
from magicborders.cli import main
path = sys.argv[2]
assert main(["build", "--order", "9", "--format", "csv", "--output", path]) == 0
assert main(["verify", "--bordered", path]) == 0
print(sorted({"csv"} & set(sys.modules)))
"""


def test_an_all_int_csv_round_trip_imports_no_csv(tmp_path):
    # every row is plain ints, so each is written by the % line and read by json's decoder
    run = subprocess.run(
        [sys.executable, "-I", "-S", "-c", CSV_ROUND_TRIP, str(SRC), str(tmp_path / "sq.csv")],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert run.stdout == "valid\n[]\n", run.stderr


# --- which modules each command loads -----------------------------------------

# the package's modules loaded so far, printed as one line of short names
LOADED = """
print(" ".join(sorted(m.split(".")[1] for m in sys.modules if m.startswith("magicborders."))))
"""
SET_UP_STEPS = """
import sys
sys.path.insert(0, sys.argv[1])
import magicborders.cli
print("argparse" in sys.modules)
""" + LOADED + """
from magicborders import build_border, construct_with_corners
build_border(3)
construct_with_corners(4, 1, 2)
""" + LOADED
# one command through cli.main, its document on stdin
COMMAND = """
import sys
sys.path.insert(0, sys.argv[1])
from magicborders.cli import main
code = main(sys.argv[2:])
""" + LOADED


def run_isolated(code: str, *args: str, stdin: str = "") -> list[str]:
    # -I -S: no site packages, so nothing but the package itself loads its modules
    run = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(SRC), *args],
        input=stdin, capture_output=True, text=True, timeout=60, check=True,
    )
    return run.stdout.splitlines()


def test_the_set_up_loads_only_the_modules_its_calls_run():
    has_argparse, after_import, after_calls = run_isolated(SET_UP_STEPS)
    assert has_argparse == "True"
    assert after_import.split() == ["cli", "core", "documents", "verify"]
    # neither the counter nor the square assembly
    assert after_calls.split() == [
        "cli", "construct", "core", "corners", "documents", "transform", "verify"
    ]


def test_verify_bordered_loads_no_construction_module():
    from magicborders import build_square
    from magicborders.documents import serialize_grid

    square = serialize_grid(build_square(9), "grid")
    verdict, loaded = run_isolated(COMMAND, "verify", "--bordered", "-", stdin=square)
    assert verdict == "valid"
    assert loaded.split() == ["cli", "core", "documents", "verify"]


def test_counting_loads_the_counter_and_no_construction_module():
    count, loaded = run_isolated(COMMAND, "enumerate", "--order", "5", "--corners", "1,3",
                                 "--count-only")
    assert int(count) > 0
    assert loaded.split() == ["cli", "core", "documents", "enumeration", "verify"]


def test_orbit_loads_the_symmetries_and_no_construction_module():
    from magicborders.documents import serialize_plan

    *images, loaded = run_isolated(COMMAND, "orbit", "-", stdin=serialize_plan(build_border(6)))
    assert len(images) == 8
    assert loaded.split() == ["cli", "core", "documents", "transform", "verify"]


def test_every_public_name_is_its_own_modules_object():
    import importlib

    import magicborders
    from magicborders import core, enumeration

    for name in magicborders.__all__:
        home = importlib.import_module(f"magicborders.{magicborders._HOMES[name]}")
        assert getattr(magicborders, name) is getattr(home, name), name
    assert enumeration.BudgetExhausted is core.BudgetExhausted
    assert magicborders.__version__ == "0.1.0"


def test_dir_lists_every_public_name_before_any_is_read():
    [missing] = run_isolated(
        "import sys; sys.path.insert(0, sys.argv[1]); import magicborders; "
        "print(sorted(set(magicborders.__all__) - set(dir(magicborders))))"
    )
    assert missing == "[]"


def test_an_unknown_name_is_an_attribute_error():
    import magicborders

    with pytest.raises(AttributeError, match="has no attribute 'search_first'"):
        magicborders.search_first
    assert not hasattr(magicborders, "_recipe")
    with pytest.raises(ImportError):
        from magicborders import verify_plan  # noqa: F401


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
