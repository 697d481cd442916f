"""Scaling gates on the square pipeline and corner builds, counted in
Python opcodes.

An order-N square has N^2 cells, so every stage of building, writing,
reading and verifying it should cost at most about four times as much
when N doubles.  A border of inner order n has 4n + 4 cells, so a corner
build should cost at most about twice as much when n doubles.  The gates
compare opcode counts (``costs.opcodes``) at N = 80 and N = 160, and at
n = 200 and n = 400, so they hold on any machine, and only as ratios, so
they hold on every interpreter version the package supports.
"""

import pytest

from magicborders import build_square, complement_base, construct_with_corners, verify_bordered
from magicborders.documents import CSV, GRID, parse_document, serialize_grid

from costs import opcodes

# a quadratic stage costs x4 per doubling of N; the margin covers the
# per-ring and per-line work that grows more slowly
MAX_GROWTH = 4.4

STAGES = {
    "build_square": lambda order: (build_square, order),
    "verify_bordered": lambda order: (verify_bordered, build_square(order)),
    "serialize_grid-grid": lambda order: (serialize_grid, build_square(order), GRID),
    "serialize_grid-csv": lambda order: (serialize_grid, build_square(order), CSV),
    "parse_document-grid": lambda order: (parse_document, serialize_grid(build_square(order))),
    "parse_document-csv": lambda order: (
        parse_document, serialize_grid(build_square(order), CSV)
    ),
}


def _cost(stage, order):
    func, *args = STAGES[stage](order)
    func(*args)  # the first call may import a module, as the CSV reader does json
    return sum(opcodes(func, *args).values())


@pytest.mark.parametrize("stage", STAGES)
def test_square_stages_grow_with_the_cells(stage):
    small, large = _cost(stage, 80), _cost(stage, 160)
    assert 0 < large <= MAX_GROWTH * small, (small, large)


# a linear stage costs x2 per doubling of n
MAX_CORNER_GROWTH = 2.2

# corners (v, w) at inner order n, C being complement_base(n): small and
# ascending, swapped, v large, all three reductions (swapped, v and w
# large), and a gap pair that block insertion alone grows
CORNER_KEYS = {
    "1,2": lambda n: (1, 2),
    "2,1": lambda n: (2, 1),
    "C-1,2": lambda n: (complement_base(n) - 1, 2),
    "C-2,C-1": lambda n: (complement_base(n) - 2, complement_base(n) - 1),
    "1,2n+2": lambda n: (1, 2 * n + 2),
}


def _corner_cost(key, n):
    v, w = CORNER_KEYS[key](n)
    construct_with_corners(n, v, w)  # uncounted, as the first call imports modules
    return sum(opcodes(construct_with_corners, n, v, w).values())


@pytest.mark.parametrize("key", CORNER_KEYS)
def test_corner_builds_grow_with_the_border(key):
    small, large = _corner_cost(key, 200), _corner_cost(key, 400)
    assert 0 < large <= MAX_CORNER_GROWTH * small, (small, large)


def test_opcode_counts_are_deterministic_and_per_function():
    def inner(k):
        return [x for x in range(k)]

    def outer(k):
        return inner(k), inner(2 * k)

    first, second = opcodes(outer, 50), opcodes(outer, 50)
    assert first == second
    code = outer.__code__
    assert first[getattr(code, "co_qualname", code.co_name)] > 0
    assert sum(first.values()) > sum(opcodes(outer, 10).values())
