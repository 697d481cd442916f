"""Scaling gates on the square pipeline, counted in Python opcodes.

An order-N square has N^2 cells, so every stage of building, writing,
reading and verifying it should cost at most about four times as much
when N doubles.  The gates compare opcode counts (``costs.opcodes``) at
N = 80 and N = 160, so they hold on any machine, and only as ratios, so
they hold on every interpreter version the package supports.
"""

import pytest

from magicborders import build_square, verify_bordered
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
