"""Build complete bordered magic squares by filling one grid ring by ring.

The order-3 or order-4 classical square sits at the centre; every ring
around it is the magic border of its own order, with its values raised by
``ring_shift`` so they land between the pools of the rings outside it.
Filling the grid from the innermost ring outwards touches each cell once,
so building an order-N square costs O(N^2) with no recursion.
"""

from __future__ import annotations

from .construct import _recipe
from .verify import BorderFrame, BorderPlan, verify_border, write_ring

_BASE_3 = ((2, 7, 6), (9, 5, 1), (4, 3, 8))
_BASE_4 = ((16, 3, 2, 13), (5, 10, 11, 8), (9, 6, 7, 12), (4, 15, 14, 1))


def base_square(order: int) -> list[list[int]]:
    """Fixed classical core squares for the two core orders."""
    if order == 3:
        return [list(row) for row in _BASE_3]
    if order == 4:
        return [list(row) for row in _BASE_4]
    raise ValueError(f"base squares exist only for orders 3 and 4, got {order!r}")


def render_frame(plan: BorderPlan) -> BorderFrame:
    """Lay a valid plan out as an (n+2) x (n+2) frame with an empty interior."""
    report = verify_border(plan)
    if not report.valid:
        raise ValueError(
            "cannot render an invalid plan: " + "; ".join(str(v) for v in report.violations)
        )
    order = plan.n + 2
    cells: list[list[int | None]] = [[None] * order for _ in range(order)]
    write_ring(cells, 0, plan, 0)
    return BorderFrame(n=plan.n, cells=tuple(tuple(row) for row in cells))


def ring_shift(order: int, k: int) -> int:
    """Amount added to the border values of ring k (0 = outermost) of an
    order-N square: the 2k(N-k) values taken by the k rings outside it."""
    return 2 * k * (order - k)


def build_square(order: int) -> list[list[int]]:
    """A bordered magic square of the given order; deterministic in the order."""
    if not isinstance(order, int) or isinstance(order, bool) or order < 3:
        raise ValueError(
            f"bordered magic squares are built for orders >= 3, got {order!r}"
        )
    core = 3 if order % 2 else 4
    k = (order - core) // 2
    shift = ring_shift(order, k)
    cells = [[0] * order for _ in range(order)]
    for i, row in enumerate(base_square(core), start=k):
        cells[i][k : k + core] = [value + shift for value in row]
    for m in range(core + 2, order + 1, 2):
        k = (order - m) // 2
        # unchecked: the recipes are proved for every order (see construct)
        write_ring(cells, k, _recipe(m - 2), ring_shift(order, k))
    return cells

