"""Checks for border plans, frames and full squares.

All verifiers return a :class:`CheckReport` instead of raising: an
invalid candidate is an answer, not an error.  Violations are collected
exhaustively so callers can print a complete diagnosis.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from operator import add, eq, itemgetter, sub

from .core import (
    check_inner_order,
    complement_base,
    magic_constant,
    pool_bounds,
)


class Violation(
    namedtuple("Violation", "condition location expected actual", defaults=(None, None))
):
    """One failed condition: what was checked, where, and the numbers if any."""

    __slots__ = ()

    def __str__(self) -> str:
        msg = f"{self.condition} at {self.location}"
        if self.expected is not None or self.actual is not None:
            msg += f": expected {self.expected}, got {self.actual}"
        return msg


class CheckReport(namedtuple("CheckReport", "valid violations", defaults=((),))):
    """A verifier's answer: ``valid``, and every :class:`Violation` found."""

    __slots__ = ()

    @classmethod
    def from_violations(cls, violations: Iterable[Violation]) -> "CheckReport":
        vs = tuple(violations)
        return cls(valid=not vs, violations=vs)


class BorderPlan(namedtuple("BorderPlan", "n v w b c")):
    """One magic border candidate: corners plus top-row and left-column values.

    ``v`` and ``w`` are the upper-left and upper-right corners, ``b`` the
    top-row interior (left to right) and ``c`` the left-column interior
    (top to bottom).  The opposite half of the frame is implied by
    complementation.  Any shape of candidate may be stored; validity is
    the business of :func:`verify_border`.  ``b`` and ``c`` are stored as
    tuples, whatever iterables they are given as.
    """

    __slots__ = ()

    def __new__(cls, n: int, v: int, w: int, b: Iterable[int], c: Iterable[int]) -> "BorderPlan":
        return tuple.__new__(cls, (n, v, w, tuple(b), tuple(c)))

    @classmethod
    def _make(cls, iterable) -> "BorderPlan":  # so that _replace converts too
        return cls(*iterable)

    def values(self) -> tuple[int, ...]:
        """All 2n+2 chosen values (corners first, then b's, then c's)."""
        return (self.v, self.w) + self.b + self.c


class BorderFrame(namedtuple("BorderFrame", "n cells")):
    """An (n+2) x (n+2) grid holding only the border; inner cells are None.

    The repr names only ``n``: the cells are too many to print.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n!r})"

    @property
    def order(self) -> int:
        return self.n + 2


def verify_border(plan: BorderPlan) -> CheckReport:
    """Check the four magic-border conditions for a candidate plan.

    Valid means: b and c have n entries each, every value lies in the
    pool, the 2n+2 values are distinct and complement-free, and both the
    top row (v + sum(b) + w) and the left column (v + sum(c) + comp(w))
    sum to the magic constant of the full frame.

    A valid plan is accepted by whole-line checks; any other plan is
    walked value by value, which names every violation.
    """
    violations: list[Violation] = []
    n = plan.n
    try:
        check_inner_order(n)
    except ValueError:
        return CheckReport.from_violations(
            [Violation("inner-order", f"n={n!r}")]
        )
    c_base = complement_base(n)
    target = magic_constant(n + 2)
    s_lo, s_hi, l_lo, l_hi = pool_bounds(n)
    values = plan.values()

    if len(plan.b) == n == len(plan.c) and set(map(type, values)) == {int}:
        ordered = sorted(values)
        distinct = set(values)
        small = bisect_right(ordered, s_hi)
        # no value outside both pools, none in the gap between them; the
        # pools hold no value equal to its own complement.  Complements
        # swap the two pools, so a complementary pair of pool values has
        # exactly one member in the small pool: checking those suffices
        if (
            s_lo <= ordered[0]
            and ordered[-1] <= l_hi
            and small == bisect_left(ordered, l_lo)
            and len(distinct) == len(values)
            and distinct.isdisjoint(map(c_base.__sub__, ordered[:small]))
            and plan.v + sum(plan.b) + plan.w == target
            and plan.v + sum(plan.c) + (c_base - plan.w) == target
        ):
            return CheckReport(valid=True)

    if len(plan.b) != n:
        violations.append(Violation("shape", "b", expected=n, actual=len(plan.b)))
    if len(plan.c) != n:
        violations.append(Violation("shape", "c", expected=n, actual=len(plan.c)))

    for value in values:
        if not isinstance(value, int) or not (
            s_lo <= value <= s_hi or l_lo <= value <= l_hi
        ):
            violations.append(Violation("pool-membership", f"value {value}"))

    counts = Counter(values)
    duplicates = [(value, count) for value, count in counts.items() if count > 1]
    for value, count in sorted(duplicates, key=lambda kv: str(kv[0])):
        violations.append(
            Violation("duplicate-value", f"value {value}", expected=1, actual=count)
        )

    clashes = [
        value
        for value in counts
        if isinstance(value, int) and value < c_base - value and c_base - value in counts
    ]
    for value in sorted(clashes, key=str):
        violations.append(
            Violation("complement-clash", f"values {value} and {c_base - value}")
        )

    row_sum = plan.v + sum(plan.b) + plan.w
    if row_sum != target:
        violations.append(
            Violation("row-sum", "top row", expected=target, actual=row_sum)
        )
    col_sum = plan.v + sum(plan.c) + (c_base - plan.w)
    if col_sum != target:
        violations.append(
            Violation("column-sum", "left column", expected=target, actual=col_sum)
        )
    return CheckReport.from_violations(violations)


def write_ring(cells: list[list], k: int, plan: BorderPlan, shift: int) -> None:
    """Lay ``plan``, its values raised by ``shift``, out as ring k of ``cells``.

    The top row and left column of the ring carry the plan; every other ring
    cell holds the complement of the cell it faces, with the complement base
    raised by twice the shift.
    """
    hi = k + plan.n + 1
    pair_sum = complement_base(plan.n) + 2 * shift
    top = [plan.v + shift, *(x + shift for x in plan.b), plan.w + shift]
    cells[k][k : hi + 1] = top
    # each bottom cell faces the top cell in its column, each bottom
    # corner the top corner diagonally opposite
    bottom = [pair_sum - x for x in top]
    bottom[0], bottom[-1] = bottom[-1], bottom[0]
    cells[hi][k : hi + 1] = bottom
    for i, x in enumerate(plan.c, start=k + 1):
        row = cells[i]
        row[k] = x + shift
        row[hi] = pair_sum - x - shift


def read_ring(cells: Sequence[Sequence[int]], k: int, n: int, shift: int) -> BorderPlan:
    """The plan of inner order n on ring k of ``cells``, lowered by ``shift``;
    the inverse of :func:`write_ring`."""
    hi = k + n + 1
    top = cells[k][k : hi + 1]
    left = [cells[i][k] for i in range(k + 1, hi)]
    if shift:
        top = [x - shift for x in top]
        left = [x - shift for x in left]
    return BorderPlan(n=n, v=top[0], w=top[-1], b=top[1:-1], c=left)


def misplaced_cells(cells: Sequence[Sequence[int | None]]) -> Iterator[tuple[int, int, bool]]:
    """Cells breaking the frame placement rule, in row-major order.

    A frame fills its outer ring and leaves its interior empty (None).  Each
    offending cell is yielded as (i, j, on_border): an empty border cell
    when ``on_border`` is true, a filled interior cell otherwise.
    """
    hi = len(cells) - 1
    for i, row in enumerate(cells):
        for j, value in enumerate(row):
            on_border = i in (0, hi) or j in (0, hi)
            if on_border == (value is None):
                yield i, j, on_border


def _facing_violations(
    cells: Sequence[Sequence[int]], lo: int, hi: int, pair_sum: int, condition: str
) -> Iterator[Violation]:
    """Facing cells of the ring spanning rows and columns lo..hi whose sum is
    not ``pair_sum``.

    Each ring cell faces one partner: the far end of its column for top and
    bottom cells, of its row for left and right cells, and the diagonally
    opposite corner for corners.  Pairs are walked corners first.
    """
    facing = chain(
        ((lo, lo, hi, hi), (lo, hi, hi, lo)),
        ((lo, j, hi, j) for j in range(lo + 1, hi)),
        ((i, lo, i, hi) for i in range(lo + 1, hi)),
    )
    for i1, j1, i2, j2 in facing:
        total = cells[i1][j1] + cells[i2][j2]
        if total != pair_sum:
            yield Violation(
                condition,
                f"cells ({i1},{j1}) and ({i2},{j2})",
                expected=pair_sum,
                actual=total,
            )


def _square_shape_violations(cells: Sequence[Sequence[int]]) -> list[Violation]:
    order = len(cells)
    violations = []
    if order == 0:
        violations.append(Violation("shape", "empty grid"))
        return violations
    for i, row in enumerate(cells):
        if len(row) != order:
            violations.append(
                Violation("shape", f"row {i}", expected=order, actual=len(row))
            )
    return violations


def _is_permutation(cells: Sequence[Sequence[int]], order: int) -> bool:
    """Whether the cells hold 1..order^2 once each.

    Cells that all lie in 1..order^2 are marked in a byte table, and a
    table with every slot marked accepts them.  Any other grid is decided
    by sorting its cells and comparing them with a lazy range, so no second
    list of order^2 fresh integers is built next to them.
    """
    size = order * order
    seen = bytearray(size + 1)
    try:
        if all(1 <= min(row) and max(row) <= size for row in cells):
            for row in cells:
                for x in row:
                    seen[x] = 1
            if seen.count(0) == 1:
                return True
    except TypeError:  # a cell that cannot index the table, such as a float
        pass
    values = sorted(chain.from_iterable(cells))
    return len(values) == order * order and all(map(eq, values, range(1, len(values) + 1)))


def verify_square(cells: Sequence[Sequence[int]]) -> CheckReport:
    """Check that cells form a magic square: a permutation of 1..N^2 with
    every row, column and both main diagonals summing to the magic constant."""
    return _verify_lines(cells, bordered=False)


def verify_bordered(cells: Sequence[Sequence[int]]) -> CheckReport:
    """Check the concentric property on top of the plain magic conditions.

    Every concentric subsquare of order m (stepping down by 2 until order
    3 for odd N, 4 for even N) must have all rows, columns and both
    diagonals summing to m(N^2+1)/2, and within every proper ring the two
    cells opposite through the center must sum to N^2+1.

    The full square's own lines are always checked, so below order 3,
    where there is no ring, this is the plain magic check.

    A permutation is accepted in one whole-grid pass when:

    (a) in every proper ring, each cell and the cell facing it sum to
        P = N^2+1: the far end of its column for top and bottom cells, of
        its row for left and right cells, the diagonally opposite corner
        for corners;
    (b) every proper ring's top row and left column sum to mP/2, m being
        the ring's order;
    (c) the core (order 3 or 4, or the whole square below order 3) has
        all its lines summing to its own target.

    These imply every condition above, by induction from the core
    outwards.  Say the subsquare of order m-2 inside ring k has all its
    lines at (m-2)P/2.  The ring's bottom row faces its top row cell by
    cell, with the corners swapped, so by (a) and (b) it sums to
    mP - mP/2 = mP/2; likewise its right column faces its left column.
    Each other row of the order-m subsquare is a row of the order m-2 one
    plus a facing pair of the ring, so it sums to (m-2)P/2 + P = mP/2, and
    so does each other column.  Each diagonal adds one pair of opposite
    corners, P, to the inner diagonal.  (a) is the ring-complement
    condition itself, so with (c) as the base every subsquare passes;
    conversely every valid square satisfies (a)-(c).  So the whole-grid
    pass accepts exactly the valid squares, and any grid it does not
    accept takes the walk below, which names every violation.

    The walk takes the line sums of the full square once; stepping from
    order m to m-2 subtracts the peeled ring's two cells from each running
    sum, so the whole check costs O(N^2).
    """
    return _verify_lines(cells, bordered=True)


def _accepts_bordered(cells: Sequence[Sequence[int]], order: int) -> bool:
    """Whether a permutation square is bordered, by the whole-grid pass that
    :func:`verify_bordered` proves exact: facing pairs, ring top rows and
    left columns, then the core's lines."""
    pair_sum = order * order + 1
    rings = max(0, (order - (3 if order % 2 else 4)) // 2)
    cols = list(zip(*cells))
    for k in range(rings):
        hi = order - 1 - k
        top, bottom, left, right = cells[k], cells[hi], cols[k], cols[hi]
        line_target = (hi - k + 1) * pair_sum // 2
        if not (
            top[k] + bottom[hi] == pair_sum == top[hi] + bottom[k]
            and sum(top[k : hi + 1]) == line_target == sum(left[k : hi + 1])
            and {
                *map(add, top[k + 1 : hi], bottom[k + 1 : hi]),
                *map(add, left[k + 1 : hi], right[k + 1 : hi]),
            }
            == {pair_sum}
        ):
            return False
    core = [row[rings : order - rings] for row in cells[rings : order - rings]]
    m = len(core)
    line_target = m * pair_sum // 2
    diagonals = (
        [row[t] for t, row in enumerate(core)],
        [row[m - 1 - t] for t, row in enumerate(core)],
    )
    return all(sum(line) == line_target for line in chain(core, zip(*core), diagonals))


def _verify_lines(cells: Sequence[Sequence[int]], bordered: bool) -> CheckReport:
    """The one line-sum pass behind :func:`verify_square` (the full square's
    lines, as ``line-sum``) and :func:`verify_bordered` (every concentric
    subsquare's lines, as ``subsquare-line-sum``, plus ring complements)."""
    violations = _square_shape_violations(cells)
    if violations:
        return CheckReport.from_violations(violations)
    order = len(cells)

    is_permutation = _is_permutation(cells, order)
    if bordered and is_permutation and _accepts_bordered(cells, order):
        return CheckReport(valid=True)
    if not is_permutation:
        violations.append(
            Violation("not-permutation", f"cells are not 1..{order * order}")
        )

    condition = "subsquare-line-sum" if bordered else "line-sum"
    base = 3 if order % 2 else 4
    pair_sum = order * order + 1
    row_sums = [sum(row) for row in cells]
    col_sums = [sum(col) for col in zip(*cells)]
    diag = sum(cells[t][t] for t in range(order))
    anti = sum(cells[t][order - 1 - t] for t in range(order))
    m = order
    while True:
        k = (order - m) // 2
        lo, hi = k, k + m - 1
        line_target = m * pair_sum // 2
        prefix = f"order {m} " if bordered else ""
        for lines, kind in ((row_sums, "row"), (col_sums, "column")):
            if lines[lo : hi + 1].count(line_target) == m:
                continue
            for i in range(lo, hi + 1):
                if lines[i] != line_target:
                    violations.append(
                        Violation(
                            condition,
                            f"{prefix}{kind} {i}",
                            expected=line_target,
                            actual=lines[i],
                        )
                    )
        for total, name in ((diag, "main diagonal"), (anti, "anti diagonal")):
            if total != line_target:
                violations.append(
                    Violation(
                        condition, f"{prefix}{name}", expected=line_target, actual=total
                    )
                )
        if not bordered or m < base + 2:
            break
        # the ring's facing pairs as whole sides; a ring that fails is
        # walked pair by pair to name each broken pair
        top, bottom = cells[lo], cells[hi]
        inner = cells[lo + 1 : hi]
        across = list(map(add, top[lo + 1 : hi], bottom[lo + 1 : hi]))
        along = list(map(add, map(itemgetter(lo), inner), map(itemgetter(hi), inner)))
        if not (
            top[lo] + bottom[hi] == pair_sum == top[hi] + bottom[lo]
            and set(across) == set(along) == {pair_sum}
        ):
            violations.extend(
                _facing_violations(cells, lo, hi, pair_sum, "ring-complement")
            )
        # peel the ring off the running sums of the order m-2 subsquare
        row_sums[lo + 1 : hi] = map(sub, row_sums[lo + 1 : hi], along)
        col_sums[lo + 1 : hi] = map(sub, col_sums[lo + 1 : hi], across)
        diag -= top[lo] + bottom[hi]
        anti -= top[hi] + bottom[lo]
        m -= 2
    return CheckReport.from_violations(violations)


def verify_frame(frame: BorderFrame) -> CheckReport:
    """Check a rendered frame: placement complementarity plus plan validity."""
    n = frame.n
    order = frame.order
    cells = frame.cells
    if len(cells) != order or any(len(row) != order for row in cells):
        return CheckReport.from_violations(
            [Violation("shape", f"grid is not {order}x{order}")]
        )
    pair_sum = complement_base(n)
    violations = [
        Violation("missing-cell" if on_border else "interior-not-empty", f"cell ({i},{j})")
        for i, j, on_border in misplaced_cells(cells)
    ]
    if violations:
        return CheckReport.from_violations(violations)
    violations.extend(
        _facing_violations(cells, 0, order - 1, pair_sum, "opposite-complement")
    )
    violations.extend(verify_border(read_ring(cells, 0, n, 0)).violations)
    return CheckReport.from_violations(violations)
