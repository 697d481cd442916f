"""Checks for border plans, frames and full squares.

All verifiers return a :class:`CheckReport` instead of raising: an
invalid candidate is an answer, not an error.  Violations are collected
exhaustively so callers can print a complete diagnosis.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from operator import add, eq, sub

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


def _inner_order_violations(n: int) -> list[Violation]:
    """The ``inner-order`` violation if n is no inner order, else none."""
    try:
        check_inner_order(n)
    except ValueError:
        return [Violation("inner-order", f"n={n!r}")]
    return []


def verify_border(plan: BorderPlan) -> CheckReport:
    """Check the four magic-border conditions for a candidate plan.

    Valid means: b and c have n entries each, every value lies in the
    pool, the 2n+2 values are distinct and complement-free, and both the
    top row (v + sum(b) + w) and the left column (v + sum(c) + comp(w))
    sum to the magic constant of the full frame.
    """
    n = plan.n
    violations = _inner_order_violations(n)
    if violations:
        return CheckReport.from_violations(violations)
    c_base = complement_base(n)
    target = magic_constant(n + 2)
    s_lo, s_hi, l_lo, l_hi = pool_bounds(n)
    values = plan.values()

    if len(plan.b) != n:
        violations.append(Violation("shape", "b", expected=n, actual=len(plan.b)))
    if len(plan.c) != n:
        violations.append(Violation("shape", "c", expected=n, actual=len(plan.c)))

    # one walk: each hashable value maps to its first sighting, which the
    # report names; a value that cannot be hashed (a list, say) is named as
    # pool-membership alone
    seen = {}
    repeats = []  # a value's first sighting again, once per later sighting
    clashes = []  # the smaller of each complementary pair, if it is an int
    for value in values:
        if not isinstance(value, int) or not (
            s_lo <= value <= s_hi or l_lo <= value <= l_hi
        ):
            violations.append(Violation("pool-membership", f"value {value!r}"))
        try:
            if value in seen:
                repeats.append(seen[value])
                continue
            seen[value] = value
            # the value itself when no other value complements it
            partner = seen.get(c_base - value, value)
        except TypeError:  # no hash, or no number to complement
            continue
        if partner is not value:
            low = min(value, partner)
            if isinstance(low, int):
                clashes.append(low)

    if repeats:
        counts = Counter(repeats)
        # in order of first sighting, which the sort keeps among equal strings
        duplicates = [value for value in seen.values() if value in counts]
        for value in sorted(duplicates, key=str):
            violations.append(
                Violation("duplicate-value", f"value {value}", expected=1, actual=counts[value] + 1)
            )
    for value in sorted(clashes, key=str):
        violations.append(
            Violation("complement-clash", f"values {value} and {c_base - value}")
        )

    # each line summed once; a line holding a value that is no number is
    # named under pool-membership alone, so it reads as on target
    try:
        top = plan.v + sum(plan.b) + plan.w
    except TypeError:
        top = target
    try:
        left = plan.v + sum(plan.c) + (c_base - plan.w)
    except TypeError:
        left = target
    if top != target:
        violations.append(Violation("row-sum", "top row", expected=target, actual=top))
    if left != target:
        violations.append(Violation("column-sum", "left column", expected=target, actual=left))
    return CheckReport.from_violations(violations)


def write_ring(cells: list[list], k: int, plan: BorderPlan, shift: int) -> None:
    """Lay ``plan``, its values raised by ``shift``, out as ring k of ``cells``.

    The top row and left column of the ring carry the plan; every other ring
    cell holds the complement of the cell it faces, with the complement base
    raised by twice the shift.
    """
    hi = k + plan.n + 1
    pair_sum = complement_base(plan.n) + 2 * shift
    top = [plan.v + shift, *map(shift.__add__, plan.b), plan.w + shift]
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


def plan_from_frame(frame: BorderFrame) -> BorderPlan:
    """Read the plan back off a frame's top row and left column; the inverse
    of :func:`write_ring` on ring 0."""
    cells, order = frame.cells, frame.order
    top = cells[0][:order]
    left = [cells[i][0] for i in range(1, order - 1)]
    return BorderPlan(n=frame.n, v=top[0], w=top[-1], b=top[1:-1], c=left)


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


def _cell_type_violations(
    cells: Sequence[Sequence], types: tuple[type, ...] = (int, float)
) -> Iterator[Violation]:
    """Each cell that is none of ``types``, named with its value."""
    for i, row in enumerate(cells):
        for j, x in enumerate(row):
            if not isinstance(x, types):
                yield Violation("cell-type", f"cell ({i},{j}) holding {x!r}")


def _is_permutation(cells: Sequence[Sequence[int]], order: int, total: int) -> bool:
    """Whether the cells, whose sum is ``total``, hold 1..order^2 once each.

    Each cell x marks slot x of a byte table in one pass.  When the order^2
    cells mark all of slots 1..order^2 they mark one slot each, so every
    cell lies in 1..order^2 but for a negative x, which marks slot
    order^2+1+x and so falls short of its slot by order^2+1: the cells then
    sum to less than 1 + 2 + ... + order^2, and only ``total`` rules them
    out.  A cell that cannot index the table (out of range, or a float)
    sends the grid to a sort of its cells, compared with a lazy range, so
    no second list of order^2 fresh integers is built next to them.
    """
    size = order * order
    seen = bytearray(size + 1)
    try:
        for row in cells:
            for x in row:
                seen[x] = 1
    except (IndexError, TypeError):
        values = sorted(chain.from_iterable(cells))
        return len(values) == size and all(map(eq, values, range(1, size + 1)))
    return seen.count(0) == 1 and total == size * (size + 1) // 2


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

    One walk takes the line sums of the full square once and steps from
    order m to m-2 ring by ring, so the whole check costs O(N^2).  A ring
    whose facing pairs all sum to P = N^2+1 takes exactly P off every
    inner row and column and off each diagonal, since each of those lines
    meets the ring in one facing pair.  So the walk keeps the sums it took
    and one running offset, the P of every whole ring peeled so far, and
    compares them with each subsquare's target raised by that offset.
    Only a broken ring is taken off the sums cell by cell, and only its
    pairs are walked one by one to name each that fails.
    """
    return _verify_lines(cells, bordered=True)


def _verify_lines(cells: Sequence[Sequence[int]], bordered: bool) -> CheckReport:
    """The one walk behind :func:`verify_square` (the full square's lines,
    as ``line-sum``) and :func:`verify_bordered` (every concentric
    subsquare's lines, as ``subsquare-line-sum``, plus ring complements)."""
    violations = _square_shape_violations(cells)
    if violations:
        return CheckReport.from_violations(violations)
    order = len(cells)
    try:
        row_sums = list(map(sum, cells))
    except TypeError:  # no line holding such a cell can be summed
        return CheckReport.from_violations(_cell_type_violations(cells))
    if not _is_permutation(cells, order, sum(row_sums)):
        violations.append(
            Violation("not-permutation", f"cells are not 1..{order * order}")
        )

    condition = "subsquare-line-sum" if bordered else "line-sum"
    base = 3 if order % 2 else 4
    pair_sum = order * order + 1
    cols = list(zip(*cells))
    col_sums = list(map(sum, cols))
    diag = sum(row[t] for t, row in enumerate(cells))
    anti = sum(row[-1 - t] for t, row in enumerate(cells))
    # the pair sums of the whole rings peeled so far, by which the running
    # sums exceed the lines of the current subsquare
    peeled = 0
    m = order
    while True:
        lo = (order - m) // 2
        hi = lo + m - 1
        line_target = m * pair_sum // 2
        shifted = line_target + peeled
        if not (
            row_sums[lo : hi + 1].count(shifted) == m == col_sums[lo : hi + 1].count(shifted)
            and diag == shifted == anti
        ):
            prefix = f"order {m} " if bordered else ""
            failed = [
                (f"{kind} {i}", lines[i])
                for lines, kind in ((row_sums, "row"), (col_sums, "column"))
                for i in range(lo, hi + 1)
                if lines[i] != shifted
            ]
            failed += [("main diagonal", diag), ("anti diagonal", anti)]
            violations.extend(
                Violation(condition, prefix + where, expected=line_target, actual=total - peeled)
                for where, total in failed
                if total != shifted
            )
        if not bordered or m < base + 2:
            break
        top, bottom, left, right = cells[lo], cells[hi], cols[lo], cols[hi]
        corners = (top[lo] + bottom[hi], top[hi] + bottom[lo])
        across = list(map(add, top[lo + 1 : hi], bottom[lo + 1 : hi]))
        along = list(map(add, left[lo + 1 : hi], right[lo + 1 : hi]))
        if corners == (pair_sum, pair_sum) and (
            across.count(pair_sum) + along.count(pair_sum) == 2 * (m - 2)
        ):
            peeled += pair_sum
        else:  # a broken ring comes off the running sums cell by cell
            violations.extend(
                _facing_violations(cells, lo, hi, pair_sum, "ring-complement")
            )
            row_sums[lo + 1 : hi] = map(sub, row_sums[lo + 1 : hi], along)
            col_sums[lo + 1 : hi] = map(sub, col_sums[lo + 1 : hi], across)
            diag -= corners[0]
            anti -= corners[1]
        m -= 2
    return CheckReport.from_violations(violations)


def verify_frame(frame: BorderFrame) -> CheckReport:
    """Check a rendered frame: placement complementarity plus plan validity."""
    n = frame.n
    violations = _inner_order_violations(n)
    if violations:
        return CheckReport.from_violations(violations)
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
    try:
        violations.extend(
            _facing_violations(cells, 0, order - 1, pair_sum, "opposite-complement")
        )
    except TypeError:  # a border cell that is no number; the interior is empty
        return CheckReport.from_violations(
            _cell_type_violations(cells, (int, float, type(None)))
        )
    violations.extend(verify_border(plan_from_frame(frame)).violations)
    return CheckReport.from_violations(violations)
