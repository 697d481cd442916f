"""Deterministic recipes that build a magic border for every inner order n >= 3.

Each recipe is a literal two-column diagram: a string with one pick per
diagram row, row 1 first.  A pick is a side, ``L`` (the row's small
value) or ``R`` (its complement), then the line the value goes to: ``v``
or ``w`` for the upper corners, ``b`` for the top row, ``c`` for the left
column.  One function, :func:`_diagram`, reads every diagram into a
:class:`~magicborders.verify.BorderPlan`, and :func:`_picks` writes a
valid border back as its diagram, which is how :mod:`magicborders.corners`
edits its seeds.  A recipe's docstring states why its border is magic:
the picks fall into pairs whose deviations cancel line by line.  The same
n always yields the same border.

A diagram is given to :func:`_diagram` in parts, read one after another:
a literal pick string, or a ``(block, copies)`` pair that stands for the
block's picks repeated ``copies`` times.  The recipes are a fixed opening
followed by repeated blocks, so each line's values from a block are
interleaved arithmetic progressions, one per pick of the block on that
line; they are written as one ``range`` slice each, not row by row.

Each recipe family is proved once for every order, so its borders need no
check.  A family is fixed pick strings and runs of one fixed block whose
copy count k is affine in n (``recipe_even_4k`` and
``recipe_even_4k_plus_2`` one run each, ``recipe_odd`` a head and a tail
run).  One pick per diagram row makes the 2n+2 values distinct,
complement-free pool values at every k, so only the lines can fail.  Each
line's length is affine in k.  Each value is a row r or C - r, where
C = (n+2)^2 + 1 is quadratic in k and r is affine in k and in the copy t
of its block, so each line sum, taken over a number of copies affine in
k, is a polynomial of degree at most 3 in k, as is the target (n+2)C/2.  A family
whose lines are right at four consecutive k is therefore right at every
k.  ``tests/test_construct.py`` checks each family so, from its pick
strings alone, and checks the one order-3 literal as it stands.  So
:func:`~magicborders.assemble.build_square` writes recipe rings unchecked,
and :func:`build_border`, which serves the public API, checks its one
result with :func:`~magicborders.verify.verify_border`.
"""

from __future__ import annotations

from functools import lru_cache

from .core import check_inner_order, complement_base
from .verify import BorderPlan, verify_border

# four rows L, R, R, L: two pairs with deviations -1, +1 on the top row,
# then the same on the left column
_BLOCKS = "LbRbRbLbLcRcRcLc"


@lru_cache(maxsize=None)
def _block_lines(block: str) -> tuple[tuple[str, tuple[tuple[int, bool], ...]], ...]:
    """Per line a block names, its picks there: (block row from 0, small side)."""
    at: dict[str, list[tuple[int, bool]]] = {}
    for i, (side, line) in enumerate(zip(block[::2], block[1::2])):
        at.setdefault(line, []).append((i, side == "L"))
    return tuple((line, tuple(picks)) for line, picks in at.items())


def _diagram(n: int, *parts: str | tuple[str, int]) -> BorderPlan:
    """The border of inner order n that a diagram's parts describe, in order.

    A part is a pick string, read row by row, or a ``(block, copies)``
    pair, read as one ``range`` per pick of the block: the pick at block
    row i of a block starting at row r gives rows r + i + period*t for
    copies t = 0, 1, ..., which land at every q-th place of its line, q
    being the block's number of picks on that line.
    """
    c_base = complement_base(n)
    lines: dict[str, list[int]] = {"v": [], "w": [], "b": [], "c": []}
    row = 1
    for part in parts:
        if isinstance(part, str):
            for r, (side, line) in enumerate(zip(part[::2], part[1::2]), row):
                lines[line].append(r if side == "L" else c_base - r)
            row += len(part) // 2
            continue
        block, copies = part
        period = len(block) // 2
        span = period * copies
        for line, picks in _block_lines(block):
            out = lines[line]
            q = len(picks)
            start = len(out)
            out += [0] * (q * copies)
            for j, (i, small) in enumerate(picks, start):
                first = row + i
                out[j::q] = (
                    range(first, first + span, period)
                    if small
                    else range(c_base - first, c_base - first - span, -period)
                )
        row += span
    if row != 2 * n + 3:
        raise ValueError(f"a diagram of inner order {n} has {2 * n + 2} rows, got {row - 1}")
    if len(lines["v"]) != 1 or len(lines["w"]) != 1:
        raise ValueError("a diagram must name each corner exactly once")
    return BorderPlan(
        n=n, v=lines["v"][0], w=lines["w"][0], b=tuple(lines["b"]), c=tuple(lines["c"])
    )


def _picks(plan: BorderPlan) -> list[str]:
    """The diagram rows of a valid border, row 1 first: the inverse of :func:`_diagram`."""
    small = 2 * plan.n + 2
    c_base = complement_base(plan.n)
    rows = [""] * small
    for line, values in (("v", (plan.v,)), ("w", (plan.w,)), ("b", plan.b), ("c", plan.c)):
        for x in values:
            if x <= small:
                rows[x - 1] = "L" + line
            else:
                rows[c_base - x - 1] = "R" + line
    return rows


def recipe_even_4k(k: int) -> BorderPlan:
    """Border choice for n = 4k: a fixed ten-row opening, then balanced blocks.

    The opening puts the corners at rows 2 and 5 of the right column and
    spends rows 1-10; every later four-row block nets zero deviation, so
    the opening's sums (0 on the top row, -3 on the column against the
    corner deviation +3) settle the whole border.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    # pairs of rows (left & right): top row 1 & 2, 3 & 4, 7 & 5 deviate
    # -1, -1, +2; column 6 & 8, 9 & 10 deviate -2, -1
    return _diagram(4 * k, "LbRvLbRbRwLcLbRcLcRc", (_BLOCKS, k - 1))


def recipe_even_4k_plus_2(k: int) -> BorderPlan:
    """Border choice for n = 4k+2: a fixed fourteen-row opening, then blocks.

    The opening puts the corners at rows 1 and 4 of the left column and
    spends rows 1-14.  On the top row, v and w pair with rows 2 and 3
    (deviations -1, +1) and rows 5-8 pair like a block, so the sum is 0;
    the column pairs rows 10 & 9, 12 & 11 and 14 & 13 (+1 each), netting
    +3 against the corner deviation d(v, C-w) = -3.  Every later four-row
    block nets zero.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return _diagram(4 * k + 2, "LvRbRbLwLbRbRbLbRcLcRcLcRcLc", (_BLOCKS, k - 1))


def recipe_odd(n: int) -> BorderPlan:
    """Border choice for odd n >= 5.

    The corner v = n+7 sits alone with deviation -(n^2+2n-9)/2; the other
    selections come in pairs of deviation n+4, n+5 or +2 that add up to
    exactly +(n^2+2n-9)/2 on each side.  Rows split into a head (1..n-3,
    all right), a seven-row middle around w = n+1, and a tail (n+5..2n+2,
    all left).
    """
    check_inner_order(n)
    if n % 2 == 0 or n < 5:
        raise ValueError(f"recipe_odd needs an odd inner order >= 5, got {n}")
    # pairs of rows (left & right): n+5 & 1 on the top row and n+6 & 2 in
    # the column deviate n+4 each; n+7+t & 2+t (t = 1..n-5) deviate n+5
    # each, (n-5)/2 pairs per side
    pairs = (n - 5) // 2
    head = ("RbRc", ("RcRb", pairs))
    # n+1 & n-1, n+4 & n+2 on the top row and n & n-2, n+3 & C-w (row
    # n+1) in the column deviate +2 each
    middle = "RcRbLcLwRbLcLb"
    tail = ("LbLcLv", ("LcLb", pairs))
    return _diagram(n, *head, middle, *tail)


# Order 3 falls outside the general odd recipe.  Its border is the first
# one an exhaustive search over corner pairs finds; the tests keep that
# search as the oracle for this literal.
_N3 = _diagram(3, "LvLcLwRbRbRcRcRb")


def _recipe(n: int) -> BorderPlan:
    """The recipe's border for inner order n, unchecked, since every family
    is proved for every order (see the module docstring).

    n=4 runs the 4k recipe's fixed opening alone.
    """
    if n == 3:
        return _N3
    if n % 4 == 0:
        return recipe_even_4k(n // 4)
    if n % 2 == 0:
        return recipe_even_4k_plus_2((n - 2) // 4)
    return recipe_odd(n)


def build_border(n: int) -> BorderPlan:
    """A verified magic border for inner order n; deterministic in n."""
    check_inner_order(n)
    plan = _recipe(n)
    report = verify_border(plan)
    if not report.valid:
        raise RuntimeError(
            f"recipe produced an invalid border for n={n}: "
            + "; ".join(str(v) for v in report.violations)
        )
    return plan
