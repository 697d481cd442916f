"""Corner-prescribed borders for even inner orders.

At any order, corners the row-parity lemma rules out
(:func:`~magicborders.core.forbidden_by_parity`: small corners need
opposite parity at even n, equal parity at odd n) raise
:class:`~magicborders.core.InfeasibleCornersError`.  At even n the lemma
is also sufficient and every other pair is built; at odd n none is, as no
rule beyond the lemma is proved there.  (A conjectured rule adds at odd
n, for small corners v < w, that v + w is neither 2n nor 2n+2 and (v, w)
neither (n-4, n) nor (n+1, n+5).  It matches the exact counts at every
key v < w for odd n = 3..19, is unproved, and construction does not use
it.)

Construction never searches.  It starts from a seed held in this module
as its two-column diagram's pick string (see :mod:`magicborders.construct`),
an order-4 border from the paper's table or an order-6 border from a table
of first search results; the order-4 seed for even v < odd w is the mirror
of the one for (w, v), a relabelling of its picks.  It grows the picks
four orders at a time with one of two edits:

- the +4 extension, which ``_small_corners`` splices in, adds the eight
  fixed rows of ``_EXTENSION``, the first ``shift`` of them above the
  existing rows and the rest below, so both corners rise by the shift
  (0..8);
- block insertion splices one of six eight-row blocks in between the
  corners' rows, so v stays and w rises by 8.  It covers the 20 "gap"
  pairs per order that no extension reaches, and a gap pair (v, w) at
  order n comes from the gap pair (v, w-8) at order n-4.

Both edits keep the invariant behind validity at even order: every line
holds as many small as large values, and the rows of its small values
sum to the rows of its large ones.  A build is one splice of the seed's
picks: extension rows wrap them, and the chain's blocks all go in at one
row after v, as blocks and extension rows put as many small as large
values on each line and so leave each insertion the same seed rows to
pass.  It reads one diagram in O(n), and a border with small ascending
corners lists each line in diagram row order.

Other corners reduce to small ascending ones through three facts, each
undone by one symmetry of the square, a word in the generators of
:mod:`magicborders.transform`, that changes it alone: the reduced v
exceeds the reduced w (r, reflect_vertical, swaps the corners), v is
large (rtr, anti_transpose, complements v), w is large (t, transpose,
complements w).

The paper's parameterized table for the gap pairs at m = 8, 12, 16, ...
is kept, with its polynomials as printed, as an artifact for ``tables
--check``: its entries are data, not trusted ground truth, so each
instantiation is classified by the verifier, repaired when one value is
off, and otherwise rebuilt by the construction above.
"""

from __future__ import annotations

from collections import namedtuple

from .construct import _BLOCKS, _diagram
from .core import (
    InfeasibleCornersError,
    check_corners,
    complement_base,
    forbidden_by_parity,
    in_pool,
    magic_constant,
)
from .transform import ANTI_TRANSPOSE, REFLECT_VERTICAL, TRANSPOSE, apply_symmetry
from .verify import BorderPlan, verify_border


# --- seed tables -----------------------------------------------------------

# a signed term: the one bracketed square, or a run free of signs
_TERM = r"[+-]?(?:\(m\+2\)\^2|[^+-]+)"


def eval_poly(expr: str, m: int) -> int:
    """Evaluate a table polynomial like '(m+2)^2-15', 'm^2+2m+4' or '2m-1',
    whose terms are constants, m^2, (m+2)^2 and multiples km (no bare m)."""
    # only the tables read polynomials, so only they load re; its cache
    # compiles the pattern once
    import re

    total = 0
    for term in re.findall(_TERM, expr.strip()):
        sign = -1 if term.startswith("-") else 1
        t = term.lstrip("+-")
        if t == "(m+2)^2":
            value = (m + 2) ** 2
        elif t == "m^2":
            value = m * m
        elif t.endswith("m"):
            value = int(t[:-1]) * m
        else:
            value = int(t)
        total += sign * value
    return total


class Table2Row(namedtuple("Table2Row", "v w_expr b_exprs c_exprs")):
    """One parameterized seed entry: corner v, and w/b/c as polynomials in m."""

    __slots__ = ()

    @property
    def row_id(self) -> str:
        return f"{self.v}&{self.w_expr}"

    def instantiate(self, m: int) -> BorderPlan:
        block_b, block_c = block_sets(m)
        b = block_b + tuple(eval_poly(e, m) for e in self.b_exprs)
        c = block_c + tuple(eval_poly(e, m) for e in self.c_exprs)
        return BorderPlan(n=m, v=self.v, w=eval_poly(self.w_expr, m), b=b, c=c)


# the paper's order-4 table, one border per (odd v, even w) pair, as its
# diagram picks (the paper lists each line in diagram row order)
_ORDER4 = {
    (1, 2): "LvLwRbRbRbLcRcRcLbLc", (1, 4): "LvRbRcLwRbRbLcLbLcRc",
    (1, 6): "LvRbRbRcLbLwRbLcRcLc", (1, 8): "LvRbLbRbRcRbRcLwLcLc",
    (1, 10): "LvRbRcLbRcRbRbLcLcLw", (3, 2): "RbLwLvLcRbRcRbLbRcLc",
    (3, 4): "RbRbLvLwLbLcRcRcRbLc", (3, 6): "RbRbLvLbRcLwLcRcLcRb",
    (3, 8): "RbRcLvLcLbRbRcLwRbLc", (3, 10): "LbRbLvRcRbRcRbLcLcLw",
    (5, 2): "RbLwRbLbLvLcRbRcLcRc", (5, 4): "RbLbRbLwLvLcRbRcRcLc",
    (5, 6): "RbLbRbRcLvLwLcLcRbRc", (5, 8): "LbRcRbRbLvLcRbLwLcRc",
    (5, 10): "LbRcRbRbLvLcRcLcRbLw", (7, 2): "RbLwLbLcRbRbLvRcLcRc",
    (7, 4): "RbLbRbLwLcRcLvLcRbRc", (7, 6): "LbRbRbRcLcLwLvLcRbRc",
    (7, 8): "RbLcRcRcLbLcLvLwRbRb", (7, 10): "LbRcLcRbRbRcLvLcRbLw",
    (9, 2): "RbLwLbLcRbLcRcRbLvRc", (9, 4): "RbLbLcLwRcRbLcRbLvRc",
    (9, 6): "LbRbLcRbRcLwLcRcLvRb", (9, 8): "LbRbRcLcLcRbRcLwLvRb",
    (9, 10): "LbLcRcRcRbLcRbRbLvLw",
}

# reflect_vertical on picks, every row in place: the corners trade places
# and the left column takes its complements
_MIRROR = {"Lv": "Lw", "Lw": "Lv", "Rv": "Rw", "Rw": "Rv", "Lc": "Rc", "Rc": "Lc"}

# one border of inner order 6 per ascending opposite-parity pair v < w,
# the first the exhaustive search lists, as its fourteen diagram picks
# (row 1 first; see construct._diagram)
_ORDER6 = {
    (1, 2): "LvLwLcRbRbRbRcLbRbRcRcLcLbLc", (1, 4): "LvLbRbLwRbRbRbLcRcRcRcLcLcLb",
    (1, 6): "LvLbRbRbRbLwLcRcRbRcRcLbLcLc", (1, 8): "LvLbRbRbRbLcRcLwRcRcRbLbLcLc",
    (1, 10): "LvLbRbRbLcRcRbRcRcLwRbLbLcLc", (1, 12): "LvLbRbRbLbRbRbRcRcRcLcLwLcLc",
    (1, 14): "LvLbRbRbRcLbRbRcRbRcLcLcLcLw", (2, 3): "LcLvLwRbRbRbRcLbRcRbRcLbLcLc",
    (2, 5): "LbLvRbRbLwRbLcRbRcRcRcLcLbLc", (2, 7): "LbLvRbRbRbLcLwRcRcRbRcLbLcLc",
    (2, 9): "LbLvRbRbLcRbRcRcLwRcRbLbLcLc", (2, 11): "LbLvRbLcRbRcRcRbRcRbLwLbLcLc",
    (2, 13): "LbLvRbRbLbRbRcRbRcRcLcLcLwLc", (3, 4): "LbRbLvLwRbLcRbRbRcRcRcLcLcLb",
    (3, 6): "LbRbLvRbLcLwRbRcRbRcRcLbLcLc", (3, 8): "LbRbLvLcRbRbRcLwRcRcRbLbLcLc",
    (3, 10): "LbRbLvLcRbRbRcRcRcLwLbRbLcLc", (3, 12): "LbRbLvLbRbRbRbRcRcLcRcLwLcLc",
    (3, 14): "LbRbLvLbRbRbRcRcRbRcLcLcLcLw", (4, 5): "LbRbRbLvLwLcRbRbRcLbRcRcLcLc",
    (4, 7): "LbRbLcLvRbRbLwRcRcRcRbLbLcLc", (4, 9): "LbLcRbLvRbRcRbRcLwRcRbLbLcLc",
    (4, 11): "LbRbLcLvRbRcRbRcRcLbLwRbLcLc", (4, 13): "LbLcRbLvRcRcRbRcRbRbLbLcLwLc",
    (5, 6): "LbLcRbRbLvLwRbRcRcRbRcLbLcLc", (5, 8): "LbLcRbRbLvRbRcLwRcRcLbRbLcLc",
    (5, 10): "LbLcRbRbLvRcRbRcRcLwLbLcRbLc", (5, 12): "LbLbRbRbLvRbRbRcLcRcRcLwLcLc",
    (5, 14): "LbLbRbRbLvRbRcRcRbLcRcLcLcLw", (6, 7): "LbLcRbRbRbLvLwRcRcLbRcRbLcLc",
    (6, 9): "LbLcRbRbRcLvRbRcLwRcLcLbLcRb", (6, 11): "LbLbRbRbRbLvRcRbLcRcLwLcRcLc",
    (6, 13): "LbLbRbRbRbLvRcLcRcRbRcLcLwLc", (7, 8): "LbLbRbRbRbRbLvLwLcRcRcLcRcLc",
    (7, 10): "LbLbRbRbRbRcLvRbLcLwLcRcRcLc", (7, 12): "LbLbRbRbRbLcLvRcRcRbRcLwLcLc",
    (7, 14): "LbLbRbRbRbRcLvLcRcRcLcRbLcLw", (8, 9): "LbLbRbRbRcRbRbLvLwLcLcLcRcRc",
    (8, 11): "LbLbRbRbLcRbRcLvRbRcLwRcLcLc", (8, 13): "LbLbRbRbLcRbRcLvRcRcRbLcLwLc",
    (9, 10): "LbLbRbLcRbRbRcRbLvLwRcRcLcLc", (9, 12): "LbLbLcRbRbRcRbRbLvRcRcLwLcLc",
    (9, 14): "LbLbRbLcRbRcRbRcLvRcRbLcLcLw", (10, 11): "LbLbLcRbRbRbRcRcRbLvLwLcRcLc",
    (10, 13): "LbLbLcRbRbRcRcRbRbLvLcRcLwLc", (11, 12): "LbLbLcRbRbRcRcRbRbLcLvLwRcLc",
    (11, 14): "LbLbLcRbRbRcRbRcRcLcLvRbLcLw", (12, 13): "LbLbLcRbRbRcRcLcRbRbRcLvLwLc",
    (13, 14): "LbLbLcRbRbRcRcLcRcRbRbLcLvLw",
}

# the paper's parameterized table for the gap pairs at m = 8, 12, 16, ...:
# each value a polynomial in m for eval_poly; instantiate() completes b
# and c with block_sets(m)
_ORDER_M = (
    Table2Row(1, "2m+2",
              ("10", "14", "16", "m^2+2m+4", "(m+2)^2-15", "(m+2)^2-12", "(m+2)^2-11", "(m+2)^2-1"),
              ("7", "8", "9", "11", "(m+2)^2-5", "(m+2)^2-4", "(m+2)^2-3", "(m+2)^2-2")),
    Table2Row(3, "2m+2",
              ("7", "13", "14", "m^2+2m+4", "(m+2)^2-15", "(m+2)^2-11", "(m+2)^2-7", "(m+2)^2-1"),
              ("4", "9", "10", "15", "(m+2)^2-10", "(m+2)^2-5", "(m+2)^2-4", "(m+2)^2")),
    Table2Row(5, "2m+2",
              ("2", "13", "2m-1", "m^2+2m+4", "m^2+2m+5", "(m+2)^2-8", "(m+2)^2-7", "(m+2)^2-2"),
              ("4", "10", "11", "14", "(m+2)^2-11", "(m+2)^2-6", "(m+2)^2-5", "(m+2)^2")),
    Table2Row(7, "2m+2",
              ("3", "5", "15", "m^2+2m+4", "(m+2)^2-10", "(m+2)^2-9", "(m+2)^2-5", "(m+2)^2-3"),
              ("2", "12", "13", "16", "(m+2)^2-13", "(m+2)^2-8", "(m+2)^2-7", "(m+2)^2")),
    Table2Row(2, "2m+1",
              ("7", "13", "16", "m^2+2m+3", "(m+2)^2-13", "(m+2)^2-11", "(m+2)^2-7", "(m+2)^2-2"),
              ("4", "9", "10", "15", "(m+2)^2-10", "(m+2)^2-5", "(m+2)^2-4", "(m+2)^2")),
    Table2Row(4, "2m+1",
              ("3", "13", "2m-1", "m^2+2m+3", "m^2+2m+5", "(m+2)^2-8", "(m+2)^2-7", "(m+2)^2"),
              ("5", "10", "11", "14", "(m+2)^2-11", "(m+2)^2-6", "(m+2)^2-5", "(m+2)^2-1")),
    Table2Row(6, "2m+1",
              ("3", "9", "16", "m^2+2m+3", "(m+2)^2-13", "(m+2)^2-9", "(m+2)^2-4", "(m+2)^2-3"),
              ("2", "11", "12", "15", "(m+2)^2-12", "(m+2)^2-7", "(m+2)^2-6", "(m+2)^2")),
    Table2Row(8, "2m+1",
              ("4", "14", "15", "m^2+2m+3", "(m+2)^2-15", "(m+2)^2-10", "(m+2)^2-6", "(m+2)^2-5"),
              ("2", "5", "12", "13", "(m+2)^2-9", "(m+2)^2-8", "(m+2)^2-2", "(m+2)^2")),
    Table2Row(1, "2m",
              ("8", "9", "2m-1", "m^2+2m+4", "m^2+2m+8", "(m+2)^2-11", "(m+2)^2-3", "(m+2)^2-2"),
              ("5", "10", "11", "2m+2", "m^2+2m+7", "(m+2)^2-6", "(m+2)^2-5", "(m+2)^2-1")),
    Table2Row(3, "2m",
              ("7", "12", "2m+2", "m^2+2m+4", "m^2+2m+6", "(m+2)^2-13", "(m+2)^2-7", "(m+2)^2-1"),
              ("4", "9", "10", "13", "(m+2)^2-10", "(m+2)^2-5", "(m+2)^2-4", "(m+2)^2")),
    Table2Row(5, "2m",
              ("2", "14", "2m+1", "m^2+2m+3", "m^2+2m+6", "(m+2)^2-12", "(m+2)^2-11", "(m+2)^2-1"),
              ("3", "10", "11", "13", "(m+2)^2-11", "(m+2)^2-6", "(m+2)^2-5", "(m+2)^2")),
    Table2Row(2, "2m-1",
              ("8", "13", "2m+2", "m^2+2m+4", "m^2+2m+5", "(m+2)^2-11", "(m+2)^2-6", "(m+2)^2-3"),
              ("3", "9", "10", "14", "(m+2)^2-10", "(m+2)^2-5", "(m+2)^2-4", "(m+2)^2")),
    Table2Row(4, "2m-1",
              ("8", "12", "2m+2", "m^2+2m+4", "m^2+2m+5", "(m+2)^2-13", "(m+2)^2-6", "(m+2)^2-2"),
              ("2", "9", "10", "13", "(m+2)^2-10", "(m+2)^2-5", "(m+2)^2-4", "(m+2)^2")),
    Table2Row(6, "2m-1",
              ("3", "11", "14", "m^2+2m+4", "(m+2)^2-12", "(m+2)^2-11", "(m+2)^2-4", "(m+2)^2-1"),
              ("4", "9", "10", "2m+2", "(m+2)^2+2m+5", "(m+2)^2-7", "(m+2)^2-6", "(m+2)^2")),
    Table2Row(1, "2m-2",
              ("5", "10", "2m", "m^2+2m+3", "m^2+2m+8", "(m+2)^2-8", "(m+2)^2-3", "(m+2)^2-1"),
              ("6", "11", "12", "2m+1", "m^2+2m+6", "(m+2)^2-7", "(m+2)^2-6", "(m+2)^2-2")),
    Table2Row(3, "2m-2",
              ("7", "2m-1", "2m+2", "m^2+2m+4", "m^2+2m+5", "m^2+2m+9", "(m+2)^2-7", "(m+2)^2-3"),
              ("2", "9", "10", "2m-3", "m^2+2m+10", "(m+2)^2-5", "(m+2)^2-4", "(m+2)^2")),
    Table2Row(2, "2m-3",
              ("7", "11", "2m+2", "m^2+2m+5", "m^2+2m+7", "(m+2)^2-11", "(m+2)^2-7", "(m+2)^2"),
              ("4", "9", "10", "2m+1", "m^2+2m+6", "(m+2)^2-5", "(m+2)^2-4", "(m+2)^2-2")),
    Table2Row(4, "2m-3",
              ("11", "2m-1", "2m+1", "m^2+2m+3", "m^2+2m+5", "m^2+2m+7", "(m+2)^2-11", "(m+2)^2-1"),
              ("3", "7", "8", "12", "(m+2)^2-8", "(m+2)^2-5", "(m+2)^2-4", "(m+2)^2")),
    Table2Row(1, "2m-4",
              ("2m-3", "2m", "2m+1", "m^2+2m+3", "m^2+2m+6", "m^2+2m+7", "m^2+2m+11", "(m+2)^2-1"),
              ("6", "7", "8", "2m-5", "m^2+2m+12", "(m+2)^2-4", "(m+2)^2-3", "(m+2)^2-2")),
    Table2Row(2, "2m-5",
              ("8", "2m", "2m+2", "m^2+2m+4", "m^2+2m+7", "m^2+2m+8", "(m+2)^2-11", "(m+2)^2-1"),
              ("5", "6", "9", "2m-1", "m^2+2m+9", "(m+2)^2-6", "(m+2)^2-3", "(m+2)^2-2")),
)


def block_sets(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Balanced four-row fillers shared by all parameterized entries at order m."""
    if m % 4 or m < 8:
        raise ValueError(f"parameterized seeds exist for orders 8, 12, 16, ...; got {m}")
    b: list[int] = []
    c: list[int] = []
    for i in range(1, (m - 8) // 4 + 1):
        b += [11 + 8 * i, 16 + 8 * i, m * m + 2 * m - 2 + 8 * i, m * m + 2 * m + 1 + 8 * i]
        c += [13 + 8 * i, 14 + 8 * i, m * m + 2 * m + 3 + 8 * i, m * m + 2 * m + 4 + 8 * i]
    return tuple(b), tuple(c)


# --- the two steps, as diagram edits -----------------------------------------

# two top-row pairs (rows 1 & 2, 4 & 3), then two column pairs (6 & 5,
# 7 & 8), deviating -1, +1 on each line
_EXTENSION = "LbRbRbLbRcLcLcRc"

# The eight rows a block insertion splices in at row t, keyed by what
# moving rows t onward 8 rows later did to each line: e counts the line's
# moved small values minus its moved large ones, so the move shifted the
# line's signed row sum by 8e.  Each block puts two small and two large
# values on each line, at offsets 0..7 whose signed sum there is -8e.
# Only the six keys that some seed's walk stops at are held.
_BLOCK = {
    (0, 0): _BLOCKS,
    (-1, -1): "RbRcRcRbLbLcLcLb",
    (1, -1): "LbLbRcRcRbRbLcLc",
    (1, 0): "LbLbRbLcRcRcLcRb",
    (-1, 0): "RbLcRcRcLcRbLbLb",
    (0, -1): "RcLbRbRbLbRcLcLc",
}

# (top row, left column) count of one pick after row v; the corner w is
# small in the top row and its complement closes the left column
_COUNTS = {"Lb": (1, 0), "Rb": (-1, 0), "Lc": (0, 1), "Rc": (0, -1), "Lw": (1, -1)}


def _extension_shift(n: int, v: int, w: int) -> int | None:
    """The least shift by which a +4 step reaches small corners v < w at order n, if any."""
    inner_small = 2 * (n - 4) + 2
    lo = max(0, w - inner_small)
    hi = min(8, v - 1)
    return next((j for j in (0, 2, 4, 6, 8) if lo <= j <= hi), None)


# --- parameterized seeds with classification -------------------------------


class SeedAudit(namedtuple("SeedAudit", "row_id m v w status plan raw_report")):
    """Outcome of instantiating one seed entry and pushing it through the verifier.

    ``status`` is "valid", "invalid", "repaired" or "rebuilt"; ``plan`` is
    the plan after any repair, ``raw_report`` the verdict on the entry as
    printed.
    """

    __slots__ = ()


def _repair_single_substitution(plan: BorderPlan) -> BorderPlan | None:
    """Try replacing exactly one b or c value so the whole plan verifies."""
    n = plan.n
    target = magic_constant(n + 2)
    c_base = complement_base(n)
    deltas = {
        "b": target - (plan.v + sum(plan.b) + plan.w),
        "c": target - (plan.v + sum(plan.c) + (c_base - plan.w)),
    }
    if all(deltas.values()):
        return None  # one substitution cannot mend both lines
    taken = set(plan.values())
    for side, delta in deltas.items():
        if delta == 0:
            continue
        values = getattr(plan, side)
        for index in sorted(range(len(values)), key=values.__getitem__):
            old = values[index]
            new = old + delta
            # a value already held, or the complement of one that stays,
            # cannot verify: only the rest go to the verifier
            partner = c_base - new
            if not in_pool(new, n) or new in taken or (partner != old and partner in taken):
                continue
            candidate = plan._replace(**{side: values[:index] + (new,) + values[index + 1 :]})
            if verify_border(candidate).valid:
                return candidate
    return None


def _audit_entry(row: Table2Row, m: int) -> SeedAudit:
    """Instantiate one parameterized entry at order m and classify it."""
    raw = row.instantiate(m)
    report = verify_border(raw)
    status, plan = "valid", raw
    if not report.valid:
        status, plan = "repaired", _repair_single_substitution(raw)
        if plan is None:
            status, plan = "rebuilt", _small_corners(m, raw.v, raw.w)
    return SeedAudit(row.row_id, m, raw.v, raw.w, status, plan, report)


def audit_order4() -> list[SeedAudit]:
    """Run every literal order-4 seed through the verifier."""
    audits = []
    for v, w in sorted(_ORDER4):
        plan = _diagram(4, _ORDER4[v, w])
        report = verify_border(plan)
        status = "valid" if report.valid else "invalid"
        audits.append(SeedAudit(f"{v}&{w}", 4, v, w, status, plan, report))
    return audits


def audit_order_m(m: int) -> list[SeedAudit]:
    """Classify every parameterized entry instantiated at order m."""
    return [_audit_entry(row, m) for row in _ORDER_M]


# --- corner-prescribed construction ----------------------------------------


def _small_corners(n: int, v: int, w: int) -> BorderPlan:
    """The border with small corners v < w, grown from a seed without search."""
    # walk down to a seed: each extension adds a head chunk above and a
    # tail chunk below everything (outermost first); blocks are counted
    order, heads, tails, blocks = n, [], [], 0
    while n > 6:
        shift = _extension_shift(n, v, w)
        if shift is None:
            blocks += 1
            w -= 8
        else:
            heads.append(_EXTENSION[: 2 * shift])
            tails.append(_EXTENSION[2 * shift :])
            v -= shift
            w -= shift
        n -= 4
    if n == 6:
        picks = _ORDER6[v, w]
    else:
        picks = _ORDER4[v, w] if v % 2 else _ORDER4[w, v]
    seed = [picks[i : i + 2] for i in range(0, len(picks), 2)]
    if n == 4 and v % 2 == 0:
        seed = [_MIRROR.get(pick, pick) for pick in seed]

    # a block goes in at the first row t > v whose counts from t on name a
    # block.  Blocks and extension rows put as many small as large values
    # on each line, so every insertion meets the seed's rows after v with
    # the same counts and stops at the same t with the same block
    t, block = v, ""
    if blocks:
        e = tuple(map(sum, zip(*(_COUNTS[pick] for pick in seed[v:]))))
        while e not in _BLOCK:
            pick = seed[t]
            if pick == "Lw":
                raise RuntimeError(f"no insertion row balances the border with corners ({v}, {w})")
            e = (e[0] - _COUNTS[pick][0], e[1] - _COUNTS[pick][1])
            t += 1
        block = _BLOCK[e] * blocks
    return _diagram(order, "".join([*heads, *seed[:t], block, *seed[t:], *tails[::-1]]))


def construct_with_corners(n: int, v: int, w: int) -> BorderPlan:
    """A verified border of even inner order n with upper corners (v, w).

    Corners may be any pool values; up to three symmetries reduce them to
    small ascending corners, and the border built for those is mapped back.
    Corners the row-parity lemma rules out raise :class:`InfeasibleCornersError`
    at any order, and any other corners at an odd order ValueError.
    """
    check_corners(n, v, w)
    c_base = complement_base(n)

    # reduce to the corners' diagram rows, ascending: a large corner's row
    # is its complement; a symmetry per fact carries the border built for
    # the rows back to (v, w).  check_corners has made sv and sw distinct
    small = 2 * n + 2
    sv = c_base - v if v > small else v
    sw = c_base - w if w > small else w
    if forbidden_by_parity(n, v, w):
        need = "the same parity at odd" if n % 2 else "opposite parity at even"
        raise InfeasibleCornersError(
            f"no magic border of inner order {n} has upper corners ({v}, {w}): "
            f"their diagram rows {sv} and {sw} need {need} orders"
        )
    if n % 2:
        raise ValueError(
            f"corner-prescribed construction covers even inner orders only, got n={n}"
        )
    plan = _small_corners(n, min(sv, sw), max(sv, sw))
    if sv > sw:
        plan = apply_symmetry(plan, REFLECT_VERTICAL)  # swaps the corners
    if v > small:
        plan = apply_symmetry(plan, ANTI_TRANSPOSE)  # complements v alone
    if w > small:
        plan = apply_symmetry(plan, TRANSPOSE)  # complements w alone

    if (plan.v, plan.w) != (v, w):
        raise RuntimeError(
            f"internal error: built corners ({plan.v}, {plan.w}), wanted ({v}, {w})"
        )
    report = verify_border(plan)
    if not report.valid:
        raise RuntimeError(
            f"internal error: corner construction for ({n}, {v}, {w}) failed "
            "verification: " + "; ".join(str(x) for x in report.violations)
        )
    return plan
