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

The seeds' audit and the paper's parameterized table for the gap pairs
are in :mod:`magicborders.tables`, which no build loads.
"""

from __future__ import annotations

from .construct import _BLOCKS, _diagram
from .core import (
    InfeasibleCornersError,
    check_corners,
    forbidden_by_parity,
    row_of,
)
from .transform import ANTI_TRANSPOSE, REFLECT_VERTICAL, TRANSPOSE, apply_symmetry
from .verify import BorderPlan, verify_border


# --- seed tables -----------------------------------------------------------

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

    # reduce to the corners' diagram rows, ascending: a large corner's row
    # is its complement; a symmetry per fact carries the border built for
    # the rows back to (v, w).  check_corners has made sv and sw distinct
    sv = row_of(v, n)
    sw = row_of(w, n)
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
    if v != sv:  # v is large
        plan = apply_symmetry(plan, ANTI_TRANSPOSE)  # complements v alone
    if w != sw:  # w is large
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
