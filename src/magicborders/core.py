"""Integer primitives shared by every other module.

A border of inner order n lives in an (n+2) x (n+2) frame and uses the
value pool {1..2n+2} union {n^2+2n+3..(n+2)^2}.  Two values x, y are
complementary when x + y = (n+2)^2 + 1; opposite border cells must hold
complementary values.  Arranging the pool as 2n+2 rows of a two-column
diagram (row i holds i on the left and its complement on the right)
turns border construction into picking one side per row.
"""

from __future__ import annotations


class InfeasibleCornersError(ValueError):
    """The requested corner pair provably admits no magic border."""


class BudgetExhausted(RuntimeError):
    """Search stopped before exploring the whole space."""


def check_inner_order(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 3:
        raise ValueError(f"inner order must be an integer >= 3, got {n!r}")
    return n


def magic_constant(order: int) -> int:
    """Common line sum of an order-N square holding 1..N^2."""
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")
    return order * (order * order + 1) // 2


def complement_base(n: int) -> int:
    """Sum of two opposite cells in the frame around an inner order-n square."""
    check_inner_order(n)
    return (n + 2) * (n + 2) + 1


def pool_bounds(n: int) -> tuple[int, int, int, int]:
    """Inclusive bounds (small_lo, small_hi, large_lo, large_hi) of the pool."""
    check_inner_order(n)
    c = complement_base(n)
    return 1, 2 * n + 2, c - (2 * n + 2), c - 1


def in_pool(x: int, n: int) -> bool:
    """Whether x is an int in the pool; bools count as 0 and 1."""
    s_lo, s_hi, l_lo, l_hi = pool_bounds(n)
    return isinstance(x, int) and (s_lo <= x <= s_hi or l_lo <= x <= l_hi)


def border_pool(n: int) -> frozenset[int]:
    """All 4n+4 values available to a border of inner order n."""
    s_lo, s_hi, l_lo, l_hi = pool_bounds(n)
    return frozenset(range(s_lo, s_hi + 1)) | frozenset(range(l_lo, l_hi + 1))


def _check_pool(x: int, n: int) -> None:
    if not in_pool(x, n):
        s_lo, s_hi, l_lo, l_hi = pool_bounds(n)
        raise ValueError(
            f"{x} is outside the border pool "
            f"{{{s_lo}..{s_hi}}} u {{{l_lo}..{l_hi}}} for inner order {n}"
        )


def check_corners(n: int, v: int, w: int) -> None:
    """Reject upper corners that no border of inner order n could have.

    The corners must be distinct pool values and not complementary: a
    value and its complement sit in one diagram row.  The parity rule is
    :func:`forbidden_by_parity`, which callers that need it apply after
    this check.
    """
    check_inner_order(n)
    for name, value in (("v", v), ("w", w)):
        if not in_pool(value, n):
            raise ValueError(f"corner {name}={value} is outside the pool for n={n}")
    if v == w:
        raise ValueError("corners must be distinct")
    if v + w == complement_base(n):
        raise ValueError(
            f"corners ({v}, {w}) are complementary and would share a diagram row"
        )


def forbidden_by_parity(n: int, v: int, w: int) -> bool:
    """Whether the row-parity lemma proves that no border has corners (v, w).

    Every magic border of inner order n has row(v) + row(w) = n + 1
    (mod 2), for any corners, small or large; the proof is in
    :mod:`magicborders.enumeration`.  So small corners need opposite
    parity at even n and equal parity at odd n.  At even n the rule is
    also sufficient (:mod:`magicborders.corners` builds every other
    pair); at odd n some keys it allows still have no border.  Expects
    corners :func:`check_corners` accepts.
    """
    return (row_of(v, n) + row_of(w, n) + n) % 2 == 0


def complement(x: int, n: int) -> int:
    """The pool value opposite x; an involution on the pool."""
    _check_pool(x, n)
    return complement_base(n) - x


def row_of(x: int, n: int) -> int:
    """Diagram row of x: small values sit at row x, large at row C - x.

    Expects a pool value: every caller checks its corners first
    (:func:`check_corners`).
    """
    return x if x <= 2 * n + 2 else complement_base(n) - x

