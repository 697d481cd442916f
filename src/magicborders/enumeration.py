"""Exhaustive listing and exact counting over the two-column diagram.

This is the slow, trustworthy side of the library.  A magic border with
given corners (v, w) is a choice, for each of the 2n free diagram rows,
of a side (the small value r or the large value C - r, where
C = (n+2)^2 + 1) and of a line (the top-row interior b or the left-column
interior c), such that both lines reach the magic sum.  Borders are
reported at set level (order inside a line is immaterial).

Two engines share one pruning rule, a window of sums each line can still
reach from the rows not yet decided (``_Rows``, which computes each
window once per key):

- the backtracker (``enumerate_omega``) decides one row at a time, depth
  first with an explicit stack, and streams borders.  It is the oracle
  the constructive recipes and the counter are tested against;
- the layered counter (``count_borders``, ``count_omega``) sweeps the
  same decision tree one row at a time but keeps only, for each state
  (values and small values each line still needs, and the sums each line
  still lacks), the number of ways to reach it.  Its time grows with the
  number of distinct states, not with the number of borders.  States
  with equal counts form a group, and a layer maps each group to its
  states' two sums, packed as one int, and their ways.  Taking a row
  into a line, small or large, sends a whole group to one group of the
  next layer and subtracts one constant from its packed sums.  A move is
  made only when the state it makes is *live*, both of its sums inside
  their windows for the rows left, so the counter stores no state it
  would throw away unread.  The windows are found once per group.

**Small-count lemma.**  Every line of a magic border holds exactly
(n+2)/2 small values at even n, and (n+1)/2 or (n+3)/2 at odd n.  Proof:
a line whose k values are small, s_1..s_k, and whose other n+2-k values
are large, C - r_1..C - r_{n+2-k}, sums to the magic constant (n+2)C/2
exactly when

    sum(r) - sum(s) = ((n+2)/2 - k) * C.

The n+2 values of a line come from distinct diagram rows, so the left
side is at most the sum of the top n+2 rows of 1..2n+2, which is
(n+2)(3n+3)/2 < 3C/2.  Hence |(n+2)/2 - k| < 3/2.  At odd n that factor
is a half-integer, so it is +-1/2.  At even n = 2m it is an integer, and
+-1 is ruled out too: with m small and m+2 large values (or the reverse)
the left side is at most the top m+2 rows minus the bottom m rows,
3m^2 + 8m + 3, which is less than C = 4m^2 + 8m + 5.  Each line
therefore owes a known number of small values, give or take one at odd
n, and the window check asks whether some admissible small count can
still close the line's sum.

Both engines take a :class:`SearchBudget` of nodes and seconds; running
out raises :class:`BudgetExhausted`.  A call over a whole order
(``enumerate_order``, ``count_omega``) spends one budget across all of
its keys.  A listing is cut short by the
caller, who stops reading the stream (``next`` for the first border,
``itertools.islice`` for the first k): the backtracker is lazy, so it
visits no node past the last border read.  Nothing is cached across
calls.
"""

from __future__ import annotations

import time
from collections import namedtuple
from collections.abc import Iterator

from .core import (
    BudgetExhausted,
    check_corners,
    check_inner_order,
    complement_base,
    forbidden_by_parity,
    magic_constant,
    row_of,
)
from .verify import BorderPlan


class OmegaKey(namedtuple("OmegaKey", "n v w")):
    """Corner assignment naming one set of magic borders: inner order n, upper corners v and w."""

    __slots__ = ()


class SearchBudget(namedtuple("SearchBudget", "max_nodes max_seconds")):
    """Limits on one search call, shared by both engines; None means unlimited.

    A backtracker node, or a live state the counter stores, costs one
    node.  Going past either limit raises :class:`BudgetExhausted`,
    because the search is then incomplete.  There is no solution limit:
    a listing ends early when its reader stops, and a count must see
    every border.
    """

    __slots__ = ()

    def __new__(
        cls, max_nodes: int | None = None, max_seconds: float | None = None
    ) -> "SearchBudget":
        for name, value in (("max_nodes", max_nodes), ("max_seconds", max_seconds)):
            # "not > 0" also rejects NaN, which no elapsed time exceeds
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive or None, got {value!r}")
        return tuple.__new__(cls, (max_nodes, max_seconds))

    @classmethod
    def _make(cls, iterable) -> "SearchBudget":  # so that _replace checks too
        return cls(*iterable)


class CanonicalBorder(namedtuple("CanonicalBorder", "n v w b_set c_set")):
    """A magic border up to reordering within its lines; both sets are stored sorted."""

    __slots__ = ()

    def __new__(cls, n: int, v: int, w: int, b_set, c_set) -> "CanonicalBorder":
        return tuple.__new__(cls, (n, v, w, tuple(sorted(b_set)), tuple(sorted(c_set))))

    @classmethod
    def _make(cls, iterable) -> "CanonicalBorder":  # so that _replace sorts too
        return cls(*iterable)

    @classmethod
    def from_plan(cls, plan: BorderPlan) -> "CanonicalBorder":
        return cls(plan.n, plan.v, plan.w, plan.b, plan.c)

    def to_plan(self) -> BorderPlan:
        return BorderPlan(n=self.n, v=self.v, w=self.w, b=self.b_set, c=self.c_set)


class _BudgetState:
    __slots__ = ("max_nodes", "max_seconds", "nodes", "start")

    def __init__(self, budget: SearchBudget | None):
        self.max_nodes = budget.max_nodes if budget else None
        self.max_seconds = budget.max_seconds if budget else None
        self.nodes = 0
        self.start = time.monotonic()

    def on_nodes(self, count: int = 1) -> None:
        """Charge ``count`` nodes, reading the clock whenever the total
        passes a multiple of 1,024."""
        self.nodes += count
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise BudgetExhausted(f"node limit {self.max_nodes} reached")
        if (
            self.max_seconds is not None
            and self.nodes % 1024 < count
            and time.monotonic() - self.start > self.max_seconds
        ):
            raise BudgetExhausted(f"time limit {self.max_seconds}s reached")


_EMPTY = (1, 0)


class _Rows(dict):
    """The free diagram rows of one corner key, and the sum windows both
    engines prune on, computed on first use and kept by ``(idx, need, owed)``.

    ``rows[idx, need, owed]`` holds the sums a line can still close on
    with ``need`` more values from rows idx..: (lo, hi) for taking exactly
    ``owed`` more small values, then (lo, hi) for ``owed + 1`` at odd n.
    A count the line cannot take, and the second window at even n, read
    as the empty window (1, 0).

    A line's *owed* count is how many more small values it must take for
    its small count to reach ``(n+2)//2``; at odd n it may also take one
    more than that (see the module docstring), which ``slack`` records.
    """

    __slots__ = ("c_base", "free", "prefix", "total", "slack", "rem_b", "rem_c",
                 "owed_b", "owed_c")

    def __init__(self, n: int, v: int, w: int):
        c_base = complement_base(n)
        target = magic_constant(n + 2)
        used = {row_of(v, n), row_of(w, n)}
        self.c_base = c_base
        self.free = [r for r in range(1, 2 * n + 3) if r not in used]
        self.prefix = [0]
        for r in self.free:
            self.prefix.append(self.prefix[-1] + r)
        self.total = len(self.free)
        self.slack = n % 2
        self.rem_b = target - v - w
        self.rem_c = target - v - (c_base - w)
        half = (n + 2) // 2
        small_limit = 2 * n + 2
        self.owed_b = half - (v <= small_limit) - (w <= small_limit)
        self.owed_c = half - (v <= small_limit) - (c_base - w <= small_limit)

    def span(self, idx: int, k_small: int, k_large: int) -> tuple[int, int]:
        """Reachable sums picking k_small left and k_large right values from rows idx..

        The extremes relax the disjointness of the two picks.
        """
        prefix = self.prefix
        total = self.total
        lo = (
            prefix[idx + k_small]
            - prefix[idx]
            + k_large * self.c_base
            - (prefix[total] - prefix[total - k_large])
        )
        hi = (
            prefix[total]
            - prefix[total - k_small]
            + k_large * self.c_base
            - (prefix[idx + k_large] - prefix[idx])
        )
        return lo, hi

    def __missing__(self, key: tuple[int, int, int]) -> tuple[int, int, int, int]:
        idx, need, owed = key
        first = second = _EMPTY
        if 0 <= owed <= need:
            first = self.span(idx, owed, need - owed)
        if self.slack and 0 <= owed + 1 <= need:
            second = self.span(idx, owed + 1, need - owed - 1)
        value = self[key] = first + second
        return value


def _solutions(n: int, v: int, w: int, state: _BudgetState) -> Iterator[CanonicalBorder]:
    """Every border of the key, depth first, one stack entry per search node."""
    rows = _Rows(n, v, w)
    c_base = rows.c_base
    free = rows.free
    total = rows.total
    # a line may take a small value only while it owes more than this
    owed_floor = -rows.slack

    # picks[i] is the value row free[i - 1] gave: positive into b, negated
    # into c.  A stack entry is the node its pick leads to; deeper picks are
    # overwritten as the depth-first walk moves on.
    picks = [0] * (total + 1)
    stack = [(0, n, rows.rem_b, rows.rem_c, rows.owed_b, rows.owed_c, 0)]
    on_node = state.on_nodes
    pop = stack.pop
    push = stack.append
    while stack:
        idx, need_b, rem_b, rem_c, owed_b, owed_c, pick = pop()
        on_node()
        picks[idx] = pick
        if idx == total:
            if rem_b == 0 and rem_c == 0:
                yield CanonicalBorder(
                    n, v, w,
                    tuple(x for x in picks if x > 0),
                    tuple(-x for x in picks if x < 0),
                )
            continue
        need_c = total - idx - need_b
        lo, hi, lo2, hi2 = rows[idx, need_b, owed_b]
        if not (lo <= rem_b <= hi or lo2 <= rem_b <= hi2):
            continue
        lo, hi, lo2, hi2 = rows[idx, need_c, owed_c]
        if not (lo <= rem_c <= hi or lo2 <= rem_c <= hi2):
            continue

        # children go on the stack in reverse, so they are visited as
        # b-small, c-small, b-large, c-large
        row = free[idx]
        large = c_base - row
        nxt = idx + 1
        if need_c and large <= rem_c and need_c > owed_c:
            push((nxt, need_b, rem_b, rem_c - large, owed_b, owed_c, -large))
        if need_b and large <= rem_b and need_b > owed_b:
            push((nxt, need_b - 1, rem_b - large, rem_c, owed_b, owed_c, large))
        if need_c and row <= rem_c and owed_c > owed_floor:
            push((nxt, need_b, rem_b, rem_c - row, owed_b, owed_c - 1, -row))
        if need_b and row <= rem_b and owed_b > owed_floor:
            push((nxt, need_b - 1, rem_b - row, rem_c, owed_b - 1, owed_c, row))


def _exits(rows: _Rows, idx: int, need: int, owed: int) -> tuple[int, ...]:
    """The sums from which a line may leave row idx live: its window one row
    later if it stays out of the row, then that window shifted by the small
    and by the large value for taking it."""
    row = rows.free[idx]
    large = rows.c_base - row
    # a line that needs every row left cannot stay out of this one
    stay = rows[idx + 1, need, owed] if need < rows.total - idx else _EMPTY + _EMPTY
    lo, hi, lo2, hi2 = rows[idx + 1, need - 1, owed - 1]
    small = (lo + row, hi + row, lo2 + row, hi2 + row)
    lo, hi, lo2, hi2 = rows[idx + 1, need - 1, owed]
    return stay + small + (lo + large, hi + large, lo2 + large, hi2 + large)


def _count(n: int, v: int, w: int, state: _BudgetState) -> int:
    """Number of borders ``_solutions`` would list, one layer of rows at a time.

    The state after the first idx rows is (need_b, owed_b, owed_c, rem_b,
    rem_c); need_c is the rows left minus need_b.  A layer maps each
    *group* (need_b, owed_b, owed_c) to a dict from the packed sums
    rem_b*M + rem_c, with M one more than the larger starting sum, to the
    number of ways of reaching that state.  Taking the layer's row r into
    a line, as r or as C - r, sends a whole group to one group of the next
    layer and subtracts one constant from its sums: r*M or (C - r)*M for
    b, r or C - r for c.

    A layer holds only *live* states, those whose lines both lie inside
    their windows (the backtracker's prune).  A move is made only if the
    state it makes is live: the moved line's sum, before the move, lies in
    its next window shifted by the value taken (``_exits``), and the other
    line's sum in its own next window.  A window never starts below 0, so
    no sum falls below 0 and the packed sums always decode, and an empty
    window holds the guards on the counts a line may take.  The windows are read once per group.  Groups
    that no move reached are dropped, since their counts may exceed the
    rows left.  Only states with both sums 0 are live after the last row,
    so the count is the sum of the last layer.
    """
    rows = _Rows(n, v, w)
    total = rows.total
    scale = max(rows.rem_b, rows.rem_c) + 1
    lo_b, hi_b, lo2_b, hi2_b = rows[0, n, rows.owed_b]
    lo_c, hi_c, lo2_c, hi2_c = rows[0, total - n, rows.owed_c]
    layer = {}
    if (lo_b <= rows.rem_b <= hi_b or lo2_b <= rows.rem_b <= hi2_b) and (
        lo_c <= rows.rem_c <= hi_c or lo2_c <= rows.rem_c <= hi2_c
    ):
        layer[n, rows.owed_b, rows.owed_c] = {rows.rem_b * scale + rows.rem_c: 1}
    # states read and not yet charged: every 4,096 are charged once the
    # group holding the last of them is read, so a time limit also holds
    # inside one large layer
    unpaid = 0
    for idx, row in enumerate(rows.free):
        large = rows.c_base - row
        rows_left = total - idx
        b_small = row * scale
        b_large = large * scale
        following: dict[tuple[int, int, int], dict[int, int]] = {}
        into = following.setdefault
        for (need_b, owed_b, owed_c), sums in layer.items():
            # the ranges to stay out, take small (s), take large (l)
            (lo_b, hi_b, lo2_b, hi2_b, los_b, his_b, los2_b, his2_b,
             lol_b, hil_b, lol2_b, hil2_b) = _exits(rows, idx, need_b, owed_b)
            (lo_c, hi_c, lo2_c, hi2_c, los_c, his_c, los2_c, his2_c,
             lol_c, hil_c, lol2_c, hil2_c) = _exits(rows, idx, rows_left - need_b, owed_c)
            into_bs = into((need_b - 1, owed_b - 1, owed_c), {})
            into_bl = into((need_b - 1, owed_b, owed_c), {})
            into_cs = into((need_b, owed_b, owed_c - 1), {})
            into_cl = into((need_b, owed_b, owed_c), {})
            for key, ways in sums.items():
                rem_b, rem_c = divmod(key, scale)
                if lo_c <= rem_c <= hi_c or lo2_c <= rem_c <= hi2_c:
                    if los_b <= rem_b <= his_b or los2_b <= rem_b <= his2_b:
                        k = key - b_small
                        into_bs[k] = into_bs.get(k, 0) + ways
                    if lol_b <= rem_b <= hil_b or lol2_b <= rem_b <= hil2_b:
                        k = key - b_large
                        into_bl[k] = into_bl.get(k, 0) + ways
                if lo_b <= rem_b <= hi_b or lo2_b <= rem_b <= hi2_b:
                    if los_c <= rem_c <= his_c or los2_c <= rem_c <= his2_c:
                        k = key - row
                        into_cs[k] = into_cs.get(k, 0) + ways
                    if lol_c <= rem_c <= hil_c or lol2_c <= rem_c <= hil2_c:
                        k = key - large
                        into_cl[k] = into_cl.get(k, 0) + ways
            unpaid += len(sums)
            while unpaid >= 4096:
                state.on_nodes(4096)
                unpaid -= 4096
        layer = {group: sums for group, sums in following.items() if sums}
    state.on_nodes(unpaid + sum(map(len, layer.values())))
    return sum(sum(sums.values()) for sums in layer.values())


def enumerate_omega(
    key: OmegaKey, budget: SearchBudget | None = None
) -> Iterator[CanonicalBorder]:
    """Stream every magic border with the key's corners, each exactly once.

    Deterministic order for identical inputs.  Raises
    :class:`BudgetExhausted` mid-stream if a node or time limit cuts the
    search short; a normally finished stream means the listing is complete.
    Keys with same-parity small corners at even order end at once, empty.
    """
    check_corners(key.n, key.v, key.w)
    if forbidden_by_parity(key.n, key.v, key.w):
        return
    yield from _solutions(key.n, key.v, key.w, _BudgetState(budget))


def enumerate_order(
    n: int, budget: SearchBudget | None = None
) -> Iterator[CanonicalBorder]:
    """Stream every magic border of inner order n, key by key.

    Keys run over every ordered pair of distinct small corners, v first,
    as :func:`enumerate_omega` would list them one at a time.  The
    node/time budget is shared across the whole listing, as
    :func:`count_omega` shares it across the table.
    """
    check_inner_order(n)
    state = _BudgetState(budget)
    small = 2 * n + 2
    for v in range(1, small + 1):
        for w in range(1, small + 1):
            if v != w and not forbidden_by_parity(n, v, w):
                yield from _solutions(n, v, w, state)


def count_borders(key: OmegaKey, budget: SearchBudget | None = None) -> int:
    """Exact number of magic borders with the key's corners, without listing them.

    Equals the length of :func:`enumerate_omega`'s stream.  Every live
    state the counter stores is one budget node, so a node or time limit
    raises :class:`BudgetExhausted`.  Memory grows with the states of one
    layer, which a node limit also bounds: at the peak, about 145 bytes per
    state of the largest layer (the layer and the layer being built;
    measured with ``tracemalloc`` at (10; 1, 2), Python 3.11, where the
    largest layer holds 7,377 states and the peak is 1.02 MiB).
    Keys with same-parity small corners at even order count 0 at once.
    """
    check_corners(key.n, key.v, key.w)
    if forbidden_by_parity(key.n, key.v, key.w):
        return 0
    return _count(key.n, key.v, key.w, _BudgetState(budget))


def count_omega(
    n: int, budget: SearchBudget | None = None
) -> dict[tuple[int, int], int]:
    """Exact set-level border counts for every small corner pair (v, w).

    Reflecting a border in the vertical axis keeps its top row, swaps its
    upper corners and complements its left column, so (v, w) and (w, v)
    have equal counts and only v < w is counted.  Same-parity keys are
    counted too, so the table also checks the parity rule.  The node/time
    budget is shared across the whole table.
    """
    check_inner_order(n)
    state = _BudgetState(budget)
    small = 2 * n + 2
    below = {
        (v, w): _count(n, v, w, state)
        for v in range(1, small + 1)
        for w in range(v + 1, small + 1)
    }
    return {
        (v, w): below[(min(v, w), max(v, w))]
        for v in range(1, small + 1)
        for w in range(1, small + 1)
        if v != w
    }


def format_counts(counts: dict[tuple[int, int], int]) -> str:
    """Counts as plain structured text, one 'v w count' line per pair."""
    lines = [f"{v} {w} {count}" for (v, w), count in sorted(counts.items())]
    return "\n".join(lines) + "\n"

