"""Corner-prescribed borders for even inner orders.

For even n, small corners (both in 1..2n+2) admit a magic border exactly
when they have opposite parity.  Construction never searches.  It starts
from a literal seed, an order-4 border from the paper's table or an
order-6 border from a table of first search results, takes the seed's
two-column diagram (see :mod:`magicborders.construct`) and grows it four
orders at a time with one of two edits to the diagram's picks:

- the +4 extension (:func:`extend_border`) adds eight fixed rows, the
  first ``shift`` of them above the existing rows and the rest below, so
  both corners rise by the shift (0..8);
- block insertion splices one of nine eight-row blocks in between the
  corners' rows, so v stays and w rises by 8.  It covers the 20 "gap"
  pairs per order that no extension reaches, and a gap pair (v, w) at
  order n comes from the gap pair (v, w-8) at order n-4.

Both edits keep the invariant behind validity at even order: every line
holds as many small as large values, and the rows of its small values
sum to the rows of its large ones.  A build replays its whole chain of
edits on the seed's picks and reads the one resulting diagram, so it
costs O(n), and a border with small ascending corners lists each line in
diagram row order; other corners get its symmetry image.

The paper's parameterized table for the gap pairs at m = 8, 12, 16, ...
is kept as an artifact for ``tables --check``: its entries are data, not
trusted ground truth, so each instantiation is classified by the
verifier, repaired when one value is off, and otherwise rebuilt by the
construction above.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache

from .construct import _BLOCKS, _diagram, _picks
from .core import (
    InfeasibleCornersError,
    check_corners,
    check_inner_order,
    complement_base,
    forbidden_by_parity,
    in_pool,
    magic_constant,
)
from .transform import (
    ANTI_TRANSPOSE,
    IDENTITY,
    REFLECT_VERTICAL,
    ROTATE_180,
    TRANSPOSE,
    apply_symmetry,
    compose,
)
from .verify import BorderPlan, verify_border


def corners_feasible(n: int, v: int, w: int) -> bool:
    """Whether small corners (v, w) admit a border at even inner order n."""
    check_inner_order(n)
    if n % 2:
        raise ValueError(
            f"corner feasibility is only characterized for even orders, got n={n}"
        )
    small = 2 * n + 2
    if v == w:
        raise ValueError("corners must be distinct")
    if not (1 <= v <= small and 1 <= w <= small):
        raise ValueError(f"corners must lie in 1..{small}, got ({v}, {w})")
    return not forbidden_by_parity(n, v, w)


# --- seed table data -------------------------------------------------------

_POLY_LEAD = "(m+2)^2"
_TERM_RE = re.compile(r"[+-]?[^+-]+")


def eval_poly(expr: str, m: int) -> int:
    """Evaluate a table polynomial like '(m+2)^2-15', 'm^2+2m+4' or '2m-1'."""
    expr = expr.strip()
    total = 0
    if expr.startswith(_POLY_LEAD):
        total = (m + 2) ** 2
        expr = expr[len(_POLY_LEAD) :]
    for term in _TERM_RE.findall(expr):
        sign = -1 if term.startswith("-") else 1
        t = term.lstrip("+-")
        if t == "m^2":
            value = m * m
        elif t == "m":
            value = m
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


_LITERAL_ORDERS = {"order4": 4, "order6": 6}


@lru_cache(maxsize=1)
def _seed_data() -> tuple[dict[int, dict[tuple[int, int], BorderPlan]], tuple[Table2Row, ...]]:
    # imported here, because a process that builds and verifies squares
    # never reads the seed tables
    from importlib import resources

    text = resources.files("magicborders").joinpath("data/seed_tables.txt").read_text()
    literals: dict[int, dict[tuple[int, int], BorderPlan]] = {4: {}, 6: {}}
    rows: list[Table2Row] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *fields = line.split()
        if kind in _LITERAL_ORDERS:
            n = _LITERAL_ORDERS[kind]
            v, w = int(fields[0]), int(fields[1])
            b = tuple(int(x) for x in fields[2].split(","))
            c = tuple(int(x) for x in fields[3].split(","))
            literals[n][(v, w)] = BorderPlan(n=n, v=v, w=w, b=b, c=c)
        elif kind == "orderm":
            rows.append(
                Table2Row(
                    v=int(fields[0]),
                    w_expr=fields[1],
                    b_exprs=tuple(fields[2].split(",")),
                    c_exprs=tuple(fields[3].split(",")),
                )
            )
        else:
            raise ValueError(f"unknown seed-table record {kind!r}")
    return literals, tuple(rows)


def order4_table() -> dict[tuple[int, int], BorderPlan]:
    return dict(_seed_data()[0][4])


def parameterized_table() -> tuple[Table2Row, ...]:
    return _seed_data()[1]


def seed_order4(v: int, w: int) -> BorderPlan:
    """The literal order-4 seed with corners (v, w); v odd, w even."""
    try:
        return _seed_data()[0][4][(v, w)]
    except KeyError:
        raise ValueError(
            f"({v}, {w}) is not an order-4 seed pair; canonicalize the corners "
            "(odd corner first) before the lookup"
        ) from None


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


def missing_pairs(m: int) -> tuple[tuple[int, int], ...]:
    """Ascending corner pairs at order m that no +4 extension step reaches."""
    if m % 2 or m < 8:
        raise ValueError(f"extension gaps arise at even orders from 8; got {m}")
    return tuple(
        (v, w)
        for v in range(1, 9)
        for w in range(v + 1, 2 * m + 3)
        if (v + w) % 2 and _extension_shift(m, v, w) is None
    )


# --- the two steps, as diagram edits -----------------------------------------

# two top-row pairs (rows 1 & 2, 4 & 3), then two column pairs (6 & 5,
# 7 & 8), deviating -1, +1 on each line
_EXTENSION = "LbRbRbLbRcLcLcRc"

# The eight rows a block insertion splices in at row t, keyed by what
# moving rows t onward 8 rows later did to each line: e counts the line's
# moved small values minus its moved large ones, so the move shifted the
# line's signed row sum by 8e.  Each block puts two small and two large
# values on each line, at offsets 0..7 whose signed sum there is -8e.
_BLOCK = {
    (0, 0): _BLOCKS,
    (1, 1): "LbLcLcLbRbRcRcRb",
    (-1, -1): "RbRcRcRbLbLcLcLb",
    (1, -1): "LbLbRcRcRbRbLcLc",
    (-1, 1): "LcLcRbRbRcRcLbLb",
    (1, 0): "LbLbRbLcRcRcLcRb",
    (-1, 0): "RbLcRcRcLcRbLbLb",
    (0, 1): "LcLcRcLbRbRbLbRc",
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


def extend_border(plan: BorderPlan, shift: int) -> BorderPlan:
    """Grow a valid even border by one +4 step, shifting both corners by ``shift``.

    ``shift`` of the eight new diagram rows go above the existing rows
    (raising every small value, the corners included, by ``shift``) and the
    rest go below.  The new rows are matched into two top-row pairs and two
    column pairs whose deviations cancel, so validity carries over.
    """
    if shift not in (0, 2, 4, 6, 8):
        raise ValueError(f"shift must be one of 0, 2, 4, 6, 8, got {shift!r}")
    n = check_inner_order(plan.n)
    if n % 2:
        raise ValueError("only even borders extend: odd ones cannot split evenly")
    small = 2 * n + 2
    if not (1 <= plan.v <= small and 1 <= plan.w <= small):
        raise ValueError(
            f"corners must be small (left-column) values to shift, got ({plan.v}, {plan.w})"
        )
    report = verify_border(plan)
    if not report.valid:
        raise ValueError(f"only a valid border extends: {report.violations[0]}")
    picks = "".join(_picks(plan))
    return _diagram(n + 4, _EXTENSION[: 2 * shift] + picks + _EXTENSION[2 * shift :])


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
    delta_b = target - (plan.v + sum(plan.b) + plan.w)
    delta_c = target - (plan.v + sum(plan.c) + (complement_base(n) - plan.w))
    if delta_b and delta_c:
        return None  # one substitution cannot mend both lines
    sides = [("b", delta_b), ("c", delta_c)]
    for side, delta in sides:
        if delta == 0:
            continue
        values = plan.b if side == "b" else plan.c
        for index in sorted(range(len(values)), key=lambda i: values[i]):
            replacement = values[index] + delta
            if not in_pool(replacement, n):
                continue
            repaired = list(values)
            repaired[index] = replacement
            candidate = (
                BorderPlan(n, plan.v, plan.w, tuple(repaired), plan.c)
                if side == "b"
                else BorderPlan(n, plan.v, plan.w, plan.b, tuple(repaired))
            )
            if verify_border(candidate).valid:
                return candidate
    return None


def seed_order_m_audit(m: int, v: int, w: int) -> SeedAudit:
    """Instantiate the parameterized entry for (v, w) at order m and classify it."""
    for row in parameterized_table():
        if row.v == v and eval_poly(row.w_expr, m) == w:
            break
    else:
        raise ValueError(f"no parameterized seed covers corners ({v}, {w}) at order {m}")
    raw = row.instantiate(m)
    report = verify_border(raw)
    if report.valid:
        return SeedAudit(row.row_id, m, v, w, "valid", raw, report)
    repaired = _repair_single_substitution(raw)
    if repaired is not None:
        return SeedAudit(row.row_id, m, v, w, "repaired", repaired, report)
    rebuilt = _small_corners(m, v, w)
    return SeedAudit(row.row_id, m, v, w, "rebuilt", rebuilt, report)


def audit_order4() -> list[SeedAudit]:
    """Run every literal order-4 seed through the verifier."""
    audits = []
    for (v, w), plan in sorted(order4_table().items()):
        report = verify_border(plan)
        status = "valid" if report.valid else "invalid"
        audits.append(SeedAudit(f"{v}&{w}", 4, v, w, status, plan, report))
    return audits


def audit_order_m(m: int) -> list[SeedAudit]:
    """Classify every parameterized entry instantiated at order m."""
    return [
        seed_order_m_audit(m, row.v, eval_poly(row.w_expr, m))
        for row in parameterized_table()
    ]


# --- corner-prescribed construction ----------------------------------------


def _small_corners(n: int, v: int, w: int) -> BorderPlan:
    """The border with small corners v < w, grown from a seed without search."""
    # walk down to a seed, noting each step (an extension shift, or None
    # for a block insertion)
    order, steps = n, []
    while n > 6:
        shift = _extension_shift(n, v, w)
        steps.append(shift)
        if shift is None:
            w -= 8
        else:
            v -= shift
            w -= shift
        n -= 4
    if n == 6:
        seed = _picks(_seed_data()[0][6][(v, w)])
    elif v % 2:
        seed = _picks(seed_order4(v, w))
    else:
        seed = _picks(apply_symmetry(seed_order4(w, v), REFLECT_VERTICAL))

    # replay the steps upward on the picks.  Extensions add rows before and
    # after everything, and a block goes in just after row v of the seed,
    # which nothing after it moves; so the picks are head chunks, the seed's
    # rows up to v, the rows after v (a stack, next row last) and tail
    # chunks.  Blocks and extension rows add as many small as large values
    # to each line, so the counts over all rows after v stay the seed's.
    head, tail = [], []
    after = seed[v:][::-1]
    e_top = sum(_COUNTS[pick][0] for pick in after)
    e_left = sum(_COUNTS[pick][1] for pick in after)
    for shift in reversed(steps):
        if shift is not None:
            head.append(_EXTENSION[: 2 * shift])
            tail.append(_EXTENSION[2 * shift :])
            continue
        # the block goes in at the first row t > v that balances
        passed, e = [], (e_top, e_left)
        while e not in _BLOCK:
            pick = after.pop()
            if pick == "Lw":
                raise RuntimeError(f"no insertion row balances the border with corners ({v}, {w})")
            passed.append(pick)
            e = (e[0] - _COUNTS[pick][0], e[1] - _COUNTS[pick][1])
        block = _BLOCK[e]
        after += [block[i : i + 2] for i in range(14, -1, -2)] + passed[::-1]
    return _diagram(order, "".join([*head[::-1], *seed[:v], *after[::-1], *tail]))


# keyed by (v is large, w is large)
_LARGE_CORNER_SYMMETRIES = {
    (False, False): IDENTITY,
    (True, True): ROTATE_180,
    (False, True): TRANSPOSE,
    (True, False): ANTI_TRANSPOSE,
}


def construct_with_corners(n: int, v: int, w: int) -> BorderPlan:
    """A verified border of even inner order n with upper corners (v, w).

    Corners may be any pool values; one symmetry reduces them to small
    ascending corners, and the border built for those is mapped back.
    Small same-parity corners raise :class:`InfeasibleCornersError`.
    """
    check_inner_order(n)
    if n % 2:
        raise ValueError(
            f"corner-prescribed construction covers even inner orders only, got n={n}"
        )
    check_corners(n, v, w)
    c_base = complement_base(n)

    # reduce to small ascending corners: large corners go to their
    # complements through an involution, then a reflection swaps v > w; the
    # border built for the reduced pair maps back through both in one step
    small = 2 * n + 2
    sv = c_base - v if v > small else v
    sw = c_base - w if w > small else w
    if not corners_feasible(n, sv, sw):
        raise InfeasibleCornersError(
            f"no magic border of even inner order {n} has same-parity "
            f"upper corners ({sv}, {sw}): pick one odd and one even corner"
        )
    symmetry = _LARGE_CORNER_SYMMETRIES[(v > small, w > small)]
    if sv > sw:
        sv, sw = sw, sv
        symmetry = compose(REFLECT_VERTICAL, symmetry)
    plan = apply_symmetry(_small_corners(n, sv, sw), symmetry)

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
