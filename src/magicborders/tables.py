"""The paper's seed tables, checked by the verifier, for ``tables --check``.

The order-4 seeds of :mod:`magicborders.corners` are checked as they
stand.  The paper's parameterized table for the gap pairs at m = 8, 12,
16, ... is kept here, with its polynomials as printed, as an artifact for
``tables --check``: its entries are data, not trusted ground truth, so
each instantiation is classified by the verifier, repaired when one value
is off, and otherwise rebuilt by the corner construction.  Corner builds
never read this table, so only ``tables --check`` loads this module.
"""

from __future__ import annotations

from collections import namedtuple

from .construct import _diagram
from .core import complement_base, in_pool, magic_constant
from .corners import _ORDER4, _small_corners
from .verify import BorderPlan, verify_border


# --- the paper's parameterized table ------------------------------------------

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
