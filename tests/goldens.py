"""Reference borders and frames used as golden test vectors.

The frames below are transcriptions of fully worked magic borders; the
plans list b and c in the printed left-to-right / top-to-bottom order so
rendered frames can be compared cell by cell.
"""

import csv
import io
import json
from collections import Counter

from magicborders import (
    BorderPlan,
    build_border,
    build_square,
    complement,
    complement_base,
    magic_constant,
    render_frame,
)
from magicborders.construct import _diagram
from magicborders.core import check_inner_order, in_pool, pool_bounds
from magicborders.corners import _EXTENSION, _ORDER4
from magicborders.documents import DocumentError, GridDocument, _shown, parse_document
from magicborders.verify import (
    BorderFrame,
    CheckReport,
    Violation,
    _square_shape_violations,
)

# inner order 8, corners (99, 96)
ORDER8_PLAN = BorderPlan(
    n=8, v=99, w=96,
    b=(1, 3, 97, 7, 11, 89, 14, 88),
    c=(6, 93, 9, 91, 15, 85, 84, 18),
)

ORDER8_FRAME_TEXT = """
99   1   3  97   7  11  89  14  88  96
 6   .   .   .   .   .   .   .   .  95
93   .   .   .   .   .   .   .   .   8
 9   .   .   .   .   .   .   .   .  92
91   .   .   .   .   .   .   .   .  10
15   .   .   .   .   .   .   .   .  86
85   .   .   .   .   .   .   .   .  16
84   .   .   .   .   .   .   .   .  17
18   .   .   .   .   .   .   .   .  83
 5 100  98   4  94  90  12  87  13   2
"""

# inner order 10, corners (1, 4)
ORDER10_PLAN = BorderPlan(
    n=10, v=1, w=4,
    b=(143, 142, 5, 139, 138, 8, 15, 129, 128, 18),
    c=(136, 10, 134, 12, 132, 14, 19, 125, 124, 22),
)

ORDER10_FRAME_TEXT = """
  1 143 142   5 139 138   8  15 129 128  18   4
136   .   .   .   .   .   .   .   .   .   .   9
 10   .   .   .   .   .   .   .   .   .   . 135
134   .   .   .   .   .   .   .   .   .   .  11
 12   .   .   .   .   .   .   .   .   .   . 133
132   .   .   .   .   .   .   .   .   .   .  13
 14   .   .   .   .   .   .   .   .   .   . 131
 19   .   .   .   .   .   .   .   .   .   . 126
125   .   .   .   .   .   .   .   .   .   .  20
124   .   .   .   .   .   .   .   .   .   .  21
 22   .   .   .   .   .   .   .   .   .   . 123
141   2   3 140   6   7 137 130  16  17 127 144
"""

# inner order 7, corners (14, 8)
ORDER7_PLAN = BorderPlan(
    n=7, v=14, w=8,
    b=(81, 78, 12, 16, 76, 73, 11),
    c=(80, 79, 13, 15, 77, 7, 10),
)

ORDER7_FRAME_TEXT = """
14 81 78 12 16 76 73 11  8
80  .  .  .  .  .  .  .  2
79  .  .  .  .  .  .  .  3
13  .  .  .  .  .  .  . 69
15  .  .  .  .  .  .  . 67
77  .  .  .  .  .  .  .  5
 7  .  .  .  .  .  .  . 75
10  .  .  .  .  .  .  . 72
74  1  4 70 66  6  9 71 68
"""

# alternative inner-order-5 border with corners (11, 5): both corners odd,
# so odd orders escape the even-order parity rule
ORDER5_ALT_PLAN = BorderPlan(
    n=5, v=11, w=5,
    b=(9, 12, 49, 46, 43),
    c=(48, 47, 6, 8, 10),
)

ORDER5_ALT_FRAME_TEXT = """
11  9 12 49 46 43  5
48  .  .  .  .  .  2
47  .  .  .  .  .  3
 6  .  .  .  .  . 44
 8  .  .  .  .  . 42
10  .  .  .  .  . 40
45 41 38  1  4  7 39
"""

# alternative inner-order-8 border with corners (7, 8)
ORDER8_ALT_PLAN = BorderPlan(
    n=8, v=7, w=8,
    b=(100, 2, 98, 4, 95, 91, 12, 88),
    c=(96, 9, 11, 87, 86, 16, 17, 83),
)

ORDER8_ALT_FRAME_TEXT = """
 7 100   2  98   4  95  91  12  88   8
96   .   .   .   .   .   .   .   .   5
 9   .   .   .   .   .   .   .   .  92
11   .   .   .   .   .   .   .   .  90
87   .   .   .   .   .   .   .   .  14
86   .   .   .   .   .   .   .   .  15
16   .   .   .   .   .   .   .   .  85
17   .   .   .   .   .   .   .   .  84
83   .   .   .   .   .   .   .   .  18
93   1  99   3  97   6  10  89  13  94
"""

# the order-8 border above with both lines reordered, still magic
ORDER8_PERMUTED_FRAME_TEXT = """
99  88  14  89  11   7  97   3   1  96
93   .   .   .   .   .   .   .   .   8
 6   .   .   .   .   .   .   .   .  95
91   .   .   .   .   .   .   .   .  10
 9   .   .   .   .   .   .   .   .  92
85   .   .   .   .   .   .   .   .  16
15   .   .   .   .   .   .   .   .  86
18   .   .   .   .   .   .   .   .  83
84   .   .   .   .   .   .   .   .  17
 5  13  87  12  90  94   4  98 100   2
"""

LO_SHU = [[2, 7, 6], [9, 5, 1], [4, 3, 8]]


def _edited(cells, *edits):
    """A copy of a grid with each (i, j, value) of ``edits`` written in."""
    rows = [list(row) for row in cells]
    for i, j, value in edits:
        rows[i][j] = value
    return rows


_SQUARE5 = build_square(5)
_FRAME5 = render_frame(build_border(3)).cells

# one grid for each decision the reader makes on a grid, and that decision:
# the record it returns, or the message of the DocumentError it raises
READER_DECISIONS = {
    "square": (_SQUARE5, GridDocument),
    "frame": (_FRAME5, BorderFrame),
    "frame-filled-interior": (_edited(_FRAME5, (2, 2, 5)), "frame interior cell (2,2) is filled"),
    "frame-empty-border": (_edited(_FRAME5, (0, 0, None)), "frame border cell (0,0) is empty"),
    "square5-inner-hole": (_edited(_SQUARE5, (2, 3, None)), "grid has an empty cell at (2,3)"),
    "square5-border-hole": (_edited(_SQUARE5, (0, 1, None)), "grid has an empty cell at (0,1)"),
    "square4-hole": (_edited(build_square(4), (1, 2, None)), "grid has an empty cell at (1,2)"),
    # shaped as a frame, but below the order 5 a frame needs
    "square4-empty-interior": (
        _edited(build_square(4), *((i, j, None) for i in (1, 2) for j in (1, 2))),
        "grid has an empty cell at (1,1)",
    ),
}


def frame_cells(text: str):
    frame = parse_document(text)
    assert isinstance(frame, BorderFrame), frame
    return frame.cells


def d_value(x: int, y: int, n: int) -> int:
    """Deviation of the pair (x, y) from a complementary pair's sum.

    Equals row(x) - row(y) when x is a left value and y a right value.
    """
    for value in (x, y):
        if not in_pool(value, n):
            raise ValueError(f"{value} is outside the border pool for inner order {n}")
    return x + y - complement_base(n)


def d_corner(v: int, n: int) -> int:
    """Half-pair deviation of a lone corner value; defined for odd n only.

    Total on integers: callers enforce pool membership where it matters.
    """
    check_inner_order(n)
    if n % 2 == 0:
        raise ValueError(f"corner deviation requires an odd inner order, got {n}")
    return v - complement_base(n) // 2


def balance_sums(plan: BorderPlan) -> tuple[int, int]:
    """The deviation sums (beta, gamma) of a plan's top row and left column.

    beta covers b with both corners at even n, b with w at odd n; gamma
    covers c at even n, c with the complement of w at odd n.  Each multiset
    is matched as sorted neighbours: any perfect matching sums to
    sum(values) - (pairs) * C, so the choice does not change the result.
    """
    n = plan.n
    if n % 2 == 0:
        beta, gamma = [*plan.b, plan.v, plan.w], list(plan.c)
    else:
        beta, gamma = [*plan.b, plan.w], [*plan.c, complement(plan.w, n)]
    sums = []
    for values in (beta, gamma):
        ordered = sorted(values)
        sums.append(sum(d_value(x, y, n) for x, y in zip(ordered[::2], ordered[1::2])))
    return sums[0], sums[1]


# nested past the decoder's recursion limit, in a plan's b or a grid's
# cells, and an int past the interpreter's 4,300-digit limit
_DEEP = "[" * 5000 + "]" * 5000
UNREADABLE_JSON = {
    "deep-plan": f'{{"n": 4, "v": 1, "w": 2, "b": {_DEEP}, "c": [6, 30, 29, 10]}}',
    "deep-grid": f'{{"order": 3, "cells": {_DEEP}}}',
    "long-int": f'{{"n": 4, "v": 1, "w": 2, "b": [{"9" * 5000}], "c": [6, 30, 29, 10]}}',
}


ALL_GOLDEN_PLANS = (
    ORDER8_PLAN,
    ORDER10_PLAN,
    ORDER7_PLAN,
    ORDER5_ALT_PLAN,
    ORDER8_ALT_PLAN,
)

ALL_GOLDEN_FRAMES = (
    (8, ORDER8_FRAME_TEXT),
    (10, ORDER10_FRAME_TEXT),
    (7, ORDER7_FRAME_TEXT),
    (5, ORDER5_ALT_FRAME_TEXT),
    (8, ORDER8_ALT_FRAME_TEXT),
    (8, ORDER8_PERMUTED_FRAME_TEXT),
)


# --- per-cell references ---------------------------------------------------
#
# The library accepts well-formed documents and valid candidates through
# whole-row fast paths and walks everything else cell by cell.  These are
# the cell-by-cell readers, writers and checks alone, kept as oracles: the
# fast paths must give equal results, reports and error messages.


def reference_serialize_grid(cells, fmt):
    """Every cell written on its own, as the per-cell writers do."""
    rows = tuple(tuple(row) for row in cells)
    if fmt == "grid":
        width = max(
            (len(str(x)) for row in rows for x in row if x is not None), default=1
        )
        lines = [
            " ".join(("." if x is None else str(x)).rjust(width) for x in row)
            for row in rows
        ]
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        for row in rows:
            writer.writerow(["" if x is None else x for x in row])
        return out.getvalue()
    payload = {"order": len(rows), "cells": [list(row) for row in rows]}
    return json.dumps(payload, indent=None) + "\n"


# the references name a value as the library does (documents._shown): they
# check which cells are read, not how an error clips what it echoes
def _reference_cell(token, where):
    token = token.strip()
    if token in ("", "."):
        return None
    try:
        return int(token)
    except ValueError:
        raise DocumentError(f"unreadable cell {_shown(token)} at {where}") from None


def _reference_json_rows(raw, where):
    if not isinstance(raw, list):
        raise DocumentError(f"{where} must be a list of rows, got {_shown(raw)}")
    cells = []
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            raise DocumentError(f"{where} row {i} is {_shown(row)}, not a list of cells")
        parsed = []
        for j, x in enumerate(row):
            if x is None or (isinstance(x, int) and not isinstance(x, bool)):
                parsed.append(x)
            else:
                raise DocumentError(f"unreadable cell {_shown(x)} at {where} ({i},{j})")
        cells.append(tuple(parsed))
    order = len(cells)
    if order == 0 or any(len(row) != order for row in cells):
        raise DocumentError(f"{where}: cells do not form a square grid")
    return tuple(cells)


def reference_document(cells):
    """A grid as the reader returns it, decided cell by cell: a square when
    every cell is filled; else a frame when its order is 5 or more and over
    half its interior is empty, and every border cell is filled and every
    interior cell empty; else the DocumentError naming the first cell out of
    place, or the first empty cell."""
    cells = tuple(map(tuple, cells))
    order = len(cells)
    holes = [(i, j) for i, row in enumerate(cells) for j, x in enumerate(row) if x is None]
    if not holes:
        return GridDocument(cells=cells)
    inside = [(i, j) for i, j in holes if 0 < i < order - 1 and 0 < j < order - 1]
    if order >= 5 and 2 * len(inside) > (order - 2) ** 2:
        for i, row in enumerate(cells):
            for j, x in enumerate(row):
                on_border = i in (0, order - 1) or j in (0, order - 1)
                if on_border and x is None:
                    raise DocumentError(f"frame border cell ({i},{j}) is empty")
                if not on_border and x is not None:
                    raise DocumentError(f"frame interior cell ({i},{j}) is filled")
        return BorderFrame(n=order - 2, cells=cells)
    i, j = holes[0]
    raise DocumentError(f"grid has an empty cell at ({i},{j})")


def reference_parse_grid(text):
    """A grid document read token by token, or its DocumentError.

    Plan documents are out of scope: they have no per-cell fast path.
    """
    stripped = text.strip()
    if not stripped:
        raise DocumentError("empty document")
    if stripped.startswith("{"):
        try:
            payload = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"unreadable JSON document: {exc}") from None
        if not {"order", "cells"} <= payload.keys():
            raise DocumentError(
                'JSON document needs keys "order"/"cells" (grid) or "n"/"v"/"w"/"b"/"c" (plan)'
            )
        cells = _reference_json_rows(payload["cells"], "JSON cells")
        order = len(cells)
        if order != payload["order"]:
            raise DocumentError(
                f"JSON order {payload['order']} does not match a "
                f"{order}x{order} cell grid"
            )
        return reference_document(cells)
    lines = [line for line in stripped.splitlines() if line.strip()]
    cells = []
    for i, line in enumerate(lines, start=1):
        # a comma or a quote makes a CSV line
        tokens = next(csv.reader([line])) if "," in line or '"' in line else line.split()
        cells.append(tuple(_reference_cell(tok, f"line {i}") for tok in tokens))
    order = len(cells)
    if any(len(row) != order for row in cells):
        widths = sorted({len(row) for row in cells})
        raise DocumentError(
            f"grid is not square: {order} lines with row widths {widths}"
        )
    return reference_document(cells)


def reference_verify_border(plan):
    """Every condition of ``verify_border`` checked value by value."""
    violations = []
    n = plan.n
    try:
        check_inner_order(n)
    except ValueError:
        return CheckReport.from_violations([Violation("inner-order", f"n={n!r}")])
    c_base = complement_base(n)
    target = magic_constant(n + 2)
    if len(plan.b) != n:
        violations.append(Violation("shape", "b", expected=n, actual=len(plan.b)))
    if len(plan.c) != n:
        violations.append(Violation("shape", "c", expected=n, actual=len(plan.c)))
    values = plan.values()
    s_lo, s_hi, l_lo, l_hi = pool_bounds(n)
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
        violations.append(Violation("row-sum", "top row", expected=target, actual=row_sum))
    col_sum = plan.v + sum(plan.c) + (c_base - plan.w)
    if col_sum != target:
        violations.append(
            Violation("column-sum", "left column", expected=target, actual=col_sum)
        )
    return CheckReport.from_violations(violations)


def reference_layer_plans(cells) -> list[BorderPlan]:
    """The plan of every proper ring of a bordered square, outermost first,
    each lowered by the 2k(N-k) values of the k rings outside it, so that it
    verifies as a border of its own."""
    order = len(cells)
    base = 3 if order % 2 else 4
    plans = []
    m = order
    while m >= base + 2:
        k = (order - m) // 2
        shift = 2 * k * (order - k)
        n = m - 2
        top = [cells[k][j] - shift for j in range(k, k + m)]
        left = [cells[i][k] - shift for i in range(k + 1, k + m - 1)]
        plans.append(
            BorderPlan(n=n, v=top[0], w=top[-1], b=tuple(top[1:-1]), c=tuple(left))
        )
        m -= 2
    return plans


def reference_verify_bordered(cells) -> CheckReport:
    """``verify_bordered`` with every subsquare re-summed and every ring pair
    checked one by one, at orders 3 and up."""
    violations = _square_shape_violations(cells)
    if violations:
        return CheckReport.from_violations(violations)
    order = len(cells)

    flat = [x for row in cells for x in row]
    if sorted(flat) != list(range(1, order * order + 1)):
        violations.append(
            Violation("not-permutation", f"cells are not 1..{order * order}")
        )

    base = 3 if order % 2 else 4
    pair_sum = order * order + 1
    m = order
    while m >= base:
        k = (order - m) // 2
        line_target = m * pair_sum // 2
        rows = range(k, k + m)
        for i in rows:
            s = sum(cells[i][j] for j in rows)
            if s != line_target:
                violations.append(
                    Violation(
                        "subsquare-line-sum",
                        f"order {m} row {i}",
                        expected=line_target,
                        actual=s,
                    )
                )
        for j in rows:
            s = sum(cells[i][j] for i in rows)
            if s != line_target:
                violations.append(
                    Violation(
                        "subsquare-line-sum",
                        f"order {m} column {j}",
                        expected=line_target,
                        actual=s,
                    )
                )
        diag = sum(cells[k + t][k + t] for t in range(m))
        if diag != line_target:
            violations.append(
                Violation(
                    "subsquare-line-sum",
                    f"order {m} main diagonal",
                    expected=line_target,
                    actual=diag,
                )
            )
        anti = sum(cells[k + t][k + m - 1 - t] for t in range(m))
        if anti != line_target:
            violations.append(
                Violation(
                    "subsquare-line-sum",
                    f"order {m} anti diagonal",
                    expected=line_target,
                    actual=anti,
                )
            )
        if m >= base + 2:
            # each ring cell faces one partner: the far end of its column for
            # top/bottom cells, of its row for left/right cells, and the
            # diagonally opposite corner for corners
            lo, hi = k, k + m - 1
            facing = [((lo, lo), (hi, hi)), ((lo, hi), (hi, lo))]
            facing += [((lo, j), (hi, j)) for j in range(lo + 1, hi)]
            facing += [((i, lo), (i, hi)) for i in range(lo + 1, hi)]
            for (i1, j1), (i2, j2) in facing:
                total = cells[i1][j1] + cells[i2][j2]
                if total != pair_sum:
                    violations.append(
                        Violation(
                            "ring-complement",
                            f"cells ({i1},{j1}) and ({i2},{j2})",
                            expected=pair_sum,
                            actual=total,
                        )
                    )
        m -= 2
    return CheckReport.from_violations(violations)


# --- counter reference ------------------------------------------------------


def reference_count(n: int, v: int, w: int) -> tuple[int, int]:
    """Borders of the key (n; v, w), and the states stored to count them.

    The layered counter again, over plain tuple states (need_b, owed_b,
    owed_c, rem_b, rem_c) and with every window taken from the sorted
    rows still undecided.  A state is stored only when it is *live*: each
    line can still close its missing sum with as many of those rows as it
    needs, an admissible number of them small.  Its second result, the
    stored states of every layer, is what the library counter charges as
    budget nodes.
    """
    c = complement_base(n)
    small = 2 * n + 2
    corner_rows = {x if x <= small else c - x for x in (v, w)}
    free = [r for r in range(1, small + 1) if r not in corner_rows]
    half = (n + 2) // 2
    # a line's small count is (n+2)//2 at even n, or one more at odd n
    extra = (0, 1) if n % 2 else (0,)
    target = magic_constant(n + 2)

    def live(left, need, owed, rem):
        if not 0 <= need <= len(left):
            return False
        for k in (owed + e for e in extra):
            if 0 <= k <= need:
                k_large = need - k
                lo = sum(left[:k]) + k_large * c - sum(left[len(left) - k_large:])
                hi = sum(left[len(left) - k:]) + k_large * c - sum(left[:k_large])
                if lo <= rem <= hi:
                    return True
        return False

    start = (
        n,
        half - (v <= small) - (w <= small),
        half - (v <= small) - (c - w <= small),
        target - v - w,
        target - v - (c - w),
    )
    need_b, owed_b, owed_c, rem_b, rem_c = start
    layer = {}
    if live(free, need_b, owed_b, rem_b) and live(free, len(free) - n, owed_c, rem_c):
        layer[start] = 1
    stored = len(layer)
    for idx, row in enumerate(free):
        left = free[idx + 1:]
        following = {}
        for (need_b, owed_b, owed_c, rem_b, rem_c), ways in layer.items():
            # the row goes into b or c, as its small value or its large one
            for value, small_taken in ((row, 1), (c - row, 0)):
                for move in (
                    (need_b - 1, owed_b - small_taken, owed_c, rem_b - value, rem_c),
                    (need_b, owed_b, owed_c - small_taken, rem_b, rem_c - value),
                ):
                    need_b2, owed_b2, owed_c2, rem_b2, rem_c2 = move
                    if live(left, need_b2, owed_b2, rem_b2) and live(
                        left, len(left) - need_b2, owed_c2, rem_c2
                    ):
                        following[move] = following.get(move, 0) + ways
        layer = following
        stored += len(layer)
    return sum(layer.values()), stored


# --- corner references -------------------------------------------------------


def order4_seed(v: int, w: int) -> BorderPlan:
    """The paper's order-4 border with corners (odd v, even w)."""
    return _diagram(4, _ORDER4[v, w])


def _picks(plan: BorderPlan) -> list[str]:
    """The diagram rows of a valid border, row 1 first: the inverse of
    ``construct._diagram``, up to the order of values within a line."""
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


def reference_extend_border(plan: BorderPlan, shift: int) -> BorderPlan:
    """One +4 step on an even border: the eight ``_EXTENSION`` rows, the
    first ``shift`` of them above the plan's diagram rows and the rest
    below, read back as a border of order n + 4.  Inputs are not checked."""
    picks = "".join(_picks(plan))
    return _diagram(plan.n + 4, _EXTENSION[: 2 * shift] + picks + _EXTENSION[2 * shift :])


def reference_missing_pairs(m: int) -> tuple[tuple[int, int], ...]:
    """The ascending opposite-parity pairs (v, w) with v <= 8 at even order
    m that no +4 step reaches: a shift j in {0, 2, 4, 6, 8} reaches a pair
    from order m - 4 when max(0, w - 2m + 6) <= j <= min(8, v - 1)."""
    return tuple(
        (v, w)
        for v in range(1, 9)
        for w in range(v + 1, 2 * m + 3)
        if (v + w) % 2
        and not any(max(0, w - 2 * m + 6) <= j <= min(8, v - 1) for j in (0, 2, 4, 6, 8))
    )
