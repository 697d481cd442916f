"""The ring-by-ring square pipeline against the cubic reference it replaced.

``reference_build_square`` wraps the order N-2 square recursively and
``reference_verify_bordered`` re-sums every concentric subsquare from
scratch.  Both are O(N^3) and kept here only as oracles: the library's
``build_square`` must return the same grid and ``verify_bordered`` the same
report, violation for violation.
"""

import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from magicborders import (
    CheckReport,
    Violation,
    base_square,
    build_border,
    build_square,
    render_frame,
    verify_bordered,
)
from magicborders.verify import _square_shape_violations

SRC = Path(__file__).resolve().parents[1] / "src"


def reference_build_square(order: int) -> list[list[int]]:
    if order <= 4:
        return base_square(order)
    inner_order = order - 2
    inner = reference_build_square(inner_order)
    shift = 2 * inner_order + 2
    frame = render_frame(build_border(inner_order))
    cells = [list(row) for row in frame.cells]
    for i, row in enumerate(inner, start=1):
        for j, value in enumerate(row, start=1):
            cells[i][j] = value + shift
    return cells


def reference_verify_bordered(cells) -> CheckReport:
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


def test_build_square_matches_the_recursive_reference():
    for order in range(3, 61):
        assert build_square(order) == reference_build_square(order), order


@st.composite
def tampered_squares(draw):
    order = draw(st.integers(min_value=3, max_value=40))
    cells = build_square(order)
    cell = st.tuples(
        st.integers(min_value=0, max_value=order - 1),
        st.integers(min_value=0, max_value=order - 1),
    )
    edits = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("swap"), cell, cell),
                st.tuples(st.just("set"), cell, st.integers(-5, order * order + 5)),
            ),
            min_size=1,
            max_size=4,
        )
    )
    for kind, (i, j), other in edits:
        if kind == "swap":
            p, q = other
            cells[i][j], cells[p][q] = cells[p][q], cells[i][j]
        else:
            cells[i][j] = other
    return cells


@settings(max_examples=200, deadline=None)
@given(tampered_squares())
def test_verify_bordered_matches_the_reference_on_tampered_squares(cells):
    assert verify_bordered(cells) == reference_verify_bordered(cells)


def test_verify_bordered_checks_the_lines_of_squares_without_a_ring():
    assert verify_bordered([[1]]).valid
    report = verify_bordered([[1, 2], [3, 4]])
    assert [v.location for v in report.violations] == [
        "order 2 row 0",
        "order 2 row 1",
        "order 2 column 0",
        "order 2 column 1",
    ]
    assert {v.condition for v in report.violations} == {"subsquare-line-sum"}


def test_no_recursion_depth_grows_with_the_order():
    order = 301
    script = (
        "import sys\n"
        "from magicborders import build_square, verify_bordered\n"
        "sys.setrecursionlimit(60)\n"
        f"sys.exit(0 if verify_bordered(build_square({order})).valid else 1)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
