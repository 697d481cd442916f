"""The ring-by-ring square pipeline against the references it replaced.

``reference_build_square`` wraps the order N-2 square recursively and
``goldens.reference_verify_bordered`` re-sums every concentric subsquare
from scratch.  Both are O(N^3) and kept only as oracles: the library's
``build_square`` must return the same grid and ``verify_bordered`` the same
report, violation for violation.

The other ``reference_*`` functions lay out, read and check the ring by
hand, each with its own copy of the layout; the library now routes them all
through one ring view in ``verify``.  They must agree on valid and tampered
squares and frames.
"""

import subprocess
import sys
from itertools import permutations
from pathlib import Path

from hypothesis import given, settings, strategies as st

from magicborders import (
    SYMMETRIES,
    BorderFrame,
    BorderPlan,
    CheckReport,
    Violation,
    apply_symmetry,
    build_border,
    build_square,
    complement_base,
    plan_from_frame,
    render_frame,
    verify_border,
    verify_bordered,
    verify_frame,
    verify_square,
)
from magicborders.assemble import base_square, layer_plans
from magicborders.verify import _accepts_bordered, _square_shape_violations

from goldens import reference_verify_bordered

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


def reference_render_frame(plan: BorderPlan) -> BorderFrame:
    report = verify_border(plan)
    if not report.valid:
        raise ValueError(
            "cannot render an invalid plan: " + "; ".join(str(v) for v in report.violations)
        )
    n = plan.n
    order = n + 2
    c_base = complement_base(n)
    cells = [[None] * order for _ in range(order)]
    cells[0][0] = plan.v
    cells[0][order - 1] = plan.w
    cells[order - 1][0] = c_base - plan.w
    cells[order - 1][order - 1] = c_base - plan.v
    for j, value in enumerate(plan.b, start=1):
        cells[0][j] = value
        cells[order - 1][j] = c_base - value
    for i, value in enumerate(plan.c, start=1):
        cells[i][0] = value
        cells[i][order - 1] = c_base - value
    return BorderFrame(n=n, cells=tuple(tuple(row) for row in cells))


def reference_plan_from_frame(frame: BorderFrame) -> BorderPlan:
    order = frame.order
    cells = frame.cells
    return BorderPlan(
        n=frame.n,
        v=cells[0][0],
        w=cells[0][order - 1],
        b=tuple(cells[0][1 : order - 1]),
        c=tuple(cells[i][0] for i in range(1, order - 1)),
    )


def reference_layer_plans(cells) -> list[BorderPlan]:
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


def reference_verify_square(cells) -> CheckReport:
    violations = _square_shape_violations(cells)
    if violations:
        return CheckReport.from_violations(violations)
    order = len(cells)
    target = order * (order * order + 1) // 2

    flat = [x for row in cells for x in row]
    if sorted(flat) != list(range(1, order * order + 1)):
        violations.append(
            Violation("not-permutation", f"cells are not 1..{order * order}")
        )
    for i, row in enumerate(cells):
        if sum(row) != target:
            violations.append(
                Violation("line-sum", f"row {i}", expected=target, actual=sum(row))
            )
    for j in range(order):
        col = sum(cells[i][j] for i in range(order))
        if col != target:
            violations.append(
                Violation("line-sum", f"column {j}", expected=target, actual=col)
            )
    diag = sum(cells[i][i] for i in range(order))
    if diag != target:
        violations.append(
            Violation("line-sum", "main diagonal", expected=target, actual=diag)
        )
    anti = sum(cells[i][order - 1 - i] for i in range(order))
    if anti != target:
        violations.append(
            Violation("line-sum", "anti diagonal", expected=target, actual=anti)
        )
    return CheckReport.from_violations(violations)


def reference_verify_frame(frame: BorderFrame) -> CheckReport:
    n = frame.n
    order = frame.order
    cells = frame.cells
    violations = []
    if len(cells) != order or any(len(row) != order for row in cells):
        violations.append(Violation("shape", f"grid is not {order}x{order}"))
        return CheckReport.from_violations(violations)

    pair_sum = complement_base(n)
    for i in range(order):
        for j in range(order):
            on_border = i in (0, order - 1) or j in (0, order - 1)
            value = cells[i][j]
            if on_border:
                if value is None:
                    violations.append(Violation("missing-cell", f"cell ({i},{j})"))
            elif value is not None:
                violations.append(Violation("interior-not-empty", f"cell ({i},{j})"))
    if violations:
        return CheckReport.from_violations(violations)

    hi = order - 1
    facing = [((0, 0), (hi, hi)), ((0, hi), (hi, 0))]
    facing += [((0, j), (hi, j)) for j in range(1, hi)]
    facing += [((i, 0), (i, hi)) for i in range(1, hi)]
    for (i1, j1), (i2, j2) in facing:
        total = cells[i1][j1] + cells[i2][j2]
        if total != pair_sum:
            violations.append(
                Violation(
                    "opposite-complement",
                    f"cells ({i1},{j1}) and ({i2},{j2})",
                    expected=pair_sum,
                    actual=total,
                )
            )

    plan = BorderPlan(
        n=n,
        v=cells[0][0],
        w=cells[0][order - 1],
        b=tuple(cells[0][1 : order - 1]),
        c=tuple(cells[i][0] for i in range(1, order - 1)),
    )
    violations.extend(verify_border(plan).violations)
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


@settings(max_examples=200, deadline=None)
@given(tampered_squares())
def test_verify_square_and_layer_plans_match_the_references_on_tampered_squares(cells):
    assert verify_square(cells) == reference_verify_square(cells)
    assert layer_plans(cells) == reference_layer_plans(cells)


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=41, max_value=200), st.data())
def test_verify_bordered_matches_the_reference_at_large_orders(order, data):
    cells = build_square(order)
    assert verify_bordered(cells) == reference_verify_bordered(cells) == CheckReport(True)
    cell = st.tuples(
        st.integers(min_value=0, max_value=order - 1), st.integers(min_value=0, max_value=order - 1)
    )
    for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
        (i1, j1), (i2, j2) = data.draw(cell), data.draw(cell)
        cells[i1][j1], cells[i2][j2] = cells[i2][j2], cells[i1][j1]
    assert verify_bordered(cells) == reference_verify_bordered(cells)


def test_the_whole_grid_pass_accepts_every_built_square():
    # so valid squares never pay for the ring-by-ring walk
    for order in range(3, 61):
        assert _accepts_bordered(build_square(order), order), order
    assert _accepts_bordered([[1]], 1)


def ring_spans(order):
    """(k, hi) of every proper ring of a bordered square, outermost first."""
    base = 3 if order % 2 else 4
    return [(k, order - 1 - k) for k in range((order - base) // 2)]


def test_swapping_facing_pairs_along_one_ring_side_keeps_a_square_bordered():
    for order in (7, 8, 13, 24, 51):
        for k, hi in ring_spans(order):
            cells = build_square(order)
            j1, j2 = k + 1, hi - 1
            # two top/bottom pairs trade columns, then two left/right pairs trade rows
            for i in (k, hi):
                cells[i][j1], cells[i][j2] = cells[i][j2], cells[i][j1]
            for j in (k, hi):
                cells[j1][j], cells[j2][j] = cells[j2][j], cells[j1][j]
            assert cells != build_square(order)
            assert verify_bordered(cells) == reference_verify_bordered(cells) == CheckReport(True)


def test_trading_a_top_pair_for_a_left_pair_breaks_only_the_ring_sums():
    for order in (7, 8, 13, 24, 51):
        for k, hi in ring_spans(order):
            cells = build_square(order)
            j = i = k + 1
            # the top/bottom pair of column j and the left/right pair of row i
            # trade places: still a permutation with every facing pair whole
            cells[k][j], cells[i][k] = cells[i][k], cells[k][j]
            cells[hi][j], cells[i][hi] = cells[i][hi], cells[hi][j]
            report = verify_bordered(cells)
            assert report == reference_verify_bordered(cells)
            assert not report.valid
            assert {v.condition for v in report.violations} == {"subsquare-line-sum"}


def test_swaps_that_break_one_kind_of_ring_condition_are_rejected():
    # each swap keeps a permutation and breaks one kind of condition of the
    # whole-grid pass: facing pairs of one kind, or one ring line sum
    for order in (7, 8, 13, 24):
        rings = ring_spans(order)
        for k, hi in rings:
            inner = rings[-1] if rings[-1][0] != k else (k + 1, hi - 1)
            swaps = [
                ((k + 1, hi), (hi - 1, hi)),  # right column: left/right pairs
                ((k + 1, k), (hi - 1, k)),  # left column, sum kept: left/right pairs
                ((hi, k + 1), (hi, hi - 1)),  # bottom row: top/bottom pairs
                ((hi, hi), (inner[1], inner[1])),  # two bottom-right corners
                ((k, k + 1), (hi, k + 1)),  # a top/bottom pair flipped: top row sum
                ((k + 1, k), (k + 1, hi)),  # a left/right pair flipped: left column sum
            ]
            for (i1, j1), (i2, j2) in swaps:
                cells = build_square(order)
                cells[i1][j1], cells[i2][j2] = cells[i2][j2], cells[i1][j1]
                report = verify_bordered(cells)
                assert report == reference_verify_bordered(cells), (order, k, (i1, j1), (i2, j2))
                assert not report.valid


def test_verify_bordered_matches_the_references_on_squares_without_a_ring():
    for order in (1, 2):
        for values in permutations(range(1, order * order + 1)):
            cells = [list(values[i * order : (i + 1) * order]) for i in range(order)]
            # below order 3 the bordered check is the plain magic one
            assert verify_bordered(cells).valid == reference_verify_square(cells).valid
    for order in (3, 4):
        base = base_square(order)
        assert verify_bordered(base) == reference_verify_bordered(base) == CheckReport(True)
        swaps = [((0, 0), (0, 1)), ((0, 0), (order - 1, order - 1)), ((1, 1), (2, 1))]
        for (i1, j1), (i2, j2) in swaps:
            cells = [list(row) for row in base]
            cells[i1][j1], cells[i2][j2] = cells[i2][j2], cells[i1][j1]
            assert verify_bordered(cells) == reference_verify_bordered(cells)
            assert not verify_bordered(cells).valid


def test_frames_match_the_reference_layout():
    for n in range(3, 31):
        for symmetry in SYMMETRIES:
            plan = apply_symmetry(build_border(n), symmetry)
            frame = render_frame(plan)
            assert frame == reference_render_frame(plan), (n, symmetry)
            assert plan_from_frame(frame) == plan


@st.composite
def tampered_frames(draw):
    n = draw(st.integers(min_value=3, max_value=20))
    order = n + 2
    cells = [list(row) for row in render_frame(build_border(n)).cells]
    cell = st.tuples(
        st.integers(min_value=0, max_value=order - 1),
        st.integers(min_value=0, max_value=order - 1),
    )
    hi = order - 1
    border_cell = st.sampled_from(
        [(i, j) for i in range(order) for j in range(order) if i in (0, hi) or j in (0, hi)]
    )
    value = st.integers(-5, order * order + 5)
    edits = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("swap"), border_cell, border_cell),
                st.tuples(st.just("set"), border_cell, value),
                st.tuples(st.just("set"), cell, st.one_of(st.none(), value)),
            ),
            max_size=4,
        )
    )
    for kind, (i, j), other in edits:
        if kind == "swap":
            p, q = other
            cells[i][j], cells[p][q] = cells[p][q], cells[i][j]
        else:
            cells[i][j] = other
    return BorderFrame(n=n, cells=tuple(tuple(row) for row in cells))


@settings(max_examples=300, deadline=None)
@given(tampered_frames())
def test_verify_frame_and_plan_from_frame_match_the_references_on_tampered_frames(frame):
    assert verify_frame(frame) == reference_verify_frame(frame)
    assert plan_from_frame(frame) == reference_plan_from_frame(frame)


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
