import random

from hypothesis import given, settings, strategies as st

from magicborders import (
    BorderFrame,
    BorderPlan,
    CheckReport,
    Violation,
    build_border,
    build_square,
    complement,
    complement_base,
    verify_border,
    verify_bordered,
    verify_frame,
    verify_square,
)
from magicborders.assemble import render_frame

from goldens import (
    LO_SHU,
    ORDER7_PLAN,
    ORDER8_PLAN,
    ALL_GOLDEN_PLANS,
    ALL_GOLDEN_FRAMES,
    balance_sums,
    d_corner,
    d_value,
    frame_cells,
    reference_verify_border,
    reference_verify_bordered,
)

TABLE1_12 = BorderPlan(n=4, v=1, w=2, b=(34, 33, 32, 9), c=(6, 30, 29, 10))


def test_reference_plans_verify():
    for plan in (TABLE1_12,) + ALL_GOLDEN_PLANS:
        report = verify_border(plan)
        assert report.valid, (plan, report.violations)


def test_single_value_perturbation_breaks_the_row_sum():
    bad = TABLE1_12._replace(b=(34, 33, 32, 8))
    report = verify_border(bad)
    assert not report.valid
    row_violations = [x for x in report.violations if x.condition == "row-sum"]
    assert row_violations and row_violations[0].expected == 111
    assert row_violations[0].actual == 110


def test_duplicate_and_complement_clash_and_pool_violations_are_named():
    dup = TABLE1_12._replace(b=(34, 34, 32, 9))
    assert any(x.condition == "duplicate-value" for x in verify_border(dup).violations)
    clash = TABLE1_12._replace(b=(34, 33, 31, 9))  # 31 = comp(6), 6 in c
    assert any(
        x.condition == "complement-clash" for x in verify_border(clash).violations
    )
    outside = TABLE1_12._replace(b=(34, 33, 32, 11))  # 11 in the pool gap
    assert any(
        x.condition == "pool-membership" for x in verify_border(outside).violations
    )


def test_wrong_shape_is_a_violation_not_a_crash():
    stubby = BorderPlan(n=4, v=1, w=2, b=(34, 33), c=(6, 30, 29, 10))
    report = verify_border(stubby)
    assert not report.valid
    assert any(x.condition == "shape" for x in report.violations)


@given(st.data())
@settings(max_examples=40)
def test_verify_border_ignores_line_order(data):
    n = data.draw(st.integers(min_value=3, max_value=12))
    plan = build_border(n)
    b = data.draw(st.permutations(plan.b))
    c = data.draw(st.permutations(plan.c))
    shuffled = plan._replace(b=tuple(b), c=tuple(c))
    assert verify_border(shuffled).valid


def test_balance_of_reference_odd_border():
    # the printed top-row pairing of the order-7 border
    beta = [(81, 12), (78, 16), (76, 8), (73, 11)]
    assert sum(d_value(x, y, 7) for x, y in beta) == 27 == -d_corner(14, 7)
    gamma = [(80, 13), (79, 15), (77, 7), (10, 74)]
    assert sum(d_value(x, y, 7) for x, y in gamma) == 27

    # the printed pairs cover exactly the plan's top-row and column multisets
    assert sorted(x for pair in beta for x in pair) == sorted([*ORDER7_PLAN.b, ORDER7_PLAN.w])
    assert balance_sums(ORDER7_PLAN) == (27, 27)


def test_balance_of_reference_even_border_first_part():
    assert (
        d_value(99, 1, 8) + d_value(3, 97, 8) + d_value(7, 96, 8) == -1 - 1 + 2 == 0
    )


def test_balance_of_all_complementary_pairs_reduces_to_corner_terms():
    # a plan whose beta and gamma pairs are all complementary has zero sums,
    # so only the corner deviation decides the outcome
    plan = build_border(6)
    n = plan.n
    comp_pairs = tuple((x, complement(x, n), "b") for x in plan.b[:3])
    assert sum(d_value(x, y, n) for x, y, _ in comp_pairs) == 0


def balance_targets(plan):
    """The (beta, gamma) deviation sums of a magic border with the plan's corners."""
    n = plan.n
    if n % 2 == 0:
        return 0, -d_value(plan.v, complement(plan.w, n), n)
    return -d_corner(plan.v, n), -d_corner(plan.v, n)


def line_gaps(plan):
    """How far verify_border finds the top row and the left column from the target."""
    gaps = {"row-sum": 0, "column-sum": 0}
    for violation in verify_border(plan).violations:
        if violation.condition in gaps:
            gaps[violation.condition] = violation.actual - violation.expected
    return gaps["row-sum"], gaps["column-sum"]


@given(st.integers(min_value=3, max_value=14), st.data())
@settings(max_examples=12, deadline=None)
def test_balance_agrees_with_border_verification(n, data):
    # each line sum misses its target by exactly the amount its deviation
    # sum misses the balance target, valid or not
    plan = build_border(n)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    b, c = list(plan.b), list(plan.c)
    b[i], c[j] = c[j], b[i]
    for candidate in (plan, plan._replace(b=tuple(b), c=tuple(c))):
        beta, gamma = balance_sums(candidate)
        beta_target, gamma_target = balance_targets(candidate)
        assert line_gaps(candidate) == (beta - beta_target, gamma - gamma_target)
    assert line_gaps(plan) == (0, 0)


def test_balance_flags_a_sum_break():
    plan = build_border(8)
    # trading a b value for a c value breaks both line sums at once
    bad = plan._replace(
        b=(plan.c[0],) + plan.b[1:],
        c=(plan.b[0],) + plan.c[1:],
    )
    beta, gamma = balance_sums(bad)
    beta_target, gamma_target = balance_targets(bad)
    assert beta != beta_target and gamma != gamma_target
    report = verify_border(bad)
    assert {v.condition for v in report.violations} == {"row-sum", "column-sum"}


def test_verify_square_accepts_the_classic_order3_square():
    assert verify_square(LO_SHU).valid


def test_verify_square_rejects_a_swap():
    bad = [row[:] for row in LO_SHU]
    bad[0][0], bad[0][1] = bad[0][1], bad[0][0]
    report = verify_square(bad)
    assert not report.valid
    assert any(x.condition == "line-sum" for x in report.violations)


def test_verify_square_accepts_assembled_square():
    assert verify_square(build_square(10)).valid


def test_verify_square_rejects_non_permutations():
    grid = [[1] * 4 for _ in range(4)]
    assert any(
        x.condition == "not-permutation" for x in verify_square(grid).violations
    )


def test_misshapen_inputs_are_shape_violations():
    assert verify_square([]) == CheckReport(False, (Violation("shape", "empty grid"),))
    assert verify_bordered([[1, 2], [3]]) == CheckReport(
        False, (Violation("shape", "row 1", expected=2, actual=1),)
    )
    assert verify_border(BorderPlan(n=2, v=1, w=2, b=(3, 4), c=(5, 6))) == CheckReport(
        False, (Violation("inner-order", "n=2"),)
    )
    wrong_size = BorderFrame(n=4, cells=tuple((1,) * 6 for _ in range(5)))
    assert verify_frame(wrong_size) == CheckReport(
        False, (Violation("shape", "grid is not 6x6"),)
    )


def test_verify_bordered_accepts_assembled_squares():
    for order in range(3, 15):
        report = verify_bordered(build_square(order))
        assert report.valid, (order, report.violations[:3])


def test_a_single_layer_square_is_trivially_bordered():
    durer = [
        [16, 3, 2, 13],
        [5, 10, 11, 8],
        [9, 6, 7, 12],
        [4, 15, 14, 1],
    ]
    assert verify_square(durer).valid
    assert verify_bordered(durer).valid


def test_verify_bordered_rejects_scrambled_inner_cells():
    square = build_square(6)
    bad = [row[:] for row in square]
    bad[1][1], bad[2][2] = bad[2][2], bad[1][1]
    report = verify_bordered(bad)
    assert not report.valid
    assert any("order 4" in x.location for x in report.violations)


def test_verify_bordered_implies_verify_square():
    rng = random.Random(7)
    for order in rng.sample(range(3, 25), 6):
        square = build_square(order)
        assert verify_bordered(square).valid
        assert verify_square(square).valid


def test_reference_frames_verify():
    for _n, text in ALL_GOLDEN_FRAMES:
        frame_doc = frame_cells(text)
        from magicborders import BorderFrame

        frame = BorderFrame(n=len(frame_doc) - 2, cells=frame_doc)
        report = verify_frame(frame)
        assert report.valid, report.violations[:3]


def test_frame_with_broken_opposite_cell_is_rejected():
    frame = render_frame(ORDER8_PLAN)
    cells = [list(row) for row in frame.cells]
    cells[9][1], cells[9][2] = cells[9][2], cells[9][1]
    from magicborders import BorderFrame

    report = verify_frame(BorderFrame(n=8, cells=tuple(tuple(r) for r in cells)))
    assert not report.valid
    assert any(x.condition == "opposite-complement" for x in report.violations)


def _mutated(plan, index, value):
    values = list(plan.values())
    values[index] = value
    n = plan.n
    return BorderPlan(n=n, v=values[0], w=values[1], b=values[2 : n + 2], c=values[n + 2 :])


@given(st.integers(min_value=3, max_value=40), st.data())
@settings(max_examples=300)
def test_verify_border_agrees_with_the_per_value_reference(n, data):
    plan = build_border(n)
    assert verify_border(plan) == reference_verify_border(plan) == CheckReport(valid=True)
    values = plan.values()
    index = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
    c_base = complement_base(n)
    value = data.draw(
        st.one_of(
            st.integers(min_value=-3, max_value=c_base + 3),  # in, between and beyond the pools
            st.sampled_from(values),  # a duplicate
            st.sampled_from([c_base - x for x in values]),  # a complement clash
            st.booleans(),
        )
    )
    mutant = _mutated(plan, index, value)
    assert verify_border(mutant) == reference_verify_border(mutant)


@given(st.integers(min_value=3, max_value=40), st.data())
@settings(max_examples=300)
def test_verify_border_agrees_with_the_reference_on_sum_preserving_edits(n, data):
    # one value of a line moves to a drawn value and another value of the
    # same line absorbs the difference, so both sums still hold and only
    # the pool, duplicate and complement checks can tell
    plan = build_border(n)
    line = data.draw(st.sampled_from(["b", "c"]))
    values = list(getattr(plan, line))
    i, k = data.draw(st.permutations(range(n)))[:2]
    c_base = complement_base(n)
    target = data.draw(
        st.one_of(
            st.integers(min_value=-3, max_value=c_base + 3),
            st.sampled_from(plan.values()),
            st.sampled_from([c_base - x for x in plan.values()]),
        )
    )
    values[k] -= target - values[i]
    values[i] = target
    mutant = plan._replace(**{line: values})
    assert verify_border(mutant) == reference_verify_border(mutant)


@given(st.integers(min_value=3, max_value=30), st.data())
@settings(max_examples=100)
def test_verify_border_agrees_with_the_reference_on_misshapen_plans(n, data):
    plan = build_border(n)
    b = data.draw(st.lists(st.sampled_from(plan.b), max_size=n + 1))
    mutant = plan._replace(b=b)
    assert verify_border(mutant) == reference_verify_border(mutant)


@given(st.integers(min_value=3, max_value=24), st.data())
@settings(max_examples=200)
def test_verify_bordered_agrees_with_the_per_cell_reference_on_swaps(order, data):
    cells = build_square(order)
    assert verify_bordered(cells) == reference_verify_bordered(cells)
    cell = st.tuples(
        st.integers(min_value=0, max_value=order - 1), st.integers(min_value=0, max_value=order - 1)
    )
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        (i1, j1), (i2, j2) = data.draw(cell), data.draw(cell)
        cells[i1][j1], cells[i2][j2] = cells[i2][j2], cells[i1][j1]
    if data.draw(st.booleans()):
        i, j = data.draw(cell)
        x = cells[i][j]
        cells[i][j] = data.draw(
            st.one_of(
                st.integers(min_value=0, max_value=order * order + 1),
                # equal to the cell, or not, without being an int
                st.sampled_from([float(x), x + 0.5, x == 1]),
            )
        )
    assert verify_bordered(cells).violations == reference_verify_bordered(cells).violations


# --- verdicts on cells and values that are not plain ints -------------------
# A bool counts as the int it equals.  A float is named as outside the pool
# in a plan, and in a square is compared with 1..N^2 by value.


def test_verify_border_verdicts_on_bools_and_floats_are_pinned():
    plan3 = build_border(3)  # v=1, w=3, b=(22, 21, 18), c=(2, 20, 19)
    assert verify_border(TABLE1_12._replace(v=True)) == CheckReport(valid=True)
    assert verify_border(plan3._replace(v=True)) == CheckReport(valid=True)
    for n in (3, 4, 8):  # the plans holding a 3
        plan = build_border(n)
        mutant = _mutated(plan, plan.values().index(3), 3.0)
        assert verify_border(mutant) == CheckReport(
            False, (Violation("pool-membership", "value 3.0"),)
        )
    assert verify_border(plan3._replace(b=(3.0, 21, 18))) == CheckReport(
        False,
        (
            Violation("pool-membership", "value 3.0"),
            Violation("duplicate-value", "value 3", expected=1, actual=2),
            Violation("row-sum", "top row", expected=65, actual=46.0),
        ),
    )
    assert verify_border(plan3._replace(b=(23.0, 21, 18))) == CheckReport(
        False,
        (
            Violation("pool-membership", "value 23.0"),
            Violation("complement-clash", "values 3 and 23"),
            Violation("row-sum", "top row", expected=65, actual=66.0),
        ),
    )
    assert verify_border(plan3._replace(c=(True, 20, 19))) == CheckReport(
        False,
        (
            Violation("duplicate-value", "value 1", expected=1, actual=2),
            Violation("column-sum", "left column", expected=65, actual=64),
        ),
    )


def _put(cells, old, new):
    return [[new if x == old else x for x in row] for row in cells]


def test_square_verdicts_on_bools_and_floats_are_pinned():
    assert verify_square(_put(LO_SHU, 1, True)) == CheckReport(valid=True)
    assert verify_square(_put(LO_SHU, 2, 2.0)) == CheckReport(valid=True)
    for order in (5, 6, 7):
        square = build_square(order)
        for cells in (_put(square, 1, True), _put(square, 2, 2.0)):
            assert verify_square(cells) == verify_bordered(cells) == CheckReport(valid=True)
    square = build_square(5)  # row 0 is 1, 22, 21, 18, 3; cell (1,0) is 2
    assert verify_bordered(_put(square, 2, True)) == CheckReport(
        False,
        (
            Violation("not-permutation", "cells are not 1..25"),
            Violation("subsquare-line-sum", "order 5 row 1", expected=65, actual=64),
            Violation("subsquare-line-sum", "order 5 column 0", expected=65, actual=64),
            Violation("ring-complement", "cells (1,0) and (1,4)", expected=26, actual=25),
        ),
    )
    assert verify_square(_put(square, 3, 2.0)) == CheckReport(
        False,
        (
            Violation("not-permutation", "cells are not 1..25"),
            Violation("line-sum", "row 0", expected=65, actual=64.0),
            Violation("line-sum", "column 4", expected=65, actual=64.0),
            Violation("line-sum", "anti diagonal", expected=65, actual=64.0),
        ),
    )


# --- values near the pools and slots of a valid one -------------------------
# The square check's accept path marks each cell's slot in a byte table, and
# the plan check walks value by value.  These edits hit the slot a valid cell
# would have marked, or fall outside the table or the pools, and every
# verdict must still match the per-value and per-cell references.


def _not_permutation(cells):
    flat = sorted(x for row in cells for x in row)
    return flat != list(range(1, len(cells) ** 2 + 1))


def _assert_square_verdicts(cells):
    report = verify_square(cells)
    flagged = Violation("not-permutation", f"cells are not 1..{len(cells) ** 2}")
    assert (flagged in report.violations) == _not_permutation(cells)
    if len(cells) >= 3:
        assert verify_bordered(cells) == reference_verify_bordered(cells)


def _small_squares():
    yield [[1]]
    yield [[1, 2], [3, 4]]
    for order in (3, 4, 5, 6):
        yield build_square(order)


def test_a_cell_lowered_by_its_wrap_is_no_permutation():
    # x - (N^2+1) indexes the same table slot as x, so only the cell total
    # tells the two apart; raising another cell by as much keeps the total
    for cells in _small_squares():
        order = len(cells)
        wrap = order * order + 1
        for i in range(order):
            for j in range(order):
                mutant = [row[:] for row in cells]
                mutant[i][j] -= wrap
                _assert_square_verdicts(mutant)
                assert not verify_square(mutant).valid
                mutant[order - 1 - i][order - 1 - j] += wrap
                _assert_square_verdicts(mutant)


def test_cells_beyond_the_table_are_no_permutation():
    for cells in _small_squares():
        order = len(cells)
        size = order * order
        for value in (0, -1, size + 1, 2 * size + 5):
            for i in range(order):
                for j in range(order):
                    mutant = [row[:] for row in cells]
                    mutant[i][j] = value
                    _assert_square_verdicts(mutant)


def test_plan_values_outside_the_pools_match_the_reference():
    for n in range(3, 9):
        plan = build_border(n)
        c_base = complement_base(n)
        gap = (2 * n + 3, c_base // 2, c_base - 2 * n - 3)
        for value in (*gap, 0, -1, -c_base, c_base, c_base + 1, 2 * c_base):
            for index in range(2 * n + 2):
                mutant = _mutated(plan, index, value)
                assert verify_border(mutant) == reference_verify_border(mutant)
                # the same edit with a neighbour on its line absorbing it,
                # so both line sums still hold
                line = "b" if 2 <= index < n + 2 else "c"
                values = list(getattr(plan, line))
                if index >= 2:
                    i = (index - 2) % n
                    k = (i + 1) % n
                    values[k] -= value - values[i]
                    values[i] = value
                    mutant = plan._replace(**{line: values})
                    assert verify_border(mutant) == reference_verify_border(mutant)


def test_a_value_swapped_for_its_complement_matches_the_reference():
    # a value and its complement share a diagram row, so the plan still
    # holds distinct, complement-free pool values and only the line sums tell
    for n in range(3, 9):
        plan = build_border(n)
        c_base = complement_base(n)
        for index, value in enumerate(plan.values()):
            mutant = _mutated(plan, index, c_base - value)
            report = verify_border(mutant)
            assert report == reference_verify_border(mutant)
            assert not report.valid


# --- values that are no numbers ----------------------------------------------
# A str or None cannot be summed; the verifiers name it instead of raising.


def test_a_plan_value_that_is_no_number_is_named():
    plan3 = build_border(3)  # v=1, w=3, b=(22, 21, 18), c=(2, 20, 19)
    assert verify_border(plan3._replace(c=("2", 20, 19))) == CheckReport(
        False, (Violation("pool-membership", "value '2'"),)
    )
    # the row sum still holds; the column sum cannot be taken
    assert verify_border(plan3._replace(w=None)) == CheckReport(
        False, (Violation("pool-membership", "value None"),)
    )


def test_a_plan_value_that_cannot_be_hashed_is_named():
    plan3 = build_border(3)  # v=1, w=3, b=(22, 21, 18), c=(2, 20, 19)
    assert verify_border(plan3._replace(c=([2], 20, 19))) == CheckReport(
        False, (Violation("pool-membership", "value [2]"),)
    )
    # left out of the duplicate and clash counts, which still see the rest
    assert verify_border(plan3._replace(b=({}, 21, 20), c=({}, 20, 19))) == CheckReport(
        False,
        (
            Violation("pool-membership", "value {}"),
            Violation("pool-membership", "value {}"),
            Violation("duplicate-value", "value 20", expected=1, actual=2),
        ),
    )


def test_a_square_cell_that_is_no_number_is_named():
    assert verify_square([[1, "2"], [3, 4]]) == CheckReport(
        False, (Violation("cell-type", "cell (0,1) holding '2'"),)
    )
    assert verify_bordered([[1, None], [3, 4]]) == CheckReport(
        False, (Violation("cell-type", "cell (0,1) holding None"),)
    )
    square = build_square(7)
    square[3][3], square[6][0] = None, "x"
    named = CheckReport(
        False,
        (
            Violation("cell-type", "cell (3,3) holding None"),
            Violation("cell-type", "cell (6,0) holding 'x'"),
        ),
    )
    assert verify_square(square) == verify_bordered(square) == named


def test_a_frame_cell_that_is_no_number_is_named():
    frame = render_frame(build_border(4))
    cells = [list(row) for row in frame.cells]
    cells[0][2] = "5"
    assert verify_frame(frame._replace(cells=cells)) == CheckReport(
        False, (Violation("cell-type", "cell (0,2) holding '5'"),)
    )


def test_a_frame_whose_n_is_no_inner_order_is_reported_as_border_plans_are():
    square = ((1, 2, 3), (4, None, 6), (7, 8, 9))
    for n, cells in ((1, square), ("x", ()), (2, square), (True, square)):
        named = CheckReport(False, (Violation("inner-order", f"n={n!r}"),))
        assert verify_frame(BorderFrame(n, cells)) == named
        assert verify_border(BorderPlan(n, 1, 2, (), ())) == named
