import random

from hypothesis import given, settings, strategies as st

from magicborders import (
    BorderPlan,
    CheckReport,
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
