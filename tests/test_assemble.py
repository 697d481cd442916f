import pytest

from magicborders import (
    build_border,
    build_square,
    complement_base,
    magic_constant,
    plan_from_frame,
    render_frame,
    verify_border,
    verify_bordered,
    verify_square,
)
from magicborders.assemble import base_square
from magicborders.verify import BorderPlan

from goldens import (
    LO_SHU,
    ORDER8_PLAN,
    ORDER10_PLAN,
    ORDER8_FRAME_TEXT,
    ORDER10_FRAME_TEXT,
    frame_cells,
    reference_layer_plans,
)


def test_base_squares_are_magic():
    assert base_square(3) == LO_SHU
    assert verify_square(base_square(3)).valid
    assert verify_square(base_square(4)).valid
    assert magic_constant(4) == 34


def test_base_square_rejects_other_orders():
    with pytest.raises(ValueError):
        base_square(5)


def test_build_square_rejects_tiny_orders():
    for bad in (0, 1, 2):
        with pytest.raises(ValueError):
            build_square(bad)


def test_render_frame_matches_the_reference_frames():
    assert render_frame(ORDER8_PLAN).cells == frame_cells(ORDER8_FRAME_TEXT)
    assert render_frame(ORDER10_PLAN).cells == frame_cells(ORDER10_FRAME_TEXT)


def test_render_frame_corner_complementarity():
    for n in (3, 6, 9):
        plan = build_border(n)
        cells = render_frame(plan).cells
        assert cells[0][0] + cells[n + 1][n + 1] == complement_base(n)
        assert cells[0][n + 1] + cells[n + 1][0] == complement_base(n)


def test_render_frame_rejects_invalid_plans():
    broken = BorderPlan(n=4, v=1, w=2, b=(34, 33, 32, 8), c=(6, 30, 29, 10))
    with pytest.raises(ValueError):
        render_frame(broken)


def test_plan_round_trips_through_its_frame():
    for n in (4, 7, 10):
        plan = build_border(n)
        assert plan_from_frame(render_frame(plan)) == plan


def test_every_square_up_to_order24_is_bordered():
    for order in range(3, 25):
        square = build_square(order)
        report = verify_bordered(square)
        assert report.valid, (order, report.violations[:3])
        flat = sorted(x for row in square for x in row)
        assert flat == list(range(1, order * order + 1))


def test_order9_square_wraps_the_order7_square():
    square = build_square(9)
    frame = render_frame(build_border(7))
    for j in range(9):
        assert square[0][j] == frame.cells[0][j]
        assert square[8][j] == frame.cells[8][j]
        assert square[j][0] == frame.cells[j][0]
        assert square[j][8] == frame.cells[j][8]
    inner = build_square(7)
    for i in range(7):
        for j in range(7):
            assert square[i + 1][j + 1] == inner[i][j] + 16


def test_layers_are_valid_and_partition_the_values():
    from magicborders import border_pool

    for order in (9, 12):
        square = build_square(order)
        plans = reference_layer_plans(square)
        assert len(plans) == (order - (3 if order % 2 else 4)) // 2
        consumed: set[int] = set()
        for k, plan in enumerate(plans):
            assert verify_border(plan).valid
            shift = 2 * k * (order - k)
            pool = {x + shift for x in border_pool(plan.n)}
            assert not pool & consumed
            consumed |= pool
        core = set(range(1, order * order + 1)) - consumed
        flat = {x for row in square for x in row}
        assert flat == consumed | core
        assert len(core) == (3 if order % 2 else 4) ** 2
    for order in range(3, 61):
        base = 3 if order % 2 else 4
        expected = [build_border(m - 2) for m in range(order, base + 1, -2)]
        assert reference_layer_plans(build_square(order)) == expected, order


def test_build_square_is_deterministic():
    assert build_square(11) == build_square(11)


def test_concentric_line_sums_follow_the_shrinking_constant():
    order = 10
    square = build_square(order)
    for m in (10, 8, 6, 4):
        k = (order - m) // 2
        target = m * (order * order + 1) // 2
        for i in range(k, k + m):
            assert sum(square[i][j] for j in range(k, k + m)) == target
