import pytest
from hypothesis import given, settings, strategies as st

from magicborders import (
    OmegaKey,
    border_pool,
    build_border,
    complement,
    complement_base,
    enumerate_omega,
    magic_constant,
    verify_border,
)
from magicborders import construct, enumeration
from magicborders.construct import (
    _BLOCKS,
    _N3,
    _diagram,
    recipe_even_4k,
    recipe_even_4k_plus_2,
    recipe_odd,
)
from magicborders.core import row_of

from goldens import ORDER7_PLAN, ORDER8_PLAN, ORDER10_PLAN, balance_sums, d_corner, d_value


def canonical(plan):
    return (plan.n, plan.v, plan.w, tuple(sorted(plan.b)), tuple(sorted(plan.c)))


def test_build_border_reproduces_the_order8_reference():
    assert canonical(build_border(8)) == canonical(ORDER8_PLAN)


def test_build_border_reproduces_the_order10_reference():
    assert canonical(build_border(10)) == canonical(ORDER10_PLAN)


def test_build_border_reproduces_the_order7_reference():
    assert canonical(build_border(7)) == canonical(ORDER7_PLAN)


def test_build_border_dispatch():
    assert build_border(3) == _N3
    assert build_border(4) == recipe_even_4k(1)  # the fixed opening alone fills n=4
    assert build_border(6) == recipe_even_4k_plus_2(1)
    assert build_border(8) == recipe_even_4k(2)
    assert build_border(9) == recipe_odd(9)


def test_even_4k_opening_instantiated_at_order4():
    plan = recipe_even_4k(1)
    assert (plan.v, plan.w) == (35, 32)
    assert sorted(plan.b) == [1, 3, 7, 33]
    assert sorted(plan.c) == [6, 9, 27, 29]
    assert plan.v + sum(plan.b) + plan.w == 111 == magic_constant(6)


def test_even_4k_plus_2_opening_instantiated_at_order6():
    plan = recipe_even_4k_plus_2(1)
    assert (plan.v, plan.w) == (1, 4)
    assert sorted(plan.b) == sorted([63, 62, 5, 59, 58, 8])
    assert sorted(plan.c) == sorted([10, 56, 54, 12, 52, 14])
    assert plan.v + sum(plan.b) + plan.w == magic_constant(8) == 260
    assert verify_border(plan).valid


def test_even_4k_plus_2_column_balance_at_order10():
    plan = recipe_even_4k_plus_2(2)
    w_bar = complement(plan.w, 10)
    assert d_value(plan.v, w_bar, 10) == -3
    assert balance_sums(plan) == (0, 3)


def test_odd_recipe_reproduces_the_order7_reference_selections():
    plan = recipe_odd(7)
    assert canonical(plan) == canonical(ORDER7_PLAN)
    # middle-part sides, rows 5..11: a small value sits on the left
    by_row = {row_of(x, 7): x for x in plan.values()}
    sides = tuple("L" if by_row[row] <= 2 * 7 + 2 else "R" for row in range(5, 12))
    assert sides == ("R", "R", "L", "L", "R", "L", "L")


def test_odd_recipe_at_order9():
    plan = recipe_odd(9)
    assert (plan.v, plan.w) == (16, 10)
    assert verify_border(plan).valid


def test_odd_recipe_balance_identity():
    for n in (7, 9, 11, 25):
        plan = recipe_odd(n)
        per_side = (n + 4) + (n - 5) * (n + 5) // 2 + 4
        assert per_side == (n * n + 2 * n - 9) // 2
        beta, gamma = balance_sums(plan)
        assert beta == gamma == per_side == -d_corner(plan.v, n)


def test_recipe_rejects_out_of_range_parameters():
    with pytest.raises(ValueError):
        recipe_even_4k(0)
    with pytest.raises(ValueError):
        recipe_even_4k_plus_2(0)
    with pytest.raises(ValueError):
        recipe_odd(4)
    with pytest.raises(ValueError):
        recipe_odd(3)
    with pytest.raises(ValueError):
        build_border(2)


def test_order3_special_case():
    plan = build_border(3)
    assert plan.v + sum(plan.b) + plan.w == 65 == magic_constant(5)
    values = set(plan.values()) | {complement(x, 3) for x in plan.values()}
    assert values == border_pool(3)
    assert verify_border(plan).valid


def first_order3_border_by_search():
    """The corner-pair loop that once ran inside the order-3 recipe."""
    pool = sorted(border_pool(3))
    for v in pool:
        for w in pool:
            if w == v or v + w == complement_base(3):
                continue
            for found in enumerate_omega(OmegaKey(3, v, w)):
                return found.to_plan()
    raise AssertionError("no order-3 magic border found")


def test_order3_literal_is_the_first_border_the_search_finds():
    found = first_order3_border_by_search()

    def in_row_order(values):
        return tuple(sorted(values, key=lambda x: row_of(x, 3)))

    # the literal lists b and c in diagram-row order, as the old recipe did
    expected = found._replace(b=in_row_order(found.b), c=in_row_order(found.c))
    assert build_border(3) == expected


def test_no_construct_call_runs_a_search(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("construct must not search")

    for name in ("enumerate_omega", "_solutions", "_count"):
        monkeypatch.setattr(enumeration, name, forbidden)
    for n in range(3, 61):
        assert verify_border(build_border(n)).valid


def test_diagram_rejects_a_wrong_row_count_and_corner_miscounts():
    with pytest.raises(ValueError, match="has 8 rows, got 7"):
        _diagram(3, "LvLcLwRbRbRcRc")
    with pytest.raises(ValueError, match="has 8 rows, got 9"):
        _diagram(3, "LvLcLwRbRbRcRcRbLb")
    with pytest.raises(ValueError, match="corner"):
        _diagram(3, "LvLcLvRbRbRcRcRb")  # v twice, w never
    with pytest.raises(ValueError, match="corner"):
        _diagram(3, "LvLcLwRwRbRcRcRb")  # w twice
    with pytest.raises(ValueError, match="corner"):
        _diagram(3, "LbLcLwRbRbRcRcRb")  # v never


def flattened(parts):
    """A diagram's parts as the one pick string they stand for."""
    return "".join(part if isinstance(part, str) else part[0] * part[1] for part in parts)


def test_recipes_read_from_parts_equal_their_flattened_pick_strings(monkeypatch):
    read = []

    def recorded(n, *parts):
        read.append((n, parts))
        return _diagram(n, *parts)

    monkeypatch.setattr(construct, "_diagram", recorded)
    for n in range(4, 401):
        plan = build_border(n)
        (order, parts), = read
        read.clear()
        assert order == n
        assert plan == _diagram(n, flattened(parts)), n
        # every recipe passes its repeated blocks as (block, copies) pairs
        assert any(not isinstance(part, str) for part in parts), n


# --- each recipe family proved for every order -------------------------------
# A family is fixed pick strings and runs of one block whose copy count is
# affine in k, so its line lengths are affine in k and its line sums, like
# the target, polynomials of degree at most 3 in k (the construct module
# docstring has the argument): right at four consecutive k, right at every
# k.  build_square writes recipe rings unchecked on the strength of this.

# each family's first four orders, k = 1..4 for the even families (0..3
# copies of the block) and 0..3 head and tail copies for the odd one
FIRST_FOUR_ORDERS = {
    "recipe_even_4k": (4, 8, 12, 16),
    "recipe_even_4k_plus_2": (6, 10, 14, 18),
    "recipe_odd": (5, 7, 9, 11),
}


def recipe_parts(monkeypatch, family, n):
    """The parts the recipe for n passes to _diagram, read off the call."""
    read = []
    monkeypatch.setattr(construct, "_diagram", lambda order, *parts: read.append(parts))
    construct._recipe(n)
    monkeypatch.undo()
    (parts,) = read
    assert construct._recipe(n) == getattr(construct, family)(n // 4 if n % 2 == 0 else n)
    return parts


def lines_are_right(n, picks):
    """Whether the border a flat pick string describes has 2n+2 rows, one
    v and one w, n values on each line and both line sums at the target;
    row r of the pick string gives r on the left side, C - r on the right."""
    c_base = (n + 2) ** 2 + 1
    target = (n + 2) * c_base // 2
    count = dict.fromkeys("vwbc", 0)
    total = dict.fromkeys("vwbc", 0)
    for r, (side, line) in enumerate(zip(picks[::2], picks[1::2]), 1):
        count[line] += 1
        total[line] += r if side == "L" else c_base - r
    return (
        len(picks) == 2 * (2 * n + 2)
        and list(count.values()) == [1, 1, n, n]
        and total["v"] + total["b"] + total["w"] == target
        and total["v"] + total["c"] + (c_base - total["w"]) == target
    )


def traded(block):
    """The block with its first b pick and its first c pick trading lines."""
    picks = [block[i : i + 2] for i in range(0, len(block), 2)]
    ib = next(i for i, pick in enumerate(picks) if pick[1] == "b")
    ic = next(i for i, pick in enumerate(picks) if pick[1] == "c")
    picks[ib], picks[ic] = picks[ib][0] + "c", picks[ic][0] + "b"
    return "".join(picks)


@pytest.mark.parametrize("family", FIRST_FOUR_ORDERS)
def test_each_recipe_family_is_right_at_its_first_four_k(monkeypatch, family):
    orders = FIRST_FOUR_ORDERS[family]
    parts = [recipe_parts(monkeypatch, family, n) for n in orders]
    # one shape at every k: the same pick strings and blocks, and each
    # block's copy count rising by one per step of k, so affine in k
    for step, at_k in enumerate(parts):
        assert len(at_k) == len(parts[0])
        for part, first in zip(at_k, parts[0]):
            if isinstance(first, str):
                assert part == first
            else:
                assert part == (first[0], first[1] + step)
    for n, at_k in zip(orders, parts):
        assert lines_are_right(n, flattened(at_k)), (family, n)


@pytest.mark.parametrize("family", FIRST_FOUR_ORDERS)
def test_a_block_trading_a_b_pick_for_a_c_pick_fails_by_k_2(monkeypatch, family):
    orders = FIRST_FOUR_ORDERS[family]
    verdicts = []
    for n in orders:
        parts = list(recipe_parts(monkeypatch, family, n))
        # the first run of blocks only: the odd recipe's tail run would
        # trade back what its head run trades
        i = next(i for i, part in enumerate(parts) if not isinstance(part, str))
        block, copies = parts[i]
        parts[i] = (traded(block), copies)
        verdicts.append(lines_are_right(n, flattened(parts)))
    # no copy at the first k hides the trade; one copy shows it
    assert verdicts == [True, False, False, False]


def test_blocks_read_the_same_at_any_number_of_copies():
    opening = "LbRvLbRbRwLcLbRcLcRc"
    for copies in (0, 1, 2, 7, 50):
        n = 4 + 4 * copies
        assert _diagram(n, opening, (_BLOCKS, copies)) == _diagram(n, opening + _BLOCKS * copies)
    # zero copies anywhere read as nothing, and a block may come first
    assert _diagram(4, ("LcRb", 0), opening, (_BLOCKS, 0)) == _diagram(4, opening)
    tail = "LcLb" * 40
    assert _diagram(40, ("RcRb", 40), "LvLw") == _diagram(40, "RcRb" * 40 + "LvLw")
    assert _diagram(40, "LvLw", ("LcLb", 40)) == _diagram(40, "LvLw" + tail)


def test_diagram_parts_must_cover_every_row_once():
    opening = "LbRvLbRbRwLcLbRcLcRc"
    with pytest.raises(ValueError, match="has 18 rows, got 26"):
        _diagram(8, opening, (_BLOCKS, 2))
    with pytest.raises(ValueError, match="has 18 rows, got 10"):
        _diagram(8, opening, (_BLOCKS, 0))
    # a long run of blocks is checked the same way
    with pytest.raises(ValueError, match="has 402 rows, got 410"):
        _diagram(200, opening, (_BLOCKS, 50))
    with pytest.raises(ValueError, match="corner"):
        _diagram(200, opening.replace("Rw", "Rb"), (_BLOCKS, 49))


def test_build_border_is_deterministic():
    for n in (3, 6, 7, 8, 13):
        assert build_border(n) == build_border(n)


@given(st.integers(min_value=3, max_value=40))
@settings(max_examples=38, deadline=None)
def test_every_order_yields_a_valid_balanced_border(n):
    assert verify_border(build_border(n)).valid


def test_every_diagram_row_is_consumed_exactly_once():
    for n in range(3, 31):
        plan = build_border(n)
        assert sorted(row_of(x, n) for x in plan.values()) == list(range(1, 2 * n + 3))


def test_recipes_never_select_complementary_values():
    for n in range(3, 31):
        plan = build_border(n)
        values = set(plan.values())
        assert not any(complement(x, n) in values for x in values)
