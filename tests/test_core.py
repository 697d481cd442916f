import pytest
from hypothesis import given, strategies as st

from magicborders import construct_with_corners, core
from magicborders.corners import corners_feasible, seed_order4
from magicborders.enumeration import OmegaKey, count_borders, enumerate_omega

from goldens import d_corner, d_value


def test_magic_constant_reference_values():
    assert core.magic_constant(3) == 15
    assert core.magic_constant(6) == 111
    assert core.magic_constant(10) == 505


@pytest.mark.parametrize("bad", [0, -1, 2.5, "3", None])
def test_magic_constant_rejects_non_positive_orders(bad):
    with pytest.raises(ValueError):
        core.magic_constant(bad)


def test_complement_reference_values():
    assert core.complement(1, 8) == 100
    assert core.complement(5, 8) == 96
    assert core.complement(10, 4) == 27


def test_complement_rejects_values_outside_pool():
    with pytest.raises(ValueError):
        core.complement(11, 4)  # gap between 10 and 27
    with pytest.raises(ValueError):
        core.complement(0, 4)
    with pytest.raises(ValueError):
        core.complement(37, 4)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: construct_with_corners(6, 1, 2.5),
                     "corner w=2.5 is outside the pool for n=6", id="construct"),
        pytest.param(lambda: construct_with_corners(10, 1, 22.0),
                     "corner w=22.0 is outside the pool for n=10", id="construct-float"),
        pytest.param(lambda: count_borders(OmegaKey(4, 1, 2.5)),
                     "corner w=2.5 is outside the pool for n=4", id="count"),
        pytest.param(lambda: list(enumerate_omega(OmegaKey(4, 1.5, 2))),
                     "corner v=1.5 is outside the pool for n=4", id="enumerate"),
        pytest.param(lambda: core.complement(2.5, 4),
                     "2.5 is outside the border pool {1..10} u {27..36} for inner order 4",
                     id="complement"),
        pytest.param(lambda: corners_feasible(6, 1, 2.5),
                     "corners must lie in 1..14, got (1, 2.5)", id="feasible"),
        pytest.param(lambda: seed_order4(1.0, 2),
                     "(1.0, 2) is not an order-4 seed pair; canonicalize the corners "
                     "(odd corner first) before the lookup", id="seed-order4"),
    ],
)
def test_non_integer_values_are_outside_the_pool(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message
    # bools count as 0 and 1, as in verify_border's pool-membership check
    assert core.in_pool(True, 4) and not core.in_pool(1.0, 4)


@given(st.integers(min_value=3, max_value=60), st.data())
def test_complement_is_an_involution(n, data):
    x = data.draw(st.sampled_from(sorted(core.border_pool(n))))
    assert core.complement(core.complement(x, n), n) == x


def test_border_pool_reference_values():
    assert core.border_pool(4) == frozenset(range(1, 11)) | frozenset(range(27, 37))
    assert core.border_pool(8) == frozenset(range(1, 19)) | frozenset(range(83, 101))
    assert core.border_pool(3) == frozenset(range(1, 9)) | frozenset(range(18, 26))


@given(st.integers(min_value=3, max_value=200))
def test_border_pool_holds_2n_plus_2_complementary_pairs(n):
    pool = core.border_pool(n)
    assert len(pool) == 4 * n + 4
    assert {core.complement(x, n) for x in pool} == pool


def test_d_value_reference_values():
    assert d_value(1, 98, 8) == -2
    assert d_value(3, 100, 8) == 2
    for n in (3, 4, 9):
        for x in sorted(core.border_pool(n))[:4]:
            assert d_value(x, core.complement(x, n), n) == 0


def test_d_value_rejects_values_outside_pool():
    with pytest.raises(ValueError):
        d_value(1, 50, 8)


def test_d_corner_reference_values():
    assert d_corner(14, 7) == -27
    assert d_corner(41, 7) == 0  # total on integers; 41 is not pool-checked
    assert d_corner(16, 9) == -45


def test_d_corner_rejects_even_orders():
    with pytest.raises(ValueError):
        d_corner(1, 8)


@given(
    st.integers(min_value=3, max_value=60),
    st.integers(min_value=1),
    st.integers(min_value=1),
)
def test_d_value_of_left_right_pair_is_row_difference(n, i, j):
    i = 1 + i % (2 * n + 2)
    j = 1 + j % (2 * n + 2)
    c = core.complement_base(n)
    assert d_value(i, c - j, n) == i - j


@given(st.integers(min_value=3, max_value=60), st.data())
def test_d_value_flips_sign_under_complementation(n, data):
    pool = sorted(core.border_pool(n))
    x = data.draw(st.sampled_from(pool))
    y = data.draw(st.sampled_from(pool))
    assert d_value(x, y, n) == -d_value(
        core.complement(x, n), core.complement(y, n), n
    )


@given(st.integers(min_value=3, max_value=40), st.data())
def test_pair_deviation_sum_ignores_the_matching(n, data):
    # the deviation total of a fixed multiset is (sum) - (pairs)*C however
    # the values are matched up
    pool = sorted(core.border_pool(n))
    k = data.draw(st.integers(min_value=1, max_value=4))
    values = data.draw(
        st.lists(st.sampled_from(pool), min_size=2 * k, max_size=2 * k, unique=True)
    )
    matching_a = [(values[2 * t], values[2 * t + 1]) for t in range(k)]
    shuffled = data.draw(st.permutations(values))
    matching_b = [(shuffled[2 * t], shuffled[2 * t + 1]) for t in range(k)]
    expected = sum(values) - k * core.complement_base(n)
    for matching in (matching_a, matching_b):
        assert sum(d_value(x, y, n) for x, y in matching) == expected


def test_frame_constant_is_the_gap_between_magic_constants():
    for n in range(3, 51):
        lhs = core.magic_constant(n + 2) - core.magic_constant(n) - n * (2 * n + 2)
        assert lhs == core.complement_base(n)


def test_check_inner_order_bounds():
    with pytest.raises(ValueError):
        core.check_inner_order(2)
    assert core.check_inner_order(3) == 3
