import importlib.util
import itertools
from pathlib import Path
from types import SimpleNamespace

import pytest

from magicborders import (
    complement_base,
    magic_constant,
)
from magicborders import (
    BudgetExhausted,
    CanonicalBorder,
    OmegaKey,
    SearchBudget,
    count_borders,
    count_omega,
    enumerate_omega,
    enumerate_order,
    format_counts,
    seed_order4,
    verify_border,
)
from magicborders import enumeration
from magicborders.core import border_pool
from magicborders.enumeration import _BudgetState, _count, _solutions

from goldens import reference_count

FIXTURES = Path(__file__).parent / "fixtures"
REGEN_SCRIPT = Path(__file__).parent.parent / "scripts" / "regen_count_fixture.py"


def listing(n, v, w, budget=None):
    return list(enumerate_omega(OmegaKey(n, v, w), budget))


def test_same_parity_small_corners_yield_an_empty_complete_search():
    assert listing(4, 1, 3) == []


@pytest.mark.parametrize("n", [4, 6])
def test_same_parity_listings_end_at_once_and_agree_with_the_backtracker(n):
    small = 2 * n + 2
    for v in range(1, small + 1):
        for w in range(1, small + 1):
            if v == w or (v + w) % 2:
                continue
            # one node of budget: a listing that walked the tree would run out
            assert listing(n, v, w, SearchBudget(max_nodes=1)) == []
            assert list(_solutions(n, v, w, _BudgetState(None))) == [], (n, v, w)


@pytest.mark.parametrize("n", [4, 6])
def test_same_parity_counts_end_at_once_and_agree_with_the_counter(n):
    small = 2 * n + 2
    for v in range(1, small + 1):
        for w in range(1, small + 1):
            if v == w or (v + w) % 2:
                continue
            # one node of budget: a count that swept the layers would run out
            assert count_borders(OmegaKey(n, v, w), SearchBudget(max_nodes=1)) == 0
            assert _count(n, v, w, _BudgetState(None)) == 0, (n, v, w)


def test_listing_contains_the_seed_borders():
    found = {(x.b_set, x.c_set) for x in listing(4, 1, 2)}
    assert (tuple(sorted([34, 33, 32, 9])), tuple(sorted([6, 30, 29, 10]))) in found
    found = {(x.b_set, x.c_set) for x in listing(4, 9, 10)}
    assert (tuple(sorted([1, 32, 30, 29])), tuple(sorted([2, 34, 33, 6]))) in found


def test_every_emitted_border_passes_verification():
    for (v, w) in [(1, 2), (2, 5), (9, 10), (3, 8)]:
        for border in listing(4, v, w):
            assert verify_border(border.to_plan()).valid


def test_emission_is_deterministic():
    assert listing(4, 5, 8) == listing(4, 5, 8)


def test_counts_match_the_frozen_fixture():
    frozen = {}
    for line in (FIXTURES / "omega4_counts.txt").read_text().splitlines():
        v, w, count = (int(x) for x in line.split())
        frozen[(v, w)] = count
    counts = count_omega(4)
    assert counts == frozen
    assert format_counts(counts).splitlines()[0] == "1 2 2"


def test_counts_respect_the_corner_swap_symmetry():
    counts = count_omega(4)
    for (v, w), value in counts.items():
        assert counts[(w, v)] == value


def test_counts_respect_the_transpose_symmetry():
    # swapping a corner for its complement mirrors the border across the
    # main diagonal, so the counts agree
    a = len(listing(4, 1, 2))
    b = len(listing(4, 1, 35))  # 35 = complement of 2 at inner order 4
    assert a == b == 2


def test_count_omega_covers_every_distinct_small_pair():
    counts = count_omega(4)
    assert len(counts) == 10 * 9
    assert all((v % 2 != w % 2) == (k > 0) for (v, w), k in counts.items())


def test_first_listed_border_verifies():
    for key in (OmegaKey(6, 1, 2), OmegaKey(4, 5, 6)):
        border = next(enumerate_omega(key))
        assert verify_border(border.to_plan()).valid
        assert (border.v, border.w) == (key.v, key.w)


def test_an_odd_order_key_may_have_no_border():
    # (1, 2) has opposite parity yet no order-3 border exists: the even-order
    # parity rule does not transfer to odd orders
    key = OmegaKey(3, 1, 2)
    assert list(enumerate_omega(key)) == []
    assert count_borders(key) == 0


def test_odd_orders_allow_same_parity_corners():
    border = next(enumerate_omega(OmegaKey(3, 1, 3)))
    assert verify_border(border.to_plan()).valid


def test_budget_exhaustion_is_distinct_from_empty_completion():
    # an empty complete search returns normally...
    assert listing(4, 1, 3, SearchBudget(max_nodes=10**6)) == []
    # ...while a starved search raises
    with pytest.raises(BudgetExhausted):
        listing(4, 1, 2, SearchBudget(max_nodes=3))


def test_solution_limit_ends_the_stream_normally():
    # a reader that stops after two borders costs exactly the nodes up to
    # the second one: a budget of that many suffices for two, not for all
    state = _BudgetState(None)
    first_two = list(itertools.islice(_solutions(4, 2, 5, state), 2))
    budget = SearchBudget(max_nodes=state.nodes)
    assert list(itertools.islice(enumerate_omega(OmegaKey(4, 2, 5), budget), 2)) == first_two
    assert len(listing(4, 2, 5)) > 2
    with pytest.raises(BudgetExhausted):
        listing(4, 2, 5, budget)


@pytest.mark.parametrize("n", [3, 4])
def test_an_order_listing_chains_the_key_listings(n):
    small = 2 * n + 2
    per_key = [
        border
        for v in range(1, small + 1)
        for w in range(1, small + 1)
        if v != w
        for border in listing(n, v, w)
    ]
    assert list(enumerate_order(n)) == per_key


def test_an_order_listing_spends_one_budget_across_its_keys():
    # the most nodes any one key of n=4 needs, but far fewer than all keys need
    widest = 0
    small = 10
    for v, w in itertools.permutations(range(1, small + 1), 2):
        state = _BudgetState(None)
        list(_solutions(4, v, w, state))
        widest = max(widest, state.nodes)
    budget = SearchBudget(max_nodes=widest)
    for v, w in itertools.permutations(range(1, small + 1), 2):
        listing(4, v, w, budget)
    with pytest.raises(BudgetExhausted, match=f"node limit {widest} reached"):
        list(enumerate_order(4, budget))


def test_an_order_listing_checks_its_order():
    for n in (2, 0, -1):
        with pytest.raises(ValueError, match="inner order must be an integer >= 3"):
            next(enumerate_order(n))


def test_key_validation():
    with pytest.raises(ValueError):
        listing(4, 1, 1)
    with pytest.raises(ValueError, match=r"corners \(1, 36\) are complementary"):
        listing(4, 1, 36)  # complementary corners share a diagram row
    with pytest.raises(ValueError):
        listing(4, 1, 11)  # pool gap


@pytest.mark.parametrize(
    "limits", [{"max_nodes": 0}, {"max_seconds": -1.0}, {"max_seconds": float("nan")}]
)
def test_budget_rejects_limits_that_are_not_positive(limits):
    # a NaN time limit compares false with every elapsed time, so it would
    # never fire
    with pytest.raises(ValueError, match="must be positive"):
        SearchBudget(**limits)


def test_canonical_border_round_trip():
    border = next(enumerate_omega(OmegaKey(4, 1, 2)))
    again = CanonicalBorder.from_plan(border.to_plan())
    assert again == border


def brute_force_borders(n, v, w):
    # independent oracle: try every side assignment and every b/c split
    c = complement_base(n)
    target = magic_constant(n + 2)
    corner_rows = {v if v <= 2 * n + 2 else c - v, w if w <= 2 * n + 2 else c - w}
    rows = [r for r in range(1, 2 * n + 3) if r not in corner_rows]
    found = set()
    for sides in itertools.product((0, 1), repeat=len(rows)):
        values = [r if side == 0 else c - r for r, side in zip(rows, sides)]
        whole = sum(values)
        for picked in itertools.combinations(range(len(rows)), n):
            b_sum = sum(values[i] for i in picked)
            if v + b_sum + w != target:
                continue
            if v + (whole - b_sum) + (c - w) != target:
                continue
            chosen = set(picked)
            found.add(
                (
                    tuple(sorted(values[i] for i in picked)),
                    tuple(sorted(values[i] for i in range(len(rows)) if i not in chosen)),
                )
            )
    return found


@pytest.mark.parametrize(
    "n,v,w",
    [(3, 1, 3), (3, 2, 8), (4, 1, 2), (4, 2, 5), (4, 27, 2), (4, 36, 33)],
)
def test_engine_matches_an_independent_brute_force(n, v, w):
    expected = brute_force_borders(n, v, w)
    got = {(x.b_set, x.c_set) for x in listing(n, v, w)}
    assert got == expected


def test_constructions_appear_in_the_exhaustive_listing():
    plan = seed_order4(1, 2)
    assert CanonicalBorder.from_plan(plan) in set(listing(4, 1, 2))


def small_counts(border):
    n = border.n
    c = complement_base(n)
    top = (border.v, *border.b_set, border.w)
    left = (border.v, *border.c_set, c - border.w)
    return [sum(x <= 2 * n + 2 for x in line) for line in (top, left)]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_counter_matches_the_listing_and_lines_obey_the_small_count_lemma(n):
    # every line holds (n+2)/2 small values at even n, and (n+1)/2 or
    # (n+3)/2 at odd n; the listing is exhaustive at every key
    admissible = {(n + 2) // 2, (n + 3) // 2} if n % 2 else {(n + 2) // 2}
    small = 2 * n + 2
    total = 0
    for v in range(1, small + 1):
        for w in range(1, small + 1):
            if v == w:
                continue
            key = OmegaKey(n, v, w)
            borders = list(enumerate_omega(key))
            assert count_borders(key) == len(borders), key
            for border in borders:
                assert set(small_counts(border)) <= admissible, border
            total += len(borders)
    assert total == {3: 20, 4: 280, 5: 370, 6: 56980, 7: 7136}[n]


def test_count_fixtures_match_a_fresh_count(capsys):
    spec = importlib.util.spec_from_file_location("regen_count_fixture", REGEN_SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--check"]) == 0
    out = capsys.readouterr().out
    assert "omega4_counts.txt: matches (90 pairs, 280 borders)" in out
    assert "omega7_counts.txt: matches (240 pairs, 7136 borders)" in out


# (key, borders, counter states): the counter stores only live states,
# and each stored state costs one node
COUNTER_NODE_TOTALS = [
    (OmegaKey(6, 10, 11), 663, 1_557),
    (OmegaKey(7, 1, 3), 58, 550),
    (OmegaKey(5, 1, 2), 0, 50),
    (OmegaKey(12, 1, 2), 593_867_307, 193_186),
]


@pytest.mark.parametrize("key, borders, nodes", COUNTER_NODE_TOTALS)
def test_count_borders_spends_the_same_nodes(key, borders, nodes):
    state = _BudgetState(None)
    assert _count(*key, state) == borders
    assert state.nodes == nodes
    assert count_borders(key, SearchBudget(max_nodes=nodes)) == borders
    with pytest.raises(BudgetExhausted, match=f"node limit {nodes - 1} reached"):
        count_borders(key, SearchBudget(max_nodes=nodes - 1))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_counter_matches_the_reference_in_count_and_nodes(n):
    # every pool key, large corners included, up to n=5; the small keys at n=6
    c = complement_base(n)
    corners = range(1, 2 * n + 3) if n == 6 else sorted(border_pool(n))
    for v, w in itertools.permutations(corners, 2):
        if v + w == c:
            continue
        state = _BudgetState(None)
        assert (_count(n, v, w, state), state.nodes) == reference_count(n, v, w), (n, v, w)


def test_a_time_limit_reads_the_clock_inside_a_large_layer(monkeypatch):
    # (20; 1, 2) stores 7,047 states after seven rows and 16,628 after
    # eight: a clock read once per layer would leave gaps wider than a chunk
    state = _BudgetState(SearchBudget(max_nodes=100_000, max_seconds=3600.0))
    readings = []

    def monotonic():
        readings.append(state.nodes)
        return state.start

    monkeypatch.setattr(enumeration, "time", SimpleNamespace(monotonic=monotonic))
    with pytest.raises(BudgetExhausted, match="node limit 100000 reached"):
        _count(20, 1, 2, state)
    gaps = [after - before for before, after in zip([0, *readings], readings)]
    assert readings[-1] > 90_000
    assert max(gaps) == 4096


def test_count_borders_keeps_the_budget_rules():
    key = OmegaKey(5, 1, 2)
    with pytest.raises(BudgetExhausted):
        count_borders(key, SearchBudget(max_nodes=3))
    with pytest.raises(ValueError):
        count_borders(OmegaKey(4, 1, 36))
