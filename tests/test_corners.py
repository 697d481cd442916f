import itertools
import subprocess
import sys
from pathlib import Path

import pytest

from magicborders import (
    CanonicalBorder,
    InfeasibleCornersError,
    OmegaKey,
    construct_with_corners,
    enumerate_omega,
    seed_order4,
    verify_border,
)
from magicborders import corners, enumeration
from magicborders.construct import _diagram, _picks
from magicborders.core import border_pool, complement_base, forbidden_by_parity
from magicborders.corners import (
    _BLOCK,
    _COUNTS,
    _ORDER4,
    _ORDER_M,
    _REDUCTIONS,
    _extension_shift,
    _repair_single_substitution,
    audit_order4,
    audit_order_m,
    block_sets,
    eval_poly,
)
from magicborders.documents import parse_document
from magicborders.transform import SYMMETRIES

from goldens import reference_count, reference_extend_border, reference_missing_pairs

SRC = Path(__file__).resolve().parents[1] / "src"


def test_feasibility_is_opposite_parity():
    assert not forbidden_by_parity(4, 1, 2)
    assert forbidden_by_parity(4, 1, 3)
    assert not forbidden_by_parity(8, 2, 9)


@pytest.mark.parametrize("n", range(3, 13))
def test_construction_is_infeasible_exactly_where_the_parity_lemma_holds(n):
    # every pool pair check_corners accepts; at n <= 7 the reference
    # counter, which screens by neither lemma, finds no border at any
    # small key the lemma rules out
    c = complement_base(n)
    small = 2 * n + 2
    checked = 0
    for v, w in itertools.permutations(sorted(border_pool(n)), 2):
        if v + w == c:
            continue
        if forbidden_by_parity(n, v, w):
            with pytest.raises(InfeasibleCornersError):
                construct_with_corners(n, v, w)
            if n <= 7 and v <= small and w <= small:
                assert reference_count(n, v, w)[0] == 0, (n, v, w)
                checked += 1
        elif n % 2:
            with pytest.raises(ValueError, match="covers even inner orders only") as excinfo:
                construct_with_corners(n, v, w)
            assert not isinstance(excinfo.value, InfeasibleCornersError)
        else:
            plan = construct_with_corners(n, v, w)
            assert (plan.v, plan.w) == (v, w)
    # 2(n+1)^2 opposite-parity small keys at odd n, 2n(n+1) same-parity at even n
    assert checked == (2 * (n + 1) * (n + n % 2) if n <= 7 else 0)


def test_order4_seed_reference_rows():
    assert seed_order4(1, 2).b == (34, 33, 32, 9)
    assert seed_order4(1, 2).c == (6, 30, 29, 10)
    assert seed_order4(9, 10).b == (1, 32, 30, 29)
    assert seed_order4(9, 10).c == (2, 34, 33, 6)
    assert seed_order4(7, 8).b == (36, 5, 28, 27)
    assert seed_order4(7, 8).c == (2, 34, 33, 6)


def test_every_order4_seed_is_valid():
    audits = audit_order4()
    assert len(audits) == 25
    assert all(audit.status == "valid" for audit in audits)
    assert {(a.v, a.w) for a in audits} == {
        (v, w) for v in (1, 3, 5, 7, 9) for w in (2, 4, 6, 8, 10)
    }


def test_unknown_seed_pair_is_rejected():
    with pytest.raises(ValueError):
        seed_order4(2, 1)


def test_extension_reference_cases():
    grown = reference_extend_border(seed_order4(1, 2), 0)
    assert grown.n == 8 and (grown.v, grown.w) == (1, 2)
    assert verify_border(grown).valid

    shifted = reference_extend_border(seed_order4(1, 2), 2)
    assert (shifted.v, shifted.w) == (3, 4)
    assert verify_border(shifted).valid

    far = reference_extend_border(seed_order4(9, 10), 8)
    assert (far.v, far.w) == (17, 18)
    assert verify_border(far).valid


def test_extension_preserves_validity_for_every_seed_and_shift():
    for (v, w), plan in sorted(_ORDER4.items()):
        for shift in (0, 2, 4, 6, 8):
            grown = reference_extend_border(plan, shift)
            assert grown.n == 8
            assert (grown.v, grown.w) == (v + shift, w + shift)
            assert verify_border(grown).valid


def test_block_sets_sizes_and_membership():
    b, c = block_sets(8)
    assert b == () and c == ()
    b, c = block_sets(12)
    assert b == (19, 24, 174, 177)
    assert c == (21, 22, 179, 180)
    b16, c16 = block_sets(16)
    assert len(b16) == len(c16) == 8
    with pytest.raises(ValueError):
        block_sets(10)


def test_missing_pairs_at_order8_match_the_published_list():
    m = 8
    expected = {
        (1, 2 * m - 4), (1, 2 * m - 2), (1, 2 * m), (1, 2 * m + 2),
        (2, 2 * m - 5), (2, 2 * m - 3), (2, 2 * m - 1), (2, 2 * m + 1),
        (3, 2 * m - 2), (3, 2 * m), (3, 2 * m + 2),
        (4, 2 * m - 3), (4, 2 * m - 1), (4, 2 * m + 1),
        (5, 2 * m), (5, 2 * m + 2),
        (6, 2 * m - 1), (6, 2 * m + 1),
        (7, 2 * m + 2),
        (8, 2 * m + 1),
    }
    assert set(reference_missing_pairs(m)) == expected
    assert all(len(reference_missing_pairs(m)) == 20 for m in range(8, 41, 2))


def test_parameterized_rows_cover_exactly_the_missing_pairs():
    for m in (8, 12, 16):
        covered = {
            (row.v, eval_poly(row.w_expr, m)) for row in _ORDER_M
        }
        assert covered == set(reference_missing_pairs(m))


def _order8_audit(row_id):
    return next(audit for audit in audit_order_m(8) if audit.row_id == row_id)


def test_known_bad_parameterized_row_is_flagged_and_repaired():
    audit = _order8_audit("1&2m+2")
    assert (audit.v, audit.w) == (1, 18)
    assert audit.status == "repaired"
    row_sums = [
        x for x in audit.raw_report.violations if x.condition == "row-sum"
    ]
    assert row_sums and (row_sums[0].expected, row_sums[0].actual) == (505, 504)
    assert verify_border(audit.plan).valid
    assert (audit.plan.v, audit.plan.w) == (1, 18)


def test_malformed_term_row_is_flagged_and_repaired():
    audit = _order8_audit("6&2m-1")
    assert (audit.v, audit.w) == (6, 15)
    assert audit.status == "repaired"
    assert any(
        x.condition == "pool-membership" for x in audit.raw_report.violations
    )
    assert verify_border(audit.plan).valid


def test_parameterized_rows_classify_cleanly():
    assert _order8_audit("2&2m+1").status == "valid"
    assert _order8_audit("8&2m+1").status == "valid"


def test_every_parameterized_entry_serves_a_verified_plan():
    for m in (8, 12):
        for audit in audit_order_m(m):
            assert audit.status in ("valid", "repaired", "rebuilt")
            assert verify_border(audit.plan).valid
            assert (audit.plan.v, audit.plan.w) == (audit.v, audit.w)


def test_an_audit_verifies_each_entry_at_most_twice(monkeypatch):
    # a repair candidate that repeats a value of its plan, or complements
    # one that stays, is skipped unverified, so the calls do not grow with m
    calls = []

    def counting(plan):
        calls.append(plan)
        return verify_border(plan)

    monkeypatch.setattr(corners, "verify_border", counting)
    audits = audit_order_m(200)
    assert len(calls) <= 2 * len(audits)


def test_a_repair_gives_up_when_both_lines_miss_their_sums():
    seed = seed_order4(1, 2)
    off_b = seed._replace(b=(34, 33, 32, 8))
    assert _repair_single_substitution(off_b) == seed
    # one substitution changes one line's sum, so two missed sums stay unmended
    off_both = off_b._replace(c=(6, 30, 29, 7))
    assert _repair_single_substitution(off_both) is None


def test_construct_reference_cases():
    built = construct_with_corners(4, 1, 4)
    assert CanonicalBorder.from_plan(built) == CanonicalBorder.from_plan(seed_order4(1, 4))
    plan = construct_with_corners(8, 3, 4)
    assert (plan.v, plan.w) == (3, 4) and verify_border(plan).valid
    plan = construct_with_corners(6, 1, 2)
    assert (plan.v, plan.w) == (1, 2) and verify_border(plan).valid


def test_construct_handles_swapped_and_large_corners():
    swapped = construct_with_corners(4, 2, 1)
    assert (swapped.v, swapped.w) == (2, 1) and verify_border(swapped).valid

    large_w = construct_with_corners(4, 1, 27)  # 27 = complement of 10
    assert (large_w.v, large_w.w) == (1, 27) and verify_border(large_w).valid

    large_v = construct_with_corners(4, 34, 2)
    assert (large_v.v, large_v.w) == (34, 2) and verify_border(large_v).valid

    both_large = construct_with_corners(4, 33, 36)
    assert (both_large.v, both_large.w) == (33, 36)
    assert verify_border(both_large).valid


def test_construct_rejects_structurally_impossible_requests():
    with pytest.raises(InfeasibleCornersError):
        construct_with_corners(4, 1, 3)
    with pytest.raises(InfeasibleCornersError):
        construct_with_corners(10, 1, 3)
    with pytest.raises(InfeasibleCornersError):
        construct_with_corners(7, 1, 2)  # opposite parity at odd order
    with pytest.raises(ValueError):
        construct_with_corners(7, 1, 3)  # odd order unsupported
    with pytest.raises(ValueError):
        construct_with_corners(4, 1, 36)  # complementary corners
    with pytest.raises(ValueError):
        construct_with_corners(4, 1, 1)


def test_construct_succeeds_for_every_feasible_pair_at_every_even_order_up_to_16():
    for n in (4, 6, 8, 10, 12, 14, 16):
        small = 2 * n + 2
        for v in range(1, small + 1):
            for w in range(1, small + 1):
                if v == w or (v + w) % 2 == 0:
                    continue
                plan = construct_with_corners(n, v, w)
                assert (plan.v, plan.w) == (v, w)
                assert verify_border(plan).valid


def test_constructed_order4_plans_appear_in_the_exhaustive_listing():
    for v in range(1, 11):
        for w in range(1, 11):
            if v == w or (v + w) % 2 == 0:
                continue
            plan = construct_with_corners(4, v, w)
            everything = set(enumerate_omega(OmegaKey(4, v, w)))
            assert CanonicalBorder.from_plan(plan) in everything


def test_every_order6_literal_is_the_first_border_the_search_finds():
    table = corners._ORDER6
    assert set(table) == {
        (v, w) for v in range(1, 15) for w in range(v + 1, 15) if (v + w) % 2
    }
    for (v, w), picks in table.items():
        rows = [picks[i : i + 2] for i in range(0, len(picks), 2)]
        assert len(rows) == 14 and rows[v - 1] == "Lv" and rows[w - 1] == "Lw", (v, w)
        first = next(enumerate_omega(OmegaKey(6, v, w)))
        assert CanonicalBorder.from_plan(_diagram(6, picks)) == first, (v, w)
        assert CanonicalBorder.from_plan(construct_with_corners(6, v, w)) == first, (v, w)


def _ascending_pairs(n):
    small = 2 * n + 2
    return [(v, w) for v in range(1, small + 1) for w in range(v + 1, small + 1) if (v + w) % 2]


def test_small_corner_builds_list_their_lines_in_diagram_row_order():
    for n in range(4, 17, 2):
        for v, w in _ascending_pairs(n):
            plan = construct_with_corners(n, v, w)
            assert _diagram(n, "".join(_picks(plan))) == plan, (n, v, w)


def _block_walk(seed, v, keys):
    """_small_corners' walk from row v: (row, counts) at the first key, None at Lw."""
    t, e = v, tuple(map(sum, zip(*(_COUNTS[pick] for pick in seed[v:]))))
    while e not in keys:
        if seed[t] == "Lw":
            return None
        e = (e[0] - _COUNTS[seed[t]][0], e[1] - _COUNTS[seed[t]][1])
        t += 1
    return t, e


def test_blocks_hand_out_the_eight_rows_and_cancel_each_shift():
    # the walk reads the seed alone, so the 74 seeds at orders 4 and 6 are
    # every walk there is: each stops at a held block or meets w, where the
    # other three count pairs in {-1, 0, 1}^2 would move no stop
    nine = {(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)}
    stops = set()
    for n in (4, 6):
        for v, w in _ascending_pairs(n):
            seed = _picks(construct_with_corners(n, v, w))
            stop = _block_walk(seed, v, _BLOCK)
            assert stop == _block_walk(seed, v, nine), (n, v, w)
            if stop is not None:
                stops.add(stop[1])
    assert stops == set(_BLOCK)
    for (e_top, e_left), block in _BLOCK.items():
        picks = [block[i : i + 2] for i in range(0, len(block), 2)]
        assert sorted(picks) == sorted(["Lb", "Rb", "Lc", "Rc"] * 2)
        for line, e in (("b", e_top), ("c", e_left)):
            signed = [a if side == "L" else -a for a, (side, x) in enumerate(picks) if x == line]
            assert sum(signed) == -8 * e, block


def test_reductions_hold_each_of_the_eight_symmetries_once():
    assert set(_REDUCTIONS) == {
        (a, b, c) for a in (False, True) for b in (False, True) for c in (False, True)
    }
    assert sorted(_REDUCTIONS.values()) == sorted(SYMMETRIES)


def test_extension_builds_extend_the_build_four_orders_down():
    for n in range(8, 31, 2):
        for v, w in _ascending_pairs(n):
            j = _extension_shift(n, v, w)
            if j is None:
                continue
            assert construct_with_corners(n, v, w) == reference_extend_border(
                construct_with_corners(n - 4, v - j, w - j), j
            ), (n, v, w)


def test_gap_builds_splice_one_block_into_the_build_four_orders_down():
    blocks = [[block[i : i + 2] for i in range(0, 16, 2)] for block in _BLOCK.values()]
    for n in range(8, 31, 2):
        for v, w in reference_missing_pairs(n):
            grown = _picks(construct_with_corners(n, v, w))
            base = _picks(construct_with_corners(n - 4, v, w - 8))
            assert any(
                grown == base[: t - 1] + block + base[t - 1 :]
                for t in range(v + 1, w - 8 + 1)
                for block in blocks
            ), (n, v, w)


def _four_images(n, v, w):
    c_base = complement_base(n)
    return ((v, w), (c_base - v, w), (v, c_base - w), (c_base - v, c_base - w))


def test_no_corner_construction_runs_a_search(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("corner construction must not search")

    for name in ("enumerate_omega", "count_borders", "_solutions", "_count"):
        monkeypatch.setattr(enumeration, name, forbidden)
    assert enumeration not in vars(corners).values()
    assert not any(
        getattr(x, "__module__", None) == enumeration.__name__ for x in vars(corners).values()
    )

    requests = []
    for n in range(4, 31, 2):
        small = 2 * n + 2
        requests += [
            (n, v, w)
            for v in range(1, small + 1)
            for w in range(v + 1, small + 1)
            if (v + w) % 2
        ]
    # gap pairs and ordinary pairs far beyond the old search's reach
    for n in (62, 102, 402):
        small = 2 * n + 2
        requests += [(n, 1, small), (n, 2, small - 1), (n, 8, small - 1), (n, 2, 3)]
        requests += [(n, v, small - 7 + v % 2) for v in range(1, 9)]
    for n, v, w in requests:
        for i, (x, y) in enumerate(_four_images(n, v, w)):
            if (i + v + w) % 4 < 2:
                x, y = y, x
            plan = construct_with_corners(n, x, y)
            assert (plan.v, plan.w) == (x, y)


def test_gap_pairs_chain_down_to_gap_pairs():
    for m in range(12, 41, 2):
        for v, w in reference_missing_pairs(m):
            assert (v, w - 8) in reference_missing_pairs(m - 4), (m, v, w)


def test_long_corner_chains_do_not_recurse():
    for order, v, w in ((4000, 1, 2), (40000, 1, 2), (40002, 1, 80006)):
        script = (
            "import sys\n"
            "from magicborders.cli import main\n"
            "sys.setrecursionlimit(60)\n"
            f"sys.exit(main(['build', '--order', '{order}', '--border-only', "
            f"'--corners', '{v},{w}', '--format', 'json']))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={"PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        plan = parse_document(result.stdout)
        assert (plan.n, plan.v, plan.w) == (order, v, w)
        assert verify_border(plan).valid
