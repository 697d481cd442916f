"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
pass; tolerances here are exact (everything is integer arithmetic).
"""

import functools
import random

from magicborders import (
    CanonicalBorder,
    OmegaKey,
    apply_symmetry,
    build_border,
    build_square,
    complement,
    construct_with_corners,
    count_omega,
    enumerate_omega,
    permute_lines,
    verify_border,
    verify_bordered,
)
from magicborders.cli import main
from magicborders.tables import audit_order4, audit_order_m
from magicborders.transform import SYMMETRIES, orbit

from goldens import (
    ORDER7_PLAN,
    ORDER8_PLAN,
    ORDER10_PLAN,
    balance_sums,
    d_corner,
    d_value,
    order4_seed,
    reference_extend_border,
    reference_missing_pairs,
)


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS")

        return wrapper

    return decorate


@criterion(1, "order-4 seed table reproduction")
def test_c1_every_order4_seed_entry_verifies():
    audits = audit_order4()
    assert len(audits) == 25
    for audit in audits:
        assert audit.status == "valid", (audit.row_id, audit.raw_report.violations)
        plan = audit.plan
        assert plan.v + sum(plan.b) + plan.w == 111
        assert plan.v + sum(plan.c) + (37 - plan.w) == 111


@criterion(2, "golden borders at inner orders 8, 10, 7")
def test_c2_recipes_reproduce_the_reference_borders():
    for golden in (ORDER8_PLAN, ORDER10_PLAN, ORDER7_PLAN):
        built = build_border(golden.n)
        assert CanonicalBorder(*built) == CanonicalBorder(*golden)


@criterion(3, "corner parity biconditional at inner order 4")
def test_c3_exhaustive_counts_match_the_parity_rule():
    counts = count_omega(4)
    assert len(counts) == 90  # all distinct small pairs; none are complementary
    for (v, w), count in counts.items():
        assert (count > 0) == (v % 2 != w % 2), ((v, w), count)


@criterion(4, "recipe validity and balance sums for n = 3..50")
def test_c4_every_order_builds_a_balanced_border():
    for n in range(3, 51):
        plan = build_border(n)
        assert verify_border(plan).valid, n
        beta, gamma = balance_sums(plan)
        if n % 2 == 0:
            w_bar = complement(plan.w, n)
            assert beta == 0, n
            assert gamma == -d_value(plan.v, w_bar, n), n
        else:
            # the closed form rests on picking n+7 as a corner, which only
            # lies in the pool for n >= 5; order 3 satisfies the general
            # corner-deviation identity instead
            assert beta == gamma == -d_corner(plan.v, n), n
            if n >= 5:
                assert beta == (n * n + 2 * n - 9) // 2, n


@criterion(5, "bordered squares for N = 3..24")
def test_c5_every_square_is_fully_bordered():
    for order in range(3, 25):
        square = build_square(order)
        report = verify_bordered(square)
        assert report.valid, (order, report.violations[:3])
        flat = sorted(x for row in square for x in row)
        assert flat == list(range(1, order * order + 1)), order


@criterion(6, "corner-prescribed construction at even orders")
def test_c6_all_feasible_corners_construct():
    for n in (4, 6, 8, 12, 16):
        small = 2 * n + 2
        for v in range(1, small + 1):
            for w in range(1, small + 1):
                if v == w or (v + w) % 2 == 0:
                    continue
                plan = construct_with_corners(n, v, w)
                assert (plan.v, plan.w) == (v, w)
                assert verify_border(plan).valid, (n, v, w)

    # at order 8 the seed-extension path reaches exactly the pairs outside
    # the 20-gap list; the gaps come from the parameterized table
    gaps = set(reference_missing_pairs(8))
    assert len(gaps) == 20
    audits = {(audit.v, audit.w): audit for audit in audit_order_m(8)}
    for v in range(1, 19):
        for w in range(v + 1, 19):
            if (v + w) % 2 == 0:
                continue
            shifts = [
                j
                for j in (0, 2, 4, 6, 8)
                if max(0, w - 10) <= j <= min(8, v - 1)
            ]
            if (v, w) in gaps:
                assert not shifts, (v, w)
                audit = audits[(v, w)]
                assert audit.status in ("valid", "repaired", "rebuilt")
                assert verify_border(audit.plan).valid
            else:
                assert shifts, (v, w)
                j = shifts[0]
                grown = reference_extend_border(construct_with_corners(4, v - j, w - j), j)
                assert (grown.v, grown.w) == (v, w)
                assert verify_border(grown).valid


@criterion(7, "seed-table audit via the command line")
def test_c7_tables_check_classifies_and_repairs(capsys):
    code = main(["tables", "--check", "--m", "8", "--m", "12"])
    out = capsys.readouterr().out
    assert code == 0
    assert "order-4 summary: 25 valid, 0 invalid" in out
    assert "1&2m+2 (v=1, w=18): repaired" in out
    assert "expected 505, got 504" in out
    for m in (8, 12):
        assert f"parameterized table at m={m}: 20 entries" in out
        for audit in audit_order_m(m):
            assert verify_border(audit.plan).valid


@criterion(8, "symmetry and permutation closure on random plans")
def test_c8_random_plans_survive_the_group_actions():
    rng = random.Random(20260810)
    plans = []
    while len(plans) < 100:
        n = rng.randrange(4, 13)
        if n % 2 == 0 and rng.random() < 0.5:
            small = 2 * n + 2
            v = rng.randrange(1, small + 1)
            candidates = [
                w for w in range(1, small + 1) if w != v and (v + w) % 2 == 1
            ]
            plan = construct_with_corners(n, v, rng.choice(candidates))
        else:
            plan = build_border(n)
        perm_b = rng.sample(range(n), n)
        perm_c = rng.sample(range(n), n)
        plans.append(permute_lines(plan, perm_b, perm_c))

    for plan in plans:
        n = plan.n
        for symmetry in SYMMETRIES:
            assert verify_border(apply_symmetry(plan, symmetry)).valid
        for _ in range(10):
            shuffled = permute_lines(
                plan, rng.sample(range(n), n), rng.sample(range(n), n)
            )
            assert verify_border(shuffled).valid

    sample = plans[0]
    images = orbit(sample)
    for s1 in SYMMETRIES:
        for s2 in SYMMETRIES:
            chained = apply_symmetry(apply_symmetry(sample, s1), s2)
            assert chained in images


@criterion(9, "constructions and enumeration agree at inner order 4")
def test_c9_bidirectional_oracle_consistency():
    listings = {}
    for v in range(1, 11):
        for w in range(1, 11):
            if v == w:
                continue
            listings[(v, w)] = list(enumerate_omega(OmegaKey(4, v, w)))

    # every enumerated border verifies
    for borders in listings.values():
        for border in borders:
            assert verify_border(border.to_plan()).valid

    # every constructed border is found by the enumeration; the plain
    # recipe at order 4 picks large corners, so enumerate its key on demand
    built = [build_border(4)]
    built += [order4_seed(v, w) for v in (1, 3, 5, 7, 9) for w in (2, 4, 6, 8, 10)]
    for v in range(1, 11):
        for w in range(1, 11):
            if v != w and (v + w) % 2 == 1:
                built.append(construct_with_corners(4, v, w))
    for plan in built:
        key = (plan.v, plan.w)
        if key not in listings:
            listings[key] = list(enumerate_omega(OmegaKey(4, *key)))
        assert CanonicalBorder(*plan) in set(listings[key]), key
