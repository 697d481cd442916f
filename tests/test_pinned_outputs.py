"""Construction outputs and verifier reports pinned to SHA-256 digests.

A change to any digest is a change to the borders or squares the program
builds, or to what the verifiers say of them, which a refactor of the
recipes, of corner construction, of square assembly or of the verifiers
must not make.
"""

import hashlib

from magicborders import (
    build_border,
    build_square,
    complement_base,
    construct_with_corners,
    verify_bordered,
    verify_square,
)
import magicborders
from magicborders import assemble, cli, construct, corners, verify
from magicborders.cli import main
from magicborders.documents import FORMATS, serialize_grid, serialize_plan
from magicborders.verify import BorderPlan

from goldens import reference_missing_pairs

BUILD_DIGEST = "508edffe3f18e73009da1b90d2e135b1a9ca8a8fefd7dde05fcf056c66aa1644"
CORNERS_DIGEST = "961d00d7446a8e6a54b8906b1a2fced47e6edbdb9abc126a005de017428d100b"
# the same sweep with b and c sorted: the borders as sets, whatever order
# a construction lists them in
CORNERS_SET_DIGEST = "f6b7fe93e0e732cb972a150779c0b88fa3fe8afc5b4e71286c454be7d4914636"
SQUARE_DIGEST = "f07db268819075e96cdda71c028f65b7ff92c8a26c5fdac01607948006044b5a"
# every gap pair at n = 16..102: block chains up to 24 long, beyond the sweep
CORNER_GAPS_DIGEST = "de9fd69dcd01c01f4df5c2b2c242c1ad8c41795521579fc91fffb317a62a8f5d"
# stdout of `tables --check --m 8 --m 12 --m 40`
TABLES_CHECK_DIGEST = "d6a785507f9f9016cf5669f2781d9532b6696e24de606dd66ec7cdad4b0360dd"
# the paper's order-4 table, each line in the paper's order
ORDER4_DIGEST = "7095472d05ec00dfee89322408af2af5c2d7fde9d24495747c8ed501763e9772"
# the reprs of both square verifiers' reports on squares with two cells swapped
TAMPER_DIGEST = "62283b9739b18524c6e81935faf3043c2e8a43ce2f0c09dbe3e539f5f9126cdd"


def test_build_border_matches_its_pinned_digest():
    text = "".join(serialize_plan(build_border(n)) for n in range(3, 301))
    assert hashlib.sha256(text.encode()).hexdigest() == BUILD_DIGEST


def test_build_square_matches_its_pinned_digest_in_every_format():
    text = "".join(
        serialize_grid(build_square(order), fmt) for order in range(3, 61) for fmt in FORMATS
    )
    assert hashlib.sha256(text.encode()).hexdigest() == SQUARE_DIGEST


def test_build_square_checks_no_ring_and_build_border_checks_once(monkeypatch):
    # the recipes are proved for every order, so build_square writes each
    # ring from its recipe unchecked; build_border keeps its one check
    checks, recipes = [], []
    verify_border, recipe = verify.verify_border, assemble._recipe

    def counted_check(plan):
        checks.append(plan.n)
        return verify_border(plan)

    def counted_recipe(n):
        recipes.append(n)
        return recipe(n)

    for module in (magicborders, assemble, cli, construct, corners, verify):
        monkeypatch.setattr(module, "verify_border", counted_check)
    monkeypatch.setattr(assemble, "_recipe", counted_recipe)
    for order in range(3, 41):
        build_square(order)
        core = 3 if order % 2 else 4
        assert checks == []
        assert recipes == list(range(core, order - 1, 2))  # one per ring, innermost first
        recipes.clear()
    for n in range(3, 41):
        build_border(n)
        assert checks == [n]
        checks.clear()


def feasible_pool_pairs(n):
    """Every ordered pool pair at even n that has a border, in pool order."""
    c_base = complement_base(n)
    small = 2 * n + 2
    pool = [*range(1, small + 1), *range(c_base - small, c_base)]

    def reduced(x):
        return c_base - x if x > small else x

    for v in pool:
        for w in pool:
            if v != w and v + w != c_base and (reduced(v) + reduced(w)) % 2:
                yield v, w


def corner_sweep():
    for n in range(4, 15, 2):
        for v, w in feasible_pool_pairs(n):
            yield construct_with_corners(n, v, w)


def test_corner_construction_matches_its_pinned_digest_and_verifies_once(monkeypatch):
    checks, diagrams = [], []
    verify_border, diagram = corners.verify_border, corners._diagram

    def counted_check(plan):
        checks.append(plan.n)
        return verify_border(plan)

    def counted_diagram(n, picks):
        diagrams.append(n)
        return diagram(n, picks)

    monkeypatch.setattr(corners, "verify_border", counted_check)
    monkeypatch.setattr(corners, "_diagram", counted_diagram)
    digest = hashlib.sha256()
    calls = 0
    for plan in corner_sweep():
        digest.update(serialize_plan(plan).encode())
        calls += 1
    assert digest.hexdigest() == CORNERS_DIGEST
    assert calls == 5360
    assert len(checks) == len(diagrams) == calls


def test_corner_construction_matches_its_pinned_set_digest():
    digest = hashlib.sha256()
    for plan in corner_sweep():
        by_set = BorderPlan(plan.n, plan.v, plan.w, tuple(sorted(plan.b)), tuple(sorted(plan.c)))
        digest.update(serialize_plan(by_set).encode())
    assert digest.hexdigest() == CORNERS_SET_DIGEST


def test_gap_pair_chains_match_their_pinned_digest():
    digest, builds = hashlib.sha256(), 0
    for n in range(16, 103, 2):
        for v, w in reference_missing_pairs(n):
            digest.update(serialize_plan(construct_with_corners(n, v, w)).encode())
            builds += 1
    assert builds == 880
    assert digest.hexdigest() == CORNER_GAPS_DIGEST


def test_tables_check_matches_its_pinned_digest(capsys):
    assert main(["tables", "--check", "--m", "8", "--m", "12", "--m", "40"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TABLES_CHECK_DIGEST


def test_order4_table_matches_its_pinned_digest():
    text = "".join(serialize_plan(plan) for _, plan in sorted(corners._ORDER4.items()))
    assert hashlib.sha256(text.encode()).hexdigest() == ORDER4_DIGEST


def test_reports_on_tampered_squares_match_their_pinned_digest():
    # every cell of each square at orders 3..24 swapped with one other cell
    digest = hashlib.sha256()
    for order in range(3, 25):
        size, base = order * order, build_square(order)
        for t in range(size):
            cells = [list(row) for row in base]
            (i1, j1), (i2, j2) = divmod(t, order), divmod((7 * t + 3) % size, order)
            cells[i1][j1], cells[i2][j2] = cells[i2][j2], cells[i1][j1]
            digest.update(repr(verify_bordered(cells)).encode())
            digest.update(repr(verify_square(cells)).encode())
    assert digest.hexdigest() == TAMPER_DIGEST
