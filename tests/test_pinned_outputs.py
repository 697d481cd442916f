"""Construction outputs pinned to SHA-256 digests of their documents.

A change to any digest is a change to the borders or squares the program
builds, which a refactor of the recipes, of corner construction or of
square assembly must not make.
"""

import hashlib

from magicborders import build_border, build_square, complement_base, construct_with_corners
from magicborders import corners
from magicborders.documents import FORMATS, serialize_grid, serialize_plan
from magicborders.verify import BorderPlan

BUILD_DIGEST = "508edffe3f18e73009da1b90d2e135b1a9ca8a8fefd7dde05fcf056c66aa1644"
CORNERS_DIGEST = "961d00d7446a8e6a54b8906b1a2fced47e6edbdb9abc126a005de017428d100b"
# the same sweep with b and c sorted: the borders as sets, whatever order
# a construction lists them in
CORNERS_SET_DIGEST = "f6b7fe93e0e732cb972a150779c0b88fa3fe8afc5b4e71286c454be7d4914636"
SQUARE_DIGEST = "f07db268819075e96cdda71c028f65b7ff92c8a26c5fdac01607948006044b5a"


def test_build_border_matches_its_pinned_digest():
    text = "".join(serialize_plan(build_border(n)) for n in range(3, 301))
    assert hashlib.sha256(text.encode()).hexdigest() == BUILD_DIGEST


def test_build_square_matches_its_pinned_digest_in_every_format():
    text = "".join(
        serialize_grid(build_square(order), fmt) for order in range(3, 61) for fmt in FORMATS
    )
    assert hashlib.sha256(text.encode()).hexdigest() == SQUARE_DIGEST


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
