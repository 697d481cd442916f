import random

import pytest
from hypothesis import given, settings, strategies as st

from magicborders import (
    CanonicalBorder,
    apply_symmetry,
    build_border,
    complement,
    complement_base,
    construct_with_corners,
    orbit,
    permute_lines,
    verify_border,
)
from magicborders.assemble import render_frame
from magicborders.corners import _MIRROR, _ORDER4
from magicborders.enumeration import enumerate_order
from magicborders.transform import (
    ANTI_TRANSPOSE,
    IDENTITY,
    REFLECT_HORIZONTAL,
    REFLECT_VERTICAL,
    ROTATE_90,
    ROTATE_180,
    ROTATE_270,
    SYMMETRIES,
    TRANSPOSE,
)

from goldens import ORDER8_PLAN, ORDER8_PERMUTED_FRAME_TEXT, _picks, frame_cells, order4_seed


def grid_image(cells, symmetry):
    """Apply a symmetry to a square grid of anything (values or None)."""
    rows = [list(row) for row in cells]
    if symmetry == IDENTITY:
        out = rows
    elif symmetry == REFLECT_VERTICAL:
        out = [row[::-1] for row in rows]
    elif symmetry == REFLECT_HORIZONTAL:
        out = rows[::-1]
    elif symmetry == ROTATE_180:
        out = [row[::-1] for row in rows[::-1]]
    elif symmetry == TRANSPOSE:
        out = [list(col) for col in zip(*rows)]
    elif symmetry == ANTI_TRANSPOSE:
        out = [list(col) for col in zip(*[row[::-1] for row in rows[::-1]])]
    elif symmetry == ROTATE_90:
        out = [list(col) for col in zip(*rows[::-1])]
    elif symmetry == ROTATE_270:
        out = [list(col) for col in zip(*rows)][::-1]
    else:
        raise ValueError(f"unknown symmetry {symmetry!r}")
    return [tuple(row) for row in out]


def test_identity_leaves_the_plan_alone():
    assert apply_symmetry(ORDER8_PLAN, IDENTITY) == ORDER8_PLAN


def test_mirror_swaps_corners_reverses_b_and_complements_c():
    image = apply_symmetry(ORDER8_PLAN, REFLECT_VERTICAL)
    assert (image.v, image.w) == (96, 99)
    assert image.b == tuple(reversed(ORDER8_PLAN.b))
    assert image.c == tuple(complement(x, 8) for x in ORDER8_PLAN.c)
    assert verify_border(image).valid


# t on picks: b and c trade places on each side, and w moves to the other
# side of its row (it takes its complement)
_TRANSPOSED = {"Lb": "Lc", "Lc": "Lb", "Rb": "Rc", "Rc": "Rb", "Lw": "Rw", "Rw": "Lw"}


def test_mirror_relabels_the_picks_and_keeps_every_row():
    # the 670 borders at n = 3..5 have small corners; their orbits put the
    # corners on large rows too, so every pair of _MIRROR and _TRANSPOSED
    # is exercised.  The two generators relabel picks row by row, so every
    # symmetry does
    plans = [border.to_plan() for n in (3, 4, 5) for border in enumerate_order(n)]
    plans += [order4_seed(*key) for key in _ORDER4]
    assert len(plans) == 695
    relabelled = set()
    for plan in plans:
        for image in orbit(plan):
            picks = _picks(image)
            for symmetry, relabel in ((REFLECT_VERTICAL, _MIRROR), (TRANSPOSE, _TRANSPOSED)):
                assert _picks(apply_symmetry(image, symmetry)) == [
                    relabel.get(pick, pick) for pick in picks
                ], (symmetry, image)
            relabelled.update(picks)
    assert set(_MIRROR) | set(_TRANSPOSED) <= relabelled
    assert _MIRROR == {"Lc": "Rc", "Rc": "Lc", "Lv": "Lw", "Lw": "Lv", "Rv": "Rw", "Rw": "Rv"}


def test_orbit_yields_eight_valid_plans():
    images = orbit(ORDER8_PLAN)
    assert len(images) == 8
    assert images[0] == ORDER8_PLAN
    for image in images:
        assert verify_border(image).valid
    keys = {CanonicalBorder(*image) for image in images}
    assert len(keys) == 8  # a generic plan has a full orbit


def test_orbit_corner_layout_matches_the_eight_frames():
    v, w = ORDER8_PLAN.v, ORDER8_PLAN.w
    vb, wb = complement(v, 8), complement(w, 8)
    corners = [(p.v, p.w) for p in orbit(ORDER8_PLAN)]
    assert corners == [
        (v, w), (w, v), (wb, vb), (vb, wb), (v, wb), (vb, w), (wb, v), (w, vb)
    ]


def test_plan_action_matches_grid_action_on_frames():
    # grid_image knows nothing of the generator words, so it catches a
    # wrong word: every border at n = 3..5, and corner builds whose
    # corners sit on small and large rows, at even n = 4..16
    plans = [ORDER8_PLAN]
    plans += [border.to_plan() for n in (3, 4, 5) for border in enumerate_order(n)]
    for n in range(4, 17, 2):
        c_base = complement_base(n)
        for v, w in ((1, 2), (2, 1), (c_base - 2, c_base - 1)):
            plans.append(construct_with_corners(n, v, w))
    assert len(plans) == 692
    for plan in plans:
        frame = render_frame(plan).cells
        for symmetry in SYMMETRIES:
            via_plan = render_frame(apply_symmetry(plan, symmetry)).cells
            via_grid = tuple(tuple(row) for row in grid_image(frame, symmetry))
            assert via_plan == via_grid, (symmetry, plan)


def test_composition_law_on_the_full_table():
    # ORDER8_PLAN has a full orbit, so each chained pair is one image
    images = orbit(ORDER8_PLAN)
    for s1 in SYMMETRIES:
        for s2 in SYMMETRIES:
            chained = apply_symmetry(apply_symmetry(ORDER8_PLAN, s1), s2)
            assert images.count(chained) == 1, (s1, s2)


def test_the_eight_symmetries_form_a_group():
    # the grid action on a marker with no symmetry of its own is the
    # oracle: each chained pair of images is exactly one of the eight
    # images (closure), and each image has one that undoes it (inverses)
    marker = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    images = [grid_image(marker, s) for s in SYMMETRIES]
    assert images[0] == marker
    for image in images:
        chained = [grid_image(image, s) for s in SYMMETRIES]
        assert all(images.count(x) == 1 for x in chained)
        assert marker in chained


def test_unknown_symmetry_is_rejected():
    with pytest.raises(ValueError, match="unknown symmetry 'swirl'"):
        apply_symmetry(ORDER8_PLAN, "swirl")
    with pytest.raises(ValueError, match=r"unknown symmetry \['identity'\]"):
        apply_symmetry(ORDER8_PLAN, ["identity"])
    # the plan's order is checked first
    with pytest.raises(ValueError, match="inner order must be an integer >= 3, got 2"):
        apply_symmetry(ORDER8_PLAN._replace(n=2), "swirl")


def test_permute_lines_identity():
    n = ORDER8_PLAN.n
    same = permute_lines(ORDER8_PLAN, range(n), range(n))
    assert same == ORDER8_PLAN


def test_permute_lines_reproduces_the_reference_reordering():
    perm_b = (7, 6, 5, 4, 3, 2, 1, 0)
    perm_c = (1, 0, 3, 2, 5, 4, 7, 6)
    permuted = permute_lines(ORDER8_PLAN, perm_b, perm_c)
    assert verify_border(permuted).valid
    assert render_frame(permuted).cells == frame_cells(ORDER8_PERMUTED_FRAME_TEXT)


def test_permute_lines_rejects_non_permutations():
    with pytest.raises(ValueError):
        permute_lines(ORDER8_PLAN, [0] * 8, range(8))
    with pytest.raises(ValueError):
        permute_lines(ORDER8_PLAN, range(7), range(8))


def test_permute_lines_rejects_a_plan_with_short_lines():
    short = ORDER8_PLAN._replace(b=ORDER8_PLAN.b[:-1])
    with pytest.raises(ValueError, match="plan lines must have length n"):
        permute_lines(short, range(8), range(8))


@given(st.integers(min_value=3, max_value=12), st.data())
@settings(max_examples=30, deadline=None)
def test_validity_survives_random_permutations_and_symmetries(n, data):
    plan = build_border(n)
    perm_b = data.draw(st.permutations(range(n)))
    perm_c = data.draw(st.permutations(range(n)))
    symmetry = data.draw(st.sampled_from(SYMMETRIES))
    image = apply_symmetry(permute_lines(plan, perm_b, perm_c), symmetry)
    assert verify_border(image).valid


def test_orbit_size_divides_eight():
    rng = random.Random(11)
    for n in rng.sample(range(3, 14), 5):
        images = orbit(build_border(n))
        distinct = len({CanonicalBorder(*image) for image in images})
        assert 8 % distinct == 0
