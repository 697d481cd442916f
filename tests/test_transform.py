import random

import pytest
from hypothesis import given, settings, strategies as st

from magicborders import (
    CanonicalBorder,
    apply_symmetry,
    build_border,
    complement,
    orbit,
    permute_lines,
    verify_border,
)
from magicborders.assemble import render_frame
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
    _COMPOSE,
    compose,
)

from goldens import ORDER8_PLAN, ORDER8_PERMUTED_FRAME_TEXT, frame_cells


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


def test_orbit_yields_eight_valid_plans():
    images = orbit(ORDER8_PLAN)
    assert len(images) == 8
    assert images[0] == ORDER8_PLAN
    for image in images:
        assert verify_border(image).valid
    keys = {CanonicalBorder.from_plan(image) for image in images}
    assert len(keys) == 8  # a generic plan has a full orbit


def test_orbit_corner_layout_matches_the_eight_frames():
    v, w = ORDER8_PLAN.v, ORDER8_PLAN.w
    vb, wb = complement(v, 8), complement(w, 8)
    corners = [(p.v, p.w) for p in orbit(ORDER8_PLAN)]
    assert corners == [
        (v, w), (w, v), (wb, vb), (vb, wb), (v, wb), (vb, w), (wb, v), (w, vb)
    ]


def test_plan_action_matches_grid_action_on_frames():
    frame = render_frame(ORDER8_PLAN).cells
    for symmetry in SYMMETRIES:
        via_plan = render_frame(apply_symmetry(ORDER8_PLAN, symmetry)).cells
        via_grid = tuple(tuple(row) for row in grid_image(frame, symmetry))
        assert via_plan == via_grid, symmetry


def test_composition_law_on_the_full_table():
    plan = build_border(6)
    for s1 in SYMMETRIES:
        for s2 in SYMMETRIES:
            chained = apply_symmetry(apply_symmetry(plan, s1), s2)
            direct = apply_symmetry(plan, compose(s1, s2))
            assert chained == direct, (s1, s2)


def test_composition_table_matches_the_grid_images():
    # the grid action on a marker with no symmetry of its own is the oracle
    marker = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    images = {s: grid_image(marker, s) for s in SYMMETRIES}
    expected = {}
    for s1 in SYMMETRIES:
        for s2 in SYMMETRIES:
            combined = grid_image(images[s1], s2)
            matches = [s for s, image in images.items() if image == combined]
            assert len(matches) == 1
            expected[(s1, s2)] = matches[0]
    assert _COMPOSE == expected


def test_the_eight_symmetries_form_a_group():
    # closure and inverses through the composition table
    for s1 in SYMMETRIES:
        assert compose(s1, IDENTITY) == s1 == compose(IDENTITY, s1)
        assert any(compose(s1, s2) == IDENTITY for s2 in SYMMETRIES)


def test_unknown_symmetry_is_rejected():
    with pytest.raises(ValueError):
        apply_symmetry(ORDER8_PLAN, "swirl")
    with pytest.raises(ValueError):
        compose("swirl", IDENTITY)


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
        distinct = len({CanonicalBorder.from_plan(image) for image in images})
        assert 8 % distinct == 0
