"""The eight square symmetries and the line permutations, acting on plans.

Symmetries act on the (v, w, b, c) data directly; rendering the frame and
transforming the grid gives the same result, which the tests exploit.
Both operations preserve validity.
"""

from __future__ import annotations

from collections.abc import Sequence

from .core import complement_base
from .verify import BorderPlan

IDENTITY = "identity"
REFLECT_VERTICAL = "reflect_vertical"
REFLECT_HORIZONTAL = "reflect_horizontal"
ROTATE_180 = "rotate_180"
TRANSPOSE = "transpose"
ANTI_TRANSPOSE = "anti_transpose"
ROTATE_90 = "rotate_90"
ROTATE_270 = "rotate_270"

SYMMETRIES = (
    IDENTITY,
    REFLECT_VERTICAL,
    REFLECT_HORIZONTAL,
    ROTATE_180,
    TRANSPOSE,
    ANTI_TRANSPOSE,
    ROTATE_90,
    ROTATE_270,
)


def apply_symmetry(plan: BorderPlan, symmetry: str) -> BorderPlan:
    """The plan whose frame is the symmetry image of this plan's frame."""
    n = plan.n
    c_base = complement_base(n)

    def comp(values):
        return tuple(c_base - x for x in values)

    def rev(values):
        return tuple(reversed(values))

    v, w, b, c = plan.v, plan.w, plan.b, plan.c
    if symmetry == IDENTITY:
        data = (v, w, b, c)
    elif symmetry == REFLECT_VERTICAL:
        data = (w, v, rev(b), comp(c))
    elif symmetry == REFLECT_HORIZONTAL:
        data = (c_base - w, c_base - v, comp(b), rev(c))
    elif symmetry == ROTATE_180:
        data = (c_base - v, c_base - w, rev(comp(b)), rev(comp(c)))
    elif symmetry == TRANSPOSE:
        data = (v, c_base - w, c, b)
    elif symmetry == ANTI_TRANSPOSE:
        data = (c_base - v, w, rev(comp(c)), rev(comp(b)))
    elif symmetry == ROTATE_90:
        data = (c_base - w, v, rev(c), comp(b))
    elif symmetry == ROTATE_270:
        data = (w, c_base - v, comp(c), rev(b))
    else:
        raise ValueError(f"unknown symmetry {symmetry!r}")
    new_v, new_w, new_b, new_c = data
    return BorderPlan(n=n, v=new_v, w=new_w, b=new_b, c=new_c)


def orbit(plan: BorderPlan) -> tuple[BorderPlan, ...]:
    """All eight symmetry images, identity first."""
    return tuple(apply_symmetry(plan, s) for s in SYMMETRIES)


def _check_permutation(perm: Sequence[int], n: int, name: str) -> tuple[int, ...]:
    perm = tuple(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{name} must be a permutation of 0..{n - 1}, got {perm!r}")
    return perm


def permute_lines(
    plan: BorderPlan, perm_b: Sequence[int], perm_c: Sequence[int]
) -> BorderPlan:
    """Reorder the b and c lines; the complemented lines follow implicitly.

    ``perm_b[i]`` is the old position of the value placed at new position
    i (0-based), likewise ``perm_c``.
    """
    n = plan.n
    perm_b = _check_permutation(perm_b, n, "perm_b")
    perm_c = _check_permutation(perm_c, n, "perm_c")
    if len(plan.b) != n or len(plan.c) != n:
        raise ValueError("plan lines must have length n")
    new_b = tuple(plan.b[i] for i in perm_b)
    new_c = tuple(plan.c[i] for i in perm_c)
    return BorderPlan(n=n, v=plan.v, w=plan.w, b=new_b, c=new_c)
