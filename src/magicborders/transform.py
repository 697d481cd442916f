"""The eight square symmetries and the line permutations, acting on plans.

Symmetries act on the (v, w, b, c) data directly, as words in two
generators applied left to right: r, ``reflect_vertical``, swaps the
corners, reverses b and complements c; t, ``transpose``, swaps b and c
and complements w.  ``_WORDS`` gives each symmetry its word.  Rendering
the frame and transforming the grid gives the same result, which the
tests exploit.  Both operations preserve validity.
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

_WORDS = {
    IDENTITY: "",
    REFLECT_VERTICAL: "r",
    REFLECT_HORIZONTAL: "trt",
    ROTATE_180: "rtrt",
    TRANSPOSE: "t",
    ANTI_TRANSPOSE: "rtr",
    ROTATE_90: "tr",
    ROTATE_270: "rt",
}
SYMMETRIES = tuple(_WORDS)


def apply_symmetry(plan: BorderPlan, symmetry: str) -> BorderPlan:
    """The plan whose frame is the symmetry image of this plan's frame."""
    n = plan.n
    c_base = complement_base(n)
    if symmetry not in SYMMETRIES:
        raise ValueError(f"unknown symmetry {symmetry!r}")
    v, w, b, c = plan.v, plan.w, plan.b, plan.c
    for generator in _WORDS[symmetry]:
        if generator == "r":
            v, w, b, c = w, v, tuple(reversed(b)), tuple(c_base - x for x in c)
        else:
            w, b, c = c_base - w, c, b
    return BorderPlan(n=n, v=v, w=w, b=b, c=c)


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
