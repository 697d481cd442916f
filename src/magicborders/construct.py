"""Deterministic recipes that build a magic border for every inner order n >= 3.

Each recipe picks one value per diagram row and records a pairing whose
deviation sums certify the balance conditions checked by
:func:`magicborders.verify.verify_balance`.  The same n always yields the
same border.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import LEFT, RIGHT, border_pool, check_inner_order, complement_base
from .verify import BorderPlan, verify_border

CASE_EVEN_4K = "even_4k"
CASE_EVEN_4K_PLUS_2 = "even_4k_plus_2"
CASE_ODD_GENERAL = "odd_general"
CASE_N3_SPECIAL = "n3_special"


def recipe_case(n: int) -> str:
    """Which recipe serves inner order n (n=4 runs the 4k recipe's fixed part)."""
    check_inner_order(n)
    if n == 3:
        return CASE_N3_SPECIAL
    if n % 4 == 0:
        return CASE_EVEN_4K
    if n % 2 == 0:
        return CASE_EVEN_4K_PLUS_2
    return CASE_ODD_GENERAL


def _row_value(row: int, side: str, c_base: int) -> int:
    """The value diagram row ``row`` offers on ``side``."""
    return row if side == LEFT else c_base - row


@dataclass(frozen=True)
class PairingScheme:
    """A full set of diagram choices plus the pairing that certifies them.

    ``sides[i-1]`` and ``tags[i-1]`` give the side ("L"/"R") and role
    ("v", "w", "b", "c") selected at row i.  ``pairs`` holds (x, y, side)
    triples where side "b" means the pair belongs to the top-row balance
    sum and "c" to the column balance sum.
    """

    n: int
    sides: tuple[str, ...]
    tags: tuple[str, ...]
    pairs: tuple[tuple[int, int, str], ...]

    def selected_value(self, row: int) -> int:
        return _row_value(row, self.sides[row - 1], complement_base(self.n))

    def selections(self) -> list[tuple[int, str, str, int]]:
        """(row, side, tag, value) for every diagram row."""
        c_base = complement_base(self.n)
        return [
            (row, side, tag, _row_value(row, side, c_base))
            for row, (side, tag) in enumerate(zip(self.sides, self.tags), start=1)
        ]

    def plan(self) -> BorderPlan:
        """Extract the border plan, b and c listed in diagram-row order."""
        v = w = None
        b: list[int] = []
        c: list[int] = []
        for _row, _side, tag, value in self.selections():
            if tag == "v":
                v = value
            elif tag == "w":
                w = value
            elif tag == "b":
                b.append(value)
            else:
                c.append(value)
        if v is None or w is None:
            raise ValueError("scheme does not tag both corners")
        return BorderPlan(n=self.n, v=v, w=w, b=tuple(b), c=tuple(c))

    def validate(self) -> None:
        """Structural sanity: row coverage and tag counts."""
        n = self.n
        if len(self.sides) != 2 * n + 2 or len(self.tags) != 2 * n + 2:
            raise ValueError("scheme must decide every diagram row exactly once")
        bad = [s for s in self.sides if s not in (LEFT, RIGHT)]
        if bad:
            raise ValueError(f"unknown sides {bad}")
        counts = {tag: self.tags.count(tag) for tag in ("v", "w", "b", "c")}
        if counts != {"v": 1, "w": 1, "b": n, "c": n}:
            raise ValueError(f"bad tag counts {counts}")
        c_base = complement_base(n)
        selected = [
            _row_value(row, side, c_base)
            for row, side in enumerate(self.sides, start=1)
        ]
        allowed = set(selected) | {c_base - selected[self.tags.index("w")]}
        for x, y, label in self.pairs:
            if label not in ("b", "c"):
                raise ValueError(f"unknown pair label {label!r}")
            if x not in allowed or y not in allowed:
                raise ValueError(f"pair ({x},{y}) uses unselected values")


class _SchemeBuilder:
    def __init__(self, n: int):
        self.n = n
        self.c_base = complement_base(n)
        self.sides: list[str | None] = [None] * (2 * n + 2)
        self.tags: list[str | None] = [None] * (2 * n + 2)
        self.pairs: list[tuple[int, int, str]] = []

    def take(self, row: int, side: str, tag: str) -> int:
        if self.sides[row - 1] is not None:
            raise ValueError(f"row {row} already decided")
        self.sides[row - 1] = side
        self.tags[row - 1] = tag
        return _row_value(row, side, self.c_base)

    def pair(self, x: int, y: int, label: str) -> None:
        self.pairs.append((x, y, label))

    def block(self, start_row: int, label: str) -> None:
        """Four consecutive rows matched into two pairs with deviations -1, +1."""
        a = start_row
        first = self.take(a, LEFT, label)
        second = self.take(a + 1, RIGHT, label)
        third = self.take(a + 2, RIGHT, label)
        fourth = self.take(a + 3, LEFT, label)
        self.pair(first, second, label)
        self.pair(fourth, third, label)

    def scheme(self) -> PairingScheme:
        if any(s is None for s in self.sides):
            missing = [i + 1 for i, s in enumerate(self.sides) if s is None]
            raise ValueError(f"rows {missing} left undecided")
        built = PairingScheme(
            n=self.n,
            sides=tuple(self.sides),  # type: ignore[arg-type]
            tags=tuple(self.tags),  # type: ignore[arg-type]
            pairs=tuple(self.pairs),
        )
        built.validate()
        return built


def _alternating_blocks(builder: _SchemeBuilder, first_row: int) -> None:
    """Fill the remaining rows with four-row blocks labeled b, c, b, c, ..."""
    last_row = 2 * builder.n + 2
    for index, a in enumerate(range(first_row, last_row, 4)):
        builder.block(a, "b" if index % 2 == 0 else "c")


def recipe_even_4k(k: int) -> PairingScheme:
    """Border choice for n = 4k: a fixed ten-row opening, then balanced blocks.

    The opening puts the corners at rows 2 and 5 of the right column and
    spends rows 1-10; every later four-row block nets zero deviation, so
    the opening's sums (0 on the top row, -3 on the column against the
    corner deviation +3) settle the whole border.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    n = 4 * k
    builder = _SchemeBuilder(n)
    b1 = builder.take(1, LEFT, "b")
    v = builder.take(2, RIGHT, "v")
    b2 = builder.take(3, LEFT, "b")
    b3 = builder.take(4, RIGHT, "b")
    w = builder.take(5, RIGHT, "w")
    c1 = builder.take(6, LEFT, "c")
    b4 = builder.take(7, LEFT, "b")
    c2 = builder.take(8, RIGHT, "c")
    c3 = builder.take(9, LEFT, "c")
    c4 = builder.take(10, RIGHT, "c")
    builder.pair(v, b1, "b")
    builder.pair(b2, b3, "b")
    builder.pair(b4, w, "b")
    builder.pair(c1, c2, "c")
    builder.pair(c3, c4, "c")
    _alternating_blocks(builder, 11)
    return builder.scheme()


def recipe_even_4k_plus_2(k: int) -> PairingScheme:
    """Border choice for n = 4k+2: a fixed fourteen-row opening, then blocks."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    n = 4 * k + 2
    builder = _SchemeBuilder(n)
    v = builder.take(1, LEFT, "v")
    b1 = builder.take(2, RIGHT, "b")
    b2 = builder.take(3, RIGHT, "b")
    w = builder.take(4, LEFT, "w")
    b3 = builder.take(5, LEFT, "b")
    b4 = builder.take(6, RIGHT, "b")
    b5 = builder.take(7, RIGHT, "b")
    b6 = builder.take(8, LEFT, "b")
    c2 = builder.take(9, RIGHT, "c")
    c1 = builder.take(10, LEFT, "c")
    c3 = builder.take(11, RIGHT, "c")
    c4 = builder.take(12, LEFT, "c")
    c5 = builder.take(13, RIGHT, "c")
    c6 = builder.take(14, LEFT, "c")
    builder.pair(v, b1, "b")
    builder.pair(w, b2, "b")
    builder.pair(b3, b4, "b")
    builder.pair(b6, b5, "b")
    builder.pair(c1, c2, "c")
    builder.pair(c4, c3, "c")
    builder.pair(c6, c5, "c")
    _alternating_blocks(builder, 15)
    return builder.scheme()


def recipe_odd(n: int) -> PairingScheme:
    """Border choice for odd n >= 5.

    The corner v = n+7 sits alone with deviation -(n^2+2n-9)/2; the other
    selections come in pairs of deviation n+4, n+5 or +2 that add up to
    exactly +(n^2+2n-9)/2 on each side.  Rows split into a head (1..n-3,
    all right), a seven-row middle around w = n+1, and a tail (n+5..2n+2,
    all left).
    """
    check_inner_order(n)
    if n % 2 == 0 or n < 5:
        raise ValueError(f"recipe_odd needs an odd inner order >= 5, got {n}")
    builder = _SchemeBuilder(n)

    top_b = builder.take(n + 5, LEFT, "b")
    top_c = builder.take(n + 6, LEFT, "c")
    head_b = builder.take(1, RIGHT, "b")
    head_c = builder.take(2, RIGHT, "c")
    builder.pair(top_b, head_b, "b")
    builder.pair(top_c, head_c, "c")

    builder.take(n + 7, LEFT, "v")
    for t in range(1, n - 4):
        label = "b" if t % 2 == 0 else "c"
        tail = builder.take(n + 7 + t, LEFT, label)
        head = builder.take(2 + t, RIGHT, label)
        builder.pair(tail, head, label)

    mid_c1 = builder.take(n - 2, RIGHT, "c")
    mid_b1 = builder.take(n - 1, RIGHT, "b")
    mid_c2 = builder.take(n, LEFT, "c")
    w = builder.take(n + 1, LEFT, "w")
    mid_b2 = builder.take(n + 2, RIGHT, "b")
    mid_c3 = builder.take(n + 3, LEFT, "c")
    mid_b3 = builder.take(n + 4, LEFT, "b")
    builder.pair(w, mid_b1, "b")
    builder.pair(mid_b3, mid_b2, "b")
    builder.pair(mid_c2, mid_c1, "c")
    builder.pair(mid_c3, complement_base(n) - w, "c")
    return builder.scheme()


def scheme_from_plan(plan: BorderPlan) -> PairingScheme:
    """Rebuild a pairing for an already-valid plan.

    The deviation sum over a fixed multiset does not depend on how it is
    matched, so pairing sorted neighbours is as good as any choice.
    """
    n = check_inner_order(plan.n)
    c_base = complement_base(n)
    sides: list[str] = [""] * (2 * n + 2)
    tags: list[str] = [""] * (2 * n + 2)
    for tag, values in (("v", [plan.v]), ("w", [plan.w]), ("b", plan.b), ("c", plan.c)):
        for x in values:
            row = x if x <= 2 * n + 2 else c_base - x
            if sides[row - 1]:
                raise ValueError(f"plan selects row {row} twice")
            sides[row - 1] = LEFT if x <= 2 * n + 2 else RIGHT
            tags[row - 1] = tag

    def adjacent_pairs(values: list[int], label: str) -> list[tuple[int, int, str]]:
        ordered = sorted(values)
        return [
            (ordered[i], ordered[i + 1], label) for i in range(0, len(ordered), 2)
        ]

    if n % 2 == 0:
        beta = list(plan.b) + [plan.v, plan.w]
        gamma = list(plan.c)
    else:
        beta = list(plan.b) + [plan.w]
        gamma = list(plan.c) + [c_base - plan.w]
    pairs = adjacent_pairs(beta, "b") + adjacent_pairs(gamma, "c")
    scheme = PairingScheme(n=n, sides=tuple(sides), tags=tuple(tags), pairs=tuple(pairs))
    scheme.validate()
    return scheme


@lru_cache(maxsize=1)
def recipe_n3() -> PairingScheme:
    """Order 3 falls outside the general odd recipe; search the 8-row pool once."""
    from .enumeration import OmegaKey, enumerate_omega

    pool = sorted(border_pool(3))
    for v in pool:
        for w in pool:
            if w == v or v + w == complement_base(3):
                continue
            for found in enumerate_omega(OmegaKey(3, v, w)):
                return scheme_from_plan(found.to_plan())
    raise RuntimeError("no order-3 magic border exists; this should be unreachable")


def build_pairing(n: int) -> PairingScheme:
    """Dispatch to the recipe serving inner order n."""
    case = recipe_case(n)
    if case == CASE_N3_SPECIAL:
        return recipe_n3()
    if case == CASE_EVEN_4K:
        return recipe_even_4k(n // 4)
    if case == CASE_EVEN_4K_PLUS_2:
        return recipe_even_4k_plus_2((n - 2) // 4)
    return recipe_odd(n)


def build_border(n: int) -> BorderPlan:
    """A verified magic border for inner order n; deterministic in n."""
    plan = build_pairing(n).plan()
    report = verify_border(plan)
    if not report.valid:
        raise RuntimeError(
            f"recipe produced an invalid border for n={n}: "
            + "; ".join(str(v) for v in report.violations)
        )
    return plan
