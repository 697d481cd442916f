"""Seeded request generators and independent output oracles.

A request is a pipeline of ``magicborder`` command lines; each step reads
the previous step's standard output, optionally with two cells swapped
(``tamper``).  The oracles below re-derive every property they check from
the documents themselves and never call into the library, so a defect in
the program cannot hide a defect in its own output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

FORMATS = ("grid", "csv", "json")
COUNTS_FILE = Path(__file__).with_name("omega_counts.txt")
# exact set-level totals of all small-corner keys, a fact about the borders
COUNT_TOTALS = {5: 370, 6: 56980}


@dataclass(frozen=True)
class Request:
    steps: tuple[tuple[str, ...], ...]
    # (format, (i1, j1), (i2, j2)): cells swapped in the document between steps
    tamper: tuple[str, tuple[int, int], tuple[int, int]] | None = None
    # workload-specific facts the oracle checks the outcome against
    expect: tuple = ()


@dataclass(frozen=True)
class Outcome:
    codes: tuple[int, ...]
    stdouts: tuple[str, ...]
    seconds: float
    error: str | None = None

    def digest(self) -> str:
        payload = json.dumps([self.codes, self.stdouts, self.error])
        return hashlib.sha256(payload.encode()).hexdigest()


def fingerprint(requests) -> str:
    """Hash of the generated request list: equal lists, equal fingerprints."""
    payload = json.dumps(
        [[r.steps, r.tamper, r.expect] for r in requests], separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# --- documents -------------------------------------------------------------


def parse_grid(text: str, fmt: str) -> list[list[int]]:
    if fmt == "json":
        return json.loads(text)["cells"]
    if fmt == "csv":
        return [[int(x) for x in row] for row in csv.reader(io.StringIO(text)) if row]
    return [[int(x) for x in line.split()] for line in text.splitlines() if line.strip()]


def swap_cells(text: str, tamper) -> str:
    """The same document with two cells exchanged, in the same format."""
    fmt, (i1, j1), (i2, j2) = tamper
    if fmt == "json":
        payload = json.loads(text)
        cells = payload["cells"]
        cells[i1][j1], cells[i2][j2] = cells[i2][j2], cells[i1][j1]
        return json.dumps(payload) + "\n"
    rows = [line.split("," if fmt == "csv" else None) for line in text.splitlines()]
    rows[i1][j1], rows[i2][j2] = rows[i2][j2], rows[i1][j1]
    if fmt == "csv":
        return "".join(",".join(row) + "\n" for row in rows)
    width = max(len(x) for row in rows for x in row)
    return "".join(" ".join(x.rjust(width) for x in row) + "\n" for row in rows)


# --- independent checks ------------------------------------------------------


def bordered_square_problem(cells, order: int) -> str | None:
    """Why ``cells`` is not a bordered magic square of this order, or None.

    Every concentric subsquare (down to order 3 or 4) must be magic with
    line sum m(N^2+1)/2, and in every proper ring the facing cells (ends of
    a row or column, opposite corners) must sum to N^2+1.  Line sums come
    from prefix sums, so the check is linear in the number of cells.
    """
    if len(cells) != order or any(len(row) != order for row in cells):
        return f"not a {order}x{order} grid"
    if sorted(x for row in cells for x in row) != list(range(1, order * order + 1)):
        return f"cells are not a permutation of 1..{order * order}"
    pair_sum = order * order + 1

    def prefix(values):
        sums = [0]
        for x in values:
            sums.append(sums[-1] + x)
        return sums

    row_sums = [prefix(row) for row in cells]
    col_sums = [prefix(cells[i][j] for i in range(order)) for j in range(order)]
    diag = prefix(cells[t][t] for t in range(order))
    anti = prefix(cells[t][order - 1 - t] for t in range(order))
    base = 3 if order % 2 else 4
    for m in range(order, base - 1, -2):
        k = (order - m) // 2
        target = m * pair_sum // 2
        for t in range(k, k + m):
            if row_sums[t][k + m] - row_sums[t][k] != target:
                return f"order {m} subsquare row {t} does not sum to {target}"
            if col_sums[t][k + m] - col_sums[t][k] != target:
                return f"order {m} subsquare column {t} does not sum to {target}"
        if diag[k + m] - diag[k] != target or anti[k + m] - anti[k] != target:
            return f"order {m} subsquare diagonal does not sum to {target}"
        if m >= base + 2:
            lo, hi = k, k + m - 1
            facing = [((lo, lo), (hi, hi)), ((lo, hi), (hi, lo))]
            facing += [((lo, j), (hi, j)) for j in range(lo + 1, hi)]
            facing += [((i, lo), (i, hi)) for i in range(lo + 1, hi)]
            for (i1, j1), (i2, j2) in facing:
                if cells[i1][j1] + cells[i2][j2] != pair_sum:
                    return f"ring cells ({i1},{j1}) and ({i2},{j2}) do not face"
    return None


def border_plan_problem(line: str, n: int, v: int | None = None, w: int | None = None):
    """Why a one-line plan document is not a magic border of inner order n."""
    try:
        plan = json.loads(line)
        pn, pv, pw, b, c = (plan[k] for k in ("n", "v", "w", "b", "c"))
    except (ValueError, KeyError, TypeError):
        return f"unreadable plan {line[:60]!r}"
    if pn != n or (v is not None and (pv, pw) != (v, w)):
        return f"plan is for ({pn}; {pv},{pw}), wanted ({n}; {v},{w})"
    if len(b) != n or len(c) != n:
        return "plan lines have the wrong length"
    small = 2 * n + 2
    c_base = (n + 2) ** 2 + 1
    values = [pv, pw, *b, *c]
    if any(not (1 <= x <= small or c_base - small <= x < c_base) for x in values):
        return "plan value outside the border pool"
    chosen = set(values)
    if len(chosen) != len(values) or any(c_base - x in chosen for x in chosen):
        return "plan values repeat or include a complementary pair"
    target = (n + 2) * ((n + 2) ** 2 + 1) // 2
    if pv + sum(b) + pw != target or pv + sum(c) + (c_base - pw) != target:
        return "plan lines do not sum to the magic constant"
    return None


# --- workloads -----------------------------------------------------------------


class Squares:
    """``build --order N | verify --bordered -`` over a ladder of orders."""

    name = "squares"
    rungs = 35  # two of them round to order 6
    low, high = 5, 200
    tamper_share = 5  # one request in this many gets two cells swapped

    def generate(self, seed: int) -> list[Request]:
        # Every distinct order of the geometric ladder is built in every
        # format, and every fifth slot is tampered, so each seed asks for
        # the same work and a latency percentile never lands on a different
        # request.  The seed picks the swapped cells and the request order.
        # 34 orders give 102 requests, so at least ten lie beyond the 90th
        # percentile.
        rng = random.Random(f"{self.name}:{seed}")
        ratio = self.high / self.low
        orders = sorted(
            {round(self.low * ratio ** (k / (self.rungs - 1))) for k in range(self.rungs)}
        )
        slots = [(order, fmt) for order in orders for fmt in FORMATS]
        requests = []
        for index, (order, fmt) in enumerate(slots):
            tamper = None
            if index % self.tamper_share == self.tamper_share - 1:
                first, second = rng.sample(range(order * order), 2)
                tamper = (fmt, divmod(first, order), divmod(second, order))
            requests.append(
                Request(
                    steps=(
                        ("build", "--order", str(order), "--format", fmt),
                        ("verify", "--bordered", "-"),
                    ),
                    tamper=tamper,
                    expect=(order, fmt),
                )
            )
        rng.shuffle(requests)
        return requests

    def check(self, request: Request, outcome: Outcome) -> str | None:
        order, fmt = request.expect
        if outcome.codes[:1] != (0,):
            return f"build exited {outcome.codes[:1]}"
        problem = bordered_square_problem(parse_grid(outcome.stdouts[0], fmt), order)
        if problem:
            return problem
        verdict = outcome.stdouts[1] if len(outcome.stdouts) > 1 else ""
        if request.tamper is None:
            if outcome.codes[1:] != (0,) or verdict != "valid\n":
                return f"verify said {verdict[:40]!r} (exit {outcome.codes[1:]}) on a valid square"
        elif outcome.codes[1:] != (1,) or not verdict.startswith("invalid"):
            return f"verify said {verdict[:40]!r} (exit {outcome.codes[1:]}) on a tampered square"
        return None


class Corners:
    """``build --border-only --order n --corners V,W --format json`` at even n."""

    name = "corners"
    orders = tuple(range(8, 31, 2))
    pairs_per_order = 40
    infeasible_per_order = 6

    def generate(self, seed: int) -> list[Request]:
        # The reduced (small, ascending) pairs are a fixed systematic sample
        # of every feasible pair, so each seed asks for the same amount of
        # search.  The seed picks each pair's image in the whole pool (which
        # corner is large, and the order of the two), the infeasible pairs,
        # and the request order.
        rng = random.Random(f"{self.name}:{seed}")
        requests = []
        for n in self.orders:
            small = 2 * n + 2
            c_base = (n + 2) ** 2 + 1
            feasible = [
                (v, w) for v in range(1, small + 1) for w in range(v + 1, small + 1) if (v + w) % 2
            ]
            stride = len(feasible) / self.pairs_per_order
            for i in range(self.pairs_per_order):
                v, w = feasible[int((i + 0.5) * stride)]
                if rng.random() < 0.5:
                    v, w = w, v
                if rng.random() < 0.5:
                    v = c_base - v
                if rng.random() < 0.5:
                    w = c_base - w
                requests.append(self._request(n, v, w, feasible=True))
            for _ in range(self.infeasible_per_order):
                v = rng.randint(1, small)
                w = rng.choice([x for x in range(1, small + 1) if x % 2 == v % 2 and x != v])
                requests.append(self._request(n, v, w, feasible=False))
        rng.shuffle(requests)
        return requests

    @staticmethod
    def _request(n: int, v: int, w: int, feasible: bool) -> Request:
        argv = ("build", "--border-only", "--order", str(n), "--corners", f"{v},{w}",
                "--format", "json")
        return Request(steps=(argv,), expect=(n, v, w, feasible))

    def check(self, request: Request, outcome: Outcome) -> str | None:
        n, v, w, feasible = request.expect
        if not feasible:
            if outcome.codes != (2,) or outcome.stdouts != ("",):
                return f"same-parity corners exited {outcome.codes}, wanted 2"
            return None
        if outcome.codes != (0,):
            return f"feasible corners exited {outcome.codes}"
        lines = outcome.stdouts[0].splitlines()
        if len(lines) != 1:
            return f"expected one plan line, got {len(lines)}"
        return border_plan_problem(lines[0], n, v, w)


def load_counts() -> dict[tuple[int, int, int], int]:
    """Frozen per-key border counts; their totals must match the known ones."""
    counts = {}
    for line in COUNTS_FILE.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            n, v, w, count = (int(x) for x in line.split())
            counts[(n, v, w)] = count
    for n, total in COUNT_TOTALS.items():
        found = sum(c for (kn, _, _), c in counts.items() if kn == n)
        if found != total:
            raise ValueError(f"{COUNTS_FILE.name}: order-{n} counts total {found}, not {total}")
    return counts


class Count:
    """``enumerate --count-only`` for every key at n=5 and n=6, plus listings."""

    name = "count"
    orders = (5, 6)
    listing_share = 4  # one key in this many also gets a --limit listing

    def __init__(self):
        self.counts = load_counts()

    def generate(self, seed: int) -> list[Request]:
        rng = random.Random(f"{self.name}:{seed}")
        requests = []
        keys = [
            (n, v, w)
            for n in self.orders
            for v in range(1, 2 * n + 3)
            for w in range(1, 2 * n + 3)
            if v != w
        ]
        for n, v, w in keys:
            argv = ("enumerate", "--order", str(n), "--corners", f"{v},{w}", "--count-only")
            requests.append(Request(steps=(argv,), expect=(n, v, w, None)))
        for n, v, w in rng.sample(keys, len(keys) // self.listing_share):
            limit = rng.randint(1, 5)
            argv = ("enumerate", "--order", str(n), "--corners", f"{v},{w}", "--limit", str(limit))
            requests.append(Request(steps=(argv,), expect=(n, v, w, limit)))
        rng.shuffle(requests)
        return requests

    def check(self, request: Request, outcome: Outcome) -> str | None:
        n, v, w, limit = request.expect
        if outcome.codes != (0,):
            return f"enumerate exited {outcome.codes}"
        expected = self.counts[(n, v, w)]
        text = outcome.stdouts[0]
        if limit is None:
            if text.strip() != str(expected):
                return f"count {text.strip()[:20]!r}, wanted {expected}"
            return None
        lines = text.splitlines()
        if len(lines) != min(limit, expected):
            return f"{len(lines)} plans listed, wanted {min(limit, expected)}"
        seen = set()
        for line in lines:
            problem = border_plan_problem(line, n, v, w)
            if problem:
                return problem
            plan = json.loads(line)
            seen.add((tuple(sorted(plan["b"])), tuple(sorted(plan["c"]))))
        if len(seen) != len(lines):
            return "a listing repeats a border"
        return None


WORKLOADS = {cls.name: cls for cls in (Squares, Corners, Count)}
