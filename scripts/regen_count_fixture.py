#!/usr/bin/env python3
"""Regenerate, or check, the frozen enumeration counts used as regression fixtures.

For each inner order N (``--order``, repeatable; default 4 and 7) this
writes tests/fixtures/omegaN_counts.txt, one "v w count" line per small
corner pair.  The counts are exact and deterministic, so a diff in one of
these files means the counting engine changed behaviour.

With ``--check`` nothing is written: each file is compared with a fresh
count, and the exit code is 1 if any differs or is missing.

    PYTHONPATH=src python scripts/regen_count_fixture.py [--order N ...] [--check]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from magicborders import count_omega, format_counts

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
DEFAULT_ORDERS = (4, 7)


def fixture_path(n: int) -> Path:
    return FIXTURES / f"omega{n}_counts.txt"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--order", type=int, action="append", metavar="N",
                        help="inner order to count (repeatable; default 4 and 7)")
    parser.add_argument("--check", action="store_true",
                        help="compare with the frozen files instead of writing them")
    args = parser.parse_args(argv)
    status = 0
    for n in args.order or DEFAULT_ORDERS:
        counts = count_omega(n)
        text = format_counts(counts)
        path = fixture_path(n)
        summary = f"{len(counts)} pairs, {sum(counts.values())} borders"
        if not args.check:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path} ({summary})")
        elif path.is_file() and path.read_text(encoding="utf-8") == text:
            print(f"{path.name}: matches ({summary})")
        else:
            print(f"{path.name}: missing or unlike a fresh count ({summary})")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
