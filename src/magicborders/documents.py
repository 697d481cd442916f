"""Stable text formats for squares, frames and plans.

Grids travel as whitespace-aligned text, CSV, or JSON with keys "order"
and "cells"; border plans travel as JSON with keys "n", "v", "w", "b",
"c".  Empty cells (the interior of a frame) are "." in text, an empty
field in CSV and null in JSON.  Parsing auto-detects the format and
round-trips every emitted document.

``json`` and ``csv`` are imported where a JSON or CSV document, or a
grid row that needs the CSV reader, is handled, so a grid-format build
or check loads neither.
"""

from __future__ import annotations

import io
from collections import namedtuple

from .verify import BorderFrame, BorderPlan, misplaced_cells

GRID = "grid"
CSV = "csv"
JSON = "json"
FORMATS = (GRID, CSV, JSON)

_HOLE = "."


class DocumentError(ValueError):
    """Input text is not a readable grid or plan document."""


class GridDocument(namedtuple("GridDocument", "cells")):
    """A parsed square grid, possibly with empty interior cells."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.cells)

    def is_complete(self) -> bool:
        return not any(None in row for row in self.cells)

    def as_frame(self) -> BorderFrame:
        order = self.order
        if order < 5:
            raise DocumentError(f"a frame needs order >= 5, got {order}")
        for i, j, on_border in misplaced_cells(self.cells):
            if on_border:
                raise DocumentError(f"frame border cell ({i},{j}) is empty")
            raise DocumentError(f"frame interior cell ({i},{j}) is filled")
        return BorderFrame(n=order - 2, cells=self.cells)


def _grid_rows(cells) -> tuple[tuple[int | None, ...], ...]:
    return tuple(tuple(row) for row in cells)


def _int_row(row) -> bool:
    """Whether every cell of a row is a plain int: no hole, bool or other type.

    Such rows take the whole-row codecs; any other row is written or read
    cell by cell.
    """
    return set(map(type, row)) <= {int}


def serialize_grid(cells, fmt: str = GRID) -> str:
    """Write a square grid (ints and None) in the requested format."""
    rows = _grid_rows(cells)
    order = len(rows)
    if any(len(row) != order for row in rows):
        raise DocumentError("grid must be square")
    if fmt == GRID:
        if rows and all(map(_int_row, rows)):
            # the widest int is the largest or, written with its sign, the smallest
            width = max(len(str(max(map(max, rows)))), len(str(min(map(min, rows)))))
            line = " ".join([f"%{width}d"] * order)
            return "\n".join([line % row for row in rows]) + "\n"
        width = max(
            (len(str(x)) for row in rows for x in row if x is not None), default=1
        )
        lines = [
            " ".join((_HOLE if x is None else str(x)).rjust(width) for x in row)
            for row in rows
        ]
        return "\n".join(lines) + "\n"
    if fmt == CSV:
        import csv

        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        for row in rows:
            if _int_row(row):
                out.write(",".join(map(str, row)) + "\n")
            else:
                writer.writerow(["" if x is None else x for x in row])
        return out.getvalue()
    if fmt == JSON:
        import json

        payload = {"order": order, "cells": [list(row) for row in rows]}
        return json.dumps(payload, indent=None) + "\n"
    raise DocumentError(f"unknown format {fmt!r}; pick one of {FORMATS}")


def serialize_plan(plan: BorderPlan) -> str:
    """Write a border plan as a one-line JSON document."""
    import json

    payload = {
        "n": plan.n,
        "v": plan.v,
        "w": plan.w,
        "b": list(plan.b),
        "c": list(plan.c),
    }
    return json.dumps(payload) + "\n"


def _cell_from_token(token: str, where: str) -> int | None:
    token = token.strip()
    if token in ("", _HOLE):
        return None
    try:
        return int(token)
    except ValueError:
        raise DocumentError(f"unreadable cell {token!r} at {where}") from None


def _is_int(x) -> bool:
    """JSON integers only: no floats, strings or booleans."""
    return isinstance(x, int) and not isinstance(x, bool)


def _grid_from_lists(raw, where: str) -> GridDocument:
    if not isinstance(raw, list):
        raise DocumentError(f"{where} must be a list of rows, got {raw!r}")
    cells = []
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            raise DocumentError(f"{where} row {i} is {row!r}, not a list of cells")
        if _int_row(row):
            cells.append(tuple(row))
            continue
        parsed = []
        for j, x in enumerate(row):
            if x is None or _is_int(x):
                parsed.append(x)
            else:
                raise DocumentError(f"unreadable cell {x!r} at {where} ({i},{j})")
        cells.append(tuple(parsed))
    order = len(cells)
    if order == 0 or any(len(row) != order for row in cells):
        raise DocumentError(f"{where}: cells do not form a square grid")
    return GridDocument(cells=tuple(cells))


def _parse_json(text: str) -> BorderPlan | GridDocument:
    import json

    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"unreadable JSON document: {exc}") from None
    if not isinstance(payload, dict):
        raise DocumentError("JSON document must be an object")
    if {"n", "v", "w", "b", "c"} <= payload.keys():
        for key in ("n", "v", "w"):
            if not _is_int(payload[key]):
                raise DocumentError(f"unreadable plan document: {key} is {payload[key]!r}")
        for key in ("b", "c"):
            line = payload[key]
            if not isinstance(line, list) or not all(map(_is_int, line)):
                raise DocumentError(
                    f"unreadable plan document: {key} is {line!r}, not a list of integers"
                )
        return BorderPlan(
            n=payload["n"], v=payload["v"], w=payload["w"], b=payload["b"], c=payload["c"]
        )
    if {"order", "cells"} <= payload.keys():
        if not _is_int(payload["order"]):
            raise DocumentError(f"unreadable grid document: order is {payload['order']!r}")
        doc = _grid_from_lists(payload["cells"], "JSON cells")
        if doc.order != payload["order"]:
            raise DocumentError(
                f"JSON order {payload['order']} does not match a "
                f"{doc.order}x{doc.order} cell grid"
            )
        return doc
    raise DocumentError(
        'JSON document needs keys "order"/"cells" (grid) or "n"/"v"/"w"/"b"/"c" (plan)'
    )


def parse_document(text: str) -> BorderPlan | GridDocument:
    """Read any emitted document back: JSON plan, or JSON/CSV/text grid."""
    stripped = text.strip()
    if not stripped:
        raise DocumentError("empty document")
    if stripped.startswith("{"):
        return _parse_json(stripped)
    lines = [line for line in stripped.splitlines() if line.strip()]
    cells = []
    for i, line in enumerate(lines, start=1):
        sep = "," if "," in line else None
        try:
            row = tuple(map(int, line.split(sep)))
        except ValueError:
            # holes, quoted CSV fields and unreadable tokens, cell by cell
            if sep:
                import csv

                tokens = next(csv.reader([line]))
            else:
                tokens = line.split()
            row = tuple(_cell_from_token(tok, f"line {i}") for tok in tokens)
        cells.append(row)
    order = len(cells)
    if any(len(row) != order for row in cells):
        widths = sorted({len(row) for row in cells})
        raise DocumentError(
            f"grid is not square: {order} lines with row widths {widths}"
        )
    return GridDocument(cells=tuple(cells))
