"""Stable text formats for squares, frames and plans.

Grids travel as whitespace-aligned text, CSV, or JSON with keys "order"
and "cells"; border plans travel as JSON with keys "n", "v", "w", "b",
"c".  Empty cells (the interior of a frame) are "." in text, an empty
field in CSV and null in JSON.  Parsing auto-detects the format and
round-trips every emitted square, frame and plan.  The reader alone tells
a frame from a square: it notes a hole as it reads the cells, and only a
grid with one goes through the frame rule, :func:`_as_frame`.

Grid and CSV text share one row writer.  A row of plain ints goes
through one ``%`` line built once per document: ``%Wd`` fields joined by
a space in text, ``%d`` fields joined by a comma in CSV.  Any other row
goes through one per-cell join.  The readers stay apart: a CSV line of
plain ints is read through the C JSON decoder as the JSON array
"[" + line + "]" (see :func:`_read_csv_ints`), and any other CSV line
cell by cell with ``csv``.  A line with a comma or a quote is a CSV line.

``json`` is imported where a JSON document is written or a CSV or JSON
document is read, and ``csv`` only where a CSV line needs the per-cell
reader.  So a grid-format build or check and a CSV build load neither,
and a CSV document whose every line the decoder reads loads no ``csv``.
"""

from __future__ import annotations

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
    """A parsed square grid with every cell filled."""

    __slots__ = ()


def _as_frame(cells) -> BorderFrame:
    """A grid the reader met an empty cell in, read as a frame if its order
    is 5 or more and its interior mostly empty, naming any misplaced cell.
    Any other such grid is a square, named at its first empty cell."""
    order = len(cells)
    holes = sum(row[1:-1].count(None) for row in cells[1:-1])
    if order >= 5 and 2 * holes > (order - 2) ** 2:
        for i, j, on_border in misplaced_cells(cells):
            if on_border:
                raise DocumentError(f"frame border cell ({i},{j}) is empty")
            raise DocumentError(f"frame interior cell ({i},{j}) is filled")
        return BorderFrame(n=order - 2, cells=cells)
    for i, row in enumerate(cells):
        if None in row:
            raise DocumentError(f"grid has an empty cell at ({i},{row.index(None)})")


def _int_row(row) -> bool:
    """Whether every cell of a row is a plain int: no hole, bool or other type.

    Such rows take the whole-row codecs; any other row is written or read
    cell by cell.
    """
    return set(map(type, row)) <= {int}


def serialize_grid(cells, fmt: str = GRID) -> str:
    """Write a square grid (ints and None) in the requested format."""
    order = len(cells)
    if any(len(row) != order for row in cells):
        raise DocumentError("grid must be square")
    if fmt not in FORMATS:
        raise DocumentError(f"unknown format {fmt!r}; pick one of {FORMATS}")
    if fmt == JSON:
        import json

        return json.dumps({"order": order, "cells": cells}) + "\n"
    int_rows = list(map(_int_row, cells))
    if fmt == GRID:
        if not order:
            return "\n"  # one blank line, where CSV writes none
        # an int row's widest cell is its largest or, written with its sign,
        # its smallest; any other row's may be any filled cell
        filled = (
            (max(row), min(row)) if ints else [x for x in row if x is not None]
            for row, ints in zip(cells, int_rows)
        )
        width = max((len(str(x)) for row in filled for x in row), default=1)
        sep, hole, field = " ", _HOLE.rjust(width), f"%{width}d"
    else:
        # csv.writer writes a lone empty field, an order-1 hole, as ""
        width, sep, hole, field = 0, ",", '""' if order == 1 else "", "%d"
    int_line = sep.join([field] * order) + "\n"
    return "".join([
        int_line % tuple(row) if ints
        else sep.join([hole if x is None else str(x).rjust(width) for x in row]) + "\n"
        for row, ints in zip(cells, int_rows)
    ])


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


def _shown(value) -> str:
    """A value as an error names it: its repr, clipped by ``reprlib`` past
    two levels, ten items or thirty characters so the line stays short."""
    import reprlib

    clip = reprlib.Repr()
    clip.maxlevel, clip.maxlist, clip.maxdict = 2, 10, 10
    shown = clip.repr(value)
    return shown if "..." in shown else repr(value)  # reprlib sorts dict keys


def _cell_from_token(token: str, where: str) -> int | None:
    token = token.strip()
    if token in ("", _HOLE):
        return None
    try:
        return int(token)
    except ValueError:
        raise DocumentError(f"unreadable cell {_shown(token)} at {where}") from None


def _is_int(x) -> bool:
    """JSON integers only: no floats, strings or booleans."""
    return isinstance(x, int) and not isinstance(x, bool)


def _grid_from_lists(raw, where: str) -> tuple[tuple, bool]:
    if not isinstance(raw, list):
        raise DocumentError(f"{where} must be a list of rows, got {_shown(raw)}")
    # each row is converted in place, so its decoded list is freed as soon
    # as its tuple exists; only a row that is not all ints can hold a hole
    holed = False
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            raise DocumentError(f"{where} row {i} is {_shown(row)}, not a list of cells")
        if not _int_row(row):
            for j, x in enumerate(row):
                if x is not None and not _is_int(x):
                    raise DocumentError(f"unreadable cell {_shown(x)} at {where} ({i},{j})")
            holed = holed or None in row
        raw[i] = tuple(row)
    order = len(raw)
    if order == 0 or any(len(row) != order for row in raw):
        raise DocumentError(f"{where}: cells do not form a square grid")
    return tuple(raw), holed


def _parse_json(text: str) -> BorderPlan | BorderFrame | GridDocument:
    import json

    # a JSONDecodeError is a ValueError, as is an int past the
    # interpreter's digit limit; nesting too deep for the decoder recurses
    try:
        payload = json.loads(text)
    except (RecursionError, ValueError) as exc:
        raise DocumentError(f"unreadable JSON document: {exc}") from None
    # the text starts with "{", so what parses is an object
    if {"n", "v", "w", "b", "c"} <= payload.keys():
        for key in ("n", "v", "w"):
            if not _is_int(payload[key]):
                raise DocumentError(f"unreadable plan document: {key} is {_shown(payload[key])}")
        for key in ("b", "c"):
            line = payload[key]
            if not isinstance(line, list) or not all(map(_is_int, line)):
                raise DocumentError(
                    f"unreadable plan document: {key} is {_shown(line)}, not a list of integers"
                )
        return BorderPlan(
            n=payload["n"], v=payload["v"], w=payload["w"], b=payload["b"], c=payload["c"]
        )
    if {"order", "cells"} <= payload.keys():
        if not _is_int(payload["order"]):
            raise DocumentError(f"unreadable grid document: order is {_shown(payload['order'])}")
        cells, holed = _grid_from_lists(payload["cells"], "JSON cells")
        order = len(cells)
        if order != payload["order"]:
            raise DocumentError(
                f"JSON order {payload['order']} does not match a "
                f"{order}x{order} cell grid"
            )
        return _as_frame(cells) if holed else GridDocument(cells)
    raise DocumentError(
        'JSON document needs keys "order"/"cells" (grid) or "n"/"v"/"w"/"b"/"c" (plan)'
    )


# characters a JSON array of ints never holds but other JSON values do:
# quotes, brackets, braces, and the letters of true, false and null
_NOT_JSON_INTS = '"[]{}tfn'


def _not_an_int(token: str):
    raise ValueError(f"not an int: {token}")


def _csv_int_decoder():
    """A JSON decoder that reads only ints: floats and NaN/Infinity raise."""
    import json

    return json.JSONDecoder(parse_float=_not_an_int, parse_constant=_not_an_int).decode


def _read_csv_ints(line: str, decode) -> tuple[int, ...]:
    """The ints of a CSV line, as the per-cell reader reads them.

    The line is decoded as the JSON array "[" + line + "]" when it holds
    none of ``_NOT_JSON_INTS``; any other line raises ValueError.  Such a
    line has no quote, so ``csv.reader`` splits it exactly at its commas,
    and no bracket or brace, so the array's top-level commas are exactly
    those commas too.  With ``true``/``false``/``null`` ruled out by their
    letters and floats, NaN and Infinity by the decoder's hooks, an
    element decodes only if it is -?(0|[1-9][0-9]*) with spaces or tabs
    around it, and ``int`` reads that token to the same value.  Everything
    else raises ValueError and goes to the per-cell reader: a hole, a +
    sign, leading zeros, "_", non-ASCII digits or spaces, and ints past
    the interpreter's digit limit.  So values and errors are those of the
    per-cell reader alone.
    """
    if any(map(line.__contains__, _NOT_JSON_INTS)):
        raise ValueError("not a JSON array of ints")
    return tuple(decode("[" + line + "]"))


def parse_document(text: str) -> BorderPlan | BorderFrame | GridDocument:
    """Read any emitted document back: JSON plan, or JSON/CSV/text grid.

    A full grid is a square; a grid with holes a frame, or an error naming
    a cell.  A leading byte-order mark, as some editors save UTF-8, is dropped.
    """
    text = text.removeprefix("\ufeff")
    if not text or text.isspace():
        raise DocumentError("empty document")
    if next(ch for ch in text if not ch.isspace()) == "{":
        # stripped, so JSON error positions count from the first "{"
        return _parse_json(text.strip())
    # blank lines and end spaces go as with text.strip(), without its copy
    lines = [line for line in text.splitlines() if line and not line.isspace()]
    lines[0] = lines[0].lstrip()
    lines[-1] = lines[-1].rstrip()  # the same line in a one-line document
    cells = []
    decode = None
    holed = False  # only the per-cell reader returns empty cells
    for i, line in enumerate(lines, start=1):
        sep = "," if "," in line else None
        try:
            if sep:
                if decode is None:
                    decode = _csv_int_decoder()
                row = _read_csv_ints(line, decode)
            else:
                row = tuple(map(int, line.split()))
        except ValueError:
            # holes, quoted CSV fields and unreadable tokens, cell by cell;
            # a quote makes a CSV line, as in the order-1 hole ""
            if sep or '"' in line:
                import csv

                tokens = next(csv.reader([line]))
            else:
                tokens = line.split()
            row = tuple(_cell_from_token(tok, f"line {i}") for tok in tokens)
            holed = holed or None in row
        cells.append(row)
    order = len(cells)
    if any(len(row) != order for row in cells):
        widths = sorted({len(row) for row in cells})
        raise DocumentError(
            f"grid is not square: {order} lines with row widths {widths}"
        )
    return _as_frame(tuple(cells)) if holed else GridDocument(tuple(cells))
