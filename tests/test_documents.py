import json

import pytest
from hypothesis import given, settings, strategies as st

from magicborders import build_border, build_square
from magicborders.assemble import render_frame
from magicborders.documents import (
    FORMATS,
    GRID,
    DocumentError,
    GridDocument,
    parse_document,
    serialize_grid,
    serialize_plan,
)
from magicborders.verify import BorderPlan

from goldens import (
    ORDER7_FRAME_TEXT,
    ORDER7_PLAN,
    UNREADABLE_JSON,
    reference_parse_grid,
    reference_serialize_grid,
)


@pytest.mark.parametrize("fmt", FORMATS)
def test_square_round_trip(fmt):
    square = build_square(7)
    text = serialize_grid(square, fmt)
    doc = parse_document(text)
    assert isinstance(doc, GridDocument)
    assert list(map(list, doc.cells)) == square


@pytest.mark.parametrize("fmt", FORMATS)
def test_frame_round_trip(fmt):
    frame = render_frame(build_border(6))
    text = serialize_grid(frame.cells, fmt)
    doc = parse_document(text)
    assert not doc.is_complete()
    assert doc.as_frame().cells == frame.cells


def test_plan_round_trip():
    text = serialize_plan(ORDER7_PLAN)
    assert parse_document(text) == ORDER7_PLAN


def test_reference_frame_text_parses():
    doc = parse_document(ORDER7_FRAME_TEXT)
    frame = doc.as_frame()
    assert frame.n == 7
    assert frame.cells[0][0] == 14
    assert frame.cells[1][1] is None


def test_small_literal_grids():
    doc = parse_document("1 2\n3 4\n")
    assert doc.cells == ((1, 2), (3, 4))
    doc = parse_document("1,2\n3,4\n")
    assert doc.cells == ((1, 2), (3, 4))
    doc = parse_document('{"order": 2, "cells": [[1, 2], [3, 4]]}')
    assert doc.cells == ((1, 2), (3, 4))


def test_parse_rejects_bad_documents():
    with pytest.raises(DocumentError):
        parse_document("")
    with pytest.raises(DocumentError):
        parse_document("1 2 3\n4 5\n")  # ragged
    with pytest.raises(DocumentError):
        parse_document("1 x\n3 4\n")
    with pytest.raises(DocumentError):
        parse_document("{not json")
    with pytest.raises(DocumentError):
        parse_document('{"order": 3, "cells": [[1, 2], [3, 4]]}')
    with pytest.raises(DocumentError):
        parse_document('{"foo": 1}')


@pytest.mark.parametrize(
    "text, shown",
    [
        ('{"order": 3.0, "cells": [[2, 7, 6], [9, 5, 1], [4, 3, 8]]}', "3.0"),
        ('{"order": true, "cells": [[1]]}', "True"),
        ('{"order": "1", "cells": [[1]]}', "'1'"),
        ('{"order": null, "cells": [[1]]}', "None"),
    ],
)
def test_json_grid_order_must_be_an_integer(text, shown):
    # the same rule and wording as a plan's "n"
    with pytest.raises(DocumentError) as excinfo:
        parse_document(text)
    assert str(excinfo.value) == f"unreadable grid document: order is {shown}"


def test_an_order1_csv_hole_round_trips():
    text = serialize_grid([[None]], "csv")
    assert text == '""\n'  # as csv.writer writes a lone empty field
    assert parse_document(text) == GridDocument(cells=((None,),))


def test_a_quoted_line_is_read_as_csv_without_a_comma():
    # csv.reader joins the quoted "1" and the " 2" after it into one field
    with pytest.raises(DocumentError) as excinfo:
        parse_document('"1" 2\n3 4\n')
    assert str(excinfo.value) == "unreadable cell '1 2' at line 1"


def test_grid_document_guards():
    doc = parse_document("1 .\n3 4\n")
    assert not doc.is_complete()
    with pytest.raises(DocumentError):
        doc.as_frame()  # too small to be a frame
    full = parse_document("1 2\n3 4\n")
    with pytest.raises(DocumentError):
        full.as_frame()


def _holed_square(order, i, j):
    square = build_square(order)
    square[i][j] = None
    return serialize_grid(square, GRID)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 .\n3 4\n", "grid has an empty cell at (0,1)"),
        ("1 2\n3 4\n", "grid has no empty cell: a full square is not a frame"),
        # one hole leaves the interior mostly filled: a square, not a frame
        (_holed_square(5, 2, 3), "grid has an empty cell at (2,3)"),
    ],
)
def test_as_frame_tells_frames_from_squares(text, message):
    with pytest.raises(DocumentError) as excinfo:
        parse_document(text).as_frame()
    assert str(excinfo.value) == message


def test_frame_document_requires_border_cells():
    text = serialize_grid(render_frame(build_border(4)).cells, GRID)
    holed = text.replace("35", " .", 1)
    with pytest.raises(DocumentError):
        parse_document(holed).as_frame()


def test_serialize_rejects_unknown_format_and_ragged_grids():
    with pytest.raises(DocumentError):
        serialize_grid([[1, 2], [3, 4]], "yaml")
    with pytest.raises(DocumentError):
        serialize_grid([[1, 2], [3]], GRID)


@given(
    st.integers(min_value=2, max_value=8).flatmap(
        lambda k: st.lists(
            st.lists(
                st.one_of(st.none(), st.integers(min_value=0, max_value=10**6)),
                min_size=k,
                max_size=k,
            ),
            min_size=k,
            max_size=k,
        )
    ),
    st.sampled_from(FORMATS),
)
@settings(max_examples=60)
def test_any_square_grid_round_trips(cells, fmt):
    text = serialize_grid(cells, fmt)
    doc = parse_document(text)
    assert [list(row) for row in doc.cells] == [list(row) for row in cells]


@given(
    st.integers(min_value=3, max_value=20),
    st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=20),
)
@settings(max_examples=40)
def test_any_plan_round_trips(n, values):
    plan = BorderPlan(
        n=n, v=values[0], w=values[-1], b=tuple(values), c=tuple(reversed(values))
    )
    assert parse_document(serialize_plan(plan)) == plan


@pytest.mark.parametrize(
    "cells, message",
    [
        ("5", "JSON cells must be a list of rows, got 5"),
        ('{"a": [1]}', "JSON cells must be a list of rows, got {'a': [1]}"),
        ('"abc"', "JSON cells must be a list of rows, got 'abc'"),
        ("[5, 6, 7]", "JSON cells row 0 is 5, not a list of cells"),
        ('["abc", "def", "ghi"]', "JSON cells row 0 is 'abc', not a list of cells"),
        ("[[1, 2], {}]", "JSON cells row 1 is {}, not a list of cells"),
    ],
)
def test_json_cells_that_are_not_a_list_of_lists_are_named(cells, message):
    with pytest.raises(DocumentError) as excinfo:
        parse_document(f'{{"order": 3, "cells": {cells}}}')
    assert str(excinfo.value) == message


_HUGE = 100_000


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(
            json.dumps({"n": 4, "v": 1, "w": 2, "b": ["x"] * _HUGE, "c": []}),
            "unreadable plan document: b is ['x', 'x', 'x', 'x', 'x', 'x', 'x', 'x', "
            "'x', 'x', ...], not a list of integers",
            id="plan-line",
        ),
        pytest.param(
            json.dumps({"n": list(range(_HUGE)), "v": 1, "w": 2, "b": [], "c": []}),
            "unreadable plan document: n is [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ...]",
            id="plan-n",
        ),
        pytest.param(
            json.dumps({"order": 1, "cells": [[list(range(_HUGE))]]}),
            "unreadable cell [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ...] at JSON cells (0,0)",
            id="grid-cell",
        ),
        pytest.param(
            json.dumps({"order": 1, "cells": ["y" * _HUGE]}),
            "JSON cells row 0 is 'yyyyyyyyyyyy...yyyyyyyyyyyyy', not a list of cells",
            id="grid-row",
        ),
        pytest.param(
            json.dumps({"order": [[[1]]] * 3, "cells": [[1]]}),
            "unreadable grid document: order is [[[...]], [[...]], [[...]]]",
            id="grid-order-deep",
        ),
        pytest.param(
            "1 " + "9" * _HUGE + "x\n3 4\n",
            "unreadable cell '999999999999...999999999999x' at line 1",
            id="grid-token",
        ),
        pytest.param(
            "1," + "z" * _HUGE + "\n3,4\n",
            "unreadable cell 'zzzzzzzzzzzz...zzzzzzzzzzzzz' at line 1",
            id="csv-token",
        ),
        # short values keep repr's text, a dict's keys in document order
        pytest.param(
            '{"order": 2, "cells": {"b": [1, 2], "a": null}}',
            "JSON cells must be a list of rows, got {'b': [1, 2], 'a': None}",
            id="short-dict",
        ),
    ],
)
def test_errors_clip_the_values_they_name(text, message):
    with pytest.raises(DocumentError) as excinfo:
        parse_document(text)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("text", UNREADABLE_JSON.values(), ids=UNREADABLE_JSON.keys())
def test_json_the_decoder_cannot_read_is_a_document_error(text):
    with pytest.raises(DocumentError, match="^unreadable JSON document: "):
        parse_document(text)


def _outcome(parse, text):
    """A parser's result, or the message of the DocumentError it raised."""
    try:
        return parse(text)
    except DocumentError as exc:
        return f"DocumentError: {exc}"


# literals the JSON decoder reads otherwise than int, or not at all:
# exponents, a negative zero, a leading zero, JSON constants, brackets and
# braces, a non-ASCII space and an int past the interpreter's digit limit
_JSON_ONLY_LITERALS = [
    "1e3", "1E3", "-0", "05", "NaN", "Infinity", "-Infinity", "null", "true",
    "[1", "1]", "{}", "\xa05", "7" * 5000,
]

# tokens the whole-row readers take, and tokens only the per-cell reader
# can explain: holes, quotes, booleans, floats and unreadable text
_TOKENS = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6).map(str),
    st.integers(min_value=0, max_value=99).map(lambda x: f"+{x}"),
    st.sampled_from(
        [".", "", " ", "7 ", "\t8", "\u0663\u0662", "\uff17", "1_0", "True",
         "false", "2.5", "x", '"5"', '"1,2"', '"."', "0x1f", "--3"]
    ),
    st.sampled_from(_JSON_ONLY_LITERALS),
)


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda k: st.lists(
            st.lists(_TOKENS, min_size=max(1, k - 1), max_size=k + 1),
            min_size=k,
            max_size=k,
        )
    ),
    st.sampled_from([" ", "  ", "\t", ",", ", "]),
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
)
@settings(max_examples=300)
def test_grid_and_csv_readers_agree_with_the_per_token_reader(rows, sep, newline, blank):
    lines = [sep.join(row) for row in rows]
    if blank:
        lines.insert(len(lines) // 2, " \t")
    text = newline.join(lines) + newline
    assert _outcome(parse_document, text) == _outcome(reference_parse_grid, text)


@pytest.mark.parametrize("token", _JSON_ONLY_LITERALS + ["+5", "1_0", " 7", "\t8"])
def test_csv_lines_the_json_decoder_reads_otherwise_than_int_agree(token):
    # each literal, and tokens int reads with a sign, an underscore or
    # spaces, at either end and inside a CSV line; the property test above
    # draws any one of them only rarely
    for line in (f"{token},1", f"1,{token}", f"1,{token},2"):
        text = "\n".join([line] * len(line.split(","))) + "\n"
        assert _outcome(parse_document, text) == _outcome(reference_parse_grid, text)


_JSON_CELLS = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=2),
    st.lists(st.integers(), max_size=1),
)


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(
                st.one_of(
                    st.lists(st.integers(min_value=-99, max_value=99), min_size=k, max_size=k),
                    st.lists(_JSON_CELLS, min_size=k - 1, max_size=k + 1),
                    _JSON_CELLS,
                ),
                min_size=k,
                max_size=k,
            ),
        )
    ),
    st.integers(min_value=-1, max_value=1),
)
@settings(max_examples=300)
def test_json_reader_agrees_with_the_per_cell_reader(order_and_rows, order_shift):
    order, rows = order_and_rows
    text = json.dumps({"order": order + order_shift, "cells": rows})
    assert _outcome(parse_document, text) == _outcome(reference_parse_grid, text)


def _square_grids(cell):
    return st.integers(min_value=0, max_value=6).flatmap(
        lambda k: st.lists(
            st.lists(cell, min_size=k, max_size=k), min_size=k, max_size=k
        )
    )


@given(
    st.one_of(
        # all ints, of every width and sign: the row writers alone
        _square_grids(
            st.one_of(
                st.integers(min_value=-(10**12), max_value=10**12),
                st.integers(min_value=-9, max_value=99),
            )
        ),
        # holes and booleans send their rows to the per-cell writers
        _square_grids(
            st.one_of(
                st.integers(min_value=-(10**6), max_value=10**6), st.none(), st.booleans()
            )
        ),
    ),
    st.sampled_from(FORMATS),
)
@settings(max_examples=200)
def test_row_writers_agree_with_the_per_cell_writers(cells, fmt):
    assert serialize_grid(cells, fmt) == reference_serialize_grid(cells, fmt)


@pytest.mark.parametrize(
    "cells",
    [pytest.param(build_square(order), id=str(order)) for order in (3, 4, 11, 30)]
    # frames mix whole-int rows with holed rows in one document
    + [pytest.param(render_frame(build_border(n)).cells, id=f"frame{n}") for n in (3, 8, 30)],
)
@pytest.mark.parametrize("fmt", FORMATS)
def test_square_documents_agree_with_the_per_cell_codecs(cells, fmt):
    text = serialize_grid(cells, fmt)
    assert text == reference_serialize_grid(cells, fmt)
    assert parse_document(text) == reference_parse_grid(text)


@pytest.mark.parametrize(
    "text",
    [serialize_grid(build_square(5), fmt) for fmt in FORMATS]
    + [serialize_plan(ORDER7_PLAN)],
    ids=[*FORMATS, "plan"],
)
def test_a_leading_byte_order_mark_is_dropped(text):
    assert parse_document("\ufeff" + text) == parse_document(text)
