import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from magicborders.cli import main
from magicborders.documents import parse_document
from magicborders.verify import BorderPlan, verify_border, verify_bordered

from goldens import (
    ORDER5_ALT_FRAME_TEXT,
    ORDER7_FRAME_TEXT,
    ORDER8_ALT_FRAME_TEXT,
    ORDER8_FRAME_TEXT,
    UNREADABLE_JSON,
)


SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_square_then_verify(capsys, tmp_path):
    code, out, _ = run(capsys, "build", "--order", "9")
    assert code == 0
    doc = parse_document(out)
    assert doc.is_complete() and verify_bordered(doc.cells).valid

    path = tmp_path / "square.txt"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path), "--bordered")
    assert code == 0 and out.strip() == "valid"


@pytest.mark.parametrize("fmt", ["grid", "csv", "json"])
def test_build_output_round_trips(capsys, fmt):
    code, out, _ = run(capsys, "build", "--order", "6", "--format", fmt)
    assert code == 0
    assert parse_document(out).is_complete()
    code, out2, _ = run(capsys, "build", "--order", "6", "--format", fmt)
    assert out == out2  # deterministic


def test_build_border_only_with_corners(capsys):
    code, out, _ = run(
        capsys, "build", "--order", "10", "--border-only", "--corners", "1,4",
        "--format", "json",
    )
    assert code == 0
    plan = parse_document(out)
    assert isinstance(plan, BorderPlan)
    assert (plan.v, plan.w) == (1, 4)
    assert verify_border(plan).valid


def test_build_border_only_grid_renders_a_frame(capsys):
    code, out, _ = run(capsys, "build", "--order", "8", "--border-only")
    assert code == 0
    frame = parse_document(out).as_frame()
    assert frame.n == 8


def test_infeasible_corners_exit_2(capsys):
    code, _, err = run(
        capsys, "build", "--order", "10", "--border-only", "--corners", "1,3"
    )
    assert code == 2
    assert "parity" in err or "odd and one even" in err
    # the row-parity lemma holds at every order, with the parity reversed
    # at odd ones; (1, 142) has diagram rows 1 and 3 at n = 10
    for order, corners, message in [
        ("9", "1,2", "their diagram rows 1 and 2 need the same parity at odd orders"),
        ("10", "1,142", "their diagram rows 1 and 3 need opposite parity at even orders"),
    ]:
        code, out, err = run(
            capsys, "build", "--order", order, "--border-only", "--corners", corners
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: no magic border of inner order {order} has upper corners "
            f"({corners.replace(',', ', ')}): {message}\n"
        )


def test_corner_requests_at_odd_orders_exit_1(capsys):
    code, _, err = run(
        capsys, "build", "--order", "9", "--border-only", "--corners", "1,3"
    )
    assert code == 1
    # odd-order corner borders exist (enumerate counts them); only the
    # construction is limited to even orders
    assert "construction covers even inner orders only, got n=9" in err
    assert "exist" not in err
    # corners outside the pool are named before the order is
    code, _, err = run(
        capsys, "build", "--order", "9", "--border-only", "--corners", "1,200"
    )
    assert code == 1 and err == "error: corner w=200 is outside the pool for n=9\n"
    code, _, err = run(
        capsys, "build", "--order", "1", "--border-only", "--corners", "1,2"
    )
    assert code == 1 and "inner order must be an integer >= 3, got 1" in err


def test_corners_without_border_only_exit_1(capsys):
    code, _, err = run(capsys, "build", "--order", "8", "--corners", "1,2")
    assert code == 1


def test_verify_reference_frames(capsys, tmp_path):
    for name, text in [
        ("ref8", ORDER8_FRAME_TEXT),
        ("alt5", ORDER5_ALT_FRAME_TEXT),
        ("alt8", ORDER8_ALT_FRAME_TEXT),
    ]:
        path = tmp_path / f"{name}.txt"
        path.write_text(text.strip() + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0 and out.strip() == "valid", name


def test_verify_flags_a_perturbed_frame(capsys, tmp_path):
    broken = ORDER7_FRAME_TEXT.replace("81", "82")
    path = tmp_path / "broken.txt"
    path.write_text(broken, encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "invalid" in out
    assert "top row" in out or "opposite-complement" in out


def test_verify_bordered_reports_each_broken_line_once(capsys, tmp_path):
    _, out, _ = run(capsys, "build", "--order", "7")
    square = [row.split() for row in out.splitlines()]
    square[0][0], square[3][3] = square[3][3], square[0][0]
    path = tmp_path / "tampered.txt"
    path.write_text("\n".join(" ".join(row) for row in square) + "\n", encoding="utf-8")

    code, out, _ = run(capsys, "verify", str(path), "--bordered")
    lines = out.splitlines()
    assert code == 1 and lines[0] == "invalid: 14 violation(s)"
    assert "  subsquare-line-sum at order 7 row 0: expected 175, got 188" in lines
    assert not any(line.startswith("  line-sum") for line in lines)
    assert len(set(lines)) == len(lines)

    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1 and "  line-sum at row 0: expected 175, got 188" in out.splitlines()


def test_verify_bordered_rejects_an_order2_permutation(capsys, tmp_path):
    path = tmp_path / "order2.txt"
    path.write_text("1 2\n3 4\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path), "--bordered")
    lines = out.splitlines()
    assert code == 1 and lines[0] == "invalid: 4 violation(s)"
    assert "  subsquare-line-sum at order 2 row 0: expected 5, got 3" in lines


@pytest.mark.parametrize("fmt", ["grid", "json"])
def test_verify_bordered_rejects_frames_and_plans(capsys, tmp_path, fmt):
    _, out, _ = run(capsys, "build", "--order", "4", "--border-only", "--format", fmt)
    path = tmp_path / "border.txt"
    path.write_text(out, encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path), "--bordered")
    assert code == 1 and out == ""
    assert err == "error: --bordered applies to full squares only\n"


def test_verify_bordered_names_the_misplaced_cell_of_a_frame(capsys, tmp_path):
    # the grid is read as a frame first, so the cell out of place is named
    # before --bordered turns frames away
    _, out, _ = run(capsys, "build", "--order", "5", "--border-only")
    path = tmp_path / "frame.txt"
    path.write_text(_edited_grid(out, (0, 0), "."), encoding="utf-8")
    for flags in ((), ("--bordered",)):
        code, out, err = run(capsys, "verify", str(path), *flags)
        assert (code, out, err) == (1, "", "error: frame border cell (0,0) is empty\n")


def test_verify_reports_the_hole_of_a_square_too_small_for_a_frame(capsys, tmp_path):
    path = tmp_path / "holed3.txt"
    path.write_text("8 1 6\n3 . 7\n4 9 2\n", encoding="utf-8")
    for flags in ((), ("--bordered",)):
        code, out, err = run(capsys, "verify", str(path), *flags)
        assert code == 1 and out == ""
        assert err == "error: grid has an empty cell at (1,1)\n"


def test_verify_reports_the_hole_of_a_square_with_a_filled_interior(capsys, tmp_path):
    _, out, _ = run(capsys, "build", "--order", "5")
    square = [row.split() for row in out.splitlines()]
    square[0][1] = "."
    path = tmp_path / "holed5.txt"
    path.write_text("\n".join(" ".join(row) for row in square) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and out == ""
    assert err == "error: grid has an empty cell at (0,1)\n"


@pytest.mark.parametrize(
    "text",
    [
        '{"order": 3.0, "cells": [[2, 7, 6], [9, 5, 1], [4, 3, 8]]}',
        '{"order": true, "cells": [[1]]}',
    ],
)
def test_verify_rejects_a_json_grid_whose_order_is_not_an_integer(capsys, tmp_path, text):
    path = tmp_path / "grid.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: unreadable grid document: order is ")


def test_verify_parse_failure_names_the_spot(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 x\n4 5 6\n7 8 9\n", encoding="utf-8")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 1 and "line 1" in err


def test_enumerate_count_only_same_parity_is_zero(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--order", "4", "--corners", "1,3", "--count-only"
    )
    assert code == 0 and out.strip() == "0"
    # the parity rule answers without counting, so one node of budget is enough
    code, out, _ = run(
        capsys, "enumerate", "--order", "20", "--corners", "1,3", "--count-only",
        "--max-nodes", "1",
    )
    assert code == 0 and out.strip() == "0"


def test_enumerate_limit_one_yields_one_valid_plan(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--order", "4", "--corners", "1,2", "--limit", "1"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    plan = parse_document(lines[0])
    assert verify_border(plan).valid and (plan.v, plan.w) == (1, 2)


def test_enumerate_full_count_table_matches_fixture(capsys, tmp_path):
    code, out, _ = run(capsys, "enumerate", "--order", "4", "--count-only")
    assert code == 0
    from pathlib import Path

    fixture = (Path(__file__).parent / "fixtures" / "omega4_counts.txt").read_text()
    assert out == fixture


def test_enumerate_budget_exhaustion_exits_3(capsys):
    code, _, err = run(
        capsys, "enumerate", "--order", "4", "--count-only", "--max-nodes", "5"
    )
    assert code == 3 and "budget" in err


def test_enumerate_deep_search_runs_out_of_time_without_a_traceback(capsys):
    # 1200 diagram rows deep: far beyond the interpreter's recursion limit
    code, out, err = run(
        capsys, "enumerate", "--order", "600", "--corners", "1,2", "--limit", "1",
        "--max-seconds", "1",
    )
    assert code == 3 and out == ""
    assert "budget" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "name, argv",
    [
        ("build_square", ("build", "--order", "60000")),
        ("render_frame", ("build", "--order", "600", "--border-only")),
    ],
)
def test_running_out_of_memory_prints_one_line(capsys, monkeypatch, name, argv):
    # the allocation fails in the patched stage, so nothing large is allocated
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(f"magicborders.assemble.{name}", exhausted)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1


def test_enumerate_warns_beyond_desk_scale(capsys):
    code, out, err = run(
        capsys, "enumerate", "--order", "8", "--corners", "1,2", "--limit", "1"
    )
    assert code == 0 and "warning" in err
    assert len(out.strip().splitlines()) == 1


def test_counting_warns_only_beyond_its_own_desk_scale(capsys):
    code, out, err = run(
        capsys, "enumerate", "--order", "9", "--corners", "1,3", "--count-only"
    )
    assert (code, out, err) == (0, "529\n", "")
    code, out, err = run(
        capsys, "enumerate", "--order", "10", "--corners", "1,2", "--count-only",
        "--max-nodes", "100",
    )
    assert code == 3 and out == ""
    assert err.startswith("warning: counting beyond inner order 9 can take very long")
    code, _, err = run(
        capsys, "enumerate", "--order", "7", "--corners", "1,3", "--limit", "1"
    )
    assert code == 0
    assert err.startswith("warning: exhaustive search beyond inner order 6")


def test_enumerate_limit_spans_keys(capsys):
    code, full, _ = run(capsys, "enumerate", "--order", "4")
    assert code == 0
    code, out, err = run(capsys, "enumerate", "--order", "4", "--limit", "7")
    assert (code, err) == (0, "")
    lines = out.splitlines(keepends=True)
    assert lines == full.splitlines(keepends=True)[:7]
    assert len({(p.v, p.w) for p in map(parse_document, lines)}) > 1
    assert run(capsys, "enumerate", "--order", "4", "--limit", "0") == (0, "", "")
    code, _, err = run(
        capsys, "enumerate", "--order", "4", "--max-nodes", "3", "--limit", "5"
    )
    assert code == 3 and "budget" in err


def test_enumerate_listing_spends_one_time_budget_across_keys(capsys):
    # each of the 240 keys ends well inside 0.2 s; all of them do not
    code, out, err = run(capsys, "enumerate", "--order", "7", "--max-seconds", "0.2")
    assert code == 3
    assert err.endswith("error: search budget exhausted: time limit 0.2s reached\n")
    assert len(out.splitlines()) < 7136


def test_enumerate_listing_spends_one_node_budget_across_keys(capsys):
    # 317 nodes list any one key of n=4, not all of them
    code, out, _ = run(capsys, "enumerate", "--order", "4", "--corners", "1,2",
                       "--max-nodes", "317")
    assert code == 0 and out
    code, _, err = run(capsys, "enumerate", "--order", "4", "--max-nodes", "317")
    assert code == 3 and "node limit 317 reached" in err
    code, full, _ = run(capsys, "enumerate", "--order", "4", "--max-nodes", "7878")
    assert code == 0
    assert run(capsys, "enumerate", "--order", "4") == (0, full, "")


def test_enumerate_listing_rejects_a_negative_order(capsys):
    code, out, err = run(capsys, "enumerate", "--order=-1")
    assert (code, out) == (1, "")
    assert err == "error: inner order must be an integer >= 3, got -1\n"


def test_enumerate_rejects_a_nan_time_limit(capsys):
    code, out, err = run(
        capsys, "enumerate", "--order", "4", "--corners", "1,2", "--max-seconds", "nan",
        "--count-only",
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "max_seconds" in err


def test_same_parity_listing_prints_nothing(capsys):
    for n in ("4", "6", "40"):
        code, out, err = run(
            capsys, "enumerate", "--order", n, "--corners", "1,3", "--limit", "2"
        )
        assert code == 0 and out == ""


def _edited_grid(text, cell, value):
    rows = [line.split() for line in text.splitlines()]
    rows[cell[0]][cell[1]] = value
    return "\n".join(" ".join(row) for row in rows) + "\n"


@pytest.mark.parametrize(
    "build, cell, value, message",
    [
        # a frame with one stray interior value is a frame
        (("--order", "5", "--border-only"), (2, 2), "5",
         "error: frame interior cell (2,2) is filled\n"),
        # a square with one hole is a square, not a frame
        (("--order", "5"), (2, 3), ".", "error: grid has an empty cell at (2,3)\n"),
        (("--order", "5"), (0, 1), ".", "error: grid has an empty cell at (0,1)\n"),
    ],
)
def test_verify_and_orbit_tell_frames_from_holed_squares_alike(
    capsys, tmp_path, build, cell, value, message
):
    _, out, _ = run(capsys, "build", *build)
    path = tmp_path / "grid.txt"
    path.write_text(_edited_grid(out, cell, value), encoding="utf-8")
    for command in ("verify", "orbit"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out, err) == (1, "", message), command


def test_orbit_emits_eight_verified_plans(capsys, tmp_path):
    code, out, _ = run(
        capsys, "build", "--order", "4", "--border-only", "--format", "json"
    )
    plan = parse_document(out)
    path = tmp_path / "plan.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "orbit", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    images = [parse_document(line) for line in lines]
    assert images[0] == plan  # identity first
    for image in images:
        assert verify_border(image).valid
    assert len({(p.v, p.w) for p in images}) == 8


def test_orbit_accepts_frames_and_rejects_invalid_plans(capsys, tmp_path):
    frame_path = tmp_path / "frame.txt"
    frame_path.write_text(ORDER7_FRAME_TEXT, encoding="utf-8")
    code, out, _ = run(capsys, "orbit", str(frame_path))
    assert code == 0 and len(out.strip().splitlines()) == 8

    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"n": 4, "v": 1, "w": 2, "b": [34, 33, 32, 8], "c": [6, 30, 29, 10]}),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "orbit", str(bad))
    assert code == 1 and "invalid" in out


def test_orbit_checks_the_whole_frame(capsys, tmp_path):
    # the plan read off the top row and left column stays valid; only the
    # swapped bottom cells no longer face their complements
    code, out, _ = run(capsys, "build", "--order", "4", "--border-only")
    rows = [line.split() for line in out.splitlines()]
    rows[-1][1], rows[-1][2] = rows[-1][2], rows[-1][1]
    path = tmp_path / "frame.txt"
    path.write_text("".join(" ".join(row) + "\n" for row in rows), encoding="utf-8")
    code, verified, _ = run(capsys, "verify", str(path))
    assert code == 1 and verified.count("opposite-complement") == 2
    code, out, _ = run(capsys, "orbit", str(path))
    assert code == 1 and out == verified


def test_orbit_of_a_full_square_exits_1(capsys, tmp_path):
    _, out, _ = run(capsys, "build", "--order", "6")
    path = tmp_path / "square.txt"
    path.write_text(out, encoding="utf-8")
    code, out, err = run(capsys, "orbit", str(path))
    assert code == 1 and out == ""
    assert "orbit expects a border plan or frame" in err


@pytest.mark.parametrize("command", ["verify", "orbit"])
def test_json_the_decoder_cannot_read_exits_1_without_a_traceback(tmp_path, command):
    for name, text in UNREADABLE_JSON.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "magicborders", command, str(path)],
            env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 1 and result.stdout == "", name
        assert "Traceback" not in result.stderr, name
        [line] = result.stderr.splitlines()
        assert line.startswith("error: unreadable JSON document: "), name


SEED_PLAN = {"n": 4, "v": 1, "w": 2, "b": [34, 33, 32, 9], "c": [6, 30, 29, 10]}


@pytest.mark.parametrize(
    "field, value",
    [
        ("n", 4.7),
        ("n", "4"),
        ("v", 1.9),
        ("v", True),
        ("b", ["34", "33", "32", "9"]),
        ("b", [34, 33, 32, 9.0]),
        ("c", {"6": 0, "30": 0, "29": 0, "10": 0}),
    ],
)
def test_verify_rejects_plan_fields_that_are_not_json_integers(capsys, tmp_path, field, value):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({**SEED_PLAN, field: value}), encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: unreadable plan document") and f"{field} is" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("enumerate", "--order", "4", "--count-only", "--limit", "3"), "--limit"),
        (("enumerate", "--order", "4", "--corners", "1,2", "--count-only", "--limit", "0"),
         "--limit"),
        (("tables", "--m", "8"), "--m"),
    ],
)
def test_flags_that_would_be_ignored_are_rejected(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and flag in err


def test_tables_check_reports_and_passes(capsys):
    code, out, _ = run(capsys, "tables", "--check", "--m", "8", "--m", "12")
    assert code == 0
    assert "order-4 summary: 25 valid, 0 invalid" in out
    assert "1&2m+2 (v=1, w=18): repaired" in out
    assert "expected 505, got 504" in out
    assert "parameterized table at m=12: 20 entries" in out


def test_tables_check_with_a_bad_m_prints_nothing(capsys):
    code, out, err = run(capsys, "tables", "--check", "--m", "8", "--m", "0")
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_tables_without_check_is_informational(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 0 and "--check" in out


def test_orbit_of_a_seed_plan(capsys, tmp_path):
    seed = json.dumps({"n": 4, "v": 1, "w": 2, "b": [34, 33, 32, 9], "c": [6, 30, 29, 10]})
    path = tmp_path / "seed.json"
    path.write_text(seed + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "orbit", str(path))
    assert code == 0
    plans = [parse_document(line) for line in out.strip().splitlines()]
    assert len(plans) == 8
    assert all(verify_border(p).valid for p in plans)


def test_verify_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(ORDER8_FRAME_TEXT))
    code, out, _ = run(capsys, "verify")
    assert code == 0 and out.strip() == "valid"


def test_build_writes_to_a_file(capsys, tmp_path):
    out_path = tmp_path / "square.csv"
    code, out, _ = run(
        capsys, "build", "--order", "6", "--format", "csv", "-o", str(out_path)
    )
    assert code == 0 and out == ""
    doc = parse_document(out_path.read_text(encoding="utf-8"))
    assert doc.is_complete() and len(doc.cells) == 6


def test_enumerate_handles_odd_orders(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--order", "3", "--corners", "1,3", "--count-only"
    )
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(
        capsys, "enumerate", "--order", "3", "--corners", "1,2", "--count-only"
    )
    assert code == 0 and out.strip() == "0"


@pytest.mark.parametrize(
    "cells, message",
    [
        ("5", "error: JSON cells must be a list of rows, got 5\n"),
        ("[5, 6, 7]", "error: JSON cells row 0 is 5, not a list of cells\n"),
        ('["abc", "def", "ghi"]', "error: JSON cells row 0 is 'abc', not a list of cells\n"),
    ],
)
def test_verify_names_json_cells_that_are_not_rows(capsys, monkeypatch, cells, message):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(f'{{"order": 3, "cells": {cells}}}'))
    assert run(capsys, "verify", "-") == (1, "", message)


@pytest.mark.parametrize(
    "document, message",
    [
        (
            {"n": 4, "v": 1, "w": 2, "b": ["x"] * 100_000, "c": []},
            "error: unreadable plan document: b is ['x', 'x', 'x', 'x', 'x', 'x', 'x', "
            "'x', 'x', 'x', ...], not a list of integers\n",
        ),
        (
            {"order": 1, "cells": [[list(range(100_000))]]},
            "error: unreadable cell [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ...] at JSON cells (0,0)\n",
        ),
    ],
    ids=["plan-line", "grid-cell"],
)
def test_verify_clips_a_huge_value_it_names(capsys, tmp_path, document, message):
    path = tmp_path / "document.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert run(capsys, "verify", str(path)) == (1, "", message)


def test_bad_usage_exits_1(capsys):
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys, "build")[0] == 1  # missing --order
    assert run(capsys, "build", "--order", "8", "--border-only",
               "--corners", "nonsense")[0] == 1


def test_enumerate_rejects_a_negative_limit(capsys):
    code, out, err = run(
        capsys, "enumerate", "--order", "4", "--corners", "1,2", "--limit", "-1"
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--limit" in err


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0 and "magicborder" in out


def test_verify_keeps_its_verdict_when_nobody_reads_the_report(capsys, monkeypatch, tmp_path):
    code, square, _ = run(capsys, "build", "--order", "7")
    rows = square.splitlines()
    first = rows[0].split()
    first[0], first[1] = first[1], first[0]
    rows[0] = " ".join(first)
    invalid, valid = tmp_path / "invalid.txt", tmp_path / "valid.txt"
    invalid.write_text("\n".join(rows) + "\n", encoding="utf-8")
    valid.write_text(square, encoding="utf-8")
    for path, verdict in ((invalid, 1), (valid, 0)):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", buffering=1, encoding="utf-8") as closed:
            monkeypatch.setattr(sys, "stdout", closed)
            assert main(["verify", str(path)]) == verdict
            monkeypatch.undo()
        # a whole process too: the report is lost without a traceback
        assert run_unread("verify", str(path)) == (verdict, b"")


def run_unread(*argv):
    """Exit code and stderr of a magicborder process whose stdout nobody reads."""
    # stdout block-buffered, as it is by default for a pipe
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "magicborders", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**env, "PYTHONPATH": str(SRC)},
            timeout=60,
        )
    finally:
        os.close(write_end)
    return result.returncode, result.stderr


def test_short_outputs_nobody_reads_exit_cleanly():
    # each output fits the stdout buffer, so only the last flush meets the closed pipe
    assert run_unread("build", "--order", "5") == (0, b"")
    assert run_unread("enumerate", "--order", "4", "--limit", "3") == (0, b"")


def test_a_long_output_whose_reader_leaves_early_exits_cleanly():
    # an order-600 square is megabytes, so a write itself, not the last
    # flush, meets the pipe its reader closed after one byte
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    with subprocess.Popen(
        [sys.executable, "-m", "magicborders", "build", "--order", "600"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**env, "PYTHONPATH": str(SRC)},
    ) as process:
        assert len(process.stdout.read(1)) == 1
        process.stdout.close()
        err = process.stderr.read()
        assert process.wait(timeout=60) == 0
    assert err == b""


def test_a_grid_build_and_check_load_neither_json_nor_csv():
    script = (
        "import io, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from magicborders.cli import main\n"
        "sys.stdout = io.StringIO()\n"
        "assert main(['build', '--order', '9']) == 0\n"
        "sys.stdin = io.StringIO(sys.stdout.getvalue())\n"
        "assert main(['verify', '--bordered', '-']) == 0\n"
        "sys.stdout = sys.__stdout__\n"
        "print(sorted({'json', 'csv'} & sys.modules.keys()))\n"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-c", script, str(SRC)], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


@pytest.mark.parametrize("border_only", [[], ["--border-only"]], ids=["square", "frame"])
def test_a_csv_build_loads_neither_json_nor_csv(border_only):
    script = (
        "import io, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from magicborders.cli import main\n"
        "sys.stdout = io.StringIO()\n"
        "assert main(['build', '--order', '9', '--format', 'csv', *sys.argv[2:]]) == 0\n"
        "sys.stdout = sys.__stdout__\n"
        "print(sorted({'json', 'csv'} & sys.modules.keys()))\n"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-c", script, str(SRC), *border_only],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
