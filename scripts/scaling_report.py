#!/usr/bin/env python3
"""Timing and size report across orders: cold start, construction, corner
construction, the table audit, assembly, documents, enumeration.

Everything here is deterministic; rerun after engine changes to spot
regressions in the growth curves.  The cold-start section launches fresh
interpreters on the ``src`` tree next to this script.
"""

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from magicborders import (
    build_border,
    build_square,
    construct_with_corners,
    count_omega,
    enumerate_order,
    verify_border,
    verify_bordered,
)
from magicborders import construct
from magicborders.assemble import base_square, render_frame, ring_shift
from magicborders.corners import audit_order_m
from magicborders.documents import FORMATS, parse_document, serialize_grid
from magicborders.verify import write_ring

SRC = Path(__file__).resolve().parent.parent / "src"
COLD_LAUNCHES = 11
# the import and the lazy set-up every command pays, timed inside the process
SET_UP = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import magicborders.cli
from magicborders import build_border, construct_with_corners
build_border(3)
construct_with_corners(4, 1, 2)
print(time.perf_counter() - start)
"""

# `python -m magicborders ARGS...` under -I -S, which ignore PYTHONPATH and
# add no working directory to sys.path: the src tree goes on it by hand
AS_MODULE = (
    "import runpy, sys; sys.path.insert(0, sys.argv.pop(1)); "
    "runpy.run_module('magicborders', run_name='__main__', alter_sys=True)"
)
CORNER_BUILD = ["build", "--order", "10", "--border-only", "--corners", "1,4"]
# the other two end-to-end commands; verify reads a fixed order-9 square on stdin
VERIFY_BORDERED = ["verify", "--bordered", "-"]
COUNT_ONLY = ["enumerate", "--order", "5", "--corners", "1,2", "--count-only"]

# the process's peak RSS in KiB, printed last: its VmHWM, since ru_maxrss
# keeps the high-water mark of the large process that forked it
PRINT_PEAK = """
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""
# count_omega of the inner order given: its total and seconds, then the peak
OMEGA_RUN = """
import sys, time
sys.path.insert(0, sys.argv[1])
from magicborders import count_omega
start = time.perf_counter()
total = sum(count_omega(int(sys.argv[2])).values())
print(total, time.perf_counter() - start)
""" + PRINT_PEAK
# the layered counter on the key given as "n v w": its borders, nodes and
# seconds, then the peak
COUNTER_RUN = """
import sys, time
sys.path.insert(0, sys.argv[1])
from magicborders.enumeration import _BudgetState, _count
state = _BudgetState(None)
start = time.perf_counter()
total = _count(*map(int, sys.argv[2:]), state)
print(total, state.nodes, time.perf_counter() - start)
""" + PRINT_PEAK
# parse_document over the document in the file given
PARSE_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
from magicborders.documents import parse_document
with open(sys.argv[2], encoding="utf-8") as handle:
    parse_document(handle.read())
""" + PRINT_PEAK
# build_square of the order given, or the frame of that order with "frame"
# last, then serialize_grid of it in the format given, with the peak after each
WRITE_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
from magicborders import build_border, build_square
from magicborders.assemble import render_frame
from magicborders.documents import serialize_grid
order = int(sys.argv[2])
cells = render_frame(build_border(order - 2)).cells if sys.argv[4:] else build_square(order)
""" + PRINT_PEAK + """
serialize_grid(cells, sys.argv[3])
""" + PRINT_PEAK
PEAK_ORDER = 1500
# large enough that a repair costing one verifier call per candidate shows
TABLE_ORDER = 1000


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def fresh_run(script: str, *args) -> list[str]:
    """The words ``script`` prints in a fresh process run on ``args``."""
    run = subprocess.run(
        [sys.executable, "-c", script, str(SRC), *map(str, args)],
        check=True, capture_output=True, text=True,
    )
    return run.stdout.split()


def peaks_mib(script: str, *args: str) -> list[float]:
    """The peak RSS figures, in MiB, that ``script`` prints in a fresh
    process run on ``args``."""
    return [int(kib) / 1024 for kib in fresh_run(script, *args)]


def parse_peak_mib(text: str) -> float:
    """Peak RSS in MiB of a fresh process that reads ``text`` from a file
    and parses it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "document"
        path.write_text(text, encoding="utf-8")
        [peak] = peaks_mib(PARSE_RUN, str(path))
    return peak


def listed_total(n):
    return sum(1 for _ in enumerate_order(n))


def launch_ms(argv, env, stdin: str = "") -> float:
    start = time.perf_counter()
    subprocess.run(argv, check=True, input=stdin, stdout=subprocess.DEVNULL, env=env, text=True)
    return (time.perf_counter() - start) * 1e3


def cold_start() -> None:
    print(f"cold start, median of {COLD_LAUNCHES} fresh launches")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    square = serialize_grid(build_square(9), "grid")
    isolated = [sys.executable, "-I", "-S", "-c", AS_MODULE, str(SRC)]
    set_up, build, corner, verify, count, bare = [], [], [], [], [], []
    # one launch of each kind per round, so a slow phase of the host hits all six
    for _ in range(COLD_LAUNCHES):
        run = subprocess.run(
            [sys.executable, "-I", "-c", SET_UP, str(SRC)],
            check=True, capture_output=True, text=True,
        )
        set_up.append(float(run.stdout) * 1e3)
        build.append(
            launch_ms([sys.executable, "-m", "magicborders", "build", "--order", "9"], env)
        )
        corner.append(launch_ms(isolated + CORNER_BUILD, env))
        verify.append(launch_ms(isolated + VERIFY_BORDERED, env, square))
        count.append(launch_ms(isolated + COUNT_ONLY, env))
        bare.append(launch_ms([sys.executable, "-c", "pass"], env))
    print(f"  import + set-up (python -I, in-process): {statistics.median(set_up):7.2f} ms")
    print(f"  python -m magicborders build --order 9:  {statistics.median(build):7.2f} ms")
    for argv, times in ((CORNER_BUILD, corner), (VERIFY_BORDERED, verify), (COUNT_ONLY, count)):
        print(f"  python -I -S -m magicborders {' '.join(argv)}: "
              f"{statistics.median(times):7.2f} ms")
    print(f"  bare interpreter (python -c pass):        {statistics.median(bare):7.2f} ms")


def square_stages(order: int) -> tuple[float, float]:
    """``build_square``'s two stages timed apart, in seconds: the recipes,
    then the ring writes (the core square's cells with them).  The grid
    must equal ``build_square(order)``."""
    core = 3 if order % 2 else 4
    # inner orders of the rings, innermost first, as build_square takes them
    plans, t_recipes = timed(lambda: [construct._recipe(n) for n in range(core, order - 1, 2)])
    cells = [[0] * order for _ in range(order)]

    def write_rings():
        k = (order - core) // 2
        shift = ring_shift(order, k)
        for i, row in enumerate(base_square(core), start=k):
            cells[i][k : k + core] = [value + shift for value in row]
        for plan in plans:
            k = (order - plan.n - 2) // 2
            write_ring(cells, k, plan, ring_shift(order, k))

    _, t_write = timed(write_rings)
    assert cells == build_square(order)
    return t_recipes, t_write


def main() -> None:
    cold_start()

    print("border construction + verification")
    for n in (10, 50, 100, 500, 1000, 5000):
        plan, t_build = timed(build_border, n)
        report, t_check = timed(verify_border, plan)
        assert report.valid
        print(f"  n={n:>5}: build {t_build * 1e3:8.2f} ms   verify {t_check * 1e3:8.2f} ms")

    print("corner-prescribed borders, best of 3: (n; 1, 2) and the gap pair (n; 1, 2n+2)")
    for n in (400, 4000, 40000):
        times = []
        for corners in ((1, 2), (1, 2 * n + 2)):
            best = min(timed(construct_with_corners, n, *corners)[1] for _ in range(3))
            times.append(f"{corners[0]},{corners[1]} {best * 1e3:8.2f} ms")
        print(f"  n={n:>5}: " + "   ".join(times))

    print("tables --check, best of 3: the parameterized table audited at order m")
    best = min(timed(audit_order_m, TABLE_ORDER)[1] for _ in range(3))
    print(f"  m={TABLE_ORDER}: audit_order_m {best * 1e3:8.2f} ms")

    print("full bordered squares: build, verify, verify with cells (0,1) and (1,0) swapped")
    for order in (10, 20, 40, 80, 200, 400, 2003):
        square, t_build = timed(build_square, order)
        report, t_check = timed(verify_bordered, square)
        assert report.valid
        # the outer ring is broken and peeled cell by cell, the inner ones whole
        square[0][1], square[1][0] = square[1][0], square[0][1]
        report, t_swapped = timed(verify_bordered, square)
        assert not report.valid
        print(f"  N={order:>4}: build {t_build * 1e3:8.2f} ms   verify {t_check * 1e3:8.2f} ms   "
              f"swapped {t_swapped * 1e3:8.2f} ms")

    print("build_square by stage, best of 3: recipes (unchecked), ring writes")
    for order in (200, 2003):
        t_recipes, t_write = map(min, zip(*(square_stages(order) for _ in range(3))))
        print(f"  N={order:>4}: recipes {t_recipes * 1e3:8.2f} ms   "
              f"ring writes {t_write * 1e3:8.2f} ms")

    print("square documents: serialize, then parse")
    for order in (200, 1000, 2003):
        square = build_square(order)
        timings = []
        for fmt in FORMATS:
            text, t_write = timed(serialize_grid, square, fmt)
            doc, t_read = timed(parse_document, text)
            assert list(map(list, doc.cells)) == square
            timings.append(f"{fmt} {t_write * 1e3:7.1f} + {t_read * 1e3:7.1f} ms")
        print(f"  N={order:>4}: " + "   ".join(timings))
    print(f"  N={PEAK_ORDER}, peak RSS of a write (after build_square alone) and of a "
          "parse, each in a fresh process:")
    square = build_square(PEAK_ORDER)
    peaks = []
    for fmt in FORMATS:
        built, written = peaks_mib(WRITE_RUN, str(PEAK_ORDER), fmt)
        parsed = parse_peak_mib(serialize_grid(square, fmt))
        peaks.append(f"{fmt} write {written:6.1f} ({built:5.1f}), parse {parsed:6.1f} MiB")
    print("    " + "   ".join(peaks))
    print(f"  N={PEAK_ORDER} frame, render_frame(build_border({PEAK_ORDER - 2})): write time, "
          "and peak RSS of a write (after render_frame alone) in a fresh process:")
    frame = render_frame(build_border(PEAK_ORDER - 2)).cells
    peaks = []
    for fmt in FORMATS:
        _, t_write = timed(serialize_grid, frame, fmt)
        built, written = peaks_mib(WRITE_RUN, str(PEAK_ORDER), fmt, "frame")
        peaks.append(f"{fmt} {t_write * 1e3:6.1f} ms, {written:6.1f} ({built:5.1f}) MiB")
    print("    " + "   ".join(peaks))

    print("exact set-level counts per inner order: layered counter vs backtracker")
    for n in (3, 4, 5, 6, 7):
        counts, t_count = timed(count_omega, n)
        total = sum(counts.values())
        listed, t_list = timed(listed_total, n)
        assert listed == total
        print(f"  n={n}: {total:>6} borders over {len(counts)} corner pairs: "
              f"count_omega {t_count:6.2f} s   listing {t_list:6.2f} s")
    # too many borders to list: count_omega alone, against its known totals
    print("  count_omega alone, each row in a fresh process: time, peak RSS")
    for n, known in ((8, 8_234_012), (9, 136_332)):
        total, t_count, peak_kib = fresh_run(OMEGA_RUN, n)
        assert int(total) == known, (n, total)
        print(f"  n={n}: {known:>11} borders over {(2 * n + 2) * (2 * n + 1)} corner pairs: "
              f"{float(t_count):6.2f} s  {int(peak_kib) / 1024:6.1f} MiB")
    # single dense keys, whose largest layers set the counter's memory,
    # through the layered counter alone: time, nodes (live states stored), peak RSS
    for key, known in (((12, 1, 2), 593_867_307), ((16, 1, 2), 13_101_939_513_064)):
        total, nodes, t_count, peak_kib = fresh_run(COUNTER_RUN, *key)
        assert int(total) == known, (key, total)
        print(f"  ({key[0]}; {key[1]}, {key[2]}): {known:>14} borders: "
              f"{float(t_count):6.2f} s  {int(nodes):>9,} nodes  {int(peak_kib) / 1024:6.1f} MiB")


if __name__ == "__main__":
    main()
