#!/usr/bin/env python3
"""Timing and size report across orders: cold start, construction, corner
construction, assembly, documents, enumeration.

Everything here is deterministic; rerun after engine changes to spot
regressions in the growth curves.  The cold-start section launches fresh
interpreters on the ``src`` tree next to this script.
"""

import os
import statistics
import subprocess
import sys
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
from magicborders.assemble import ring_shift
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

# the layered counter over the keys given as "n,v,w" arguments; the peak
# RSS is the process's VmHWM, since ru_maxrss keeps the high-water mark of
# the large process that forked it
COUNTER_RUN = """
import sys, time
sys.path.insert(0, sys.argv[1])
from magicborders.enumeration import _BudgetState, _count
keys = [tuple(map(int, key.split(","))) for key in sys.argv[2:]]
state = _BudgetState(None)
start = time.perf_counter()
total = sum(_count(*key, state) for key in keys)
elapsed = time.perf_counter() - start
with open("/proc/self/status") as status:
    peak_kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(total, state.nodes, elapsed, peak_kib)
"""


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def counter_run(keys):
    """The layered counter over ``keys`` in a fresh process, with one budget
    state as ``count_omega`` spends it: borders, nodes, seconds, and the
    process's peak RSS in MiB."""
    run = subprocess.run(
        [sys.executable, "-c", COUNTER_RUN, str(SRC), *(",".join(map(str, k)) for k in keys)],
        check=True, capture_output=True, text=True,
    )
    total, nodes, elapsed, peak_kib = run.stdout.split()
    return int(total), int(nodes), float(elapsed), int(peak_kib) / 1024


def listed_total(n):
    return sum(1 for _ in enumerate_order(n))


def launch_ms(argv, env) -> float:
    start = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, env=env)
    return (time.perf_counter() - start) * 1e3


def cold_start() -> None:
    print(f"cold start, median of {COLD_LAUNCHES} fresh launches")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    set_up, build, bare = [], [], []
    # one launch of each kind per round, so a slow phase of the host hits all three
    for _ in range(COLD_LAUNCHES):
        run = subprocess.run(
            [sys.executable, "-I", "-c", SET_UP, str(SRC)],
            check=True, capture_output=True, text=True,
        )
        set_up.append(float(run.stdout) * 1e3)
        build.append(
            launch_ms([sys.executable, "-m", "magicborders", "build", "--order", "9"], env)
        )
        bare.append(launch_ms([sys.executable, "-c", "pass"], env))
    print(f"  import + set-up (python -I, in-process): {statistics.median(set_up):7.2f} ms")
    print(f"  python -m magicborders build --order 9:  {statistics.median(build):7.2f} ms")
    print(f"  bare interpreter (python -c pass):        {statistics.median(bare):7.2f} ms")


def square_stages(order: int) -> tuple[float, float]:
    """``build_square``'s two ring stages timed apart, in seconds: the
    recipes with one ``verify_border`` per ring (``build_border``), then
    the ring writes."""
    core = 3 if order % 2 else 4
    # inner orders of the rings, innermost first, as build_square takes them
    plans, t_plans = timed(lambda: [build_border(n) for n in range(core, order - 1, 2)])
    cells = [[0] * order for _ in range(order)]

    def write_rings():
        for plan in plans:
            k = (order - plan.n - 2) // 2
            write_ring(cells, k, plan, ring_shift(order, k))

    _, t_write = timed(write_rings)
    return t_plans, t_write


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

    print("full bordered squares")
    for order in (10, 20, 40, 80, 200, 400, 2003):
        square, t_build = timed(build_square, order)
        report, t_check = timed(verify_bordered, square)
        assert report.valid
        print(f"  N={order:>4}: build {t_build * 1e3:8.2f} ms   verify {t_check * 1e3:8.2f} ms")

    print("build_square by stage, best of 3: recipes + verify_border per ring, ring writes")
    for order in (200, 2003):
        stages = [square_stages(order) for _ in range(3)]
        t_plans, t_write = min(t for t, _ in stages), min(t for _, t in stages)
        print(f"  N={order:>4}: recipes + verify_border {t_plans * 1e3:8.2f} ms   "
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

    print("exact set-level counts per inner order: layered counter vs backtracker")
    for n in (3, 4, 5, 6, 7):
        counts, t_count = timed(count_omega, n)
        total = sum(counts.values())
        listed, t_list = timed(listed_total, n)
        assert listed == total
        print(f"  n={n}: {total:>6} borders over {len(counts)} corner pairs: "
              f"count_omega {t_count:6.2f} s   listing {t_list:6.2f} s")
    # too many borders to list: the counter alone, against its known totals
    print("  the counter alone, each row in a fresh process: time, nodes "
          "(live states stored), peak RSS")
    for n, known in ((8, 8_234_012), (9, 136_332)):
        # count_omega's keys: v < w, each count standing for (v, w) and (w, v)
        small = 2 * n + 2
        keys = [(n, v, w) for v in range(1, small + 1) for w in range(v + 1, small + 1)]
        total, nodes, t_count, peak = counter_run(keys)
        assert 2 * total == known, (n, 2 * total)
        print(f"  n={n}: {2 * total:>11} borders over {2 * len(keys)} corner pairs: "
              f"{t_count:6.2f} s  {nodes:>9,} nodes  {peak:6.1f} MiB")
    total, nodes, t_count, peak = counter_run([(12, 1, 2)])
    assert total == 593_867_307, total
    print(f"  (12; 1, 2): {total:>11} borders: {t_count:6.2f} s  {nodes:>9,} nodes  "
          f"{peak:6.1f} MiB")


if __name__ == "__main__":
    main()
