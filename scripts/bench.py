#!/usr/bin/env python3
"""Measure the stage table and the end-to-end commands, and write JSON.

Every stage of ``tests/costs.py``'s ``STAGES`` is measured, and so are
the three end-to-end commands.

    python scripts/bench.py [OUTPUT]

OUTPUT defaults to ``BENCH_baseline.json`` at the repository root.  The
``src`` tree next to this script is measured, never an installed copy.
Each stage entry holds, at the sizes the table fixes:

- ``sizes``: the table's ``pin``, ``wall`` and ``peak`` sizes;
- ``opcodes``, ``opcodes_by_module``, ``opcodes_by_code``: the Python
  opcodes one call executes at the pin size, in total, per module and per
  code object (``costs.opcodes``).  They move only with the code and the
  interpreter's version (``python``);
- ``wall_ms`` and ``wall_median_ms``: the best and the median of the
  calls at each wall size, set-up excluded: at least ``MIN_CALLS``, and
  more, up to ``MAX_CALLS``, until ``WALL_BUDGET_S`` of calls is spent;
- ``peak_mib``: the peak RSS (VmHWM) of a fresh process at the peak size,
  after it has loaded the call's arguments and after the call.

``end_to_end_ms`` holds whole processes (median of ``LAUNCHES``), and
the set-up line perfbench times before its workloads (``SET_UP``), timed
inside fresh ``python -I -S`` processes: its median and quartiles over
``SET_UP_LAUNCHES``.  ``counters`` holds machine-independent targets: the
opcodes each corner build runs in the search module (0: corners never
search), the layered counter's node totals, and the live states a
whole-order listing steps to.  Known counts are checked, and a wrong one fails the run.
"""

import argparse
import itertools
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "tests")]

from costs import STAGES, stage_opcodes  # noqa: E402
from magicborders import count_omega, enumerate_order  # noqa: E402
from magicborders.core import forbidden_by_parity  # noqa: E402
from magicborders.enumeration import _BudgetState, _count, _solutions  # noqa: E402

MIN_CALLS = 5
MAX_CALLS = 41
WALL_BUDGET_S = 0.5
LAUNCHES = 11
SET_UP_LAUNCHES = 41
SEARCH_MODULE = "magicborders.enumeration"
# the package as a command; -S keeps site-packages' .pth files out of the start-up
CLI = [sys.executable, "-S", "-m", "magicborders"]
PIPE = "build --order 200 | verify --bordered -"
# a command's argv, and what it must print; the bare interpreter is the
# floor under every launch, to compare figures across hosts and sessions
COMMANDS = {
    "build --order 10 --border-only --corners 1,4": (
        CLI + ["build", "--order", "10", "--border-only", "--corners", "1,4"], None
    ),
    "enumerate --order 5 --corners 1,3 --count-only": (
        CLI + ["enumerate", "--order", "5", "--corners", "1,3", "--count-only"], "8\n"
    ),
    "python -S -c pass": ([sys.executable, "-S", "-c", "pass"], ""),
}
# the inner orders whose whole listing's nodes are recorded
LISTED = (4, 5)
# the set-up line: the CLI imported, then one square border and one corner
# border built; a fresh process prints how long that took in ms, its own
# start left out
SET_UP = "set-up: import magicborders.cli; build_border(3); construct_with_corners(4, 1, 2)"
SET_UP_RUN = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import magicborders.cli
from magicborders import build_border, construct_with_corners
build_border(3)
construct_with_corners(4, 1, 2)
print((time.perf_counter() - start) * 1e3)
"""
# (stage, size): the total it must return
KNOWN = {
    ("count_omega", 8): 8_234_012,
    ("count_omega", 9): 136_332,
    ("count_borders", 12): 593_867_307,
    ("count_borders", 16): 13_101_939_513_064,
}
# a fresh process runs the call pickled in the file given and prints its
# VmHWM in KiB after loading the call and after running it
PEAK_RUN = """
import pickle, sys
def peak():
    with open("/proc/self/status") as status:
        return next(line.split()[1] for line in status if line.startswith("VmHWM:"))
with open(sys.argv[1], "rb") as handle:
    func, *args = pickle.load(handle)
loaded = peak()
func(*args)
print(loaded, peak())
"""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"bench: {what}")


def launch_ms(argv: list[str], env: dict, stdout: str | None) -> float:
    start = time.perf_counter()
    run = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    elapsed = time.perf_counter() - start
    expect(stdout is None or run.stdout == stdout, f"{argv[1:]} printed {run.stdout!r}")
    return elapsed * 1e3


def pipe_ms(env: dict) -> float:
    build_argv, verify_argv = (CLI + part.split() for part in PIPE.split(" | "))
    start = time.perf_counter()
    build = subprocess.Popen(build_argv, env=env, stdout=subprocess.PIPE)
    verify = subprocess.run(verify_argv, env=env, stdin=build.stdout, capture_output=True, text=True)
    build.stdout.close()
    ok = build.wait() == 0 and verify.stdout == "valid\n"
    elapsed = time.perf_counter() - start
    expect(ok, f"{PIPE} exited {build.returncode}, {verify.returncode}: {verify.stdout!r}")
    return elapsed * 1e3


def end_to_end(env: dict) -> dict[str, float]:
    times = {name: [] for name in [PIPE, *COMMANDS]}
    # one launch of each kind per round, so a slow phase of the host hits all
    for _ in range(LAUNCHES):
        times[PIPE].append(pipe_ms(env))
        for name, (argv, stdout) in COMMANDS.items():
            times[name].append(launch_ms(argv, env, stdout))
    return {name: round(statistics.median(ms), 2) for name, ms in times.items()}


def set_up_ms() -> dict[str, float]:
    # -I -S: neither PYTHONPATH nor site-packages, so only the line's own imports load
    argv = [sys.executable, "-I", "-S", "-c", SET_UP_RUN, str(SRC)]
    times = [
        float(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)
        for _ in range(SET_UP_LAUNCHES)
    ]
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def check_result(name: str, size: int, result) -> None:
    expect(getattr(result, "valid", True), f"{name} at {size} is not valid")
    if (name, size) in KNOWN:
        total = sum(result.values()) if isinstance(result, dict) else result
        expect(total == KNOWN[name, size], f"{name} at {size} counted {total}")


def call_ms(name: str, size: int) -> list[float]:
    """The times of the calls of stage ``name`` at ``size``, in ms."""
    func, *args = STAGES[name].call(size)
    times = []
    while len(times) < MIN_CALLS or (len(times) < MAX_CALLS and sum(times) < WALL_BUDGET_S):
        start = time.perf_counter()
        result = func(*args)
        times.append(time.perf_counter() - start)
        check_result(name, size, result)
        del result  # so that two results are never alive at once
    return [seconds * 1e3 for seconds in times]


def peak_mib(name: str, env: dict, tmp: Path) -> dict[str, float]:
    path = tmp / "call.pickle"
    path.write_bytes(pickle.dumps(STAGES[name].call(STAGES[name].peak)))
    run = subprocess.run(
        [sys.executable, "-S", "-c", PEAK_RUN, str(path)],
        env=env, capture_output=True, text=True, check=True,
    )
    loaded, after = (round(int(kib) / 1024, 1) for kib in run.stdout.split())
    return {"loaded": loaded, "after": after}


def measure(name: str, env: dict, tmp: Path) -> dict:
    stage = STAGES[name]
    counts = stage_opcodes(name, stage.pin)
    by_module = Counter()
    for (module, _), count in counts.items():
        by_module[module] += count
    walls = {str(size): call_ms(name, size) for size in stage.wall}
    return {
        "sizes": {"pin": stage.pin, "wall": list(stage.wall), "peak": stage.peak},
        "opcodes": sum(counts.values()),
        "opcodes_by_module": dict(sorted(by_module.items())),
        "opcodes_by_code": {f"{module}.{code}": n for (module, code), n in sorted(counts.items())},
        "wall_ms": {size: round(min(ms), 3) for size, ms in walls.items()},
        "wall_median_ms": {size: round(statistics.median(ms), 3) for size, ms in walls.items()},
        "peak_mib": peak_mib(name, env, tmp),
    }


def count_nodes(n: int) -> int:
    """The states the layered counter stores for ``count_borders``' key
    at inner order n."""
    _, key = STAGES["count_borders"].call(n)
    state = _BudgetState(None)
    _count(*key, state)
    return state.nodes


def listing_nodes(n: int) -> int:
    """The nodes ``enumerate_order(n)`` spends: the keys it searches, in
    its order, on one budget."""
    state = _BudgetState(None)
    for v, w in itertools.permutations(range(1, 2 * n + 3), 2):
        if not forbidden_by_parity(n, v, w):
            for _ in _solutions(n, v, w, state):
                pass
    return state.nodes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", nargs="?", type=Path, default=ROOT / "BENCH_baseline.json")
    output = parser.parse_args().output
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for n in range(3, 8):
        listed = sum(1 for _ in enumerate_order(n))
        expect(listed == sum(count_omega(n).values()), f"listing and counting differ at n={n}")
    with tempfile.TemporaryDirectory() as tmp:
        stages = {}
        for name in STAGES:
            stages[name] = measure(name, env, Path(tmp))
            print(f"{name}: {stages[name]['wall_ms']} ms", file=sys.stderr)
    search = {
        name: entry["opcodes_by_module"].get(SEARCH_MODULE, 0)
        for name, entry in stages.items()
        if name.startswith("construct_with_corners")
    }
    expect(not any(search.values()), f"a corner build searched: {search}")
    report = {
        "python": "%d.%d" % sys.version_info[:2],
        "python_version": platform.python_version(),
        "platform": platform.platform(),
        "end_to_end_ms": {**end_to_end(env), SET_UP: set_up_ms()},
        "counters": {
            "corner_search_opcodes": search,
            "count_borders_nodes": {str(n): count_nodes(n) for n in STAGES["count_borders"].wall},
            "enumerate_order_nodes": {str(n): listing_nodes(n) for n in LISTED},
        },
        "stages": stages,
    }
    output.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {output}", file=sys.stderr)


if __name__ == "__main__":
    main()
