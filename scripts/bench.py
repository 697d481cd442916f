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
- ``wall_ms``: the best of ``REPEATS`` calls at each wall size, set-up
  excluded;
- ``peak_mib``: the peak RSS (VmHWM) of a fresh process at the peak size,
  after it has loaded the call's arguments and after the call.

``end_to_end_ms`` holds whole processes (median of ``LAUNCHES``),
``counters`` machine-independent targets: the opcodes each corner build
runs in the search module (0: corners never search) and the layered
counter's node totals.  Known counts are checked, and a wrong one fails
the run.
"""

import argparse
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
from magicborders.enumeration import _BudgetState, _count  # noqa: E402

REPEATS = 3
LAUNCHES = 11
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


def check_result(name: str, size: int, result) -> None:
    expect(getattr(result, "valid", True), f"{name} at {size} is not valid")
    if (name, size) in KNOWN:
        total = sum(result.values()) if isinstance(result, dict) else result
        expect(total == KNOWN[name, size], f"{name} at {size} counted {total}")


def best_ms(name: str, size: int) -> float:
    func, *args = STAGES[name].call(size)
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = func(*args)
        best = min(best, time.perf_counter() - start)
        check_result(name, size, result)
        del result  # so that two results are never alive at once
    return round(best * 1e3, 3)


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
    return {
        "sizes": {"pin": stage.pin, "wall": list(stage.wall), "peak": stage.peak},
        "opcodes": sum(counts.values()),
        "opcodes_by_module": dict(sorted(by_module.items())),
        "opcodes_by_code": {f"{module}.{code}": n for (module, code), n in sorted(counts.items())},
        "wall_ms": {str(size): best_ms(name, size) for size in stage.wall},
        "peak_mib": peak_mib(name, env, tmp),
    }


def count_nodes(n: int) -> int:
    """The states the layered counter stores for ``count_borders``' key
    at inner order n."""
    _, key = STAGES["count_borders"].call(n)
    state = _BudgetState(None)
    _count(*key, state)
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
        "end_to_end_ms": end_to_end(env),
        "counters": {
            "corner_search_opcodes": search,
            "count_borders_nodes": {str(n): count_nodes(n) for n in STAGES["count_borders"].wall},
        },
        "stages": stages,
    }
    output.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {output}", file=sys.stderr)


if __name__ == "__main__":
    main()
