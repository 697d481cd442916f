"""In-process request execution, checked passes and set-up timing.

One client, one thread, closed loop: each request calls
``magicborders.cli.main(argv)`` with standard input and output redirected to
memory, and the next request starts when it returns.  Only the calls to
``main`` are timed; tampering with documents between pipeline steps and
every oracle check happen outside the timed span.

Host speed: on a shared host the machine runs faster or slower by up to a
third for seconds to a minute at a time, and every timing of a run moves
with it.  So a fixed pure-Python reference unit, which never calls the
library, is timed between requests, outside the timed span, about every
``CALIBRATE_EVERY_S`` of request time.  A pass's slowdown is the median
unit time over ``REFERENCE_UNIT_S``; the end-to-end times are divided by
it, which reports them at the reference speed.
"""

from __future__ import annotations

import io
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from workloads import Outcome, Request, swap_cells

# A fresh interpreter imports the CLI and finishes the library's lazy set-up
# (the seed tables are parsed, the order-3 recipe search runs and is cached)
# and prints how long that took, leaving out the interpreter's own start.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import magicborders.cli
from magicborders import build_border, construct_with_corners
build_border(3)
construct_with_corners(4, 1, 2)
print(time.perf_counter() - start)
"""


REFERENCE_LOOPS = 4000
# about the unit's median time on the 2-vCPU machine of the recorded baseline
REFERENCE_UNIT_S = 0.00045
CALIBRATE_EVERY_S = 0.02
SETUP_UNITS = 20  # reference units timed before each set-up launch and after the last


def reference_unit() -> float:
    """Seconds one fixed loop of integer arithmetic takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def slowdown(unit_times: list[float]) -> float:
    """How much slower than the reference speed the host ran."""
    return statistics.median(unit_times) / REFERENCE_UNIT_S


def call_main(cli, argv, stdin_text: str) -> tuple[int, str, float]:
    """Run ``cli.main(argv)`` in-process; return exit code, stdout and seconds."""
    out = io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), out, io.StringIO()
    start = time.perf_counter()
    try:
        code = cli.main(list(argv))
    finally:
        seconds = time.perf_counter() - start
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), seconds


def execute(cli, request: Request) -> Outcome:
    """Run a request's pipeline; a step that exits non-zero ends it."""
    codes, stdouts, seconds = [], [], 0.0
    stdin_text = ""
    for index, argv in enumerate(request.steps):
        try:
            if index and request.tamper:
                stdin_text = swap_cells(stdin_text, request.tamper)
            code, stdin_text, spent = call_main(cli, argv, stdin_text)
        except Exception as exc:  # a crash, or output too broken to tamper with, fails
            return Outcome(tuple(codes), tuple(stdouts), seconds, f"{type(exc).__name__}: {exc}")
        codes.append(code)
        stdouts.append(stdin_text)
        seconds += spent
        if code != 0:
            break
    return Outcome(tuple(codes), tuple(stdouts), seconds)


@dataclass
class PassResult:
    latencies: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    unit_times: list[float] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    @property
    def slowdown(self) -> float:
        return slowdown(self.unit_times)


class Runner:
    """Runs a workload's request list and checks every outcome."""

    def __init__(self, cli, workload, requests: list[Request]):
        self.cli = cli
        self.workload = workload
        self.requests = requests

    def run_pass(self, tracer=None, deadline: float = math.inf) -> PassResult:
        """One pass over the requests; stops early once ``deadline`` is past."""
        result = PassResult()
        since_unit = math.inf
        for index, request in enumerate(self.requests):
            if time.perf_counter() > deadline:
                break
            if since_unit >= CALIBRATE_EVERY_S:
                result.unit_times.append(reference_unit())
                since_unit = 0.0
            if tracer is not None:
                tracer.request = index
            outcome = execute(self.cli, request)
            result.latencies.append(outcome.seconds)
            since_unit += outcome.seconds
            result.digests.append(outcome.digest())
            try:
                problem = outcome.error or self.workload.check(request, outcome)
            except (ValueError, KeyError, IndexError, TypeError) as exc:  # unreadable output
                problem = f"{type(exc).__name__}: {exc}"
            if problem:
                pipeline = " | ".join(" ".join(argv) for argv in request.steps)
                result.failures.append(f"request {index} ({pipeline}): {problem}")
        return result


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def setup_times(src_dir: str, launches: int) -> tuple[list[float], float]:
    """Import and lazy set-up times of fresh interpreters, in seconds.

    Returns the times and the host slowdown measured around them.
    """
    command = [sys.executable, "-I", "-c", SETUP_CODE, src_dir]
    times, unit_times = [], []
    for _ in range(launches):
        unit_times += [reference_unit() for _ in range(SETUP_UNITS)]
        run = subprocess.run(command, check=True, capture_output=True, text=True, timeout=60)
        times.append(float(run.stdout))
    unit_times += [reference_unit() for _ in range(SETUP_UNITS)]
    return times, slowdown(unit_times)
