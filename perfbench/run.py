"""Benchmark of the magicborder command line, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload squares --seed 1 --seconds 20 --trace 0

One process, one thread, one client in a closed loop.  The seeded request
list of the workload first runs one whole untimed pass, so that every
per-key cache of the library is filled before timing starts, then in whole
timed passes until ``--seconds`` of request time is measured.  Every
outcome is checked, outside the timed span.  End-to-end times are scaled
to a reference host speed measured alongside them (see ``harness``).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of traced passes alternated with untraced ones.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.  The exit code is 0
when every outcome was correct, 1 when one was not, and 2 when the program
cannot be found or imported.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from harness import Runner, percentile, setup_times
from tracer import Tracer, unit_of
from workloads import WORKLOADS, fingerprint

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_LAUNCHES = 5  # before the first timed pass and after each one
RUN_LIMIT_S = 150  # passes stop early past this, so a slow program still ends in time


def timed_passes(runner, seconds: float, deadline: float, traced_too=False, between=None):
    """Untraced passes, each followed by a traced one when ``traced_too``.

    ``between`` is called before the first pass and after each one.
    """
    untraced, traced = [], []
    measured = 0.0
    while measured < seconds and time.perf_counter() < deadline:
        if between:
            between()
        result = runner.run_pass(deadline=deadline)
        untraced.append(result)
        measured += result.wall
        if traced_too:
            with Tracer() as tracer:
                result = runner.run_pass(tracer=tracer, deadline=deadline)
            traced.append((result, tracer.summary()))
            measured += result.wall
    if between:
        between()
    return untraced, traced


def request_medians(passes, scaled: bool) -> list[float]:
    """Each request's median latency over the passes that ran it.

    A percentile over single latencies moves with every stray delay of a
    request near it; over each request's median it moves only with the
    cost of the requests themselves.  ``scaled`` divides each latency by
    its pass's host slowdown first.
    """
    by_request: dict[int, list[float]] = {}
    for p in passes:
        factor = p.slowdown if scaled else 1.0
        for index, seconds in enumerate(p.latencies):
            by_request.setdefault(index, []).append(seconds / factor)
    return [statistics.median(values) for values in by_request.values()]


def end_to_end(runner, seconds: float, deadline: float):
    """End-to-end metrics; returns metrics, details, passes and extra failures.

    Times are divided by the host slowdown measured alongside them (see
    ``harness``); the unscaled figures go to the details.
    """
    # Set-up launches are spread over the run, so that a slow phase of the
    # host moves only some of them.  The first launch fills bytecode caches.
    setup_times(str(SRC), 1)
    setups, raw_setups, setup_slowdowns = [], [], []

    def launch():
        times, factor = setup_times(str(SRC), SETUP_LAUNCHES)
        setups.extend(t / factor for t in times)
        raw_setups.extend(times)
        setup_slowdowns.append(factor)

    passes, _ = timed_passes(runner, seconds, deadline, between=launch)
    passes = [p for p in passes if p.latencies]
    latencies = request_medians(passes, scaled=True)
    throughputs = [len(p.latencies) * p.slowdown / p.wall for p in passes]
    raw_latencies = request_medians(passes, scaled=False)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_rps": (statistics.median(throughputs), "1/s"),
        "latency_p50_ms": (percentile(latencies, 0.50) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies, 0.90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    details = {
        "timed_passes": len(passes),
        "latency_samples": len(latencies),
        "setup_launches": len(setups),
        "pass_slowdowns": [p.slowdown for p in passes],
        "setup_slowdowns": setup_slowdowns,
        "unscaled": {
            "setup_s": statistics.median(raw_setups),
            "throughput_rps": statistics.median(len(p.latencies) / p.wall for p in passes),
            "latency_p50_ms": percentile(raw_latencies, 0.50) * 1e3,
            "latency_p90_ms": percentile(raw_latencies, 0.90) * 1e3,
        },
    }
    return metrics, details, passes, []


def per_layer(runner, seconds: float, deadline: float):
    """Per-layer metrics; an outcome that changes under tracing is a failure."""
    untraced, traced = timed_passes(runner, seconds, deadline, traced_too=True)
    mismatches = []
    for plain, (result, _) in zip(untraced, traced):
        mismatches += [
            f"request {i}: outcome differs with tracing on"
            for i, (a, b) in enumerate(zip(plain.digests, result.digests))
            if a != b
        ]
    summaries = [summary for _, summary in traced]
    values = {name: statistics.median(s[name] for s in summaries) for name in summaries[0]}
    values["trace.wall_s"] = statistics.median(r.wall for r, _ in traced)
    values["trace.overhead_ratio"] = values["trace.wall_s"] / statistics.median(
        p.wall for p in untraced
    )
    metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    details = {"traced_passes": len(traced), "untraced_passes": len(untraced)}
    return metrics, details, untraced + [r for r, _ in traced], mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    if not (SRC / "magicborders" / "cli.py").is_file():
        print(f"error: no magicborders sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        from magicborders import cli
    except ImportError as exc:
        print(f"error: cannot import magicborders: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    requests = workload.generate(args.seed)
    runner = Runner(cli, workload, requests)
    warm = runner.run_pass(deadline=deadline)
    measure = per_layer if args.trace else end_to_end
    metrics, details, passes, failures = measure(runner, args.seconds, deadline)

    passes.append(warm)
    failures += [line for p in passes for line in p.failures]
    attempted = sum(len(p.latencies) for p in passes)
    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "fingerprint": fingerprint(requests),
        "requests_per_pass": len(requests),
        **details,
    }
    print(json.dumps(details))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
