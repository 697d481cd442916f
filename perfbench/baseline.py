"""Run every workload over two sets of seeds and record the spread of each metric.

Usage, from the repository root:

    python3 perfbench/baseline.py

Writes ``perfbench/baseline.json``.  Runs are sequential.  Each workload
in ``BENCHMARK.json`` runs once for each of seeds 1..10 and once for each
of seeds 11..20, then once traced.  For each set and end-to-end metric
the output holds the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median.
For each metric, ``drift`` is how much worse the second set's median is
than the first's, as a share of the first, next to the metric's bound.
The traced run adds the per-layer values.  The machine it ran on is
recorded with them.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
SEED_SETS = (range(1, 11), range(11, 21))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["details"] = json.loads(lines[-2])
    return result


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def seed_set(workload: str, seeds: range, seconds: int) -> dict:
    results = [run_once(workload, seed, seconds, 0) for seed in seeds]
    return {
        "seeds": [seeds.start, seeds.stop - 1],
        "fingerprints": [r["details"]["fingerprint"] for r in results],
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "end_to_end": {
            name: spread([r["metrics"][name]["value"] for r in results])
            for name in results[0]["metrics"]
        },
    }


def drift(metric: dict, first: dict, second: dict) -> dict:
    """How much worse the second median is than the first, against the bound."""
    a, b = first["median"], second["median"]
    worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
    return {"drift": worse, "bound": metric["bound"], "within": worse <= metric["bound"]}


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    report = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        sets = [seed_set(workload, seeds, seconds) for seeds in SEED_SETS]
        traced = run_once(workload, 1, seconds, 1)
        report["workloads"][workload] = {
            "sets": sets,
            "drift": {
                m["name"]: drift(m, *(s["end_to_end"][m["name"]] for s in sets))
                for m in bench["end_to_end"]
            },
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(workload, json.dumps(report["workloads"][workload]["drift"]), file=sys.stderr)
    OUT.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
