"""Tests of the benchmark itself: oracles, seeding, tracing and failure modes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from magicborders import cli  # noqa: E402

from harness import REFERENCE_UNIT_S, PassResult, Runner, call_main, execute  # noqa: E402
from run import request_medians  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    COUNT_TOTALS,
    WORKLOADS,
    Corners,
    Count,
    Request,
    Squares,
    bordered_square_problem,
    fingerprint,
    load_counts,
    parse_grid,
    swap_cells,
)


def small_squares(seed=3, limit=40):
    return [r for r in Squares().generate(seed) if r.expect[0] <= limit]


class Corrupting:
    """A stand-in CLI module whose main() misbehaves in a chosen way."""

    def __init__(self, extra_output="", exit_code=None):
        self.extra_output = extra_output
        self.exit_code = exit_code

    def main(self, argv):
        code = cli.main(argv)
        sys.stdout.write(self.extra_output)
        return code if self.exit_code is None else self.exit_code


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_the_same_fingerprint(name):
    workload = WORKLOADS[name]()
    first = fingerprint(workload.generate(7))
    assert fingerprint(workload.generate(7)) == first
    assert fingerprint(workload.generate(8)) != first


def test_squares_ladder_covers_every_residue_and_tampers_one_in_five():
    requests = Squares().generate(5)
    orders = [r.expect[0] for r in requests]
    assert {order % 4 for order in orders} == {0, 1, 2, 3}
    assert min(orders) == 5 and max(orders) == 200
    assert sum(r.tamper is not None for r in requests) == len(requests) // 5


@pytest.mark.parametrize("name", ["squares", "corners"])
def test_every_seed_asks_for_the_same_costly_work(name):
    def work(seed):
        requests = WORKLOADS[name]().generate(seed)
        if name == "squares":
            return sorted((r.expect, r.tamper is not None) for r in requests)
        # every image of a pair reduces to the same small ascending pair
        return sorted((n, *sorted(min(x, (n + 2) ** 2 + 1 - x) for x in (v, w)))
                      for n, v, w, feasible in (r.expect for r in requests) if feasible)

    assert work(1) == work(2)


def test_times_are_scaled_by_the_host_slowdown_of_their_pass():
    steady = PassResult(latencies=[0.001, 0.003], unit_times=[REFERENCE_UNIT_S] * 3)
    slow = PassResult(latencies=[0.002, 0.006], unit_times=[2 * REFERENCE_UNIT_S] * 3)
    assert slow.slowdown == pytest.approx(2)
    assert request_medians([steady, slow], scaled=True) == pytest.approx([0.001, 0.003])
    assert request_medians([steady, slow], scaled=False) == pytest.approx([0.0015, 0.0045])


def test_each_pass_times_the_reference_unit_between_requests():
    result = Runner(cli, Corners(), Corners().generate(4)[:20]).run_pass()
    assert result.unit_times and result.slowdown > 0


@pytest.mark.parametrize(
    "workload, requests",
    [
        (Squares(), small_squares()),
        (Corners(), Corners().generate(1)[:30]),
        (Count(), [r for r in Count().generate(1) if r.expect[0] == 5][:30]),
    ],
    ids=["squares", "corners", "count"],
)
def test_real_outputs_pass_and_corrupted_ones_fail(workload, requests):
    assert not Runner(cli, workload, requests).run_pass().failures
    wrong_output = Runner(Corrupting(extra_output="7\n"), workload, requests).run_pass()
    assert len(wrong_output.failures) == len(requests)
    wrong_code = Runner(Corrupting(exit_code=3), workload, requests).run_pass()
    assert len(wrong_code.failures) == len(requests)


def test_a_crash_counts_as_a_failure():
    class Crashing:
        def main(self, argv):
            raise RuntimeError("boom")

    requests = Corners().generate(2)[:5]
    result = Runner(Crashing(), Corners(), requests).run_pass()
    assert len(result.failures) == 5 and "boom" in result.failures[0]


def cli_output(argv):
    code, out, _ = call_main(cli, argv, "")
    assert code == 0
    return out


@pytest.mark.parametrize("fmt", ["grid", "csv", "json"])
def test_tampering_breaks_the_square_and_verify_rejects_it(fmt):
    order = 9
    built = cli_output(["build", "--order", str(order), "--format", fmt])
    assert bordered_square_problem(parse_grid(built, fmt), order) is None
    tamper = (fmt, (0, 0), (order - 1, 1))
    assert bordered_square_problem(parse_grid(swap_cells(built, tamper), fmt), order)
    request = Request(
        steps=(("build", "--order", str(order), "--format", fmt), ("verify", "--bordered", "-")),
        tamper=tamper,
        expect=(order, fmt),
    )
    outcome = execute(cli, request)
    assert outcome.codes == (0, 1) and outcome.stdouts[1].startswith("invalid")
    assert Squares().check(request, outcome) is None


def test_frozen_counts_match_the_known_totals():
    counts = load_counts()
    for n, total in COUNT_TOTALS.items():
        assert sum(c for (kn, _, _), c in counts.items() if kn == n) == total


def test_self_times_sum_to_no_more_than_the_traced_wall_time():
    runner = Runner(cli, Squares(), small_squares())
    with Tracer() as tracer:
        result = runner.run_pass(tracer=tracer)
    summary = tracer.summary()
    self_sum = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert 0 < self_sum <= result.wall
    assert summary["assemble.build_square.calls"] > 0
    assert summary["enumeration.search_first.calls"] == 0


def test_tracing_leaves_outcomes_unchanged_and_restores_bindings():
    from magicborders import corners, enumeration

    original = corners.search_first
    requests = Corners().generate(3)[:60]
    runner = Runner(cli, Corners(), requests)
    plain = runner.run_pass()
    with Tracer() as tracer:
        traced = runner.run_pass(tracer=tracer)
        assert corners.search_first is not original
    assert corners.search_first is original is enumeration.search_first
    assert plain.digests == traced.digests
    assert not plain.failures and not traced.failures


def test_a_layer_the_program_no_longer_has_reports_zero_calls():
    tracer = Tracer(layers=LAYERS + (("assemble", "no_such_function"),))
    with tracer:
        cli_output(["build", "--order", "7"])
    summary = tracer.summary()
    assert summary["assemble.no_such_function.calls"] == 0
    assert summary["assemble.no_such_function.self_s"] == 0
    assert summary["assemble.build_square.calls"] == 3  # orders 7, 5, 3


def test_benchmark_file_lists_exactly_the_per_layer_metrics_reported():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    reported = set(Tracer().summary()) | {"trace.wall_s", "trace.overhead_ratio"}
    assert {m["name"] for m in bench["per_layer"]} == reported
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)


def test_run_fails_without_a_result_when_the_sources_are_absent(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
