#!/usr/bin/env python3
"""Self-test of the benchmark harness on a tiny case.

    python3 bench/selftest.py

Runs every workload on a 600 m drive with population 4 and 2 generations,
untraced and traced, and checks that:

- each run's last line holds exactly the metrics BENCHMARK.json declares
  for its mode, each with its unit, and reports no failed operation;
- a flipped output byte is counted as a failed operation;
- two traced runs report identical exact counts;
- in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result;
- all of it finishes within SELFTEST_LIMIT_S.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from time import perf_counter

import run_bench

SELFTEST_LIMIT_S = 120.0
SCRIPT = str(run_bench.BENCH / "run_bench.py")


def bench(*argv, cwd=run_bench.ROOT):
    proc = subprocess.run([sys.executable, SCRIPT, "--tiny", "--seconds", "0.5", *argv],
                          capture_output=True, text=True, timeout=170, cwd=cwd, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def declared(spec: dict, trace: int) -> dict:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(spec, workload, trace, proc, result, failures) -> None:
    label = f"{workload} trace {trace}"
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{label}: no result line (exit {proc.returncode}): {proc.stderr[-500:]}")
        return
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared(spec, trace):
        failures.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(printed) ^ set(declared(spec, trace)))}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            failures.append(f"{label}: {name} is not a number: {value!r}")
    if proc.returncode != 0 or not result["correct"] or result["failed"] or result["attempted"] < 1:
        failures.append(f"{label}: exit {proc.returncode}, result {json.dumps(result)[:300]}, "
                        f"{proc.stderr[-500:]}")


#: Deterministic figures that are not counts.
EXACT_VALUES = ("calibration.best_rmse", "calibration.distinct_genome_ratio",
                "calibration.distinct_m_ratio", "calibration.infeasible_ratio")


def exact(result) -> dict:
    """The figures a traced run must repeat exactly: counts, search ratios, best RMSE."""
    return {name: m["value"] for name, m in result["metrics"].items()
            if (m["unit"] == "count" and name != "trace.ops") or name in EXACT_VALUES}


def main() -> int:
    start = perf_counter()
    with open(run_bench.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = []
    if [w["name"] for w in spec["workloads"]] != list(run_bench.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run_bench.WORKLOADS")
    if declared(spec, 1) != run_bench.per_layer_units():
        failures.append("BENCHMARK.json per_layer differs from run_bench.per_layer_units()")
    if declared(spec, 0) != run_bench.END_TO_END:
        failures.append("BENCHMARK.json end_to_end differs from run_bench.END_TO_END")

    traced = {}
    for workload in run_bench.WORKLOADS:
        for trace in (0, 1):
            proc, result = bench("--workload", workload, "--trace", str(trace))
            check_result(spec, workload, trace, proc, result, failures)
            if trace and result:
                traced[workload] = result

    proc, again = bench("--workload", "calibrate_search", "--trace", "1")
    if again is None or "calibrate_search" not in traced or \
            exact(again) != exact(traced["calibrate_search"]):
        failures.append("exact counts differ between two traced calibrate_search runs")

    proc, result = bench("--workload", "drive_simulate", "--flip-byte")
    if result is None or proc.returncode == 0 or result["correct"] or result["failed"] < 1:
        failures.append(f"a flipped output byte was not caught: exit {proc.returncode}, {result}")

    bare = run_bench.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run_bench.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run_bench.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "bench/run_bench.py", "--workload",
                               "drive_simulate", "--seconds", "1"], cwd=bare,
                              capture_output=True, text=True, timeout=170, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")

    elapsed = perf_counter() - start
    if elapsed > SELFTEST_LIMIT_S:
        failures.append(f"self-test took {elapsed:.1f} s, limit {SELFTEST_LIMIT_S} s")
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"selftest: {'FAIL' if failures else 'PASS'} in {elapsed:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
