#!/usr/bin/env python3
"""Benchmark for the v2xcal command-line pipeline.

    python3 bench/run_bench.py --workload drive_simulate --seed 0 --seconds 10 --trace 0

Builds the acceptance dataset with ``synth`` (the 4 km, 300 s, 6,000-packet
drive of tests/test_acceptance.py), then runs one workload through
``v2xcal.cli.main`` in a closed loop: one client, in this process, issues
each operation after the previous one returns, with no extra threads.

Workloads (BENCHMARK.json says why each was chosen; layers.json maps each
per-layer metric to the end-to-end metric and workload it should move):

    drive_simulate    simulate trace.csv --preset calibrated
    log_reaggregate   pdr log.csv --bin-width 50 --direction bsm,
                      then heatmap log.csv --cell 25
    calibrate_search  the README calibrate (population 24, frozen noise floor
                      and data rate), cut to 2 generations, --jobs 1
    calibrate_pool    the same search at --jobs 2

``--seed N`` sets the synth seed to 1729 + N and the GA seed to 42 + N;
``--synth-seed`` and ``--ga-seed`` override either. Seed 0 is the acceptance
dataset. The program only ever sees the generated route file and CSVs.

Every operation's exit code and output bytes are checked. golden.json holds
the sha256 of each output as the reference code wrote it, for a table of
seeds; for a seed outside the table every repetition must match the run's
first one. Two invariants hold for any seed: simulate at the synth seed
rewrites the observed curve byte for byte, and --jobs 2 writes the same
history and result as --jobs 1 (checked against a --jobs 1 run when the
seed is outside the table, and in every traced run). A run whose checks
fail still prints its result line, with "correct": false, and exits 1.

``--trace 0`` reports the end-to-end metrics: median operation wall time,
set-up time (import plus the synth inputs, median over fresh processes)
and this process's peak resident memory. ``--trace 1`` alternates untraced
and traced operations and reports the per-layer metrics from spans
recorded around each module's public functions (see tracing.py).

The last stdout line is the result JSON; the line before it is the
environment block. A fuller record goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracing import LAYERS, Tracer, percentile, tail_percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"

SYNTH_SEED = 1729
GA_SEED = 42
SEED_MODULUS = 2**32
#: Trace mode alternates untraced and traced operations, so it needs four.
MIN_OPS = {0: 3, 1: 4}
POOL_JOBS = 2

ACCEPTANCE_ROUTE = (
    "synth.waypoints_enu_m = -2000.0,8.0,0.0; 2000.0,8.0,0.0\n"
    "synth.duration_s = 300.0\n"
)
TINY_ROUTE = (
    "synth.waypoints_enu_m = -300.0,8.0,0.0; 300.0,8.0,0.0\n"
    "synth.duration_s = 40.0\n"
)


@dataclass(frozen=True)
class Case:
    """Input size: the route driven, the GA budget, and set-up repeats."""

    name: str
    route: str
    population: int
    generations: int
    setup_repeats: int


#: Two generations keep a calibrate operation near 3 s on one core, so a
#: run holds several; population and seed stay those of the README search.
CASES = {
    "full": Case("full", ACCEPTANCE_ROUTE, population=24, generations=2, setup_repeats=3),
    "tiny": Case("tiny", TINY_ROUTE, population=4, generations=2, setup_repeats=1),
}

#: Outputs that must not depend on the worker count (acceptance #8); the
#: resolved configuration echoes --jobs, so it does.
SEARCH_OUTPUTS = ("history.csv", "calibration_result.txt")

OUTPUTS = {
    "synth": ("trace.csv", "observed_pdr.csv", "planted_params.txt", "resolved_config.txt"),
    "simulate": ("log.csv", "pdr.csv", "heatmap.csv", "resolved_config.txt"),
    "pdr": ("pdr.csv",),
    "heatmap": ("heatmap.csv",),
    "calibrate_jobs1": SEARCH_OUTPUTS + ("resolved_config.txt",),
    f"calibrate_jobs{POOL_JOBS}": SEARCH_OUTPUTS + ("resolved_config.txt",),
}


@dataclass(frozen=True)
class Workload:
    setup: tuple  # steps each set-up process runs after importing v2xcal
    op: tuple  # steps of one timed operation
    reference: str | None = None  # step run once after the loop, for comparison


WORKLOADS = {
    "drive_simulate": Workload(setup=("synth",), op=("simulate",)),
    "log_reaggregate": Workload(setup=("synth", "simulate"), op=("pdr", "heatmap")),
    "calibrate_search": Workload(setup=("synth",), op=("calibrate_jobs1",)),
    "calibrate_pool": Workload(setup=("synth",), op=(f"calibrate_jobs{POOL_JOBS}",),
                               reference="calibrate_jobs1"),
}

END_TO_END = {"cmd_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Spans reported per call: (span name, per-operation call-count metric).
TIMED = (
    ("simulator.run_scenario", "simulator.run_scenario_calls"),
    ("simulator.pdr_curve", "simulator.pdr_curve_calls"),
    ("simulator.heatmap", "simulator.heatmap_calls"),
    ("simulator.rmse", "simulator.rmse_calls"),
    ("propagation.nakagami_power_sample", "propagation.nakagami_calls"),
    ("propagation.deterministic_gain_db", "propagation.deterministic_gain_db_calls"),
    ("dataio.parse_trace_csv", "dataio.parse_trace_csv_calls"),
    ("dataio.project_enu", "dataio.project_enu_calls"),
    ("dataio.export_log_csv", "dataio.export_log_csv_calls"),
    ("dataio.parse_log_csv", "dataio.parse_log_csv_calls"),
    ("dataio.export_pdr_csv", "dataio.export_pdr_csv_calls"),
    ("dataio.export_heatmap_csv", "dataio.export_heatmap_csv_calls"),
    ("calibration.objective", "calibration.objective_calls"),
    ("calibration.history_to_csv", "calibration.history_to_csv_calls"),
)

#: Counts every operation of a run must repeat exactly.
COUNTS = ("simulator.packets", "propagation.gain_points", "dataio.rows_parsed",
          "dataio.rows_written", "calibration.evaluations")


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, calls in TIMED:
        units[f"{span}_ms"] = "ms"
        units[f"{span}_tail_ms"] = "ms"
        units[f"{span}_tail_pct"] = "%"
        units[calls] = "count"
    units.update(dict.fromkeys(COUNTS, "count"))
    units.update({
        "calibration.evolve_s": "s",
        "calibration.ga_self_s": "s",
        "calibration.best_rmse": "%",
        "calibration.distinct_genome_ratio": "ratio",
        "calibration.distinct_m_ratio": "ratio",
        "calibration.infeasible_ratio": "ratio",
        "calibration.pool_efficiency": "ratio",
    })
    units.update({f"{layer}.self_ms": "ms" for layer in LAYERS})
    units.update({
        "trace.cmd_s": "s",
        "trace.untraced_cmd_s": "s",
        "trace.overhead_pct": "%",
        "trace.self_sum_pct": "%",
        "trace.ops": "count",
    })
    return units


class BenchError(Exception):
    """The harness could not produce a result."""


@dataclass(frozen=True)
class Step:
    kind: str
    argv: tuple
    out: Path


def plan(case: Case, work: Path, synth_seed: int, ga_seed: int) -> dict:
    """Every command the benchmark can run, with inputs and outputs under work."""
    synth_dir, sim_dir = work / "synth", work / "simulate"
    trace = str(synth_dir / "trace.csv")
    log = str(sim_dir / "log.csv")

    def calibrate(jobs):
        out = work / f"calibrate_jobs{jobs}"
        argv = ("calibrate", str(synth_dir / "observed_pdr.csv"), trace,
                "--population", str(case.population), "--generations", str(case.generations),
                "--seed", str(ga_seed),
                "--freeze", "noise_floor_dbm=-90.0", "--freeze", "data_rate_mbps=18",
                "--jobs", str(jobs), "--out", str(out))
        return Step(f"calibrate_jobs{jobs}", argv, out)

    steps = [
        Step("synth", ("synth", str(work / "route.txt"), "--preset", "calibrated",
                       "--seed", str(synth_seed), "--out", str(synth_dir)), synth_dir),
        Step("simulate", ("simulate", trace, "--preset", "calibrated", "--seed", str(synth_seed),
                          "--out", str(sim_dir)), sim_dir),
        Step("pdr", ("pdr", log, "--bin-width", "50", "--direction", "bsm",
                     "--out", str(work / "pdr")), work / "pdr"),
        Step("heatmap", ("heatmap", log, "--cell", "25", "--out", str(work / "heatmap")),
             work / "heatmap"),
        calibrate(1),
        calibrate(POOL_JOBS),
    ]
    return {step.kind: step for step in steps}


def write_route(case: Case, work: Path) -> None:
    work.mkdir(parents=True, exist_ok=True)
    (work / "route.txt").write_text(case.route, encoding="utf-8")


def call(main, step: Step) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(step.argv))


def sha256_file(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return "missing"


def output_hashes(step: Step) -> dict:
    return {name: sha256_file(step.out / name) for name in OUTPUTS[step.kind]}


def load_golden(case: Case, synth_seed: int, ga_seed: int):
    with open(GOLDEN, encoding="utf-8") as fh:
        table = json.load(fh)
    return table.get(case.name, {}).get(f"{synth_seed}/{ga_seed}")


class Gate:
    """Counts operations and fails any whose exit code or output bytes differ.

    Expected hashes come from golden.json when the seeds are in its table;
    otherwise the first output of each kind becomes the reference that
    every later one must match.
    """

    def __init__(self, golden):
        self.expected = {kind: dict(files) for kind, files in (golden or {}).items()}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, step: Step, rc: int, hashes: dict, also=None) -> None:
        """Record one operation; ``also`` adds {file: sha256} it must match too."""
        self.attempted += 1
        expected = self.expected.setdefault(step.kind, hashes)
        wrong = [name for name in hashes if hashes[name] != expected.get(name)]
        wrong += [name for name, digest in (also or {}).items() if hashes[name] != digest]
        if rc != 0 or wrong:
            self.failed += 1
            self.problems.append(f"{step.kind}: exit {rc}, differing outputs {sorted(set(wrong))}")


def flip_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def run_setup(args, case: Case, workload: Workload, seeds: tuple, gate: Gate) -> tuple:
    """Run set-up in fresh processes; return (median seconds, samples, work dir)."""
    samples = []
    for k in range(case.setup_repeats):
        work = args.work / f"setup{k}"
        write_route(case, work)
        child = [sys.executable, str(Path(__file__).resolve()), "--setup-child", str(work),
                 "--workload", args.workload, "--synth-seed", str(seeds[0]),
                 "--ga-seed", str(seeds[1])] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(child, capture_output=True, text=True, timeout=170, check=False)
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed:\n{proc.stderr}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        steps = plan(case, work, *seeds)
        for kind in workload.setup:
            also = None
            if kind == "simulate":
                also = {"pdr.csv": output_hashes(steps["synth"])["observed_pdr.csv"]}
            gate.check(steps[kind], report["rc"][kind], output_hashes(steps[kind]), also)
        samples.append(report["seconds"])
    return statistics.median(sum(s.values()) for s in samples), samples, args.work / "setup0"


def setup_child(args) -> int:
    """One set-up: import v2xcal, then the workload's set-up steps; print timings."""
    start = perf_counter()
    from v2xcal.cli import main

    seconds = {"import": perf_counter() - start}
    rc = {}
    steps = plan(CASES["tiny" if args.tiny else "full"], Path(args.setup_child),
                 args.synth_seed, args.ga_seed)
    for kind in WORKLOADS[args.workload].setup:
        start = perf_counter()
        rc[kind] = call(main, steps[kind])
        seconds[kind] = perf_counter() - start
    print(json.dumps({"seconds": seconds, "rc": rc}))
    return 0


def run_op(main, steps) -> tuple:
    start = perf_counter()
    rcs = [call(main, step) for step in steps]
    return perf_counter() - start, rcs


def _git(*argv):
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *argv], capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(load_before) -> dict:
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    status = _git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
        "platform": platform.platform(),
        "git_sha": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": None if status is None else bool(status),
    }


def layer_metrics(ops, untraced_s, reference_evolve_s) -> dict:
    """Per-layer metrics from the traced operations' summaries."""
    counts = ops[0]["counts"]
    walls = [op["wall_s"] for op in ops]
    metrics = {}
    for span, calls in TIMED:
        samples = [d for op in ops for d in op["durations"].get(span, ())]
        pct = tail_percentile(len(samples))
        metrics[f"{span}_ms"] = 1e3 * statistics.median(samples) if samples else 0.0
        metrics[f"{span}_tail_ms"] = 1e3 * percentile(samples, pct) if samples else 0.0
        metrics[f"{span}_tail_pct"] = pct
        metrics[calls] = counts.get(span + ".calls", 0)
    for name in COUNTS:
        metrics[name] = counts.get(name, 0)

    evolve_s = [sum(op["durations"].get("calibration.evolve", ())) for op in ops]
    objective_s = [sum(op["durations"].get("calibration.objective", ())) for op in ops]
    evaluations = counts.get("calibration.evaluations", 0)
    nakagami = counts.get("calibration.nakagami_evaluations", 0)
    metrics["calibration.evolve_s"] = statistics.median(evolve_s)
    metrics["calibration.ga_self_s"] = statistics.median(
        e - o for e, o in zip(evolve_s, objective_s))
    metrics["calibration.best_rmse"] = counts.get("calibration.best_rmse", 0.0)
    metrics["calibration.distinct_genome_ratio"] = (
        counts.get("calibration.distinct_genomes", 0) / evaluations if evaluations else 0.0)
    metrics["calibration.distinct_m_ratio"] = (
        counts.get("calibration.distinct_m", 0) / nakagami if nakagami else 0.0)
    metrics["calibration.infeasible_ratio"] = (
        counts.get("calibration.infeasible", 0) / evaluations if evaluations else 0.0)
    metrics["calibration.pool_efficiency"] = (
        reference_evolve_s / (POOL_JOBS * metrics["calibration.evolve_s"])
        if reference_evolve_s else 0.0)

    self_ms = {layer: statistics.median(1e3 * op["self_s"][layer] for op in ops)
               for layer in LAYERS}
    traced_s = statistics.median(walls)
    untraced = statistics.median(untraced_s)
    metrics.update({f"{layer}.self_ms": value for layer, value in self_ms.items()})
    metrics.update({
        "trace.cmd_s": traced_s,
        "trace.untraced_cmd_s": untraced,
        "trace.overhead_pct": 100.0 * (traced_s / untraced - 1.0),
        "trace.self_sum_pct": 100.0 * sum(self_ms.values()) / (1e3 * traced_s),
        "trace.ops": len(ops),
    })
    return metrics


def benchmark(args) -> int:
    case = CASES["tiny" if args.tiny else "full"]
    workload = WORKLOADS[args.workload]
    seeds = (args.synth_seed, args.ga_seed)
    load_before = os.getloadavg()
    golden = load_golden(case, *seeds)
    gate = Gate(golden)

    setup_s, setup_samples, work = run_setup(args, case, workload, seeds, gate)

    start = perf_counter()
    from v2xcal.cli import main
    parent_import_s = perf_counter() - start

    steps = plan(case, work, *seeds)
    op_steps = [steps[kind] for kind in workload.op]
    observed = output_hashes(steps["synth"])["observed_pdr.csv"]
    untraced_s, traced = [], []
    deadline = perf_counter() + args.seconds
    i = 0
    while i < MIN_OPS[args.trace] or perf_counter() < deadline:
        if args.trace and i % 2 == 1:
            tracer = Tracer()
            with tracer:
                wall, rcs = run_op(main, op_steps)
            summary = tracer.summary(wall)
            summary["wall_s"] = wall
            traced.append(summary)
        else:
            wall, rcs = run_op(main, op_steps)
            untraced_s.append(wall)
        if args.flip_byte and i == 0:
            flip_byte(op_steps[0].out / OUTPUTS[op_steps[0].kind][0])
        for step, rc in zip(op_steps, rcs):
            also = {"pdr.csv": observed} if step.kind == "simulate" else None
            gate.check(step, rc, output_hashes(step), also)
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The --jobs 1 reference gives pool_efficiency its numerator and, for a
    # seed outside the golden table, the bytes the pool must reproduce.
    reference_evolve_s = None
    if workload.reference and (args.trace or golden is None):
        ref = steps[workload.reference]
        tracer = Tracer()
        with tracer:
            wall, (rc,) = run_op(main, [ref])
        reference_evolve_s = sum(tracer.summary(wall)["durations"]["calibration.evolve"])
        pool = gate.expected[workload.op[0]]
        gate.check(ref, rc, output_hashes(ref), {n: pool[n] for n in SEARCH_OUTPUTS})

    counts_ok = all(op["counts"] == traced[0]["counts"] for op in traced)
    if not counts_ok:
        gate.problems.append("exact counts differ between traced operations: "
                             + json.dumps([op["counts"] for op in traced]))

    if args.trace:
        values = layer_metrics(traced, untraced_s, reference_evolve_s)
        units = per_layer_units()
    else:
        values = {"cmd_s": statistics.median(untraced_s), "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    correct = gate.failed == 0 and counts_ok
    result = {
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    env = environment(load_before)
    cmd_pct = tail_percentile(len(untraced_s))
    record = {
        "workload": args.workload, "case": case.name, "trace": args.trace,
        "seed": args.seed, "synth_seed": seeds[0], "ga_seed": seeds[1],
        "seconds": args.seconds, "golden": "table" if golden else "self-consistency",
        "environment": env, "result": result, "problems": gate.problems,
        "untraced_op_s": untraced_s,
        "cmd_tail": {"pct": cmd_pct, "n": len(untraced_s),
                     "value_s": percentile(untraced_s, cmd_pct)},
        "setup_samples_s": setup_samples, "parent_import_s": parent_import_s,
        "traced_ops": [{"wall_s": op["wall_s"], "self_s": op["self_s"], "counts": op["counts"]}
                       for op in traced],
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-{case.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in gate.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0 if correct else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed N: synth seed 1729+N, GA seed 42+N")
    parser.add_argument("--synth-seed", type=int, help="override the synth seed")
    parser.add_argument("--ga-seed", type=int, help="override the GA seed")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure operations for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: a 600 m drive, population 4")
    parser.add_argument("--flip-byte", action="store_true",
                        help="self-test: corrupt one output byte of the first operation")
    parser.add_argument("--setup-child", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.synth_seed is None:
        args.synth_seed = (SYNTH_SEED + args.seed) % SEED_MODULUS
    if args.ga_seed is None:
        args.ga_seed = (GA_SEED + args.seed) % SEED_MODULUS
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "v2xcal" / "__init__.py").is_file():
        print(f"error: no v2xcal sources under {SRC}; run from a v2xcal checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_child:
        return setup_child(args)
    args.work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        return benchmark(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
