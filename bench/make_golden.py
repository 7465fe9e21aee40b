#!/usr/bin/env python3
"""Record the golden output hashes that run_bench.py checks every operation against.

    python3 bench/make_golden.py --case full --seeds 0-63
    python3 bench/make_golden.py --case tiny --seeds 0-0

Record them only from the commit whose output bytes are the reference:
hashes taken from a commit that changed an output would pass that change.
For each workload seed N (synth seed 1729 + N, GA seed 42 + N) this runs
synth, simulate, pdr, heatmap and calibrate at --jobs 1 and --jobs 2 once,
checks the invariants the benchmark relies on (simulate at the synth seed
rewrites the observed curve; the worker count changes no search output),
and stores each file's sha256 under "<synth seed>/<GA seed>" in golden.json,
keeping the entries already there.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run_bench


def record(case, synth_seed: int, ga_seed: int, main) -> dict:
    work = run_bench.WORK / f"golden-{case.name}-{synth_seed}-{ga_seed}"
    run_bench.write_route(case, work)
    try:
        hashes = {}
        for kind, step in run_bench.plan(case, work, synth_seed, ga_seed).items():
            if run_bench.call(main, step) != 0:
                raise SystemExit(f"{kind} failed for seeds {synth_seed}/{ga_seed}")
            hashes[kind] = run_bench.output_hashes(step)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if hashes["simulate"]["pdr.csv"] != hashes["synth"]["observed_pdr.csv"]:
        raise SystemExit(f"simulate does not reproduce the observed curve for seed {synth_seed}")
    for name in run_bench.SEARCH_OUTPUTS:
        if hashes["calibrate_jobs1"][name] != hashes[f"calibrate_jobs{run_bench.POOL_JOBS}"][name]:
            raise SystemExit(f"{name} depends on --jobs for seeds {synth_seed}/{ga_seed}")
    return hashes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", choices=sorted(run_bench.CASES), default="full")
    parser.add_argument("--seeds", default="0-0", metavar="FIRST-LAST",
                        help="inclusive range of workload seeds")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    case = run_bench.CASES[args.case]

    sys.path.insert(0, str(run_bench.SRC))
    from v2xcal.cli import main as cli_main

    with open(run_bench.GOLDEN, encoding="utf-8") as fh:
        table = json.load(fh)
    entries = table.setdefault(case.name, {})
    for seed in range(int(first), int(last or first) + 1):
        synth_seed = (run_bench.SYNTH_SEED + seed) % run_bench.SEED_MODULUS
        ga_seed = (run_bench.GA_SEED + seed) % run_bench.SEED_MODULUS
        entries[f"{synth_seed}/{ga_seed}"] = record(case, synth_seed, ga_seed, cli_main)
        print(f"seed {seed}: recorded", flush=True)
    with open(run_bench.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
