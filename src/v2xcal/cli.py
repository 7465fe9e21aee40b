"""Command-line front end: simulate, calibrate, pdr, heatmap, synth.

Every command reads an optional key=value configuration file, layers preset
and flag overrides on top, writes its artifacts into --out, and echoes the
fully resolved configuration next to them so any run can be reproduced from
its own output directory. Identical inputs and flags produce identical
output bytes.

Exit codes: 0 success, 1 for errors in the content of an input file,
2 for usage and startup errors (bad flags, unreadable files, bad
configuration keys, incompatible bin geometry).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

from .calibration import (
    Genome,
    PRESET_GENOMES,
    evolve,
    history_to_csv,
    parse_frozen_genes,
    result_summary,
)
from .config import RunConfig, apply_preset, parse_config, planted_params_text, render_config
from .dataio import (
    TraceParseError,
    export_log_csv,
    export_pdr_csv,
    export_heatmap_csv,
    export_trace_csv,
    generate_synthetic,
    parse_log_csv,
    parse_pdr_csv,
    parse_trace_csv,
    project_enu,
)
from .simulator import BinWidthError, Direction, heatmap, pdr_curve, run_scenario

log = logging.getLogger(__name__)

#: --direction choices mapped to the record filter they apply.
DIRECTION_CHOICES = {
    "both": None,
    "bsm": Direction.VEHICLE_TO_RSU,
    "spat": Direction.RSU_TO_VEHICLE,
}


class UsageError(Exception):
    """Bad flags, unreadable inputs, or inconsistent startup state: exit 2."""


class DataError(Exception):
    """Malformed content inside an otherwise readable input: exit 1."""


def _read_text(path: str) -> str:
    if not os.path.isfile(path):
        raise UsageError(f"no such file: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _write_outputs(args, documents: dict, summary: str) -> int:
    """Write each {file name: text} into --out, then print summary and the paths."""
    os.makedirs(args.out, exist_ok=True)
    paths = [os.path.join(args.out, name) for name in documents]
    for path, text in zip(paths, documents.values()):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    print(summary.rstrip("\n"))
    for path in paths:
        print(f"wrote {path}")
    return 0


def _load_config(args) -> RunConfig:
    config = RunConfig()
    if getattr(args, "config", None):
        try:
            config = parse_config(_read_text(args.config))
        except ValueError as exc:
            raise UsageError(f"{args.config}: {exc}") from None
    return config


def _apply_preset_flag(config: RunConfig, args) -> RunConfig:
    if getattr(args, "preset", None):
        try:
            config = apply_preset(config, args.preset)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    return config


#: --bin-width and --cell: flag dest -> the "section.field" it sets.
_GRID_FLAGS = {"bin_width": "scenario.bin_width_m", "cell": "scenario.heatmap_cell_m"}


def _apply_field_flags(config: RunConfig, args, flags: dict) -> RunConfig:
    """Set the "section.field" that each given flag names; that field's dataclass checks it."""
    for dest, key in flags.items():
        value = getattr(args, dest, None)
        if value is None:
            continue
        section, _, name = key.partition(".")
        try:
            updated = replace(getattr(config, section), **{name: value})
        except ValueError as exc:
            raise UsageError(f"--{dest.replace('_', '-')}: {exc}") from None
        config = replace(config, **{section: updated})
    return config


def _parse_enu_trace(args, config: RunConfig, path: str):
    try:
        trace = parse_trace_csv(_read_text(path), epoch_ms=getattr(args, "epoch_ms", False))
    except TraceParseError as exc:
        raise DataError(f"{path}: {exc}") from None
    log.info("parsed %d trace records from %s", len(trace), path)
    try:
        return project_enu(trace, config.rsu)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def cmd_simulate(args) -> int:
    config = _apply_field_flags(_apply_preset_flag(_load_config(args), args), args,
                                {**_GRID_FLAGS, "seed": "scenario.master_seed"})

    enu = _parse_enu_trace(args, config, args.trace)
    delivery_log = run_scenario(enu, config.scenario, config.radio, config.fading)
    direction = DIRECTION_CHOICES[args.direction]
    curve = pdr_curve(delivery_log, config.scenario.bin_width_m, direction)
    grid = heatmap(delivery_log, config.scenario.heatmap_cell_m, direction)

    documents = {
        "log.csv": export_log_csv(delivery_log),
        "pdr.csv": export_pdr_csv(curve),
        "heatmap.csv": export_heatmap_csv(grid),
        "resolved_config.txt": render_config(config),
    }
    sent = len(delivery_log)
    delivered = delivery_log.delivered_count()
    overall = 100.0 * delivered / sent if sent else 0.0
    return _write_outputs(args, documents, f"packets sent {sent}, delivered {delivered}, "
                                           f"overall pdr {overall:.4f}%")


def cmd_calibrate(args) -> int:
    config = _apply_field_flags(_apply_preset_flag(_load_config(args), args), args, {
        **_GRID_FLAGS, "seed": "ga.master_seed", "generations": "ga.generations",
        "population": "ga.population_size", "jobs": "ga.jobs"})
    base = Genome.from_params(config.radio, config.fading)
    try:
        if args.freeze:
            frozen = parse_frozen_genes(args.freeze, base)
            config = replace(config, ga=replace(config.ga, frozen_genes=frozen))
        # The frozen genes must make a valid channel before any input is read.
        replace(base, **dict(config.ga.frozen_genes)).to_params(config.radio, config.fading)
    except ValueError as exc:
        source = "--freeze" if args.freeze else f"{args.config}: ga.freeze"
        raise UsageError(f"{source}: {exc}") from None

    observed_text = _read_text(args.observed_pdr)
    enu = _parse_enu_trace(args, config, args.trace)
    try:
        observed = parse_pdr_csv(observed_text)
    except ValueError as exc:
        raise DataError(f"{args.observed_pdr}: {exc}") from None

    log.info(
        "calibrating: population %d, generations %d, seed %d",
        config.ga.population_size,
        config.ga.generations,
        config.ga.master_seed,
    )
    try:
        result = evolve(config.ga, observed, enu, config.scenario,
                        base_radio=config.radio, base_fading=config.fading)
    except BinWidthError as exc:
        raise UsageError(f"{args.observed_pdr}: {exc} m (observed vs configured)") from None
    except ValueError as exc:
        raise DataError(f"calibrating {args.observed_pdr} on {args.trace}: {exc}") from None

    summary = result_summary(result)
    return _write_outputs(args, {
        "history.csv": history_to_csv(result),
        "calibration_result.txt": summary,
        "resolved_config.txt": render_config(config),
    }, summary)


def _read_log(args):
    """The log args.log names and the --direction filter, which must keep a packet.

    A table of no packets would be written as a header-only CSV that no parser reads back.
    """
    try:
        delivery_log = parse_log_csv(_read_text(args.log))
    except ValueError as exc:
        raise DataError(f"{args.log}: {exc}") from None
    direction = DIRECTION_CHOICES[args.direction]
    if not delivery_log.sent_in(direction).any():
        raise DataError(f"{args.log}: no packets for --direction {args.direction}")
    return delivery_log, direction


def cmd_pdr(args) -> int:
    config = _apply_field_flags(_load_config(args), args, _GRID_FLAGS)
    delivery_log, direction = _read_log(args)
    curve = pdr_curve(delivery_log, config.scenario.bin_width_m, direction)

    return _write_outputs(args, {"pdr.csv": export_pdr_csv(curve)},
                          f"{len(curve)} bins of {config.scenario.bin_width_m} m "
                          f"covering {curve.sent.sum()} packets")


def cmd_heatmap(args) -> int:
    config = _apply_field_flags(_load_config(args), args, _GRID_FLAGS)
    delivery_log, direction = _read_log(args)
    grid = heatmap(delivery_log, config.scenario.heatmap_cell_m, direction)

    return _write_outputs(args, {"heatmap.csv": export_heatmap_csv(grid)},
                          f"{len(grid)} cells of {config.scenario.heatmap_cell_m} m "
                          f"covering {grid.sent.sum()} packets")


def cmd_synth(args) -> int:
    config = _load_config(args)
    if args.spec:
        try:
            config = parse_config(_read_text(args.spec), base=config)
        except ValueError as exc:
            raise UsageError(f"{args.spec}: {exc}") from None
    config = _apply_field_flags(_apply_preset_flag(config, args), args, {"seed": "synth.seed"})

    try:
        trace, delivery_log, curve = generate_synthetic(config.synth, config.radio, config.fading,
                                                        config.rsu, config.scenario)
    except ValueError as exc:
        raise UsageError(f"synthetic route: {exc}") from None

    documents = {
        "trace.csv": export_trace_csv(trace),
        "observed_pdr.csv": export_pdr_csv(curve),
        "planted_params.txt": planted_params_text(config),
        "resolved_config.txt": render_config(config),
    }
    sent = len(delivery_log)
    delivered = delivery_log.delivered_count()
    overall = 100.0 * delivered / sent if sent else 0.0
    return _write_outputs(args, documents, f"trace records {len(trace)}, packets sent {sent}, "
                                           f"delivered {delivered}, overall pdr {overall:.4f}%")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="key=value configuration file")
    sub.add_argument("--out", metavar="DIR", default=".", help="output directory (default: .)")
    sub.add_argument("-v", "--verbose", action="count", default=0,
                     help="log progress to stderr (repeat for more detail)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="v2xcal",
        description="V2X channel simulation and calibration toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("simulate", help="replay a trace CSV through the channel")
    _add_common(p)
    p.add_argument("trace", help="vehicle trace CSV")
    p.add_argument("--preset", choices=sorted(PRESET_GENOMES), help="named channel preset")
    p.add_argument("--seed", type=int, metavar="N", help="scenario master seed")
    p.add_argument("--bin-width", type=float, metavar="M", help="PDR bin width, meters")
    p.add_argument("--cell", type=float, metavar="M", help="heatmap cell size, meters")
    p.add_argument("--direction", choices=sorted(DIRECTION_CHOICES), default="both",
                   help="restrict PDR/heatmap aggregation to one message direction")
    p.add_argument("--epoch-ms", action="store_true",
                   help="trace time column holds integer epoch milliseconds")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="fit the channel genome to an observed PDR curve")
    _add_common(p)
    p.add_argument("observed_pdr", help="observed PDR curve CSV")
    p.add_argument("trace", help="vehicle trace CSV the curve was measured on")
    p.add_argument("--preset", choices=sorted(PRESET_GENOMES),
                   help="channel preset supplying non-gene base parameters")
    p.add_argument("--seed", type=int, metavar="N", help="search master seed")
    p.add_argument("--generations", type=int, metavar="N", help="number of generations")
    p.add_argument("--population", type=int, metavar="N", help="population size")
    p.add_argument("--jobs", type=int, metavar="N",
                   help="accepted for compatibility; the search runs in one process "
                        "and its results never depend on N")
    p.add_argument("--freeze", action="append", metavar="GENE[=VALUE]", default=[],
                   help="pin a gene for the whole search (repeatable)")
    p.add_argument("--bin-width", type=float, metavar="M", help="PDR bin width, meters")
    p.add_argument("--epoch-ms", action="store_true",
                   help="trace time column holds integer epoch milliseconds")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("pdr", help="re-aggregate a delivery log into a PDR curve")
    _add_common(p)
    p.add_argument("log", help="delivery log CSV")
    p.add_argument("--bin-width", type=float, metavar="M", help="PDR bin width, meters")
    p.add_argument("--direction", choices=sorted(DIRECTION_CHOICES), default="both")
    p.set_defaults(func=cmd_pdr)

    p = sub.add_parser("heatmap", help="re-aggregate a delivery log into a spatial grid")
    _add_common(p)
    p.add_argument("log", help="delivery log CSV")
    p.add_argument("--cell", type=float, metavar="M", help="heatmap cell size, meters")
    p.add_argument("--direction", choices=sorted(DIRECTION_CHOICES), default="both")
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("synth", help="generate a synthetic ground-truth dataset")
    _add_common(p)
    p.add_argument("spec", nargs="?",
                   help="route/channel spec file (key=value; default: bundled drive-by)")
    p.add_argument("--preset", choices=sorted(PRESET_GENOMES), help="planted channel preset")
    p.add_argument("--seed", type=int, metavar="N", help="dataset seed")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s", force=True)

    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
