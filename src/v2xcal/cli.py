"""Command-line front end: simulate, calibrate, pdr, heatmap, synth.

Every command resolves its configuration in one place and in one order: the
optional key=value file given by --config, then the synth route spec, then
--preset, then the command's field flags. Each subparser declares, next to
its flags, the configuration key each field flag sets. A command writes its
artifacts into --out together with resolved_config.txt, the echo of that
configuration, so a run can be reproduced from its own output directory.
--direction and --epoch-ms are not configuration keys, so the echo does not
record them; a run that used either needs it again.
Identical inputs and flags produce identical output bytes.

Exit codes: 0 success, 1 for errors in the content of an input file (the
message names the file), 2 for usage and startup errors (bad flags,
unreadable files, bad configuration keys, incompatible bin geometry, a
message rate that would schedule more than simulator.MAX_PACKETS packets, an
--out directory that cannot be created or written).
"""

from __future__ import annotations

import argparse
import functools
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
from .simulator import (BinCountError, BinWidthError, Direction, ScheduleError, heatmap,
                        pdr_curve, run_scenario)

log = logging.getLogger(__name__)

#: --direction choices mapped to the record filter they apply.
DIRECTION_CHOICES = {
    "both": None,
    "bsm": Direction.VEHICLE_TO_RSU,
    "spat": Direction.RSU_TO_VEHICLE,
}


class UsageError(Exception):
    """Bad flags, unreadable inputs, or inconsistent startup state: exit 2.

    Any ValueError that reaches main is an error in an input's content: exit 1.
    """


def _parse_file(path: str, parse, error=ValueError, binary=False):
    """parse(the text of path, or with binary the file opened in binary mode); undecodable or
    malformed content raises error naming path."""
    if not os.path.isfile(path):
        raise UsageError(f"no such file: {path}")
    try:
        with open(path, "rb") if binary else open(path, "r", encoding="utf-8") as fh:
            return parse(fh if binary else fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise error(f"{path}: {exc}") from None


def _config(args) -> RunConfig:
    """The run's configuration: --config, the synth spec, --preset, then the field flags.

    args.fields maps each field flag's dest to the "section.field" it sets;
    that field's dataclass checks the value.
    """
    config = _parse_file(args.config, parse_config, UsageError) if args.config else RunConfig()
    if getattr(args, "spec", None):
        config = _parse_file(args.spec, lambda text: parse_config(text, base=config), UsageError)
    if getattr(args, "preset", None):
        config = apply_preset(config, args.preset)
    for dest, key in args.fields.items():
        value = getattr(args, dest)
        if value is None:
            continue
        section, _, name = key.partition(".")
        try:
            if name == "frozen_genes":  # a bare gene name pins the resolved channel's value
                value = parse_frozen_genes(value, Genome.from_params(config.radio, config.fading))
            config = replace(config, **{section: replace(getattr(config, section), **{name: value})})
        except ValueError as exc:
            raise UsageError(f"--{dest.replace('_', '-')}: {exc}") from None
    if "freeze" in args.fields:
        # The frozen genes must make a valid channel before any input is read.
        try:
            base = Genome.from_params(config.radio, config.fading)
            replace(base, **dict(config.ga.frozen_genes)).to_params(config.radio, config.fading)
        except ValueError as exc:
            source = "--freeze" if args.freeze else f"{args.config}: ga.freeze"
            raise UsageError(f"{source}: {exc}") from None
    return config


def _write_outputs(args, config: RunConfig, documents: dict, summary: str) -> int:
    """Write each {file name: text} and the resolved configuration into --out,
    then print summary and the paths."""
    documents = {**documents, "resolved_config.txt": render_config(config)}
    paths = [os.path.join(args.out, name) for name in documents]
    try:
        os.makedirs(args.out, exist_ok=True)
        for path, text in zip(paths, documents.values()):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        raise UsageError(f"--out {args.out}: {exc}") from None
    print(summary.rstrip("\n"))
    for path in paths:
        print(f"wrote {path}")
    return 0


def _delivery_summary(sent: int, delivered: int) -> str:
    overall = 100.0 * delivered / sent if sent else 0.0
    return f"packets sent {sent}, delivered {delivered}, overall pdr {overall:.4f}%"


def _parse_enu_trace(args, config: RunConfig):
    """The trace args.trace names, projected about the configured RSU."""
    def parse(fh):
        trace = parse_trace_csv(fh, epoch_ms=args.epoch_ms)
        log.info("parsed %d trace records from %s", len(trace), args.trace)
        return project_enu(trace, config.rsu)
    return _parse_file(args.trace, parse, binary=True)


def cmd_simulate(args) -> int:
    config = _config(args)
    enu = _parse_enu_trace(args, config)
    delivery_log = run_scenario(enu, config.scenario, config.radio, config.fading)
    direction = _direction(delivery_log, args, args.trace)
    curve = pdr_curve(delivery_log, config.scenario.bin_width_m, direction)
    grid = heatmap(delivery_log, config.scenario.heatmap_cell_m, direction)

    return _write_outputs(args, config, {
        "log.csv": export_log_csv(delivery_log),
        "pdr.csv": export_pdr_csv(curve),
        "heatmap.csv": export_heatmap_csv(grid),
    }, _delivery_summary(len(delivery_log), delivery_log.delivered_count()))


def cmd_calibrate(args) -> int:
    config = _config(args)
    observed = _parse_file(args.observed_pdr, parse_pdr_csv)
    enu = _parse_enu_trace(args, config)

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
    except (BinCountError, ScheduleError):
        raise
    except ValueError as exc:
        raise ValueError(f"calibrating {args.observed_pdr} on {args.trace}: {exc}") from None

    summary = result_summary(result)
    return _write_outputs(args, config, {
        "history.csv": history_to_csv(result),
        "calibration_result.txt": summary,
    }, summary)


def _direction(delivery_log, args, path: str):
    """The --direction filter, which must keep a packet of the log made from path.

    A table of no packets would be written as a header-only CSV that no parser reads back.
    """
    direction = DIRECTION_CHOICES[args.direction]
    if not delivery_log.sent_in(direction).any():
        raise ValueError(f"{path}: no packets for --direction {args.direction}")
    return direction


def _read_log(args):
    """The log args.log names and its --direction filter."""
    delivery_log = _parse_file(args.log, parse_log_csv, binary=True)
    return delivery_log, _direction(delivery_log, args, args.log)


def cmd_pdr(args) -> int:
    config = _config(args)
    delivery_log, direction = _read_log(args)
    curve = pdr_curve(delivery_log, config.scenario.bin_width_m, direction)

    return _write_outputs(args, config, {"pdr.csv": export_pdr_csv(curve)},
                          f"{len(curve)} bins of {config.scenario.bin_width_m} m "
                          f"covering {curve.sent.sum()} packets")


def cmd_heatmap(args) -> int:
    config = _config(args)
    delivery_log, direction = _read_log(args)
    try:
        grid = heatmap(delivery_log, config.scenario.heatmap_cell_m, direction)
    except ValueError as exc:
        raise ValueError(f"{args.log}: {exc}") from None

    return _write_outputs(args, config, {"heatmap.csv": export_heatmap_csv(grid)},
                          f"{len(grid)} cells of {config.scenario.heatmap_cell_m} m "
                          f"covering {grid.sent.sum()} packets")


def cmd_synth(args) -> int:
    config = _config(args)
    try:
        trace, curve = generate_synthetic(config.synth, config.radio, config.fading, config.rsu,
                                          config.scenario)
    except BinCountError:
        raise
    except ValueError as exc:
        raise UsageError(f"synthetic route: {exc}") from None

    return _write_outputs(args, config, {
        "trace.csv": export_trace_csv(trace),
        "observed_pdr.csv": export_pdr_csv(curve),
        "planted_params.txt": planted_params_text(config),
    }, f"trace records {len(trace)}, "
       f"{_delivery_summary(int(curve.sent.sum()), int(curve.delivered.sum()))}")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="key=value configuration file")
    sub.add_argument("--out", metavar="DIR", default=".", help="output directory (default: .)")
    sub.add_argument("-v", "--verbose", action="count", default=0,
                     help="log progress to stderr (repeat for more detail)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: set_defaults binds each cmd_* function then."""
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
    p.set_defaults(func=cmd_simulate, fields={
        "seed": "scenario.master_seed", "bin_width": "scenario.bin_width_m",
        "cell": "scenario.heatmap_cell_m"})

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
    p.add_argument("--freeze", action="append", metavar="GENE[=VALUE]",
                   help="pin a gene for the whole search (repeatable)")
    p.add_argument("--bin-width", type=float, metavar="M", help="PDR bin width, meters")
    p.add_argument("--epoch-ms", action="store_true",
                   help="trace time column holds integer epoch milliseconds")
    p.set_defaults(func=cmd_calibrate, fields={
        "bin_width": "scenario.bin_width_m", "seed": "ga.master_seed",
        "generations": "ga.generations", "population": "ga.population_size",
        "jobs": "ga.jobs", "freeze": "ga.frozen_genes"})

    p = sub.add_parser("pdr", help="re-aggregate a delivery log into a PDR curve")
    _add_common(p)
    p.add_argument("log", help="delivery log CSV")
    p.add_argument("--bin-width", type=float, metavar="M", help="PDR bin width, meters")
    p.add_argument("--direction", choices=sorted(DIRECTION_CHOICES), default="both")
    p.set_defaults(func=cmd_pdr, fields={"bin_width": "scenario.bin_width_m"})

    p = sub.add_parser("heatmap", help="re-aggregate a delivery log into a spatial grid")
    _add_common(p)
    p.add_argument("log", help="delivery log CSV")
    p.add_argument("--cell", type=float, metavar="M", help="heatmap cell size, meters")
    p.add_argument("--direction", choices=sorted(DIRECTION_CHOICES), default="both")
    p.set_defaults(func=cmd_heatmap, fields={"cell": "scenario.heatmap_cell_m"})

    p = sub.add_parser("synth", help="generate a synthetic ground-truth dataset")
    _add_common(p)
    p.add_argument("spec", nargs="?",
                   help="route/channel spec file (key=value; default: bundled drive-by)")
    p.add_argument("--preset", choices=sorted(PRESET_GENOMES), help="planted channel preset")
    p.add_argument("--seed", type=int, metavar="N", help="dataset seed")
    p.set_defaults(func=cmd_synth, fields={"seed": "synth.seed"})

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    # The package's log lines go to this call's stderr, and only during it: a
    # handler left behind would hold a stream its caller may since have closed.
    package_log, handler = logging.getLogger("v2xcal"), logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    handler.setLevel(logging.WARNING - 10 * min(args.verbose, 2))
    level = package_log.level
    package_log.addHandler(handler)
    package_log.setLevel(handler.level)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BinCountError as exc:
        source = "scenario.bin_width_m" if getattr(args, "bin_width", None) is None else "--bin-width"
        print(f"error: {source}: {exc}", file=sys.stderr)
        return 2
    except ScheduleError as exc:  # simulate's or calibrate's; synth names its route
        print(f"error: {args.trace}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        package_log.removeHandler(handler)
        package_log.setLevel(level)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
