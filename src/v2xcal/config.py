"""Plain-text run configuration shared by every command.

A configuration document is a sequence of ``section.field = value`` lines;
blank lines and ``#`` comments are ignored. Sections mirror the runtime
dataclasses: ``radio.*`` and ``fading.*`` describe the channel, ``scenario.*``
the replay, ``rsu.*`` the geodetic anchor of the site, ``synth.*`` the
synthetic-route recipe, and ``ga.*`` the calibration settings. Field names
match the dataclass fields, so the reference for every key is the type it
configures. Rendering uses repr() for floats, which round-trips exactly:
parse(render(config)) == config.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import math

from .calibration import GENE_NAMES, PRESET_GENOMES, GaConfig, Genome, format_gene_value
from .dataio import GeodeticPosition
from .propagation import (
    FadingParams,
    FastFadingModel,
    RadioParams,
    SlowFadingModel,
    SNR_THRESHOLDS_DB,
    SUPPORTED_DATA_RATES_MBPS,
)
from .simulator import ScenarioConfig


@dataclass(frozen=True)
class SynthSection:
    """Route recipe for the synth command: a waypoint polyline plus timing.

    The default is a straight 2 km drive past the site at 13.4 m/s, offset
    8 m from the antenna: small enough to regenerate in seconds, long
    enough that the far bins go quiet under the shipped calibrated channel.
    """

    waypoints_enu_m: tuple = ((-1000.0, 8.0, 0.0), (1000.0, 8.0, 0.0))
    leg_speeds_mps: tuple = (13.4,)
    duration_s: float = 150.0
    sample_rate_hz: float = 10.0
    seed: int = 1729

    def __post_init__(self):
        for point in self.waypoints_enu_m:
            if len(point) != 3 or not all(math.isfinite(c) for c in point):
                raise ValueError(f"waypoint {point!r} must be three finite coordinates")
        # Route shape (>= 2 waypoints, one speed per leg, positive speeds
        # and duration) is validated when the SyntheticSpec is built.


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one command invocation."""

    radio: RadioParams = RadioParams()
    fading: FadingParams = FadingParams()
    scenario: ScenarioConfig = ScenarioConfig()
    rsu: GeodeticPosition = GeodeticPosition(latitude_deg=45.0, longitude_deg=-93.0)
    synth: SynthSection = SynthSection()
    ga: GaConfig = GaConfig()


_SLOW_BY_VALUE = {m.value: m for m in SlowFadingModel}
_FAST_BY_VALUE = {m.value: m for m in FastFadingModel}

_RADIO_FLOAT_FIELDS = (
    "tx_power_mw",
    "antenna_gain_tx",
    "antenna_gain_rx",
    "carrier_frequency_hz",
    "noise_floor_dbm",
    "rx_sensitivity_dbm",
)
_FADING_FLOAT_FIELDS = (
    "alpha",
    "system_loss_db",
    "sigma_db",
    "nakagami_m",
    "reference_distance_m",
)
_SCENARIO_FLOAT_FIELDS = (
    "rsu_x_m",
    "rsu_y_m",
    "rsu_z_m",
    "bsm_rate_hz",
    "spat_rate_hz",
    "bin_width_m",
    "heatmap_cell_m",
)
_RSU_FLOAT_FIELDS = ("latitude_deg", "longitude_deg", "altitude_ft")
_GA_INT_FIELDS = (
    "population_size",
    "generations",
    "tournament_size",
    "elite_count",
    "master_seed",
    "jobs",
)
_GA_FLOAT_FIELDS = ("crossover_prob", "mutation_prob_per_gene", "mutation_sigma_fraction")

_SNR_KEYS = {f"snr_threshold_{rate}_mbps": rate for rate in SUPPORTED_DATA_RATES_MBPS}


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"value must be finite, got {text!r}")
    return value


def _parse_int(text: str) -> int:
    return int(text, 10)


def _parse_enum(text: str, table: dict, what: str):
    if text not in table:
        options = ", ".join(sorted(table))
        raise ValueError(f"unknown {what} {text!r} (expected one of: {options})")
    return table[text]


def parse_gene_value(name: str, text: str):
    """Convert the text form of one gene to its typed value."""
    if name not in GENE_NAMES:
        raise ValueError(f"unknown gene {name!r} (expected one of: {', '.join(GENE_NAMES)})")
    if name == "data_rate_mbps":
        return _parse_int(text)
    if name == "slow_model":
        return _parse_enum(text, _SLOW_BY_VALUE, "slow_model")
    if name == "fast_model":
        return _parse_enum(text, _FAST_BY_VALUE, "fast_model")
    return _parse_float(text)


def _parse_freeze(text: str) -> tuple:
    entries = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        name, sep, raw = token.partition("=")
        name = name.strip()
        if not sep:
            raise ValueError(f"freeze entry {token!r} must be gene=value")
        entries.append((name, parse_gene_value(name, raw.strip())))
    return tuple(entries)


def _format_freeze(frozen_genes: tuple) -> str:
    return ",".join(f"{name}={format_gene_value(name, value)}" for name, value in frozen_genes)


def _parse_waypoints(text: str) -> tuple:
    points = []
    for part in text.split(";"):
        coords = [c.strip() for c in part.split(",")]
        if len(coords) != 3:
            raise ValueError(f"waypoint {part.strip()!r} must be x,y,z")
        points.append(tuple(_parse_float(c) for c in coords))
    return tuple(points)


def _format_waypoints(points: tuple) -> str:
    return "; ".join(",".join(repr(float(c)) for c in point) for point in points)


def _parse_speeds(text: str) -> tuple:
    return tuple(_parse_float(part.strip()) for part in text.split(",") if part.strip())


def _format_speeds(speeds: tuple) -> str:
    return ",".join(repr(float(v)) for v in speeds)


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse a key=value document, layering values over base (or defaults).

    Unknown keys, duplicate keys, and malformed values are errors that name
    the offending line.
    """
    base = base if base is not None else RunConfig()
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        seen[key] = (lineno, value.strip())

    radio_kw, fading_kw, scenario_kw, rsu_kw, synth_kw, ga_kw = {}, {}, {}, {}, {}, {}
    snr_overrides = {}

    for key, (lineno, value) in seen.items():
        section, _, field_name = key.partition(".")
        try:
            if section == "radio" and field_name in _RADIO_FLOAT_FIELDS:
                radio_kw[field_name] = _parse_float(value)
            elif section == "radio" and field_name == "data_rate_mbps":
                radio_kw[field_name] = _parse_int(value)
            elif section == "fading" and field_name in _FADING_FLOAT_FIELDS:
                fading_kw[field_name] = _parse_float(value)
            elif section == "fading" and field_name == "slow_model":
                fading_kw[field_name] = _parse_enum(value, _SLOW_BY_VALUE, "slow_model")
            elif section == "fading" and field_name == "fast_model":
                fading_kw[field_name] = _parse_enum(value, _FAST_BY_VALUE, "fast_model")
            elif section == "scenario" and field_name in _SCENARIO_FLOAT_FIELDS:
                scenario_kw[field_name] = _parse_float(value)
            elif section == "scenario" and field_name == "master_seed":
                scenario_kw[field_name] = _parse_int(value)
            elif section == "scenario" and field_name in _SNR_KEYS:
                snr_overrides[_SNR_KEYS[field_name]] = _parse_float(value)
            elif section == "rsu" and field_name in _RSU_FLOAT_FIELDS:
                rsu_kw[field_name] = _parse_float(value)
            elif section == "synth" and field_name == "waypoints_enu_m":
                synth_kw[field_name] = _parse_waypoints(value)
            elif section == "synth" and field_name == "leg_speeds_mps":
                synth_kw[field_name] = _parse_speeds(value)
            elif section == "synth" and field_name in ("duration_s", "sample_rate_hz"):
                synth_kw[field_name] = _parse_float(value)
            elif section == "synth" and field_name == "seed":
                synth_kw[field_name] = _parse_int(value)
            elif section == "ga" and field_name in _GA_INT_FIELDS:
                ga_kw[field_name] = _parse_int(value)
            elif section == "ga" and field_name in _GA_FLOAT_FIELDS:
                ga_kw[field_name] = _parse_float(value)
            elif section == "ga" and field_name == "freeze":
                ga_kw["frozen_genes"] = _parse_freeze(value)
            else:
                raise ValueError(f"unknown configuration key {key!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None

    if snr_overrides:
        table = dict(SNR_THRESHOLDS_DB)
        existing = base.scenario.snr_table()
        if existing is not None:
            table.update(existing)
        table.update(snr_overrides)
        scenario_kw["snr_thresholds_db"] = tuple(sorted(table.items()))

    try:
        return RunConfig(
            radio=replace(base.radio, **radio_kw),
            fading=replace(base.fading, **fading_kw),
            scenario=replace(base.scenario, **scenario_kw),
            rsu=replace(base.rsu, **rsu_kw),
            synth=replace(base.synth, **synth_kw),
            ga=replace(base.ga, **ga_kw),
        )
    except ValueError as exc:
        raise ValueError(f"invalid configuration: {exc}") from None


def render_config(config: RunConfig) -> str:
    """Render the resolved configuration; the output parses back unchanged."""
    lines = []
    for name in _RADIO_FLOAT_FIELDS[:4]:
        lines.append(f"radio.{name} = {getattr(config.radio, name)!r}")
    lines.append(f"radio.data_rate_mbps = {config.radio.data_rate_mbps}")
    for name in _RADIO_FLOAT_FIELDS[4:]:
        lines.append(f"radio.{name} = {getattr(config.radio, name)!r}")
    lines.append(f"fading.slow_model = {config.fading.slow_model.value}")
    lines.append(f"fading.fast_model = {config.fading.fast_model.value}")
    for name in _FADING_FLOAT_FIELDS:
        lines.append(f"fading.{name} = {getattr(config.fading, name)!r}")
    for name in _SCENARIO_FLOAT_FIELDS:
        lines.append(f"scenario.{name} = {getattr(config.scenario, name)!r}")
    lines.append(f"scenario.master_seed = {config.scenario.master_seed}")
    if config.scenario.snr_thresholds_db is not None:
        for rate, threshold in sorted(config.scenario.snr_thresholds_db):
            lines.append(f"scenario.snr_threshold_{rate}_mbps = {float(threshold)!r}")
    for name in _RSU_FLOAT_FIELDS:
        lines.append(f"rsu.{name} = {getattr(config.rsu, name)!r}")
    lines.append(f"synth.waypoints_enu_m = {_format_waypoints(config.synth.waypoints_enu_m)}")
    lines.append(f"synth.leg_speeds_mps = {_format_speeds(config.synth.leg_speeds_mps)}")
    lines.append(f"synth.duration_s = {config.synth.duration_s!r}")
    lines.append(f"synth.sample_rate_hz = {config.synth.sample_rate_hz!r}")
    lines.append(f"synth.seed = {config.synth.seed}")
    for name in _GA_INT_FIELDS:
        lines.append(f"ga.{name} = {getattr(config.ga, name)}")
    for name in _GA_FLOAT_FIELDS:
        lines.append(f"ga.{name} = {getattr(config.ga, name)!r}")
    if config.ga.frozen_genes:
        lines.append(f"ga.freeze = {_format_freeze(config.ga.frozen_genes)}")
    return "\n".join(lines) + "\n"


def apply_preset(config: RunConfig, preset: str) -> RunConfig:
    """Overwrite the ten channel genes from a named preset genome."""
    if preset not in PRESET_GENOMES:
        options = ", ".join(sorted(PRESET_GENOMES))
        raise ValueError(f"unknown preset {preset!r} (expected one of: {options})")
    genome = PRESET_GENOMES[preset]()
    radio, fading = genome.to_params(config.radio, config.fading)
    return replace(config, radio=radio, fading=fading)


def planted_params_text(config: RunConfig) -> str:
    """Key=value record of the channel a synthetic dataset was planted with."""
    genome = Genome.from_params(config.radio, config.fading)
    lines = [f"{name} = {format_gene_value(name, getattr(genome, name))}" for name in GENE_NAMES]
    lines.append(f"seed = {config.synth.seed}")
    return "\n".join(lines) + "\n"


__all__ = [
    "RunConfig",
    "SynthSection",
    "apply_preset",
    "format_gene_value",
    "parse_config",
    "parse_gene_value",
    "planted_params_text",
    "render_config",
]
