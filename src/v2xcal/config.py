"""Plain-text run configuration shared by every command.

A configuration document is a sequence of ``section.field = value`` lines;
blank lines and ``#`` comments are ignored. Sections mirror the runtime
dataclasses: ``radio.*`` and ``fading.*`` describe the channel, ``scenario.*``
the replay, ``rsu.*`` the geodetic anchor of the site, ``synth.*`` the
synthetic-route recipe, and ``ga.*`` the calibration settings. The keys are
read off those dataclasses: each section's fields in declaration order, a
scalar written and read by the type of its default (calibration's
typed_formatter and parse_typed_value: repr of a float, a base-10 int,
an enum by value). Four fields are not one scalar and have their own text
forms: ``synth.waypoints_enu_m``, ``synth.leg_speeds_mps``, the per-rate
``scenario.snr_threshold_<rate>_mbps`` lines of ``snr_thresholds_db`` and
``ga.freeze`` for ``frozen_genes``. Rendering round-trips exactly:
parse(render(config)) == config.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .calibration import (
    PRESET_GENOMES,
    GaConfig,
    Genome,
    format_gene_value,
    gene_lines,
    parse_frozen_genes,
    parse_typed_value,
    typed_formatter,
)
from .dataio import GeodeticPosition, SynthSection
from .propagation import FadingParams, RadioParams, SNR_THRESHOLDS_DB, SUPPORTED_DATA_RATES_MBPS
from .simulator import ScenarioConfig


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one command invocation."""

    radio: RadioParams = RadioParams()
    fading: FadingParams = FadingParams()
    scenario: ScenarioConfig = ScenarioConfig()
    rsu: GeodeticPosition = GeodeticPosition(latitude_deg=45.0, longitude_deg=-93.0)
    synth: SynthSection = SynthSection()
    ga: GaConfig = GaConfig()


_SECTIONS = tuple(f.name for f in fields(RunConfig))
_DEFAULTS = RunConfig()


def _fields(section: str) -> list:
    """(name, default value) of a section's fields, in declaration order."""
    defaults = getattr(_DEFAULTS, section)
    return [(f.name, getattr(defaults, f.name)) for f in fields(defaults)]


def _parse_float(text: str) -> float:
    return parse_typed_value("value", text, 0.0)


def _parse_waypoints(text: str) -> tuple:
    points = []
    for part in text.split(";"):
        coords = [c.strip() for c in part.split(",")]
        if len(coords) != 3:
            raise ValueError(f"waypoint {part.strip()!r} must be x,y,z")
        points.append(tuple(_parse_float(c) for c in coords))
    return tuple(points)


def _parse_speeds(text: str) -> tuple:
    return tuple(_parse_float(part.strip()) for part in text.split(",") if part.strip())


def _parse_freeze(text: str) -> tuple:
    return parse_frozen_genes(token for token in text.split(",") if token.strip())


#: The four fields that are not one scalar, each rendered as (key, text) lines.
_COMPOUND_LINES = {
    "scenario.snr_thresholds_db": lambda table: [
        (f"snr_threshold_{rate}_mbps", repr(float(threshold)))
        for rate, threshold in sorted(table or ())],
    "synth.waypoints_enu_m": lambda points: [
        ("waypoints_enu_m", "; ".join(",".join(map(repr, map(float, p))) for p in points))],
    "synth.leg_speeds_mps": lambda speeds: [
        ("leg_speeds_mps", ",".join(map(repr, map(float, speeds))))],
    "ga.frozen_genes": lambda frozen: [
        ("freeze", ",".join(f"{name}={format_gene_value(name, value)}" for name, value in frozen))
    ] if frozen else [],
}
#: Their keys read back: key -> (field, parse text). The per-rate SNR keys
#: are merged into one table by parse_config.
_COMPOUND_KEYS = {
    "synth.waypoints_enu_m": ("waypoints_enu_m", _parse_waypoints),
    "synth.leg_speeds_mps": ("leg_speeds_mps", _parse_speeds),
    "ga.freeze": ("frozen_genes", _parse_freeze),
}
_SNR_KEYS = {f"scenario.snr_threshold_{rate}_mbps": rate for rate in SUPPORTED_DATA_RATES_MBPS}
#: Every scalar key -> its field's default, whose type reads and writes the value.
_SCALAR_KEYS = {f"{section}.{name}": like for section in _SECTIONS
                for name, like in _fields(section) if f"{section}.{name}" not in _COMPOUND_LINES}


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

    updates = {section: {} for section in _SECTIONS}
    snr_overrides = {}
    for key, (lineno, value) in seen.items():
        section, _, name = key.partition(".")
        try:
            if key in _SNR_KEYS:
                snr_overrides[_SNR_KEYS[key]] = _parse_float(value)
            elif key in _COMPOUND_KEYS:
                name, parse = _COMPOUND_KEYS[key]
                updates[section][name] = parse(value)
            elif key in _SCALAR_KEYS:
                updates[section][name] = parse_typed_value(name, value, _SCALAR_KEYS[key])
            else:
                raise ValueError(f"unknown configuration key {key!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None

    if snr_overrides:
        table = dict(SNR_THRESHOLDS_DB)
        table.update(base.scenario.snr_table() or {})
        table.update(snr_overrides)
        updates["scenario"]["snr_thresholds_db"] = tuple(sorted(table.items()))

    try:
        return RunConfig(**{section: replace(getattr(base, section), **updates[section])
                            for section in _SECTIONS})
    except ValueError as exc:
        raise ValueError(f"invalid configuration: {exc}") from None


def render_config(config: RunConfig) -> str:
    """Render the resolved configuration; the output parses back unchanged."""
    lines = []
    for section in _SECTIONS:
        values = getattr(config, section)
        for name, like in _fields(section):
            value = getattr(values, name)
            compound = _COMPOUND_LINES.get(f"{section}.{name}")
            pairs = compound(value) if compound else [(name, typed_formatter(like)(value))]
            lines += [f"{section}.{key} = {text}" for key, text in pairs]
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
    lines = gene_lines(Genome.from_params(config.radio, config.fading))
    lines.append(f"seed = {config.synth.seed}")
    return "\n".join(lines) + "\n"
