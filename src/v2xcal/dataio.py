"""Field-log parsing, geodetic projection, CSV serialization, synthetic data.

Trace CSVs use canonical snake_case headers (common aliases accepted,
case-insensitively): time, latitude, longitude, altitude_ft, heading_deg,
speed_mph, transmission_type, message_type, direction. All exporters render
floats with a fixed number of decimal places so output bytes are identical
across platforms, and every export has a parse counterpart that restores
the original values exactly.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone

import numpy as np

from .propagation import DELIVERED, REASONS, FadingParams, RadioParams
from .simulator import (
    DeliveryLog,
    Direction,
    EnuTrace,
    HeatmapCell,
    HeatmapGrid,
    PdrBin,
    PdrCurve,
    ScenarioConfig,
    link_distance_m,
    pdr_curve,
    run_scenario,
)

EARTH_RADIUS_M = 6_371_000.0
FT_TO_M = 0.3048
MPH_TO_MPS = 0.44704

#: Records farther than this from the RSU are refused by the projection;
#: the small-angle plane approximation is no longer trustworthy there.
MAX_PROJECTION_RANGE_M = 50_000.0

_FLOAT_FMT = "{:.9f}"

#: Slack on parsed PDR bin edges: far above the 9-decimal rounding of an
#: exported edge, far below any bin width in use.
_BIN_EDGE_TOL_M = 1e-6


class TraceParseError(ValueError):
    """Raised for malformed trace documents; message lists row diagnostics."""


class TransmissionType(enum.Enum):
    DSRC = "DSRC"
    CV2X = "CV2X"


class MessageType(enum.Enum):
    BSM = "BSM"
    SPAT = "SPaT"


class TraceDirection(enum.Enum):
    SENT = "Sent"
    RECEIVED = "Received"


@dataclass(frozen=True)
class TraceRecord:
    """One row of an on-board-unit message log with its GPS fix."""

    time: datetime
    latitude_deg: float
    longitude_deg: float
    altitude_ft: float
    heading_deg: float
    speed_mph: float
    transmission_type: TransmissionType
    message_type: MessageType
    direction: TraceDirection

    def __post_init__(self):
        if self.time.tzinfo is None:
            raise ValueError("time must be timezone-aware (UTC)")
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValueError(f"latitude {self.latitude_deg} outside [-90, 90]")
        if not -180.0 <= self.longitude_deg <= 180.0:
            raise ValueError(f"longitude {self.longitude_deg} outside [-180, 180]")
        if not 0.0 <= self.heading_deg < 360.0:
            raise ValueError(f"heading {self.heading_deg} outside [0, 360)")
        if self.speed_mph < 0.0:
            raise ValueError(f"speed {self.speed_mph} must be >= 0")
        for name in ("latitude_deg", "longitude_deg", "altitude_ft", "heading_deg", "speed_mph"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass
class Trace:
    """Time-ordered message log."""

    records: list

    def __post_init__(self):
        if not self.records:
            raise ValueError("trace has no records")
        for i in range(1, len(self.records)):
            if self.records[i].time < self.records[i - 1].time:
                raise ValueError(f"timestamps not non-decreasing at record {i}")

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i):
        return self.records[i]


@dataclass(frozen=True)
class GeodeticPosition:
    """RSU site anchor for the local tangent-plane projection."""

    latitude_deg: float
    longitude_deg: float
    altitude_ft: float = 0.0

    def __post_init__(self):
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValueError(f"latitude {self.latitude_deg} outside [-90, 90]")
        if not -180.0 <= self.longitude_deg <= 180.0:
            raise ValueError(f"longitude {self.longitude_deg} outside [-180, 180]")


# ---------------------------------------------------------------------------
# trace CSV
# ---------------------------------------------------------------------------

TRACE_HEADERS = (
    "time",
    "latitude",
    "longitude",
    "altitude_ft",
    "heading_deg",
    "speed_mph",
    "transmission_type",
    "message_type",
    "direction",
)

_HEADER_ALIASES = {
    "time": "time",
    "timestamp": "time",
    "utc_time": "time",
    "datetime": "time",
    "latitude": "latitude",
    "lat": "latitude",
    "longitude": "longitude",
    "lon": "longitude",
    "lng": "longitude",
    "long": "longitude",
    "altitude_ft": "altitude_ft",
    "altitude": "altitude_ft",
    "alt": "altitude_ft",
    "alt_ft": "altitude_ft",
    "heading_deg": "heading_deg",
    "heading": "heading_deg",
    "course": "heading_deg",
    "speed_mph": "speed_mph",
    "speed": "speed_mph",
    "transmission_type": "transmission_type",
    "transmission": "transmission_type",
    "tx_type": "transmission_type",
    "protocol": "transmission_type",
    "message_type": "message_type",
    "msg_type": "message_type",
    "message": "message_type",
    "direction": "direction",
    "dir": "direction",
}

_TRANSMISSION_ALIASES = {"dsrc": TransmissionType.DSRC, "cv2x": TransmissionType.CV2X,
                         "c-v2x": TransmissionType.CV2X}
_MESSAGE_ALIASES = {"bsm": MessageType.BSM, "spat": MessageType.SPAT}
_DIRECTION_ALIASES = {"sent": TraceDirection.SENT, "received": TraceDirection.RECEIVED,
                      "rx": TraceDirection.RECEIVED, "tx": TraceDirection.SENT}


def _normalize_header(name: str) -> str:
    # "Altitude (ft)" -> "altitude_ft"
    cleaned = "".join(ch if ch.isalnum() else "_" for ch in name.strip().lower())
    while "__" in cleaned:
        cleaned = cleaned.replace("__", "_")
    return cleaned.strip("_")


def _parse_time(value: str, epoch_ms: bool) -> datetime:
    if epoch_ms:
        return datetime.fromtimestamp(int(value) / 1000.0, tz=timezone.utc)
    text = value.strip()
    if text.endswith("Z") or text.endswith("z"):
        text = text[:-1] + "+00:00"
    t = datetime.fromisoformat(text)
    if t.tzinfo is None:
        # GPS loggers commonly omit the offset; the convention here is UTC.
        t = t.replace(tzinfo=timezone.utc)
    return t.astimezone(timezone.utc)


def parse_trace_csv(text: str, epoch_ms: bool = False) -> Trace:
    """Parse a message-log CSV document into a Trace.

    Raises TraceParseError with row numbers and reasons for malformed rows,
    or with a document-level message for missing columns, an empty document,
    or out-of-order timestamps.
    """
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise TraceParseError("document has no header row")
    header = [_normalize_header(h) for h in rows[0]]
    columns = {}
    for pos, name in enumerate(header):
        canonical = _HEADER_ALIASES.get(name)
        if canonical is not None and canonical not in columns:
            columns[canonical] = pos
    missing = [h for h in TRACE_HEADERS if h not in columns]
    if missing:
        raise TraceParseError(f"missing required columns: {', '.join(missing)}")
    if len(rows) == 1:
        raise TraceParseError("document has a header but no data rows")

    records = []
    errors = []
    for row_num, row in enumerate(rows[1:], start=2):
        try:
            if len(row) < len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            get = lambda name: row[columns[name]].strip()
            tx_raw = get("transmission_type").lower()
            if tx_raw not in _TRANSMISSION_ALIASES:
                raise ValueError(f"unknown transmission_type {get('transmission_type')!r}")
            msg_raw = get("message_type").lower()
            if msg_raw not in _MESSAGE_ALIASES:
                raise ValueError(f"unknown message_type {get('message_type')!r}")
            dir_raw = get("direction").lower()
            if dir_raw not in _DIRECTION_ALIASES:
                raise ValueError(f"unknown direction {get('direction')!r}")
            records.append(
                TraceRecord(
                    time=_parse_time(get("time"), epoch_ms),
                    latitude_deg=float(get("latitude")),
                    longitude_deg=float(get("longitude")),
                    altitude_ft=float(get("altitude_ft")),
                    heading_deg=float(get("heading_deg")),
                    speed_mph=float(get("speed_mph")),
                    transmission_type=_TRANSMISSION_ALIASES[tx_raw],
                    message_type=_MESSAGE_ALIASES[msg_raw],
                    direction=_DIRECTION_ALIASES[dir_raw],
                )
            )
        except (ValueError, OverflowError) as exc:
            errors.append(f"row {row_num}: {exc}")
    if errors:
        shown = "; ".join(errors[:10])
        more = f" (+{len(errors) - 10} more)" if len(errors) > 10 else ""
        raise TraceParseError(f"malformed rows: {shown}{more}")
    try:
        return Trace(records=records)
    except ValueError as exc:
        raise TraceParseError(str(exc)) from None


def export_trace_csv(trace: Trace) -> str:
    """Render a Trace with canonical headers and fixed decimal formatting."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(TRACE_HEADERS)
    for r in trace:
        writer.writerow(
            [
                r.time.strftime("%Y-%m-%dT%H:%M:%S.%fZ"),
                _FLOAT_FMT.format(r.latitude_deg),
                _FLOAT_FMT.format(r.longitude_deg),
                _FLOAT_FMT.format(r.altitude_ft),
                _FLOAT_FMT.format(r.heading_deg),
                _FLOAT_FMT.format(r.speed_mph),
                r.transmission_type.value,
                r.message_type.value,
                r.direction.value,
            ]
        )
    return out.getvalue()


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def project_enu(trace: Trace, rsu: GeodeticPosition) -> EnuTrace:
    """Project a geodetic trace onto a flat east-north-up frame at the RSU.

    Equirectangular small-angle projection: x = R * dlon * cos(lat_rsu),
    y = R * dlat, z from the altitude difference. Adequate well inside the
    50 km guard radius; any record beyond it is refused.
    """
    lat0 = math.radians(rsu.latitude_deg)
    lon0 = math.radians(rsu.longitude_deg)
    cos_lat0 = math.cos(lat0)

    lats = np.array([math.radians(r.latitude_deg) for r in trace])
    lons = np.array([math.radians(r.longitude_deg) for r in trace])
    alts_m = np.array([r.altitude_ft * FT_TO_M for r in trace])

    x = EARTH_RADIUS_M * (lons - lon0) * cos_lat0
    y = EARTH_RADIUS_M * (lats - lat0)
    z = alts_m - rsu.altitude_ft * FT_TO_M

    ground_range = np.sqrt(x**2 + y**2)
    too_far = np.nonzero(ground_range > MAX_PROJECTION_RANGE_M)[0]
    if too_far.size:
        i = int(too_far[0])
        raise ValueError(
            f"record {i} lies {ground_range[i] / 1000.0:.1f} km from the RSU; "
            f"projection is limited to {MAX_PROJECTION_RANGE_M / 1000.0:.0f} km"
        )

    t0 = trace[0].time
    times = np.array([(r.time - t0).total_seconds() for r in trace])
    return EnuTrace(times_s=times, x_m=x, y_m=y, z_m=z)


# ---------------------------------------------------------------------------
# synthetic ground truth
# ---------------------------------------------------------------------------


def _default_rsu() -> GeodeticPosition:
    return GeodeticPosition(latitude_deg=45.0, longitude_deg=-93.0, altitude_ft=0.0)


@dataclass
class SyntheticSpec:
    """Recipe for a synthetic ground-truth dataset with planted channel truth.

    The vehicle drives the waypoint polyline at the per-leg speeds, GPS-style
    records are emitted at sample_rate_hz, and the planted radio/fading pair
    decides every delivery under the given seed. A vehicle that exhausts the
    route before duration_s parks at the final waypoint.
    """

    radio: RadioParams
    fading: FadingParams
    waypoints_enu_m: list
    leg_speeds_mps: list
    duration_s: float
    seed: int
    sample_rate_hz: float = 10.0
    rsu_geodetic: GeodeticPosition = field(default_factory=_default_rsu)

    def __post_init__(self):
        if len(self.waypoints_enu_m) < 2:
            raise ValueError("need at least 2 waypoints")
        if len(self.leg_speeds_mps) != len(self.waypoints_enu_m) - 1:
            raise ValueError("need one leg speed per waypoint pair")
        if any(v <= 0.0 for v in self.leg_speeds_mps):
            raise ValueError("leg speeds must be positive")
        if self.duration_s <= 0.0:
            raise ValueError("duration_s must be positive")
        if self.sample_rate_hz <= 0.0:
            raise ValueError("sample_rate_hz must be positive")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


def _route_state(spec: SyntheticSpec, t: float):
    """Position, speed and heading on the route at time t."""
    remaining = t
    points = [np.asarray(p, dtype=float) for p in spec.waypoints_enu_m]
    for a, b, v in zip(points, points[1:], spec.leg_speeds_mps):
        leg = b - a
        length = float(np.linalg.norm(leg))
        leg_time = length / v
        if remaining <= leg_time or leg_time == 0.0:
            frac = 0.0 if leg_time == 0.0 else remaining / leg_time
            pos = a + frac * leg
            heading = math.degrees(math.atan2(leg[0], leg[1])) % 360.0
            return pos, v, heading
        remaining -= leg_time
    # Route exhausted: parked at the end, keep the last leg's heading.
    leg = points[-1] - points[-2]
    heading = math.degrees(math.atan2(leg[0], leg[1])) % 360.0
    return points[-1], 0.0, heading


def generate_synthetic(spec: SyntheticSpec, scenario: ScenarioConfig):
    """Build (Trace, DeliveryLog, PdrCurve) for a planted channel truth.

    Deterministic in (spec, scenario); the simulation seed is taken from the
    spec so the dataset is self-contained. Calibrating against the returned
    curve with scenario.master_seed equal to spec.seed can reach zero error.
    """
    lat0 = math.radians(spec.rsu_geodetic.latitude_deg)
    cos_lat0 = math.cos(lat0)
    n_samples = int(math.floor(spec.duration_s * spec.sample_rate_hz + 1e-9)) + 1
    t0 = datetime(2024, 3, 14, 15, 0, 0, tzinfo=timezone.utc)

    records = []
    for k in range(n_samples):
        t = k / spec.sample_rate_hz
        pos, speed_mps, heading = _route_state(spec, t)
        lat = spec.rsu_geodetic.latitude_deg + math.degrees(pos[1] / EARTH_RADIUS_M)
        lon = spec.rsu_geodetic.longitude_deg + math.degrees(pos[0] / (EARTH_RADIUS_M * cos_lat0))
        alt_ft = spec.rsu_geodetic.altitude_ft + pos[2] / FT_TO_M
        stamp = t0 + timedelta(microseconds=round(t * 1e6))
        records.append(
            TraceRecord(
                time=stamp,
                latitude_deg=round(lat, 9),
                longitude_deg=round(lon, 9),
                altitude_ft=round(alt_ft, 9),
                heading_deg=round(heading, 9) % 360.0,
                speed_mph=round(speed_mps / MPH_TO_MPS, 9),
                transmission_type=TransmissionType.DSRC,
                message_type=MessageType.BSM,
                direction=TraceDirection.SENT,
            )
        )
    trace = Trace(records=records)
    enu = project_enu(trace, spec.rsu_geodetic)
    run_scenario_config = replace(scenario, master_seed=spec.seed)
    log = run_scenario(enu, run_scenario_config, spec.radio, spec.fading)
    curve = pdr_curve(log, scenario.bin_width_m)
    return trace, log, curve


# ---------------------------------------------------------------------------
# delivery log CSV
# ---------------------------------------------------------------------------

LOG_HEADERS = (
    "timestamp_s",
    "direction",
    "tx_x_m",
    "tx_y_m",
    "tx_z_m",
    "rx_x_m",
    "rx_y_m",
    "rx_z_m",
    "distance_m",
    "rx_power_dbm",
    "delivered",
    "reason",
)


def export_log_csv(log: DeliveryLog) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(LOG_HEADERS)
    directions = {d.stream_code: d.value for d in Direction}
    fmt = _FLOAT_FMT.format
    for t, code, tx, rx, dist, power, reason in zip(
        log.timestamp_s.tolist(),
        log.direction_code.tolist(),
        log.tx_position_m.tolist(),
        log.rx_position_m.tolist(),
        log.distance_m.tolist(),
        log.rx_power_dbm.tolist(),
        log.reason_code.tolist(),
    ):
        writer.writerow(
            [fmt(t), directions[code], *map(fmt, tx), *map(fmt, rx), fmt(dist), fmt(power),
             "true" if reason == DELIVERED else "false", REASONS[reason].value]
        )
    return out.getvalue()


def parse_log_csv(text: str) -> DeliveryLog:
    """Parse a delivery-log CSV; the distance column is rederived from positions.

    A row whose delivered flag disagrees with its reason is refused, so the
    reason column alone carries the outcome.
    """
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows or tuple(rows[0]) != LOG_HEADERS:
        raise ValueError(f"expected log header {','.join(LOG_HEADERS)}")
    directions = {d.value: d.stream_code for d in Direction}
    reasons = {r.value: code for code, r in enumerate(REASONS)}
    delivered_flags = {"true": True, "false": False}
    row_nums, numbers, direction_codes, reason_codes = [], [], [], []
    for row_num, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(LOG_HEADERS):
            raise ValueError(f"row {row_num}: expected {len(LOG_HEADERS)} fields, got {len(row)}")
        try:
            direction_codes.append(directions[row[1]])
            reason_codes.append(reasons[row[11]])
            if row[10] not in delivered_flags:
                raise ValueError(f"delivered must be true or false, got {row[10]!r}")
            if delivered_flags[row[10]] != (reason_codes[-1] == DELIVERED):
                raise ValueError(f"delivered {row[10]} contradicts reason {row[11]}")
            numbers.append([float(row[k]) for k in (0, 2, 3, 4, 5, 6, 7, 8, 9)])
        except KeyError as exc:
            raise ValueError(f"row {row_num}: unknown enum value {exc}") from None
        except ValueError as exc:
            raise ValueError(f"row {row_num}: {exc}") from None
        row_nums.append(row_num)

    values = np.array(numbers, dtype=float).reshape(-1, 9)
    tx, rx = values[:, 1:4], values[:, 4:7]
    distance = link_distance_m(tx, rx)
    mismatched = np.flatnonzero(np.abs(values[:, 7] - distance) > 1e-6)
    if mismatched.size:
        k = int(mismatched[0])
        raise ValueError(
            f"row {row_nums[k]}: distance column {values[k, 7]} disagrees with "
            f"positions ({distance[k]:.9f})"
        )
    return DeliveryLog(
        timestamp_s=values[:, 0],
        direction_code=np.array(direction_codes, dtype=int),
        tx_position_m=tx,
        rx_position_m=rx,
        distance_m=distance,
        rx_power_dbm=values[:, 8],
        reason_code=np.array(reason_codes, dtype=int),
    )


# ---------------------------------------------------------------------------
# PDR curve CSV
# ---------------------------------------------------------------------------

PDR_HEADERS = ("bin_start_m", "bin_end_m", "sent", "delivered", "pdr_pct")


def export_pdr_csv(curve: PdrCurve) -> str:
    """Render a PDR curve; empty bins keep their row with a blank pdr_pct."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(PDR_HEADERS)
    for b in curve:
        writer.writerow(
            [
                _FLOAT_FMT.format(b.bin_start_m),
                _FLOAT_FMT.format(b.bin_end_m),
                str(b.sent),
                str(b.delivered),
                "" if b.empty else _FLOAT_FMT.format(b.pdr_pct),
            ]
        )
    return out.getvalue()


def parse_pdr_csv(text: str) -> PdrCurve:
    """Parse a PDR CSV; pdr_pct is rederived from the sent/delivered counts.

    Row k must hold bin k of one fixed-width grid from zero, whose width
    the first row sets, with 0 <= delivered <= sent.
    """
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows or tuple(rows[0]) != PDR_HEADERS:
        raise ValueError(f"expected PDR header {','.join(PDR_HEADERS)}")
    bins = []
    for row_num, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        try:
            b = PdrBin(
                bin_start_m=float(row[0]),
                bin_end_m=float(row[1]),
                sent=int(row[2]),
                delivered=int(row[3]),
            )
            if not bins:
                width = b.bin_end_m - b.bin_start_m
            k = len(bins)
            if not (math.isclose(b.bin_start_m, k * width, abs_tol=_BIN_EDGE_TOL_M)
                    and math.isclose(b.bin_end_m, (k + 1) * width, abs_tol=_BIN_EDGE_TOL_M)):
                raise ValueError(
                    f"bin {row[0]}-{row[1]} m is not bin {k} of a {width} m grid from 0"
                )
            bins.append(b)
        except (ValueError, IndexError) as exc:
            raise ValueError(f"row {row_num}: {exc}") from None
    if not bins:
        raise ValueError("PDR document has no bins")
    return PdrCurve(bin_width_m=width, bins=bins)


# ---------------------------------------------------------------------------
# heatmap CSV
# ---------------------------------------------------------------------------

HEATMAP_HEADERS = ("cell_x_m", "cell_y_m", "cell_m", "sent", "delivered", "pdr_pct")


def export_heatmap_csv(grid: HeatmapGrid) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(HEATMAP_HEADERS)
    for c in grid:
        writer.writerow(
            [
                _FLOAT_FMT.format(c.center_x_m),
                _FLOAT_FMT.format(c.center_y_m),
                _FLOAT_FMT.format(grid.cell_m),
                str(c.sent),
                str(c.delivered),
                "" if c.sent == 0 else _FLOAT_FMT.format(c.pdr_pct),
            ]
        )
    return out.getvalue()


def parse_heatmap_csv(text: str) -> HeatmapGrid:
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows or tuple(rows[0]) != HEATMAP_HEADERS:
        raise ValueError(f"expected heatmap header {','.join(HEATMAP_HEADERS)}")
    cells = []
    cell_m = None
    for row_num, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        try:
            this_cell = float(row[2])
            if cell_m is None:
                cell_m = this_cell
            elif not math.isclose(cell_m, this_cell, rel_tol=1e-12):
                raise ValueError(f"inconsistent cell_m {this_cell} (expected {cell_m})")
            cells.append(
                HeatmapCell(
                    center_x_m=float(row[0]),
                    center_y_m=float(row[1]),
                    sent=int(row[3]),
                    delivered=int(row[4]),
                )
            )
        except (ValueError, IndexError) as exc:
            raise ValueError(f"row {row_num}: {exc}") from None
    if cell_m is None:
        raise ValueError("heatmap document has no cells")
    return HeatmapGrid(cell_m=cell_m, cells=cells)
