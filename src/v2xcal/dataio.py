"""Field-log parsing, geodetic projection, CSV serialization, synthetic data.

Trace CSVs use canonical snake_case headers (common aliases accepted,
case-insensitively): time, latitude, longitude, altitude_ft, heading_deg,
speed_mph, transmission_type, message_type, direction. In memory a Trace, like
a DeliveryLog, holds one numpy array per column. SynthSection is the recipe of
a synthetic route, which generate_synthetic drives for all samples at once.
Every export has a parse counterpart that restores the original values
exactly; the four share one column writer and one column reader.

The writer's floats match "{:.9f}" on every platform: for |x| < 2**22,
y = x * 1e9 lies within half a spacing of the true product (1e9 is exact in
binary), so where the fraction of y is over a spacing from 0.5, rint(y) is the
correctly rounded 9-decimal value; its digits come from integer division and
its sign from signbit (-1e-12 is -0.000000000). Near-ties, |x| >= 2**22, nan
and infinities are formatted one at a time.

The reader takes each record as one line and skips blank lines (nothing but
commas and ASCII whitespace), which still count in row numbers. One loadtxt
pass turns the data lines into float, int64 and fixed-width word columns,
cells unquoted as csv does; each word column becomes codes by one lookup per
distinct word, and the format's rules then run on whole columns. Only when a
line fails to load does a per-row check, the same rules cell by cell, name it.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from functools import partial

import numpy as np

from .propagation import DELIVERED, REASONS, FadingParams, RadioParams
from .simulator import (
    DeliveryLog,
    Direction,
    EnuTrace,
    HeatmapGrid,
    PdrCurve,
    ScenarioConfig,
    contiguity_rule,
    count_rules,
    isclose_array,
    link_distance_m,
    pdr_curve,
    rule_errors,
    run_scenario,
)

EARTH_RADIUS_M = 6_371_000.0
FT_TO_M = 0.3048
MPH_TO_MPS = 0.44704

#: Records farther than this from the RSU are refused by the projection;
#: the small-angle plane approximation is no longer trustworthy there.
MAX_PROJECTION_RANGE_M = 50_000.0

_FLOAT_FMT = "{:.9f}"
_BLOCK_ROWS = 2048  # rows the CSV writer renders at once, which bounds its scratch arrays

#: Slack on parsed PDR bin edges: far above the 9-decimal rounding of an
#: exported edge, far below any bin width in use.
_BIN_EDGE_TOL_M = 1e-6


def _float_text(x: np.ndarray) -> np.ndarray:
    """The "{:.9f}" text of each float as an S array, NUL-padded (see the module docstring)."""
    fast = np.abs(x) < 2.0**22
    y = np.where(fast, x, 0.0) * 1e9
    fast &= np.abs(y - np.floor(y) - 0.5) > np.spacing(np.abs(y))
    n = np.stack(np.divmod(np.abs(np.rint(y)).astype(np.int64), 10**9), 1).astype(np.int32)
    whole = n[:, 0]
    cells = np.empty((x.shape[0], 2, 10), np.uint8)  # sign, 9 integer digits; point, 9 decimals
    for j in range(9, 0, -1):  # both parts are below 2**31, and int32 divides faster than int64
        rest = n // 10
        cells[:, :, j] = n - rest * 10 + 48
        n = rest
    cells[:, 0, 1:9][whole[:, None] < 10 ** np.arange(8, 0, -1)] = 0  # no leading zeros
    cells[:, 0, 0], cells[:, 1, 0] = np.where(np.signbit(x), ord("-"), 0), ord(".")
    exact = np.array([_FLOAT_FMT.format(v) for v in x[~fast].tolist()], dtype="S")
    text = cells.reshape(-1, 20).view("S20")[:, 0].astype(np.result_type("S20", exact))
    text[~fast] = exact
    return text


def _write_columns(headers: tuple, columns: list) -> str:
    """CSV text of a header line and one line per row of equal-length columns.

    A column holds floats or S-dtype cells, NUL-padded anywhere; no cell needs quoting.
    """
    parts, n = [",".join(headers) + "\n"], len(columns[0])
    for start in range(0, n, _BLOCK_ROWS):
        rows, pieces = min(_BLOCK_ROWS, n - start), []
        comma, newline = (np.full((rows, 1), ord(c), np.uint8) for c in ",\n")
        for column in columns:
            cells = column[start:start + rows]
            cells = cells if cells.dtype.kind == "S" else _float_text(cells)
            pieces += [cells.view(np.uint8).reshape(rows, -1), comma]
        pieces[-1] = newline
        body = np.hstack(pieces).ravel()
        parts.append(body[body != 0].tobytes().decode("ascii"))
    return "".join(parts)


#: What a blank line may hold: commas and ASCII whitespace.
_BLANK = ", \t\r\v\f"


def _lines(text: str) -> list:
    """The non-blank lines of a document, header first, each without its trailing \\r.

    Every record is one line.
    """
    return [line.rstrip("\r") for line in text.split("\n") if line.strip(_BLANK)]


def _cells(line: str) -> list:
    """The cells of one line as csv.reader splits them; a quote left open is refused."""
    reader = csv.reader((line, ""))
    try:
        cells = next(reader)
    except csv.Error as exc:
        raise ValueError(str(exc)) from None
    if reader.line_num > 1:
        raise ValueError("a quoted cell runs past the end of the line")
    return cells


def _read(lines: list, fields: list, convert, check_row, usecols=None) -> tuple:
    """(columns, indexes of the lines they hold, failures) of data lines, read a column at a time.

    One loadtxt pass turns the lines into a record array of (name, dtype)
    fields, and convert turns that into columns, or None if it refuses a
    row. Only if either fails does check_row, which raises for a row (a
    list of cells) that does not read, name each bad line as (index,
    reason), one at a time; the other lines are then loaded again.
    """
    def load(part):
        try:
            table = np.loadtxt(part, fields, delimiter=",", quotechar='"', comments=None,
                               usecols=usecols, ndmin=1) if part else np.zeros(0, fields)
        except ValueError:
            return None
        return convert(table) if len(table) == len(part) else None  # an open quote joins lines

    columns = load(lines)
    if columns is not None:
        return columns, range(len(lines)), []
    failures = []
    for i, line in enumerate(lines):
        try:
            check_row(_cells(line))
        except (ValueError, OverflowError) as exc:
            failures.append((i, str(exc)))
    read = sorted(set(range(len(lines))) - {i for i, _ in failures})
    columns = load([lines[i] for i in read])
    if columns is None or not failures:
        raise ValueError("a row fails to load, yet no check names it")
    return columns, read, failures


def _codes(cells: np.ndarray, code_of) -> np.ndarray:
    """code_of(cell) for each cell, called once per distinct cell; -1 marks a refused cell."""
    distinct, index = np.unique(cells, return_inverse=True)
    return np.array([code_of(cell) for cell in distinct.tolist()], dtype=int)[index]


def _parse_number(cell: str, kind=float):
    """kind (float or int) of a cell as loadtxt reads a number: stripped, ASCII, no underscores."""
    text = cell.strip()
    if text.isascii() and "_" not in text:
        try:
            return kind(text)
        except ValueError:
            pass
    raise ValueError(f"could not convert string to float: {cell!r}" if kind is float
                     else f"invalid literal for int() with base 10: {cell!r}")


def _data_lines(text: str, headers: tuple, kind: str) -> list:
    """The data lines of a document whose header holds exactly these cells."""
    lines = _lines(text)
    try:
        if lines and tuple(_cells(lines[0])) == headers:
            return lines[1:]
    except ValueError:
        pass
    raise ValueError(f"expected {kind} header {','.join(headers)}")


def _errors(text: str, read, failures: list, rules) -> list:
    """(row number, reason) of each data line that failed to read or, once read, breaks a rule.

    Rows are lines counted from 1, blank ones included, and come in order.
    """
    errors = sorted(failures + [(read[i], reason) for i, reason in rule_errors(rules)])
    if not errors:
        return []
    rows = [k for k, line in enumerate(text.split("\n"), 1) if line.strip(_BLANK)]
    return [(rows[i + 1], reason) for i, reason in errors]


def _refuse_first_row(text: str, read, failures: list, rules) -> None:
    errors = _errors(text, read, failures, rules)
    if errors:
        raise ValueError("row {}: {}".format(*errors[0]))


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


TRANSMISSION_TYPES = tuple(TransmissionType)
MESSAGE_TYPES = tuple(MessageType)
TRACE_DIRECTIONS = tuple(TraceDirection)

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
#: The first and last microsecond of years 1-9999 UTC, the times a trace can hold.
_TIME_RANGE_US = np.array(["0001-01-01", "9999-12-31T23:59:59.999999"], "M8[us]").view(np.int64)

_FLOAT_COLUMNS = ("latitude_deg", "longitude_deg", "altitude_ft", "heading_deg", "speed_mph")
#: The message columns: (field, header, enum values in code order, accepted spellings).
_CODE_COLUMNS = (
    ("transmission_code", "transmission_type", TRANSMISSION_TYPES,
     {"dsrc": TransmissionType.DSRC, "cv2x": TransmissionType.CV2X,
      "c-v2x": TransmissionType.CV2X}),
    ("message_code", "message_type", MESSAGE_TYPES,
     {"bsm": MessageType.BSM, "spat": MessageType.SPAT}),
    ("direction_code", "direction", TRACE_DIRECTIONS,
     {"sent": TraceDirection.SENT, "received": TraceDirection.RECEIVED,
      "rx": TraceDirection.RECEIVED, "tx": TraceDirection.SENT}),
)


def _record_rules(columns: dict) -> list:
    """The per-record rules of a trace, for rule_errors; columns maps field names to arrays."""
    lat, lon = columns["latitude_deg"], columns["longitude_deg"]
    heading, speed, time = columns["heading_deg"], columns["speed_mph"], columns["time_us"]
    return [
        (~((time >= _TIME_RANGE_US[0]) & (time <= _TIME_RANGE_US[1])),
         "time {} us lies outside years 1-9999", time),
        (~((lat >= -90.0) & (lat <= 90.0)), "latitude {} outside [-90, 90]", lat),
        (~((lon >= -180.0) & (lon <= 180.0)), "longitude {} outside [-180, 180]", lon),
        (~((heading >= 0.0) & (heading < 360.0)), "heading {} outside [0, 360)", heading),
        (speed < 0.0, "speed {} must be >= 0", speed),
        *((~np.isfinite(columns[name]), name + " must be finite") for name in _FLOAT_COLUMNS),
        *((~((columns[name] >= 0) & (columns[name] < len(kinds))), header + " code {} unknown",
           columns[name]) for name, header, kinds, _ in _CODE_COLUMNS),
    ]


@dataclass(eq=False)
class Trace:
    """Time-ordered on-board-unit message log, one array per column.

    time_us holds microseconds since the Unix epoch (UTC) as int64, in
    years 1-9999; the message columns hold codes into TRANSMISSION_TYPES,
    MESSAGE_TYPES and TRACE_DIRECTIONS. Every record carries a GPS fix:
    latitude in [-90, 90], longitude in [-180, 180], heading in [0, 360),
    a non-negative speed, all finite. The first record that breaks a rule,
    or whose time precedes the one before, is named in the ValueError.
    """

    time_us: np.ndarray
    latitude_deg: np.ndarray
    longitude_deg: np.ndarray
    altitude_ft: np.ndarray
    heading_deg: np.ndarray
    speed_mph: np.ndarray
    transmission_code: np.ndarray
    message_code: np.ndarray
    direction_code: np.ndarray

    def __post_init__(self):
        self.time_us = np.asarray(self.time_us, dtype=np.int64)
        for name in _FLOAT_COLUMNS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        for name, *_ in _CODE_COLUMNS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=int))
        n = self.time_us.shape[0]
        if n == 0:
            raise ValueError("trace has no records")
        if any(column.shape != (n,) for column in vars(self).values()):
            raise ValueError("trace columns must be 1-D and of equal length")
        errors = rule_errors(_record_rules(vars(self)))
        if errors:
            raise ValueError("record {}: {}".format(*errors[0]))
        backwards = np.flatnonzero(np.diff(self.time_us) < 0)
        if backwards.size:
            raise ValueError(f"timestamps not non-decreasing at record {backwards[0] + 1}")

    def __len__(self):
        return self.time_us.shape[0]


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


@dataclass(frozen=True)
class SynthSection:
    """Route recipe for a synthetic dataset: a waypoint polyline plus timing.

    The vehicle drives the east-north-up waypoints (meters about the RSU
    site) at one speed per leg, a GPS fix is emitted every 1/sample_rate_hz
    seconds for duration_s, and a vehicle that exhausts the route before
    then parks at the final waypoint. Speeds, duration and rate are
    positive and finite, the seed a non-negative integer, and two
    consecutive waypoints whose distance computes as 0 or overflows are
    refused: that leg would take no time, or forever. The count of speeds
    is checked against the legs by generate_synthetic, as configuration
    files may set the two keys in different layers.

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
        points = self.waypoints_enu_m
        if len(points) < 2:
            raise ValueError("need at least 2 waypoints")
        for point in points:
            if len(point) != 3 or not all(math.isfinite(c) for c in point):
                raise ValueError(f"waypoint {point!r} must be three finite coordinates")
        for i in range(1, len(points)):
            # The leg length as generate_synthetic takes it: 0 for a tiny leg, as it underflows.
            with np.errstate(over="ignore"):
                length = np.linalg.norm(np.subtract(points[i], points[i - 1], dtype=float))
            if not 0.0 < length < math.inf:
                raise ValueError(f"waypoints {i - 1} and {i} are " + (
                    "too far apart for" if length else "equal to within") + " the float "
                    "precision of a leg length; every leg needs a finite, non-zero length")
        if not all(0.0 < v < math.inf for v in self.leg_speeds_mps):
            raise ValueError("leg speeds must be positive and finite")
        if not (0.0 < self.duration_s < math.inf and 0.0 < self.sample_rate_hz < math.inf):
            raise ValueError("duration_s and sample_rate_hz must be positive and finite")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


# ---------------------------------------------------------------------------
# trace CSV
# ---------------------------------------------------------------------------

#: Canonical trace headers, each with the other spellings the parser
#: accepts for it once a header is normalized.
_HEADER_SPELLINGS = {
    "time": ("timestamp", "utc_time", "datetime"),
    "latitude": ("lat",),
    "longitude": ("lon", "lng", "long"),
    "altitude_ft": ("altitude", "alt", "alt_ft"),
    "heading_deg": ("heading", "course"),
    "speed_mph": ("speed",),
    "transmission_type": ("transmission", "tx_type", "protocol"),
    "message_type": ("msg_type", "message"),
    "direction": ("dir",),
}
TRACE_HEADERS = tuple(_HEADER_SPELLINGS)
_HEADER_ALIASES = {alias: name for name, aliases in _HEADER_SPELLINGS.items()
                   for alias in (name, *aliases)}


def _normalize_header(name: str) -> str:
    # "Altitude (ft)" -> "altitude_ft"
    cleaned = "".join(ch if ch.isalnum() else "_" for ch in name.strip().lower())
    while "__" in cleaned:
        cleaned = cleaned.replace("__", "_")
    return cleaned.strip("_")


def _parse_time_us(value: str, epoch_ms: bool) -> int:
    """Microseconds since the Unix epoch of one time cell."""
    if epoch_ms:
        try:
            t = EPOCH + timedelta(milliseconds=_parse_number(value, int))
        except OverflowError:
            raise ValueError(f"time {value.strip()} ms lies outside years 1-9999") from None
    else:
        text = value.strip()
        if text.endswith("Z") or text.endswith("z"):
            text = text[:-1] + "+00:00"
        t = datetime.fromisoformat(text)
        if t.tzinfo is None:
            # GPS loggers commonly omit the offset; the convention here is UTC.
            t = t.replace(tzinfo=timezone.utc)
        t = t.astimezone(timezone.utc)
    return (t - EPOCH) // _MICROSECOND


#: The widest time and word cells the trace reader takes, padding included.
_TIME_WIDTH, _WORD_WIDTH = 40, 16
#: export_trace_csv's spelling of a time, "0" standing for any digit.
_EXPORTED_TIME = np.array(list("0000-00-00T00:00:00.000000Z"))


def _exported_time_us(cells: np.ndarray) -> tuple:
    """(microseconds, mask) of the time cells spelled as export_trace_csv writes them.

    A cell outside the mask has another spelling or names no existing time;
    its microseconds are 0.
    """
    n = len(_EXPORTED_TIME)
    chars = np.ascontiguousarray(cells).view("U1").reshape(len(cells), cells.itemsize // 4)
    digit = (chars[:, :n] >= "0") & (chars[:, :n] <= "9")
    ok = (chars[:, n] == "") & np.all(
        np.where(_EXPORTED_TIME == "0", digit, chars[:, :n] == _EXPORTED_TIME), axis=1)
    time_us = np.zeros(len(cells), np.int64)
    try:
        time_us[ok] = cells[ok].astype(f"U{n - 1}").astype("M8[us]").view(np.int64)
    except ValueError:  # a day or time of day that does not exist
        ok[:] = False
    return time_us, ok & (time_us >= _TIME_RANGE_US[0])  # and year 0, which numpy reads


def _word_code(cell: str, kinds: tuple, aliases: dict) -> int:
    kind = aliases.get(cell.strip().lower())
    return -1 if kind is None or len(cell) > _WORD_WIDTH else kinds.index(kind)


def _trace_columns(table: np.ndarray, epoch_ms: bool):
    """The Trace columns of a loaded trace table, or None if a time or word cell does not read.

    Times spelled as the export writes them are converted a column at a
    time, any other through datetime.fromisoformat, one cell at a time.
    """
    cells = table["time_us"]
    if epoch_ms:
        ok = (cells >= _TIME_RANGE_US[0] // 1000) & (cells <= _TIME_RANGE_US[1] // 1000)
        time_us = np.where(ok, cells, 0) * 1000
    else:
        time_us, ok = _exported_time_us(cells)
        for i in np.flatnonzero(~ok).tolist():
            try:
                time_us[i] = _parse_time_us(cells[i], False)
            except (ValueError, OverflowError):
                return None
            ok[i] = len(cells[i]) <= _TIME_WIDTH
    columns = {"time_us": time_us, **{name: np.ascontiguousarray(table[name])
                                      for name in _FLOAT_COLUMNS}}
    for name, _, kinds, aliases in _CODE_COLUMNS:
        columns[name] = _codes(table[name], partial(_word_code, kinds=kinds, aliases=aliases))
        ok &= columns[name] >= 0
    return columns if ok.all() else None


def _check_trace_row(row: list, width: int, positions: list, epoch_ms: bool) -> None:
    """Raise for the first cell of a trace row that does not read, in the order named."""
    if len(row) < width:
        raise ValueError(f"expected {width} fields, got {len(row)}")
    written = [row[pos] for pos in positions]
    cells = [cell.strip() for cell in written]
    for (_, name, _, aliases), cell, raw in zip(_CODE_COLUMNS, cells[6:], written[6:]):
        if cell.lower() not in aliases:
            raise ValueError(f"unknown {name} {cell!r}")
        if len(raw) > _WORD_WIDTH:
            raise ValueError(f"{name} cell {raw!r} is wider than {_WORD_WIDTH} characters")
    _parse_time_us(cells[0], epoch_ms)
    if not epoch_ms and len(written[0]) > _TIME_WIDTH:
        raise ValueError(f"time cell {written[0]!r} is wider than {_TIME_WIDTH} characters")
    for cell in cells[1:6]:
        _parse_number(cell)


def parse_trace_csv(text: str, epoch_ms: bool = False) -> Trace:
    """Parse a message-log CSV document into a Trace.

    Raises TraceParseError with row numbers (lines counted from 1, blank
    ones included) and reasons for malformed rows, or with a
    document-level message for missing columns, an empty document, or
    out-of-order timestamps.
    """
    lines = _lines(text)
    if not lines:
        raise TraceParseError("document has no header row")
    try:
        header = [_normalize_header(h) for h in _cells(lines[0])]
    except ValueError as exc:
        raise TraceParseError(f"header row: {exc}") from None
    columns = {}
    for pos, name in enumerate(header):
        canonical = _HEADER_ALIASES.get(name)
        if canonical is not None and canonical not in columns:
            columns[canonical] = pos
    missing = [h for h in TRACE_HEADERS if h not in columns]
    if missing:
        raise TraceParseError(f"missing required columns: {', '.join(missing)}")
    if len(lines) == 1:
        raise TraceParseError("document has a header but no data rows")

    positions = [columns[name] for name in TRACE_HEADERS]
    fields = [("time_us", np.int64 if epoch_ms else f"U{_TIME_WIDTH + 1}"),
              *((name, float) for name in _FLOAT_COLUMNS),
              *((name, f"U{_WORD_WIDTH + 1}") for name, *_ in _CODE_COLUMNS),
              ("last", "U1")]  # the header's last column: a shorter row fails to load
    trace, read, failures = _read(
        lines[1:], fields, partial(_trace_columns, epoch_ms=epoch_ms),
        partial(_check_trace_row, width=len(header), positions=positions, epoch_ms=epoch_ms),
        usecols=positions + [len(header) - 1])
    errors = _errors(text, read, failures, _record_rules(trace))
    if errors:
        shown = "; ".join(f"row {row_num}: {reason}" for row_num, reason in errors[:10])
        more = f" (+{len(errors) - 10} more)" if len(errors) > 10 else ""
        raise TraceParseError(f"malformed rows: {shown}{more}")
    try:
        return Trace(**trace)
    except ValueError as exc:
        raise TraceParseError(str(exc)) from None


def export_trace_csv(trace: Trace) -> str:
    """Render a Trace with canonical headers, 9 decimals and ISO 8601 UTC microsecond times."""
    stamps = np.datetime_as_string(trace.time_us.astype("datetime64[us]"), unit="us")
    return _write_columns(TRACE_HEADERS, [
        np.char.add(stamps.astype("S"), b"Z"),
        *(getattr(trace, name) for name in _FLOAT_COLUMNS),
        *(np.array([kind.value for kind in kinds], dtype="S")[getattr(trace, name)]
          for name, _, kinds, _ in _CODE_COLUMNS),
    ])


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

    x = EARTH_RADIUS_M * (np.radians(trace.longitude_deg) - lon0) * cos_lat0
    y = EARTH_RADIUS_M * (np.radians(trace.latitude_deg) - lat0)
    z = trace.altitude_ft * FT_TO_M - rsu.altitude_ft * FT_TO_M

    ground_range = np.sqrt(x**2 + y**2)
    too_far = np.nonzero(ground_range > MAX_PROJECTION_RANGE_M)[0]
    if too_far.size:
        i = int(too_far[0])
        raise ValueError(
            f"record {i} lies {ground_range[i] / 1000.0:.1f} km from the RSU; "
            f"projection is limited to {MAX_PROJECTION_RANGE_M / 1000.0:.0f} km"
        )

    times = (trace.time_us - trace.time_us[0]) / 1e6
    return EnuTrace(times_s=times, x_m=x, y_m=y, z_m=z)


# ---------------------------------------------------------------------------
# synthetic ground truth
# ---------------------------------------------------------------------------

#: Time of a synthetic trace's first record.
_SYNTHETIC_START = datetime(2024, 3, 14, 15, 0, 0, tzinfo=timezone.utc)


def _heading_deg(leg) -> float:
    """Compass heading of an east-north-up leg, rounded as the trace stores it."""
    return round(math.degrees(math.atan2(leg[0], leg[1])) % 360.0, 9) % 360.0


def generate_synthetic(synth: SynthSection, radio: RadioParams, fading: FadingParams,
                       rsu: GeodeticPosition, scenario: ScenarioConfig):
    """Build (Trace, DeliveryLog, PdrCurve) for a planted channel truth.

    The trace is anchored at rsu and drives synth's route; radio and
    fading decide every delivery. Deterministic in its arguments; the
    simulation seed is synth.seed, so the dataset is self-contained, and
    calibrating against the returned curve with scenario.master_seed equal
    to synth.seed can reach zero error. Raises ValueError unless synth has
    one leg speed per waypoint pair.
    """
    if len(synth.leg_speeds_mps) != len(synth.waypoints_enu_m) - 1:
        raise ValueError("need one leg speed per waypoint pair")
    n_samples = int(math.floor(synth.duration_s * synth.sample_rate_hz + 1e-9)) + 1
    t = np.arange(n_samples) / synth.sample_rate_hz

    # Each sample lies on the first leg whose time covers what remains of
    # t after the earlier legs' times are subtracted one at a time; a
    # sample no leg covers is parked at the last waypoint.
    points = np.array(synth.waypoints_enu_m, dtype=float)
    pos = np.tile(points[-1], (n_samples, 1))
    speed_mph = np.zeros(n_samples)
    heading_deg = np.empty(n_samples)
    remaining = t.copy()
    unplaced = np.ones(n_samples, dtype=bool)
    for a, b, v in zip(points, points[1:], synth.leg_speeds_mps):
        leg = b - a
        leg_time = float(np.linalg.norm(leg)) / v
        on_leg = unplaced & (remaining <= leg_time)
        pos[on_leg] = a + (remaining[on_leg] / leg_time)[:, None] * leg
        speed_mph[on_leg] = round(v / MPH_TO_MPS, 9)
        heading_deg[on_leg] = _heading_deg(leg)
        unplaced &= ~on_leg
        remaining -= leg_time
    heading_deg[unplaced] = _heading_deg(leg)  # parked: the last leg's heading

    # Latitude and longitude round as Python floats and altitude by numpy's
    # rule; the trace.csv bytes depend on both.
    lat = rsu.latitude_deg + np.degrees(pos[:, 1] / EARTH_RADIUS_M)
    lon = rsu.longitude_deg + np.degrees(
        pos[:, 0] / (EARTH_RADIUS_M * math.cos(math.radians(rsu.latitude_deg))))
    start_us = (_SYNTHETIC_START - EPOCH) // _MICROSECOND
    trace = Trace(
        time_us=start_us + np.rint(t * 1e6).astype(np.int64),
        latitude_deg=[round(v, 9) for v in lat.tolist()],
        longitude_deg=[round(v, 9) for v in lon.tolist()],
        altitude_ft=np.round(rsu.altitude_ft + pos[:, 2] / FT_TO_M, 9),
        heading_deg=heading_deg,
        speed_mph=speed_mph,
        transmission_code=np.full(n_samples, TRANSMISSION_TYPES.index(TransmissionType.DSRC)),
        message_code=np.full(n_samples, MESSAGE_TYPES.index(MessageType.BSM)),
        direction_code=np.full(n_samples, TRACE_DIRECTIONS.index(TraceDirection.SENT)),
    )
    enu = project_enu(trace, rsu)
    log = run_scenario(enu, replace(scenario, master_seed=synth.seed), radio, fading)
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
    directions = [d.value for d in sorted(Direction, key=lambda d: d.stream_code)]
    flags = ["true" if code == DELIVERED else "false" for code in range(len(REASONS))]
    return _write_columns(LOG_HEADERS, [
        log.timestamp_s, np.array(directions, dtype="S")[log.direction_code],
        *log.tx_position_m.T, *log.rx_position_m.T, log.distance_m, log.rx_power_dbm,
        np.array(flags, dtype="S")[log.reason_code],
        np.array([r.value for r in REASONS], dtype="S")[log.reason_code],
    ])


#: The word columns of a log and the code of each word.
_LOG_WORDS = {"direction": {d.value: d.stream_code for d in Direction},
              "delivered": {"false": 0, "true": 1},
              "reason": {r.value: code for code, r in enumerate(REASONS)}}
_LOG_NUMBERS = tuple(name for name in LOG_HEADERS if name not in _LOG_WORDS)
#: A word cell one byte wider than the longest word: a longer cell is cut, yet still unknown.
_LOG_FIELDS = [(name, f"S{max(map(len, _LOG_WORDS[name])) + 1}" if name in _LOG_WORDS else float)
               for name in LOG_HEADERS]


def _log_columns(table: np.ndarray):
    """The columns of a loaded log table, or None if a word is unknown or contradicts another."""
    columns = {name: np.ascontiguousarray(table[name]) for name in _LOG_NUMBERS}
    for name, words in _LOG_WORDS.items():
        columns[name] = _codes(table[name], lambda cell, words=words: words.get(
            cell.decode("latin-1"), -1))
    known = np.all([columns[name] >= 0 for name in _LOG_WORDS], axis=0)
    agree = (columns["delivered"] == 1) == (columns["reason"] == DELIVERED)
    return columns if np.all(known & agree) else None


def _check_log_row(row: list) -> None:
    """Raise for the first cell of a log row that does not read, in the order named."""
    if len(row) != len(LOG_HEADERS):
        raise ValueError(f"expected {len(LOG_HEADERS)} fields, got {len(row)}")
    direction, flag, reason = row[1], row[10], row[11]
    for name, cell in (("direction", direction), ("reason", reason)):
        if cell not in _LOG_WORDS[name]:
            raise ValueError(f"unknown enum value {cell!r}")
    if flag not in _LOG_WORDS["delivered"]:
        raise ValueError(f"delivered must be true or false, got {flag!r}")
    if (flag == "true") != (_LOG_WORDS["reason"][reason] == DELIVERED):
        raise ValueError(f"delivered {flag} contradicts reason {reason}")
    for name, cell in zip(LOG_HEADERS, row):
        if name in _LOG_NUMBERS:
            _parse_number(cell)


def parse_log_csv(text: str) -> DeliveryLog:
    """Parse a delivery-log CSV; the distance column is rederived from positions.

    A row whose delivered flag disagrees with its reason, or that holds a
    non-finite number, is refused, so the reason column alone carries the
    outcome. The first bad row, in row order, is named in the ValueError.
    """
    columns, read, failures = _read(_data_lines(text, LOG_HEADERS, "log"), _LOG_FIELDS,
                                    _log_columns, _check_log_row)
    tx, rx = (np.column_stack([columns[name] for name in names])
              for names in (LOG_HEADERS[2:5], LOG_HEADERS[5:8]))
    distance = link_distance_m(tx, rx)
    with np.errstate(invalid="ignore"):  # inf - inf, in a row the finite rule refuses first
        mismatch = np.abs(columns["distance_m"] - distance) > 1e-6
    _refuse_first_row(text, read, failures, [
        *((~np.isfinite(columns[name]), name + " {} must be finite", columns[name])
          for name in _LOG_NUMBERS),
        (mismatch, "distance column {} disagrees with positions ({:.9f})", columns["distance_m"],
         distance),
    ])
    return DeliveryLog(columns["timestamp_s"], columns["direction"], tx, rx, distance,
                       columns["rx_power_dbm"], columns["reason"])


# ---------------------------------------------------------------------------
# PDR curve and heatmap CSV
# ---------------------------------------------------------------------------

PDR_HEADERS = ("bin_start_m", "bin_end_m", "sent", "delivered", "pdr_pct")
HEATMAP_HEADERS = ("cell_x_m", "cell_y_m", "cell_m", "sent", "delivered", "pdr_pct")


def export_pdr_csv(curve: PdrCurve) -> str:
    """Render a PDR curve; empty bins keep their row with a blank pdr_pct."""
    return _write_columns(PDR_HEADERS, [
        curve.bin_start_m, curve.bin_end_m, curve.sent.astype("S"), curve.delivered.astype("S"),
        np.where(np.isnan(curve.pdr_pct), b"", _float_text(curve.pdr_pct))])


def export_heatmap_csv(grid: HeatmapGrid) -> str:
    return _write_columns(HEATMAP_HEADERS, [
        grid.center_x_m, grid.center_y_m, np.full(len(grid), grid.cell_m),
        grid.sent.astype("S"), grid.delivered.astype("S"),
        np.where(np.isnan(grid.pdr_pct), b"", _float_text(grid.pdr_pct))])


def _check_number_row(row: list, kinds: tuple) -> None:
    for cell, kind in zip(row, kinds):
        if kind is float:
            _parse_number(cell)
        else:
            np.int64(_parse_number(cell, int))  # a count beyond int64 fails here, on its row
    if len(row) < len(kinds):
        raise ValueError("list index out of range")


def _read_numbers(text: str, headers: tuple, kind: str, rows: str, kinds: tuple) -> tuple:
    """(lines, columns, indexes of the lines read, failures) of a PDR or heatmap document.

    Each data line starts with one float or int cell per kind; a document
    with no data line, or none that reads, is refused.
    """
    lines = _data_lines(text, headers, kind)
    if not lines:
        raise ValueError(f"{kind} document has no {rows}")
    fields = [(f"c{k}", np.int64 if number is int else float) for k, number in enumerate(kinds)]
    columns, read, failures = _read(
        lines, fields, lambda table: [np.ascontiguousarray(table[name]) for name, _ in fields],
        partial(_check_number_row, kinds=kinds), usecols=list(range(len(kinds))))
    if not read:
        _refuse_first_row(text, read, failures, [])
    return lines, columns, read, failures


def parse_pdr_csv(text: str) -> PdrCurve:
    """Parse a PDR CSV; pdr_pct is rederived from the sent/delivered counts.

    Row k must hold bin k of one fixed-width grid from zero, whose width
    the first row sets, with 0 <= delivered <= sent. The edges are kept as
    read. The first bad row, in row order, is named in the ValueError.
    """
    lines, (start, end, sent, delivered), read, failures = _read_numbers(
        text, PDR_HEADERS, "PDR", "bins", (float, float, int, int))
    k = np.arange(start.size)
    # The width carries the rounding of two 9-decimal edges, which bin k multiplies by k.
    tol = _BIN_EDGE_TOL_M + k * 1e-9
    with np.errstate(invalid="ignore"):  # inf - inf: an edge the grid rule refuses
        width = float(end[0] - start[0])
        off_grid = ~(isclose_array(start, k * width, tol)
                     & isclose_array(end, (k + 1) * width, tol))
    _refuse_first_row(text, read, failures, [
        *count_rules(sent, delivered),
        (off_grid, "bin {}-{} m is not bin {} of a " + f"{width} m grid from 0",
         *(lambda i, j=j: _cells(lines[read[i]])[j] for j in (0, 1)), k),  # the cells as written
        contiguity_rule(start, end),
    ])
    return PdrCurve(width, start, end, sent, delivered)


def parse_heatmap_csv(text: str) -> HeatmapGrid:
    """Parse a heatmap CSV; every row must carry the first row's cell_m."""
    _, (x, y, cell, sent, delivered), read, failures = _read_numbers(
        text, HEATMAP_HEADERS, "heatmap", "cells", (float, float, float, int, int))
    cell_m = float(cell[0])
    with np.errstate(invalid="ignore"):  # inf - inf: a cell_m the first rule refuses
        inconsistent = ~isclose_array(cell, cell_m, 0.0, rel_tol=1e-12)
    _refuse_first_row(text, read, failures, [
        (~((cell > 0.0) & (cell < math.inf)), "cell_m {} must be positive and finite", cell),
        (inconsistent, "inconsistent cell_m {} " + f"(expected {cell_m})", cell),
        *HeatmapGrid.rules(x, y, sent, delivered),
    ])
    return HeatmapGrid(cell_m, x, y, sent, delivered)
