"""Field-log parsing, geodetic projection, CSV serialization, synthetic data.

Trace CSVs use canonical snake_case headers (common aliases accepted,
case-insensitively): time, latitude, longitude, altitude_ft, heading_deg,
speed_mph, transmission_type, message_type, direction. In memory a Trace, like
a DeliveryLog, holds one numpy array per column. SynthSection is the recipe of
a synthetic route, which generate_synthetic drives for all samples at once.
Every export has a parse counterpart that restores the original values
exactly; the four share one column writer and one column reader.

The writer lays out each block of rows as one uint8 matrix of NUL-padded
cells, renders its floats in one pass and drops the NULs. For |x| < 2**22,
y = x * 1e9 is within half a spacing of the true product (1e9 is exact), so
where y's fraction is over a spacing from 0.5, rint(y) gives "{:.9f}" on every
platform, signed by signbit (-1e-12 is -0.000000000). Its digits are exact in
8-digit little-endian words: v // 10**4 splits 4 + 4, then (v * 10486) >> 20 =
v // 100 (v < 10**4) and (v * 103) >> 10 = v // 10 (v < 100) halve each lane,
none carrying into the next. Near-ties, |x| >= 2**22, nan and inf go singly.

The reader takes each record as one line and skips blank lines (nothing but
commas and ASCII whitespace), which still count in row numbers. One loadtxt
pass turns the data lines into float, int64 and fixed-width word columns,
cells unquoted as csv does: bytes for a log and an ASCII trace, UCS-4 for any
other trace, widths counted in characters either way. Exported words take
codes by one comparison per word, other trace spellings by one lookup per
distinct cell, exported times are read by integer arithmetic, and the
format's rules run on whole columns. Only a line that fails to load meets a
per-row check, which names it; so does every line of a document holding a
NUL, which a fixed-width cell drops from its end.

A log or a trace may also be given as a file opened in binary mode. One in
its exported form (ASCII, no \\r or NUL, the header line first, a data line)
is loaded by one loadtxt pass over the file once 64 KiB chunks have been
scanned for that form and its newlines counted. Any other file, one whose
rows do not all read, or a trace of epoch_ms times, is read as its text.
"""

from __future__ import annotations

import csv
import enum
import io
import logging
import math
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from functools import partial, reduce
from typing import BinaryIO

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

logger = logging.getLogger(__name__)

EARTH_RADIUS_M = 6_371_000.0
FT_TO_M = 0.3048
MPH_TO_MPS = 0.44704

#: Records farther than this from the RSU are refused by the projection;
#: the small-angle plane approximation is no longer trustworthy there.
MAX_PROJECTION_RANGE_M = 50_000.0

_BLOCK_ROWS = 1024  # rows the CSV writer renders at once, which bounds its scratch arrays

#: Slack on parsed PDR bin edges: far above the 9-decimal rounding of an
#: exported edge, far below any bin width in use.
_BIN_EDGE_TOL_M = 1e-6

_CELL = np.dtype([("sign", "u1"), ("int", "<u8"), ("dot", "u1"), ("tenth", "u1"), ("frac", "<u8")])
_TENS = 10 ** np.arange(1, 8, dtype=np.uint64)  # a d-digit number is >= d - 1 of them
_KEEP = np.array([2**64 - 2 ** (64 - 8 * d) for d in range(1, 9)], np.uint64)  # last d bytes


def _digit_words(v: np.ndarray) -> np.ndarray:
    """The 8 ASCII digits of each uint64 v < 10**8 as a word, the first digit in its low byte."""
    q = v // 10**4
    w = (v << 32) - q * ((10**4 << 32) - 1)  # q | (v - q * 10**4) << 32: 4 digits a lane
    q = (w * 10486) >> 20 & 0x00000FFF00000FFF  # each 32-bit lane // 100
    w = (w << 16) - q * ((100 << 16) - 1)
    q = (w * 103) >> 10 & 0x003F003F003F003F  # each 16-bit lane // 10
    return (w << 8) - q * ((10 << 8) - 1) + 0x3030303030303030


def _float_text(x: np.ndarray) -> np.ndarray:
    """The "{:.9f}" text of each float as NUL-padded S cells, 19-byte _CELLs where it can."""
    fast = np.abs(x) < 2.0**22
    y = np.where(fast, x, 0.0) * 1e9
    fast &= np.abs(y - np.floor(y) - 0.5) > np.spacing(np.abs(y))
    n = np.abs(np.rint(y)).astype(np.uint64)
    top = n // 10**8  # the integer part, then the first decimal
    whole = top // 10
    cells = np.empty(x.shape, _CELL)
    cells["sign"], cells["dot"] = np.signbit(x) * np.uint8(ord("-")), ord(".")
    cells["int"] = _digit_words(whole) & _KEEP[np.searchsorted(_TENS, whole, "right")]
    cells["tenth"], cells["frac"] = top - whole * 10 + ord("0"), _digit_words(n - top * 10**8)
    exact = np.array([f"{v:.9f}" for v in x[~fast].tolist()], dtype="S")
    text = cells.view("S19").astype(np.result_type("S19", exact), copy=False)
    text[~fast] = exact
    return text


def _write_columns(headers: tuple, columns: list) -> str:
    """CSV text of a header line and one line per row of equal-length columns.

    A column holds floats or S-dtype cells, NUL-padded anywhere; no cell needs quoting.
    """
    text = [",".join(headers) + "\n"]
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = [column[start:start + _BLOCK_ROWS] for column in columns]
        cells = _float_text(np.stack([c for c in block if c.dtype.kind != "S"], axis=1))
        rendered = iter(np.moveaxis(cells.view(np.uint8).reshape(*cells.shape, -1), 1, 0))
        pieces = [c.view(np.uint8).reshape(len(c), -1) if c.dtype.kind == "S" else next(rendered)
                  for c in block]
        starts = np.cumsum([0, *(piece.shape[1] + 1 for piece in pieces)])
        matrix = np.zeros((len(cells), starts[-1]), np.uint8)
        matrix[:, starts[1:] - 1] = list(b"," * (len(pieces) - 1) + b"\n")
        for piece, at in zip(pieces, starts.tolist()):
            matrix[:, at:at + piece.shape[1]] = piece
        text.append(matrix.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(text)


#: What a blank line may hold: commas and ASCII whitespace.
_BLANK = ", \t\r\v\f"


def numbered_lines(text: str) -> list:
    """(number, line) of each non-blank line of a document, header first.

    Every record is one line. Lines are numbered from 1, blank ones
    included, and lose their trailing \\r.
    """
    return [(k, line.rstrip("\r")) for k, line in enumerate(text.split("\n"), 1)
            if line.strip(_BLANK)]


def _lines(text: str) -> list:
    """The non-blank lines of a document, header first."""
    return [line for _, line in numbered_lines(text)]


def line_cells(line: str) -> list:
    """The cells of one line as csv.reader splits them; a quote left open is refused."""
    reader = csv.reader((line, ""))
    try:
        cells = next(reader)
    except csv.Error as exc:
        raise ValueError(str(exc)) from None
    if reader.line_num > 1:
        raise ValueError("a quoted cell runs past the end of the line")
    return cells


def _read(text: str, lines: list, fields: list, convert, check_row, usecols=None) -> tuple:
    """(columns, indexes of the lines they hold, failures) of a document's data lines, read a
    column at a time.

    One loadtxt pass turns the lines into a record array of (name, dtype)
    fields, and convert turns that into columns, or None if it refuses a
    row. Only if either fails, or the text holds a NUL, which a fixed-width
    word field drops from a cell's end, does check_row, which raises for a
    row (a list of cells) that does not read, name each bad line as
    (index, reason), one at a time; the other lines are then loaded again.
    """
    def load(part):
        try:
            table = np.loadtxt(part, fields, delimiter=",", quotechar='"', comments=None,
                               usecols=usecols, ndmin=1) if part else np.zeros(0, fields)
        except ValueError:
            return None
        return convert(table) if len(table) == len(part) else None  # an open quote joins lines

    columns = None if "\0" in text else load(lines)
    if columns is not None:
        return columns, range(len(lines)), []
    failures = []
    for i, line in enumerate(lines):
        try:
            check_row(line_cells(line))
        except (ValueError, OverflowError) as exc:
            failures.append((i, str(exc)))
    read = sorted(set(range(len(lines))) - {i for i, _ in failures})
    columns = load([lines[i] for i in read])
    if columns is None or not (failures or "\0" in text):
        raise ValueError("a row fails to load, yet no check names it")
    return columns, read, failures


def _codes(cells: np.ndarray, words: dict, code_of=None) -> np.ndarray:
    """The code of each S or U cell, -1 if refused: words[cell] by one whole-column comparison
    per word, a key of either kind, else code_of(cell), if given, called once per distinct cell."""
    codes = np.full(len(cells), -1)
    for word, code in words.items():
        codes[cells == np.array(word, cells.dtype.kind)] = code
    if code_of:
        rest = np.flatnonzero(codes < 0)
        distinct, index = np.unique(cells[rest], return_inverse=True)
        codes[rest] = np.array([code_of(cell) for cell in distinct.tolist()], dtype=int)[index]
    return codes


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
        if lines and tuple(line_cells(lines[0])) == headers:
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
    rows = [k for k, _ in numbered_lines(text)]
    return [(rows[i + 1], reason) for i, reason in errors]


def _refuse_first_row(text: str, read, failures: list, rules) -> None:
    errors = _errors(text, read, failures, rules)
    if errors:
        raise ValueError("row {}: {}".format(*errors[0]))


def _exported_data_lines(fh: BinaryIO, header: bytes) -> int:
    """The data lines of a file in an export's form, else 0: ASCII with no \\r or NUL, the
    header line first, byte for byte. fh is left at the first data line."""
    fh.seek(0)
    if fh.read(len(header)) != header:
        return 0
    newlines, last = 0, b"\n"
    while chunk := fh.read(1 << 16):
        if not chunk.isascii() or b"\r" in chunk or b"\0" in chunk:
            return 0
        newlines, last = newlines + chunk.count(b"\n"), chunk[-1:]
    fh.seek(len(header))
    return newlines + (last != b"\n")


def _load_exported(fh: BinaryIO, headers: tuple, fields: list, convert):
    """convert(the table of a file in the exported form of headers, loaded by one loadtxt pass
    straight from it), or None if the file is in another form or a line does not load."""
    lines = _exported_data_lines(fh, (",".join(headers) + "\n").encode())
    if not lines:
        return None
    try:
        table = np.loadtxt(fh, fields, delimiter=",", quotechar='"', comments=None, ndmin=1)
    except ValueError:
        return None
    # Fewer rows than lines: a blank line was skipped or a quoted cell joined two lines.
    return convert(table) if len(table) == lines else None


def _loaded_or_text(source: str | BinaryIO, load) -> tuple:
    """(load(source), None) if source is a file that load reads straight, else (None, the text
    of source): the str itself, or the file decoded as a text-mode open decodes it (strict
    UTF-8, \\r\\n and \\r read as \\n)."""
    if isinstance(source, str):
        return None, source
    loaded = load(source)
    logger.debug("%s: %s", getattr(source, "name", "file"),
                 "read as text" if loaded is None else "loaded straight from its file")
    if loaded is not None:
        return loaded, None
    source.seek(0)
    reader = io.TextIOWrapper(source, encoding="utf-8")
    try:
        return None, reader.read()
    finally:
        reader.detach()  # the file stays open for its owner


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
        if "\0" in text:  # fromisoformat reads "...Z\0x" as the time before the NUL
            raise ValueError(f"time {text!r} holds a NUL")
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
#: export_trace_csv's time as code units ("0" for any digit), then the NUL that pads a
#: cell; the span of code units each place takes; where the seven numbers sit.
_EXPORTED_TIME = np.frombuffer(b"0000-00-00T00:00:00.000000Z\0", np.uint8)
_TIME_SPAN = np.where(_EXPORTED_TIME == ord("0"), 9, 0).astype(np.uint8)
_TIME_FIELDS = ((0, 4), (5, 7), (8, 10), (11, 13), (14, 16), (17, 19), (20, 26))
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _exported_time_us(cells: np.ndarray) -> tuple:
    """(microseconds, mask) of the time cells spelled as export_trace_csv writes them, the day
    counted by the Gregorian days-from-civil rule. A cell outside the mask has another spelling
    or names no existing time, year 0 included; its microseconds are 0.

    The pattern is checked on the cells' own code units: bytes of S cells, code points of U.
    """
    unit = np.dtype(np.uint8 if cells.dtype.kind == "S" else np.uint32)
    points = cells.view((unit, cells.itemsize // unit.itemsize))  # a view, strided or not
    digits = points[:, :len(_EXPORTED_TIME)] - _EXPORTED_TIME  # below its span wraps far above
    ok = np.all(digits <= _TIME_SPAN, axis=1)
    # Horner's rule down each number's digit columns: no BLAS product, whose buffers cost memory.
    year, month, day, hour, minute, second, micro = (
        reduce(lambda n, k: n * 10 + digits[:, k], range(a + 1, b), digits[:, a].astype(np.int64))
        for a, b in _TIME_FIELDS)
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    ok &= ((year >= 1) & (day >= 1) & (hour < 24) & (minute < 60) & (second < 60)
           & (day <= _MONTH_DAYS[np.where(month <= 12, month, 0)] + (leap & (month == 2))))
    y = year - (month <= 2)  # years from March, so that a leap day ends its year
    days = (y * 365 + y // 4 - y // 100 + y // 400 + (153 * ((month + 9) % 12) + 2) // 5
            + day - 719469)
    return np.where(ok, (((days * 24 + hour) * 60 + minute) * 60 + second) * 10**6 + micro, 0), ok


def _word_code(cell, kinds: tuple, aliases: dict) -> int:
    cell = cell.decode() if isinstance(cell, bytes) else cell
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
        rest = np.flatnonzero(~ok)
        for i, cell in zip(rest.tolist(), cells[rest].astype(str).tolist()):
            try:
                time_us[i] = _parse_time_us(cell, False)
            except (ValueError, OverflowError):
                return None
            ok[i] = len(cell) <= _TIME_WIDTH
    columns = {"time_us": time_us, **{name: np.ascontiguousarray(table[name])
                                      for name in _FLOAT_COLUMNS}}
    for name, _, kinds, aliases in _CODE_COLUMNS:
        columns[name] = _codes(table[name], {kind.value: code for code, kind in enumerate(kinds)},
                               partial(_word_code, kinds=kinds, aliases=aliases))
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


def _trace_fields(kind: str, epoch_ms: bool) -> list:
    """The loadtxt fields of a trace's columns in TRACE_HEADERS order, then of its header's last
    column, which makes a shorter row fail to load. Kind S holds the cells as bytes, U as UCS-4."""
    return [("time_us", np.int64 if epoch_ms else f"{kind}{_TIME_WIDTH + 1}"),
            *((name, float) for name in _FLOAT_COLUMNS),
            *((name, f"{kind}{_WORD_WIDTH + 1}") for name, *_ in _CODE_COLUMNS),
            ("last", f"{kind}1")]


def _load_exported_trace(fh: BinaryIO):
    """The Trace of a trace file in export_trace_csv's form whose every row reads and keeps
    every rule, loaded straight from the file; else None."""
    # No last field: a row of more or fewer cells fails to load.
    columns = _load_exported(fh, TRACE_HEADERS, _trace_fields("S", False)[:-1],
                             partial(_trace_columns, epoch_ms=False))
    try:
        return None if columns is None else Trace(**columns)
    except ValueError:  # a record breaks a rule, or the times run backwards
        return None


def parse_trace_csv(source: str | BinaryIO, epoch_ms: bool = False) -> Trace:
    """Parse a message-log CSV document, given as its text or as a seekable file opened in
    binary mode, into a Trace.

    Raises TraceParseError with row numbers (lines counted from 1, blank
    ones included) and reasons for malformed rows, or with a
    document-level message for missing columns, an empty document, or
    out-of-order timestamps.

    A file in export_trace_csv's form whose rows all read is loaded straight
    from it unless epoch_ms is set; any other is parsed as its text-mode read.
    """
    trace, text = _loaded_or_text(source, lambda fh: None if epoch_ms else _load_exported_trace(fh))
    if trace is not None:
        return trace
    lines = _lines(text)
    if not lines:
        raise TraceParseError("document has no header row")
    try:
        header = [_normalize_header(h) for h in line_cells(lines[0])]
    except ValueError as exc:
        raise TraceParseError(f"header row: {exc}") from None
    columns = {_HEADER_ALIASES[name]: pos for pos, name in reversed(list(enumerate(header)))
               if name in _HEADER_ALIASES}  # reversed: the first column of a name counts
    missing = [h for h in TRACE_HEADERS if h not in columns]
    if missing:
        raise TraceParseError(f"missing required columns: {', '.join(missing)}")
    if len(lines) == 1:
        raise TraceParseError("document has a header but no data rows")

    positions = [columns[name] for name in TRACE_HEADERS]
    kind = "S" if text.isascii() else "U"  # bytes hold an ASCII cell in a quarter of the space
    trace, read, failures = _read(
        text, lines[1:], _trace_fields(kind, epoch_ms), partial(_trace_columns, epoch_ms=epoch_ms),
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
    # Years 1-9999 spell every time in 26 ASCII characters: their code points, then a "Z".
    points = np.datetime_as_string(trace.time_us.astype("M8[us]"), unit="us").view(np.uint32)
    stamps = np.full((len(trace), 27), ord("Z"), np.uint8)
    stamps[:, :26] = points.reshape(len(trace), -1)[:, :26]
    return _write_columns(TRACE_HEADERS, [
        stamps.view("S27")[:, 0],
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
    """Build (Trace, PdrCurve) for a planted channel truth.

    The trace is anchored at rsu and drives synth's route; radio and
    fading decide every delivery. The curve is pdr_curve(run_scenario(...))
    of that trace at seed synth.seed, so simulate at that seed rewrites it.
    Deterministic in its arguments; the dataset is self-contained, and
    calibrating against the returned curve with scenario.master_seed equal
    to synth.seed can reach zero error. Raises ValueError unless synth has
    one leg speed per waypoint pair and its drive sends a packet.
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
    log = run_scenario(project_enu(trace, rsu), replace(scenario, master_seed=synth.seed),
                       radio, fading)
    if len(log) == 0:
        raise ValueError(f"the {synth.duration_s} s drive sends no packet at its message rates")
    return trace, pdr_curve(log, scenario.bin_width_m)


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
        columns[name] = _codes(table[name], words)
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


def _delivery_log(columns: dict) -> tuple:
    """(the DeliveryLog of a log's columns, the rules each of its rows must keep)."""
    tx, rx = (np.column_stack([columns[name] for name in names])
              for names in (LOG_HEADERS[2:5], LOG_HEADERS[5:8]))
    distance = link_distance_m(tx, rx)
    with np.errstate(invalid="ignore"):  # inf - inf, in a row the finite rule refuses first
        mismatch = np.abs(columns["distance_m"] - distance) > 1e-6
    return DeliveryLog(columns["timestamp_s"], columns["direction"], tx, rx, distance,
                       columns["rx_power_dbm"], columns["reason"]), [
        *((~np.isfinite(columns[name]), name + " {} must be finite", columns[name])
          for name in _LOG_NUMBERS),
        (mismatch, "distance column {} disagrees with positions ({:.9f})", columns["distance_m"],
         distance),
    ]


def _load_exported_log(fh: BinaryIO):
    """The DeliveryLog of a log file in export_log_csv's form whose every row reads and keeps
    every rule, loaded straight from the file; else None."""
    columns = _load_exported(fh, LOG_HEADERS, _LOG_FIELDS, _log_columns)
    if columns is None:
        return None
    log, rules = _delivery_log(columns)
    return None if rule_errors(rules) else log


def parse_log_csv(source: str | BinaryIO) -> DeliveryLog:
    """Parse a delivery-log CSV, given as its text or as a seekable file opened in binary mode;
    the distance column is rederived from positions.

    A row whose delivered flag disagrees with its reason, or that holds a
    non-finite number, is refused, so the reason column alone carries the
    outcome. The first bad row, in row order, is named in the ValueError.

    A file in export_log_csv's form, whose rows all read, is loaded
    straight from it. Any other file is decoded as a text-mode open does
    (strict UTF-8, \\r\\n and \\r read as \\n) and parsed as that text.
    """
    log, text = _loaded_or_text(source, _load_exported_log)
    if log is not None:
        return log
    columns, read, failures = _read(text, _data_lines(text, LOG_HEADERS, "log"), _LOG_FIELDS,
                                    _log_columns, _check_log_row)
    log, rules = _delivery_log(columns)
    _refuse_first_row(text, read, failures, rules)
    return log


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
        text, lines, fields,
        lambda table: [np.ascontiguousarray(table[name]) for name, _ in fields],
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
         *(lambda i, j=j: line_cells(lines[read[i]])[j] for j in (0, 1)), k),  # the cells as written
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
