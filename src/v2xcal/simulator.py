"""Replay a vehicle trace past an RSU and decide per-packet message delivery.

Basic safety messages travel vehicle-to-RSU and signal phase-and-timing
messages RSU-to-vehicle, each on its own fixed cadence. The vehicle position
is linearly interpolated from the trace, every packet's received power is
drawn through the configured channel cascade, and each delivery decision is
logged. All randomness derives from the scenario seed: packet k of a
direction uses the k-th draw of that direction's dedicated streams, so one
direction's draws never perturb the other's.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .propagation import (DELIVERED, LOG_DECIMALS, SUPPORTED_DATA_RATES_MBPS, FadingParams,
                          FastFadingModel, RadioParams, is_delivered, log_decades,
                          nakagami_delivered, nakagami_rx_power, reception_codes, slow_rx_power,
                          uniform_margins)
# Not called here: bench/tracing.py times these two under the v2xcal.simulator names.
from .propagation import log_distance_rx_power, nakagami_power_sample  # noqa: F401

#: Guard for floating-point jitter when counting whole send intervals.
_COUNT_EPS = 1e-9


class Direction(enum.Enum):
    """Link direction of a message."""

    VEHICLE_TO_RSU = "vehicle_to_rsu"  # basic safety messages
    RSU_TO_VEHICLE = "rsu_to_vehicle"  # signal phase and timing messages

    @property
    def stream_code(self) -> int:
        return 0 if self is Direction.VEHICLE_TO_RSU else 1


@dataclass
class EnuTrace:
    """Vehicle path in east-north-up meters about the RSU site.

    times_s is seconds from the first sample, non-decreasing. Duplicate
    timestamps collapse to their first sample; at least two distinct times
    are required so positions can be interpolated.
    """

    times_s: np.ndarray
    x_m: np.ndarray
    y_m: np.ndarray
    z_m: np.ndarray

    def __post_init__(self):
        self.times_s = np.asarray(self.times_s, dtype=float)
        self.x_m = np.asarray(self.x_m, dtype=float)
        self.y_m = np.asarray(self.y_m, dtype=float)
        self.z_m = np.asarray(self.z_m, dtype=float)
        n = self.times_s.shape[0]
        if not (self.x_m.shape == self.y_m.shape == self.z_m.shape == (n,)):
            raise ValueError("trace arrays must be 1-D and of equal length")
        for name, arr in (("times_s", self.times_s), ("x_m", self.x_m),
                          ("y_m", self.y_m), ("z_m", self.z_m)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
        if np.any(np.diff(self.times_s) < 0.0):
            raise ValueError("times_s must be non-decreasing")
        keep = np.concatenate(([True], np.diff(self.times_s) > 0.0))
        self.times_s = self.times_s[keep]
        self.x_m = self.x_m[keep]
        self.y_m = self.y_m[keep]
        self.z_m = self.z_m[keep]
        if self.times_s.shape[0] < 2:
            raise ValueError("trace needs at least 2 distinct timestamps for interpolation")

    @property
    def duration_s(self) -> float:
        return float(self.times_s[-1] - self.times_s[0])

    def position_at(self, t):
        """Interpolated vehicle position(s) at time(s) t seconds from trace start."""
        rel = np.asarray(t, dtype=float)
        base = self.times_s - self.times_s[0]
        x = np.interp(rel, base, self.x_m)
        y = np.interp(rel, base, self.y_m)
        z = np.interp(rel, base, self.z_m)
        return x, y, z


#: The narrowest PDR bin or heatmap cell: one unit of the CSVs' ninth decimal.
MIN_WIDTH_M = 1e-9


def check_width(name: str, width: float) -> None:
    """Refuse a bin or cell width that is not finite or is below MIN_WIDTH_M."""
    if not MIN_WIDTH_M <= width < math.inf:
        raise ValueError(f"{name} must be positive and finite, at least {MIN_WIDTH_M} m, "
                         f"got {width}")


#: Most distance bins one PDR curve or prepared search may span: np.bincount
#: allocates a count for every bin, so a tiny width over a long drive would
#: ask for terabytes.
MAX_BINS = 10**6


class BinCountError(ValueError):
    """A bin width would split the packets' distances into more than MAX_BINS bins."""


#: Most packets one direction of a drive may send, and most records a synthetic
#: route may hold: each is a row of arrays from its schedule to its log.csv line,
#: and a drive lasts minutes, while a long trace or a high rate would schedule
#: billions. 10**6 is a 27-hour drive at 10 Hz.
MAX_PACKETS = 10**6


class ScheduleError(ValueError):
    """A message rate would send more than MAX_PACKETS packets one way over a drive."""


def bin_indices(distance_m: np.ndarray, bin_width_m: float) -> np.ndarray:
    """floor(distance / bin_width) of each packet, refused above MAX_BINS bins."""
    bins = np.floor(distance_m / bin_width_m)
    if bins.size and bins.max() >= MAX_BINS:
        raise BinCountError(f"{bin_width_m} m bins to {distance_m.max()} m would number "
                            f"{int(bins.max()) + 1}, more than {MAX_BINS}")
    return bins.astype(int)


@dataclass(frozen=True)
class ScenarioConfig:
    """Replay settings: RSU antenna position, message cadences, seed, grids."""

    rsu_x_m: float = 0.0
    rsu_y_m: float = 0.0
    rsu_z_m: float = 0.0
    bsm_rate_hz: float = 10.0
    spat_rate_hz: float = 10.0
    bin_width_m: float = 20.0
    heatmap_cell_m: float = 20.0
    master_seed: int = 1729
    snr_thresholds_db: tuple | None = None  # ((rate, dB), ...) for every rate, else defaults

    def __post_init__(self):
        if not (0.0 < self.bsm_rate_hz < math.inf and 0.0 < self.spat_rate_hz < math.inf):
            raise ValueError("message rates must be positive and finite")
        check_width("bin_width_m", self.bin_width_m)
        check_width("heatmap_cell_m", self.heatmap_cell_m)
        for name in ("rsu_x_m", "rsu_y_m", "rsu_z_m"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if not math.isfinite(float(value) * 10.0**LOG_DECIMALS):  # as np.round scales it
                raise ValueError(f"{name} {value} overflows its {LOG_DECIMALS}-decimal rounding")
        if not isinstance(self.master_seed, int) or self.master_seed < 0:
            raise ValueError(f"master_seed must be a non-negative integer, got {self.master_seed!r}")
        table = self.snr_thresholds_db
        if table is not None and not (
                all(isinstance(row, tuple) and len(row) == 2 for row in table)
                and tuple(rate for rate, _ in table) == SUPPORTED_DATA_RATES_MBPS
                and all(isinstance(rate, int) and isinstance(db, (int, float)) and math.isfinite(db)
                        for rate, db in table)):
            raise ValueError(f"snr_thresholds_db must hold one finite threshold per data rate "
                             f"{SUPPORTED_DATA_RATES_MBPS}, in that order, got {table!r}")

    def snr_table(self) -> dict | None:
        return dict(self.snr_thresholds_db) if self.snr_thresholds_db is not None else None


@dataclass(eq=False)
class DeliveryLog:
    """Per-packet outcomes of one scenario run, one array per log column.

    Packets are in chronological order, vehicle-to-RSU first on timestamp
    ties. Positions are (n, 3) east-north-up rows; direction_code holds
    Direction.stream_code and reason_code an index into propagation.REASONS.
    """

    timestamp_s: np.ndarray
    direction_code: np.ndarray
    tx_position_m: np.ndarray
    rx_position_m: np.ndarray
    distance_m: np.ndarray
    rx_power_dbm: np.ndarray
    reason_code: np.ndarray

    def __len__(self):
        return self.timestamp_s.shape[0]

    @property
    def delivered(self) -> np.ndarray:
        return self.reason_code == DELIVERED

    def delivered_count(self) -> int:
        return int(np.count_nonzero(self.delivered))

    def sent_in(self, direction: Direction | None) -> np.ndarray:
        """Mask of the packets sent in direction; None selects every packet."""
        if direction is None:
            return np.ones(len(self), dtype=bool)
        return self.direction_code == direction.stream_code


def rule_errors(rules) -> list:
    """(index, reason) of each element that breaks a rule, in index order.

    A rule is (mask of the bad elements, reason template, columns whose
    values at the index fill the template, or functions of the index); an
    element is reported once, under the first rule it breaks.
    """
    errors = {}
    for bad, reason, *columns in rules:
        for i in np.flatnonzero(bad).tolist():
            errors.setdefault(i, reason.format(*(column(i) if callable(column) else column[i]
                                                 for column in columns)))
    return sorted(errors.items())


def count_rules(sent, delivered) -> list:
    """The rules on a table's counts: non-negative, and no more delivered than sent."""
    return [((sent < 0) | (delivered < 0), "counts must be non-negative, got sent {}, "
             "delivered {}", sent, delivered),
            (delivered > sent, "delivered {} exceeds sent {}", delivered, sent)]


def isclose_array(a, b, abs_tol, rel_tol=1e-9) -> np.ndarray:
    """math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol) for finite values, elementwise."""
    return np.abs(a - b) <= np.maximum(rel_tol * np.maximum(np.abs(a), np.abs(b)), abs_tol)


def contiguity_rule(start, end):
    """The rule that bin i + 1 starts where bin i ends, to within 1e-9 m or 1e-9 of the edge."""
    return (np.concatenate(([False], ~isclose_array(end[:-1], start[1:], 1e-9))),
            "bins must be contiguous and ascending")


class _CountTable:
    """A width, then one array per column, ending in sent and delivered counts.

    Each row, a "bin" or "cell" as row_name says, must keep the class's
    rules; the first row that breaks one is named in the ValueError.
    """

    def __post_init__(self):
        width_name, *columns = (f.name for f in fields(self))
        width = getattr(self, width_name)
        if not 0.0 < width < math.inf:
            raise ValueError(f"{width_name} must be positive and finite, got {width}")
        for name in columns:
            setattr(self, name, np.asarray(getattr(self, name),
                                           dtype=int if name in ("sent", "delivered") else float))
        shapes = {getattr(self, name).shape for name in columns}
        if len(shapes) != 1 or len(shapes.pop()) != 1:
            raise ValueError(f"{self.row_name} columns must be 1-D and of equal length")
        errors = rule_errors(self.rules(*(getattr(self, name) for name in columns)))
        if errors:
            raise ValueError("{} {}: {}".format(self.row_name, *errors[0]))

    def __len__(self):
        return self.sent.shape[0]

    @property
    def pdr_pct(self) -> np.ndarray:
        """Delivery ratio in percent per row, NaN for a row with no sends."""
        return np.divide(100.0 * self.delivered, self.sent, out=np.full(len(self), np.nan),
                         where=self.sent > 0)


@dataclass(eq=False)
class PdrCurve(_CountTable):
    """Packet delivery ratio versus distance, one array per CSV column.

    Bin i covers [bin_start_m[i], bin_end_m[i]); the bins are contiguous
    and of width bin_width_m. The edges are kept as given: a width re-read
    from 9-decimal edges is rounded, so edges derived from it would not
    re-export the same bytes. Counts are non-negative, with delivered <= sent.
    """

    row_name = "bin"
    bin_width_m: float
    bin_start_m: np.ndarray
    bin_end_m: np.ndarray
    sent: np.ndarray
    delivered: np.ndarray

    @staticmethod
    def rules(start, end, sent, delivered) -> list:
        return [*count_rules(sent, delivered), contiguity_rule(start, end)]


@dataclass(eq=False)
class HeatmapGrid(_CountTable):
    """PDR over vehicle positions on a square grid, one array per CSV column.

    Only visited cells are kept, each keyed by its center, which is kept as
    given like the edges of a PdrCurve. Centers are finite.
    """

    row_name = "cell"
    cell_m: float
    center_x_m: np.ndarray
    center_y_m: np.ndarray
    sent: np.ndarray
    delivered: np.ndarray

    @staticmethod
    def rules(x, y, sent, delivered) -> list:
        return [(~(np.isfinite(x) & np.isfinite(y)), "center ({}, {}) must be finite", x, y),
                *count_rules(sent, delivered)]


def _send_count(duration_s: float, rate_hz: float, key: str) -> int:
    # Inclusive start, exclusive end: sends at k/rate for k < duration*rate.
    sends = duration_s * rate_hz + _COUNT_EPS
    if not sends < MAX_PACKETS + 1:  # a float test: math.floor refuses inf
        raise ScheduleError(f"scenario.{key} {rate_hz} Hz over {duration_s} s would schedule "
                            f"more than {MAX_PACKETS} packets")
    return int(math.floor(sends))


def _round_log(arr):
    return np.round(arr, LOG_DECIMALS)


#: Rows link_distance_m turns into Python floats at once, which bounds its scratch lists.
_DISTANCE_ROWS = 1024


def link_distance_m(tx_m: np.ndarray, rx_m: np.ndarray) -> np.ndarray:
    """Distance between paired rows of two (n, 3) position arrays, in meters.

    math.dist of each pair, as math.hypot of its coordinate differences, not
    a vectorized sqrt: the log parser rederives the distance column with this
    function, and the two must agree bit for bit.
    """
    distance = np.empty(len(tx_m))
    rx_m = np.broadcast_to(rx_m, tx_m.shape)  # one RSU position may stand for every row
    for start in range(0, len(tx_m), _DISTANCE_ROWS):
        rows = slice(start, start + _DISTANCE_ROWS)
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan pass silently, as there
            differences = (tx_m[rows] - rx_m[rows]).T.tolist()
        distance[rows] = np.fromiter(map(math.hypot, *differences), dtype=float,
                                     count=len(differences[0]))
    return distance


@dataclass(frozen=True, eq=False)
class PreparedDrive:
    """The part of a scenario run that no channel parameter changes.

    Per packet, vehicle-to-RSU first and each direction in send order: the
    logged columns up to distance_m, the log_decades of its link (at least
    1e-12 m) beyond the reference distance the drive was prepared for, and
    the normal and uniform drawn for its shadowing and fast fading; then the
    scenario's SNR table. A pass over the drive must use a fading with that
    reference distance, which no gene sets. No bins: pdr_curve and
    PreparedSearch bin packets.
    """

    timestamp_s: np.ndarray
    direction_code: np.ndarray
    tx_position_m: np.ndarray
    rx_position_m: np.ndarray
    distance_m: np.ndarray
    decades: np.ndarray
    normals: np.ndarray
    uniforms: np.ndarray
    snr_table: dict | None

    @cached_property
    def margins(self) -> tuple:
        return uniform_margins(self.uniforms)  # for every Nakagami pass over the drive


def prepare_drive(trace: EnuTrace, scenario: ScenarioConfig,
                  reference_distance_m: float) -> PreparedDrive:
    """Schedule every packet of the trace and draw its random numbers; bin none.

    Per direction, the shadowing and fast-fading draws come from two child
    streams seeded by (master_seed, direction), consumed in packet order. A
    rate that would send more than MAX_PACKETS packets one way raises
    ScheduleError before any array of them exists.
    """
    rsu = _round_log(np.array([scenario.rsu_x_m, scenario.rsu_y_m, scenario.rsu_z_m], dtype=float))
    parts, schedules = [], {}  # send times, positions, distances and decades of each distinct rate
    for direction, key in ((Direction.VEHICLE_TO_RSU, "bsm_rate_hz"),
                           (Direction.RSU_TO_VEHICLE, "spat_rate_hz")):
        rate = getattr(scenario, key)
        if rate not in schedules:
            times = _round_log(np.arange(_send_count(trace.duration_s, rate, key), dtype=float) / rate)
            vehicle = _round_log(np.column_stack(trace.position_at(times)))
            distance = link_distance_m(vehicle, rsu[None, :])
            schedules[rate] = times, vehicle, distance, log_decades(
                np.maximum(distance, 1e-12), reference_distance_m)
        times, vehicle, distance, decades = schedules[rate]
        n, site = len(times), np.broadcast_to(rsu, vehicle.shape)
        slow_seed, fast_seed = np.random.SeedSequence(
            (scenario.master_seed, direction.stream_code)).spawn(2)
        tx, rx = (vehicle, site) if direction is Direction.VEHICLE_TO_RSU else (site, vehicle)
        parts.append((times, np.full(n, direction.stream_code), tx, rx, distance, decades,
                      np.random.default_rng(slow_seed).standard_normal(n),
                      np.random.default_rng(fast_seed).random(n)))
    return PreparedDrive(*(np.concatenate(c) for c in zip(*parts)), scenario.snr_table())


def channel_pass(drive: PreparedDrive, radio: RadioParams, fading: FadingParams) -> np.ndarray:
    """Logged received power (dBm) of every prepared packet under one channel:
    the slow stage, then the Nakagami fast stage when it is enabled. fading
    must have the reference distance the drive was prepared for."""
    power = slow_rx_power(radio, fading, drive.decades, drive.normals)
    if fading.fast_model is FastFadingModel.NAKAGAMI:
        power = nakagami_rx_power(power, fading.nakagami_m, drive.uniforms)
    return _round_log(power)


def delivery_pass(drive: PreparedDrive, radio: RadioParams, fading: FadingParams):
    """Which prepared packets one channel delivers, and how many took the exact chain.

    The delivered array is is_delivered(channel_pass(...)) under the drive's
    SNR table. Under Nakagami it comes from nakagami_delivered, which draws
    the power of only the few packets near their thresholds; their count is
    the second value, 0 without fast fading. fading is as for channel_pass.
    """
    if fading.fast_model is FastFadingModel.NAKAGAMI:
        return nakagami_delivered(slow_rx_power(radio, fading, drive.decades, drive.normals),
                                  fading.nakagami_m, drive.uniforms, radio, drive.snr_table,
                                  drive.margins)
    return is_delivered(channel_pass(drive, radio, fading), radio, drive.snr_table), 0


def run_scenario(trace: EnuTrace, scenario: ScenarioConfig, radio: RadioParams,
                 fading: FadingParams) -> DeliveryLog:
    """Simulate every scheduled packet over the trace and log each outcome.

    Deterministic for a given (trace, scenario, radio, fading): the drive's
    draws are fixed by prepare_drive. Logged floats are rounded to
    LOG_DECIMALS before the delivery decision so the log is exactly
    reproducible from its CSV form.
    """
    drive = prepare_drive(trace, scenario, fading.reference_distance_m)
    rx_power = channel_pass(drive, radio, fading)
    reason = reception_codes(rx_power, radio, drive.snr_table)
    # Chronological order; vehicle-to-RSU first on timestamp ties.
    order = np.lexsort((drive.direction_code, drive.timestamp_s))
    columns = (drive.timestamp_s, drive.direction_code, drive.tx_position_m,
               drive.rx_position_m, drive.distance_m, rx_power, reason)
    return DeliveryLog(*(column[order] for column in columns))


def pdr_curve(log: DeliveryLog, bin_width_m: float, direction: Direction | None = None) -> PdrCurve:
    """Group packets by floor(distance / bin_width) and compute per-bin PDR.

    Bins run contiguously from zero through the farthest observed distance;
    bins that saw no traffic are kept as explicit empties. An empty log
    yields an empty curve.
    """
    check_width("bin_width_m", bin_width_m)
    keep = log.sent_in(direction)
    idx = bin_indices(log.distance_m[keep], bin_width_m)
    sent = np.bincount(idx)
    delivered = np.bincount(idx[log.delivered[keep]], minlength=sent.size)
    edges = np.arange(sent.size + 1) * bin_width_m
    return PdrCurve(bin_width_m, edges[:-1], edges[1:], sent, delivered)


def heatmap(log: DeliveryLog, cell_m: float, direction: Direction | None = None) -> HeatmapGrid:
    """Aggregate PDR over vehicle positions on a square grid of side cell_m. A vehicle 2**62 or
    more cells from the origin is refused: below that, its cell index cannot overflow int64."""
    check_width("cell_m", cell_m)
    keep = log.sent_in(direction)
    # The vehicle is the transmitter of a vehicle-to-RSU packet, else the receiver.
    v2r = log.direction_code == Direction.VEHICLE_TO_RSU.stream_code
    vehicle = np.where(v2r[:, None], log.tx_position_m[:, :2], log.rx_position_m[:, :2])[keep]
    far = vehicle[~np.all(np.abs(vehicle) < 2.0**62 * cell_m, axis=1)]
    if far.size:
        raise ValueError(f"vehicle position {far[0].tolist()} m lies 2**62 or more cells out")
    kx, ky = np.floor(vehicle / cell_m).astype(np.int64).T
    # Cells in (kx, ky) order: each run of equal keys in the sorted order is one cell.
    order = np.lexsort((ky, kx))
    kx, ky = kx[order], ky[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = (kx[1:] != kx[:-1]) | (ky[1:] != ky[:-1])
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    sent = np.bincount(inverse)
    delivered = np.bincount(inverse[log.delivered[keep]], minlength=sent.size)
    with np.errstate(over="ignore"):  # a centre past the float maximum is refused below
        x, y = (kx[starts] + 0.5) * cell_m, (ky[starts] + 0.5) * cell_m
    if not np.all(np.isfinite(x) & np.isfinite(y)):
        raise ValueError(f"cell_m {cell_m} m puts a cell centre past the float maximum")
    return HeatmapGrid(cell_m, x, y, sent, delivered)


class BinWidthError(ValueError):
    """Two PDR curves, or a curve and a scenario, use different bin widths."""


def check_bin_width(observed_m: float, simulated_m: float) -> None:
    """The one bin-width rule: widths agree to the 1e-9 m a PDR CSV carries."""
    if abs(observed_m - simulated_m) > 1e-9:
        raise BinWidthError(f"bin widths differ: {observed_m} vs {simulated_m}")


def pdr_rmse(observed_pdr: np.ndarray, simulated_pdr: np.ndarray) -> float:
    """RMSE in percent between two PDR arrays over the same bins."""
    diff = observed_pdr - simulated_pdr  # np.mean's own sum and divide, bit for bit
    return math.sqrt(np.add.reduce(diff * diff) / diff.size)


def rmse(observed: PdrCurve, simulated: PdrCurve) -> float:
    """Root-mean-square error between two PDR curves, in percent.

    Bin k is compared with bin k, over the bins non-empty in both curves.
    The curves must share the bin width and start at zero, as pdr_curve and
    parse_pdr_csv make them; having no overlapping non-empty bin is an error.
    """
    check_bin_width(observed.bin_width_m, simulated.bin_width_m)
    common = np.intersect1d(np.flatnonzero(observed.sent), np.flatnonzero(simulated.sent))
    if not common.size:
        raise ValueError("no overlapping non-empty bins between the two curves")
    return pdr_rmse(observed.pdr_pct[common], simulated.pdr_pct[common])
