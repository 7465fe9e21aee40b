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

import numpy as np

from .propagation import (DELIVERED, LOG_DECIMALS, FadingParams, FastFadingModel, RadioParams,
                          nakagami_delivered, nakagami_rx_power, reception_codes, slow_rx_power)
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
    snr_thresholds_db: tuple | None = None  # ((rate, dB), ...) override, else defaults

    def __post_init__(self):
        if not (0.0 < self.bsm_rate_hz < math.inf and 0.0 < self.spat_rate_hz < math.inf):
            raise ValueError("message rates must be positive and finite")
        if not (0.0 < self.bin_width_m < math.inf and 0.0 < self.heatmap_cell_m < math.inf):
            raise ValueError("bin_width_m and heatmap_cell_m must be positive and finite")
        for name in ("rsu_x_m", "rsu_y_m", "rsu_z_m"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not isinstance(self.master_seed, int) or self.master_seed < 0:
            raise ValueError(f"master_seed must be a non-negative integer, got {self.master_seed!r}")

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


def _send_count(duration_s: float, rate_hz: float) -> int:
    # Inclusive start, exclusive end: sends at k/rate for k < duration*rate.
    return int(math.floor(duration_s * rate_hz + _COUNT_EPS))


def _round_log(arr):
    return np.round(arr, LOG_DECIMALS)


def link_distance_m(tx_m: np.ndarray, rx_m: np.ndarray) -> np.ndarray:
    """Distance between paired rows of two (n, 3) position arrays, in meters.

    math.dist of each pair, as math.hypot of its coordinate differences, not
    a vectorized sqrt: the log parser rederives the distance column with this
    function, and the two must agree bit for bit.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan pass silently, as there
        differences = (tx_m - rx_m).T.tolist()
    return np.fromiter(map(math.hypot, *differences), dtype=float, count=len(tx_m))


@dataclass(frozen=True, eq=False)
class PreparedDrive:
    """The part of a scenario run that no channel parameter changes.

    Per packet, vehicle-to-RSU first and each direction in send order: the
    logged columns up to distance_m, the distance bin, and the normal and
    uniform drawn for its shadowing and fast fading. sent counts per bin.
    """

    timestamp_s: np.ndarray
    direction_code: np.ndarray
    tx_position_m: np.ndarray
    rx_position_m: np.ndarray
    distance_m: np.ndarray
    bin_index: np.ndarray
    normals: np.ndarray
    uniforms: np.ndarray
    sent: np.ndarray


def prepare_drive(trace: EnuTrace, scenario: ScenarioConfig) -> PreparedDrive:
    """Schedule every packet of the trace and draw its random numbers.

    Per direction, the shadowing and fast-fading draws come from two child
    streams seeded by (master_seed, direction), consumed in packet order.
    """
    rsu = _round_log(np.array([scenario.rsu_x_m, scenario.rsu_y_m, scenario.rsu_z_m], dtype=float))
    parts = []
    for direction, rate in (
        (Direction.VEHICLE_TO_RSU, scenario.bsm_rate_hz),
        (Direction.RSU_TO_VEHICLE, scenario.spat_rate_hz),
    ):
        n = _send_count(trace.duration_s, rate)
        times = _round_log(np.arange(n, dtype=float) / rate)
        vehicle = _round_log(np.column_stack(trace.position_at(times)))
        site = np.broadcast_to(rsu, vehicle.shape)
        slow_seed, fast_seed = np.random.SeedSequence(
            (scenario.master_seed, direction.stream_code)).spawn(2)
        tx, rx = (vehicle, site) if direction is Direction.VEHICLE_TO_RSU else (site, vehicle)
        parts.append((times, np.full(n, direction.stream_code), tx, rx,
                      link_distance_m(vehicle, site),
                      np.random.default_rng(slow_seed).standard_normal(n),
                      np.random.default_rng(fast_seed).random(n)))
    times, codes, tx, rx, dist, normals, uniforms = (np.concatenate(c) for c in zip(*parts))
    bins = np.floor(dist / scenario.bin_width_m).astype(int)
    return PreparedDrive(times, codes, tx, rx, dist, bins, normals, uniforms, np.bincount(bins))


def _link_m(drive: PreparedDrive) -> np.ndarray:
    return np.maximum(drive.distance_m, 1e-12)


def channel_pass(drive: PreparedDrive, radio: RadioParams, fading: FadingParams) -> np.ndarray:
    """Logged received power (dBm) of every prepared packet under one channel:
    the slow stage, then the Nakagami fast stage when it is enabled."""
    power = slow_rx_power(radio, fading, _link_m(drive), drive.normals)
    if fading.fast_model is FastFadingModel.NAKAGAMI:
        power = nakagami_rx_power(power, fading.nakagami_m, drive.uniforms)
    return _round_log(power)


def delivery_pass(drive: PreparedDrive, radio: RadioParams, fading: FadingParams,
                  snr_table=None):
    """Which prepared packets one channel delivers, and how many took the exact chain.

    The delivered array is reception_codes(channel_pass(...)) == DELIVERED.
    Under Nakagami it comes from nakagami_delivered, which draws the power of
    only the few packets near their thresholds; their count is the second
    value, 0 without fast fading.
    """
    if fading.fast_model is FastFadingModel.NAKAGAMI:
        slow = slow_rx_power(radio, fading, _link_m(drive), drive.normals)
        return nakagami_delivered(slow, fading.nakagami_m, drive.uniforms, radio, snr_table)
    return reception_codes(channel_pass(drive, radio, fading), radio, snr_table) == DELIVERED, 0


def run_scenario(
    trace: EnuTrace,
    scenario: ScenarioConfig,
    radio: RadioParams,
    fading: FadingParams,
) -> DeliveryLog:
    """Simulate every scheduled packet over the trace and log each outcome.

    Deterministic for a given (trace, scenario, radio, fading): the drive's
    draws are fixed by prepare_drive. Logged floats are rounded to
    LOG_DECIMALS before the delivery decision so the log is exactly
    reproducible from its CSV form.
    """
    drive = prepare_drive(trace, scenario)
    rx_power = channel_pass(drive, radio, fading)
    reason = reception_codes(rx_power, radio, scenario.snr_table())
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
    if not 0.0 < bin_width_m < math.inf:
        raise ValueError("bin_width_m must be positive and finite")
    keep = log.sent_in(direction)
    idx = np.floor(log.distance_m[keep] / bin_width_m).astype(int)
    sent = np.bincount(idx)
    delivered = np.bincount(idx[log.delivered[keep]], minlength=sent.size)
    edges = np.arange(sent.size + 1) * bin_width_m
    return PdrCurve(bin_width_m, edges[:-1], edges[1:], sent, delivered)


def heatmap(log: DeliveryLog, cell_m: float, direction: Direction | None = None) -> HeatmapGrid:
    """Aggregate PDR over vehicle positions on a square grid of side cell_m."""
    if not 0.0 < cell_m < math.inf:
        raise ValueError("cell_m must be positive and finite")
    keep = log.sent_in(direction)
    # The vehicle is the transmitter of a vehicle-to-RSU packet, else the receiver.
    v2r = log.direction_code[keep] == Direction.VEHICLE_TO_RSU.stream_code
    vehicle = np.where(v2r[:, None], log.tx_position_m[keep], log.rx_position_m[keep])
    keys = np.floor(vehicle[:, :2] / cell_m).astype(np.int64)
    cell_keys, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    sent = np.bincount(inverse)
    delivered = np.bincount(inverse[log.delivered[keep]], minlength=sent.size)
    centers = (cell_keys + 0.5) * cell_m
    return HeatmapGrid(cell_m, centers[:, 0], centers[:, 1], sent, delivered)


class BinWidthError(ValueError):
    """Two PDR curves, or a curve and a scenario, use different bin widths."""


def check_bin_width(observed_m: float, simulated_m: float) -> None:
    """The one bin-width rule: widths agree to the 1e-9 m a PDR CSV carries."""
    if abs(observed_m - simulated_m) > 1e-9:
        raise BinWidthError(f"bin widths differ: {observed_m} vs {simulated_m}")


def pdr_rmse(observed_pdr: np.ndarray, simulated_pdr: np.ndarray) -> float:
    """RMSE in percent between two PDR arrays over the same bins."""
    return float(np.sqrt(np.mean((observed_pdr - simulated_pdr) ** 2)))


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
