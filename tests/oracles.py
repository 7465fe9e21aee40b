"""Independent numerical oracles the test suite checks the simulator against.

Everything here is computed from the channel definitions directly --
closed-form link budgets and numerically integrated delivery probabilities
-- without touching the simulator's sampling code, so agreement between the
two is meaningful evidence rather than a tautology. The synthetic route has
a scalar reference too: one sample at a time, with plain floats, and so do
the four CSV exports: one row at a time through csv.writer, one "{:.9f}"
call per float; and history.csv, as its own row writer spelled it. So do the four CSV parsers: one record at a time through
csv.reader, one float() per number and one dict lookup per word. The GA
tournament has one too: a loop over its entrants. The heatmap's cells have
one from np.unique over the rows of cell keys.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import fields
from datetime import datetime, timedelta, timezone

import numpy as np
from scipy import special

from v2xcal.calibration import CONTINUOUS_GENES, GENE_NAMES, HISTORY_HEADERS
from v2xcal.dataio import (
    _BIN_EDGE_TOL_M,
    _CODE_COLUMNS,
    _HEADER_ALIASES,
    _normalize_header,
    _record_rules,
    EARTH_RADIUS_M,
    EPOCH,
    FT_TO_M,
    HEATMAP_HEADERS,
    LOG_HEADERS,
    MESSAGE_TYPES,
    MPH_TO_MPS,
    PDR_HEADERS,
    TRACE_DIRECTIONS,
    TRACE_HEADERS,
    TRANSMISSION_TYPES,
    Trace,
    TraceParseError,
)
from v2xcal.propagation import (
    DELIVERED,
    REASONS,
    FadingParams,
    FastFadingModel,
    RadioParams,
    SPEED_OF_LIGHT_M_S,
    SlowFadingModel,
    snr_threshold_db,
)
from v2xcal.simulator import (
    DeliveryLog,
    Direction,
    HeatmapGrid,
    PdrCurve,
    contiguity_rule,
    count_rules,
    isclose_array,
    rule_errors,
)

#: Gauss-Hermite order for integrating over the shadowing normal; the
#: integrand is a smooth CDF so this is far more than enough.
_GH_POINTS = 160

_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(_GH_POINTS)


def friis_reference_dbm(radio: RadioParams, fading: FadingParams) -> float:
    """Closed-form received power at the reference distance, in dBm."""
    wavelength = SPEED_OF_LIGHT_M_S / radio.carrier_frequency_hz
    loss_linear = 10.0 ** (fading.system_loss_db / 10.0)
    power_mw = (
        radio.tx_power_mw
        * radio.antenna_gain_tx
        * radio.antenna_gain_rx
        * wavelength**2
        / ((4.0 * math.pi) ** 2 * fading.reference_distance_m**2 * loss_linear)
    )
    return 10.0 * math.log10(power_mw)


def mean_rx_power_dbm(radio: RadioParams, fading: FadingParams, distance) -> np.ndarray:
    """Deterministic slow-stage received power, distances clamped to d0."""
    d = np.maximum(np.asarray(distance, dtype=float), fading.reference_distance_m)
    return friis_reference_dbm(radio, fading) - 10.0 * fading.alpha * np.log10(
        d / fading.reference_distance_m
    )


def effective_threshold_dbm(radio: RadioParams, snr_table=None) -> float:
    """Single delivery threshold: the binding one of sensitivity and SNR."""
    return max(
        radio.rx_sensitivity_dbm,
        radio.noise_floor_dbm + snr_threshold_db(radio.data_rate_mbps, snr_table),
    )


def expected_pdr_pct(radio: RadioParams, fading: FadingParams, distance,
                     snr_table=None) -> np.ndarray:
    """Expected delivery probability at given distances, in percent.

    Integrates the delivery indicator over the configured fading laws:
    the Nakagami stage contributes a Gamma upper tail, the Lognormal stage
    a Gauss-Hermite average over the shadowing normal.
    """
    mu = np.atleast_1d(mean_rx_power_dbm(radio, fading, distance))
    threshold = effective_threshold_dbm(radio, snr_table)
    sigma = fading.sigma_db if fading.slow_model is SlowFadingModel.LOGNORMAL else 0.0

    if fading.fast_model is FastFadingModel.NAKAGAMI:
        m = fading.nakagami_m

        def delivered_given_slow(slow_dbm):
            omega = 10.0 ** (slow_dbm / 10.0)
            tau = 10.0 ** (threshold / 10.0)
            return special.gammaincc(m, m * tau / omega)

    else:

        def delivered_given_slow(slow_dbm):
            return (slow_dbm >= threshold).astype(float)

    if sigma == 0.0:
        prob = delivered_given_slow(mu)
    else:
        # E[f(mu + sigma Z)] = sum_i w_i f(mu + sigma*sqrt(2)*x_i) / sqrt(pi)
        shifts = sigma * math.sqrt(2.0) * _GH_NODES
        prob = np.zeros_like(mu)
        for weight, shift in zip(_GH_WEIGHTS, shifts):
            prob += weight * delivered_given_slow(mu + shift)
        prob /= math.sqrt(math.pi)

    result = 100.0 * np.clip(prob, 0.0, 1.0)
    return result if np.asarray(distance).ndim else float(result[0])


def expected_bin_pdr_pct(radio: RadioParams, fading: FadingParams, distances,
                         snr_table=None) -> float:
    """Expected PDR of a bin: mean delivery probability over its sends."""
    probs = expected_pdr_pct(radio, fading, np.asarray(distances, dtype=float), snr_table)
    return float(np.mean(probs))


def deterministic_breakpoint_m(radio: RadioParams, fading: FadingParams,
                               snr_table=None) -> float:
    """Distance where the sigma=0, fast-free channel crosses the threshold."""
    threshold = effective_threshold_dbm(radio, snr_table)
    margin_db = friis_reference_dbm(radio, fading) - threshold
    return fading.reference_distance_m * 10.0 ** (margin_db / (10.0 * fading.alpha))


def synthetic_trace_csv(synth, rsu) -> str:
    """trace.csv text of a synthetic route, stepped one sample at a time.

    Each sample walks the legs in order, subtracting each passed leg's
    time from its own; a sample past the last leg is parked at the final
    waypoint with the last leg's heading. Latitude, longitude, heading and
    speed round as Python floats; altitude is an np.float64 and rounds by
    numpy's rule.
    """
    points = [np.asarray(p, dtype=float) for p in synth.waypoints_enu_m]
    cos_lat0 = math.cos(math.radians(rsu.latitude_deg))
    start = datetime(2024, 3, 14, 15, 0, 0, tzinfo=timezone.utc)
    n_samples = int(math.floor(synth.duration_s * synth.sample_rate_hz + 1e-9)) + 1
    lines = [",".join(TRACE_HEADERS)]
    for k in range(n_samples):
        t = k / synth.sample_rate_hz
        remaining = t
        for a, b, v in zip(points, points[1:], synth.leg_speeds_mps):
            leg = b - a
            leg_time = float(np.linalg.norm(leg)) / v
            if remaining <= leg_time:
                pos, speed_mps = a + (remaining / leg_time) * leg, v
                break
            remaining -= leg_time
        else:
            pos, speed_mps = points[-1], 0.0
        heading = math.degrees(math.atan2(leg[0], leg[1])) % 360.0
        lat = rsu.latitude_deg + math.degrees(pos[1] / EARTH_RADIUS_M)
        lon = rsu.longitude_deg + math.degrees(pos[0] / (EARTH_RADIUS_M * cos_lat0))
        alt_ft = rsu.altitude_ft + pos[2] / FT_TO_M
        stamp = start + timedelta(microseconds=round(t * 1e6))
        values = (round(lat, 9), round(lon, 9), round(alt_ft, 9), round(heading, 9) % 360.0,
                  round(speed_mps / MPH_TO_MPS, 9))
        lines.append(",".join([stamp.strftime("%Y-%m-%dT%H:%M:%S.%fZ"),
                               *("{:.9f}".format(v) for v in values), "DSRC", "BSM", "Sent"]))
    return "\n".join(lines) + "\n"


_NINE = "{:.9f}".format


def csv_text(headers, rows) -> str:
    """A header line and the rows, as csv.writer writes them one at a time."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return out.getvalue()


def trace_csv(trace) -> str:
    """export_trace_csv, one record at a time."""
    naive_epoch = datetime(1970, 1, 1)
    return csv_text(TRACE_HEADERS, (
        [(naive_epoch + timedelta(microseconds=us)).isoformat(timespec="microseconds") + "Z",
         *map(_NINE, floats), TRANSMISSION_TYPES[tx].value, MESSAGE_TYPES[msg].value,
         TRACE_DIRECTIONS[direction].value]
        for us, *floats, tx, msg, direction in zip(
            trace.time_us.tolist(), trace.latitude_deg.tolist(), trace.longitude_deg.tolist(),
            trace.altitude_ft.tolist(), trace.heading_deg.tolist(), trace.speed_mph.tolist(),
            trace.transmission_code.tolist(), trace.message_code.tolist(),
            trace.direction_code.tolist())))


def log_csv(log) -> str:
    """export_log_csv, one packet at a time."""
    directions = {d.stream_code: d.value for d in Direction}
    return csv_text(LOG_HEADERS, (
        [_NINE(t), directions[code], *map(_NINE, tx), *map(_NINE, rx), _NINE(dist),
         _NINE(power), "true" if reason == DELIVERED else "false", REASONS[reason].value]
        for t, code, tx, rx, dist, power, reason in zip(
            log.timestamp_s.tolist(), log.direction_code.tolist(), log.tx_position_m.tolist(),
            log.rx_position_m.tolist(), log.distance_m.tolist(), log.rx_power_dbm.tolist(),
            log.reason_code.tolist())))


def _pdr_cell(pct: float) -> str:
    return "" if math.isnan(pct) else _NINE(pct)


def pdr_csv(curve) -> str:
    """export_pdr_csv, one bin at a time."""
    return csv_text(PDR_HEADERS, (
        [_NINE(start), _NINE(end), sent, delivered, _pdr_cell(pct)]
        for start, end, sent, delivered, pct in zip(
            curve.bin_start_m.tolist(), curve.bin_end_m.tolist(), curve.sent.tolist(),
            curve.delivered.tolist(), curve.pdr_pct.tolist())))


def heatmap(log: DeliveryLog, cell_m: float, direction=None) -> HeatmapGrid:
    """simulator.heatmap with its cells from np.unique over the (kx, ky) rows."""
    keep = log.sent_in(direction)
    v2r = log.direction_code[keep] == Direction.VEHICLE_TO_RSU.stream_code
    vehicle = np.where(v2r[:, None], log.tx_position_m[keep], log.rx_position_m[keep])
    keys = np.floor(vehicle[:, :2] / cell_m).astype(np.int64)
    cell_keys, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    sent = np.bincount(inverse)
    delivered = np.bincount(inverse[log.delivered[keep]], minlength=sent.size)
    centers = (cell_keys + 0.5) * cell_m
    return HeatmapGrid(cell_m, centers[:, 0], centers[:, 1], sent, delivered)


def heatmap_csv(grid) -> str:
    """export_heatmap_csv, one cell at a time."""
    return csv_text(HEATMAP_HEADERS, (
        [_NINE(x), _NINE(y), _NINE(grid.cell_m), sent, delivered, _pdr_cell(pct)]
        for x, y, sent, delivered, pct in zip(
            grid.center_x_m.tolist(), grid.center_y_m.tolist(), grid.sent.tolist(),
            grid.delivered.tolist(), grid.pdr_pct.tolist())))


def history_csv(history) -> str:
    """calibration.history_to_csv's text of a list of HistoryRecords as a row writer spelled
    it: str of an integer, a model's value, and "%.9f" of each float gene and the rmse."""
    nine = "%.9f".__mod__

    def gene(name, value):
        if name in CONTINUOUS_GENES:
            return nine(float(value))
        return value.value if isinstance(value, enum.Enum) else str(value)

    rows = [",".join([str(rec.generation), str(rec.individual),
                      *(gene(name, getattr(rec.genome, name)) for name in GENE_NAMES),
                      nine(rec.rmse)]) for rec in history]
    return "\n".join([",".join(HISTORY_HEADERS), *rows, ""])


# ---------------------------------------------------------------------------
# The four CSV parsers, one record at a time. Blank records (cells holding
# nothing but ASCII whitespace) are skipped in all four, the header too.
# ---------------------------------------------------------------------------


def _records(text: str) -> list:
    """(row number, cells) of each non-blank CSV record, counted from 1, blank ones included."""
    return [(row_num, row) for row_num, row in enumerate(csv.reader(io.StringIO(text)), start=1)
            if "".join(row).strip(" \t\r\v\f")]


def _parse_time_us(value: str, epoch_ms: bool) -> int:
    """Microseconds since the Unix epoch of one time cell."""
    if epoch_ms:
        try:
            t = EPOCH + timedelta(milliseconds=int(value))
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
            t = t.replace(tzinfo=timezone.utc)
        t = t.astimezone(timezone.utc)
    return (t - EPOCH) // timedelta(microseconds=1)


def parse_trace_csv(text: str, epoch_ms: bool = False) -> Trace:
    """parse_trace_csv, one record at a time."""
    rows = _records(text)
    if not rows:
        raise TraceParseError("document has no header row")
    header = [_normalize_header(h) for h in rows[0][1]]
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

    row_nums, records, errors = [], [], []
    for row_num, row in rows[1:]:
        try:
            if len(row) < len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            cells = [row[columns[name]].strip() for name in TRACE_HEADERS]
            codes = []
            for (_, name, kinds, aliases), cell in zip(_CODE_COLUMNS, cells[6:]):
                if cell.lower() not in aliases:
                    raise ValueError(f"unknown {name} {cell!r}")
                codes.append(kinds.index(aliases[cell.lower()]))
            records.append((_parse_time_us(cells[0], epoch_ms), *map(float, cells[1:6]), *codes))
            row_nums.append(row_num)
        except (ValueError, OverflowError) as exc:
            errors.append((row_num, str(exc)))
    trace = {f.name: np.array(column) for f, column in zip(fields(Trace), zip(*records))}
    if records:
        errors += [(row_nums[i], reason) for i, reason in rule_errors(_record_rules(trace))]
    if errors:
        errors.sort()
        shown = "; ".join(f"row {row_num}: {reason}" for row_num, reason in errors[:10])
        more = f" (+{len(errors) - 10} more)" if len(errors) > 10 else ""
        raise TraceParseError(f"malformed rows: {shown}{more}")
    try:
        return Trace(**trace)
    except ValueError as exc:
        raise TraceParseError(str(exc)) from None


def _data_rows(text: str, headers: tuple, kind: str) -> list:
    rows = _records(text)
    if not rows or tuple(rows[0][1]) != headers:
        raise ValueError(f"expected {kind} header {','.join(headers)}")
    return rows[1:]


def _refuse_first_row(rows: list, failure, rules) -> None:
    errors = rule_errors(rules)
    if errors:
        failure = (rows[errors[0][0]][0], errors[0][1])
    if failure:
        raise ValueError("row {}: {}".format(*failure))


_LOG_NUMBERS = (0, 2, 3, 4, 5, 6, 7, 8, 9)


def parse_log_csv(text: str) -> DeliveryLog:
    """parse_log_csv, one record at a time."""
    directions = {d.value: d.stream_code for d in Direction}
    reasons = {r.value: code for code, r in enumerate(REASONS)}
    delivered_flags = {"true": True, "false": False}
    numbers, direction_codes, reason_codes, failure = [], [], [], None
    rows = _data_rows(text, LOG_HEADERS, "log")
    for row_num, row in rows:
        try:
            if len(row) != len(LOG_HEADERS):
                raise ValueError(f"expected {len(LOG_HEADERS)} fields, got {len(row)}")
            direction, reason = directions[row[1]], reasons[row[11]]
            if row[10] not in delivered_flags:
                raise ValueError(f"delivered must be true or false, got {row[10]!r}")
            if delivered_flags[row[10]] != (reason == DELIVERED):
                raise ValueError(f"delivered {row[10]} contradicts reason {row[11]}")
            numbers.append([float(row[k]) for k in _LOG_NUMBERS])
        except (KeyError, ValueError) as exc:
            failure = (row_num, f"unknown enum value {exc}" if isinstance(exc, KeyError)
                       else str(exc))
            break
        direction_codes.append(direction)
        reason_codes.append(reason)

    values = np.array(numbers, dtype=float).reshape(-1, 9)
    tx, rx = values[:, 1:4], values[:, 4:7]
    distance = np.array([math.dist(p, q) for p, q in zip(tx.tolist(), rx.tolist())], dtype=float)
    with np.errstate(invalid="ignore"):
        mismatch = np.abs(values[:, 7] - distance) > 1e-6
    _refuse_first_row(rows, failure, [
        *((~np.isfinite(values[:, j]), LOG_HEADERS[k] + " {} must be finite", values[:, j])
          for j, k in enumerate(_LOG_NUMBERS)),
        (mismatch, "distance column {} disagrees with positions ({:.9f})", values[:, 7], distance),
    ])
    return DeliveryLog(values[:, 0], np.array(direction_codes, dtype=int), tx, rx, distance,
                       values[:, 8], np.array(reason_codes, dtype=int))


def _count(cell: str) -> np.int64:
    return np.int64(int(cell))


def _convert_rows(rows: list, converters: tuple):
    values, failure = [], None
    for row_num, row in rows:
        try:
            values.append([convert(row[k]) for k, convert in enumerate(converters)])
        except (ValueError, IndexError, OverflowError) as exc:
            failure = (row_num, str(exc))
            break
    if not values:
        raise ValueError("row {}: {}".format(*failure))
    return [np.array(column) for column in zip(*values)], failure


def parse_pdr_csv(text: str) -> PdrCurve:
    """parse_pdr_csv, one record at a time."""
    rows = _data_rows(text, PDR_HEADERS, "PDR")
    if not rows:
        raise ValueError("PDR document has no bins")
    (start, end, sent, delivered), failure = _convert_rows(rows, (float, float, _count, _count))
    k = np.arange(start.size)
    tol = _BIN_EDGE_TOL_M + k * 1e-9
    with np.errstate(invalid="ignore"):
        width = float(end[0] - start[0])
        off_grid = ~(isclose_array(start, k * width, tol)
                     & isclose_array(end, (k + 1) * width, tol))
    _refuse_first_row(rows, failure, [
        *count_rules(sent, delivered),
        (off_grid, "bin {}-{} m is not bin {} of a " + f"{width} m grid from 0",
         # Only the rows read: a short row after them raised IndexError here.
         [row[0] for _, row in rows[:k.size]], [row[1] for _, row in rows[:k.size]], k),
        contiguity_rule(start, end),
    ])
    return PdrCurve(width, start, end, sent, delivered)


def parse_heatmap_csv(text: str) -> HeatmapGrid:
    """parse_heatmap_csv, one record at a time."""
    rows = _data_rows(text, HEATMAP_HEADERS, "heatmap")
    if not rows:
        raise ValueError("heatmap document has no cells")
    (x, y, cell, sent, delivered), failure = _convert_rows(
        rows, (float, float, float, _count, _count))
    cell_m = float(cell[0])
    with np.errstate(invalid="ignore"):
        inconsistent = ~isclose_array(cell, cell_m, 0.0, rel_tol=1e-12)
    _refuse_first_row(rows, failure, [
        (~((cell > 0.0) & (cell < math.inf)), "cell_m {} must be positive and finite", cell),
        (inconsistent, "inconsistent cell_m {} " + f"(expected {cell_m})", cell),
        *HeatmapGrid.rules(x, y, sent, delivered),
    ])
    return HeatmapGrid(cell_m, x, y, sent, delivered)


def loop_tournament(rng, scores, tournament_size: int) -> int:
    """calibration._tournament as a hand-written loop over the entrants:
    a lower score wins, and so does a lower slot on an equal score."""
    entrants = rng.integers(0, len(scores), size=tournament_size)
    best = int(entrants[0])
    for raw in entrants[1:]:
        i = int(raw)
        if scores[i] < scores[best] or (scores[i] == scores[best] and i < best):
            best = i
    return best
