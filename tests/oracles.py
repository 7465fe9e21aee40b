"""Independent numerical oracles the test suite checks the simulator against.

Everything here is computed from the channel definitions directly --
closed-form link budgets and numerically integrated delivery probabilities
-- without touching the simulator's sampling code, so agreement between the
two is meaningful evidence rather than a tautology. The synthetic route has
a scalar reference too: one sample at a time, with plain floats, and so do
the four CSV exports: one row at a time through csv.writer, one "{:.9f}"
call per float.
"""

from __future__ import annotations

import csv
import io
import math
from datetime import datetime, timedelta, timezone

import numpy as np
from scipy import special

from v2xcal.dataio import (
    EARTH_RADIUS_M,
    FT_TO_M,
    HEATMAP_HEADERS,
    LOG_HEADERS,
    MESSAGE_TYPES,
    MPH_TO_MPS,
    PDR_HEADERS,
    TRACE_DIRECTIONS,
    TRACE_HEADERS,
    TRANSMISSION_TYPES,
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
from v2xcal.simulator import Direction

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


def heatmap_csv(grid) -> str:
    """export_heatmap_csv, one cell at a time."""
    return csv_text(HEATMAP_HEADERS, (
        [_NINE(x), _NINE(y), _NINE(grid.cell_m), sent, delivered, _pdr_cell(pct)]
        for x, y, sent, delivered, pct in zip(
            grid.center_x_m.tolist(), grid.center_y_m.tolist(), grid.sent.tolist(),
            grid.delivered.tolist(), grid.pdr_pct.tolist())))
