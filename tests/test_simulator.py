"""Replay, binning, heatmap, and curve-distance checks for the simulator."""

import math
from dataclasses import fields

import numpy as np
import pytest
from scipy import stats

from v2xcal.propagation import (
    BELOW_SNR,
    DELIVERED,
    FadingParams,
    FastFadingModel,
    RadioParams,
    SlowFadingModel,
)
from v2xcal.simulator import (
    DeliveryLog,
    Direction,
    EnuTrace,
    HeatmapGrid,
    PdrCurve,
    ScenarioConfig,
    heatmap,
    link_distance_m,
    pdr_curve,
    rmse,
    run_scenario,
)

import oracles


CALIBRATED_RADIO = RadioParams(
    tx_power_mw=30.16, data_rate_mbps=18, noise_floor_dbm=-90.0, rx_sensitivity_dbm=-114.0
)
CALIBRATED_FADING = FadingParams(
    slow_model=SlowFadingModel.LOGNORMAL,
    fast_model=FastFadingModel.NAKAGAMI,
    alpha=1.51,
    system_loss_db=0.13,
    sigma_db=6.03,
    nakagami_m=2.0,
)


def drive_by_trace(half_m=670.0, y_m=8.0, duration_s=10.0):
    return EnuTrace(
        times_s=np.array([0.0, duration_s]),
        x_m=np.array([-half_m, half_m]),
        y_m=np.array([y_m, y_m]),
        z_m=np.array([0.0, 0.0]),
    )


def _record(distance_m, delivered, direction=Direction.VEHICLE_TO_RSU):
    return float(distance_m), delivered, direction


def _log(records):
    """A log of _record packets: vehicle on the x axis, RSU at the origin, t = 0."""
    n = len(records)
    dist = np.array([r[0] for r in records], dtype=float)
    vehicle = np.column_stack([dist, np.zeros(n), np.zeros(n)])
    site = np.zeros((n, 3))
    v2r = np.array([r[2] is Direction.VEHICLE_TO_RSU for r in records], dtype=bool)[:, None]
    return DeliveryLog(
        timestamp_s=np.zeros(n),
        direction_code=np.array([r[2].stream_code for r in records], dtype=int),
        tx_position_m=np.where(v2r, vehicle, site),
        rx_position_m=np.where(v2r, site, vehicle),
        distance_m=dist,
        rx_power_dbm=np.full(n, -70.0),
        reason_code=np.array([DELIVERED if r[1] else BELOW_SNR for r in records], dtype=int),
    )


def _columns(log, mask=slice(None)):
    return [getattr(log, f.name)[mask].tolist() for f in fields(DeliveryLog)]


# ---------------------------------------------------------------------------
# trace container
# ---------------------------------------------------------------------------


def test_trace_validation():
    with pytest.raises(ValueError, match="equal length"):
        EnuTrace(times_s=[0.0, 1.0], x_m=[0.0], y_m=[0.0, 0.0], z_m=[0.0, 0.0])
    with pytest.raises(ValueError, match="non-decreasing"):
        EnuTrace(times_s=[0.0, 2.0, 1.0], x_m=[0.0] * 3, y_m=[0.0] * 3, z_m=[0.0] * 3)
    with pytest.raises(ValueError, match="non-finite"):
        EnuTrace(times_s=[0.0, math.nan], x_m=[0.0, 0.0], y_m=[0.0, 0.0], z_m=[0.0, 0.0])
    with pytest.raises(ValueError, match="at least 2 distinct"):
        EnuTrace(times_s=[5.0, 5.0], x_m=[0.0, 1.0], y_m=[0.0, 0.0], z_m=[0.0, 0.0])


def test_trace_collapses_duplicate_timestamps():
    trace = EnuTrace(
        times_s=[0.0, 1.0, 1.0, 2.0],
        x_m=[0.0, 10.0, 99.0, 20.0],
        y_m=[0.0] * 4,
        z_m=[0.0] * 4,
    )
    assert trace.times_s.tolist() == [0.0, 1.0, 2.0]
    assert trace.x_m.tolist() == [0.0, 10.0, 20.0]  # first sample wins


def test_trace_interpolation_is_linear():
    trace = EnuTrace(times_s=[0.0, 10.0], x_m=[0.0, 100.0], y_m=[8.0, 8.0], z_m=[0.0, 4.0])
    x, y, z = trace.position_at(2.5)
    assert (float(x), float(y), float(z)) == pytest.approx((25.0, 8.0, 1.0))
    assert trace.duration_s == 10.0


# ---------------------------------------------------------------------------
# packet scheduling
# ---------------------------------------------------------------------------


def test_packet_counts_and_cadence():
    # 10 s at 10 Hz both ways: sends at 0.0, 0.1, ..., 9.9; 100 + 100.
    trace = drive_by_trace(duration_s=10.0)
    scenario = ScenarioConfig(bsm_rate_hz=10.0, spat_rate_hz=10.0, master_seed=1)
    log = run_scenario(trace, scenario, CALIBRATED_RADIO, CALIBRATED_FADING)
    assert len(log) == 200
    bsm = log.timestamp_s[log.sent_in(Direction.VEHICLE_TO_RSU)]
    spat = log.timestamp_s[log.sent_in(Direction.RSU_TO_VEHICLE)]
    assert len(bsm) == len(spat) == 100
    assert bsm[0] == 0.0 and bsm[-1] == pytest.approx(9.9)
    stamps = log.timestamp_s.tolist()
    assert stamps == sorted(stamps)


def test_asymmetric_rates():
    trace = drive_by_trace(duration_s=10.0)
    scenario = ScenarioConfig(bsm_rate_hz=10.0, spat_rate_hz=1.0, master_seed=1)
    log = run_scenario(trace, scenario, CALIBRATED_RADIO, CALIBRATED_FADING)
    assert np.count_nonzero(log.sent_in(Direction.VEHICLE_TO_RSU)) == 100
    assert np.count_nonzero(log.sent_in(Direction.RSU_TO_VEHICLE)) == 10


def test_packet_positions_follow_trace():
    trace = EnuTrace(times_s=[0.0, 10.0], x_m=[0.0, 100.0], y_m=[0.0, 0.0], z_m=[0.0, 0.0])
    scenario = ScenarioConfig(bsm_rate_hz=1.0, spat_rate_hz=1.0, master_seed=3)
    log = run_scenario(trace, scenario, CALIBRATED_RADIO, CALIBRATED_FADING)
    v2r = log.sent_in(Direction.VEHICLE_TO_RSU)[:, None]
    vehicle = np.where(v2r, log.tx_position_m, log.rx_position_m)
    for (x, y, z), t, distance in zip(vehicle.tolist(), log.timestamp_s, log.distance_m):
        assert x == pytest.approx(10.0 * t, abs=1e-9)
        assert distance == pytest.approx(x, abs=1e-6)


def test_direction_endpoints():
    trace = drive_by_trace()
    scenario = ScenarioConfig(rsu_x_m=3.0, rsu_y_m=-2.0, rsu_z_m=6.0, master_seed=5)
    log = run_scenario(trace, scenario, CALIBRATED_RADIO, CALIBRATED_FADING)
    site = [3.0, -2.0, 6.0]
    v2r = log.sent_in(Direction.VEHICLE_TO_RSU)
    assert all(rx == site for rx in log.rx_position_m[v2r].tolist())
    assert all(tx == site for tx in log.tx_position_m[~v2r].tolist())


def test_parked_vehicle_next_to_antenna_gets_everything():
    trace = EnuTrace(times_s=[0.0, 10.0], x_m=[1.0, 1.0], y_m=[0.0, 0.0], z_m=[0.0, 0.0])
    scenario = ScenarioConfig(master_seed=7)
    log = run_scenario(trace, scenario, CALIBRATED_RADIO, CALIBRATED_FADING)
    assert len(log) == 200
    assert log.delivered_count() == 200


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_rerun_is_identical():
    trace = drive_by_trace()
    scenario = ScenarioConfig(master_seed=11)
    a = run_scenario(trace, scenario, CALIBRATED_RADIO, CALIBRATED_FADING)
    b = run_scenario(trace, scenario, CALIBRATED_RADIO, CALIBRATED_FADING)
    assert _columns(a) == _columns(b)


def test_seed_changes_outcomes():
    trace = drive_by_trace()
    a = run_scenario(trace, ScenarioConfig(master_seed=1), CALIBRATED_RADIO, CALIBRATED_FADING)
    b = run_scenario(trace, ScenarioConfig(master_seed=2), CALIBRATED_RADIO, CALIBRATED_FADING)
    assert a.rx_power_dbm.tolist() != b.rx_power_dbm.tolist()


def test_directions_draw_from_independent_streams():
    # Changing the SPaT cadence must not perturb a single BSM outcome.
    trace = drive_by_trace()
    base = run_scenario(trace, ScenarioConfig(master_seed=13, spat_rate_hz=10.0),
                        CALIBRATED_RADIO, CALIBRATED_FADING)
    alt = run_scenario(trace, ScenarioConfig(master_seed=13, spat_rate_hz=2.0),
                       CALIBRATED_RADIO, CALIBRATED_FADING)
    bsm_base = _columns(base, base.sent_in(Direction.VEHICLE_TO_RSU))
    bsm_alt = _columns(alt, alt.sent_in(Direction.VEHICLE_TO_RSU))
    assert bsm_base == bsm_alt


def test_logged_floats_are_quantized():
    trace = drive_by_trace()
    log = run_scenario(trace, ScenarioConfig(master_seed=17), CALIBRATED_RADIO, CALIBRATED_FADING)
    columns = (log.rx_power_dbm, log.timestamp_s, log.tx_position_m, log.rx_position_m)
    for power, t, tx, rx in zip(*(column[:50].tolist() for column in columns)):
        assert power == round(power, 9)
        assert t == round(t, 9)
        for coord in (*tx, *rx):
            assert coord == round(coord, 9)


# ---------------------------------------------------------------------------
# deterministic channel against the analytic breakpoint
# ---------------------------------------------------------------------------


def test_deterministic_channel_is_a_step_function():
    radio = RadioParams(tx_power_mw=40.0, data_rate_mbps=27,
                        noise_floor_dbm=-90.0, rx_sensitivity_dbm=-120.0)
    fading = FadingParams(alpha=1.8)  # FREE_SPACE slow stage, no fast stage
    breakpoint_m = oracles.deterministic_breakpoint_m(radio, fading)
    assert 100.0 < breakpoint_m < 300.0  # inside the drive below
    trace = drive_by_trace(half_m=300.0, y_m=0.0, duration_s=60.0)
    log = run_scenario(trace, ScenarioConfig(master_seed=19), radio, fading)
    for distance, delivered, reason in zip(log.distance_m, log.delivered, log.reason_code):
        if distance <= breakpoint_m - 1e-6:
            assert delivered, distance
        elif distance >= breakpoint_m + 1e-6:
            assert not delivered and reason == BELOW_SNR


# ---------------------------------------------------------------------------
# PDR curve
# ---------------------------------------------------------------------------


def test_pdr_curve_binning_and_conservation():
    log = _log([
        _record(5.0, True),
        _record(15.0, True),
        _record(25.0, True),
        _record(25.5, False),
        _record(26.0, False),
        _record(35.0, True),
    ])
    curve = pdr_curve(log, 10.0)
    assert len(curve) == 4
    assert curve.sent.tolist() == [1, 1, 3, 1]
    assert curve.sent.sum() == len(log)
    assert curve.pdr_pct[2] == pytest.approx(100.0 / 3.0)
    assert curve.bin_start_m[2] == 20.0 and curve.bin_end_m[2] == 30.0


def test_pdr_curve_boundary_goes_to_upper_bin():
    log = _log([_record(20.0, True)])
    curve = pdr_curve(log, 10.0)
    assert curve.sent.tolist() == [0, 0, 1]


def test_pdr_curve_keeps_empty_bins():
    log = _log([_record(5.0, True), _record(45.0, False)])
    curve = pdr_curve(log, 10.0)
    assert (curve.sent == 0).tolist() == [False, True, True, True, False]
    assert np.array_equal(curve.pdr_pct, [100.0, np.nan, np.nan, np.nan, 0.0], equal_nan=True)
    seen = curve.sent > 0
    assert dict(zip(curve.bin_start_m[seen].tolist(), curve.pdr_pct[seen].tolist())) == {
        0.0: 100.0, 40.0: 0.0}


def test_pdr_curve_empty_log():
    curve = pdr_curve(_log([]), 10.0)
    assert len(curve) == 0 and not curve.sent.any()


def test_pdr_curve_direction_filter():
    log = _log([
        _record(5.0, True, Direction.VEHICLE_TO_RSU),
        _record(5.0, False, Direction.RSU_TO_VEHICLE),
    ])
    both = pdr_curve(log, 10.0)
    bsm = pdr_curve(log, 10.0, Direction.VEHICLE_TO_RSU)
    spat = pdr_curve(log, 10.0, Direction.RSU_TO_VEHICLE)
    assert both.pdr_pct[0] == 50.0
    assert bsm.pdr_pct[0] == 100.0
    assert spat.pdr_pct[0] == 0.0


def test_pdr_curve_rejects_bad_width():
    with pytest.raises(ValueError, match="bin_width_m"):
        pdr_curve(_log([]), 0.0)


def test_pdr_curve_contiguity_enforced():
    with pytest.raises(ValueError, match="contiguous"):
        PdrCurve(bin_width_m=10.0, bin_start_m=[0.0, 20.0], bin_end_m=[10.0, 30.0],
                 sent=[1, 1], delivered=[1, 1])


def test_pdr_curve_names_its_first_bad_bin():
    def curve(**changes):
        columns = dict(bin_width_m=10.0, bin_start_m=[0.0, 10.0, 20.0],
                       bin_end_m=[10.0, 20.0, 30.0], sent=[4, 4, 4], delivered=[1, 2, 3])
        return PdrCurve(**{**columns, **changes})

    assert len(curve()) == 3
    with pytest.raises(ValueError, match="bin 1: delivered 5 exceeds sent 4"):
        curve(delivered=[1, 5, 6])
    with pytest.raises(ValueError, match="bin 2: counts must be non-negative"):
        curve(sent=[4, 4, -1], delivered=[1, 2, -1])
    with pytest.raises(ValueError, match="bin 2: bins must be contiguous"):
        curve(bin_start_m=[0.0, 10.0, 20.1], bin_end_m=[10.0, 20.0, 30.1])
    with pytest.raises(ValueError, match="equal length"):
        curve(sent=[4, 4])
    for width in (0.0, -10.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="bin_width_m must be positive and finite"):
            curve(bin_width_m=width)


def test_heatmap_grid_names_its_first_bad_cell():
    def grid(**changes):
        columns = dict(cell_m=20.0, center_x_m=[10.0, 30.0], center_y_m=[10.0, 10.0],
                       sent=[4, 4], delivered=[1, 2])
        return HeatmapGrid(**{**columns, **changes})

    assert grid().pdr_pct.tolist() == [25.0, 50.0]
    with pytest.raises(ValueError, match="cell 1: delivered 18 exceeds sent 4"):
        grid(delivered=[1, 18])
    with pytest.raises(ValueError, match="cell 0: counts must be non-negative"):
        grid(sent=[-4, 4], delivered=[-5, 2])
    with pytest.raises(ValueError, match=r"cell 1: center \(nan, 10.0\) must be finite"):
        grid(center_x_m=[10.0, math.nan])
    with pytest.raises(ValueError, match="cell_m must be positive and finite"):
        grid(cell_m=math.nan)


# ---------------------------------------------------------------------------
# heatmap
# ---------------------------------------------------------------------------


def test_heatmap_cells_and_conservation():
    log = _log([
        _record(5.0, True),       # vehicle at (5, 0) -> cell (0, 0)
        _record(5.0, False),
        _record(25.0, True),      # cell (1, 0) under 20 m cells
    ])
    grid = heatmap(log, 20.0)
    assert len(grid) == 2
    assert grid.sent.sum() == 3
    by_center = dict(zip(zip(grid.center_x_m.tolist(), grid.center_y_m.tolist()),
                         grid.pdr_pct.tolist()))
    assert by_center[(10.0, 10.0)] == 50.0
    assert by_center[(30.0, 10.0)] == 100.0


def test_heatmap_uses_vehicle_end_for_both_directions():
    log = _log([
        _record(5.0, True, Direction.VEHICLE_TO_RSU),
        _record(5.0, True, Direction.RSU_TO_VEHICLE),
    ])
    grid = heatmap(log, 20.0)
    assert len(grid) == 1 and grid.sent[0] == 2


def test_heatmap_pdr_declines_with_distance():
    trace = drive_by_trace(half_m=1500.0, duration_s=300.0)
    log = run_scenario(trace, ScenarioConfig(master_seed=23), CALIBRATED_RADIO, CALIBRATED_FADING)
    grid = heatmap(log, 100.0)
    busy = grid.sent >= 20
    dist = np.hypot(grid.center_x_m[busy], grid.center_y_m[busy])
    pdr = grid.pdr_pct[busy]
    rho, p = stats.spearmanr(dist, pdr)
    assert rho < -0.8 and p < 1e-3


# ---------------------------------------------------------------------------
# curve distance
# ---------------------------------------------------------------------------


def _curve(widths_pdr, width=20.0):
    sent, delivered = zip(*widths_pdr)
    edges = np.arange(len(sent) + 1) * width
    return PdrCurve(bin_width_m=width, bin_start_m=edges[:-1], bin_end_m=edges[1:],
                    sent=sent, delivered=delivered)


def test_rmse_identity_is_zero():
    curve = _curve([(10, 9), (10, 5), (10, 1)])
    assert rmse(curve, curve) == 0.0


def test_rmse_single_bin_difference():
    a = _curve([(10, 10)])
    b = _curve([(10, 9)])
    assert rmse(a, b) == pytest.approx(10.0)


def test_rmse_is_symmetric_and_ignores_empty_bins():
    a = _curve([(10, 10), (0, 0), (10, 2)])
    b = _curve([(10, 8), (10, 5), (10, 4)])
    # Middle bin is empty in a: only bins 0 and 2 compare.
    expect = math.sqrt(((100.0 - 80.0) ** 2 + (20.0 - 40.0) ** 2) / 2.0)
    assert rmse(a, b) == pytest.approx(expect)
    assert rmse(a, b) == rmse(b, a)


def test_rmse_rejects_mismatched_widths():
    with pytest.raises(ValueError, match="bin widths differ"):
        rmse(_curve([(10, 5)], width=20.0), _curve([(10, 5)], width=25.0))


def test_rmse_rejects_disjoint_curves():
    a = _curve([(10, 5), (0, 0)])
    b = _curve([(0, 0), (10, 5)])
    with pytest.raises(ValueError, match="no overlapping"):
        rmse(a, b)


# ---------------------------------------------------------------------------
# scenario config and helpers
# ---------------------------------------------------------------------------


def test_scenario_validation():
    with pytest.raises(ValueError, match="rates"):
        ScenarioConfig(bsm_rate_hz=0.0)
    with pytest.raises(ValueError, match="positive"):
        ScenarioConfig(bin_width_m=-1.0)
    with pytest.raises(ValueError, match="master_seed"):
        ScenarioConfig(master_seed=-1)
    with pytest.raises(ValueError, match="master_seed"):
        ScenarioConfig(master_seed=1.5)
    for name in ("rsu_x_m", "rsu_y_m", "rsu_z_m"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                ScenarioConfig(**{name: value})


@pytest.mark.parametrize("field", ["bsm_rate_hz", "spat_rate_hz", "bin_width_m", "heatmap_cell_m"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_scenario_refuses_non_finite_rates_and_grids(field, value):
    with pytest.raises(ValueError, match="positive and finite"):
        ScenarioConfig(**{field: value})


def test_snr_override_changes_decisions():
    # An 18 Mbps threshold pushed to 50 dB kills most of a drive that the
    # default table happily delivers.
    trace = drive_by_trace(half_m=400.0, duration_s=60.0)
    base = ScenarioConfig(master_seed=29)
    harsh = ScenarioConfig(master_seed=29, snr_thresholds_db=((6, 5.0), (12, 11.0), (18, 50.0), (27, 20.0)))
    log_base = run_scenario(trace, base, CALIBRATED_RADIO, CALIBRATED_FADING)
    log_harsh = run_scenario(trace, harsh, CALIBRATED_RADIO, CALIBRATED_FADING)
    assert log_harsh.delivered_count() < log_base.delivered_count()
    # Same seed, same draws: the rx powers agree packet for packet.
    assert log_harsh.rx_power_dbm.tolist() == log_base.rx_power_dbm.tolist()



def test_link_distance_is_math_dist_of_each_pair():
    # The log parser rederives the distance column with it, bit for bit.
    rng = np.random.default_rng(7)
    scale = rng.choice([1.0, 1e-160, 1e-310, 1e160, 1e308, 0.0], (4000, 2, 3))
    points = rng.uniform(-1.0, 1.0, (4000, 2, 3)) * scale
    points[:6, 0, 0] = [math.inf, -math.inf, math.nan, math.inf, 1.7e308, -1.7e308]
    points[:6, 1, 0] = [math.inf, 0.0, 0.0, math.nan, -1.7e308, 1.7e308]
    expected = [math.dist(p, q) for p, q in points.tolist()]
    got = link_distance_m(points[:, 0], points[:, 1])
    assert got.view(np.int64).tolist() == np.array(expected).view(np.int64).tolist()
