"""Parsing, projection, synthesis, and CSV round-trip checks."""

import math
from dataclasses import fields
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from v2xcal.dataio import (
    _BLOCK_ROWS,
    _digit_words,
    _write_columns,
    EARTH_RADIUS_M,
    EPOCH,
    FT_TO_M,
    MAX_PROJECTION_RANGE_M,
    MESSAGE_TYPES,
    TRACE_DIRECTIONS,
    TRACE_HEADERS,
    TRANSMISSION_TYPES,
    GeodeticPosition,
    MessageType,
    SynthSection,
    Trace,
    TraceDirection,
    TraceParseError,
    TransmissionType,
    export_heatmap_csv,
    export_log_csv,
    export_pdr_csv,
    export_trace_csv,
    generate_synthetic,
    parse_heatmap_csv,
    parse_log_csv,
    parse_pdr_csv,
    parse_trace_csv,
    project_enu,
)
from v2xcal.propagation import (
    BELOW_SNR,
    DELIVERED,
    REASONS,
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


T0 = datetime(2024, 3, 14, 15, 0, 0, tzinfo=timezone.utc)


def _columns(table):
    return [getattr(table, f.name).tolist() for f in fields(table)]


def _time(trace, i):
    return EPOCH + timedelta(microseconds=int(trace.time_us[i]))


def make_record(seconds=0.0, lat=45.0, lon=-93.0, alt_ft=900.0, heading=90.0, speed=30.0):
    """One DSRC BSM fix, as its values of the Trace columns."""
    return ((T0 + timedelta(seconds=seconds) - EPOCH) // timedelta(microseconds=1),
            lat, lon, alt_ft, heading, speed,
            TRANSMISSION_TYPES.index(TransmissionType.DSRC), MESSAGE_TYPES.index(MessageType.BSM),
            TRACE_DIRECTIONS.index(TraceDirection.SENT))


def make_trace(records):
    return Trace(*map(list, zip(*records)))


CANONICAL_CSV = """time,latitude,longitude,altitude_ft,heading_deg,speed_mph,transmission_type,message_type,direction
2024-03-14T15:00:00.000000Z,45.000000000,-93.000000000,900.0,90.0,30.0,DSRC,BSM,Sent
2024-03-14T15:00:01.000000Z,45.000100000,-93.000000000,900.0,90.0,30.0,DSRC,SPaT,Received
"""


# ---------------------------------------------------------------------------
# trace parsing
# ---------------------------------------------------------------------------


def test_parse_canonical_document():
    trace = parse_trace_csv(CANONICAL_CSV)
    assert len(trace) == 2
    assert _time(trace, 0) == T0
    assert trace.latitude_deg[0] == 45.0
    assert MESSAGE_TYPES[trace.message_code[1]] is MessageType.SPAT
    assert TRACE_DIRECTIONS[trace.direction_code[1]] is TraceDirection.RECEIVED


def test_parse_header_aliases_and_case():
    text = (
        "Time,Lat,Long,Altitude (ft),Heading,Speed (mph),Transmission,Msg Type,Dir\n"
        "2024-03-14T15:00:00Z,45.0,-93.0,900,90,30,dsrc,bsm,sent\n"
        "2024-03-14T15:00:01Z,45.0,-93.0,900,90,30,CV2X,spat,rx\n"
    )
    trace = parse_trace_csv(text)
    assert trace.altitude_ft[0] == 900.0
    assert TRANSMISSION_TYPES[trace.transmission_code[1]] is TransmissionType.CV2X
    assert TRACE_DIRECTIONS[trace.direction_code[1]] is TraceDirection.RECEIVED


def test_parse_ignores_unknown_extra_columns():
    text = (
        "time,latitude,longitude,altitude_ft,heading_deg,speed_mph,"
        "transmission_type,message_type,direction,rssi_dbm\n"
        "2024-03-14T15:00:00Z,45.0,-93.0,900,90,30,DSRC,BSM,Sent,-71\n"
        "2024-03-14T15:00:01Z,45.0,-93.0,900,90,30,DSRC,BSM,Sent,-72\n"
    )
    assert len(parse_trace_csv(text)) == 2


def test_parse_naive_timestamps_assume_utc():
    text = CANONICAL_CSV.replace(".000000Z", ".000000")
    trace = parse_trace_csv(text)
    assert _time(trace, 0) == T0


def test_parse_epoch_milliseconds():
    ms = int(T0.timestamp() * 1000)
    text = (
        "time,latitude,longitude,altitude_ft,heading_deg,speed_mph,"
        "transmission_type,message_type,direction\n"
        f"{ms},45.0,-93.0,900,90,30,DSRC,BSM,Sent\n"
        f"{ms + 100},45.0,-93.0,900,90,30,DSRC,BSM,Sent\n"
    )
    trace = parse_trace_csv(text, epoch_ms=True)
    assert _time(trace, 0) == T0
    assert _time(trace, 1) - _time(trace, 0) == timedelta(milliseconds=100)


def test_parse_missing_column_is_document_error():
    text = "time,latitude,longitude,altitude_ft,heading_deg,speed_mph,transmission_type,message_type\n"
    with pytest.raises(TraceParseError, match="missing required columns: direction"):
        parse_trace_csv(text + "x\n")


def test_parse_empty_document():
    with pytest.raises(TraceParseError, match="no header row"):
        parse_trace_csv("")
    with pytest.raises(TraceParseError, match="no data rows"):
        parse_trace_csv(CANONICAL_CSV.splitlines()[0] + "\n")


def test_parse_bad_row_names_row_and_reason():
    bad = CANONICAL_CSV.replace("45.000100000", "95.0")
    with pytest.raises(TraceParseError, match=r"row 3: latitude 95\.0"):
        parse_trace_csv(bad)


def test_parse_collects_multiple_row_errors():
    lines = CANONICAL_CSV.splitlines()
    lines[1] = lines[1].replace("DSRC", "LTE")
    lines[2] = lines[2].replace("90.0,30.0", "400.0,30.0")  # heading out of range
    with pytest.raises(TraceParseError) as err:
        parse_trace_csv("\n".join(lines) + "\n")
    assert "row 2" in str(err.value) and "row 3" in str(err.value)


def test_parse_truncates_error_list():
    header = CANONICAL_CSV.splitlines()[0]
    row = "2024-03-14T15:00:00Z,45.0,-93.0,900,90,-5,DSRC,BSM,Sent"  # negative speed
    with pytest.raises(TraceParseError, match=r"\(\+5 more\)"):
        parse_trace_csv("\n".join([header] + [row] * 15) + "\n")


def test_parse_row_numbers_count_blank_lines():
    lines = CANONICAL_CSV.splitlines()
    text = "\n".join([lines[0], "", "", lines[1], lines[2].replace("45.000100000", "95.0")])
    with pytest.raises(TraceParseError, match=r"row 5: latitude 95\.0"):
        parse_trace_csv(text + "\n")


def test_trace_names_its_first_bad_record():
    with pytest.raises(ValueError, match=r"record 1: heading 360\.0 outside \[0, 360\)"):
        make_trace([make_record(0.0), make_record(1.0, heading=360.0), make_record(2.0, speed=-1.0)])
    with pytest.raises(ValueError, match="record 2: speed_mph must be finite"):
        make_trace([make_record(0.0), make_record(1.0), make_record(2.0, speed=math.inf)])


def test_parse_out_of_order_timestamps():
    lines = CANONICAL_CSV.splitlines()
    swapped = "\n".join([lines[0], lines[2], lines[1]]) + "\n"
    with pytest.raises(TraceParseError, match="not non-decreasing at record 1"):
        parse_trace_csv(swapped)


def test_parse_unknown_enum_values():
    with pytest.raises(TraceParseError, match="unknown message_type 'PSM'"):
        parse_trace_csv(CANONICAL_CSV.replace("SPaT", "PSM"))


def test_trace_export_round_trip():
    trace = make_trace([
        make_record(0.0, lat=44.977301234, lon=-93.265432101, alt_ft=830.25, heading=271.5, speed=28.125),
        make_record(0.1, lat=44.977311234, lon=-93.265442101),
        make_record(1.25, lat=44.977411234, lon=-93.265532101, heading=0.0, speed=0.0),
    ])
    again = parse_trace_csv(export_trace_csv(trace))
    assert _columns(again) == _columns(trace)
    assert export_trace_csv(again) == export_trace_csv(trace)


def test_trace_export_pads_years_before_1000():
    # Such years were written unpadded ("36-12-26T..."), which the parser refuses.
    text = (",".join(TRACE_HEADERS) + "\n"
            "-61000000000000,45.0,-93.0,900,90,30,DSRC,BSM,Sent\n"
            "-60999999999000,45.0,-93.0,900,90,30,DSRC,BSM,Sent\n")
    trace = parse_trace_csv(text, epoch_ms=True)
    exported = export_trace_csv(trace)
    assert "\n0036-12-26T11:33:20.000000Z," in exported
    again = parse_trace_csv(exported)
    assert _columns(again) == _columns(trace)
    assert export_trace_csv(again) == exported


#: The first and last microsecond of years 1-9999 UTC.
FIRST_US, LAST_US = ((t.replace(tzinfo=timezone.utc) - EPOCH) // timedelta(microseconds=1)
                     for t in (datetime.min, datetime.max))


def test_trace_refuses_times_outside_years_1_to_9999():
    # Such a time was accepted, and export_trace_csv then died with an OverflowError.
    with pytest.raises(ValueError, match=r"record 1: time 4611686018427387904 us lies outside "
                                         "years 1-9999"):
        make_trace([make_record(0.0), (2**62, *make_record()[1:])])
    with pytest.raises(ValueError, match=r"record 0: time -62135596800000001 us"):
        make_trace([(FIRST_US - 1, *make_record()[1:]), make_record()])
    with pytest.raises(ValueError, match=r"record 1: time 253402300800000000 us"):
        make_trace([make_record(), (LAST_US + 1, *make_record()[1:])])
    edges = make_trace([(FIRST_US, *make_record()[1:]), (LAST_US, *make_record()[1:])])
    exported = export_trace_csv(edges)
    assert exported.split("\n")[1:3] == [
        "0001-01-01T00:00:00.000000Z,45.000000000,-93.000000000,900.000000000,90.000000000,"
        "30.000000000,DSRC,BSM,Sent",
        "9999-12-31T23:59:59.999999Z,45.000000000,-93.000000000,900.000000000,90.000000000,"
        "30.000000000,DSRC,BSM,Sent"]
    assert _columns(parse_trace_csv(exported)) == _columns(edges)


_lat = st.floats(min_value=44.5, max_value=45.5).map(lambda v: round(v, 9))
_lon = st.floats(min_value=-93.5, max_value=-92.5).map(lambda v: round(v, 9))
_alt = st.floats(min_value=-500.0, max_value=5000.0).map(lambda v: round(v, 9))
_heading = st.floats(min_value=0.0, max_value=359.999).map(lambda v: round(v, 9))
_speed = st.floats(min_value=0.0, max_value=120.0).map(lambda v: round(v, 9))


@settings(max_examples=40, derandomize=True)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=10**9), _lat, _lon, _alt, _heading, _speed),
        min_size=1, max_size=8,
    )
)
def test_trace_round_trip_property(rows):
    rows = sorted(rows, key=lambda r: r[0])
    records = [
        make_record(seconds=us / 1e6, lat=lat, lon=lon, alt_ft=alt, heading=heading, speed=speed)
        for us, lat, lon, alt, heading, speed in rows
    ]
    trace = make_trace(records)
    assert _columns(parse_trace_csv(export_trace_csv(trace))) == _columns(trace)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_project_rsu_site_maps_to_origin():
    rsu = GeodeticPosition(latitude_deg=45.0, longitude_deg=-93.0, altitude_ft=900.0)
    trace = make_trace([make_record(0.0), make_record(1.0)])
    enu = project_enu(trace, rsu)
    assert enu.x_m[0] == pytest.approx(0.0, abs=1e-9)
    assert enu.y_m[0] == pytest.approx(0.0, abs=1e-9)
    assert enu.z_m[0] == pytest.approx(0.0, abs=1e-9)
    assert enu.times_s.tolist() == [0.0, 1.0]


def test_project_millidegree_north():
    rsu = GeodeticPosition(latitude_deg=45.0, longitude_deg=-93.0)
    trace = make_trace([make_record(0.0), make_record(1.0, lat=45.001)])
    enu = project_enu(trace, rsu)
    assert enu.y_m[1] == pytest.approx(111.195, abs=0.05)
    assert enu.x_m[1] == pytest.approx(0.0, abs=1e-9)


def test_project_millidegree_east_scales_with_latitude():
    rsu = GeodeticPosition(latitude_deg=45.0, longitude_deg=-93.0)
    trace = make_trace([make_record(0.0), make_record(1.0, lon=-92.999)])
    enu = project_enu(trace, rsu)
    assert enu.x_m[1] == pytest.approx(111.195 * math.cos(math.radians(45.0)), abs=0.05)


def test_project_altitude_feet_to_meters():
    rsu = GeodeticPosition(latitude_deg=45.0, longitude_deg=-93.0, altitude_ft=800.0)
    trace = make_trace([make_record(0.0, alt_ft=900.0), make_record(1.0, alt_ft=900.0)])
    enu = project_enu(trace, rsu)
    assert enu.z_m[0] == pytest.approx(100.0 * FT_TO_M, abs=1e-9)  # 30.48 m


def test_project_refuses_far_records():
    rsu = GeodeticPosition(latitude_deg=45.0, longitude_deg=-93.0)
    trace = make_trace([make_record(0.0), make_record(1.0, lat=45.5)])  # ~ 55.6 km
    with pytest.raises(ValueError, match=r"record 1 .* 50 km"):
        project_enu(trace, rsu)
    assert MAX_PROJECTION_RANGE_M == 50_000.0


def test_project_agrees_with_haversine_nearby():
    rsu = GeodeticPosition(latitude_deg=45.0, longitude_deg=-93.0)
    lat, lon = 45.02, -92.97  # a few km out
    trace = make_trace([make_record(0.0), make_record(1.0, lat=lat, lon=lon)])
    enu = project_enu(trace, rsu)
    planar = math.hypot(enu.x_m[1], enu.y_m[1])

    phi1, phi2 = math.radians(45.0), math.radians(lat)
    dphi = phi2 - phi1
    dlmb = math.radians(lon - (-93.0))
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2.0) ** 2
    haversine = 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(h))
    assert planar == pytest.approx(haversine, rel=1e-3)


# ---------------------------------------------------------------------------
# synthetic datasets
# ---------------------------------------------------------------------------


RADIO = RadioParams(tx_power_mw=30.16, data_rate_mbps=18,
                    noise_floor_dbm=-90.0, rx_sensitivity_dbm=-114.0)
FADING = FadingParams(
    slow_model=SlowFadingModel.LOGNORMAL, fast_model=FastFadingModel.NAKAGAMI,
    alpha=1.51, system_loss_db=0.13, sigma_db=6.03, nakagami_m=2.0,
)
RSU = GeodeticPosition(latitude_deg=45.0, longitude_deg=-93.0)


def synthetic_spec(**overrides):
    kw = dict(
        waypoints_enu_m=((-400.0, 8.0, 0.0), (400.0, 8.0, 0.0)),
        leg_speeds_mps=(13.4,),
        duration_s=40.0,
        seed=1729,
        sample_rate_hz=10.0,
    )
    kw.update(overrides)
    return SynthSection(**kw)


def synthesize(synth, scenario=None, rsu=RSU):
    return generate_synthetic(synth, RADIO, FADING, rsu, scenario or ScenarioConfig())


def test_synthetic_is_deterministic():
    scenario = ScenarioConfig()
    t1, c1 = synthesize(synthetic_spec(), scenario)
    t2, c2 = synthesize(synthetic_spec(), scenario)
    assert _columns(t1) == _columns(t2)
    assert export_pdr_csv(c1) == export_pdr_csv(c2)


@pytest.mark.parametrize("fast_model", list(FastFadingModel))
def test_synthetic_curve_is_the_simulated_log_curve(fast_model):
    # The curve is decided without drawing powers; simulating the same trace
    # at the synth seed must bin the drawn powers into the same bytes.
    fading = FadingParams(slow_model=SlowFadingModel.LOGNORMAL, fast_model=fast_model,
                          alpha=2.2, sigma_db=4.0, nakagami_m=1.5)
    scenario = ScenarioConfig(master_seed=5, bin_width_m=25.0)
    synth = synthetic_spec()
    trace, curve = generate_synthetic(synth, RADIO, fading, RSU, scenario)
    log = run_scenario(project_enu(trace, RSU), ScenarioConfig(master_seed=synth.seed,
                                                              bin_width_m=25.0), RADIO, fading)
    assert export_pdr_csv(curve) == export_pdr_csv(pdr_curve(log, 25.0))


def test_synthetic_trace_shape():
    trace, curve = synthesize(synthetic_spec())
    assert len(trace) == 401  # 40 s at 10 Hz inclusive of t=0
    assert curve.sent.sum() == 800    # two directions at 10 Hz for 40 s
    # The drive is west to east at constant speed.
    enu = project_enu(trace, RSU)
    assert enu.x_m[0] == pytest.approx(-400.0, abs=0.01)
    assert enu.x_m[-1] == pytest.approx(-400.0 + 13.4 * 40.0, abs=0.01)
    assert trace.heading_deg[0] == pytest.approx(90.0)  # due east
    speeds = set(trace.speed_mph.tolist())
    assert len(speeds) == 1  # never exhausts the route, so never parks


def test_synthetic_vehicle_parks_at_route_end():
    spec = synthetic_spec(waypoints_enu_m=((0.0, 0.0, 0.0), (100.0, 0.0, 0.0)),
                          leg_speeds_mps=(10.0,), duration_s=20.0)
    trace, _ = synthesize(spec)
    enu = project_enu(trace, RSU)
    assert enu.x_m[-1] == pytest.approx(100.0, abs=0.01)  # parked at the end
    assert trace.speed_mph[-1] == 0.0
    assert trace.speed_mph[100] > 0.0  # still driving at t=10 s


def test_synthetic_pdr_decays_with_distance():
    spec = synthetic_spec(waypoints_enu_m=((-1500.0, 8.0, 0.0), (1500.0, 8.0, 0.0)),
                          leg_speeds_mps=(13.4,), duration_s=220.0)
    _, curve = synthesize(spec)
    seen = curve.sent > 0
    pdr = dict(zip(curve.bin_start_m[seen].tolist(), curve.pdr_pct[seen].tolist()))
    near = np.mean([pdr[k] for k in sorted(pdr)[:3]])
    far = np.mean([pdr[k] for k in sorted(pdr)[-3:]])
    assert near > 95.0 and far < 40.0


def test_synthetic_spec_validation():
    with pytest.raises(ValueError, match="at least 2 waypoints"):
        synthetic_spec(waypoints_enu_m=((0.0, 0.0, 0.0),), leg_speeds_mps=())
    with pytest.raises(ValueError, match="one leg speed per waypoint pair"):
        synthesize(synthetic_spec(leg_speeds_mps=(10.0, 10.0)))
    with pytest.raises(ValueError, match="positive"):
        synthetic_spec(leg_speeds_mps=(-1.0,))
    with pytest.raises(ValueError, match="duration_s"):
        synthetic_spec(duration_s=0.0)
    with pytest.raises(ValueError, match="seed"):
        synthetic_spec(seed=-3)


def test_repeated_waypoint_and_infinite_speed_are_refused():
    # A zero-length leg once froze the vehicle at its start for the rest
    # of the run while the trace went on reporting the leg speed.
    with pytest.raises(ValueError, match="waypoints 1 and 2 are equal"):
        synthetic_spec(waypoints_enu_m=((0.0, 0.0, 0.0), (100.0, 0.0, 0.0),
                                        (100.0, 0.0, 0.0), (200.0, 0.0, 0.0)),
                       leg_speeds_mps=(10.0, 10.0, 10.0), duration_s=30.0)
    with pytest.raises(ValueError, match="positive and finite"):
        synthetic_spec(leg_speeds_mps=(math.inf,))


def test_underflowing_leg_is_refused():
    # The leg's length underflows to 0, so it took no time and its samples
    # came out at NaN positions.
    with pytest.raises(ValueError, match="waypoints 0 and 1 are equal"):
        synthetic_spec(waypoints_enu_m=((0.0, 0.0, 0.0), (1e-170, 0.0, 0.0), (100.0, 0.0, 0.0)),
                       leg_speeds_mps=(10.0, 10.0))


def test_overflowing_leg_is_refused():
    # The leg's length overflows to inf, so its time was inf and synth wrote
    # every sample parked at the first waypoint, exiting 0.
    with pytest.raises(ValueError, match="waypoints 0 and 1 are too far apart"):
        synthetic_spec(waypoints_enu_m=((0.0, 0.0, 0.0), (1e300, 0.0, 0.0)))
    with pytest.raises(ValueError, match="waypoints 1 and 2 are too far apart"):
        synthetic_spec(waypoints_enu_m=((0.0, 0.0, 0.0), (100.0, 0.0, 0.0),
                                        (1e308, -1e308, 0.0)), leg_speeds_mps=(10.0, 10.0))


@st.composite
def _routes(draw):
    """A random multi-leg 3-D route, its RSU anchor, and a run that often ends parked.

    Coordinates come from a drawn numpy seed, so they carry full-precision
    digits rather than the short values hypothesis favours.
    """
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    n_points = draw(st.integers(min_value=2, max_value=5))
    points = rng.uniform(-500.0, 500.0, (n_points, 3)) * rng.choice([1.0, 0.01], (n_points, 3))
    speeds = rng.uniform(2.0, 40.0, n_points - 1)
    route_s = sum(np.linalg.norm(b - a) / v for a, b, v in zip(points, points[1:], speeds))
    synth = SynthSection(
        waypoints_enu_m=tuple(map(tuple, points.tolist())), leg_speeds_mps=tuple(speeds.tolist()),
        duration_s=min(150.0, max(1.0, route_s * draw(st.floats(min_value=0.2, max_value=2.0)))),
        sample_rate_hz=draw(st.sampled_from([1.0, 2.0, 3.0, 10.0, 12.5, 25.0])),
        seed=draw(st.integers(min_value=0, max_value=2**32)))
    rsu = GeodeticPosition(*rng.uniform((-60.0, -170.0, -100.0), (60.0, 170.0, 3000.0)).tolist())
    return synth, rsu


@settings(max_examples=60, deadline=None, derandomize=True)
@given(route=_routes())
def test_synthetic_trace_matches_the_per_sample_route(route):
    synth, rsu = route
    trace, _ = synthesize(synth, rsu=rsu)
    assert export_trace_csv(trace) == oracles.synthetic_trace_csv(synth, rsu)


# ---------------------------------------------------------------------------
# delivery log CSV
# ---------------------------------------------------------------------------


def sample_log():
    trace = EnuTrace(times_s=[0.0, 30.0], x_m=[-200.0, 200.0], y_m=[8.0, 8.0], z_m=[0.0, 0.0])
    return run_scenario(trace, ScenarioConfig(master_seed=37),
                        RadioParams(tx_power_mw=30.16, data_rate_mbps=18,
                                    noise_floor_dbm=-90.0, rx_sensitivity_dbm=-114.0),
                        FadingParams(slow_model=SlowFadingModel.LOGNORMAL,
                                     fast_model=FastFadingModel.NAKAGAMI,
                                     alpha=1.51, system_loss_db=0.13,
                                     sigma_db=6.03, nakagami_m=2.0))


def test_log_round_trip_exact():
    log = sample_log()
    text = export_log_csv(log)
    again = parse_log_csv(text)
    assert _columns(again) == _columns(log)
    assert export_log_csv(again) == text


def test_log_round_trip_empty():
    empty = DeliveryLog(
        timestamp_s=np.empty(0), direction_code=np.empty(0, dtype=int),
        tx_position_m=np.empty((0, 3)), rx_position_m=np.empty((0, 3)),
        distance_m=np.empty(0), rx_power_dbm=np.empty(0), reason_code=np.empty(0, dtype=int),
    )
    again = parse_log_csv(export_log_csv(empty))
    assert len(again) == 0 and _columns(again) == _columns(empty)


def test_log_parse_rejects_wrong_header():
    with pytest.raises(ValueError, match="expected log header"):
        parse_log_csv("a,b,c\n1,2,3\n")


def test_log_parse_rejects_distance_mismatch():
    log = sample_log()
    lines = export_log_csv(log).splitlines()
    parts = lines[1].split(",")
    parts[8] = "999.000000000"
    lines[1] = ",".join(parts)
    with pytest.raises(ValueError, match="row 2: distance column"):
        parse_log_csv("\n".join(lines) + "\n")


def test_log_parse_rejects_bad_values():
    log = sample_log()
    text = export_log_csv(log)
    with pytest.raises(ValueError, match="row 2"):
        parse_log_csv(text.replace("true", "yes", 1).replace("false", "yes", 1))
    lines = text.splitlines()
    first = lines[1].split(",")
    first[1] = "sideways"
    with pytest.raises(ValueError, match="row 2"):
        parse_log_csv("\n".join([lines[0], ",".join(first)]) + "\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_log_parse_refuses_non_finite_numbers(value):
    lines = export_log_csv(sample_log()).splitlines()
    parts = lines[3].split(",")
    parts[2] = parts[8] = value  # tx_x_m, and distance_m to match it
    lines[3] = ",".join(parts)
    with pytest.raises(ValueError, match=f"row 4: tx_x_m {value} must be finite"):
        parse_log_csv("\n".join(lines) + "\n")


def test_log_parse_names_the_first_bad_row_in_row_order():
    # A distance mismatch on row 3 comes before a malformed row 5.
    lines = export_log_csv(sample_log()).splitlines()
    parts = lines[2].split(",")
    parts[8] = "999.000000000"
    lines[2] = ",".join(parts)
    lines[4] = lines[4].replace("true", "yes").replace("false", "yes")
    with pytest.raises(ValueError, match="row 3: distance column"):
        parse_log_csv("\n".join(lines) + "\n")


def test_log_parse_rejects_delivered_flag_contradicting_reason():
    lines = export_log_csv(sample_log()).splitlines()
    k = next(i for i, line in enumerate(lines) if line.endswith(",true,delivered"))
    lines[k] = lines[k][: -len("delivered")] + "below_snr"
    with pytest.raises(ValueError, match=f"row {k + 1}: delivered true contradicts reason below_snr"):
        parse_log_csv("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# PDR and heatmap CSV
# ---------------------------------------------------------------------------


def test_pdr_round_trip_with_empty_bins():
    curve = PdrCurve(bin_width_m=20.0, bin_start_m=[0.0, 20.0, 40.0],
                     bin_end_m=[20.0, 40.0, 60.0], sent=[40, 0, 30], delivered=[40, 0, 7])
    text = export_pdr_csv(curve)
    assert ",,\n" not in text  # empty bin renders a blank pdr, not twice-empty
    again = parse_pdr_csv(text)
    assert again.bin_width_m == 20.0
    assert list(zip(again.sent.tolist(), again.delivered.tolist())) == [
        (40, 40), (0, 0), (30, 7)]
    assert export_pdr_csv(again) == text


def test_pdr_parse_counts_are_authoritative():
    # The pdr_pct column is derived; a doctored value cannot survive a round trip.
    curve = PdrCurve(20.0, [0.0], [20.0], [10], [5])
    text = export_pdr_csv(curve).replace("50.000000000", "99.000000000")
    assert parse_pdr_csv(text).pdr_pct[0] == 50.0


def test_pdr_parse_rejects_empty_and_malformed():
    with pytest.raises(ValueError, match="no bins"):
        parse_pdr_csv("bin_start_m,bin_end_m,sent,delivered,pdr_pct\n")
    with pytest.raises(ValueError, match="expected PDR header"):
        parse_pdr_csv("x\n")
    with pytest.raises(ValueError, match="row 2"):
        parse_pdr_csv("bin_start_m,bin_end_m,sent,delivered,pdr_pct\n0,20,ten,5,\n")


_PDR_HEADER = "bin_start_m,bin_end_m,sent,delivered,pdr_pct\n"


def test_pdr_parse_rejects_more_delivered_than_sent():
    with pytest.raises(ValueError, match="row 3: delivered 18 exceeds sent 10"):
        parse_pdr_csv(_PDR_HEADER + "0,20,10,10,\n20,40,10,18,\n")


def test_pdr_parse_rejects_negative_counts():
    with pytest.raises(ValueError, match="row 2: counts must be non-negative"):
        parse_pdr_csv(_PDR_HEADER + "0,20,-4,-5,\n")


def test_pdr_parse_rejects_uneven_bin():
    with pytest.raises(ValueError, match="row 4: bin 40-100 m is not bin 2"):
        parse_pdr_csv(_PDR_HEADER + "0,20,10,5,\n20,40,10,5,\n40,100,10,5,\n")


def test_pdr_parse_rejects_curve_not_starting_at_zero():
    with pytest.raises(ValueError, match="row 2: bin 100-120 m is not bin 0"):
        parse_pdr_csv(_PDR_HEADER + "100,120,10,5,\n120,140,10,5,\n")


@settings(max_examples=40, derandomize=True)
@given(
    # Widths the 9-decimal CSV can carry; any other fails rmse's width check loudly.
    width=st.floats(min_value=0.5, max_value=250.0).map(lambda w: round(w, 9)),
    sent=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=60),
)
def test_rmse_after_round_trip_compares_every_non_empty_bin(width, sent):
    # Changing any one non-empty bin of the simulated side must move the
    # RMSE against the re-parsed observed curve by exactly that bin's share.
    def curve(changed=None):
        k = np.arange(len(sent))
        return PdrCurve(bin_width_m=width, bin_start_m=k * width, bin_end_m=(k + 1) * width,
                        sent=sent, delivered=np.where(k == changed, sent, 0))

    observed = parse_pdr_csv(export_pdr_csv(curve()))
    non_empty = [i for i, s in enumerate(sent) if s]
    for i in non_empty:
        assert rmse(observed, curve(changed=i)) == pytest.approx(100.0 / math.sqrt(len(non_empty)))


def test_pdr_parse_accepts_its_own_output_at_fine_widths():
    # The width re-read from row 0 carries up to 1e-9 m of rounding, which
    # bin k multiplies by k; a fixed 1e-6 m slack refused row 2503 here.
    curve = pdr_curve(vehicle_log(np.linspace(0.0, 999.0, 4000), np.zeros(4000),
                                  np.ones(4000, dtype=bool)), 0.2500000004)
    text = export_pdr_csv(curve)
    assert export_pdr_csv(parse_pdr_csv(text)) == text


def test_pdr_parse_names_the_first_bad_row_in_row_order():
    with pytest.raises(ValueError, match="row 3: delivered 18 exceeds sent 10"):
        parse_pdr_csv(_PDR_HEADER + "0,20,10,10,\n20,40,10,18,\n40,60,ten,5,\n")
    with pytest.raises(ValueError, match="row 3: counts must be non-negative"):
        parse_pdr_csv(_PDR_HEADER + "0,20,10,10,\n25,45,-1,0,\n")
    # Off the grid and not contiguous: the grid rule names it.
    with pytest.raises(ValueError, match="row 3: bin 25-45 m is not bin 1"):
        parse_pdr_csv(_PDR_HEADER + "0,20,10,10,\n25,45,1,0,\n60,80,1,0,\n")
    # On the grid to within its slack, yet not contiguous.
    with pytest.raises(ValueError, match="row 3: bins must be contiguous"):
        parse_pdr_csv(_PDR_HEADER + "0,20,10,10,\n20.0000005,40,1,0,\n")


def vehicle_log(x, y, delivered):
    """A vehicle-to-RSU log of packets sent from (x, y, 0) to an RSU at the origin."""
    n = len(x)
    tx, rx = np.column_stack([x, y, np.zeros(n)]), np.zeros((n, 3))
    return DeliveryLog(
        timestamp_s=np.zeros(n), direction_code=np.full(n, Direction.VEHICLE_TO_RSU.stream_code),
        tx_position_m=tx, rx_position_m=rx, distance_m=link_distance_m(tx, rx),
        rx_power_dbm=np.full(n, -70.0), reason_code=np.where(delivered, DELIVERED, BELOW_SNR))


# Shrinking a byte mismatch over hundreds of rows takes minutes; the first
# failing example is reported as drawn.
@settings(max_examples=40, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(
    # Widths a 9-decimal CSV cannot carry, so a width re-read from it is rounded.
    width=st.sampled_from([100.0 / 3.0, 12.3456789012]) | st.floats(min_value=0.5,
                                                                    max_value=250.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=400),
)
def test_curve_and_grid_re_export_their_own_bytes(width, seed, n):
    # The parsers keep edges and centers as read, so bytes cannot drift.
    rng = np.random.default_rng(seed)
    log = vehicle_log(rng.uniform(-3500.0, 3500.0, n), rng.uniform(-3500.0, 3500.0, n),
                      rng.random(n) < 0.5)
    for table, export, parse in ((pdr_curve(log, width), export_pdr_csv, parse_pdr_csv),
                                 (heatmap(log, width), export_heatmap_csv, parse_heatmap_csv)):
        text = export(table)
        assert export(parse(text)) == text


def test_heatmap_round_trip():
    grid = HeatmapGrid(cell_m=20.0, center_x_m=[10.0, -30.0], center_y_m=[10.0, 10.0],
                       sent=[12, 3], delivered=[10, 0])
    text = export_heatmap_csv(grid)
    again = parse_heatmap_csv(text)
    assert again.cell_m == 20.0
    assert list(zip(again.center_x_m.tolist(), again.center_y_m.tolist(), again.sent.tolist(),
                    again.delivered.tolist())) == [
        (10.0, 10.0, 12, 10), (-30.0, 10.0, 3, 0)
    ]
    assert export_heatmap_csv(again) == text


def test_heatmap_parse_rejects_inconsistent_cell_size():
    grid = HeatmapGrid(20.0, [10.0, 30.0], [10.0, 10.0], [1, 1], [1, 1])
    lines = export_heatmap_csv(grid).splitlines()
    lines[2] = lines[2].replace("20.000000000", "25.000000000", 1)
    with pytest.raises(ValueError, match="inconsistent cell_m"):
        parse_heatmap_csv("\n".join(lines) + "\n")


_HEATMAP_HEADER = "cell_x_m,cell_y_m,cell_m,sent,delivered,pdr_pct\n"


@pytest.mark.parametrize("rows, message", [
    ("10,10,20,10,10,\n30,10,20,10,18,\n", "row 3: delivered 18 exceeds sent 10"),
    ("10,10,20,-4,-5,\n", "row 2: counts must be non-negative, got sent -4, delivered -5"),
    ("10,10,20,1,1,\nnan,10,20,1,1,\n", r"row 3: center \(nan, 10.0\) must be finite"),
    ("10,10,nan,1,1,\n", "row 2: cell_m nan must be positive and finite"),
])
def test_heatmap_parse_refuses_impossible_cells(rows, message):
    with pytest.raises(ValueError, match=message):
        parse_heatmap_csv(_HEATMAP_HEADER + rows)


def test_heatmap_parse_rejects_empty():
    with pytest.raises(ValueError, match="no cells"):
        parse_heatmap_csv("cell_x_m,cell_y_m,cell_m,sent,delivered,pdr_pct\n")


@settings(max_examples=30, derandomize=True)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=500),
                  st.integers(min_value=0, max_value=500)),
        min_size=1, max_size=12,
    )
)
def test_pdr_round_trip_property(counts):
    k = np.arange(len(counts))
    bins = [(max(s, d), min(s, d)) for s, d in counts]
    curve = PdrCurve(bin_width_m=15.0, bin_start_m=k * 15.0, bin_end_m=(k + 1) * 15.0,
                     sent=[s for s, _ in bins], delivered=[d for _, d in bins])
    text = export_pdr_csv(curve)
    again = parse_pdr_csv(text)
    assert export_pdr_csv(again) == text
    assert list(zip(again.sent.tolist(), again.delivered.tolist())) == bins


# ---------------------------------------------------------------------------
# the column writer against the per-row oracle
# ---------------------------------------------------------------------------

#: Values the float renderer must get right: signed zeros, negatives that
#: round to -0.000000000, values at and beside the 2**22 limit, an exact
#: 10th-decimal tie (1/1024) and its neighbour, near-ties, and the extremes
#: of the float range.
_EDGE_FLOATS = (0.0, -0.0, 5e-10, -5e-10, -1e-12, -4.9999999e-10, 2.0**22, -(2.0**22),
                np.nextafter(2.0**22, 0.0), 2.0**22 + 1e-9, 1 / 1024, np.nextafter(1 / 1024, 1.0),
                0.5e-9, 1.5e-9, 9.9999999995, 1e300, -1e300, 5e-324, 1.7976931348623157e308)


def _awkward_floats(rng, n, extra):
    """n finite floats of every binary exponent, rich in the renderer's special cases."""
    sign = rng.choice([-1.0, 1.0], n)
    kinds = np.stack([
        sign * np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(-1074, 1024, n)),
        sign * rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-12, 9, n),
        (2 * rng.integers(-2**40, 2**40, n) + 1) / 1024.0,  # exact ties, some beyond 2**22
        (2 * rng.integers(-10**15, 10**15, n) + 1) / 2e9,  # the nearest floats to ties
        rng.uniform(-5e-10, 0.0, n),
        rng.choice(np.array(_EDGE_FLOATS + tuple(extra), dtype=float), n),
    ])
    return kinds[rng.integers(0, len(kinds), n), np.arange(n)]


def _with_non_finite(rng, values):
    return np.where(rng.random(values.shape) < 0.05,
                    rng.choice([np.nan, np.inf, -np.inf], values.shape), values)


def _counts(rng, n):
    sent = np.where(rng.random(n) < 0.3, 0, rng.integers(0, 2**62, n) >> rng.integers(0, 62, n))
    return sent, (rng.random(n) * (sent + 1)).astype(np.int64).clip(0, sent)


def _random_log(rng, n, extra):
    def floats(size):
        return _awkward_floats(rng, size, extra)

    return DeliveryLog(
        timestamp_s=floats(n), direction_code=rng.integers(0, 2, n),
        tx_position_m=_with_non_finite(rng, floats(3 * n).reshape(n, 3)),
        rx_position_m=_with_non_finite(rng, floats(3 * n).reshape(n, 3)), distance_m=floats(n),
        rx_power_dbm=_with_non_finite(rng, floats(n)),
        reason_code=rng.integers(0, len(REASONS), n))


def _random_trace(rng, n, extra):
    n = max(n, 1)  # a trace has at least one record
    lat, lon, alt, heading, speed = (_awkward_floats(rng, n, extra) for _ in range(5))
    return Trace(
        time_us=np.sort(rng.integers(FIRST_US, LAST_US + 1, n)),
        latitude_deg=np.where(np.abs(lat) <= 90.0, lat, np.abs(lat) % 90.0),
        longitude_deg=np.where(np.abs(lon) <= 180.0, lon, np.abs(lon) % 180.0),
        altitude_ft=alt,
        heading_deg=np.where((heading >= 0.0) & (heading < 360.0), heading,
                             np.abs(heading) % 360.0),
        speed_mph=np.abs(speed),
        transmission_code=rng.integers(0, len(TRANSMISSION_TYPES), n),
        message_code=rng.integers(0, len(MESSAGE_TYPES), n),
        direction_code=rng.integers(0, len(TRACE_DIRECTIONS), n))


def _random_curve(rng, n, extra):
    edges = _awkward_floats(rng, n + 1, extra)  # any edges are contiguous bins
    return PdrCurve(1.0, edges[:-1], edges[1:], *_counts(rng, n))


def _random_grid(rng, n, extra):
    cell = np.abs(_awkward_floats(rng, 1, extra)[0]) or 1.0
    return HeatmapGrid(cell, _awkward_floats(rng, n, extra), _awkward_floats(rng, n, extra),
                       *_counts(rng, n))


# Shrinking a byte mismatch over thousands of rows takes minutes; the first
# failing example is reported as drawn.
@pytest.mark.parametrize("build, export, oracle", [
    (_random_log, export_log_csv, oracles.log_csv),
    (_random_trace, export_trace_csv, oracles.trace_csv),
    (_random_curve, export_pdr_csv, oracles.pdr_csv),
    (_random_grid, export_heatmap_csv, oracles.heatmap_csv),
], ids=["log", "trace", "pdr", "heatmap"])
@settings(max_examples=25, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    # Empty tables, and row counts on both sides of one and two writer blocks.
    n=st.sampled_from([0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1])
    | st.integers(min_value=0, max_value=40),
    extra=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
)
def test_exports_match_the_per_row_oracle(build, export, oracle, seed, n, extra):
    table = build(np.random.default_rng(seed), n, extra)
    assert export(table) == oracle(table)


# ---------------------------------------------------------------------------
# the float kernel of the column writer
# ---------------------------------------------------------------------------


def _spelled(numbers):
    return np.array([b"%08d" % x for x in numbers]).view("<u8")


def test_halving_steps_split_every_lane_value_without_carries():
    # Every 4-digit value in both halves of the word at once, so every 2-digit
    # value in each quarter: each lane must come out as its own digits,
    # whatever the lanes beside it hold, 9999 and 99 included.
    v = np.arange(10**4, dtype=np.uint64)
    for high in (v[::-1], v, np.full_like(v, 9999)):
        numbers = high * 10**4 + v
        assert np.array_equal(_digit_words(numbers), _spelled(numbers.tolist()))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=0, max_value=10**8 - 1), min_size=1, max_size=50))
def test_digit_words_spell_every_8_digit_number(numbers):
    assert np.array_equal(_digit_words(np.array(numbers, dtype=np.uint64)), _spelled(numbers))


def test_writer_renders_any_byte_order_and_layout_alike():
    rng = np.random.default_rng(22)
    log = _random_log(rng, 2 * _BLOCK_ROWS + 7, [])
    swapped = DeliveryLog(
        log.timestamp_s.astype(">f8"), log.direction_code,
        np.asfortranarray(log.tx_position_m), log.rx_position_m.astype(">f8"),
        np.repeat(log.distance_m, 2)[::2], np.repeat(log.rx_power_dbm, 3)[1::3].astype(">f8"),
        log.reason_code)
    assert export_log_csv(swapped) == export_log_csv(log)
    columns = [log.tx_position_m.T[0], log.rx_position_m.T[1].astype(">f8"),
               np.array([b"a", b"bc"])[log.direction_code]]
    native = [np.ascontiguousarray(column, dtype=column.dtype.newbyteorder("="))
              for column in columns]
    assert _write_columns(("x", "y", "w"), columns) == _write_columns(("x", "y", "w"), native)
