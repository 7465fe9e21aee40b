"""Propagation-stage checks against closed forms and the numeric oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats

from v2xcal.propagation import (
    LOG_DECIMALS,
    REASONS,
    SNR_THRESHOLDS_DB,
    SPEED_OF_LIGHT_M_S,
    DeliveryReason,
    FadingParams,
    FastFadingModel,
    RadioParams,
    SlowFadingModel,
    deterministic_gain_db,
    free_space_rx_power,
    log_distance_rx_power,
    lognormal_rx_power,
    nakagami_power_sample,
    reception_codes,
    snr_threshold_db,
    to_db,
    to_linear,
)
from v2xcal.simulator import EnuTrace, PreparedDrive, ScenarioConfig, channel_pass, prepare_drive

import oracles


DEFAULT_RADIO = RadioParams()
DEFAULT_FADING = FadingParams()


def drive_at(distance_m, normals, uniforms):
    """A PreparedDrive of one packet per draw, every packet at distance_m."""
    n = len(normals)
    return PreparedDrive(timestamp_s=np.arange(n, dtype=float), direction_code=np.zeros(n, int),
                         tx_position_m=np.zeros((n, 3)), rx_position_m=np.zeros((n, 3)),
                         distance_m=np.full(n, distance_m), bin_index=np.zeros(n, int),
                         normals=normals, uniforms=uniforms, sent=np.array([n]))


def reason(rx_power_dbm, radio, snr_table=None):
    """The DeliveryReason of one packet received at rx_power_dbm."""
    return REASONS[reception_codes(rx_power_dbm, radio, snr_table)]


# ---------------------------------------------------------------------------
# free-space reference
# ---------------------------------------------------------------------------


def test_free_space_reference_value():
    # 20 mW, unit gains, 5.9 GHz, 1 m, no system loss.
    got = free_space_rx_power(DEFAULT_RADIO, DEFAULT_FADING)
    assert got == pytest.approx(-34.85, abs=0.05)
    assert got == pytest.approx(oracles.friis_reference_dbm(DEFAULT_RADIO, DEFAULT_FADING), abs=1e-12)
    assert got == pytest.approx(-34.854520, abs=1e-4)


def test_free_space_unity_path_gain():
    # With wavelength = 4*pi*d0 the Friis factor is exactly 1, so the
    # reference power equals the transmit power: 20 mW = 13.0103 dBm.
    freq = SPEED_OF_LIGHT_M_S / (4.0 * math.pi)
    radio = RadioParams(carrier_frequency_hz=freq)
    assert free_space_rx_power(radio, DEFAULT_FADING) == pytest.approx(
        10.0 * math.log10(20.0), abs=1e-9
    )


def test_free_space_reference_distance_doubling():
    near = FadingParams(reference_distance_m=1.0)
    far = FadingParams(reference_distance_m=2.0)
    drop = free_space_rx_power(DEFAULT_RADIO, near) - free_space_rx_power(DEFAULT_RADIO, far)
    assert drop == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)  # 6.0206 dB


def test_free_space_system_loss_subtracts_directly():
    lossy = FadingParams(system_loss_db=2.5)
    clean = free_space_rx_power(DEFAULT_RADIO, DEFAULT_FADING)
    assert free_space_rx_power(DEFAULT_RADIO, lossy) == pytest.approx(clean - 2.5, abs=1e-9)


def test_free_space_gain_scaling():
    radio = RadioParams(antenna_gain_tx=4.0, antenna_gain_rx=2.0)
    clean = free_space_rx_power(DEFAULT_RADIO, DEFAULT_FADING)
    assert free_space_rx_power(radio, DEFAULT_FADING) == pytest.approx(
        clean + 10.0 * math.log10(8.0), abs=1e-9
    )


# ---------------------------------------------------------------------------
# log-distance slow stage
# ---------------------------------------------------------------------------


def test_log_distance_slope_per_decade():
    fading = FadingParams(alpha=1.51)
    ref = free_space_rx_power(DEFAULT_RADIO, fading)
    at_100 = log_distance_rx_power(DEFAULT_RADIO, fading, 100.0)
    assert ref - at_100 == pytest.approx(2.0 * 10.0 * 1.51, abs=1e-9)  # 30.2 dB


def test_log_distance_clamps_inside_reference():
    fading = FadingParams(alpha=2.0)
    ref = free_space_rx_power(DEFAULT_RADIO, fading)
    assert log_distance_rx_power(DEFAULT_RADIO, fading, 0.25) == pytest.approx(ref, abs=1e-12)
    assert log_distance_rx_power(DEFAULT_RADIO, fading, 1.0) == pytest.approx(ref, abs=1e-12)


def test_log_distance_vector_matches_scalar():
    d = np.array([1.0, 10.0, 50.0, 400.0])
    vec = log_distance_rx_power(DEFAULT_RADIO, DEFAULT_FADING, d)
    for i, di in enumerate(d):
        assert vec[i] == pytest.approx(log_distance_rx_power(DEFAULT_RADIO, DEFAULT_FADING, float(di)))


def test_log_distance_rejects_bad_distance():
    for bad in (0.0, -3.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            log_distance_rx_power(DEFAULT_RADIO, DEFAULT_FADING, bad)


@settings(max_examples=60, derandomize=True)
@given(
    alpha=st.floats(min_value=0.5, max_value=4.0),
    d1=st.floats(min_value=1.0, max_value=1e4),
    factor=st.floats(min_value=1.001, max_value=100.0),
)
def test_log_distance_strictly_decreasing(alpha, d1, factor):
    fading = FadingParams(alpha=alpha)
    nearer = log_distance_rx_power(DEFAULT_RADIO, fading, d1)
    farther = log_distance_rx_power(DEFAULT_RADIO, fading, d1 * factor)
    assert farther < nearer


# ---------------------------------------------------------------------------
# lognormal shadowing
# ---------------------------------------------------------------------------


def test_lognormal_zero_sigma_is_deterministic():
    fading = FadingParams(slow_model=SlowFadingModel.LOGNORMAL, sigma_db=0.0, alpha=1.7)
    rng = np.random.default_rng(5)
    got = lognormal_rx_power(DEFAULT_RADIO, fading, 120.0, rng)
    assert got == pytest.approx(log_distance_rx_power(DEFAULT_RADIO, fading, 120.0), abs=1e-12)


def test_lognormal_residual_moments():
    # Calibrated shadowing width: residuals about the deterministic mean
    # must look like N(0, 6.03^2) at one-million-sample resolution.
    fading = FadingParams(slow_model=SlowFadingModel.LOGNORMAL, sigma_db=6.03, alpha=1.51)
    rng = np.random.default_rng(20240314)
    draws = lognormal_rx_power(DEFAULT_RADIO, fading, 200.0, rng, size=1_000_000)
    residuals = draws - log_distance_rx_power(DEFAULT_RADIO, fading, 200.0)
    assert abs(residuals.mean()) < 0.02
    assert residuals.std() == pytest.approx(6.03, rel=0.02)


def test_lognormal_residuals_look_gaussian():
    fading = FadingParams(slow_model=SlowFadingModel.LOGNORMAL, sigma_db=6.03)
    rng = np.random.default_rng(99)
    draws = lognormal_rx_power(DEFAULT_RADIO, fading, 80.0, rng, size=200_000)
    residuals = draws - log_distance_rx_power(DEFAULT_RADIO, fading, 80.0)
    assert abs(stats.skew(residuals)) < 0.02
    assert abs(stats.kurtosis(residuals)) < 0.05
    ks = stats.kstest((residuals - residuals.mean()) / residuals.std(), "norm")
    assert ks.statistic < 0.005


# ---------------------------------------------------------------------------
# Nakagami fast stage
# ---------------------------------------------------------------------------


def test_nakagami_moments_m2():
    rng = np.random.default_rng(7)
    draws = nakagami_power_sample(4.0, 2.0, rng, size=1_000_000)
    assert draws.mean() == pytest.approx(4.0, rel=0.01)
    assert draws.var() == pytest.approx(8.0, rel=0.03)  # omega^2 / m


def test_nakagami_m1_is_exponential():
    rng = np.random.default_rng(11)
    draws = nakagami_power_sample(1.0, 1.0, rng, size=1_000_000)
    ks = stats.kstest(draws, "expon")
    assert ks.statistic < 0.002
    # CDF at the mean of a unit exponential: 1 - 1/e.
    assert np.mean(draws <= 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=0.002)


def test_nakagami_large_m_concentrates_on_omega():
    rng = np.random.default_rng(3)
    draws = nakagami_power_sample(5.0, 1e6, rng, size=10_000)
    assert np.all(np.abs(draws - 5.0) < 0.05)


def test_nakagami_matches_gamma_law():
    m, omega = 2.7, 3.2
    rng = np.random.default_rng(23)
    draws = nakagami_power_sample(omega, m, rng, size=400_000)
    ks = stats.kstest(draws, "gamma", args=(m, 0.0, omega / m))
    assert ks.statistic < 0.003


def test_nakagami_inverse_transform_smooth_in_m():
    # One uniform per draw means nearby shapes give nearby samples under
    # the same stream; a search over m sees a smooth objective.
    base = nakagami_power_sample(2.0, 1.5, np.random.default_rng(4), size=1000)
    nudged = nakagami_power_sample(2.0, 1.5 + 1e-7, np.random.default_rng(4), size=1000)
    assert np.max(np.abs(base - nudged)) < 1e-5


def test_nakagami_rejects_bad_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        nakagami_power_sample(0.0, 1.0, rng)
    with pytest.raises(ValueError):
        nakagami_power_sample(-1.0, 1.0, rng)
    with pytest.raises(ValueError):
        nakagami_power_sample(1.0, 0.3, rng)


# ---------------------------------------------------------------------------
# cascade
# ---------------------------------------------------------------------------


def test_cascade_pure_free_space_is_deterministic():
    rng = np.random.default_rng(1)
    (got,) = channel_pass(drive_at(300.0, rng.standard_normal(1), rng.random(1)),
                          DEFAULT_RADIO, DEFAULT_FADING)
    expect = round(log_distance_rx_power(DEFAULT_RADIO, DEFAULT_FADING, 300.0), LOG_DECIMALS)
    assert got == pytest.approx(expect, abs=1e-12)


def test_cascade_fast_stage_preserves_mean_power():
    # Nakagami redistributes power packet to packet; its linear mean must
    # stay on the slow-stage value.
    fading = FadingParams(fast_model=FastFadingModel.NAKAGAMI, nakagami_m=2.0, alpha=1.51)
    rng = np.random.default_rng(17)
    n = 2_000_000
    draws_db = channel_pass(drive_at(150.0, np.zeros(n), rng.random(n)), DEFAULT_RADIO, fading)
    mean_mw = to_linear(draws_db).mean()
    slow_mw = to_linear(log_distance_rx_power(DEFAULT_RADIO, fading, 150.0))
    assert mean_mw == pytest.approx(slow_mw, rel=0.01)


def test_cascade_both_stages_total_spread():
    # Lognormal (sigma in dB) and Nakagami (Gamma in mW) compose; check the
    # dB variance against the analytic sum of the two stages.
    fading = FadingParams(
        slow_model=SlowFadingModel.LOGNORMAL,
        fast_model=FastFadingModel.NAKAGAMI,
        alpha=1.51,
        sigma_db=6.03,
        nakagami_m=2.0,
    )
    slow_rng = np.random.default_rng(31)
    fast_rng = np.random.default_rng(32)
    n = 1_000_000
    drive = drive_at(100.0, slow_rng.standard_normal(n), fast_rng.random(n))
    draws = channel_pass(drive, DEFAULT_RADIO, fading)
    # var(total dB) = sigma^2 + (10/ln10)^2 * psi'(m)
    fast_var = (10.0 / math.log(10.0)) ** 2 * special.polygamma(1, 2.0)
    assert float(np.var(draws)) == pytest.approx(6.03**2 + float(fast_var), rel=0.01)


def test_cascade_slow_draws_independent_of_fast_stage():
    # Dedicated fast stream: enabling Nakagami must not shift which
    # shadowing values the slow stream produces. A parked vehicle 50 m from
    # the RSU sends 32 packets each way in 3.2 s at the default 10 Hz.
    trace = EnuTrace(times_s=[0.0, 3.2], x_m=[50.0, 50.0], y_m=[0.0, 0.0], z_m=[0.0, 0.0])
    scenario = ScenarioConfig(master_seed=8)
    fading_slow = FadingParams(slow_model=SlowFadingModel.LOGNORMAL, sigma_db=4.0)
    fading_both = FadingParams(
        slow_model=SlowFadingModel.LOGNORMAL, sigma_db=4.0,
        fast_model=FastFadingModel.NAKAGAMI, nakagami_m=3.0,
    )
    drive = prepare_drive(trace, scenario)
    assert len(drive.distance_m) == 64
    a = channel_pass(drive, DEFAULT_RADIO, fading_slow)
    b = channel_pass(drive, DEFAULT_RADIO, fading_both)
    # Same slow stream, so the shadowed mean is recoverable: the Nakagami
    # stage has unit linear mean around each slow draw.
    assert np.all(np.isfinite(b))
    fading_det = FadingParams(slow_model=SlowFadingModel.LOGNORMAL, sigma_db=4.0)
    again = channel_pass(prepare_drive(trace, scenario), DEFAULT_RADIO, fading_det)
    assert np.array_equal(a, again)


def test_cascade_expected_delivery_matches_oracle():
    # Monte Carlo through the full cascade versus the quadrature oracle.
    radio = RadioParams(tx_power_mw=30.16, data_rate_mbps=18,
                        noise_floor_dbm=-90.0, rx_sensitivity_dbm=-114.0)
    fading = FadingParams(
        slow_model=SlowFadingModel.LOGNORMAL,
        fast_model=FastFadingModel.NAKAGAMI,
        alpha=1.51, system_loss_db=0.13, sigma_db=6.03, nakagami_m=2.0,
    )
    rng = np.random.default_rng(1234)
    n = 400_000
    for distance in (100.0, 400.0, 900.0):
        drive = drive_at(distance, rng.standard_normal(n), rng.random(n))
        draws = channel_pass(drive, radio, fading)
        delivered = np.mean(
            (draws >= radio.rx_sensitivity_dbm)
            & (draws - radio.noise_floor_dbm >= snr_threshold_db(radio.data_rate_mbps))
        )
        expect = oracles.expected_pdr_pct(radio, fading, distance) / 100.0
        assert delivered == pytest.approx(expect, abs=0.004)


# ---------------------------------------------------------------------------
# deterministic gain and dB helpers
# ---------------------------------------------------------------------------


def test_deterministic_gain_default_radio():
    got = deterministic_gain_db(DEFAULT_RADIO, DEFAULT_FADING, 1.0)
    assert got == pytest.approx(-47.86, abs=0.05)
    assert got < 0.0


def test_deterministic_gain_positive_when_antennas_amplify():
    radio = RadioParams(antenna_gain_tx=1e6, antenna_gain_rx=1e6)
    assert deterministic_gain_db(radio, DEFAULT_FADING, 1.0) > 0.0


def test_deterministic_gain_independent_of_tx_power():
    a = deterministic_gain_db(RadioParams(tx_power_mw=20.0), DEFAULT_FADING, 10.0)
    b = deterministic_gain_db(RadioParams(tx_power_mw=40.0), DEFAULT_FADING, 10.0)
    assert a == pytest.approx(b, abs=1e-12)


def test_db_round_trip_grid():
    values = np.linspace(-200.0, 50.0, 2001)
    assert np.max(np.abs(to_db(to_linear(values)) - values)) < 1e-12


@settings(max_examples=100, derandomize=True)
@given(st.floats(min_value=-300.0, max_value=100.0))
def test_db_round_trip_property(db):
    assert to_db(to_linear(db)) == pytest.approx(db, abs=1e-10)


# ---------------------------------------------------------------------------
# reception decision
# ---------------------------------------------------------------------------


def test_snr_threshold_table_values():
    assert SNR_THRESHOLDS_DB == {6: 5.0, 12: 11.0, 18: 15.0, 27: 20.0}
    for rate, threshold in SNR_THRESHOLDS_DB.items():
        assert snr_threshold_db(rate) == threshold


def test_snr_threshold_unknown_rate():
    with pytest.raises(ValueError, match="no SNR threshold"):
        snr_threshold_db(54)


def test_snr_threshold_custom_table():
    assert snr_threshold_db(6, table={6: 9.5}) == 9.5


def test_is_received_below_sensitivity():
    radio = RadioParams(rx_sensitivity_dbm=-94.0, noise_floor_dbm=-110.0)
    assert reason(-200.0, radio) is DeliveryReason.BELOW_SENSITIVITY


def test_is_received_below_snr():
    # Above sensitivity but only 10 dB over the floor; 18 Mbps needs 15.
    radio = RadioParams(rx_sensitivity_dbm=-110.0, noise_floor_dbm=-90.0, data_rate_mbps=18)
    assert reason(-80.0, radio) is DeliveryReason.BELOW_SNR


def test_is_received_boundaries_inclusive():
    radio = RadioParams(rx_sensitivity_dbm=-95.0, noise_floor_dbm=-110.0, data_rate_mbps=6)
    assert reason(-95.0, radio) is DeliveryReason.DELIVERED  # exactly at sensitivity, SNR 15 >= 5
    radio = RadioParams(rx_sensitivity_dbm=-120.0, noise_floor_dbm=-90.0, data_rate_mbps=6)
    assert reason(-85.0, radio) is DeliveryReason.DELIVERED  # margin exactly 5 dB


def test_is_received_sensitivity_checked_first():
    # Fails both checks; the sensitivity reason wins.
    radio = RadioParams(rx_sensitivity_dbm=-90.0, noise_floor_dbm=-92.0, data_rate_mbps=27)
    assert reason(-100.0, radio) is DeliveryReason.BELOW_SENSITIVITY


def test_is_received_honors_custom_table():
    radio = RadioParams(rx_sensitivity_dbm=-120.0, noise_floor_dbm=-90.0, data_rate_mbps=6)
    assert reason(-84.0, radio) is DeliveryReason.DELIVERED  # margin 6 dB clears the default 5
    assert reason(-84.0, radio, snr_table={6: 7.0}) is DeliveryReason.BELOW_SNR


@settings(max_examples=100, derandomize=True)
@given(
    rx=st.floats(min_value=-150.0, max_value=0.0),
    boost=st.floats(min_value=0.0, max_value=60.0),
)
def test_is_received_monotone_in_power(rx, boost):
    radio = RadioParams(rx_sensitivity_dbm=-94.0, noise_floor_dbm=-104.0, data_rate_mbps=12)
    if reason(rx, radio) is DeliveryReason.DELIVERED:
        assert reason(rx + boost, radio) is DeliveryReason.DELIVERED


def test_effective_threshold_splits_regimes():
    # Whichever of sensitivity and noise+SNR sits higher decides delivery.
    radio = RadioParams(rx_sensitivity_dbm=-114.0, noise_floor_dbm=-90.0, data_rate_mbps=18)
    t_eff = oracles.effective_threshold_dbm(radio)
    assert t_eff == pytest.approx(-75.0)
    assert reason(t_eff, radio) is DeliveryReason.DELIVERED
    assert reason(t_eff - 1e-6, radio) is not DeliveryReason.DELIVERED


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_radio_params_validation():
    with pytest.raises(ValueError, match="tx_power_mw"):
        RadioParams(tx_power_mw=0.0)
    with pytest.raises(ValueError, match="gain"):
        RadioParams(antenna_gain_tx=-1.0)
    with pytest.raises(ValueError, match="data_rate"):
        RadioParams(data_rate_mbps=9)
    with pytest.raises(ValueError, match="noise_floor_dbm"):
        RadioParams(noise_floor_dbm=3.0)
    with pytest.raises(ValueError, match="rx_sensitivity_dbm"):
        RadioParams(rx_sensitivity_dbm=math.nan)
    for name in ("antenna_gain_tx", "antenna_gain_rx", "carrier_frequency_hz"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                RadioParams(**{name: value})


def test_fading_params_validation():
    with pytest.raises(ValueError, match="alpha"):
        FadingParams(alpha=0.0)
    with pytest.raises(ValueError, match="system_loss_db"):
        FadingParams(system_loss_db=-0.1)
    with pytest.raises(ValueError, match="sigma_db"):
        FadingParams(sigma_db=-2.0)
    with pytest.raises(ValueError, match="nakagami_m"):
        FadingParams(nakagami_m=0.4)
    with pytest.raises(ValueError, match="reference_distance_m"):
        FadingParams(reference_distance_m=0.0)
    with pytest.raises(ValueError, match="slow_model"):
        FadingParams(slow_model="lognormal")
    for name in ("nakagami_m", "sigma_db", "system_loss_db"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                FadingParams(**{name: value})

