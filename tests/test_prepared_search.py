"""The prepared scorer against the log path, its Nakagami rule, and search progress."""

import copy
import logging
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from v2xcal import calibration, propagation
from v2xcal.calibration import (
    CONTINUOUS_GENES,
    INFEASIBLE_RMSE,
    SEARCH_SPACE,
    GaConfig,
    Genome,
    PreparedSearch,
    calibrated_genome,
    evolve,
    objective,
)
from v2xcal.dataio import GeodeticPosition, SynthSection, generate_synthetic, project_enu
from v2xcal.propagation import (
    DELIVERED,
    LOG_DECIMALS,
    NAKAGAMI_BAND,
    FadingParams,
    FastFadingModel,
    RadioParams,
    SlowFadingModel,
    deterministic_gain_db,
    nakagami_delivered,
    nakagami_rx_power,
    reception_codes,
    slow_rx_power,
    snr_threshold_db,
    to_linear,
)
from v2xcal.simulator import (
    BinWidthError,
    ScenarioConfig,
    channel_pass,
    delivery_pass,
    pdr_curve,
    rmse,
    run_scenario,
)

SCENARIO = ScenarioConfig(master_seed=1729)
RSU = GeodeticPosition(latitude_deg=45.0, longitude_deg=-93.0)

#: About 1.5 dB of positive gain at the reference distance with no system
#: loss, so genomes with system_loss_db under about 1.5 dB are infeasible.
BOOSTED = RadioParams(antenna_gain_tx=10.0 ** 4.94)


def _drive(half_length_m):
    """Trace and curve of a drive-by from -x to +x, 8 m off the antenna."""
    radio, fading = calibrated_genome().to_params()
    synth = SynthSection(waypoints_enu_m=((-half_length_m, 8.0, 0.0), (half_length_m, 8.0, 0.0)),
                         leg_speeds_mps=(13.4,), duration_s=2 * half_length_m / 13.4,
                         seed=SCENARIO.master_seed)
    trace, curve = generate_synthetic(synth, radio, fading, RSU, SCENARIO)
    return project_enu(trace, RSU), curve


# The observed curve comes from a longer drive than the searched trace, so
# some of its non-empty bins lie outside the drive and are left out.
ENU, _ = _drive(400.0)
_, OBSERVED = _drive(600.0)
SEARCHES = {base: PreparedSearch(OBSERVED, ENU, SCENARIO, base_radio=base)
            for base in (RadioParams(), BOOSTED)}


def genomes():
    return st.builds(Genome, **{name: st.floats(*span) if name in CONTINUOUS_GENES
                                else st.sampled_from(span) for name, span in SEARCH_SPACE.items()})


@settings(max_examples=150, deadline=None)
@given(genome=genomes(), base=st.sampled_from([RadioParams(), BOOSTED]))
def test_prepared_score_equals_the_log_path_bit_for_bit(genome, base):
    score = SEARCHES[base].score(genome)
    radio, fading = genome.to_params(base)
    if deterministic_gain_db(radio, fading, np.array([fading.reference_distance_m]))[0] > 0.0:
        assert score == INFEASIBLE_RMSE
        return
    log = run_scenario(ENU, SCENARIO, radio, fading)
    expected = rmse(OBSERVED, pdr_curve(log, SCENARIO.bin_width_m))
    assert score.hex() == expected.hex()


def test_objective_is_one_prepared_score():
    genome = calibrated_genome()
    assert objective(genome, OBSERVED, ENU, SCENARIO) == SEARCHES[RadioParams()].score(genome)


def test_search_refuses_other_bin_width():
    with pytest.raises(BinWidthError, match="bin widths differ"):
        PreparedSearch(OBSERVED, ENU, ScenarioConfig(master_seed=1729, bin_width_m=25.0))


def test_search_refuses_a_curve_beyond_the_drive():
    far = ScenarioConfig(master_seed=1729, rsu_x_m=5000.0)
    with pytest.raises(ValueError, match=r"no overlapping non-empty bins.*\(\d+\.\d-\d+\.\d m\)"):
        PreparedSearch(OBSERVED, ENU, far)


def test_search_warns_of_observed_bins_outside_the_drive(caplog):
    caplog.set_level(logging.WARNING, logger="v2xcal.calibration")
    log = run_scenario(ENU, SCENARIO, *calibrated_genome().to_params())
    inside = np.count_nonzero(pdr_curve(log, SCENARIO.bin_width_m).sent)
    observed = np.count_nonzero(OBSERVED.sent)
    PreparedSearch(OBSERVED, ENU, SCENARIO)
    assert observed > inside
    assert [r.getMessage() for r in caplog.records] == [
        f"{observed - inside} of {observed} observed non-empty bins lie outside the drive "
        "and are not compared"]


DRIVE = SEARCHES[RadioParams()].drive


def _decided_by_power(drive, radio, fading):
    return reception_codes(channel_pass(drive, radio, fading), radio, drive.snr_table) == DELIVERED


@settings(max_examples=200, deadline=None, derandomize=True)
@given(m=st.one_of(st.floats(0.5, 3.5), st.floats(3.5, 2e4)),
       slow_model=st.sampled_from(list(SlowFadingModel)),
       sigma=st.floats(0.0, 12.0), alpha=st.floats(1.0, 3.0),
       # Thresholds from -130 to -40 dBm bind from the drive's far end (about
       # -113 dBm at alpha 3) to its nearest packets (about -44 dBm at alpha 1).
       noise=st.floats(-130.0, -40.0), sensitivity=st.floats(-130.0, -40.0),
       rate=st.sampled_from([6, 12, 18, 27]), loss=st.floats(0.0, 3.0))
def test_threshold_rule_decides_as_the_drawn_power(m, slow_model, sigma, alpha, noise,
                                                   sensitivity, rate, loss):
    radio = RadioParams(data_rate_mbps=rate, noise_floor_dbm=noise, rx_sensitivity_dbm=sensitivity)
    fading = FadingParams(slow_model=slow_model, fast_model=FastFadingModel.NAKAGAMI, alpha=alpha,
                          system_loss_db=loss, sigma_db=sigma, nakagami_m=m)
    delivered, exact = delivery_pass(DRIVE, radio, fading)
    assert np.array_equal(delivered, _decided_by_power(DRIVE, radio, fading))
    assert exact <= DRIVE.uniforms.size


@pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf, 11.0])
def test_threshold_rule_follows_any_snr_table(snr_db):
    radio, fading = calibrated_genome().to_params()
    drive = replace(DRIVE, snr_table={radio.data_rate_mbps: snr_db})
    delivered, _ = delivery_pass(drive, radio, fading)
    assert np.array_equal(delivered, _decided_by_power(drive, radio, fading))


def _threshold_uniforms(drive, radio, fading):
    """c_k: the uniform at which packet k's drawn power reaches its threshold."""
    slow = slow_rx_power(radio, fading, drive.decades, drive.normals)
    threshold = max(radio.rx_sensitivity_dbm,
                    radio.noise_floor_dbm + snr_threshold_db(radio.data_rate_mbps))
    m = fading.nakagami_m
    return special.gammainc(m, m * to_linear(threshold) / to_linear(slow))


def test_uniforms_in_the_band_take_the_exact_chain(monkeypatch):
    radio, fading = calibrated_genome().to_params()
    c = _threshold_uniforms(DRIVE, radio, fading)
    inside = np.flatnonzero((c > NAKAGAMI_BAND) & (c < 1.0 - NAKAGAMI_BAND))
    planted = inside[::max(1, inside.size // 60)][:60]
    u = DRIVE.uniforms.copy()
    u[planted] = np.tile([0.0, 0.5, -0.5], 20)[:planted.size] * NAKAGAMI_BAND + c[planted]
    drive = replace(DRIVE, uniforms=u)
    sizes = []
    inverse = propagation.unit_gamma_draws

    def spy(m, uniforms):
        sizes.append(np.size(uniforms))
        return inverse(m, uniforms)

    monkeypatch.setattr(propagation, "unit_gamma_draws", spy)
    delivered, exact = delivery_pass(drive, radio, fading)
    assert planted.size == 60 and exact >= planted.size and sizes == [exact]
    # Both outcomes occur among the planted packets, so the band decides both ways.
    assert 0 < np.count_nonzero(delivered[planted]) < planted.size
    assert np.array_equal(delivered, _decided_by_power(drive, radio, fading))


def test_nakagami_search_inverts_only_band_packets(monkeypatch, caplog):
    # Every gene that sets the channel is frozen to one Nakagami genome, so
    # each packet's c_k is known. The free genes are idle: sigma_db under the
    # free-space slow stage, and rx_sensitivity_dbm below the -75 dBm that
    # noise floor plus the 18 Mbps SNR threshold set. A few uniforms are
    # planted within NAKAGAMI_BAND / 10 of c_k, so every score inverts them.
    caplog.set_level(logging.INFO, logger="v2xcal.calibration")
    genome = replace(calibrated_genome(), slow_model=SlowFadingModel.FREE_SPACE)
    radio, fading = genome.to_params()
    c = _threshold_uniforms(DRIVE, radio, fading)
    inside = np.flatnonzero((c > NAKAGAMI_BAND) & (c < 1.0 - NAKAGAMI_BAND))
    planted = inside[::max(1, inside.size // 5)][:5]
    prepare = calibration.prepare_drive

    def planting(trace, scenario, reference_distance_m):
        drive = prepare(trace, scenario, reference_distance_m)
        u = drive.uniforms.copy()
        u[planted] = c[planted] + np.linspace(-0.05, 0.05, planted.size) * NAKAGAMI_BAND
        return replace(drive, uniforms=u)

    sizes = []
    inverse = propagation.unit_gamma_draws

    def spy(m, uniforms):
        sizes.append(np.size(uniforms))
        return inverse(m, uniforms)

    monkeypatch.setattr(calibration, "prepare_drive", planting)
    monkeypatch.setattr(propagation, "unit_gamma_draws", spy)
    config = GaConfig(population_size=6, generations=10, master_seed=3, mutation_prob_per_gene=1.0,
                      frozen_genes=tuple((name, value) for name, value in genome.as_dict().items()
                                         if name not in ("sigma_db", "rx_sensitivity_dbm")))
    history = evolve(config, OBSERVED, ENU, SCENARIO).history
    scored = {r.genome for r in history if r.rmse != INFEASIBLE_RMSE}
    assert planted.size == 5 and len(scored) > 2 * config.population_size
    # The exact chain runs only for a score that has band packets to invert,
    # and every score here has the planted ones.
    assert len(sizes) == len(scored)
    assert all(0 < planted.size <= size < DRIVE.uniforms.size // 100 for size in sizes)
    counts = [re.search(r"exact decisions (\d+)/(\d+) packets", r.getMessage()).groups()
              for r in caplog.records if r.levelno == logging.INFO]
    assert len(counts) == config.generations
    assert sum(int(k) for k, _ in counts) == sum(sizes)
    assert sum(int(n) for _, n in counts) == len(scored) * DRIVE.uniforms.size


@pytest.mark.parametrize("change, message", [
    ({"alpha": 1e3}, "omega_mw must be finite and positive"),  # 10^(-26000/10) mW is 0.0
    ({"nakagami_m": math.inf}, "nakagami m must be >= 0.5"),
    ({"nakagami_m": math.nan}, "nakagami m must be >= 0.5"),
])
def test_nakagami_decisions_keep_the_chain_errors(change, message):
    # FadingParams refuses a non-finite nakagami_m; the channel it skips
    # checking here stands for a direct caller's raw m.
    radio, fading = calibrated_genome().to_params()
    fading = copy.copy(fading)
    for name, value in change.items():
        object.__setattr__(fading, name, value)
    for decide in (delivery_pass, _decided_by_power):
        with pytest.raises(ValueError, match=message):
            decide(DRIVE, radio, fading)


@pytest.mark.parametrize("bad_dbm", [3100.0, -3300.0, math.nan])
def test_nakagami_decisions_refuse_a_slow_power_with_no_linear_form(bad_dbm):
    # 10^(slow/10) mW overflows to inf at +3,100 dBm and underflows to 0 at
    # -3,300 dBm. One such packet among ordinary ones is refused, as the
    # drawn power refuses it; numpy's overflow warning is beside the point.
    slow = np.full(40, -80.0)
    slow[13] = bad_dbm
    u = np.linspace(0.01, 0.99, slow.size)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="omega_mw must be finite and positive"):
            nakagami_delivered(slow, 2.0, u, RadioParams())
        with pytest.raises(ValueError, match="omega_mw must be finite and positive"):
            nakagami_rx_power(slow, 2.0, u)


@pytest.mark.parametrize("m", [0.5, 1.0, 1.02, 2.0, 1e4])
@pytest.mark.parametrize("floor_dbm", [-110.0, -2500.0, -5000.0])
def test_nakagami_decisions_at_the_ends_of_the_power_range(m, floor_dbm):
    # Slow powers at both ends of the range where 10^(slow/10) is finite and
    # positive, and thresholds far below every power, where x_k is tiny: for
    # m near 1 the bounds' g falls below 1e-304 there while h stays near 1.
    # The smallest uniforms lie under the band, so the bounds decide them.
    # At a -5,000 dBm floor, a packet whose omega/m * y underflows to 0 mW
    # may still clear the threshold: its power is taken in decibels. Within
    # the band of 0 or 1 a bound whose denominator is negative (x above m + 1
    # at -3,200 dBm) must decide nothing, as a negative margin times a
    # negative m + 1 - x would pass the series bound's test.
    radio = RadioParams(noise_floor_dbm=floor_dbm, rx_sensitivity_dbm=floor_dbm)
    slow, u = (grid.ravel() for grid in np.meshgrid(
        [3050.0, -40.0, -80.0, -106.0, -3200.0],
        [1e-100, 1e-12, 5e-7, 1e-6, 2e-6, 0.3, 0.9, 1.0 - 1e-6, 1.0 - 5e-7, 1.0 - 2.0**-53]))
    with np.errstate(divide="ignore", over="ignore", under="ignore"):  # extreme floats warn
        delivered, _ = nakagami_delivered(slow, m, u, radio)
        power = np.round(nakagami_rx_power(slow, m, u), LOG_DECIMALS)
    assert np.array_equal(delivered, reception_codes(power, radio) == DELIVERED)


@pytest.mark.parametrize("m, slow_dbm", [
    (1e4, -106.3669),  # x about 13,700: the series would need about 4,700 terms
    (2.0, -3200.0),    # x = e^600: the series overflows
])
def test_a_series_past_its_cap_takes_the_exact_chain(m, slow_dbm, monkeypatch):
    # u = 1 - 1e-7 is within the band of 1, so no closed-form bound decides the
    # packet, and its series cannot be summed: only the drawn power decides it.
    slow, u = np.array([slow_dbm, -60.0]), np.array([1.0 - 1e-7, 0.5])
    inverse = propagation.unit_gamma_draws
    chained = []
    monkeypatch.setattr(propagation, "unit_gamma_draws",
                        lambda m, uniforms: chained.append(np.asarray(uniforms).tolist())
                        or inverse(m, uniforms))
    with np.errstate(under="ignore"):
        delivered, exact = nakagami_delivered(slow, m, u, RadioParams())
    assert exact == 1 and chained == [[1.0 - 1e-7]]
    monkeypatch.undo()
    power = np.round(nakagami_rx_power(slow, m, u), LOG_DECIMALS)
    assert np.array_equal(delivered, reception_codes(power, RadioParams()) == DELIVERED)


def test_a_nan_threshold_delivers_nothing_and_takes_no_exact_chain(monkeypatch):
    radio, fading = calibrated_genome().to_params()
    monkeypatch.setattr(propagation, "unit_gamma_draws", None)  # calling it would raise
    drive = replace(DRIVE, snr_table={radio.data_rate_mbps: math.nan})
    delivered, exact = delivery_pass(drive, radio, fading)
    assert exact == 0 and not delivered.any()


def test_one_progress_line_per_generation(caplog):
    caplog.set_level(logging.INFO, logger="v2xcal.calibration")
    config = GaConfig(population_size=5, generations=4, master_seed=8)
    evolve(config, OBSERVED, ENU, SCENARIO)
    lines = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert len(lines) == config.generations
    for gen, line in enumerate(lines):
        assert line.startswith(f"generation {gen}: best rmse ")
        for part in ("median", "infeasible", "evaluations/s", "score memo hits"):
            assert part in line
        assert re.search(r", exact decisions \d+/\d+ packets$", line)
