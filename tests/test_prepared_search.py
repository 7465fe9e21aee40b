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

from v2xcal.calibration import (
    INFEASIBLE_RMSE,
    GaConfig,
    Genome,
    PreparedSearch,
    calibrated_genome,
    evolve,
    objective,
    table_search_space,
)
from v2xcal.dataio import GeodeticPosition, SynthSection, generate_synthetic, project_enu
from v2xcal.propagation import (
    DELIVERED,
    NAKAGAMI_BAND,
    FadingParams,
    FastFadingModel,
    RadioParams,
    SlowFadingModel,
    deterministic_gain_db,
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
    trace, _, curve = generate_synthetic(synth, radio, fading, RSU, SCENARIO)
    return project_enu(trace, RSU), curve


# The observed curve comes from a longer drive than the searched trace, so
# some of its non-empty bins lie outside the drive and are left out.
ENU, _ = _drive(400.0)
_, OBSERVED = _drive(600.0)
SEARCHES = {base: PreparedSearch(OBSERVED, ENU, SCENARIO, base_radio=base)
            for base in (None, BOOSTED)}


def genomes():
    space = table_search_space()
    genes = {name: st.floats(lo, hi) for name, lo, hi in space.continuous}
    genes.update({name: st.sampled_from(options) for name, options in space.categorical})
    return st.builds(Genome, **genes)


@settings(max_examples=150, deadline=None)
@given(genome=genomes(), base=st.sampled_from([None, BOOSTED]))
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
    assert objective(genome, OBSERVED, ENU, SCENARIO) == SEARCHES[None].score(genome)


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


DRIVE = SEARCHES[None].drive


def _decided_by_power(drive, radio, fading, table=None):
    return reception_codes(channel_pass(drive, radio, fading), radio, table) == DELIVERED


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
    table = {radio.data_rate_mbps: snr_db}
    delivered, _ = delivery_pass(DRIVE, radio, fading, table)
    assert np.array_equal(delivered, _decided_by_power(DRIVE, radio, fading, table))


def _threshold_uniforms(drive, radio, fading):
    """c_k: the uniform at which packet k's drawn power reaches its threshold."""
    slow = slow_rx_power(radio, fading, np.maximum(drive.distance_m, 1e-12), drive.normals)
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
    inverse = special.gammaincinv

    def spy(m, uniforms):
        sizes.append(np.size(uniforms))
        return inverse(m, uniforms)

    monkeypatch.setattr(special, "gammaincinv", spy)
    delivered, exact = delivery_pass(drive, radio, fading)
    assert planted.size == 60 and exact >= planted.size and sizes == [exact]
    # Both outcomes occur among the planted packets, so the band decides both ways.
    assert 0 < np.count_nonzero(delivered[planted]) < planted.size
    assert np.array_equal(delivered, _decided_by_power(drive, radio, fading))


def test_nakagami_search_inverts_only_band_packets(monkeypatch, caplog):
    caplog.set_level(logging.INFO, logger="v2xcal.calibration")
    sizes = []
    inverse = special.gammaincinv

    def spy(m, uniforms):
        sizes.append(np.size(uniforms))
        return inverse(m, uniforms)

    monkeypatch.setattr(special, "gammaincinv", spy)
    config = GaConfig(population_size=6, generations=10, master_seed=3,
                      frozen_genes=(("fast_model", FastFadingModel.NAKAGAMI),))
    history = evolve(config, OBSERVED, ENU, SCENARIO).history
    scored = {r.genome for r in history if r.rmse != INFEASIBLE_RMSE}
    assert len(sizes) == len(scored) > 2 * config.population_size
    assert max(sizes) < DRIVE.uniforms.size // 100
    counts = [re.search(r"exact decisions (\d+)/(\d+) packets", r.getMessage()).groups()
              for r in caplog.records if r.levelno == logging.INFO]
    assert len(counts) == config.generations
    assert sum(int(k) for k, _ in counts) == sum(sizes)
    assert sum(int(n) for _, n in counts) == len(sizes) * DRIVE.uniforms.size


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
