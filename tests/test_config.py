"""Configuration grammar: parsing, rendering, layering, and presets."""

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from v2xcal.calibration import (
    GENE_NAMES,
    GaConfig,
    calibrated_genome,
    format_gene_value,
    parse_gene_value,
)
from v2xcal.config import (
    RunConfig,
    apply_preset,
    parse_config,
    planted_params_text,
    render_config,
)
from v2xcal.dataio import GeodeticPosition, SynthSection
from v2xcal.propagation import (
    SUPPORTED_DATA_RATES_MBPS,
    FadingParams,
    FastFadingModel,
    RadioParams,
    SlowFadingModel,
)
from v2xcal.simulator import ScenarioConfig


FULL_DOCUMENT = """
# channel
radio.tx_power_mw = 30.16
radio.antenna_gain_tx = 1.5
radio.antenna_gain_rx = 1.25
radio.carrier_frequency_hz = 5.86e9
radio.data_rate_mbps = 18
radio.noise_floor_dbm = -90.0
radio.rx_sensitivity_dbm = -114.0

fading.slow_model = lognormal
fading.fast_model = nakagami
fading.alpha = 1.51
fading.system_loss_db = 0.13
fading.sigma_db = 6.03
fading.nakagami_m = 2.0
fading.reference_distance_m = 1.0

scenario.rsu_x_m = 1.0
scenario.rsu_y_m = -2.0
scenario.rsu_z_m = 6.0
scenario.bsm_rate_hz = 5.0
scenario.spat_rate_hz = 2.0
scenario.bin_width_m = 25.0
scenario.heatmap_cell_m = 40.0
scenario.master_seed = 99
scenario.snr_threshold_18_mbps = 16.5

rsu.latitude_deg = 44.9778
rsu.longitude_deg = -93.265
rsu.altitude_ft = 830.0

synth.waypoints_enu_m = -500.0,8.0,0.0; 0.0,8.0,0.0; 500.0,80.0,0.0
synth.leg_speeds_mps = 13.4, 8.9
synth.duration_s = 120.0
synth.sample_rate_hz = 5.0
synth.seed = 4242

ga.population_size = 12
ga.generations = 7
ga.tournament_size = 4
ga.crossover_prob = 0.8
ga.mutation_prob_per_gene = 0.2
ga.mutation_sigma_fraction = 0.15
ga.elite_count = 1
ga.master_seed = 7
ga.jobs = 2
ga.freeze = noise_floor_dbm=-90.0,data_rate_mbps=18
"""


def test_defaults_render_and_parse_back():
    config = RunConfig()
    text = render_config(config)
    assert parse_config(text) == config
    assert render_config(parse_config(text)) == text  # idempotent


def test_full_document_round_trip():
    config = parse_config(FULL_DOCUMENT)
    assert config.radio.tx_power_mw == 30.16
    assert config.radio.carrier_frequency_hz == 5.86e9
    assert config.fading.slow_model is SlowFadingModel.LOGNORMAL
    assert config.fading.fast_model is FastFadingModel.NAKAGAMI
    assert config.scenario.master_seed == 99
    assert config.rsu.latitude_deg == 44.9778
    assert config.synth.waypoints_enu_m == (
        (-500.0, 8.0, 0.0), (0.0, 8.0, 0.0), (500.0, 80.0, 0.0)
    )
    assert config.synth.leg_speeds_mps == (13.4, 8.9)
    assert config.ga.population_size == 12
    assert config.ga.frozen_genes == (("noise_floor_dbm", -90.0), ("data_rate_mbps", 18))
    # Round trip preserves everything, including the freeze line.
    assert parse_config(render_config(config)) == config


def test_snr_override_materializes_full_table():
    config = parse_config("scenario.snr_threshold_18_mbps = 17.0\n")
    assert config.scenario.snr_thresholds_db == (
        (6, 5.0), (12, 11.0), (18, 17.0), (27, 20.0)
    )
    # Untouched configuration keeps the marker for "library defaults".
    assert RunConfig().scenario.snr_thresholds_db is None


def test_layering_overrides_only_named_keys():
    base = parse_config("radio.tx_power_mw = 25.0\nfading.alpha = 2.2\n")
    layered = parse_config("fading.alpha = 1.7\n", base=base)
    assert layered.radio.tx_power_mw == 25.0
    assert layered.fading.alpha == 1.7


def test_comments_and_blank_lines_ignored():
    config = parse_config("\n# a comment\n   \nradio.tx_power_mw = 22.0\n")
    assert config.radio.tx_power_mw == 22.0


def test_unknown_key_names_key_and_line():
    with pytest.raises(ValueError, match=r"line 2: .*radio\.bandwidth"):
        parse_config("radio.tx_power_mw = 20.0\nradio.bandwidth = 10\n")


def test_duplicate_key_rejected():
    with pytest.raises(ValueError, match=r"line 3: duplicate key 'fading\.alpha'"):
        parse_config("# x\nfading.alpha = 1.5\nfading.alpha = 1.6\n")


def test_malformed_line_rejected():
    with pytest.raises(ValueError, match="line 1: expected 'key = value'"):
        parse_config("just some words\n")


def test_bad_enum_value_lists_options():
    with pytest.raises(ValueError, match="rician.*expected one of: fsm, lognormal"):
        parse_config("fading.slow_model = rician\n")


def test_non_finite_float_rejected():
    with pytest.raises(ValueError, match="finite"):
        parse_config("fading.alpha = inf\n")


def test_invalid_value_carries_dataclass_message():
    with pytest.raises(ValueError, match="invalid configuration"):
        parse_config("radio.tx_power_mw = -5.0\n")


def test_bad_waypoint_shape_rejected():
    with pytest.raises(ValueError, match="must be x,y,z"):
        parse_config("synth.waypoints_enu_m = 1.0,2.0\n")


def test_bad_freeze_entry_rejected():
    with pytest.raises(ValueError, match="gene=value"):
        parse_config("ga.freeze = alpha\n")
    with pytest.raises(ValueError, match="unknown gene"):
        parse_config("ga.freeze = bandwidth=7\n")


def test_apply_preset():
    config = apply_preset(RunConfig(), "calibrated")
    genome = calibrated_genome()
    assert config.radio.tx_power_mw == genome.tx_power_mw
    assert config.radio.data_rate_mbps == genome.data_rate_mbps
    assert config.fading.alpha == genome.alpha
    assert config.fading.slow_model is genome.slow_model
    with pytest.raises(ValueError, match="unknown preset"):
        apply_preset(RunConfig(), "mystery")


def test_preset_keeps_non_gene_fields():
    base = parse_config("radio.antenna_gain_tx = 2.0\nfading.reference_distance_m = 2.0\n")
    config = apply_preset(base, "calibrated")
    assert config.radio.antenna_gain_tx == 2.0
    assert config.fading.reference_distance_m == 2.0


def test_planted_params_text_lists_genes_and_seed():
    config = apply_preset(RunConfig(), "calibrated")
    text = planted_params_text(config)
    assert "alpha = 1.51" in text
    assert "slow_model = lognormal" in text
    assert "data_rate_mbps = 18" in text
    assert "seed = 1729" in text
    assert len(text.strip().splitlines()) == 11  # ten genes plus the seed


def test_gene_value_round_trip():
    genome = calibrated_genome()
    for name in genome.as_dict():
        value = getattr(genome, name)
        assert parse_gene_value(name, format_gene_value(name, value)) == value
    with pytest.raises(ValueError, match="unknown gene"):
        parse_gene_value("bandwidth", "1")


# Finite floats of every exponent, subnormals and signed zeros included.
_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_negative = st.floats(max_value=0.0, exclude_max=True, allow_infinity=False)
_unit = st.floats(min_value=0.0, max_value=1.0)
_seed = st.integers(min_value=0, max_value=2**63)
_gene_values = {
    "data_rate_mbps": st.sampled_from(SUPPORTED_DATA_RATES_MBPS),
    "slow_model": st.sampled_from(SlowFadingModel),
    "fast_model": st.sampled_from(FastFadingModel),
}
_frozen_entry = st.sampled_from(GENE_NAMES).flatmap(
    lambda name: st.tuples(st.just(name), _gene_values.get(name, _finite)))


@st.composite
def _ga_configs(draw):
    population = draw(st.integers(min_value=2, max_value=10**6))
    return GaConfig(
        population_size=population,
        generations=draw(st.integers(min_value=1, max_value=10**6)),
        tournament_size=draw(st.integers(min_value=2, max_value=10**6)),
        elite_count=draw(st.integers(min_value=0, max_value=population - 1)),
        master_seed=draw(_seed),
        jobs=draw(st.integers(min_value=1, max_value=64)),
        crossover_prob=draw(_unit),
        mutation_prob_per_gene=draw(_unit),
        mutation_sigma_fraction=draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
        frozen_genes=tuple(draw(st.lists(_frozen_entry, max_size=4))),
    )


def _every_leg_has_a_finite_length(points):
    with np.errstate(over="ignore"):
        return all(0.0 < np.linalg.norm(np.subtract(b, a)) < np.inf
                   for a, b in zip(points, points[1:]))


_run_configs = st.builds(
    RunConfig,
    radio=st.builds(RadioParams, tx_power_mw=_positive, antenna_gain_tx=_positive,
                    antenna_gain_rx=_positive, carrier_frequency_hz=_positive,
                    data_rate_mbps=_gene_values["data_rate_mbps"], noise_floor_dbm=_negative,
                    rx_sensitivity_dbm=_negative),
    fading=st.builds(FadingParams, slow_model=_gene_values["slow_model"],
                     fast_model=_gene_values["fast_model"], alpha=_positive,
                     system_loss_db=st.floats(min_value=0.0, allow_infinity=False),
                     sigma_db=st.floats(min_value=0.0, allow_infinity=False),
                     nakagami_m=st.floats(min_value=0.5, allow_infinity=False),
                     reference_distance_m=_positive),
    scenario=st.builds(
        ScenarioConfig, rsu_x_m=_finite, rsu_y_m=_finite, rsu_z_m=_finite,
        bsm_rate_hz=_positive, spat_rate_hz=_positive, bin_width_m=_positive,
        heatmap_cell_m=_positive, master_seed=_seed,
        # The file form overrides single rates of the full table, so a
        # resolved configuration carries either no table or all of it.
        snr_thresholds_db=st.none() | st.tuples(
            *(st.tuples(st.just(rate), _finite) for rate in SUPPORTED_DATA_RATES_MBPS))),
    rsu=st.builds(GeodeticPosition, latitude_deg=st.floats(min_value=-90.0, max_value=90.0),
                  longitude_deg=st.floats(min_value=-180.0, max_value=180.0),
                  altitude_ft=_finite),
    # SynthSection refuses fewer than 2 waypoints, two consecutive ones
    # whose distance computes as 0 or overflows, and speeds, duration or
    # rate that are not positive and finite.
    synth=st.builds(SynthSection,
                    waypoints_enu_m=st.lists(st.tuples(_finite, _finite, _finite),
                                             min_size=2, max_size=5)
                    .filter(_every_leg_has_a_finite_length)
                    .map(tuple),
                    leg_speeds_mps=st.lists(_positive, max_size=4).map(tuple),
                    duration_s=_positive, sample_rate_hz=_positive, seed=_seed),
    ga=_ga_configs(),
)


# An example draws about eighty values, so shrinking a failure would take
# minutes; the first failing configuration is reported as drawn.
@settings(max_examples=150, derandomize=True, phases=(Phase.explicit, Phase.generate))
@given(_run_configs)
def test_every_config_round_trips_through_its_text(config):
    text = render_config(config)
    assert parse_config(text) == config
    assert render_config(parse_config(text)) == text
