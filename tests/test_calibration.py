"""Genome plumbing, objective semantics, and GA behavior checks."""

import math
import pathlib
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from v2xcal.calibration import (
    CONTINUOUS_GENES,
    GENE_NAMES,
    HISTORY_HEADERS,
    INFEASIBLE_RMSE,
    CalibrationResult,
    GaConfig,
    Genome,
    HistoryRecord,
    SEARCH_SPACE,
    _sample,
    _slot_rng,
    _tournament,
    calibrated_genome,
    default_genome,
    evolve,
    format_gene_value,
    history_to_csv,
    noise_raised_genome,
    objective,
    parse_history_csv,
    result_summary,
)
from v2xcal.dataio import GeodeticPosition, SynthSection, generate_synthetic, project_enu
from v2xcal.propagation import (
    FadingParams,
    FastFadingModel,
    RadioParams,
    SlowFadingModel,
    deterministic_gain_db,
    free_space_rx_power,
    log_distance_rx_power,
)
from v2xcal.simulator import ScenarioConfig

import oracles

# Channel gain of the default radio at the reference distance (about
# -47.865 dB); adding G dB of antenna gain moves it to G + this value.
_REFERENCE_GAIN_DB = deterministic_gain_db(RadioParams(), FadingParams(), 1.0)


def small_dataset(seed=1729):
    """A short drive-by with the calibrated truth planted; fast to simulate."""
    radio, fading = calibrated_genome().to_params()
    synth = SynthSection(
        waypoints_enu_m=((-400.0, 8.0, 0.0), (400.0, 8.0, 0.0)),
        leg_speeds_mps=(13.4,),
        duration_s=59.0,
        seed=seed,
        sample_rate_hz=10.0,
    )
    rsu = GeodeticPosition(latitude_deg=45.0, longitude_deg=-93.0)
    scenario = ScenarioConfig(master_seed=seed)
    trace, curve = generate_synthetic(synth, radio, fading, rsu, scenario)
    return project_enu(trace, rsu), curve, scenario


# ---------------------------------------------------------------------------
# genome plumbing
# ---------------------------------------------------------------------------


def test_gene_names_canonical_order():
    assert GENE_NAMES == (
        "tx_power_mw", "data_rate_mbps", "noise_floor_dbm", "rx_sensitivity_dbm",
        "slow_model", "fast_model", "alpha", "system_loss_db", "sigma_db", "nakagami_m",
    )
    assert CONTINUOUS_GENES == tuple(
        n for n in GENE_NAMES if n not in ("data_rate_mbps", "slow_model", "fast_model"))


def test_genome_params_round_trip():
    genome = calibrated_genome()
    radio, fading = genome.to_params()
    assert Genome.from_params(radio, fading) == genome
    assert genome.as_dict()["alpha"] == 1.51


def test_genome_to_params_keeps_base_fields():
    base_radio = RadioParams(antenna_gain_tx=2.0, carrier_frequency_hz=5.86e9)
    base_fading = FadingParams(reference_distance_m=2.0, alpha=2.0)
    radio, fading = calibrated_genome().to_params(base_radio, base_fading)
    assert radio.antenna_gain_tx == 2.0
    assert radio.carrier_frequency_hz == 5.86e9
    assert fading.reference_distance_m == 2.0
    assert fading.alpha == 1.51  # gene wins over the base


def test_preset_genomes():
    assert default_genome() == Genome(
        tx_power_mw=20.0, data_rate_mbps=6, noise_floor_dbm=-110.0,
        rx_sensitivity_dbm=-110.0, slow_model=SlowFadingModel.FREE_SPACE,
        fast_model=FastFadingModel.NONE, alpha=2.0, system_loss_db=0.0,
        sigma_db=2.0, nakagami_m=1.0,
    )
    cal = calibrated_genome()
    assert (cal.tx_power_mw, cal.data_rate_mbps, cal.alpha, cal.system_loss_db,
            cal.sigma_db, cal.nakagami_m) == (30.16, 18, 1.51, 0.13, 6.03, 2.0)
    assert cal.slow_model is SlowFadingModel.LOGNORMAL
    assert cal.fast_model is FastFadingModel.NAKAGAMI
    assert noise_raised_genome() == replace(default_genome(), noise_floor_dbm=-60.0)


def test_default_preset_is_friis_free_space():
    """The default channel's mean power at d is the Friis power with d as the
    reference distance, and its -90 dBm noise step binds inside the
    acceptance drive, which passes the antenna at 8 m and reaches 2 km."""
    radio, fading = default_genome().to_params()
    for d in (1.0, 8.0, 321.6, 2000.0):
        friis = free_space_rx_power(radio, replace(fading, reference_distance_m=d))
        assert log_distance_rx_power(radio, fading, d) == pytest.approx(friis, abs=1e-9)
    noisy_radio, _ = replace(default_genome(), noise_floor_dbm=-90.0).to_params()
    assert 8.0 < oracles.deterministic_breakpoint_m(noisy_radio, fading) < 2000.0


# ---------------------------------------------------------------------------
# search space
# ---------------------------------------------------------------------------


def in_search_space(genome: Genome) -> bool:
    """Each continuous gene within its (lo, hi), every other gene one of its options."""
    return all(span[0] <= getattr(genome, name) <= span[1] if name in CONTINUOUS_GENES
               else getattr(genome, name) in span for name, span in SEARCH_SPACE.items())


def test_search_space_bounds():
    assert SEARCH_SPACE["tx_power_mw"] == (20.0, 40.0)
    assert SEARCH_SPACE["noise_floor_dbm"] == (-110.0, -90.0)
    assert SEARCH_SPACE["rx_sensitivity_dbm"] == (-120.0, -90.0)
    assert SEARCH_SPACE["alpha"] == (1.0, 3.0)
    assert SEARCH_SPACE["system_loss_db"] == (0.0, 3.0)
    assert SEARCH_SPACE["sigma_db"] == (1.0, 10.0)
    assert SEARCH_SPACE["nakagami_m"] == (1.0, 3.5)
    assert SEARCH_SPACE["data_rate_mbps"] == (6, 12, 18, 27)
    assert len(SEARCH_SPACE["slow_model"]) == 2
    assert len(SEARCH_SPACE["fast_model"]) == 2


def test_search_space_sampling_stays_inside():
    for seed in range(50):
        genome = _sample(np.random.default_rng(seed))
        assert in_search_space(genome)
        for name in CONTINUOUS_GENES:
            value = getattr(genome, name)
            assert value == round(value, 9)


def test_search_space_contains():
    assert in_search_space(calibrated_genome())
    assert not in_search_space(replace(calibrated_genome(), alpha=3.5))
    assert not in_search_space(replace(calibrated_genome(), data_rate_mbps=24))
    assert not in_search_space(noise_raised_genome())  # noise -60 is out of range


def test_search_space_validation():
    # One entry per gene in draw order; the genome's types alone decide each
    # gene's kind: a range for a float gene, options of its type otherwise.
    assert tuple(SEARCH_SPACE) == GENE_NAMES
    package = Genome.from_params(RadioParams(), FadingParams())
    for name, span in SEARCH_SPACE.items():
        if name in CONTINUOUS_GENES:
            lo, hi = span
            assert type(lo) is type(hi) is float and lo < hi, name
        else:
            assert isinstance(span, tuple) and span, name
            assert all(type(v) is type(getattr(package, name)) for v in span), name


def test_readme_gene_table_matches_the_search_space():
    # The README spelled the slow model free_space, a name the parser refuses.
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(r"^\| `(\w+)` \| ([\[{][^|]*[\]}]) \|", readme.read_text("utf-8"), re.M)
    assert [name for name, _ in rows] == list(GENE_NAMES)
    for name, text in rows:
        span = SEARCH_SPACE[name]
        values = [value.strip() for value in text[1:-1].split(",")]
        if name in CONTINUOUS_GENES:
            assert text[0] == "[" and tuple(map(float, values)) == span, name
        else:
            assert text[0] == "{" and values == [format_gene_value(name, v) for v in span], name


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


def test_objective_planted_truth_scores_zero():
    # Common random numbers: the exact planted genome reproduces the
    # observed curve bit for bit, so the fit error is exactly zero.
    enu, curve, scenario = small_dataset()
    assert objective(calibrated_genome(), curve, enu, scenario) == 0.0


def test_objective_is_deterministic():
    enu, curve, scenario = small_dataset()
    genome = replace(calibrated_genome(), alpha=1.9, sigma_db=4.0)
    a = objective(genome, curve, enu, scenario)
    b = objective(genome, curve, enu, scenario)
    assert a == b and 0.0 < a < 1000.0


def test_objective_positive_gain_scores_flat_penalty():
    # Antenna gains high enough to amplify: flat 1000.0, no simulation.
    enu, curve, scenario = small_dataset()
    boosted = RadioParams(antenna_gain_tx=1e6, antenna_gain_rx=1e6)
    score = objective(calibrated_genome(), curve, enu, scenario, base_radio=boosted)
    assert score == INFEASIBLE_RMSE == 1000.0


def test_objective_penalty_triggers_on_any_sweep_point():
    # 49 dB of antenna gain puts the reference-distance gain at
    # +1.133 dB - system_loss_db: the loss gene alone decides feasibility.
    enu, curve, scenario = small_dataset()
    gain_db = 49.0
    base = RadioParams(antenna_gain_tx=10.0 ** (gain_db / 20.0),
                       antenna_gain_rx=10.0 ** (gain_db / 20.0))
    split = gain_db + _REFERENCE_GAIN_DB
    infeasible = replace(calibrated_genome(), system_loss_db=split - 0.05)
    feasible = replace(calibrated_genome(), system_loss_db=split + 0.05)
    assert objective(infeasible, curve, enu, scenario, base_radio=base) == 1000.0
    assert objective(feasible, curve, enu, scenario, base_radio=base) < 1000.0


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------


def test_tournament_never_prefers_penalized_entrant():
    # Replay the entrant draw, then check the minimum entrant score wins.
    scores = [1000.0, 4.0, 1000.0, 2.5, 77.0, 1000.0]
    for seed in range(300):
        probe = np.random.default_rng(seed)
        entrants = [int(i) for i in probe.integers(0, len(scores), size=3)]
        winner = _tournament(np.random.default_rng(seed), scores, 3)
        assert scores[winner] == min(scores[i] for i in entrants)


def test_tournament_breaks_ties_by_lowest_index():
    scores = [5.0, 5.0, 5.0, 5.0]
    for seed in range(50):
        probe = np.random.default_rng(seed)
        entrants = [int(i) for i in probe.integers(0, len(scores), size=4)]
        winner = _tournament(np.random.default_rng(seed), scores, 4)
        assert winner == min(entrants)


@settings(max_examples=300, deadline=None)
@given(scores=st.lists(st.sampled_from([0.0, 2.5, 2.5000000001, 1000.0]), min_size=1, max_size=12),
       tournament_size=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_tournament_is_the_loop_over_its_entrants(scores, tournament_size, seed):
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    assert (_tournament(rng, scores, tournament_size)
            == oracles.loop_tournament(reference, scores, tournament_size))
    assert rng.bit_generator.state == reference.bit_generator.state


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


def test_single_generation_is_best_of_initial_samples():
    enu, curve, scenario = small_dataset()
    config = GaConfig(population_size=4, generations=1, master_seed=9)
    result = evolve(config, curve, enu, scenario)
    expected = [_sample(_slot_rng(9, 0, i)) for i in range(4)]
    assert [rec.genome for rec in result.history] == expected
    scores = [objective(g, curve, enu, scenario) for g in expected]
    assert result.best_rmse == round(min(scores), 9)
    assert result.best_genome == expected[int(np.argmin(scores))]
    assert result.evaluations == 4


def test_history_covers_every_evaluation():
    enu, curve, scenario = small_dataset()
    config = GaConfig(population_size=6, generations=4, master_seed=5)
    result = evolve(config, curve, enu, scenario)
    assert result.evaluations == len(result.history) == 24
    assert [(r.generation, r.individual) for r in result.history] == [
        (g, i) for g in range(4) for i in range(6)
    ]
    assert result.best_rmse == min(r.rmse for r in result.history)


def test_elitism_keeps_best_score_monotone():
    enu, curve, scenario = small_dataset()
    config = GaConfig(population_size=8, generations=6, master_seed=12, elite_count=2)
    result = evolve(config, curve, enu, scenario)
    per_gen_best = [
        min(r.rmse for r in result.history if r.generation == g) for g in range(6)
    ]
    assert per_gen_best == sorted(per_gen_best, reverse=True) or all(
        b <= a + 1e-12 for a, b in zip(per_gen_best, per_gen_best[1:])
    )


def test_ties_go_to_the_earliest_row_and_the_lowest_slot():
    # Under the free-space stage without fast fading, sigma_db and nakagami_m
    # set nothing; with the noise floor at -90 dBm and 18 Mbps, noise plus
    # SNR threshold (-75 dBm) also outbids any rx_sensitivity_dbm. Genomes
    # that differ only in those genes are distinct but score the same.
    enu, curve, scenario = small_dataset()
    config = GaConfig(population_size=8, generations=6, master_seed=12, elite_count=2,
                      frozen_genes=(("slow_model", SlowFadingModel.FREE_SPACE),
                                    ("fast_model", FastFadingModel.NONE),
                                    ("noise_floor_dbm", -90.0), ("data_rate_mbps", 18)))
    result = evolve(config, curve, enu, scenario)
    at_best = [r for r in result.history if r.rmse == result.best_rmse]
    assert len({r.genome for r in at_best}) > 1
    assert result.best_genome == at_best[0].genome
    generations = [[r for r in result.history if r.generation == g] for g in range(6)]
    ties = 0
    for previous, current in zip(generations, generations[1:]):
        ranked = sorted(previous, key=lambda r: (r.rmse, r.individual))
        assert [r.genome for r in current[:2]] == [r.genome for r in ranked[:2]]
        ties += ranked[0].rmse == ranked[1].rmse and ranked[0].genome != ranked[1].genome
    # Some elite pair was a tie of distinct genomes, settled by the slot.
    assert ties


def test_children_respect_bounds_under_max_mutation():
    # Adversarial settings: every gene mutates with the widest step allowed.
    enu, curve, scenario = small_dataset()
    config = GaConfig(population_size=10, generations=5, master_seed=3,
                      mutation_prob_per_gene=1.0, mutation_sigma_fraction=1.0)
    result = evolve(config, curve, enu, scenario)
    for rec in result.history:
        assert in_search_space(rec.genome), rec


def test_frozen_genes_pin_values_through_the_run():
    enu, curve, scenario = small_dataset()
    config = GaConfig(population_size=6, generations=4, master_seed=21,
                      frozen_genes=(("alpha", 1.7), ("data_rate_mbps", 18)))
    result = evolve(config, curve, enu, scenario)
    for rec in result.history:
        assert rec.genome.alpha == 1.7
        assert rec.genome.data_rate_mbps == 18
    assert result.best_genome.alpha == 1.7


def test_evolution_is_deterministic():
    enu, curve, scenario = small_dataset()
    config = GaConfig(population_size=6, generations=3, master_seed=31)
    a = evolve(config, curve, enu, scenario)
    b = evolve(config, curve, enu, scenario)
    assert history_to_csv(a) == history_to_csv(b)
    assert a.best_genome == b.best_genome and a.best_rmse == b.best_rmse


def test_worker_count_never_changes_results():
    enu, curve, scenario = small_dataset()
    serial = evolve(GaConfig(population_size=6, generations=3, master_seed=31, jobs=1),
                    curve, enu, scenario)
    parallel = evolve(GaConfig(population_size=6, generations=3, master_seed=31, jobs=2),
                      curve, enu, scenario)
    assert history_to_csv(serial) == history_to_csv(parallel)
    assert serial.best_rmse == parallel.best_rmse


def test_penalized_genomes_never_win_a_run():
    # With 49 dB of fixed antenna gain, candidates with system_loss_db
    # under ~1.13 are penalized; the winner must come from the feasible side.
    enu, curve, scenario = small_dataset()
    base = RadioParams(antenna_gain_tx=10.0 ** 2.45, antenna_gain_rx=10.0 ** 2.45)
    config = GaConfig(population_size=10, generations=4, master_seed=77)
    result = evolve(config, curve, enu, scenario, base_radio=base)
    split = 49.0 + _REFERENCE_GAIN_DB
    saw_penalty = False
    for rec in result.history:
        if rec.genome.system_loss_db < split - 1e-6:
            assert rec.rmse == 1000.0
            saw_penalty = True
        elif rec.genome.system_loss_db > split + 1e-6:
            assert rec.rmse < 1000.0
    assert saw_penalty  # the run actually exercised the penalty branch
    assert result.best_rmse < 1000.0
    assert result.best_genome.system_loss_db > split


def test_ga_config_validation():
    with pytest.raises(ValueError, match="population_size"):
        GaConfig(population_size=1)
    with pytest.raises(ValueError, match="generations"):
        GaConfig(generations=0)
    with pytest.raises(ValueError, match="tournament_size"):
        GaConfig(tournament_size=1)
    with pytest.raises(ValueError, match="crossover_prob"):
        GaConfig(crossover_prob=1.5)
    with pytest.raises(ValueError, match="mutation_prob_per_gene"):
        GaConfig(mutation_prob_per_gene=-0.1)
    with pytest.raises(ValueError, match="mutation_sigma_fraction"):
        GaConfig(mutation_sigma_fraction=0.0)
    with pytest.raises(ValueError, match="mutation_sigma_fraction"):
        GaConfig(mutation_sigma_fraction=1.2)
    with pytest.raises(ValueError, match="elite_count"):
        GaConfig(population_size=4, elite_count=4)
    with pytest.raises(ValueError, match="master_seed"):
        GaConfig(master_seed=-1)
    with pytest.raises(ValueError, match="jobs"):
        GaConfig(jobs=0)
    with pytest.raises(ValueError, match="unknown frozen gene"):
        GaConfig(frozen_genes=(("bandwidth", 1.0),))


@pytest.mark.parametrize("field", ["population_size", "generations", "tournament_size",
                                   "elite_count", "master_seed", "jobs"])
@pytest.mark.parametrize("value", [4.5, 2.0, "4"])
def test_ga_config_refuses_non_integer_counts(field, value):
    # A float count used to pass here and fail later in evolve with a TypeError.
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        GaConfig(**{field: value})


# ---------------------------------------------------------------------------
# history serialization
# ---------------------------------------------------------------------------


def test_history_round_trip():
    enu, curve, scenario = small_dataset()
    result = evolve(GaConfig(population_size=4, generations=2, master_seed=8),
                    curve, enu, scenario)
    text = history_to_csv(result)
    assert parse_history_csv(text) == result.history
    header = text.splitlines()[0].split(",")
    assert header == ["generation", "individual", *GENE_NAMES, "rmse"]


def test_history_round_trip_empty():
    empty = CalibrationResult(best_genome=default_genome(), best_rmse=math.inf,
                              history=[], evaluations=0)
    assert parse_history_csv(history_to_csv(empty)) == []


def test_history_parse_rejects_bad_documents():
    with pytest.raises(ValueError, match="expected history header"):
        parse_history_csv("nope\n")
    good = history_to_csv(CalibrationResult(
        best_genome=default_genome(), best_rmse=0.0,
        history=[HistoryRecord(0, 0, default_genome(), 1.5)], evaluations=1))
    with pytest.raises(ValueError, match="row 2"):
        parse_history_csv(good.replace("fsm", "psm"))


def _one_row_history() -> str:
    return history_to_csv(CalibrationResult(
        best_genome=default_genome(), best_rmse=0.0,
        history=[HistoryRecord(0, 0, default_genome(), 1.5)], evaluations=1))


@pytest.mark.parametrize("edit", [lambda row: row + ",0.5", lambda row: row.rpartition(",")[0]],
                         ids=["extra_field", "missing_field"])
def test_history_parse_refuses_a_row_of_the_wrong_width(edit):
    header, row = _one_row_history().splitlines()
    with pytest.raises(ValueError, match=f"row 2: expected {len(HISTORY_HEADERS)} fields"):
        parse_history_csv(f"{header}\n{edit(row)}\n")


def test_history_parse_skips_blank_lines_and_counts_them_in_row_numbers():
    # A leading blank line was "expected history header", a whitespace-only
    # line "row N: expected 13 fields, got 1".
    header, row = _one_row_history().splitlines()
    assert parse_history_csv(f"\n{header}\n \n") == []
    assert parse_history_csv(f"\n{header}\n,, \t\n{row}\n\n") == parse_history_csv(f"{header}\n{row}\n")
    with pytest.raises(ValueError, match="row 4: unknown slow_model 'psm'"):
        parse_history_csv(f"\n{header}\n \r\n{row.replace('fsm', 'psm')}\n")


@pytest.mark.parametrize("text", ["nan", "inf"])
def test_history_parse_refuses_a_non_finite_gene(text):
    header, row = _one_row_history().splitlines()
    cells = row.split(",")
    cells[HISTORY_HEADERS.index("alpha")] = text
    with pytest.raises(ValueError, match=r"row 2: value must be finite"):
        parse_history_csv(f"{header}\n{','.join(cells)}\n")


def test_result_summary_contents():
    result = CalibrationResult(best_genome=calibrated_genome(), best_rmse=0.908,
                               history=[], evaluations=960)
    text = result_summary(result)
    assert "alpha = 1.51" in text
    assert "best_rmse = 0.908" in text
    assert "evaluations = 960" in text
    assert "slow_model = lognormal" in text
