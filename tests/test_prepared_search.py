"""The prepared scorer against the log path, its memos, and search progress."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from v2xcal.propagation import FastFadingModel, RadioParams, deterministic_gain_db
from v2xcal.simulator import BinWidthError, ScenarioConfig, pdr_curve, rmse, run_scenario

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


def test_m_memo_holds_two_generations_at_most(monkeypatch):
    sizes = []
    unit_gamma = PreparedSearch._unit_gamma

    def spy(self, m):
        draws = unit_gamma(self, m)
        sizes.append(len(self.gamma_by_m))
        return draws

    monkeypatch.setattr(PreparedSearch, "_unit_gamma", spy)
    config = GaConfig(population_size=6, generations=10, master_seed=3,
                      frozen_genes=(("fast_model", FastFadingModel.NAKAGAMI),))
    result = evolve(config, OBSERVED, ENU, SCENARIO)
    assert sizes
    assert len({r.genome.nakagami_m for r in result.history}) > 2 * config.population_size
    assert max(sizes) <= 2 * config.population_size


def test_one_progress_line_per_generation(caplog):
    caplog.set_level(logging.INFO, logger="v2xcal.calibration")
    config = GaConfig(population_size=5, generations=4, master_seed=8)
    evolve(config, OBSERVED, ENU, SCENARIO)
    lines = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert len(lines) == config.generations
    for gen, line in enumerate(lines):
        assert line.startswith(f"generation {gen}: best rmse ")
        for part in ("median", "infeasible", "evaluations/s", "score memo hits",
                     "m memo hits"):
            assert part in line
