"""Acceptance gate: nine release criteria with one verdict line each.

Every test prints "ACCEPTANCE #n: PASS/FAIL - detail". Criteria 5 and 6 are
each checked twice: once exactly as stated, once in a companion form. The
as-stated form of #5 FAILS for a structural reason that its docstring and
failure message spell out (the search objective does not identify alpha);
its companion demonstrates that the underlying capability works. That
failure is intentional, documented behavior, not a regression: do not "fix"
it by loosening tolerances. Every other test here, #6 as stated included,
is expected to pass.
"""

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from v2xcal.calibration import (
    CONTINUOUS_GENES,
    SEARCH_SPACE,
    Genome,
    PreparedSearch,
    _tournament,
    calibrated_genome,
    default_genome,
    noise_raised_genome,
    objective,
    parse_history_csv,
    history_to_csv,
)
from v2xcal.cli import main
from v2xcal.config import parse_config, render_config
from v2xcal.dataio import (
    GeodeticPosition,
    export_heatmap_csv,
    export_log_csv,
    export_pdr_csv,
    export_trace_csv,
    parse_heatmap_csv,
    parse_log_csv,
    parse_pdr_csv,
    parse_trace_csv,
    project_enu,
)
from v2xcal.propagation import (
    FadingParams,
    FastFadingModel,
    RadioParams,
    SlowFadingModel,
    free_space_rx_power,
    log_decades,
    log_distance_rx_power,
    nakagami_power_sample,
    slow_rx_power,
)
from v2xcal.simulator import EnuTrace, ScenarioConfig, pdr_curve, run_scenario

import oracles


#: The shared ground-truth dataset: a 4 km drive past the antenna at
#: 13.4 m/s with the calibrated channel planted, 10 Hz sampling, seed 1729.
ROUTE_SPEC = (
    "synth.waypoints_enu_m = -2000.0,8.0,0.0; 2000.0,8.0,0.0\n"
    "synth.duration_s = 300.0\n"
)


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def parse_summary(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(" = ")
        out[key.strip()] = value.strip()
    return out


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Synthetic oracle dataset built through the CLI, plus parsed forms."""
    root = tmp_path_factory.mktemp("acceptance")
    spec = root / "route.txt"
    spec.write_text(ROUTE_SPEC, encoding="utf-8")
    out = root / "synth"
    assert main(["synth", str(spec), "--preset", "calibrated", "--out", str(out)]) == 0
    trace_text = read(out / "trace.csv")
    observed_text = read(out / "observed_pdr.csv")
    trace = parse_trace_csv(trace_text)
    enu = project_enu(trace, GeodeticPosition(latitude_deg=45.0, longitude_deg=-93.0))
    return {
        "root": root,
        "spec": str(spec),
        "out": out,
        "trace_path": str(out / "trace.csv"),
        "observed_path": str(out / "observed_pdr.csv"),
        "trace_text": trace_text,
        "observed_text": observed_text,
        "enu": enu,
        "observed": parse_pdr_csv(observed_text),
        "scenario": ScenarioConfig(),
    }


@pytest.fixture(scope="module")
def sim_run(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("acc-sim")
    assert main(["simulate", dataset["trace_path"], "--preset", "calibrated",
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def small_calibrate_run(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("acc-cal")
    assert main(["calibrate", dataset["observed_path"], dataset["trace_path"],
                 "--population", "6", "--generations", "3", "--seed", "11",
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def recovery_as_stated(dataset, tmp_path_factory):
    """The stated recovery experiment: population 24, 40 generations, seed 42."""
    out = tmp_path_factory.mktemp("acc-recovery")
    assert main(["calibrate", dataset["observed_path"], dataset["trace_path"],
                 "--population", "24", "--generations", "40", "--seed", "42",
                 "--out", str(out)]) == 0
    return parse_summary(read(out / "calibration_result.txt"))


@pytest.fixture(scope="module")
def recovery_frozen_run(dataset, tmp_path_factory):
    """Same budget and seed, with the two equipment-known genes pinned: the
    README's quick-start search. Returns its output directory."""
    out = tmp_path_factory.mktemp("acc-recovery-frozen")
    assert main(["calibrate", dataset["observed_path"], dataset["trace_path"],
                 "--population", "24", "--generations", "40", "--seed", "42",
                 "--freeze", "noise_floor_dbm=-90.0", "--freeze", "data_rate_mbps=18",
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def recovery_frozen(recovery_frozen_run):
    return parse_summary(read(recovery_frozen_run / "calibration_result.txt"))


# ---------------------------------------------------------------------------
# 1. free-space reference power
# ---------------------------------------------------------------------------


def test_criterion_1_free_space_reference():
    """20 mW, unit gains, 5.9 GHz, 1 m, no loss: -34.85 dBm within 0.05."""
    got = free_space_rx_power(RadioParams(), FadingParams())
    # Independent one-line check of the same link budget.
    oracle = 10.0 * math.log10(20.0) + 20.0 * math.log10(
        (299_792_458.0 / 5.9e9) / (4.0 * math.pi * 1.0)
    )
    ok = abs(got - (-34.85)) <= 0.05 and abs(got - oracle) < 1e-9
    print(f"ACCEPTANCE #1: {'PASS' if ok else 'FAIL'} - "
          f"free-space reference {got:.5f} dBm (one-line oracle {oracle:.5f})")
    assert ok


# ---------------------------------------------------------------------------
# 2. Nakagami sampling moments
# ---------------------------------------------------------------------------


def test_criterion_2_nakagami_moments():
    """m=2, omega=4 mW: mean 4.0 within 1%, variance 8.0 within 3%; m=1 is
    exponential (KS statistic under 0.002 at one million samples)."""
    draws = nakagami_power_sample(4.0, 2.0, np.random.default_rng(2), size=1_000_000)
    mean, var = float(draws.mean()), float(draws.var())
    rayleigh = nakagami_power_sample(1.0, 1.0, np.random.default_rng(3), size=1_000_000)
    ks = stats.kstest(rayleigh, "expon").statistic
    ok = abs(mean - 4.0) <= 0.04 and abs(var - 8.0) <= 0.24 and ks < 0.002
    print(f"ACCEPTANCE #2: {'PASS' if ok else 'FAIL'} - "
          f"mean {mean:.4f} (target 4.0 +-1%), variance {var:.4f} (target 8.0 +-3%), "
          f"m=1 KS vs exponential {ks:.5f} (< 0.002)")
    assert ok


# ---------------------------------------------------------------------------
# 3. lognormal shadowing residuals
# ---------------------------------------------------------------------------


def test_criterion_3_lognormal_residuals():
    """sigma=6.03 dB: residual std within 2%, |mean| under 0.02 dB at 1e6."""
    radio, fading = RadioParams(), FadingParams(
        slow_model=SlowFadingModel.LOGNORMAL, sigma_db=6.03, alpha=1.51
    )
    draws = slow_rx_power(radio, fading, log_decades(250.0, fading.reference_distance_m),
                          np.random.default_rng(5).standard_normal(1_000_000))
    residuals = draws - log_distance_rx_power(radio, fading, 250.0)
    mean, std = float(residuals.mean()), float(residuals.std())
    ok = abs(mean) < 0.02 and abs(std - 6.03) <= 6.03 * 0.02
    print(f"ACCEPTANCE #3: {'PASS' if ok else 'FAIL'} - "
          f"residual mean {mean:+.4f} dB (|.| < 0.02), std {std:.4f} dB (6.03 +-2%)")
    assert ok


# ---------------------------------------------------------------------------
# 4. infeasibility penalty semantics
# ---------------------------------------------------------------------------


def test_criterion_4_penalty_semantics(dataset):
    """A genome whose gain sweep goes positive anywhere scores exactly 1000.0
    and tournament selection never picks it over a feasible competitor."""
    enu, observed, scenario = dataset["enu"], dataset["observed"], dataset["scenario"]
    boosted = RadioParams(antenna_gain_tx=1e6, antenna_gain_rx=1e6)
    flat = [
        objective(genome, observed, enu, scenario, base_radio=boosted)
        for genome in (default_genome(), calibrated_genome(),
                       replace(calibrated_genome(), alpha=3.0))
    ]
    exact = all(score == 1000.0 for score in flat)

    # Selection property: replay the entrant draw, then confirm the winner
    # carries the minimum entrant score; a penalized genome can win only a
    # tournament with no feasible entrant at all.
    scores = [1000.0, 3.2, 1000.0, 0.7, 55.0, 1000.0, 1000.0, 12.0]
    fair = True
    for seed in range(500):
        entrants = [int(i) for i in np.random.default_rng(seed).integers(0, len(scores), size=3)]
        winner = _tournament(np.random.default_rng(seed), scores, 3)
        fair &= scores[winner] == min(scores[i] for i in entrants)

    ok = exact and fair
    print(f"ACCEPTANCE #4: {'PASS' if ok else 'FAIL'} - "
          f"positive-gain genomes scored {sorted(set(flat))} (exactly 1000.0); "
          f"500 replayed tournaments all picked the best entrant: {fair}")
    assert ok


# ---------------------------------------------------------------------------
# 5. planted-parameter recovery
# ---------------------------------------------------------------------------


def test_criterion_5_parameter_recovery_as_stated(recovery_as_stated):
    """As stated, this criterion FAILS, and the failure is structural.

    Requirements on the 960-evaluation search (population 24, 40
    generations, seed 42): best_rmse <= 1.0, alpha within 0.25 of 1.51,
    sigma within 1.5 of 6.03. The rmse and sigma clauses hold; the alpha
    clause cannot be satisfied reliably by any free search over this
    objective, because the observed curve does not identify alpha:

    Per distance, the curve measures one number, the probability that
    received power clears the effective decode threshold
    T = max(sensitivity, noise + SNR(rate)). That probability depends on
    the genes only through (M - 10 alpha log10 d) / s, where M collects
    transmit power, reference gain, system loss, and T, and s is the total
    fading spread. Whole gene families therefore produce near-identical
    curves: the winning genome here tracks the planted one within 0.3
    percentage points of expected PDR at every distance, an order of
    magnitude below the per-bin sampling noise, while sitting 0.34 away in
    alpha. The fit error surface is a ridge, and a 960-evaluation run ends
    wherever it first enters the ridge: seeds 7, 42, 43, 2024 end at alpha
    2.21, 1.85, 2.21, 1.77 with rmse 2.17, 0.65, 0.78, 2.19. Passing this
    check as stated would test seed luck, not correctness. The companion
    test below shows the same budget does recover alpha once the two
    equipment-known genes are pinned.
    """
    rmse_ok = float(recovery_as_stated["best_rmse"]) <= 1.0
    alpha = float(recovery_as_stated["alpha"])
    sigma = float(recovery_as_stated["sigma_db"])
    alpha_ok = abs(alpha - 1.51) <= 0.25
    sigma_ok = abs(sigma - 6.03) <= 1.5
    verdict = "PASS" if (rmse_ok and alpha_ok and sigma_ok) else "FAIL"
    detail = (
        f"rmse {float(recovery_as_stated['best_rmse']):.3f} (<= 1.0: {rmse_ok}), "
        f"alpha {alpha:.3f} vs 1.51 +-0.25 ({alpha_ok}), "
        f"sigma {sigma:.3f} vs 6.03 +-1.5 ({sigma_ok})"
    )
    print(f"ACCEPTANCE #5 (as stated): {verdict} - {detail}")
    if verdict == "FAIL":
        pytest.fail(
            f"ACCEPTANCE #5 (as stated): FAIL - {detail}. Expected and documented: "
            "alpha is not identifiable from the PDR curve under a free 10-gene "
            "search (see docstring); the freeze companion passes all clauses."
        )


def test_criterion_5_recovery_with_equipment_genes_frozen(recovery_frozen):
    """Companion: pin what an experimenter actually knows, then recover.

    The noise floor and data rate are radio settings, readable from the
    deployed equipment rather than fit targets; the search tool exposes a
    per-gene freeze for exactly this situation. Pinning them at their true
    values (-90 dBm, 18 Mbps) fixes the decode threshold at -75 dBm for
    every sensitivity in range, which collapses the margin-versus-slope
    ridge. The same budget and seed then land all three stated clauses
    with room to spare.
    """
    rmse = float(recovery_frozen["best_rmse"])
    alpha = float(recovery_frozen["alpha"])
    sigma = float(recovery_frozen["sigma_db"])
    ok = rmse <= 1.0 and abs(alpha - 1.51) <= 0.25 and abs(sigma - 6.03) <= 1.5
    print(f"ACCEPTANCE #5 (frozen noise+rate): {'PASS' if ok else 'FAIL'} - "
          f"rmse {rmse:.3f} <= 1.0, alpha {alpha:.3f} within 0.25 of 1.51, "
          f"sigma {sigma:.3f} within 1.5 of 6.03")
    assert ok


# ---------------------------------------------------------------------------
# 6. improvement ordering
# ---------------------------------------------------------------------------


def test_criterion_6_improvement_ordering_as_stated(dataset):
    """Default, then the noise floor raised to -90 dBm, then calibrated.

    Required strict ordering on the oracle dataset:
    objective(default) > objective(default with noise at -90 dBm)
    > objective(calibrated). The default channel is deterministic free
    space (no shadowing, no fast stage, the Friis exponent alpha 2, rate
    6), so it delivers everything nearer than the distance where mean
    power crosses the decode threshold. With the stock -110 dBm noise
    floor that breakpoint sits near 3,216 m, beyond the 2 km drive;
    raising the floor to -90 dBm pulls it in to about 322 m, inside the
    drive, which moves the curve towards the observed one.
    """
    enu, observed, scenario = dataset["enu"], dataset["observed"], dataset["scenario"]
    worst = objective(default_genome(), observed, enu, scenario)
    middle = objective(replace(default_genome(), noise_floor_dbm=-90.0),
                       observed, enu, scenario)
    best = objective(calibrated_genome(), observed, enu, scenario)
    ok = worst > middle > best
    detail = (f"objective(default) {worst:.6f}, objective(noise to -90) {middle:.6f}, "
              f"objective(calibrated) {best:.6f}")
    print(f"ACCEPTANCE #6 (as stated): {'PASS' if ok else 'FAIL'} - {detail}")
    if not ok:
        pytest.fail(f"ACCEPTANCE #6 (as stated): FAIL - {detail}")


def test_criterion_6_improvement_ordering_with_noise_raised_preset(dataset):
    """Companion: the shipped noise-raised preset as the middle step.

    The preset lifts the floor to -60 dBm, putting the deterministic
    breakpoint near 10 m, inside the 2 km route; the strictly-improving
    sequence ends at an exact zero for the planted truth under common
    random numbers.
    """
    enu, observed, scenario = dataset["enu"], dataset["observed"], dataset["scenario"]
    worst = objective(default_genome(), observed, enu, scenario)
    middle = objective(noise_raised_genome(), observed, enu, scenario)
    best = objective(calibrated_genome(), observed, enu, scenario)
    ok = worst > middle > best and best == 0.0
    print(f"ACCEPTANCE #6 (noise-raised preset): {'PASS' if ok else 'FAIL'} - "
          f"{worst:.3f} > {middle:.3f} > {best:.3f} (exact zero at the truth)")
    assert ok


# ---------------------------------------------------------------------------
# 7. agreement with the expected-PDR oracle
# ---------------------------------------------------------------------------


def test_criterion_7_oracle_agreement():
    """Simulated per-bin PDR within 3 points of numeric expectation for
    every bin with at least 200 sends."""
    radio, fading = calibrated_genome().to_params()
    trace = EnuTrace(times_s=[0.0, 600.0], x_m=[-300.0, 300.0],
                     y_m=[8.0, 8.0], z_m=[0.0, 0.0])
    scenario = ScenarioConfig(bsm_rate_hz=40.0, spat_rate_hz=40.0, master_seed=4242)
    log = run_scenario(trace, scenario, radio, fading)
    curve = pdr_curve(log, scenario.bin_width_m)

    distances = log.distance_m
    probs = oracles.expected_pdr_pct(radio, fading, distances)
    index = np.floor(distances / scenario.bin_width_m).astype(int)

    checked, worst = 0, 0.0
    for i, (sent, pdr) in enumerate(zip(curve.sent.tolist(), curve.pdr_pct.tolist())):
        if sent < 200:
            continue
        expected = float(probs[index == i].mean())
        worst = max(worst, abs(pdr - expected))
        checked += 1
    ok = checked >= 10 and worst <= 3.0
    print(f"ACCEPTANCE #7: {'PASS' if ok else 'FAIL'} - {checked} bins with >=200 "
          f"sends (about {len(log) // max(len(curve), 1)} each), "
          f"worst |simulated - expected| {worst:.3f} points (<= 3.0)")
    assert ok


# ---------------------------------------------------------------------------
# 8. byte determinism of the commands
# ---------------------------------------------------------------------------


def test_criterion_8_byte_determinism(dataset, sim_run, small_calibrate_run, tmp_path):
    """synth, simulate, and calibrate write identical bytes across reruns,
    and calibrate across worker counts (the other commands take no worker
    flag; they are single-threaded by construction)."""
    synth_again = tmp_path / "synth"
    assert main(["synth", dataset["spec"], "--preset", "calibrated",
                 "--out", str(synth_again)]) == 0
    synth_ok = all(
        read(str(synth_again / name)) == read(str(dataset["out"] / name))
        for name in ("trace.csv", "observed_pdr.csv", "planted_params.txt",
                     "resolved_config.txt")
    )

    sim_again = tmp_path / "sim"
    assert main(["simulate", dataset["trace_path"], "--preset", "calibrated",
                 "--out", str(sim_again)]) == 0
    sim_ok = all(
        read(str(sim_again / name)) == read(str(sim_run / name))
        for name in ("log.csv", "pdr.csv", "heatmap.csv", "resolved_config.txt")
    )

    cal_again = tmp_path / "cal"
    cal_jobs8 = tmp_path / "cal8"
    base = ["calibrate", dataset["observed_path"], dataset["trace_path"],
            "--population", "6", "--generations", "3", "--seed", "11"]
    assert main(base + ["--out", str(cal_again)]) == 0
    assert main(base + ["--jobs", "8", "--out", str(cal_jobs8)]) == 0
    cal_ok = (
        read(str(cal_again / "history.csv")) == read(str(small_calibrate_run / "history.csv"))
        and read(str(cal_again / "calibration_result.txt"))
        == read(str(small_calibrate_run / "calibration_result.txt"))
    )
    # The jobs flag is echoed into the resolved configuration, so compare
    # the search outputs, which must not depend on it.
    jobs_ok = (
        read(str(cal_jobs8 / "history.csv")) == read(str(cal_again / "history.csv"))
        and read(str(cal_jobs8 / "calibration_result.txt"))
        == read(str(cal_again / "calibration_result.txt"))
    )

    ok = synth_ok and sim_ok and cal_ok and jobs_ok
    print(f"ACCEPTANCE #8: {'PASS' if ok else 'FAIL'} - rerun bytes identical: "
          f"synth {synth_ok}, simulate {sim_ok}, calibrate {cal_ok}; "
          f"calibrate --jobs 1 vs --jobs 8 identical: {jobs_ok}")
    assert ok


def test_criterion_8_golden_bytes(dataset, sim_run):
    """synth and simulate write the bytes the benchmark recorded for this
    drive (bench/golden.json, synth seed 1729), so a change that shifts
    output bytes identically on every rerun still fails."""
    golden_path = Path(__file__).resolve().parents[1] / "bench" / "golden.json"
    golden = json.loads(read(golden_path))["full"]["1729/42"]
    outputs = {"synth": dataset["out"], "simulate": sim_run}
    mismatched = [
        f"{kind}/{name}"
        for kind, out in outputs.items()
        for name, digest in sorted(golden[kind].items())
        if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest
    ]
    checked = sum(len(golden[kind]) for kind in outputs)
    ok = checked == 8 and not mismatched
    print(f"ACCEPTANCE #8: {'PASS' if ok else 'FAIL'} - {checked} synth/simulate outputs "
          f"hashed against bench/golden.json; mismatched: {', '.join(mismatched) or 'none'}")
    assert ok


def test_criterion_8_golden_calibrate_bytes(dataset, tmp_path):
    """The benchmark's search on this drive (population 24, 2 generations,
    seed 42, noise floor and data rate frozen) writes the bytes recorded in
    bench/golden.json at --jobs 1 and --jobs 2."""
    golden_path = Path(__file__).resolve().parents[1] / "bench" / "golden.json"
    golden = json.loads(read(golden_path))["full"]["1729/42"]
    mismatched, checked = [], 0
    for jobs in (1, 2):
        out = tmp_path / f"calibrate_jobs{jobs}"
        assert main(["calibrate", dataset["observed_path"], dataset["trace_path"],
                     "--population", "24", "--generations", "2", "--seed", "42",
                     "--freeze", "noise_floor_dbm=-90.0", "--freeze", "data_rate_mbps=18",
                     "--jobs", str(jobs), "--out", str(out)]) == 0
        for name, digest in sorted(golden[out.name].items()):
            checked += 1
            if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest:
                mismatched.append(f"{out.name}/{name}")
    ok = checked == 6 and not mismatched
    print(f"ACCEPTANCE #8: {'PASS' if ok else 'FAIL'} - {checked} calibrate outputs hashed "
          f"against bench/golden.json; mismatched: {', '.join(mismatched) or 'none'}")
    assert ok


#: sha256 of the README quick-start search's outputs on this drive.
QUICK_START_DIGESTS = {
    "history.csv": "b52ceae9b62211d988e3cee2be8922db60ac5ce7b97865f3f8932d231fd4eb01",
    "calibration_result.txt": "c2d6f1d53ca8f08a697cfddfa19ce90dc65602edbddcc5c5d2701b020bf1cc40",
}


def test_criterion_8_quick_start_search_bytes(recovery_frozen_run):
    """The README's 960-evaluation search (population 24, 40 generations,
    seed 42, noise floor and data rate frozen) writes the recorded bytes.
    Forty generations of elites, mutation and score-memo hits reach what the
    benchmark's 2-generation goldens do not."""
    mismatched = [name for name, digest in QUICK_START_DIGESTS.items()
                  if hashlib.sha256((recovery_frozen_run / name).read_bytes()).hexdigest() != digest]
    ok = not mismatched
    print(f"ACCEPTANCE #8: {'PASS' if ok else 'FAIL'} - {len(QUICK_START_DIGESTS)} quick-start "
          f"search outputs hashed; mismatched: {', '.join(mismatched) or 'none'}")
    assert ok


def pinned_genomes(count=200, seed=23):
    """Seeded genomes from SEARCH_SPACE, with nakagami_m log-uniform in [0.5, 1e4]
    and the four pairs of slow and fast models taken in turn."""
    rng = np.random.default_rng(seed)
    genomes = []
    for i in range(count):
        genes = {name: rng.uniform(*span) if name in CONTINUOUS_GENES else span[rng.integers(len(span))]
                 for name, span in SEARCH_SPACE.items()}
        genes["slow_model"] = tuple(SlowFadingModel)[i % 2]
        genes["fast_model"] = tuple(FastFadingModel)[i // 2 % 2]
        genes["nakagami_m"] = math.exp(rng.uniform(math.log(0.5), math.log(1e4)))
        genomes.append(Genome(**genes))
    return genomes


def test_criterion_8_quick_start_scores(dataset):
    """Each pinned genome scores on this drive exactly as recorded
    (tests/quick_start_scores.json, score.hex()), so a change to the delivery
    decisions that moves any score fails even where the search bytes hold."""
    search = PreparedSearch(dataset["observed"], dataset["enu"], dataset["scenario"])
    recorded = json.loads(read(Path(__file__).resolve().parent / "quick_start_scores.json"))
    scores = [search.score(genome).hex() for genome in pinned_genomes()]
    moved = [i for i, (got, want) in enumerate(zip(scores, recorded)) if got != want]
    ok = len(recorded) == len(scores) == 200 and not moved
    print(f"ACCEPTANCE #8: {'PASS' if ok else 'FAIL'} - {len(scores)} pinned genome scores "
          f"compared; moved: {moved or 'none'}")
    assert ok


# ---------------------------------------------------------------------------
# 9. lossless export/parse pairs
# ---------------------------------------------------------------------------


def test_criterion_9_round_trips(dataset, sim_run, small_calibrate_run):
    """Every CSV export reparses to the same bytes, and the configuration
    echo is a fixed point of parse/render."""
    trace_text = dataset["trace_text"]
    log_text = read(str(sim_run / "log.csv"))
    pdr_text = dataset["observed_text"]
    heatmap_text = read(str(sim_run / "heatmap.csv"))
    history_text = read(str(small_calibrate_run / "history.csv"))
    config_text = read(str(sim_run / "resolved_config.txt"))

    pairs = {
        "trace": export_trace_csv(parse_trace_csv(trace_text)) == trace_text,
        "log": export_log_csv(parse_log_csv(log_text)) == log_text,
        "pdr": export_pdr_csv(parse_pdr_csv(pdr_text)) == pdr_text,
        "heatmap": export_heatmap_csv(parse_heatmap_csv(heatmap_text)) == heatmap_text,
        "config": render_config(parse_config(config_text)) == config_text,
    }
    # History rows rebuild the same records, then the same bytes.
    history = parse_history_csv(history_text)
    pairs["history"] = history_to_csv(SimpleNamespace(history=history)) == history_text

    ok = all(pairs.values())
    print(f"ACCEPTANCE #9: {'PASS' if ok else 'FAIL'} - lossless pairs: "
          + ", ".join(f"{name} {good}" for name, good in sorted(pairs.items())))
    assert ok
