"""Genetic-algorithm fit of the ten-gene channel configuration.

The genome covers transmit power, data rate, noise floor, receiver
sensitivity, the slow and fast model selectors, path-loss exponent, system
loss, shadowing deviation, and the Nakagami shape. Fitness is the RMSE
between an observed PDR curve and the curve simulated with the candidate
genome. Every objective evaluation reuses the scenario's fixed simulation
seed (common random numbers), so the fitness landscape is deterministic,
the planted truth of a synthetic dataset scores exactly zero, and a search
prepares the drive and its draws once (PreparedSearch).

Candidates whose deterministic gain is positive at the reference distance,
where the log-distance law peaks, would amplify the signal; they are scored
a flat 1000.0 without being simulated.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, fields, replace
from time import perf_counter

import numpy as np

from .propagation import (LOG_DECIMALS, SUPPORTED_DATA_RATES_MBPS, FadingParams, FastFadingModel,
                          RadioParams, SlowFadingModel, free_space_rx_power, to_db)
from .dataio import line_cells, numbered_lines
from .simulator import (EnuTrace, PdrCurve, ScenarioConfig, bin_indices, check_bin_width,
                        delivery_pass, pdr_rmse, prepare_drive)
# Not called here: bench/tracing.py times these under the v2xcal.calibration names.
from .propagation import deterministic_gain_db  # noqa: F401
from .simulator import pdr_curve, rmse, run_scenario  # noqa: F401

log = logging.getLogger(__name__)

INFEASIBLE_RMSE = 1000.0

#: The genes that set RadioParams fields; the other six set FadingParams fields.
_RADIO_GENES = ("tx_power_mw", "data_rate_mbps", "noise_floor_dbm", "rx_sensitivity_dbm")


@dataclass(frozen=True)
class Genome:
    """One candidate channel configuration, genes in canonical order."""

    tx_power_mw: float
    data_rate_mbps: int
    noise_floor_dbm: float
    rx_sensitivity_dbm: float
    slow_model: SlowFadingModel
    fast_model: FastFadingModel
    alpha: float
    system_loss_db: float
    sigma_db: float
    nakagami_m: float

    def to_params(self, base_radio: RadioParams = RadioParams(),
                  base_fading: FadingParams = FadingParams()):
        """Expand into (RadioParams, FadingParams); non-gene fields come from the bases."""
        genes = self.as_dict()
        radio_genes = {name: genes.pop(name) for name in _RADIO_GENES}
        return replace(base_radio, **radio_genes), replace(base_fading, **genes)

    @classmethod
    def from_params(cls, radio: RadioParams, fading: FadingParams) -> "Genome":
        return cls(**{f.name: getattr(radio if f.name in _RADIO_GENES else fading, f.name)
                      for f in fields(cls)})

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in GENE_NAMES}


GENE_NAMES = tuple(f.name for f in fields(Genome))

#: The package defaults as a genome; the type of each value is its gene's type.
_PACKAGE_GENOME = Genome.from_params(RadioParams(), FadingParams())

CONTINUOUS_GENES = tuple(n for n in GENE_NAMES if isinstance(getattr(_PACKAGE_GENOME, n), float))


def default_genome() -> Genome:
    """Built-in starting configuration: the deterministic free-space channel.

    The package defaults (RadioParams(), FadingParams()) with the Friis
    exponent, alpha 2.0: 20 dB per decade, the law free_space_rx_power
    evaluates at any distance, and the alpha of the SimplePathlossModel in
    Veins' example configuration (examples/veins/config.xml). Under the
    stock noise floor (-110 dBm) the channel delivers everything nearer than
    about 3.2 km. FadingParams() itself still defaults to alpha 1.0, so a
    run without a preset uses 10 dB per decade.
    """
    return replace(_PACKAGE_GENOME, alpha=2.0)


def calibrated_genome() -> Genome:
    """Reference fitted configuration shipped with the package."""
    return Genome(
        tx_power_mw=30.16,
        data_rate_mbps=18,
        noise_floor_dbm=-90.0,
        rx_sensitivity_dbm=-114.0,
        slow_model=SlowFadingModel.LOGNORMAL,
        fast_model=FastFadingModel.NAKAGAMI,
        alpha=1.51,
        system_loss_db=0.13,
        sigma_db=6.03,
        nakagami_m=2.0,
    )


def noise_raised_genome() -> Genome:
    """Named experiment: the default channel with the noise floor raised to
    -60 dBm, which pulls the deterministic breakpoint in to about 10 m (the
    search's top noise floor, -90 dBm, already puts it near 322 m). Outside
    the calibration search bounds by design."""
    return replace(default_genome(), noise_floor_dbm=-60.0)


PRESET_GENOMES = {
    "default": default_genome,
    "calibrated": calibrated_genome,
    "noise-raised": noise_raised_genome,
}


#: The calibration bounds, gene by gene in GENE_NAMES order (the order the
#: draws are taken in): (lo, hi) for each of CONTINUOUS_GENES, the options
#: tuple for every other gene.
SEARCH_SPACE = {
    "tx_power_mw": (20.0, 40.0),
    "data_rate_mbps": SUPPORTED_DATA_RATES_MBPS,
    "noise_floor_dbm": (-110.0, -90.0),
    "rx_sensitivity_dbm": (-120.0, -90.0),
    "slow_model": (SlowFadingModel.FREE_SPACE, SlowFadingModel.LOGNORMAL),
    "fast_model": (FastFadingModel.NONE, FastFadingModel.NAKAGAMI),
    "alpha": (1.0, 3.0),
    "system_loss_db": (0.0, 3.0),
    "sigma_db": (1.0, 10.0),
    "nakagami_m": (1.0, 3.5),
}


def _sample(rng: np.random.Generator, frozen: tuple = ()) -> Genome:
    """Uniform draw from SEARCH_SPACE, one draw per gene in GENE_NAMES order, settled."""
    return _settle({name: rng.uniform(*span) if name in CONTINUOUS_GENES
                    else span[rng.integers(len(span))] for name, span in SEARCH_SPACE.items()}, frozen)


@dataclass(frozen=True)
class GaConfig:
    """Generational GA settings."""

    population_size: int = 24
    generations: int = 200
    tournament_size: int = 3
    elite_count: int = 2
    master_seed: int = 42
    jobs: int = 1
    crossover_prob: float = 0.9
    mutation_prob_per_gene: float = 0.15
    mutation_sigma_fraction: float = 0.1
    frozen_genes: tuple = ()  # ((name, value), ...) pinned for the whole run

    def __post_init__(self):
        for name in ("population_size", "generations", "tournament_size", "elite_count",
                     "master_seed", "jobs"):
            if not isinstance(getattr(self, name), int):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.tournament_size < 2:
            raise ValueError("tournament_size must be >= 2")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError("crossover_prob must be within [0, 1]")
        if not 0.0 <= self.mutation_prob_per_gene <= 1.0:
            raise ValueError("mutation_prob_per_gene must be within [0, 1]")
        if not 0.0 < self.mutation_sigma_fraction <= 1.0:
            raise ValueError("mutation_sigma_fraction must be within (0, 1]")
        if not 0 <= self.elite_count < self.population_size:
            raise ValueError("elite_count must be within [0, population_size)")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        for name, _ in self.frozen_genes:
            if name not in GENE_NAMES:
                raise ValueError(f"unknown frozen gene {name!r}")


@dataclass(frozen=True)
class HistoryRecord:
    """One objective evaluation: which genome, when, and its score."""

    generation: int
    individual: int
    genome: Genome
    rmse: float


@dataclass
class CalibrationResult:
    best_genome: Genome
    best_rmse: float
    history: list
    evaluations: int


def _quantize(value: float) -> float:
    """Round a gene or score to the decimals the history CSV carries, so it round-trips."""
    return round(float(value), LOG_DECIMALS)


def _settle(genes: dict, frozen: tuple) -> Genome:
    """A slot's genome: the frozen genes pinned, then the continuous genes quantized."""
    return Genome(**{name: _quantize(value) if name in CONTINUOUS_GENES else value
                     for name, value in {**genes, **dict(frozen)}.items()})


class PreparedSearch:
    """An observed curve and a drive made ready for many genome scores.

    Under common random numbers only the channel depends on the genome, so
    the drive, its draws, each packet's bin (pdr_curve's bin_indices) and the
    compared bins are fixed here once; the drive is prepared for base_fading's
    reference distance, which no gene sets. A score needs one bit per packet,
    delivered or not, so under Nakagami it draws no power:
    propagation.nakagami_delivered bounds the gamma CDF at each packet's
    threshold, sums the gamma inverse's own series where the bounds leave the
    uniform open, and inverts it only where the uniform is within NAKAGAMI_BAND.
    nakagami_packets counts the packets of the Nakagami genomes scored,
    exact_packets those that were inverted.
    """

    def __init__(self, observed: PdrCurve, trace: EnuTrace, scenario: ScenarioConfig,
                 base_radio: RadioParams = RadioParams(),
                 base_fading: FadingParams = FadingParams()):
        check_bin_width(observed.bin_width_m, scenario.bin_width_m)
        self.drive = drive = prepare_drive(trace, scenario, base_fading.reference_distance_m)
        self.base_radio, self.base_fading = base_radio, base_fading
        self.bin_index = bin_indices(drive.distance_m, scenario.bin_width_m)
        sent = np.bincount(self.bin_index)
        index = np.flatnonzero(observed.sent)
        shared = np.isin(index, np.flatnonzero(sent))
        if not shared.any():
            span = (f"{drive.distance_m.min():.1f}-{drive.distance_m.max():.1f} m"
                    if drive.distance_m.size else "no packets")
            raise ValueError(f"no overlapping non-empty bins: the curve shares no non-empty "
                             f"bin with the drive ({span})")
        if not shared.all():
            log.warning("%d of %d observed non-empty bins lie outside the drive and are "
                        "not compared", np.count_nonzero(~shared), shared.size)
        self.compared_bins = index[shared]
        self.observed_pdr = observed.pdr_pct[self.compared_bins]
        self.compared_sent = sent[self.compared_bins]
        self.nakagami_packets = self.exact_packets = 0

    def score(self, genome: Genome) -> float:
        """objective(genome, ...) on the prepared inputs."""
        radio, fading = genome.to_params(self.base_radio, self.base_fading)
        # The deterministic gain at the reference distance, where the log-distance term is 0.
        if free_space_rx_power(radio, fading) - to_db(radio.tx_power_mw) > 0.0:
            return INFEASIBLE_RMSE
        delivered, exact = delivery_pass(self.drive, radio, fading)
        if fading.fast_model is FastFadingModel.NAKAGAMI:
            self.nakagami_packets += delivered.size
            self.exact_packets += exact
        counts = np.bincount(self.bin_index, delivered)[self.compared_bins]
        return pdr_rmse(self.observed_pdr, 100.0 * counts / self.compared_sent)


def objective(genome: Genome, observed: PdrCurve, trace: EnuTrace, scenario: ScenarioConfig,
              base_radio: RadioParams = RadioParams(), base_fading: FadingParams = FadingParams(),
              search: PreparedSearch | None = None) -> float:
    """Score a genome against the observed curve; lower is better.

    The RMSE of pdr_curve(run_scenario(...)) against the observed curve.
    A genome whose deterministic gain is positive at the reference distance
    scores INFEASIBLE_RMSE immediately, without simulating. The gain is
    clamped inside that distance and falls beyond it (alpha > 0), so no
    link distance sees a higher gain. search, when given, must be the
    PreparedSearch of these same inputs; one is prepared otherwise.
    """
    if search is None:
        search = PreparedSearch(observed, trace, scenario, base_radio, base_fading)
    return search.score(genome)


def _slot_rng(master_seed: int, generation: int, individual: int) -> np.random.Generator:
    # Each (generation, individual) slot owns a stream, so results do not
    # depend on evaluation order or worker count.
    return np.random.default_rng(np.random.SeedSequence((master_seed, generation, individual)))


def _by_score(scores):
    """The GA's one order on slots: lower score first, lower slot on a tie."""
    return lambda slot: (scores[slot], slot)


def _tournament(rng, scores, tournament_size: int) -> int:
    entrants = rng.integers(0, len(scores), size=tournament_size)
    return min(map(int, entrants), key=_by_score(scores))


def _make_child(rng, population, scores, config: GaConfig) -> Genome:
    """Selection, crossover, then mutation, drawing in a fixed order."""
    p1 = population[_tournament(rng, scores, config.tournament_size)]
    p2 = population[_tournament(rng, scores, config.tournament_size)]
    child = p1.as_dict()
    if rng.random() < config.crossover_prob:
        # Uniform crossover; categorical genes swap whole values.
        for flag, name in zip((rng.random(len(GENE_NAMES)) < 0.5).tolist(), GENE_NAMES):
            if flag:
                child[name] = getattr(p2, name)
    for name, span in SEARCH_SPACE.items():
        if rng.random() >= config.mutation_prob_per_gene:
            continue
        if name in CONTINUOUS_GENES:
            lo, hi = span
            step = rng.normal(0.0, config.mutation_sigma_fraction * (hi - lo))
            child[name] = min(max(child[name] + step, lo), hi)
        else:
            child[name] = span[rng.integers(len(span))]
    return _settle(child, config.frozen_genes)


def evolve(config: GaConfig, observed: PdrCurve, trace: EnuTrace, scenario: ScenarioConfig,
           base_radio: RadioParams = RadioParams(),
           base_fading: FadingParams = FadingParams()) -> CalibrationResult:
    """Run the generational GA and return the best genome found.

    Exactly population_size * generations objective evaluations are logged
    (elites are re-scored; under common random numbers the score repeats,
    so a genome is simulated once and its score reused). Individual i of
    generation g is produced from the random stream seeded by
    (master_seed, g, i): generation 0 by uniform sampling, later ones by
    tournament selection, uniform crossover, and clamped Gaussian mutation.
    Frozen genes are overridden after every variation step, which leaves
    the other genes' draws untouched. Tournaments and elites rank slots by
    lower score, then lower slot; the best genome is the first history row
    at the lowest score. The search runs in this process; config.jobs is
    validated but changes nothing.
    """
    search = PreparedSearch(observed, trace, scenario, base_radio, base_fading)

    population = [_sample(_slot_rng(config.master_seed, 0, i), config.frozen_genes)
                  for i in range(config.population_size)]

    history = []
    score_by_genome = {}
    for gen in range(config.generations):
        start, scored, packets, exact = (perf_counter(), len(score_by_genome),
                                         search.nakagami_packets, search.exact_packets)
        for genome in population:
            if genome not in score_by_genome:
                score_by_genome[genome] = _quantize(objective(
                    genome, observed, trace, scenario, base_radio, base_fading, search=search))
        scores = [score_by_genome[g] for g in population]
        for i, (genome, score) in enumerate(zip(population, scores)):
            history.append(HistoryRecord(generation=gen, individual=i, genome=genome, rmse=score))
        ordered, half = sorted(scores), len(scores) // 2  # np.median would load numpy.ma
        log.info("generation %d: best rmse %.6f, median %.6f, infeasible %d, %.0f evaluations/s, "
                 "score memo hits %d/%d, exact decisions %d/%d packets", gen, ordered[0],
                 (ordered[half] + ordered[-1 - half]) / 2, scores.count(INFEASIBLE_RMSE),
                 len(scores) / (perf_counter() - start),
                 len(scores) - (len(score_by_genome) - scored), len(scores),
                 search.exact_packets - exact, search.nakagami_packets - packets)
        if gen == config.generations - 1:
            break
        ranked = sorted(range(len(population)), key=_by_score(scores))
        elites = [population[i] for i in ranked[: config.elite_count]]
        children = [_make_child(_slot_rng(config.master_seed, gen + 1, slot),
                                population, scores, config)
                    for slot in range(config.elite_count, config.population_size)]
        population = elites + children

    # min keeps the first of equal rows: the earliest generation, then the lowest slot.
    best = min(history, key=lambda record: record.rmse)
    return CalibrationResult(best_genome=best.genome, best_rmse=best.rmse, history=history,
                             evaluations=len(history))


# ---------------------------------------------------------------------------
# text forms and the history CSV
# ---------------------------------------------------------------------------

HISTORY_HEADERS = ("generation", "individual", *GENE_NAMES, "rmse")

_FLOAT_TEXT = "%.9f".__mod__


def parse_typed_value(name: str, text: str, like):
    """Read text as a value of like's type; name labels the errors.

    An enum member is read by its value, an int in base 10, and anything
    else as a finite float.
    """
    if isinstance(like, enum.Enum):
        by_value = {member.value: member for member in type(like)}
        if text not in by_value:
            options = ", ".join(sorted(by_value))
            raise ValueError(f"unknown {name} {text!r} (expected one of: {options})")
        return by_value[text]
    if isinstance(like, int):
        return int(text, 10)
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"value must be finite, got {text!r}")
    return value


def typed_formatter(like, float_text=repr):
    """The text form of values of like's type, which parse_typed_value reads back."""
    if isinstance(like, enum.Enum):
        return lambda value: value.value
    if isinstance(like, int):
        return str
    return lambda value: float_text(float(value))


def _known_gene(name: str) -> str:
    if name not in GENE_NAMES:
        raise ValueError(f"unknown gene {name!r} (expected one of: {', '.join(GENE_NAMES)})")
    return name


def parse_gene_value(name: str, text: str):
    """Convert the text form of one gene to its typed value."""
    return parse_typed_value(name, text, getattr(_PACKAGE_GENOME, _known_gene(name)))


def format_gene_value(name: str, value) -> str:
    """Text form of one gene: model values, the integer data rate, repr of the rest."""
    return typed_formatter(getattr(_PACKAGE_GENOME, name))(value)


def parse_frozen_genes(entries, base: Genome | None = None) -> tuple:
    """Read gene=value entries into ((name, value), ...).

    With a base genome a bare gene name pins the gene to its base value;
    without one every entry must be gene=value.
    """
    frozen = []
    for entry in entries:
        name, sep, text = (part.strip() for part in entry.partition("="))
        if not sep and base is None:
            raise ValueError(f"freeze entry {entry.strip()!r} must be gene=value")
        frozen.append((name, parse_gene_value(name, text) if sep
                       else getattr(base, _known_gene(name))))
    return tuple(frozen)


def history_to_csv(result: CalibrationResult) -> str:
    """One row per objective evaluation, fixed decimal formatting; no cell needs quoting."""
    genes = [(name, typed_formatter(getattr(_PACKAGE_GENOME, name), _FLOAT_TEXT))
             for name in GENE_NAMES]
    rows = [",".join([str(rec.generation), str(rec.individual),
                      *(text(getattr(rec.genome, name)) for name, text in genes),
                      _FLOAT_TEXT(rec.rmse)]) for rec in result.history]
    return "\n".join([",".join(HISTORY_HEADERS), *rows, ""])


def parse_history_csv(text: str) -> list:
    """Read history_to_csv text back into HistoryRecords.

    Like the dataio readers, it skips blank lines anywhere and numbers rows
    by line, blank ones counted.
    """
    lines = numbered_lines(text)
    try:
        header = tuple(line_cells(lines[0][1]))
    except (IndexError, ValueError):
        header = ()
    if header != HISTORY_HEADERS:
        raise ValueError(f"expected history header {','.join(HISTORY_HEADERS)}")
    history = []
    for row_num, line in lines[1:]:
        try:
            row = line_cells(line)
            if len(row) != len(HISTORY_HEADERS):
                raise ValueError(f"expected {len(HISTORY_HEADERS)} fields, got {len(row)}")
            genes = {name: parse_gene_value(name, text) for name, text in zip(GENE_NAMES, row[2:])}
            history.append(HistoryRecord(int(row[0]), int(row[1]), Genome(**genes),
                                         parse_typed_value("rmse", row[-1], 0.0)))
        except ValueError as exc:
            raise ValueError(f"row {row_num}: {exc}") from None
    return history


def gene_lines(genome: Genome) -> list:
    """One "gene = value" line per gene, in GENE_NAMES order; parse_gene_value reads a value back."""
    return [f"{name} = {format_gene_value(name, value)}" for name, value in genome.as_dict().items()]


def result_summary(result: CalibrationResult) -> str:
    """Key-value text form of a calibration outcome."""
    lines = gene_lines(result.best_genome)
    lines += [f"best_rmse = {result.best_rmse!r}", f"evaluations = {result.evaluations}"]
    return "\n".join(lines) + "\n"
