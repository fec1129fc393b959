"""Generational evolution loop and experiment harness.

Each generation every individual produces one mutated child, children
are evaluated, parents and children are ranked together, the survivor
strategy picks k of the parents and children, and clones refill the
population.  The run stops at the generation cap or once the best
fitness has improved by less than epsilon over a trailing window.

A RunState is the whole of a run, and what a checkpoint holds:
initial_state builds generation 0, step_generation(state, evaluator)
advances it by one generation in place, and run returns the final one.
What scored a run is its evaluator's record, which fitness.py defines
and checks; config.json, each checkpoint and a comparison's config.json
store it as the config's "evaluator" entry.  run refuses an evaluator
whose split cannot feed the config's genomes before it writes anything.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from evoarch.fitness import (SurrogateEvaluator, evaluate_batch, record_differences, record_fault, record_of,
                             split_misfit)
from evoarch.genome import (
    SEED_KINDS,
    Individual,
    InvalidGenome,
    ParseError,
    _is_count,
    _is_int,
    _is_shape,
    genome_doc,
    genome_from_doc,
    hamming_distance,
    new_seed_genome,
    parameter_count,
    serialize,
    validate,
)
from evoarch.mutation import ExhaustedRetries, MutationWeights, mutate_until_valid
from evoarch.selection import (
    aggressive_select,
    clone_refill,
    rank,
    sample_by_fitness_select,
    sample_uniform_select,
    tournament_select,
)

STRATEGIES = ("aggressive", "tournament", "sample_uniform", "sample_by_fitness")

STATS_COLUMNS = ("generation", "best_fitness", "mean_fitness", "best_params")

LOG_NAMES = ("mutation", "selection", "fitness")

# a comparison's target: this share of the best final fitness it saw
TAU_FRACTION = 0.9

# generations 1 to EARLY_STAGE_GENERATIONS mutate under the early weights, and a
# run stops once the best fitness gains less than SATURATION_EPS over the window
EARLY_STAGE_GENERATIONS = 10
SATURATION_EPS = 1e-3

CHECKPOINT_VERSION = 3
CHECKPOINT_EVERY = 5  # a run with an out_dir writes checkpoint_gen{5,10,...}.json


class ConfigError(Exception):
    """Invalid evolution settings."""


class CheckpointError(Exception):
    """Unreadable or incompatible checkpoint file."""


@dataclass(frozen=True)
class EvolutionConfig:
    """The settings of one run; building one, or a replace of one, raises ConfigError on a bad value."""

    population_size: int = 10
    k: int = 1
    distance_threshold: int = 1
    strategy: str = "aggressive"
    max_generations: int = 100
    saturation_window: int | None = 10
    seed: int = 0
    input_shape: tuple = (3, 32, 32)
    num_classes: int = 10
    workers: int = 1

    def __post_init__(self):
        if not _is_shape(self.input_shape):
            raise ConfigError(f"input shape must be three positive integers, got {self.input_shape!r}")
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        window = () if self.saturation_window is None else ("saturation_window",)
        for name in ("population_size", "k", "distance_threshold", "max_generations", "seed", "num_classes",
                     "workers", *window):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.population_size < 2:
            raise ConfigError("population size must be at least 2")
        if self.k < 1:
            raise ConfigError("k must be at least 1")
        if self.k > self.population_size:
            raise ConfigError("k must not exceed population size")
        if self.distance_threshold < 0:
            raise ConfigError("distance threshold must be non-negative")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}, pick from {STRATEGIES}")
        if self.max_generations < 1:
            raise ConfigError("need at least one generation")
        if self.saturation_window is not None and self.saturation_window < 1:
            raise ConfigError("saturation window must be positive or None")
        if self.workers < 1:
            raise ConfigError("workers must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.num_classes < 2:
            raise ConfigError("need at least two classes")


@dataclass
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float
    best_params: int
    selected_ids: list
    wall_seconds: float = 0.0


# a checkpoint row keeps every GenerationStats field but wall_seconds, so
# checkpoint bytes depend on the seed alone
_CHECKPOINT_ROW_FIELDS = tuple(f.name for f in fields(GenerationStats) if f.name != "wall_seconds")


@dataclass
class RunState:
    """The live state of a run, and all that a checkpoint holds.

    stats holds one row per generation from 0 on; best is the
    best-so-far individual, replaced only on a strict fitness
    improvement; scored_by is the record of the evaluator that scored it.
    """

    config: EvolutionConfig
    population: list
    rng: np.random.Generator
    stats: list
    best: Individual
    scored_by: str | dict

    @property
    def next_generation(self):
        return len(self.stats)


def _config_doc(config, record):
    """A config as config.json and checkpoints store it, with what scored its run."""
    return {**asdict(config), "evaluator": record}


def initial_state(config, evaluator, logs=None):
    """Generation 0: seed individuals alternating the two minimal genome
    forms, evaluated, with the rng seeded from config.seed and scored_by
    taken from the evaluator.  logs is as for step_generation."""
    start = time.perf_counter()
    population = []
    for i in range(config.population_size):
        genome = new_seed_genome(SEED_KINDS[i % 2], config.input_shape, config.num_classes)
        population.append(Individual(id=i, genome=genome, born_generation=0))
    population = evaluate_batch(population, evaluator, config.seed, config.workers, (logs or {}).get("fitness"))
    best = rank(population)[0]
    stats = [_generation_stats(0, best, population, wall_seconds=time.perf_counter() - start)]
    return RunState(config, population, np.random.default_rng(config.seed), stats, best, record_of(evaluator))


def _select(ranked, union, config, rng):
    if config.strategy == "aggressive":
        return aggressive_select(ranked, config.k, config.distance_threshold)
    if config.strategy == "tournament":
        return [tournament_select(union, rng) for _ in range(config.k)]
    if config.strategy == "sample_uniform":
        return sample_uniform_select(union, rng, config.k)
    return sample_by_fitness_select(union, rng, config.k)


def step_generation(state, evaluator, logs=None):
    """Advance state by one mutate/evaluate/select/refill generation, in place.

    Replaces the population, replaces best on a strict fitness
    improvement and appends one stats row.
    logs, when given, maps each of LOG_NAMES to a list that receives
    this generation's rows.
    """
    start = time.perf_counter()
    config, rng, generation = state.config, state.rng, state.next_generation
    logs = logs or {}
    mutation_log, selection_log = logs.get("mutation"), logs.get("selection")
    weights = MutationWeights.early() if generation <= EARLY_STAGE_GENERATIONS else MutationWeights.late()
    next_id = max(ind.id for ind in state.population) + 1

    children = []
    for parent in state.population:
        attempts = []
        try:
            child_genome = mutate_until_valid(parent.genome, weights, rng, attempts=attempts)
            child = Individual(next_id, child_genome, None, generation, parent.id)
        except ExhaustedRetries:
            # keep the slot occupied; the parent genome rides along unchanged
            child = Individual(next_id, parent.genome, parent.fitness, generation, parent.id)
            attempts.append({"kind": "exhausted_clone", "accepted": True, "repair_fixes": 0})
        next_id += 1
        children.append(child)
        if mutation_log is not None:
            # each attempt record carries kind, accepted and repair_fixes
            mutation_log.extend(
                {"generation": generation, "parent_id": parent.id, "retries": retries, **a}
                for retries, a in enumerate(attempts)
            )

    children = evaluate_batch(children, evaluator, config.seed, config.workers, logs.get("fitness"))
    union = state.population + children
    ranked = rank(union)
    selected = _select(ranked, union, config, rng)
    order = {ind.id: pos for pos, ind in enumerate(ranked)}
    selected = sorted(selected, key=lambda ind: order[ind.id])
    state.population = clone_refill(selected, config.population_size, next_id, generation)

    if ranked[0].fitness > state.best.fitness:
        state.best = ranked[0]

    if selection_log is not None:
        selection_log.append(
            {
                "generation": generation,
                "strategy": config.strategy,
                "selected_ids": [ind.id for ind in selected],
                "fitnesses": [round(ind.fitness, 9) for ind in selected],
                "pairwise_distances": [
                    [hamming_distance(a.genome, b.genome) for b in selected] for a in selected
                ],
            }
        )

    wall = time.perf_counter() - start
    state.stats.append(_generation_stats(generation, state.best, union, selected, wall))


def _generation_stats(generation, best, scored, selected=(), wall_seconds=0.0):
    """One stats row: the best-so-far, the mean fitness of scored, the survivor ids."""
    return GenerationStats(
        generation=generation,
        best_fitness=best.fitness,
        mean_fitness=float(np.mean([ind.fitness for ind in scored])),
        best_params=parameter_count(best.genome),
        wall_seconds=wall_seconds,
        selected_ids=[ind.id for ind in selected],
    )


def _saturated(stats, window):
    """True when the trailing window shows too little best-fitness gain.

    stats holds one row per generation starting at generation 0; the
    window compares generation g against generation g - window, so the
    earliest possible stop is after window + 1 generations.
    """
    if window is None or len(stats) < window + 2:
        return False
    return stats[-1].best_fitness - stats[-1 - window].best_fitness < SATURATION_EPS


def run(config, out_dir=None, evaluator=None, resume_from=None):
    """Full evolution run; returns the final RunState.

    evaluator scores the run, SurrogateEvaluator() when None, and its
    record (scored_by) is what config.json and every checkpoint store as
    the run's "evaluator".  With out_dir it writes logs, stats and a
    checkpoint every CHECKPOINT_EVERY generations.  resume_from continues
    a checkpointed run under the config stored in the checkpoint, and
    reproduces the uninterrupted run's stats, best genome, later
    checkpoints and post-checkpoint log rows; config may then be None.
    A config that differs from the stored one, or an evaluator whose
    record differs from the stored record, raises ConfigError naming the
    differing fields or keys, and then an evaluator whose split cannot
    feed the config's genomes raises one naming both shapes, each before
    anything is written.  So a trained checkpoint resumes only on the
    same data and under the same plan.
    """
    state = None
    if resume_from is not None:
        state = checkpoint_load(resume_from)
        if config is not None:
            stored, given = asdict(state.config), asdict(config)
            differ = [name for name in stored if stored[name] != given[name]]
            if differ:
                raise ConfigError(f"config differs from checkpoint {resume_from} in {', '.join(differ)}")
        config = state.config
    if evaluator is None:
        evaluator = SurrogateEvaluator()
    if state is not None:
        differ = record_differences(state.scored_by, record_of(evaluator))
        if differ:
            raise ConfigError(f"evaluator differs from checkpoint {resume_from} in {', '.join(differ)}")
    misfit = split_misfit(evaluator, config.input_shape, config.num_classes)
    if misfit is not None:
        raise ConfigError(f"evaluator cannot score this config: {misfit}")
    logs = {name: [] for name in LOG_NAMES} if out_dir else None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    wall_start = time.perf_counter()
    if state is None:
        state = initial_state(config, evaluator, logs)
    for generation in range(state.next_generation, config.max_generations + 1):
        step_generation(state, evaluator, logs)
        if out_dir and generation % CHECKPOINT_EVERY == 0:
            checkpoint_save(state, os.path.join(out_dir, f"checkpoint_gen{generation}.json"))
        if _saturated(state.stats, config.saturation_window):
            break

    if out_dir:
        meta = {
            "finished_unix": time.time(),
            "wall_seconds_total": time.perf_counter() - wall_start,
            "per_generation_wall": [round(s.wall_seconds, 6) for s in state.stats],
            "generations": state.stats[-1].generation,
            "best_fitness": state.best.fitness,
            "best_individual_id": state.best.id,
        }
        _write_texts(out_dir, {
            "config.json": _json_text(_config_doc(config, state.scored_by)),
            "stats.csv": stats_csv_text(state.stats),
            "best_genome.json": serialize(state.best.genome),
            "run_meta.json": _json_text(meta),
            **{f"{name}.jsonl": (json.dumps(row, sort_keys=True) + "\n" for row in logs[name])
               for name in LOG_NAMES},
        })
    return state


# ---------------------------------------------------------------------------
# run artifacts


def _json_text(doc):
    """The layout of every config.json and run_meta.json."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def stats_csv_text(stats):
    lines = [",".join(STATS_COLUMNS)]
    for s in stats:
        lines.append(f"{s.generation},{s.best_fitness:.9f},{s.mean_fitness:.9f},{s.best_params}")
    return "\n".join(lines) + "\n"


def _write_texts(out_dir, texts):
    """Write each named file in out_dir from its text, or line by line from
    an iterable of lines."""
    for name, text in texts.items():
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)


# ---------------------------------------------------------------------------
# checkpointing


def _individual_doc(ind):
    return {**vars(ind), "genome": genome_doc(ind.genome)}


def _individual_from_doc(doc):
    return Individual(**{**doc, "genome": genome_from_doc(doc["genome"])})


def _is_fitness(value):  # a finite number in [0, 1]: NaN fails the range test
    return isinstance(value, (int, float)) and not isinstance(value, bool) and 0.0 <= value <= 1.0


def _individual_fault(ind, config):
    """Why a checkpointed individual cannot take part in a run of config, or None."""
    if not _is_count(ind.id):
        return "id must be a non-negative integer"
    if not _is_count(ind.born_generation):
        return "born_generation must be a non-negative integer"
    if not (ind.parent_id is None or _is_count(ind.parent_id)):
        return "parent_id must be null or a non-negative integer"
    if not _is_fitness(ind.fitness):
        return "fitness must be a finite number in [0, 1]"
    if (ind.genome.input_shape, ind.genome.num_classes) != (config.input_shape, config.num_classes):
        return f"genome must take the config's input_shape {config.input_shape} and num_classes {config.num_classes}"
    try:
        validate(ind.genome)
    except InvalidGenome as err:
        return str(err)
    return None


def _stats_row_fault(row):
    """Why a checkpointed stats row cannot be written to stats.csv, or None."""
    if row.keys() != set(_CHECKPOINT_ROW_FIELDS):
        return f"keys must be {', '.join(_CHECKPOINT_ROW_FIELDS)}"
    for name in ("best_fitness", "mean_fitness"):
        if not _is_fitness(row[name]):
            return f"{name} must be a finite number in [0, 1]"
    if not _is_count(row["best_params"]):
        return "best_params must be a non-negative integer"
    if not (isinstance(row["selected_ids"], list) and all(map(_is_count, row["selected_ids"]))):
        return "selected_ids must be a list of non-negative integers"
    return None


def checkpoint_save(state, path):
    doc = {
        "version": CHECKPOINT_VERSION,
        "config": _config_doc(state.config, state.scored_by),
        "next_generation": state.next_generation,
        "rng_state": state.rng.bit_generator.state,
        "population": [_individual_doc(ind) for ind in state.population],
        "best": _individual_doc(state.best),
        "stats": [{f: getattr(st, f) for f in _CHECKPOINT_ROW_FIELDS} for st in state.stats],
    }
    # json.dump streams through the pure-Python encoder; dumps takes the C one
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


def checkpoint_load(path):
    """The RunState a checkpoint file holds; CheckpointError if it cannot be
    read or resumed from.  The stored config's "evaluator" entry becomes
    scored_by and must pass fitness.record_fault; the rest of the config must
    build, every individual and every stats row must pass
    _individual_fault and _stats_row_fault.
    As in every state a run reaches, next_generation is the row count, at
    least 1, the rows cover generations 0 to next_generation - 1, no row's
    best_fitness falls below the previous row's, the population holds
    population_size distinct ids, and the best individual has the last
    row's best fitness and parameter count."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from err
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path}: top level must be a JSON object")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint {path}: version {doc.get('version')} not supported")
    try:
        config_doc = dict(doc["config"])
        record = config_doc.pop("evaluator")
        fault = record_fault(record)
        if fault is not None:
            raise CheckpointError(f"checkpoint {path}: evaluator {record!r} {fault}")
        config = EvolutionConfig(**config_doc)
        population = [_individual_from_doc(d) for d in doc["population"]]
        best = _individual_from_doc(doc["best"])
        next_generation, rows = doc["next_generation"], doc["stats"]
        if not (_is_int(next_generation) and next_generation == len(rows) >= 1):
            raise CheckpointError(f"checkpoint {path}: next_generation must be a positive integer equal to the "
                                  f"stats row count, got {next_generation!r} with {len(rows)} rows")
        generations = [row["generation"] for row in rows]
        if not all(map(_is_int, generations)) or generations != list(range(next_generation)):
            raise CheckpointError(f"checkpoint {path}: stats must cover generations 0 to {next_generation - 1}")
        faults = [(f"individual {ind.id!r}", _individual_fault(ind, config)) for ind in population + [best]]
        faults += [(f"stats row {row['generation']}", _stats_row_fault(row)) for row in rows]
        for where, fault in faults:
            if fault is not None:
                raise CheckpointError(f"checkpoint {path}: {where}: {fault}")
        for prev, row in zip(rows, rows[1:]):  # rows copy the best-so-far, which only rises
            if row["best_fitness"] < prev["best_fitness"]:
                raise CheckpointError(f"checkpoint {path}: stats row {row['generation']}: best_fitness must not "
                                      "fall below the previous row's")
        if not len({ind.id for ind in population}) == len(population) == config.population_size:
            raise CheckpointError(f"checkpoint {path}: population must hold {config.population_size} individuals "
                                  f"with distinct ids, got ids {[ind.id for ind in population]}")
        last = rows[-1]
        if (best.fitness, parameter_count(best.genome)) != (last["best_fitness"], last["best_params"]):
            raise CheckpointError(f"checkpoint {path}: best individual {best.id} does not match the last stats "
                                  "row's best_fitness and best_params")
        rng = np.random.default_rng()
        rng.bit_generator.state = doc["rng_state"]
        return RunState(config, population, rng, [GenerationStats(**row) for row in rows], best, record)
    except ConfigError as err:
        raise CheckpointError(f"checkpoint {path}: {err}") from err
    except (KeyError, TypeError, ValueError, ParseError) as err:
        raise CheckpointError(f"malformed checkpoint {path}: {err!r}") from err


# ---------------------------------------------------------------------------
# strategy comparison harness


@dataclass(frozen=True)
class SelectionSpec:
    """One competitor in a comparison: a label plus selection settings."""

    label: str
    strategy: str
    k: int
    distance_threshold: int


def default_specs(strategies, config):
    """Named baselines: sampling strategies keep a full-size survivor set."""
    specs = []
    for name in strategies:
        if name == "aggressive":
            specs.append(SelectionSpec("aggressive", "aggressive", config.k, config.distance_threshold))
        elif name in STRATEGIES:
            specs.append(SelectionSpec(name, name, config.population_size, 0))
        else:
            raise ConfigError(f"unknown strategy {name!r}")
    return specs


def k_sweep_specs(ks, config):
    return [SelectionSpec(f"k={k}", "aggressive", k, config.distance_threshold) for k in ks]


@dataclass
class ComparisonResult:
    """tau, a row and a median best-fitness curve per label, each label's first
    run config, and the record of the evaluator that scored every run."""

    tau: float
    rows: list
    curves: dict
    configs: dict
    scored_by: str | dict


def _run_configs(config, spec, n_seeds):
    """The fixed-length runs of one competitor, at seeds config.seed onward."""
    base = replace(config, strategy=spec.strategy, k=spec.k, distance_threshold=spec.distance_threshold)
    return [replace(base, seed=config.seed + s, saturation_window=None) for s in range(n_seeds)]


def check_comparison(config, specs, n_seeds):
    """Raise ConfigError unless there are specs and an integer count of
    seeds, each label once (results are keyed by label), and every
    competitor's run config builds; a refused competitor's message starts
    with its label."""
    if not _is_int(n_seeds):
        raise ConfigError(f"the seed count must be an integer, got {n_seeds!r}")
    if not specs or n_seeds < 1:
        raise ConfigError(f"a comparison needs specs and seeds, got {len(specs)} specs and {n_seeds} seeds")
    labels = [spec.label for spec in specs]
    repeated = [label for i, label in enumerate(labels) if label in labels[:i]]
    if repeated:
        raise ConfigError(f"a comparison names {repeated[0]!r} more than once")
    for spec in specs:
        try:
            _run_configs(config, spec, 1)
        except ConfigError as err:
            raise ConfigError(f"{spec.label}: {err}") from err


def compare_strategies(config, specs, n_seeds, evaluator=None):
    """Race selection settings over shared seeds on fixed-length runs.

    check_comparison refuses a bad comparison before the first run.  tau
    is TAU_FRACTION times the best final fitness seen anywhere in the
    comparison; each run contributes the first generation whose best
    reaches tau (censored at max_generations + 1 when it never does).
    """
    check_comparison(config, specs, n_seeds)
    if evaluator is None:
        evaluator = SurrogateEvaluator()
    configs = {spec.label: _run_configs(config, spec, n_seeds) for spec in specs}
    series = {label: [[st.best_fitness for st in run(cfg, evaluator=evaluator).stats] for cfg in cfgs]
              for label, cfgs in configs.items()}

    tau = TAU_FRACTION * max(curve[-1] for runs in series.values() for curve in runs)
    censor = config.max_generations + 1
    rows = []
    for spec in specs:
        vals = [next((g for g, v in enumerate(curve) if v >= tau), censor) for curve in series[spec.label]]
        q1, med, q3 = np.percentile(vals, [25, 50, 75])
        rows.append(
            {
                **asdict(spec),
                "seeds": n_seeds,
                "tau": round(tau, 9),
                "median_generations": float(med),
                "q1_generations": float(q1),
                "q3_generations": float(q3),
                "reached": sum(v <= config.max_generations for v in vals),
            }
        )
    curves = {label: np.median(np.array(runs), axis=0).tolist() for label, runs in series.items()}
    return ComparisonResult(tau, rows, curves, {label: cfgs[0] for label, cfgs in configs.items()},
                            record_of(evaluator))


def write_comparison(result, out_dir):
    """Write comparison.csv, curves.csv and a config.json that holds the seed count
    and each label's first run config with what scored it (its other runs differ
    in seed alone)."""
    configs = {label: _config_doc(cfg, result.scored_by) for label, cfg in result.configs.items()}
    _write_texts(out_dir, {
        "comparison.csv": comparison_csv_text(result),
        "curves.csv": curves_csv_text(result),
        "config.json": _json_text({"seeds": result.rows[0]["seeds"], "configs": configs}),
    })


def comparison_csv_text(result):
    lines = [",".join(result.rows[0])] + [",".join(map(str, row.values())) for row in result.rows]
    return "\n".join(lines) + "\n"


def curves_csv_text(result):
    lines = ["generation," + ",".join(result.curves)]
    for g, row in enumerate(zip(*result.curves.values())):
        lines.append(",".join([str(g), *(f"{v:.9f}" for v in row)]))
    return "\n".join(lines) + "\n"
