import hashlib
import json
import os

from dataclasses import fields, replace

import numpy as np
import pytest

from evoarch import engine
from evoarch.engine import (
    STRATEGIES,
    CheckpointError,
    ConfigError,
    EvolutionConfig,
    GenerationStats,
    checkpoint_load,
    checkpoint_save,
    compare_strategies,
    comparison_csv_text,
    curves_csv_text,
    default_specs,
    initial_state,
    k_sweep_specs,
    run,
    stats_csv_text,
    step_generation,
)
from evoarch.data import split_train_val
from evoarch.fitness import SurrogateEvaluator, TrainedEvaluator, evaluate_surrogate
from evoarch.genome import canonical_node_sequence
from evoarch.trainer import TrainPlan


class ConstantEvaluator:
    kind = "constant"

    def __init__(self, value=0.5):
        self.value = value

    def evaluate(self, genome, run_seed, individual_id):
        return self.value


class ShrinkEvaluator:
    """Prefers small genomes, so every mutated child scores below its
    parent and selection must fall back on the parents."""

    kind = "shrink"

    def evaluate(self, genome, run_seed, individual_id):
        return 1.0 / len(genome.nodes)


def surrogate_config(**overrides):
    base = dict(max_generations=20, saturation_window=None, seed=0)
    base.update(overrides)
    return EvolutionConfig(**base)


# ------------------------------------------------------------------ config

def test_config_rejects_bad_k():
    with pytest.raises(ConfigError, match="k must be at least 1"):
        EvolutionConfig(k=0)
    with pytest.raises(ConfigError, match="k must not exceed population size"):
        EvolutionConfig(k=20, population_size=10)


def test_config_rejects_unknown_strategy():
    with pytest.raises(ConfigError, match="strategy"):
        EvolutionConfig(strategy="roulette2")


def test_config_rejects_negative_seed():
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        EvolutionConfig(seed=-1)


@pytest.mark.parametrize("field,message", [("saturation_window", "saturation window must be positive or None")])
def test_config_rejects_a_zero_budget(field, message):
    with pytest.raises(ConfigError, match=message):
        EvolutionConfig(**{field: 0})


@pytest.mark.parametrize("fields", [{"num_classes": 1}, {"input_shape": (3, 0, 0)},
                                    {"input_shape": (32, 32)}, {"input_shape": (3, 32.0, 32)}])
def test_config_rejects_a_degenerate_task(fields):
    with pytest.raises(ConfigError, match="classes|input shape"):
        EvolutionConfig(**fields)


NOT_COUNTS = [("population_size", 10.0), ("k", 1.5), ("distance_threshold", 1.0), ("max_generations", 12.5),
              ("seed", 0.5), ("num_classes", 10.0), ("workers", True), ("saturation_window", 1.5),
              ("input_shape", [3, True, 32])]


@pytest.mark.parametrize("field, value", NOT_COUNTS, ids=[field for field, _ in NOT_COUNTS])
def test_config_and_checkpoint_refuse_a_count_that_is_not_an_integer(tmp_path, field, value):
    config_value = tuple(value) if field == "input_shape" else value
    with pytest.raises(ConfigError, match="integer"):
        EvolutionConfig(**{field: config_value})
    path = _broken_checkpoint(tmp_path, _set_config(**{field: value}))
    with pytest.raises(CheckpointError, match="integer"):
        checkpoint_load(path)


def test_config_defaults_valid():
    EvolutionConfig()


def test_config_is_checked_when_built():
    # no entry point runs a bad config: it cannot be built, nor replaced into
    with pytest.raises(ConfigError, match="unknown strategy 'nope'"):
        initial_state(EvolutionConfig(strategy="nope"), SurrogateEvaluator())
    with pytest.raises(ConfigError, match="k must be at least 1"):
        replace(EvolutionConfig(), k=0)


@pytest.mark.parametrize("shape", [5, None])
def test_config_refuses_an_input_shape_that_is_not_a_tuple_or_list(shape):
    with pytest.raises(ConfigError, match="input shape must be three positive integers"):
        EvolutionConfig(input_shape=shape)


def test_config_takes_input_shape_as_a_tuple():
    listed, tupled = EvolutionConfig(input_shape=[1, 28, 28]), EvolutionConfig(input_shape=(1, 28, 28))
    assert listed == tupled and hash(listed) == hash(tupled)


# ------------------------------------------------------- what scores a run

def trained_config():
    return EvolutionConfig(population_size=2, max_generations=7, saturation_window=None, input_shape=(1, 8, 8))


def tiny_trained_evaluator(plan=TrainPlan(2, batch_size=8), data_seed=0):
    """Trained fitness on 60 random 1x8x8 records drawn from data_seed, by default two iterations per individual."""
    rng = np.random.default_rng(data_seed)
    split = split_train_val(rng.normal(size=(60, 1, 8, 8)).astype(np.float32), rng.integers(0, 10, 60))
    return TrainedEvaluator(split, plan)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """The output directory of a straight seven-generation trained run."""
    out = tmp_path_factory.mktemp("trained") / "straight"
    run(trained_config(), out_dir=str(out), evaluator=tiny_trained_evaluator())
    return out


def test_a_trained_checkpoint_does_not_resume_without_its_evaluator(tmp_path, trained_run):
    out = tmp_path / "resumed"
    with pytest.raises(ConfigError, match=r"evaluator differs from checkpoint .* in batch_size, dataset, kind, "
                                          r"max_iters, split_seed, split_sha256, subset_n$"):
        run(None, out_dir=str(out), resume_from=str(trained_run / "checkpoint_gen5.json"))
    assert not out.exists()


@pytest.mark.parametrize("evaluator, named", [
    (tiny_trained_evaluator(TrainPlan(5, batch_size=8)), "max_iters"),
    (tiny_trained_evaluator(data_seed=1), "split_sha256"),
], ids=["other-plan", "other-split"])
def test_a_trained_checkpoint_resumes_only_on_its_data_and_plan(tmp_path, trained_run, evaluator, named):
    out = tmp_path / "resumed"
    with pytest.raises(ConfigError, match=rf"evaluator differs from checkpoint .* in {named}$"):
        run(None, out_dir=str(out), evaluator=evaluator, resume_from=str(trained_run / "checkpoint_gen5.json"))
    assert not out.exists()


def test_a_trained_checkpoint_that_names_only_its_kind_does_not_resume(tmp_path, trained_run):
    """A trained checkpoint from before the evaluator record named data and plan."""
    path = tmp_path / "checkpoint_gen5.json"
    doc = json.loads((trained_run / "checkpoint_gen5.json").read_text())
    doc["config"]["evaluator"] = "trained"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=r"in batch_size, dataset, max_iters, split_seed, split_sha256, subset_n$"):
        run(None, out_dir=str(tmp_path / "resumed"), evaluator=tiny_trained_evaluator(), resume_from=str(path))
    assert not (tmp_path / "resumed").exists()


def test_a_surrogate_config_runs_with_an_evaluator_of_another_kind(tmp_path):
    run(surrogate_config(max_generations=2), out_dir=str(tmp_path), evaluator=ConstantEvaluator())
    assert len((tmp_path / "stats.csv").read_text().splitlines()) == 4  # a header and generations 0-2
    assert json.loads((tmp_path / "config.json").read_text())["evaluator"] == "constant"


# -------------------------------------------------------------- population

def test_initial_state_alternates_seeds():
    state = initial_state(EvolutionConfig(), SurrogateEvaluator())
    pop = state.population
    assert [ind.id for ind in pop] == list(range(10))
    seqs = [canonical_node_sequence(ind.genome) for ind in pop]
    assert seqs == ["IGH", "IFH"] * 5
    assert all(ind.born_generation == 0 for ind in pop)
    assert all(ind.fitness == 0.0 for ind in pop)


# ------------------------------------------------------------------- steps

def test_step_children_below_parents_keeps_parents():
    config = surrogate_config(seed=0)
    ev = ShrinkEvaluator()
    state = initial_state(config, ev)
    parent_seqs = {canonical_node_sequence(ind.genome) for ind in state.population}
    step_generation(state, ev)
    # every survivor clone traces back to a parent genome
    assert {canonical_node_sequence(ind.genome) for ind in state.population} <= parent_seqs
    assert state.stats[-1].best_fitness == 1.0 / 3.0


def test_step_k1_clones_single_best():
    config = surrogate_config(k=1, seed=1)
    ev = SurrogateEvaluator()
    state = initial_state(config, ev)
    step_generation(state, ev)
    new_pop, st = state.population, state.stats[-1]
    assert len(new_pop) == 10
    assert len(st.selected_ids) == 1
    winner = st.selected_ids[0]
    assert all(ind.parent_id == winner for ind in new_pop)
    genomes = {canonical_node_sequence(ind.genome) for ind in new_pop}
    assert len(genomes) == 1


def test_step_deterministic():
    config = surrogate_config(seed=7)
    ev = SurrogateEvaluator()
    a, b = initial_state(config, ev), initial_state(config, ev)
    step_generation(a, ev)
    step_generation(b, ev)
    a_pop, a_st, b_pop, b_st = a.population, a.stats[-1], b.population, b.stats[-1]
    assert [i.id for i in a_pop] == [i.id for i in b_pop]
    assert [i.fitness for i in a_pop] == [i.fitness for i in b_pop]
    assert a_st.best_fitness == b_st.best_fitness
    assert a_st.selected_ids == b_st.selected_ids


def test_step_keeps_population_size():
    config = surrogate_config(k=3, strategy="aggressive", seed=2)
    ev = SurrogateEvaluator()
    state = initial_state(config, ev)
    for generation in range(1, 6):
        step_generation(state, ev)
        assert len(state.population) == 10
        assert all(ind.fitness is not None for ind in state.population)
        assert state.next_generation == generation + 1
        assert [s.generation for s in state.stats] == list(range(generation + 1))


# -------------------------------------------------------------------- runs

def test_run_best_fitness_monotone():
    result = run(surrogate_config(max_generations=30))
    series = [s.best_fitness for s in result.stats]
    assert series[0] == 0.0
    assert all(b >= a for a, b in zip(series, series[1:]))
    assert result.stats[0].generation == 0
    assert result.stats[-1].generation == 30


def test_run_flat_landscape_stops_after_window_plus_one():
    config = surrogate_config(max_generations=50, saturation_window=10)
    result = run(config, evaluator=ConstantEvaluator())
    assert result.stats[-1].generation == 11
    assert [s.generation for s in result.stats] == list(range(12))


def test_run_small_window_stop():
    config = surrogate_config(max_generations=50, saturation_window=3)
    result = run(config, evaluator=ConstantEvaluator())
    assert result.stats[-1].generation == 4


def test_run_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    config = surrogate_config(max_generations=5)
    result = run(config, out_dir=str(out))
    for name in ("config.json", "stats.csv", "best_genome.json", "run_meta.json",
                 "mutation.jsonl", "selection.jsonl", "fitness.jsonl",
                 "checkpoint_gen5.json"):
        assert (out / name).exists(), name
    echo = json.loads((out / "config.json").read_text())
    assert echo["max_generations"] == 5
    assert echo["seed"] == 0
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["generations"] == result.stats[-1].generation
    assert meta["wall_seconds_total"] > 0
    stats_text = (out / "stats.csv").read_text()
    assert stats_text.splitlines()[0] == "generation,best_fitness,mean_fitness,best_params"
    assert len(stats_text.splitlines()) == len(result.stats) + 1
    for line in (out / "mutation.jsonl").read_text().splitlines():
        row = json.loads(line)
        assert {"generation", "parent_id", "kind", "accepted", "retries", "repair_fixes"} <= set(row)


def test_run_meta_times_generation_zero(tmp_path):
    out = tmp_path / "run"
    run(surrogate_config(max_generations=3), out_dir=str(out))
    meta = json.loads((out / "run_meta.json").read_text())
    walls = meta["per_generation_wall"]
    assert len(walls) == 4 and walls[0] > 0
    assert meta["wall_seconds_total"] >= sum(walls)


def test_run_deterministic_stats_bytes(tmp_path):
    config = surrogate_config(max_generations=12, seed=5)
    run(config, out_dir=str(tmp_path / "a"))
    run(config, out_dir=str(tmp_path / "b"))
    a = (tmp_path / "a" / "stats.csv").read_bytes()
    b = (tmp_path / "b" / "stats.csv").read_bytes()
    assert a == b


def _jsonl_rows(path, drop=()):
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    return [{k: v for k, v in row.items() if k not in drop} for row in rows]


def test_fitness_log_differs_only_in_wall_seconds(tmp_path):
    config = surrogate_config(max_generations=3, seed=5)
    run(config, out_dir=str(tmp_path / "a"))
    run(config, out_dir=str(tmp_path / "b"))
    paths = [tmp_path / side / "fitness.jsonl" for side in "ab"]
    assert all("wall_seconds" in row for path in paths for row in _jsonl_rows(path))
    a, b = (_jsonl_rows(path, drop=("wall_seconds",)) for path in paths)
    assert a == b and len(a) == 4 * config.population_size


# sha256 of the default seed-0 surrogate run's outputs: a change that only
# makes the search faster must leave every one of these bytes alone
SEED0_DIGESTS = {
    "config.json": "29545b9cb66c6ffea2d93c0f36f8f4930b899a1c649fc9fd32f9c7c9eba264db",
    "stats.csv": "2c02c68bb3c134642094f9138c39eb5e8986c8262738316a062186dd430c4d9c",
    "best_genome.json": "b6334d6f03c9de97bb572c47290df463d567758a73aa7a7e6a3db2de76d62213",
    "selection.jsonl": "66db1edeab5ff01a7ce2946cdfb2e656edd7c1fcb4705a1233283fc71375884a",
    "mutation.jsonl": "4a2c060ff9ef066b81efc2e172b7cb7c8415c8c5f6b83cf54f61bb8473955598",
    "checkpoint_gen5.json": "173e2539a94baae1d5220925bc4a6cca7ee1793a71bf8165b54957507755a5a2",
    "checkpoint_gen55.json": "d5d22ff94373bebaec9856bf8a8b11b5689d6e6d9ec32b19a4d61a729f54d2f3",
}


def test_seed0_run_bytes_pinned(tmp_path):
    run(EvolutionConfig(seed=0), out_dir=str(tmp_path))
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in SEED0_DIGESTS}
    assert digests == SEED0_DIGESTS


def test_stats_csv_has_no_wall_clock_column():
    result = run(surrogate_config(max_generations=3))
    text = stats_csv_text(result.stats)
    header = text.splitlines()[0].split(",")
    assert "wall" not in "".join(header)
    for line in text.splitlines()[1:]:
        cells = line.split(",")
        assert len(cells) == 4
        float(cells[1]), float(cells[2])
        int(cells[0]), int(cells[3])


# ------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip(tmp_path):
    config = surrogate_config(max_generations=6, seed=3)
    ev = SurrogateEvaluator()
    state = initial_state(config, ev)
    for _ in range(3):
        step_generation(state, ev)
    pop, rng, stats, best = state.population, state.rng, state.stats, state.best
    path = tmp_path / "ck.json"
    checkpoint_save(state, str(path))
    loaded = checkpoint_load(str(path))
    assert loaded.config == config
    assert loaded.next_generation == 4
    assert [i.id for i in loaded.population] == [i.id for i in pop]
    assert [i.fitness for i in loaded.population] == [i.fitness for i in pop]
    assert [s.generation for s in loaded.stats] == [s.generation for s in stats]
    assert loaded.rng.bit_generator.state == rng.bit_generator.state
    assert loaded.best == best


def test_checkpoint_version_mismatch(tmp_path):
    path = tmp_path / "ck.json"
    path.write_text(json.dumps({"version": 99}))
    with pytest.raises(CheckpointError, match="version"):
        checkpoint_load(str(path))


def _genome_docs(node):
    if isinstance(node, dict):
        return ("nodes" in node) + sum(_genome_docs(v) for v in node.values())
    if isinstance(node, list):
        return sum(_genome_docs(v) for v in node)
    return 0


def test_checkpoint_size_does_not_grow_with_history(tmp_path):
    config = EvolutionConfig(seed=0)
    run(config, out_dir=str(tmp_path))
    for name in ("checkpoint_gen5.json", "checkpoint_gen55.json"):
        doc = json.loads((tmp_path / name).read_text())
        assert _genome_docs(doc) == config.population_size + 1, name


def test_checkpoint_corrupt_file(tmp_path):
    path = tmp_path / "ck.json"
    for raw in (b"{not json", b"\xff\xfe", b"[" * 200000 + b"]" * 200000):  # not JSON, not UTF-8, too deep
        path.write_bytes(raw)
        with pytest.raises(CheckpointError, match="cannot read checkpoint"):
            checkpoint_load(str(path))


def _broken_checkpoint(tmp_path, edit):
    config = surrogate_config(max_generations=5)
    run(config, out_dir=str(tmp_path))
    path = tmp_path / "checkpoint_gen5.json"
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(edit(doc)))
    return str(path)


def _drop_config(doc):
    del doc["config"]
    return doc


def _drop_genome_nodes(doc):
    del doc["population"][0]["genome"]["nodes"]
    return doc


def _drop_best(doc):
    del doc["best"]
    return doc


def _set_config(**fields):
    return lambda doc: {**doc, "config": {**doc["config"], **fields}}


def _set_last_stats_row(field, value):
    def edit(doc):
        doc["stats"][-1][field] = value
        return doc
    return edit


def _feed_the_global_pool_twice(doc):
    # the first genome's node 1 is its global pool, already fed by one conv
    doc["population"][0]["genome"]["edges"].append([6, 1])
    return doc


@pytest.mark.parametrize("edit", [_drop_config, _drop_genome_nodes, lambda doc: [doc], _drop_best,
                                  lambda doc: {**doc, "version": 1}, lambda doc: {**doc, "version": 2},
                                  lambda doc: {**doc, "stats": doc["stats"][1:]},
                                  _set_config(strategy="nope"), _set_config(k=0),
                                  _set_config(num_classes=1), _set_config(input_shape=[3, 0, 0]),
                                  _feed_the_global_pool_twice, _set_last_stats_row("generation", 5.0)],
                         ids=["missing-key", "genome-without-nodes", "top-level-list", "missing-best", "version-1",
                              "version-2", "stats-gap", "unknown-strategy", "k-zero", "one-class",
                              "empty-input", "invalid-genome", "float-generation"])
def test_checkpoint_malformed_raises_checkpoint_error(tmp_path, edit):
    path = _broken_checkpoint(tmp_path, edit)
    with pytest.raises(CheckpointError) as e:
        checkpoint_load(path)
    assert path in str(e.value)


TRAINED_RECORD = tiny_trained_evaluator().record
BAD_RECORDS = {
    "number": 5, "null": None, "list": ["trained"], "kind-only": {"kind": "trained"},
    "extra-key": {**TRAINED_RECORD, "lr": 0.1}, "surrogate-kind": {**TRAINED_RECORD, "kind": "surrogate"},
    "zero-batch": {**TRAINED_RECORD, "batch_size": 0}, "float-iters": {**TRAINED_RECORD, "max_iters": 2.0},
    "short-digest": {**TRAINED_RECORD, "split_sha256": "ab"}, "bool-subset": {**TRAINED_RECORD, "subset_n": True},
}


@pytest.mark.parametrize("record", BAD_RECORDS.values(), ids=BAD_RECORDS)
def test_checkpoint_refuses_an_evaluator_record_that_names_nothing(tmp_path, record):
    path = _broken_checkpoint(tmp_path, _set_config(evaluator=record))
    with pytest.raises(CheckpointError, match=r"checkpoint .*: evaluator .* (must be a string|has a bad)"):
        checkpoint_load(path)


def test_resume_refuses_an_invalid_genome_naming_its_individual(tmp_path):
    path = _broken_checkpoint(tmp_path, _feed_the_global_pool_twice)
    with pytest.raises(CheckpointError, match=r"individual 100: node 1 \(globalpool\) needs 1 predecessors"):
        run(None, resume_from=path)


def _set_member(field, value):
    def edit(doc):
        doc["population"][0][field] = value
        return doc
    return edit


@pytest.mark.parametrize("value", [None, "0.5", 7.0, -0.25, float("nan"), float("inf"), True])
def test_checkpoint_refuses_a_fitness_outside_zero_to_one(tmp_path, value):
    path = _broken_checkpoint(tmp_path, _set_member("fitness", value))
    with pytest.raises(CheckpointError, match=r"individual \d+: fitness must be a finite number in \[0, 1\]$"):
        run(None, resume_from=path)


@pytest.mark.parametrize("value", ["x", -1, 2.0, False])
def test_checkpoint_refuses_an_id_that_is_not_a_count(tmp_path, value):
    path = _broken_checkpoint(tmp_path, _set_member("id", value))
    with pytest.raises(CheckpointError, match=r"id must be a non-negative integer$"):
        checkpoint_load(path)


@pytest.mark.parametrize("value", [None, "3", -1, 1.5])
def test_checkpoint_refuses_a_born_generation_that_is_not_a_count(tmp_path, value):
    path = _broken_checkpoint(tmp_path, _set_member("born_generation", value))
    with pytest.raises(CheckpointError, match=r"born_generation must be a non-negative integer$"):
        checkpoint_load(path)


@pytest.mark.parametrize("value", ["7", -3, 4.0, True])
def test_checkpoint_refuses_a_parent_id_that_is_not_null_or_a_count(tmp_path, value):
    path = _broken_checkpoint(tmp_path, _set_member("parent_id", value))
    with pytest.raises(CheckpointError, match=r"parent_id must be null or a non-negative integer$"):
        checkpoint_load(path)


def _resume_from_a_stats_row_with(tmp_path, field, value):
    path = _broken_checkpoint(tmp_path, _set_last_stats_row(field, value))
    with pytest.raises(CheckpointError) as e:
        run(None, out_dir=str(tmp_path / "resumed"), resume_from=path)
    return str(e.value)


@pytest.mark.parametrize("value", [None, "x", 7.0, -0.5, float("nan"), True])
def test_checkpoint_refuses_a_stats_best_fitness_outside_zero_to_one(tmp_path, value):
    message = _resume_from_a_stats_row_with(tmp_path, "best_fitness", value)
    assert message.endswith("stats row 5: best_fitness must be a finite number in [0, 1]")


@pytest.mark.parametrize("value", [None, "x", 7.0, float("nan"), float("inf")])
def test_checkpoint_refuses_a_stats_mean_fitness_outside_zero_to_one(tmp_path, value):
    message = _resume_from_a_stats_row_with(tmp_path, "mean_fitness", value)
    assert message.endswith("stats row 5: mean_fitness must be a finite number in [0, 1]")


@pytest.mark.parametrize("value", ["x", -1, 12.0, None, True])
def test_checkpoint_refuses_a_stats_best_params_that_is_not_a_count(tmp_path, value):
    message = _resume_from_a_stats_row_with(tmp_path, "best_params", value)
    assert message.endswith("stats row 5: best_params must be a non-negative integer")


@pytest.mark.parametrize("value", ["x", 3, [1, -2], [1.0], [False], None])
def test_checkpoint_refuses_stats_selected_ids_that_are_not_counts(tmp_path, value):
    message = _resume_from_a_stats_row_with(tmp_path, "selected_ids", value)
    assert message.endswith("stats row 5: selected_ids must be a list of non-negative integers")


def _set_ids(doc):
    for member in doc["population"]:
        member["id"] = 7


def _add_a_param(doc):
    doc["stats"][-1]["best_params"] += 1


def _set_genome_input_shapes(doc):
    for member in doc["population"]:
        member["genome"]["input_shape"] = [3, 64, 64]


def _set_genome_classes(doc):
    for member in doc["population"]:
        genome = member["genome"]
        genome["num_classes"] = 7
        for node in genome["nodes"]:
            if node["kind"] == "head":
                node["params"]["classes"] = 7


OTHER_GENOME_SHAPE = r"individual \d+: genome must take the config's input_shape \(3, 32, 32\) and num_classes 10$"

# edits of the seed-0 checkpoint_gen5.json that no run reaches, with the refusal each gets
UNREACHABLE = {
    "next-generation-0": (lambda doc: doc.update(next_generation=0, stats=[]),
                          "next_generation must be a positive integer equal to the stats row count, got 0 with 0"),
    "next-generation-minus-1": (lambda doc: doc.update(next_generation=-1, stats=[]), "got -1 with 0 rows"),
    "next-generation-true": (lambda doc: doc.update(next_generation=True, stats=doc["stats"][:1]),
                             "got True with 1 rows"),
    "next-generation-below-rows": (lambda doc: doc.update(next_generation=3), "got 3 with 6 rows"),
    "empty-population": (lambda doc: doc.update(population=[]),
                         r"population must hold 10 individuals with distinct ids, got ids \[\]$"),
    "three-individuals": (lambda doc: doc.update(population=doc["population"][:3]), r"got ids \[100, 101, 102\]$"),
    "repeated-ids": (_set_ids, r"distinct ids, got ids \[7, 7, 7, 7, 7, 7, 7, 7, 7, 7\]$"),
    "best-fitness": (lambda doc: doc["best"].update(fitness=0.99),
                     r"best individual \d+ does not match the last stats row's best_fitness and best_params$"),
    "best-params": (_add_a_param, "does not match the last stats row's best_fitness and best_params$"),
    "falling-best-fitness": (lambda doc: doc["stats"][3].update(best_fitness=0.9),
                             "stats row 4: best_fitness must not fall below the previous row's$"),
    "genome-input-shape": (_set_genome_input_shapes, OTHER_GENOME_SHAPE),
    "genome-classes": (_set_genome_classes, OTHER_GENOME_SHAPE),
}


@pytest.mark.parametrize("edit, message", UNREACHABLE.values(), ids=UNREACHABLE)
def test_resume_refuses_a_state_no_run_reaches(tmp_path, edit, message):
    def resumable(doc):  # a run that could still go on to generation 12
        doc["config"]["max_generations"] = 12
        edit(doc)
        return doc
    path = _broken_checkpoint(tmp_path, resumable)
    out = tmp_path / "resumed"
    with pytest.raises(CheckpointError, match=message):
        run(None, out_dir=str(out), resume_from=path)
    assert not out.exists()


@pytest.mark.parametrize("edit", [lambda row: row.pop("mean_fitness"), lambda row: row.pop("selected_ids"),
                                  lambda row: row.update(wall_seconds=0.25)],
                         ids=["missing-mean-fitness", "missing-selected-ids", "extra-wall-seconds"])
def test_checkpoint_rows_are_the_generation_stats_fields_but_wall_seconds(tmp_path, edit):
    names = [f.name for f in fields(GenerationStats) if f.name != "wall_seconds"]

    def edit_last_row(doc):
        assert [sorted(row) for row in doc["stats"]] == [sorted(names)] * 6
        edit(doc["stats"][-1])
        return doc
    path = _broken_checkpoint(tmp_path, edit_last_row)
    with pytest.raises(CheckpointError, match=rf"stats row 5: keys must be {', '.join(names)}$"):
        checkpoint_load(path)


def test_resume_equals_straight_run(tmp_path):
    config = surrogate_config(max_generations=12, seed=9)
    straight = tmp_path / "straight"
    run(config, out_dir=str(straight))
    resumed = tmp_path / "resumed"
    run(config, out_dir=str(resumed),
        resume_from=str(straight / "checkpoint_gen5.json"))
    for name in ("stats.csv", "best_genome.json", "config.json", "checkpoint_gen10.json"):
        assert (straight / name).read_bytes() == (resumed / name).read_bytes(), name
    # the resumed logs hold exactly the straight run's rows after generation 5
    for name, count in (("mutation.jsonl", 121), ("selection.jsonl", 7)):
        tail = [row for row in _jsonl_rows(straight / name) if row["generation"] > 5]
        assert _jsonl_rows(resumed / name) == tail and len(tail) == count, name
    fitness_rows = _jsonl_rows(resumed / "fitness.jsonl", drop=("wall_seconds",))
    assert len(fitness_rows) == 7 * config.population_size
    assert _jsonl_rows(straight / "fitness.jsonl", drop=("wall_seconds",))[-len(fitness_rows):] == fitness_rows
    # the checkpoint keeps no wall-clock times
    walls = json.loads((resumed / "run_meta.json").read_text())["per_generation_wall"]
    assert walls[:6] == [0.0] * 6 and len(walls) == 13


def test_trained_resume_equals_straight_run(tmp_path, trained_run):
    resumed = tmp_path / "resumed"
    run(None, out_dir=str(resumed), evaluator=tiny_trained_evaluator(),
        resume_from=str(trained_run / "checkpoint_gen5.json"))
    for name in ("stats.csv", "best_genome.json", "config.json"):
        assert (trained_run / name).read_bytes() == (resumed / name).read_bytes(), name
    assert json.loads((resumed / "config.json").read_text())["evaluator"] == tiny_trained_evaluator().record


class Float32Evaluator:
    """The surrogate score as a numpy float32, as a numpy-based evaluator returns it."""

    kind = "float32"

    def evaluate(self, genome, run_seed, individual_id):
        return np.float32(evaluate_surrogate(genome))


def test_resume_of_a_run_whose_evaluator_returns_numpy_floats(tmp_path):
    config = surrogate_config(max_generations=8, seed=2)
    straight, resumed = tmp_path / "straight", tmp_path / "resumed"
    run(config, out_dir=str(straight), evaluator=Float32Evaluator())
    run(config, out_dir=str(resumed), evaluator=Float32Evaluator(),
        resume_from=str(straight / "checkpoint_gen5.json"))
    assert (straight / "stats.csv").read_bytes() == (resumed / "stats.csv").read_bytes()


def test_resume_rejects_a_config_that_differs_from_the_checkpoint(tmp_path):
    config = surrogate_config(max_generations=5, seed=4)
    first = tmp_path / "first"
    run(config, out_dir=str(first))
    path = str(first / "checkpoint_gen5.json")
    with pytest.raises(ConfigError, match=r"differs from checkpoint .* in k$"):
        run(replace(config, k=2), resume_from=path)
    with pytest.raises(ConfigError, match=r"differs from checkpoint .* in max_generations$"):
        run(replace(config, max_generations=50), resume_from=path)
    # with no config the checkpoint's governs; its run ended at generation 5
    state = run(None, resume_from=path)
    assert state.config == config
    assert [st.generation for st in state.stats] == list(range(6))


# -------------------------------------------------------------- comparison

def test_compare_single_spec_single_seed():
    config = surrogate_config(max_generations=8)
    result = compare_strategies(config, k_sweep_specs([1], config), n_seeds=1)
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row["label"] == "k=1"
    assert row["seeds"] == 1
    assert row["median_generations"] == row["q1_generations"] == row["q3_generations"]
    assert len(result.curves["k=1"]) == 9  # generations 0..8


def test_compare_censors_at_max_plus_one():
    config = surrogate_config(max_generations=4)
    result = compare_strategies(config, k_sweep_specs([1], config), n_seeds=3,
                                evaluator=ConstantEvaluator())
    # flat landscape never crosses tau = 0.9 * 0.5 ... it starts there;
    # constant fitness means generation 0 already reaches tau
    quartiles = ("q1_generations", "median_generations", "q3_generations")
    row = result.rows[0]
    assert [row[q] for q in quartiles] == [0.0, 0.0, 0.0] and row["reached"] == 3
    zero = compare_strategies(config, k_sweep_specs([1], config), n_seeds=2,
                              evaluator=ConstantEvaluator(0.0))
    # tau is 0 here, so generation 0 reaches it too; no run counts as the censored 5
    row = zero.rows[0]
    assert [row[q] for q in quartiles] == [0.0, 0.0, 0.0] and row["reached"] == 2

    class FirstSeedBest:
        kind = "first-seed-best"

        def evaluate(self, genome, run_seed, individual_id):
            return 1.0 if run_seed == config.seed else 0.5

    censored = compare_strategies(config, k_sweep_specs([1], config), n_seeds=2, evaluator=FirstSeedBest())
    # tau is 0.9: the first seed reaches it at generation 0, the second never
    # does and counts as generation 5
    row = censored.rows[0]
    assert row["tau"] == 0.9
    assert [row[q] for q in quartiles] == [1.25, 2.5, 3.75] and row["reached"] == 1


def test_compare_deterministic():
    config = surrogate_config(max_generations=6, seed=2)
    specs = default_specs(["aggressive", "sample_uniform"], config)
    a = compare_strategies(config, specs, n_seeds=2)
    b = compare_strategies(config, specs, n_seeds=2)
    assert a.rows == b.rows
    assert a.tau == b.tau


def test_default_specs_baselines_select_full_population():
    config = surrogate_config()
    specs = default_specs(["aggressive", "tournament", "sample_uniform"], config)
    by_label = {s.label: s for s in specs}
    assert by_label["aggressive"].k == config.k
    assert by_label["tournament"].k == config.population_size
    assert by_label["sample_uniform"].k == config.population_size
    with pytest.raises(ConfigError):
        default_specs(["roulette2"], config)


@pytest.mark.parametrize("ks,n_seeds", [([], 2), ([1], 0)], ids=["no-specs", "no-seeds"])
def test_compare_needs_specs_and_seeds(ks, n_seeds):
    config = surrogate_config(max_generations=2)
    with pytest.raises(ConfigError, match="a comparison needs specs and seeds") as e:
        compare_strategies(config, k_sweep_specs(ks, config), n_seeds)
    assert "\n" not in str(e.value)


@pytest.mark.parametrize("n_seeds", [2.0, True, "2"])
def test_compare_refuses_a_seed_count_that_is_not_an_integer(n_seeds):
    config = surrogate_config(max_generations=2)
    with pytest.raises(ConfigError, match=f"^the seed count must be an integer, got {n_seeds!r}$"):
        compare_strategies(config, k_sweep_specs([1], config), n_seeds)


def test_compare_refuses_a_repeated_label():
    config = surrogate_config(max_generations=2)
    with pytest.raises(ConfigError, match="names 'k=2' more than once"):
        compare_strategies(config, k_sweep_specs([2, 1, 2], config), n_seeds=1)


def test_compare_checks_every_entry_before_the_first_run(monkeypatch):
    runs = []
    monkeypatch.setattr(engine, "run", lambda *a, **kw: runs.append(a))
    config = surrogate_config(max_generations=2)
    with pytest.raises(ConfigError, match=r"^k=0: k must be at least 1$"):
        compare_strategies(config, k_sweep_specs([1, 0], config), 2)
    assert runs == []


def test_comparison_csv_layout():
    config = surrogate_config(max_generations=6)
    result = compare_strategies(config, k_sweep_specs([1, 2], config), n_seeds=2)
    table = comparison_csv_text(result)
    lines = table.splitlines()
    assert lines[0].startswith("label,strategy,k,distance_threshold,seeds,tau")
    assert len(lines) == 3
    assert lines[1].startswith("k=1,aggressive,1,")
    curves = curves_csv_text(result)
    assert curves.splitlines()[0] == "generation,k=1,k=2"
    assert len(curves.splitlines()) == 8  # header + generations 0..6


# sha256 of (comparison.csv, curves.csv) for seeded surrogate comparisons:
# the harness's output bytes depend on the seeds alone
COMPARE_DIGESTS = {
    "k_sweep": (
        "54f04e08700d5fd998b94e660d4afd9920380ccc50e87a17bf7ede9eb63ca9a6",
        "c3e9525494b039b6c00217c6deb2273afcd75521d794a8a6702c1cd274110026",
    ),
    "strategies": (
        "2e495fb558902fe6cc786489e49b715b16e7da0382bf50bcc62e803050dd57c3",
        "79d7d054a789647fcc2e9a5de28ca4f3a957e98e048bb301d980d62607a97d45",
    ),
}


def test_compare_outputs_bytes_pinned():
    config = surrogate_config(max_generations=10)
    races = {
        "k_sweep": (k_sweep_specs([1, 2, 10], config), 3),
        "strategies": (default_specs(STRATEGIES, config), 2),
    }
    digests = {}
    for name, (specs, n_seeds) in races.items():
        result = compare_strategies(config, specs, n_seeds)
        digests[name] = tuple(
            hashlib.sha256(text.encode()).hexdigest()
            for text in (comparison_csv_text(result), curves_csv_text(result))
        )
    assert digests == COMPARE_DIGESTS
