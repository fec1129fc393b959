import math
from dataclasses import replace

import numpy as np
import pytest

from evoarch import fitness, trainer
from evoarch.data import DatasetSplit, split_sha256
from evoarch.fitness import (
    EvaluationError,
    SurrogateEvaluator,
    TrainedEvaluator,
    evaluate_batch,
    evaluate_surrogate,
    evaluate_trained,
    individual_seed,
)
from evoarch.genome import (
    GLOBALPOOL,
    HEAD,
    INPUT,
    Genome,
    Node,
    conv_node,
    fc_node,
    maxpool_node,
    new_seed_genome,
)
from evoarch.mutation import apply_mutation
from evoarch.trainer import TrainPlan
from helpers import make_individual, random_genome


def conv_chain(n, extra=(), input_shape=(3, 64, 64)):
    middle = [conv_node(8) for _ in range(n)] + list(extra) + [Node(GLOBALPOOL)]
    nodes = {0: Node(INPUT)}
    preds = {0: ()}
    for i, nd in enumerate(middle, start=1):
        nodes[i] = nd
        preds[i] = (i - 1,)
    last = len(nodes)
    nodes[last] = Node(HEAD, {"classes": 10})
    preds[last] = (last - 1,)
    return Genome(input_shape, 10, nodes, preds)


def tiny_split(seed=0, n=64, classes=10):
    rng = np.random.default_rng(seed)
    return DatasetSplit(
        train_x=rng.normal(size=(n, 1, 8, 8)).astype(np.float32),
        train_y=rng.integers(0, classes, n),
        val_x=rng.normal(size=(32, 1, 8, 8)).astype(np.float32),
        val_y=rng.integers(0, classes, 32),
        num_classes=classes,
    )


# --------------------------------------------------------------- surrogate

def test_surrogate_seed_genomes_score_zero():
    assert evaluate_surrogate(new_seed_genome("global_pool")) == 0.0
    assert evaluate_surrogate(new_seed_genome("fully_connected", (1, 28, 28), 10)) == 0.0


def test_surrogate_single_conv():
    got = evaluate_surrogate(conv_chain(1))
    assert math.isclose(got, 1 - math.exp(-0.15), rel_tol=1e-12)
    assert f"{got:.6f}" == "0.139292"


def test_surrogate_depth_penalty_kicks_in_past_twelve():
    f11, f12, f13 = (evaluate_surrogate(conv_chain(n)) for n in (11, 12, 13))
    assert f12 - f11 > f13 - f12


def test_surrogate_monotone_in_convs_below_twelve():
    scores = [evaluate_surrogate(conv_chain(n)) for n in range(13)]
    for a, b in zip(scores, scores[1:]):
        assert b > a


def test_surrogate_add_convolution_helps_random_genomes():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 40:
        g = random_genome(rng)
        convs = sum(n.kind == "conv" for n in g.nodes.values())
        child = apply_mutation(g, "add_convolution", rng)
        if child is None or convs >= 12:
            continue
        assert evaluate_surrogate(child) > evaluate_surrogate(g)
        checked += 1


def test_surrogate_join_and_pool_terms():
    with_pool = conv_chain(1, extra=[maxpool_node()])
    assert math.isclose(evaluate_surrogate(with_pool),
                        1 - math.exp(-(0.15 + 0.05)), rel_tol=1e-12)
    # pooling with no conv to pair with adds nothing
    lone_pool = conv_chain(0, extra=[maxpool_node()])
    assert evaluate_surrogate(lone_pool) == 0.0


def test_surrogate_skip_term():
    nodes = {0: Node(INPUT), 1: conv_node(8), 2: conv_node(8), 3: Node("skip"),
             4: Node(GLOBALPOOL), 5: Node(HEAD, {"classes": 10})}
    preds = {0: (), 1: (0,), 2: (1,), 3: (1, 2), 4: (3,), 5: (4,)}
    g = Genome((3, 16, 16), 10, nodes, preds)
    assert math.isclose(evaluate_surrogate(g),
                        1 - math.exp(-(0.15 * 2 + 0.08)), rel_tol=1e-12)


def join_chain(convs, joins):
    """Input, `convs` convs, then one join per letter of `joins` ("S" skip,
    "K" concat) that merges the previous node with itself."""
    nodes = {0: Node(INPUT)}
    preds = {0: ()}
    for i in range(1, convs + 1):
        nodes[i] = conv_node(8)
        preds[i] = (i - 1,)
    for letter in joins:
        i = len(nodes)
        nodes[i] = Node({"S": "skip", "K": "concat"}[letter])
        preds[i] = (i - 1, i - 1)
    last = len(nodes)
    nodes[last] = Node(GLOBALPOOL)
    preds[last] = (last - 1,)
    nodes[last + 1] = Node(HEAD, {"classes": 10})
    preds[last + 1] = (last,)
    return Genome((3, 16, 16), 10, nodes, preds)


def test_surrogate_join_without_conv_adds_nothing():
    for joins in ("S", "K", "SK", "SSKK"):
        assert evaluate_surrogate(join_chain(0, joins)) == 0.0


def test_surrogate_joins_capped_at_conv_count():
    one_each = 1 - math.exp(-(0.15 + 0.08))
    for joins in ("S", "SSS", "K", "KKKK"):
        assert math.isclose(evaluate_surrogate(join_chain(1, joins)), one_each,
                            rel_tol=1e-12)
    both = 1 - math.exp(-(0.15 * 2 + 0.08 * 2 + 0.08 * 2))
    assert math.isclose(evaluate_surrogate(join_chain(2, "SSSKKK")), both, rel_tol=1e-12)


def test_surrogate_bounded():
    rng = np.random.default_rng(1)
    for _ in range(200):
        assert 0.0 <= evaluate_surrogate(random_genome(rng)) <= 1.0
    assert 0.0 <= evaluate_surrogate(conv_chain(40, input_shape=(3, 128, 128))) <= 1.0


def test_surrogate_deterministic_and_seed_blind():
    g = conv_chain(3)
    ev = SurrogateEvaluator()
    assert ev.evaluate(g, 0, 0) == ev.evaluate(g, 12345, 7) == evaluate_surrogate(g)


# ----------------------------------------------------------------- trained

def test_trained_divergence_scores_zero(monkeypatch):
    monkeypatch.setattr(trainer, "STAGE_LRS", (1e12, 1e12, 1e12))
    g = new_seed_genome("fully_connected", (1, 8, 8), 10)
    plan = TrainPlan(max_iters=40)
    with np.errstate(all="ignore"):
        assert evaluate_trained(g, tiny_split(), plan) == 0.0


def test_trained_deterministic_per_seed():
    g = new_seed_genome("fully_connected", (1, 8, 8), 10)
    ev = TrainedEvaluator(tiny_split(), TrainPlan(max_iters=20))
    assert ev.evaluate(g, 3, 1) == ev.evaluate(g, 3, 1)


def test_trained_evaluator_trains_under_the_individual_seed(monkeypatch):
    seeds = []

    def record(genome, split, plan):
        seeds.append(plan.seed)
        return 0.5

    monkeypatch.setattr(fitness, "evaluate_trained", record)
    ev = TrainedEvaluator(tiny_split(), TrainPlan(max_iters=20))
    g = new_seed_genome("fully_connected", (1, 8, 8), 10)
    assert ev.evaluate(g, 9, 4) == 0.5
    assert seeds == [individual_seed(9, 4)]


def test_trained_record_names_the_split_and_the_plan_budget_but_not_its_seed(monkeypatch):
    split = replace(tiny_split(), source={"dataset": "mnist", "subset_n": 96, "seed": 3})
    record = TrainedEvaluator(split, TrainPlan(max_iters=20, batch_size=16, seed=1)).record
    assert record == {"kind": "trained", "dataset": "mnist", "subset_n": 96, "split_seed": 3,
                      "split_sha256": split_sha256(split), "max_iters": 20, "batch_size": 16}
    assert TrainedEvaluator(split, TrainPlan(max_iters=20, batch_size=16, seed=7)).record == record
    ev = TrainedEvaluator(tiny_split(), TrainPlan(max_iters=20))
    assert [ev.record[key] for key in ("dataset", "subset_n", "split_seed")] == [None, None, None]
    monkeypatch.setattr(fitness, "split_sha256", lambda split: pytest.fail("record digested twice"))
    assert ev.record is ev.record


def test_training_runs_through_the_traced_bindings(monkeypatch):
    # the benchmark tracer counts iterations at trainer.sgd_step and
    # trainings at fitness.train; each must be the binding actually called
    calls = {"train": 0, "sgd_step": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(fitness, "train")
    counted(trainer, "sgd_step")
    plan = TrainPlan(max_iters=7, batch_size=16)
    assert 0.0 <= evaluate_trained(conv_chain(1, input_shape=(1, 8, 8)), tiny_split(), plan) <= 1.0
    assert calls == {"train": 1, "sgd_step": plan.max_iters}


def test_individual_seed_stable_and_spread():
    assert individual_seed(0, 1) == individual_seed(0, 1)
    seeds = {individual_seed(0, i) for i in range(100)}
    assert len(seeds) == 100


# ------------------------------------------------------------------- batch

def test_batch_fills_only_gaps():
    rng = np.random.default_rng(2)
    pop = [make_individual(random_genome(rng), i, None) for i in range(4)]
    pop[1] = make_individual(pop[1].genome, 1, 0.5)
    out = evaluate_batch(pop, SurrogateEvaluator())
    assert [i.id for i in out] == [0, 1, 2, 3]
    assert out[1].fitness == 0.5
    for ind in out:
        assert ind.fitness is not None


def test_batch_noop_when_all_evaluated():
    rng = np.random.default_rng(3)
    pop = [make_individual(random_genome(rng), i, 0.1 * i) for i in range(3)]
    audit = []
    out = evaluate_batch(pop, SurrogateEvaluator(), audit=audit)
    assert out == pop
    assert audit == []


def test_batch_worker_count_invariant():
    rng = np.random.default_rng(4)
    pop = [make_individual(random_genome(rng, input_shape=(1, 8, 8)), i, None)
           for i in range(8)]
    ev = TrainedEvaluator(tiny_split(), TrainPlan(max_iters=10))
    f1 = [i.fitness for i in evaluate_batch(pop, ev, run_seed=9, workers=1)]
    f8 = [i.fitness for i in evaluate_batch(pop, ev, run_seed=9, workers=8)]
    assert f1 == f8


def test_surrogate_batch_derives_no_seed(monkeypatch):
    def refuse(run_seed, individual_id):
        raise AssertionError("the surrogate needs no individual seed")

    monkeypatch.setattr(fitness, "individual_seed", refuse)
    rng = np.random.default_rng(7)
    pop = [make_individual(random_genome(rng), i, None) for i in range(10)]
    out = evaluate_batch(pop, SurrogateEvaluator(), run_seed=3)
    assert [ind.fitness for ind in out] == [evaluate_surrogate(ind.genome) for ind in pop]


def test_batch_audit_rows():
    rng = np.random.default_rng(5)
    pop = [make_individual(random_genome(rng), i, None) for i in range(3)]
    audit = []
    evaluate_batch(pop, SurrogateEvaluator(), audit=audit)
    assert [r["individual_id"] for r in audit] == [0, 1, 2]
    for row in audit:
        assert set(row) == {"individual_id", "evaluator", "fitness", "wall_seconds"}
        assert row["evaluator"] == "surrogate"
        assert 0.0 <= row["fitness"] <= 1.0


def test_batch_refuses_a_fitness_outside_the_unit_interval():
    class TooGood:
        kind = "too_good"

        def evaluate(self, genome, run_seed, individual_id):
            return 1.5

    pop = [make_individual(random_genome(np.random.default_rng(7)), 3, None)]
    with pytest.raises(EvaluationError) as e:
        evaluate_batch(pop, TooGood())
    [(ind, cause)] = e.value.failures
    assert ind == 3 and isinstance(cause, ValueError)
    assert str(cause) == "fitness 1.5 outside [0, 1]"


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_aggregates_failures(workers):
    class Exploding:
        kind = "exploding"

        def evaluate(self, genome, run_seed, individual_id):
            raise RuntimeError("boom")

    rng = np.random.default_rng(6)
    pop = [make_individual(random_genome(rng), i, None) for i in range(2)]
    with pytest.raises(EvaluationError) as e:
        evaluate_batch(pop, Exploding(), workers=workers)
    assert len(e.value.failures) == 2
    assert [i for i, _ in e.value.failures] == [0, 1]
