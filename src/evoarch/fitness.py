"""Fitness evaluators for individuals.

The surrogate scores a genome instantly from structural counts and makes
quick search experiments possible; the trained evaluator runs the real
training loop and reports validation accuracy.  The trained evaluator
derives each individual's seed from the run seed and its id, so results
never depend on evaluation order or worker count.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import cached_property

import numpy as np

from evoarch.data import split_sha256
from evoarch.genome import CONCAT, CONV, MAXPOOL, SKIP, ids_by_kind
from evoarch.trainer import DivergedTraining, train


class EvaluationError(Exception):
    """One or more individuals failed to evaluate."""

    def __init__(self, failures):
        self.failures = failures
        detail = "; ".join(f"individual {i}: {e!r}" for i, e in failures)
        super().__init__(detail)


def individual_seed(run_seed, individual_id):
    """Stable per-individual training seed folded from the run seed."""
    return int(np.random.SeedSequence((run_seed, individual_id)).generate_state(1)[0])


def evaluate_surrogate(genome):
    """Structural stand-in for accuracy, saturating in [0, 1].

    Rewards convolutions, skips, concatenations and pooling (skips,
    concatenations and pooling each only up to one per conv) and charges
    for convolutions past twelve.
    """
    by_kind = ids_by_kind(genome)
    c = len(by_kind[CONV])
    s = min(len(by_kind[SKIP]), c)
    n = min(len(by_kind[CONCAT]), c)
    p = min(len(by_kind[MAXPOOL]), c)
    raw = 1.0 - math.exp(-(0.15 * c + 0.08 * s + 0.08 * n + 0.05 * p))
    raw -= 0.02 * max(0, c - 12)
    return min(1.0, max(0.0, raw))


def evaluate_trained(genome, split, plan):
    """Validation accuracy after one training run; divergence scores 0."""
    try:
        _, acc = train(genome, split, plan)
        return float(acc)
    except DivergedTraining:
        return 0.0


class SurrogateEvaluator:
    """Structure-count evaluator; ignores seeds, needs no data."""

    kind = "surrogate"

    def evaluate(self, genome, run_seed, individual_id):
        return evaluate_surrogate(genome)


class TrainedEvaluator:
    """Trains each genome on a dataset split under a fixed plan."""

    kind = "trained"

    def __init__(self, split, plan):
        self.split = split
        self.plan = plan

    @cached_property
    def record(self):
        """What scores a run under this evaluator: the split's source (nulls for a
        hand-built split) and digest, and the plan's budget.  The plan's seed
        stays out, since evaluate replaces it for each individual."""
        source = self.split.source or {}
        return {"kind": self.kind, "dataset": source.get("dataset"), "subset_n": source.get("subset_n"),
                "split_seed": source.get("seed"), "split_sha256": split_sha256(self.split),
                "max_iters": self.plan.max_iters, "batch_size": self.plan.batch_size}

    def evaluate(self, genome, run_seed, individual_id):
        plan = replace(self.plan, seed=individual_seed(run_seed, individual_id))
        return evaluate_trained(genome, self.split, plan)


def evaluate_batch(individuals, evaluator, run_seed=0, workers=1, audit=None):
    """Fill in missing fitnesses, as Python floats; returns new individuals in input order.

    Already evaluated individuals pass through untouched.  An evaluation
    sees only the genome, run seed and individual id, so results never
    depend on the worker count.  Raises EvaluationError listing every failure.
    """

    def attempt(ind):
        """(ind with its fitness, wall seconds), or the exception the evaluation raised."""
        start = time.perf_counter()
        try:
            value = evaluator.evaluate(ind.genome, run_seed, ind.id)
            wall = time.perf_counter() - start
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"fitness {value} outside [0, 1]")
            return replace(ind, fitness=float(value)), wall
        except Exception as err:  # noqa: BLE001 aggregated below
            return err

    todo = [ind for ind in individuals if ind.fitness is None]
    if workers > 1 and len(todo) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(attempt, todo))
    else:
        outcomes = list(map(attempt, todo))
    failures = [(ind.id, out) for ind, out in zip(todo, outcomes) if isinstance(out, Exception)]
    if failures:
        raise EvaluationError(failures)
    if audit is not None:
        audit.extend(
            {"individual_id": ind.id, "evaluator": evaluator.kind,
             "fitness": ind.fitness, "wall_seconds": round(wall, 6)}
            for ind, wall in outcomes
        )
    scored = {ind.id: ind for ind, _ in outcomes}
    return [scored.get(ind.id, ind) for ind in individuals]
