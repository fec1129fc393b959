"""Fitness evaluators for individuals, and what scores a run.

The surrogate scores a genome instantly from structural counts and makes
quick search experiments possible; the trained evaluator runs the real
training loop and reports validation accuracy.  The trained evaluator
derives each individual's seed from the run seed and its id, so results
never depend on evaluation order or worker count.  The rules of what
scores a run live here too: the trained record, the check of a stored
one, and whether an evaluator's split can feed a run's genomes.
"""

from __future__ import annotations

import math
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import cached_property

import numpy as np

from evoarch.data import split_sha256
from evoarch.genome import CONCAT, CONV, MAXPOOL, SKIP, _is_count, _is_int, ids_by_kind
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


# the keys of a TrainedEvaluator's record, in order, each testing what a stored record may hold
_TRAINED_RECORD = {
    "kind": lambda v: v == "trained",
    "dataset": lambda v: v is None or isinstance(v, str),
    "subset_n": lambda v: v is None or (_is_int(v) and v >= 1),
    "split_seed": lambda v: v is None or _is_count(v),
    "split_sha256": lambda v: isinstance(v, str) and re.fullmatch("[0-9a-f]{64}", v) is not None,
    "max_iters": _is_count,
    "batch_size": lambda v: _is_count(v) and v >= 1,
}


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
        return dict(zip(_TRAINED_RECORD, (self.kind, source.get("dataset"), source.get("subset_n"), source.get("seed"),
                                          split_sha256(self.split), self.plan.max_iters, self.plan.batch_size)))

    def evaluate(self, genome, run_seed, individual_id):
        plan = replace(self.plan, seed=individual_seed(run_seed, individual_id))
        return evaluate_trained(genome, self.split, plan)


def record_of(evaluator):
    """What a run scored by evaluator records as having scored it: its record if it has one, else its kind."""
    return getattr(evaluator, "record", evaluator.kind)


def record_fault(record):
    """Why a stored evaluator record names nothing that scores a run, or None:
    it must be a kind, or a TrainedEvaluator's record."""
    if isinstance(record, str):
        return None
    if not (isinstance(record, dict) and record.keys() == _TRAINED_RECORD.keys()):
        return f"must be a string or a trained record with keys {', '.join(_TRAINED_RECORD)}"
    bad = [key for key, ok in _TRAINED_RECORD.items() if not ok(record[key])]
    return f"has a bad {', '.join(bad)}" if bad else None


def record_differences(stored, given):
    """The sorted keys in which two evaluator records differ; a bare kind is a record of that kind alone."""
    stored, given = ({"kind": r} if isinstance(r, str) else r for r in (stored, given))
    return sorted({key for key, _ in stored.items() ^ given.items()})


def split_misfit(evaluator, input_shape, num_classes):
    """Why evaluator's split cannot feed genomes that take input_shape and
    num_classes, or None; an evaluator without a split feeds any genome."""
    split = getattr(evaluator, "split", None)
    if split is None or (split.input_shape, split.num_classes) == (input_shape, num_classes):
        return None
    return (f"genome expects input {input_shape} with {num_classes} classes, "
            f"dataset provides {split.input_shape} with {split.num_classes}")


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
