"""Survivor selection over evaluated populations.

The primary strategy scans the fitness ranking greedily and admits an
individual only when its hamming distance to everyone already admitted
exceeds a threshold, which keeps the survivors structurally spread out.
Binary tournament and plain sampling strategies are provided as
baselines for comparison runs.
"""

from __future__ import annotations

from evoarch.genome import Individual, canonical_node_sequence, parameter_count, sequence_distance


class UnevaluatedIndividual(Exception):
    """An individual without a fitness reached a selection routine."""


def _check_evaluated(population):
    for ind in population:
        if ind.fitness is None:
            raise UnevaluatedIndividual(f"individual {ind.id} has no fitness")


def _rank_key(ind):
    # fitness descending, then smaller model, then older id
    return (-ind.fitness, parameter_count(ind.genome), ind.id)


def rank(population):
    """Population sorted best first; ties broken by parameter count, then id."""
    _check_evaluated(population)
    return sorted(population, key=_rank_key)


def aggressive_select(ranked, k, distance_threshold):
    """Greedy scan of a ranked population keeping only spread-out survivors.

    Walks the ranking best first and admits an individual iff its distance
    to every already admitted survivor strictly exceeds the threshold,
    stopping at k.  When the filter admits fewer than k, the best-ranked
    excluded individuals fill the remaining slots; output stays in rank
    order either way.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    admitted = []
    for ind in ranked:
        if len(admitted) == k:
            break
        seq = canonical_node_sequence(ind.genome)
        if all(sequence_distance(seq, canonical_node_sequence(o.genome)) > distance_threshold for o in admitted):
            admitted.append(ind)
    if len(admitted) < k:
        chosen = {ind.id for ind in admitted}
        chosen.update([ind.id for ind in ranked if ind.id not in chosen][: k - len(admitted)])
        admitted = [ind for ind in ranked if ind.id in chosen]
    return admitted


def tournament_select(population, rng):
    """Winner of one binary tournament between two distinct individuals."""
    _check_evaluated(population)
    if len(population) < 2:
        raise ValueError("tournament needs at least two individuals")
    i, j = rng.choice(len(population), size=2, replace=False)
    a, b = population[int(i)], population[int(j)]
    return a if _rank_key(a) < _rank_key(b) else b


def sample_uniform_select(population, rng, k):
    """k distinct individuals drawn uniformly without replacement."""
    if k > len(population):
        raise ValueError(f"cannot draw {k} from a population of {len(population)}")
    picks = rng.choice(len(population), size=k, replace=False)
    return [population[int(i)] for i in picks]


def sample_by_fitness_select(population, rng, k):
    """k distinct individuals drawn fitness-proportionally without
    replacement; falls back to uniform draws once remaining mass is zero."""
    _check_evaluated(population)
    if k > len(population):
        raise ValueError(f"cannot draw {k} from a population of {len(population)}")
    remaining = list(population)
    chosen = []
    for _ in range(k):
        total = sum(ind.fitness for ind in remaining)
        if total <= 0.0:
            idx = int(rng.integers(len(remaining)))
        else:
            u = rng.random() * total
            acc = 0.0
            idx = len(remaining) - 1
            for j, ind in enumerate(remaining):
                acc += ind.fitness
                if u < acc:
                    idx = j
                    break
        chosen.append(remaining.pop(idx))
    return chosen


def clone_refill(selected, population_size, next_id, generation):
    """Clone the k survivors back up to a full population.

    Every survivor gets floor(P/k) clones; the remainder goes one apiece
    to the best-ranked survivors.  Clones carry fresh ids from next_id,
    their parent's id and memoized fitness, and born_generation generation.
    """
    if not selected:
        raise ValueError("cannot refill from an empty selection")
    if population_size < len(selected):
        raise ValueError("population size smaller than the selection")
    base, extra = divmod(population_size, len(selected))
    clones = []
    nid = next_id
    for slot, parent in enumerate(selected):
        copies = base + (1 if slot < extra else 0)
        for _ in range(copies):
            clones.append(
                Individual(
                    id=nid,
                    genome=parent.genome,
                    fitness=parent.fitness,
                    born_generation=generation,
                    parent_id=parent.id,
                )
            )
            nid += 1
    return clones
