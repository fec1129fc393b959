"""Regenerate the benchmark's genome fixtures.

Run from the repository root:

    python3 perfbench/fixtures/make_fixtures.py

It rewrites ``bench_genome.json`` (the fixed ICCCKCSCCGH training genome)
and ``population/genome_NN.json`` (the train-population set).  The
population is every genome the seeded mutation walk below produces, in
order, with nothing dropped for speed or for diverging in training.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))

import numpy as np  # noqa: E402

from evoarch.genome import (  # noqa: E402
    CONCAT,
    GLOBALPOOL,
    HEAD,
    INPUT,
    SKIP,
    Genome,
    Node,
    canonical_node_sequence,
    conv_node,
    new_seed_genome,
    serialize,
    validate,
)
from evoarch.mutation import ExhaustedRetries, MutationWeights, mutate_until_valid  # noqa: E402

BENCH_SEQUENCE = "ICCCKCSCCGH"
POPULATION_SEED = 1806
POPULATION_SIZE = 8
POPULATION_STEPS = (6, 14)  # mutations per genome, drawn uniformly from this range
CIFAR_SHAPE = (3, 32, 32)


def bench_genome():
    """Desk-scale MNIST genome: a concat of a 3x3 and a 5x5 branch, then a skip."""
    nodes = {
        0: Node(INPUT, {}),
        1: conv_node(16, 3),
        2: conv_node(16, 3),
        3: conv_node(16, 5),
        4: Node(CONCAT, {}),
        5: conv_node(32, 3),
        6: Node(SKIP, {}),
        7: conv_node(32, 3),
        8: conv_node(32, 3),
        9: Node(GLOBALPOOL, {}),
        10: Node(HEAD, {"classes": 10}),
    }
    preds = {0: (), 1: (0,), 2: (1,), 3: (1,), 4: (2, 3), 5: (4,), 6: (4, 5), 7: (6,), 8: (7,), 9: (8,), 10: (9,)}
    genome = Genome((1, 28, 28), 10, nodes, preds)
    validate(genome)
    if canonical_node_sequence(genome) != BENCH_SEQUENCE:
        raise ValueError(f"benchmark genome reads {canonical_node_sequence(genome)}, not {BENCH_SEQUENCE}")
    return genome


def population():
    """Seeded mutation walks from the two seed genome forms (3x32x32, 10 classes)."""
    genomes = []
    for i in range(POPULATION_SIZE):
        rng = np.random.default_rng(np.random.SeedSequence((POPULATION_SEED, i)))
        kind = "global_pool" if i % 2 == 0 else "fully_connected"
        genome = new_seed_genome(kind, CIFAR_SHAPE, 10)
        steps = int(rng.integers(POPULATION_STEPS[0], POPULATION_STEPS[1] + 1))
        for step in range(steps):
            weights = MutationWeights.early() if step < steps // 2 else MutationWeights.late()
            try:
                genome = mutate_until_valid(genome, weights, rng)
            except ExhaustedRetries:
                break
        validate(genome)
        genomes.append(genome)
    return genomes


def main():
    with open(os.path.join(HERE, "bench_genome.json"), "w") as fh:
        fh.write(serialize(bench_genome()))
    pop_dir = os.path.join(HERE, "population")
    os.makedirs(pop_dir, exist_ok=True)
    for i, genome in enumerate(population()):
        with open(os.path.join(pop_dir, f"genome_{i:02d}.json"), "w") as fh:
            fh.write(serialize(genome))


if __name__ == "__main__":
    main()
