from collections import Counter

import numpy as np
import pytest

from evoarch.genome import (
    HEAD,
    INPUT,
    Genome,
    Node,
    conv_node,
    fc_node,
    maxpool_node,
    new_seed_genome,
)
from evoarch.selection import (
    UnevaluatedIndividual,
    aggressive_select,
    clone_refill,
    rank,
    sample_by_fitness_select,
    sample_uniform_select,
    tournament_select,
)
from helpers import make_individual, oracle_distance, oracle_select, random_population


def chain(middle, input_shape=(3, 32, 32)):
    nodes = {0: Node(INPUT)}
    preds = {0: ()}
    for i, nd in enumerate(middle, start=1):
        nodes[i] = nd
        preds[i] = (i - 1,)
    last = len(nodes)
    nodes[last] = Node(HEAD, {"classes": 10})
    preds[last] = (last - 1,)
    return Genome(input_shape, 10, nodes, preds)


# ------------------------------------------------------------------ rank

def test_rank_orders_by_fitness():
    g = new_seed_genome("global_pool")
    pop = [make_individual(g, 0, 0.5), make_individual(g, 1, 0.9), make_individual(g, 2, 0.7)]
    assert [i.fitness for i in rank(pop)] == [0.9, 0.7, 0.5]


def test_rank_tie_breaks_by_parameter_count():
    small = new_seed_genome("global_pool")                     # 40 params
    big = new_seed_genome("fully_connected", (1, 28, 28), 10)  # 79510 params
    pop = [make_individual(big, 0, 0.8), make_individual(small, 1, 0.8)]
    assert [i.id for i in rank(pop)] == [1, 0]


def test_rank_tie_breaks_by_id_last():
    g = new_seed_genome("global_pool")
    pop = [make_individual(g, 5, 0.8), make_individual(g, 2, 0.8)]
    assert [i.id for i in rank(pop)] == [2, 5]


def test_rank_empty():
    assert rank([]) == []


def test_rank_is_permutation():
    rng = np.random.default_rng(0)
    pop = random_population(rng, 12)
    assert Counter(i.id for i in rank(pop)) == Counter(i.id for i in pop)


def test_rank_rejects_unevaluated():
    pop = [make_individual(new_seed_genome("global_pool"), 0, None)]
    with pytest.raises(UnevaluatedIndividual):
        rank(pop)


# ------------------------------------------------------------- aggressive

def test_aggressive_hand_trace():
    # sequences ICCFH / ICPFH / IPPCH give pairwise distances
    # d(1,2)=1, d(1,3)=3, d(2,3)=2; with k=2, d=1 the scan admits
    # i1, filters i2, admits i3
    g1 = chain([conv_node(32), conv_node(32), fc_node(100)])
    g2 = chain([conv_node(32), maxpool_node(), fc_node(100)])
    g3 = chain([maxpool_node(), maxpool_node(), conv_node(32)])
    assert oracle_distance(g1, g2) == 1
    assert oracle_distance(g1, g3) == 3
    assert oracle_distance(g2, g3) == 2
    pop = [make_individual(g1, 1, 0.90), make_individual(g2, 2, 0.88),
           make_individual(g3, 3, 0.87)]
    picked = aggressive_select(rank(pop), k=2, distance_threshold=1)
    assert [i.id for i in picked] == [1, 3]


def test_aggressive_relaxation_fill_on_identical_genomes():
    g = new_seed_genome("global_pool")
    pop = [make_individual(g, 1, 0.9), make_individual(g, 2, 0.8),
           make_individual(g, 3, 0.7)]
    picked = aggressive_select(rank(pop), k=2, distance_threshold=1)
    assert [i.id for i in picked] == [1, 2]


def test_aggressive_zero_threshold_is_top_k_when_distinct():
    # conv counts 0..5 make all sequences pairwise distinct
    pop = []
    for n in range(6):
        g = chain([conv_node(8)] * n + [fc_node(50)])
        pop.append(make_individual(g, n, 0.1 * n))
    picked = aggressive_select(rank(pop), k=3, distance_threshold=0)
    assert [i.id for i in picked] == [5, 4, 3]


def test_aggressive_admitted_pairs_exceed_threshold():
    rng = np.random.default_rng(1)
    for _ in range(50):
        pop = random_population(rng, int(rng.integers(2, 13)))
        k = int(rng.integers(1, len(pop) + 1))
        d = int(rng.integers(0, 4))
        picked = aggressive_select(rank(pop), k, d)
        assert len(picked) == min(k, len(pop))
        assert {i.id for i in picked} <= {i.id for i in pop}
        strict = aggressive_select(rank(pop), len(pop), d)
        admitted = []
        for ind in strict:
            if all(oracle_distance(ind.genome, o.genome) > d for o in admitted):
                admitted.append(ind)


def test_aggressive_matches_oracle():
    rng = np.random.default_rng(2)
    for _ in range(300):
        pop = random_population(rng, int(rng.integers(1, 13)))
        k = int(rng.integers(1, len(pop) + 1))
        d = int(rng.integers(0, 4))
        got = [i.id for i in aggressive_select(rank(pop), k, d)]
        assert got == oracle_select(pop, k, d)


def test_aggressive_rejects_bad_k():
    with pytest.raises(ValueError):
        aggressive_select([], 0, 1)


# ------------------------------------------------------------- tournament

def test_tournament_picks_fitter_of_pair():
    g = new_seed_genome("global_pool")
    pop = [make_individual(g, 0, 0.9), make_individual(g, 1, 0.3)]
    for seed in range(10):
        assert tournament_select(pop, np.random.default_rng(seed)).id == 0


def test_tournament_best_of_three_frequency():
    g = new_seed_genome("global_pool")
    pop = [make_individual(g, 0, 0.9), make_individual(g, 1, 0.6),
           make_individual(g, 2, 0.3)]
    rng = np.random.default_rng(3)
    n = 100_000
    wins = sum(tournament_select(pop, rng).id == 0 for _ in range(n))
    # the best individual appears in 2 of the 3 equally likely pairs
    assert abs(wins / n - 2 / 3) < 0.01


def test_tournament_singleton_rejected():
    pop = [make_individual(new_seed_genome("global_pool"), 0, 0.5)]
    with pytest.raises(ValueError):
        tournament_select(pop, np.random.default_rng(0))


# ---------------------------------------------------------------- sampling

def test_sample_uniform_without_replacement():
    rng = np.random.default_rng(4)
    pop = random_population(rng, 8)
    for _ in range(50):
        picked = sample_uniform_select(pop, rng, 5)
        ids = [i.id for i in picked]
        assert len(set(ids)) == 5


def test_sample_uniform_first_draw_frequency():
    g = new_seed_genome("global_pool")
    pop = [make_individual(g, i, 0.5) for i in range(4)]
    rng = np.random.default_rng(5)
    n = 40_000
    counts = Counter(sample_uniform_select(pop, rng, 1)[0].id for _ in range(n))
    for i in range(4):
        assert abs(counts[i] / n - 0.25) < 0.01


def test_sample_by_fitness_first_draw_frequency():
    g = new_seed_genome("global_pool")
    pop = [make_individual(g, 0, 0.8), make_individual(g, 1, 0.2)]
    rng = np.random.default_rng(6)
    n = 40_000
    wins = sum(sample_by_fitness_select(pop, rng, 1)[0].id == 0 for _ in range(n))
    assert abs(wins / n - 0.8) < 0.01


def test_sample_by_fitness_zero_mass_falls_back_to_uniform():
    g = new_seed_genome("global_pool")
    pop = [make_individual(g, i, 0.0) for i in range(4)]
    rng = np.random.default_rng(7)
    n = 40_000
    counts = Counter(sample_by_fitness_select(pop, rng, 1)[0].id for _ in range(n))
    for i in range(4):
        assert abs(counts[i] / n - 0.25) < 0.01


def test_sampling_overdraw_rejected():
    pop = random_population(np.random.default_rng(8), 3)
    with pytest.raises(ValueError):
        sample_uniform_select(pop, np.random.default_rng(0), 4)
    with pytest.raises(ValueError):
        sample_by_fitness_select(pop, np.random.default_rng(0), 4)


# ------------------------------------------------------------ clone_refill

def test_clone_counts_even_split():
    pop = random_population(np.random.default_rng(9), 2)
    clones = clone_refill(pop, 10, next_id=100, generation=0)
    counts = Counter(c.parent_id for c in clones)
    assert counts == {pop[0].id: 5, pop[1].id: 5}


def test_clone_counts_remainder_to_best_ranked():
    pop = random_population(np.random.default_rng(10), 3)
    clones = clone_refill(pop, 10, next_id=100, generation=0)
    counts = [sum(c.parent_id == p.id for c in clones) for p in pop]
    assert counts == [4, 3, 3]


def test_clone_counts_all_one():
    pop = random_population(np.random.default_rng(11), 10)
    clones = clone_refill(pop, 10, next_id=100, generation=0)
    assert [c.parent_id for c in clones] == [p.id for p in pop]


def test_clone_bookkeeping():
    pop = random_population(np.random.default_rng(12), 3)
    clones = clone_refill(pop, 10, next_id=50, generation=4)
    assert [c.id for c in clones] == list(range(50, 60))
    assert all(c.born_generation == 4 for c in clones)
    by_parent = {p.id: p for p in pop}
    for c in clones:
        assert c.fitness == by_parent[c.parent_id].fitness
        assert c.genome == by_parent[c.parent_id].genome


def test_clone_counts_non_increasing():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(1, 11))
        pop = random_population(rng, n)
        clones = clone_refill(pop, 10, next_id=0, generation=0)
        assert len(clones) == 10
        counts = [sum(c.parent_id == p.id for c in clones) for p in pop]
        assert counts == sorted(counts, reverse=True)
        assert max(counts) - min(counts) <= 1


def test_clone_refill_empty_rejected():
    with pytest.raises(ValueError):
        clone_refill([], 10, next_id=0, generation=0)


def test_clone_refill_into_a_smaller_population_rejected():
    pop = random_population(np.random.default_rng(13), 3)
    with pytest.raises(ValueError, match="population size smaller than the selection"):
        clone_refill(pop, 2, next_id=0, generation=0)
