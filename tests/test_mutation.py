import gc
import hashlib
import pickle
from collections import Counter
from types import MappingProxyType

import numpy as np
import pytest

from evoarch import genome as genome_module
from evoarch import mutation
from evoarch.genome import (
    CHANNEL_MISMATCH,
    CONCAT,
    CONV,
    GLOBALPOOL,
    HEAD,
    INPUT,
    NOT_POSITIVE,
    SKIP,
    SPATIAL_MISMATCH,
    Genome,
    InvalidGenome,
    Node,
    ShapeError,
    _derived,
    canonical_node_sequence,
    chain_genome,
    conv_node,
    dropout_node,
    fc_node,
    hamming_distance,
    ids_by_kind,
    infer_shapes,
    is_valid,
    maxpool_node,
    new_seed_genome,
    param_shapes,
    parameter_count,
    serialize,
    successors,
    topological_order,
    validate,
)
from evoarch.fitness import evaluate_surrogate
from evoarch.mutation import (
    CHANNEL_MENU,
    FC_UNITS_MENU,
    GROWTH_KINDS,
    MAX_RETRIES,
    MUTATION_KINDS,
    ExhaustedRetries,
    MutationWeights,
    RepairFailure,
    apply_mutation,
    mutate_until_valid,
    repair,
    sample_mutation,
)
from helpers import random_genome


def chain(middle, input_shape=(3, 32, 32), num_classes=10):
    return chain_genome(middle, input_shape, num_classes)


def fig_chain():
    """input -> conv -> conv -> pool -> fc -> head."""
    return chain([conv_node(32), conv_node(32), maxpool_node(), fc_node(100)])


# ---------------------------------------------------------------- sampling

def test_exactly_fifteen_kinds():
    assert len(MUTATION_KINDS) == 15
    assert len(set(MUTATION_KINDS)) == 15
    for prefix in ("add_", "remove_"):
        for op in ("convolution", "pooling", "dropout", "skip", "concatenate", "fully_connected"):
            assert prefix + op in MUTATION_KINDS
    for hp in ("channel_number", "filter_size", "stride"):
        assert "alter_" + hp in MUTATION_KINDS


def test_early_weights_double_growth_kinds():
    w = MutationWeights.early()
    assert len(GROWTH_KINDS) == 6
    for k in MUTATION_KINDS:
        assert w.weights[k] == (2.0 if k in GROWTH_KINDS else 1.0)


def test_late_weights_uniform():
    w = MutationWeights.late()
    assert set(w.weights.values()) == {1.0}


def test_sampling_frequencies_match_weights():
    rng = np.random.default_rng(0)
    early = MutationWeights.early()
    n = 1_000_000
    counts = Counter(sample_mutation(rng, early) for _ in range(n))
    assert abs(counts["add_convolution"] / n - 2 / 21) < 0.005
    assert abs(counts["add_pooling"] / n - 1 / 21) < 0.005
    assert abs(counts["alter_stride"] / n - 2 / 21) < 0.005

    late = MutationWeights.late()
    counts = Counter(sample_mutation(rng, late) for _ in range(n))
    for k in MUTATION_KINDS:
        assert abs(counts[k] / n - 1 / 15) < 0.005


def test_sampling_deterministic():
    w = MutationWeights.early()
    a = [sample_mutation(np.random.default_rng(7), w) for _ in range(50)]
    b = [sample_mutation(np.random.default_rng(7), w) for _ in range(50)]
    assert a == b


def test_empty_weights_rejected():
    with pytest.raises(ValueError):
        sample_mutation(np.random.default_rng(0), MutationWeights({}))


@pytest.mark.parametrize("weights", [{"add_skip": 1.0, "remove_skip": 0.0},
                                     {"add_skip": -1.0}, {"split_node": 1.0}])
def test_non_positive_weights_rejected(weights):
    with pytest.raises(ValueError):
        sample_mutation(np.random.default_rng(0), MutationWeights(weights))


# the kinds sort in MUTATION_KINDS order, not in the weights' own order
CUSTOM_WEIGHTS = {"remove_pooling": 0.7, "add_skip": 0.2, "add_convolution": 0.1}


@pytest.mark.parametrize("stage,seed,digest", [
    ("early", 0, "edc6ab95483c2082820b316fd506211028449507050fe14717b8f89e4bbea533"),
    ("early", 7, "bc530e0bb6f701b93f82b04fa4245a50931e2cd0cd7ebf71ca2fcbeec668f981"),
    ("late", 0, "f799d38482b797fd32f61b6bc65288b93b3e947fea4ec205a47f266afdab3cf9"),
    ("late", 7, "a54347b93d47b9230116199e5789c5a5b385b9d29c61ee22af3759583a0b244b"),
    ("custom", 0, "6f73e4f4b954378497b74a900760a6381a89363e03fc9c7cee0b10af0001a472"),
    ("custom", 7, "539ec5fbd5492ec27ba10532506c4b06fefe687e6899a028e798770c7efd5321"),
])
def test_sample_mutation_draws_pinned(stage, seed, digest):
    w = MutationWeights(CUSTOM_WEIGHTS) if stage == "custom" else getattr(MutationWeights, stage)()
    rng = np.random.default_rng(seed)
    draws = "\n".join(sample_mutation(rng, w) for _ in range(200))
    assert hashlib.sha256(draws.encode()).hexdigest() == digest


# ----------------------------------------------------------- add operators

def test_add_convolution_on_seed():
    rng = np.random.default_rng(0)
    child = apply_mutation(new_seed_genome("global_pool"), "add_convolution", rng)
    assert canonical_node_sequence(child) == "ICGH"
    conv = next(n for n in child.nodes.values() if n.kind == CONV)
    assert conv.params == {"channels": 32, "filter": 3, "stride": 1, "pad": 1}


def test_add_convolution_on_conv_chain():
    # every legal insertion adds one C; the trace through the conv->pool
    # edge must appear among seeded draws
    seqs = set()
    for seed in range(60):
        child = apply_mutation(fig_chain(), "add_convolution", np.random.default_rng(seed))
        assert child is not None
        validate(child)
        seq = canonical_node_sequence(child)
        assert seq.count("C") == 3 and len(seq) == 7
        seqs.add(seq)
    assert "ICCCPFH" in seqs


def test_add_pooling_follows_a_conv():
    child = apply_mutation(chain([conv_node(32), fc_node(100)]), "add_pooling",
                           np.random.default_rng(0))
    assert canonical_node_sequence(child) == "ICPFH"
    pool = next(n for n in child.nodes.values() if n.kind == "maxpool")
    assert pool.params == {"kernel": 2, "stride": 2}


def test_add_pooling_rejected_without_conv():
    assert apply_mutation(new_seed_genome("global_pool"), "add_pooling",
                          np.random.default_rng(0)) is None


def test_add_fully_connected_units_menu():
    seen = set()
    for seed in range(40):
        child = apply_mutation(new_seed_genome("global_pool"), "add_fully_connected",
                               np.random.default_rng(seed))
        validate(child)
        fc = next(n for n in child.nodes.values() if n.kind == "fc")
        seen.add(fc.params["units"])
    assert seen <= set(FC_UNITS_MENU)
    assert len(seen) > 1


def test_add_dropout_after_fc_only():
    g = new_seed_genome("fully_connected", (1, 28, 28), 10)
    child = apply_mutation(g, "add_dropout", np.random.default_rng(0))
    assert "FD" in canonical_node_sequence(child)
    drop = next(n for n in child.nodes.values() if n.kind == "dropout")
    assert drop.params["ratio"] == 0.5
    assert apply_mutation(new_seed_genome("global_pool"), "add_dropout",
                          np.random.default_rng(0)) is None


def test_add_skip_requires_equal_shapes():
    assert apply_mutation(new_seed_genome("global_pool"), "add_skip",
                          np.random.default_rng(0)) is None
    g = chain([conv_node(32), conv_node(32), Node(GLOBALPOOL)])
    child = apply_mutation(g, "add_skip", np.random.default_rng(0))
    assert child is not None
    validate(child)
    assert canonical_node_sequence(child).count("S") == 1


def test_add_concatenate_allows_channel_mismatch():
    g = chain([conv_node(8), conv_node(16), Node(GLOBALPOOL)])
    child = apply_mutation(g, "add_concatenate", np.random.default_rng(0))
    assert child is not None
    validate(child)
    assert canonical_node_sequence(child).count("K") == 1


# -------------------------------------------------------- remove operators

def test_remove_convolution_on_seed_rejected():
    assert apply_mutation(new_seed_genome("global_pool"), "remove_convolution",
                          np.random.default_rng(0)) is None


def test_remove_convolution_splices():
    g = fig_chain()
    child = apply_mutation(g, "remove_convolution", np.random.default_rng(0))
    validate(child)
    assert canonical_node_sequence(child) == "ICPFH"


def test_add_remove_duality():
    # adding a node then removing a node of that kind restores the
    # canonical sequence (the added node is the only one of its kind)
    cases = [
        (new_seed_genome("fully_connected", (1, 28, 28), 10), "add_dropout", "remove_dropout"),
        (chain([conv_node(32), fc_node(100)]), "add_pooling", "remove_pooling"),
        (new_seed_genome("global_pool"), "add_convolution", "remove_convolution"),
    ]
    for g, add_kind, remove_kind in cases:
        before = canonical_node_sequence(g)
        grown = apply_mutation(g, add_kind, np.random.default_rng(1))
        shrunk = apply_mutation(grown, remove_kind, np.random.default_rng(2))
        assert canonical_node_sequence(shrunk) == before


def test_remove_skip_restores_original_wiring():
    g = chain([conv_node(32), conv_node(32), Node(GLOBALPOOL)])
    before = canonical_node_sequence(g)
    grown = apply_mutation(g, "add_skip", np.random.default_rng(3))
    shrunk = apply_mutation(grown, "remove_skip", np.random.default_rng(4))
    validate(shrunk)
    assert canonical_node_sequence(shrunk) == before


# --------------------------------------------------------- alter operators

def test_alter_channel_number_redraws_from_menu():
    g = chain([conv_node(32), Node(GLOBALPOOL)])
    for seed in range(20):
        child = apply_mutation(g, "alter_channel_number", np.random.default_rng(seed))
        conv = next(n for n in child.nodes.values() if n.kind == CONV)
        assert conv.params["channels"] in CHANNEL_MENU
        assert conv.params["channels"] != 32


def test_alter_filter_size_recomputes_pad():
    g = chain([conv_node(32, 3, 1, 1), Node(GLOBALPOOL)])
    for seed in range(20):
        child = apply_mutation(g, "alter_filter_size", np.random.default_rng(seed))
        conv = next(n for n in child.nodes.values() if n.kind == CONV)
        f = conv.params["filter"]
        assert f in (1, 5)
        assert conv.params["pad"] == f // 2
        validate(child)


def test_alter_stride_flips_value():
    g = chain([conv_node(32, 3, 1, 1), Node(GLOBALPOOL)])
    child = apply_mutation(g, "alter_stride", np.random.default_rng(0))
    conv = next(n for n in child.nodes.values() if n.kind == CONV)
    assert conv.params["stride"] == 2
    validate(child)


def test_alter_rejected_without_conv():
    g = new_seed_genome("global_pool")
    for kind in ("alter_channel_number", "alter_filter_size", "alter_stride"):
        assert apply_mutation(g, kind, np.random.default_rng(0)) is None


def test_unknown_kind_raises():
    with pytest.raises(ValueError):
        apply_mutation(new_seed_genome("global_pool"), "transmogrify", np.random.default_rng(0))


# ------------------------------------------------------------------ repair

def join_mismatch(channels_a, channels_b):
    """skip over two stacked convs with differing channel counts."""
    nodes = {
        0: Node(INPUT),
        1: conv_node(channels_a),
        2: conv_node(channels_b),
        3: Node(SKIP),
        4: Node(GLOBALPOOL),
        5: Node(HEAD, {"classes": 10}),
    }
    preds = {0: (), 1: (0,), 2: (1,), 3: (1, 2), 4: (3,), 5: (4,)}
    return Genome((3, 16, 16), 10, nodes, preds)


def test_repair_channel_mismatch_inserts_one_by_one_conv():
    g = join_mismatch(32, 48)
    fixed, fixes = repair(g)
    validate(fixed)
    assert fixes == 1
    added = [n for i, n in fixed.nodes.items() if i not in g.nodes]
    assert len(added) == 1
    assert added[0].kind == CONV
    assert added[0].params["filter"] == 1
    assert added[0].params["channels"] == 48
    assert infer_shapes(fixed)[3][0] == 48


def test_repair_spatial_mismatch_bumps_pad():
    # branch A: conv+pool -> (8,16,16); branch B: stride-2 conv pad 0 ->
    # (8,15,15); one pad pixel on B makes the skip legal
    nodes = {
        0: Node(INPUT),
        1: conv_node(8, 3, 1, 1),
        2: maxpool_node(2, 2),
        3: conv_node(8, 3, 2, 0),
        4: Node(SKIP),
        5: Node(GLOBALPOOL),
        6: Node(HEAD, {"classes": 10}),
    }
    preds = {0: (), 1: (0,), 2: (1,), 3: (0,), 4: (2, 3), 5: (4,), 6: (5,)}
    g = Genome((3, 32, 32), 10, nodes, preds)
    fixed, fixes = repair(g)
    validate(fixed)
    assert fixes == 1
    assert len(fixed.nodes) == len(g.nodes)
    assert fixed.nodes[3].params["pad"] == 1
    assert infer_shapes(fixed)[4] == (8, 16, 16)


def test_repair_valid_genome_is_fixed_point():
    g = fig_chain()
    fixed, fixes = repair(g)
    assert fixes == 0
    assert fixed == g


def test_repair_failure_when_unfixable():
    # spatial gap of 16 vs 4 exceeds any pad bump and no channel fix applies
    nodes = {
        0: Node(INPUT),
        1: conv_node(8, 3, 1, 1),
        2: maxpool_node(4, 4),
        3: maxpool_node(4, 4),
        4: Node(SKIP),
        5: Node(GLOBALPOOL),
        6: Node(HEAD, {"classes": 10}),
    }
    preds = {0: (), 1: (0,), 2: (1,), 3: (2,), 4: (1, 3), 5: (4,), 6: (5,)}
    g = Genome((3, 16, 16), 10, nodes, preds)
    with pytest.raises(RepairFailure):
        repair(g)


# one minimal genome per fault kind repair fixes, and the node the fix lands on
REPAIRABLE = {
    NOT_POSITIVE: (chain([conv_node(8, 5, 1, 0), Node(GLOBALPOOL)], input_shape=(3, 4, 4)), 1),
    SPATIAL_MISMATCH: (Genome((3, 8, 8), 10, {0: Node(INPUT), 1: conv_node(8, 3, 1, 1), 2: conv_node(8, 3, 1, 0),
                                              3: Node(CONCAT), 4: Node(GLOBALPOOL), 5: Node(HEAD, {"classes": 10})},
                              {0: (), 1: (0,), 2: (0,), 3: (1, 2), 4: (3,), 5: (4,)}), 2),
    CHANNEL_MISMATCH: (join_mismatch(8, 16), None),
}


@pytest.mark.parametrize("kind", list(REPAIRABLE))
def test_repair_dispatches_on_the_fault_kind_not_its_message(kind, monkeypatch):
    g, fixed_at = REPAIRABLE[kind]
    with pytest.raises(ShapeError) as e:
        infer_shapes(g)
    assert e.value.kind == kind

    def reworded(genome):
        try:
            return infer_shapes(genome)
        except ShapeError as err:
            other = ShapeError(err.node_id, err.kind, "reworded")
            other.shapes = err.shapes
            raise other from err

    monkeypatch.setattr(mutation, "infer_shapes", reworded)
    fixed, fixes = repair(g)
    validate(fixed)
    assert fixes == 1
    if kind == CHANNEL_MISMATCH:  # a 1x1 conv to 16 channels on the narrow branch
        assert [(fixed.nodes[i].params["filter"], fixed.nodes[i].params["channels"])
                for i in fixed.nodes.keys() - g.nodes.keys()] == [(1, 16)]
    else:
        assert fixed.nodes[fixed_at].params["pad"] == g.nodes[fixed_at].params["pad"] + 1


# ------------------------------------------------------------------ purity

def test_apply_mutation_leaves_input_untouched():
    g = fig_chain()
    text_before = canonical_node_sequence(g)
    nodes_before = dict(g.nodes)
    for kind in MUTATION_KINDS:
        apply_mutation(g, kind, np.random.default_rng(0))
    assert g.nodes == nodes_before
    assert canonical_node_sequence(g) == text_before


def test_apply_mutation_deterministic():
    g = fig_chain()
    for kind in MUTATION_KINDS:
        a = apply_mutation(g, kind, np.random.default_rng(11))
        b = apply_mutation(g, kind, np.random.default_rng(11))
        assert a == b


# ------------------------------------------------------- mutate_until_valid

def test_mutate_until_valid_on_seed():
    rng = np.random.default_rng(0)
    child = mutate_until_valid(new_seed_genome("global_pool"), MutationWeights.early(), rng)
    assert is_valid(child)
    assert len(child.nodes) == 4  # removals always reject on a seed
    assert hamming_distance(child, new_seed_genome("global_pool")) >= 1


def test_mutate_until_valid_exhausts():
    w = MutationWeights({"remove_skip": 1.0})
    with pytest.raises(ExhaustedRetries):
        mutate_until_valid(new_seed_genome("global_pool"), w, np.random.default_rng(0))


def test_mutate_until_valid_attempt_audit():
    attempts = []
    w = MutationWeights({"remove_skip": 1.0, "add_convolution": 1e-9})
    try:
        mutate_until_valid(new_seed_genome("global_pool"), w, np.random.default_rng(0),
                           attempts=attempts)
    except ExhaustedRetries:
        pass
    assert len(attempts) == MAX_RETRIES
    for rec in attempts:
        assert set(rec) == {"kind", "accepted", "repair_fixes"}


def test_apply_mutation_outputs_pinned():
    # every kind on 40 random genomes: sites, repairs and rejections as bytes
    rng = np.random.default_rng(11)
    h = hashlib.sha256()
    accepted = 0
    for _ in range(40):
        g = random_genome(rng, steps=8)
        for kind in MUTATION_KINDS:
            child = apply_mutation(g, kind, rng)
            accepted += child is not None
            h.update(b"None\n" if child is None else serialize(child).encode())
    assert accepted == 356
    assert h.hexdigest() == "d23d11daf7772df34f5bee696d2782bac222eba31f3b2ba2c57b1c9af0dcb1df"


# --------------------------------------------------------- mutation sites

SITE_HELPERS = ("_trunk_edges", "_ancestors", "_depths", "ids_by_kind", "_join_pairs")


def sites_parent():
    """A parent with a site for every operator; the concat's two inputs
    are not ancestors of each other, so removing it compares depths."""
    nodes = {0: Node(INPUT), 1: conv_node(8), 2: conv_node(8), 3: Node(CONCAT), 4: conv_node(16),
             5: Node(SKIP), 6: maxpool_node(), 7: Node(GLOBALPOOL), 8: fc_node(100),
             9: dropout_node(), 10: Node(HEAD, {"classes": 10})}
    preds = {0: (), 1: (0,), 2: (0,), 3: (1, 2), 4: (3,), 5: (3, 4), 6: (5,), 7: (6,),
             8: (7,), 9: (8,), 10: (9,)}
    return Genome((3, 16, 16), 10, nodes, preds)


def test_sites_derived_once_per_parent(monkeypatch):
    calls = Counter()
    for name in SITE_HELPERS:
        build = getattr(mutation, name).__wrapped__

        def counted(genome, build=build, name=name):
            calls[name] += 1
            return build(genome)

        counted.__name__ = name
        monkeypatch.setattr(mutation, name, _derived(counted))
    parent = sites_parent()
    validate(parent)
    for seed in (1, 2):  # two attempts of every kind on one parent
        for kind in MUTATION_KINDS:
            apply_mutation(parent, kind, np.random.default_rng(seed))
    assert calls == {name: 1 for name in SITE_HELPERS}


def _deeply_frozen(value):
    if isinstance(value, (int, str)):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(_deeply_frozen(v) for v in value)
    if isinstance(value, MappingProxyType):
        return all(_deeply_frozen(k) and _deeply_frozen(v) for k, v in value.items())
    return False


def test_sites_are_read_only():
    g = sites_parent()
    for name in SITE_HELPERS:
        assert _deeply_frozen(getattr(mutation, name)(g)), name
    with pytest.raises(TypeError):
        ids_by_kind(g)[CONV] = ()
    with pytest.raises(AttributeError):
        mutation._ancestors(g)[4].add(9)


def test_sites_match_a_memo_free_copy_and_the_old_sites():
    g = sites_parent()
    sites = {name: getattr(mutation, name)(g) for name in SITE_HELPERS}
    copy = pickle.loads(pickle.dumps(g))
    assert copy._memo == {}
    for name in SITE_HELPERS:
        fresh = getattr(mutation, name)(copy)
        assert fresh == sites[name] and fresh is not sites[name], name
    # the sites the per-call scans found before they were memoized
    assert sites["_trunk_edges"] == ((0, 1, 0), (0, 2, 0), (1, 3, 0), (2, 3, 1), (3, 4, 0),
                                     (3, 5, 0), (4, 5, 1), (5, 6, 0), (6, 7, 0))
    assert dict(sites["_ancestors"]) == {0: set(), 1: {0}, 2: {0}, **{i: set(range(i)) for i in range(3, 11)}}
    assert dict(sites["_depths"]) == {0: 0, 1: 1, 2: 1, **{i: i - 1 for i in range(3, 11)}}
    assert dict(sites["ids_by_kind"]) == {"input": (0,), "conv": (1, 2, 4), "concat": (3,), "skip": (5,),
                                          "maxpool": (6,), "globalpool": (7,), "fc": (8,),
                                          "dropout": (9,), "head": (10,)}
    assert sites["_join_pairs"][SKIP] == ((3, 4), (3, 5), (4, 5))
    assert sites["_join_pairs"][CONCAT] == ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (0, 4), (1, 4),
                                            (2, 4), (3, 4), (0, 5), (1, 5), (2, 5), (3, 5), (4, 5))


def test_a_params_only_child_shares_its_parents_kind_index():
    parent = sites_parent()
    child = mutation._with_params(parent, 1, {**parent.nodes[1].params, "channels": 16})
    assert ids_by_kind(child) is ids_by_kind(parent)


def test_an_edit_childs_kind_index_matches_a_memo_free_copy():
    parent = sites_parent()
    ids_by_kind(parent)
    child = mutation._insert_on_edge(parent, 3, 4, 0, conv_node(8))
    fresh = ids_by_kind(pickle.loads(pickle.dumps(child)))
    assert ids_by_kind(child) == fresh and ids_by_kind(child) is not fresh
    assert fresh[CONV] == (1, 2, 4, 11)


def test_surrogate_of_the_sites_parent_keeps_its_value():
    # a literal, so any change to how the surrogate counts kinds shows here
    assert evaluate_surrogate(sites_parent()) == 0.4831486655083007


# ------------------------------------------------------- params-only edits

GRAPH_DERIVED = (successors, topological_order, canonical_node_sequence,
                 mutation._ancestors, mutation._depths, mutation._trunk_edges, ids_by_kind)
SHAPE_DERIVED = (infer_shapes, param_shapes, parameter_count, mutation._join_pairs)
ALTER_KINDS = ("alter_channel_number", "alter_filter_size", "alter_stride")


def params_only_children(seed, parents=40):
    """(parent, child) pairs from the three alter kinds and a pad bump on
    random parents, every derived entry of each parent computed first."""
    rng = np.random.default_rng(seed)
    for _ in range(parents):
        parent = random_genome(rng, steps=int(rng.integers(1, 12)))
        convs = ids_by_kind(parent)[CONV]
        if not convs:
            continue
        for fn in GRAPH_DERIVED + SHAPE_DERIVED:
            fn(parent)
        for kind in ALTER_KINDS:
            child = mutation._OPERATORS[kind](parent, rng)
            if child is not None:
                yield parent, child
        yield parent, mutation._bump_pad(parent, convs[int(rng.integers(len(convs)))], {})


def shape_fault(fn, genome):
    """fn(genome), or the (node, kind, shapes) of the ShapeError it raises."""
    try:
        return fn(genome)
    except ShapeError as err:
        return err.node_id, err.kind, dict(err.shapes)


def test_params_only_children_share_the_parents_graph_data():
    pairs = list(params_only_children(25))
    assert len(pairs) > 100
    shape_names = {fn.__name__ for fn in SHAPE_DERIVED}
    for parent, child in pairs:
        assert not child._memo.keys() & shape_names
        fresh = pickle.loads(pickle.dumps(child))
        for fn in GRAPH_DERIVED:
            assert fn(child) is fn(parent), fn.__name__
            assert fn(child) == fn(fresh), fn.__name__
        for fn in SHAPE_DERIVED:
            assert shape_fault(fn, child) == shape_fault(fn, fresh), fn.__name__


def test_params_only_child_of_a_faulty_genome_raises_the_same_shape_error():
    parent = join_mismatch(32, 48)
    topological_order(parent)
    for params in (parent.nodes[1].params, {**parent.nodes[1].params, "pad": 2}):
        child = mutation._with_params(parent, 1, dict(params))
        assert topological_order(child) is topological_order(parent)
        fault = shape_fault(infer_shapes, pickle.loads(pickle.dumps(child)))
        assert fault[:2] == (3, CHANNEL_MISMATCH)
        assert shape_fault(infer_shapes, child) == fault


# ------------------------------------------------------------ edit children

def derived_view(genome):
    """Every GRAPH_DERIVED datum, shapes in order (or the ShapeError's node,
    kind and shapes) and the validate verdict with its message."""
    try:
        shapes = list(infer_shapes(genome).items())
    except ShapeError as err:
        shapes = err.node_id, err.kind, list(err.shapes.items())
    try:
        validate(genome)
        verdict = None
    except InvalidGenome as err:
        verdict = str(err)
    return tuple(fn(genome) for fn in GRAPH_DERIVED), shapes, verdict


def edit_attempts(seed, parents, monkeypatch):
    """(validated parent, every edit child one operator and its repair made,
    in creation order) for every operator on random parents."""
    made = []
    edit = Genome.edit
    monkeypatch.setattr(Genome, "edit", lambda *args, **kwargs: made.append(edit(*args, **kwargs)) or made[-1])
    rng = np.random.default_rng(seed)
    for _ in range(parents):
        parent = random_genome(rng, steps=int(rng.integers(0, 30)), input_shape=(3, 32, 32))
        validate(parent)
        for kind in MUTATION_KINDS:
            made.clear()
            child = mutation._OPERATORS[kind](parent, rng)
            if child is not None:
                try:
                    repair(child)
                except RepairFailure:
                    pass
                yield parent, list(made)


def test_edit_children_derive_what_a_memo_free_copy_derives(monkeypatch):
    checked = 0
    for _, children in edit_attempts(31, 250, monkeypatch):
        for child in children:
            # the recorded ids are exactly those that differ from the base:
            # fewer give stale shapes, more lose sharing
            base, ids = child._memo[genome_module._EDIT]
            differs = {i for i, n in child.nodes.items()
                       if n is not base.nodes.get(i) or child.preds[i] is not base.preds.get(i)}
            assert ids == differs | (base.nodes.keys() - child.nodes.keys())
            assert derived_view(child) == derived_view(pickle.loads(pickle.dumps(child)))
            checked += 1
    assert checked > 2500


def test_accepted_edit_children_reuse_their_parents_data(monkeypatch):
    counted = []
    check_params = genome_module._check_params
    monkeypatch.setattr(genome_module, "_check_params", lambda i, n: counted.append(n) or check_params(i, n))
    accepted = 0
    for parent, children in edit_attempts(32, 40, monkeypatch):
        child = children[-1]
        counted.clear()
        if child == parent or not is_valid(child):
            continue
        accepted += 1
        assert len(counted) == sum(n is not parent.nodes.get(i) for i, n in child.nodes.items())
        shapes, parent_shapes = infer_shapes(child), infer_shapes(parent)
        touched = {i for i in child.nodes
                   if child.nodes[i] is not parent.nodes.get(i) or child.preds[i] != parent.preds.get(i)}
        changed = {i for i, s in shapes.items() if s != parent_shapes.get(i)}
        for i in shapes:
            if i not in touched and changed.isdisjoint(child.preds[i]):
                assert shapes[i] is parent_shapes[i]
        assert genomes_referenced(child._memo) == []
        fresh = Genome(child.input_shape, child.num_classes, child.nodes, child.preds)
        assert fresh._memo == {} and pickle.loads(pickle.dumps(child))._memo == {}
    assert accepted > 200


def genomes_referenced(obj):
    """Every Genome reachable from obj through containers."""
    found, seen, stack = [], set(), [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, Genome):
            found.append(o)
        elif isinstance(o, (dict, list, tuple, set, frozenset, MappingProxyType)):
            stack.extend(gc.get_referents(o))
    return found


def tail_parent():
    """input -> conv -> globalpool -> dropout -> fc -> head, validated."""
    g = chain([conv_node(8), Node(GLOBALPOOL), dropout_node(), fc_node(50)])
    validate(g)
    return g


def _left_naming_a_removed_id(g):
    return g.edit(removed=(2,))  # the dropout still reads the removed globalpool


def _dropout_fed_by_the_trunk(g):
    return g.edit(preds={3: (1,)}, removed=(2,))


def _dropout_fed_by_a_retyped_node(g):
    return g.edit({2: maxpool_node()})  # the dropout itself is untouched


def _no_path_to_the_head(g):
    return g.edit(preds={5: (3,)})  # the fc loses its consumer


def _touched_node_with_bad_params(g):
    return mutation._with_params(g, 1, {**g.nodes[1].params, "stride": 3})


@pytest.mark.parametrize("edit, message", [
    (_left_naming_a_removed_id, "node 3 references missing predecessor 2"),
    (_dropout_fed_by_the_trunk, "node 3 (dropout) outside the flat tail"),
    (_dropout_fed_by_a_retyped_node, "node 3 (dropout) outside the flat tail"),
    (_no_path_to_the_head, "node 4 has no path to the head"),
    (_touched_node_with_bad_params, "node 1: conv stride must be one of (1, 2)"),
], ids=["removed-id", "dropout-in-trunk", "retyped-feeder", "no-path-to-head", "bad-params"])
def test_edit_children_of_a_validated_parent_fail_as_a_fresh_copy_does(edit, message):
    child = edit(tail_parent())
    for g in (child, pickle.loads(pickle.dumps(child))):
        with pytest.raises(InvalidGenome) as e:
            validate(g)
        assert str(e.value) == message


def test_a_retyped_child_keeps_the_preds_map_but_not_the_graph_memo():
    g = tail_parent()
    for fn in GRAPH_DERIVED:
        fn(g)
    child = _dropout_fed_by_a_retyped_node(g)
    fresh = pickle.loads(pickle.dumps(child))
    assert child.preds is g.preds and child._graph_memo is not g._graph_memo
    assert canonical_node_sequence(child) == canonical_node_sequence(fresh) == "ICPDFH"
    assert ids_by_kind(child) == ids_by_kind(fresh)
    assert derived_view(child) == derived_view(fresh)


def test_mutate_until_valid_closure():
    rng = np.random.default_rng(12)
    g = new_seed_genome("global_pool", (3, 16, 16), 10)
    for _ in range(300):
        g2 = mutate_until_valid(g, MutationWeights.late(), rng)
        assert is_valid(g2)
        assert g2 != g
        g = g2 if len(g2.nodes) < 40 else new_seed_genome("global_pool", (3, 16, 16), 10)
