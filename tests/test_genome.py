import hashlib
import json
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from evoarch.genome import (
    CHANNEL_MISMATCH,
    CONCAT,
    CONV,
    FC,
    FLAT_INPUT,
    GLOBALPOOL,
    HEAD,
    INPUT,
    MAXPOOL,
    NOT_POSITIVE,
    SKIP,
    SPATIAL_MISMATCH,
    UNKNOWN_KIND,
    Genome,
    InvalidGenome,
    Node,
    ParseError,
    ShapeError,
    canonical_node_sequence,
    chain_genome,
    conv_node,
    deserialize,
    dropout_node,
    fc_node,
    genome_doc,
    genome_from_doc,
    hamming_distance,
    infer_shapes,
    is_valid,
    maxpool_node,
    new_seed_genome,
    param_shapes,
    parameter_count,
    serialize,
    successors,
    to_dot,
    topological_order,
    validate,
)
from helpers import random_genome


def chain(middle, input_shape=(3, 32, 32), num_classes=10):
    return chain_genome(middle, input_shape, num_classes)


def skip_genome(channels_a=32, channels_b=32, join=SKIP):
    """input -> conv1 -> conv2, join(conv1, conv2) -> globalpool -> head."""
    nodes = {
        0: Node(INPUT),
        1: conv_node(channels_a),
        2: conv_node(channels_b),
        3: Node(join),
        4: Node(GLOBALPOOL),
        5: Node(HEAD, {"classes": 10}),
    }
    preds = {0: (), 1: (0,), 2: (1,), 3: (1, 2), 4: (3,), 5: (4,)}
    return Genome((3, 32, 32), 10, nodes, preds)


# ------------------------------------------------------------ seed genomes

def test_seed_global_pool_sequence():
    g = new_seed_genome("global_pool")
    assert canonical_node_sequence(g) == "IGH"
    validate(g)


def test_seed_fully_connected_sequence():
    g = new_seed_genome("fully_connected", (1, 28, 28), 10)
    assert canonical_node_sequence(g) == "IFH"
    assert g.nodes[1].params["units"] == 100
    validate(g)


def test_seed_unknown_kind_rejected():
    with pytest.raises(ValueError):
        new_seed_genome("linear_probe")


def test_same_seed_kind_distance_zero():
    a = new_seed_genome("global_pool")
    b = new_seed_genome("global_pool")
    assert hamming_distance(a, b) == 0


# -------------------------------------------------------------- sequences

def test_conv_chain_sequence():
    g = chain([conv_node(32), conv_node(32), maxpool_node(), fc_node(100)])
    assert canonical_node_sequence(g) == "ICCPFH"
    validate(g)


def test_sequence_ignores_channel_count():
    a = chain([conv_node(8), fc_node(100)])
    b = chain([conv_node(128), fc_node(50)])
    assert canonical_node_sequence(a) == canonical_node_sequence(b) == "ICFH"
    assert hamming_distance(a, b) == 0


def test_sequence_invariant_under_id_relabeling():
    # same graph with ids shifted by 10 keeps the creation order, so the
    # canonical sequence must not change
    g = chain([conv_node(32), fc_node(100)])
    nodes = {i + 10: n for i, n in g.nodes.items()}
    preds = {i + 10: tuple(p + 10 for p in ps) for i, ps in g.preds.items()}
    shifted = Genome(g.input_shape, g.num_classes, nodes, preds)
    assert canonical_node_sequence(shifted) == canonical_node_sequence(g)


# ---------------------------------------------------------------- hamming

def test_hamming_length_mismatch_pads_with_blanks():
    a = chain([conv_node(32)])                                  # ICH
    b = chain([conv_node(32), maxpool_node()])                  # ICPH
    assert hamming_distance(a, b) == 2
    assert hamming_distance(b, a) == 2


def test_hamming_single_substitution():
    a = chain([conv_node(32), maxpool_node(), fc_node(100)])    # ICPFH
    b = chain([conv_node(32), conv_node(32), fc_node(100)])     # ICCFH
    assert hamming_distance(a, b) == 1


def test_hamming_symmetry_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(300):
        a = random_genome(rng)
        b = random_genome(rng)
        d = hamming_distance(a, b)
        assert d == hamming_distance(b, a)
        assert d >= 0
        assert d <= max(len(a.nodes), len(b.nodes))


def test_hamming_triangle_inequality():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b, c = (random_genome(rng) for _ in range(3))
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


def test_hamming_zero_iff_same_sequence():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a = random_genome(rng)
        b = random_genome(rng)
        same = canonical_node_sequence(a) == canonical_node_sequence(b)
        assert (hamming_distance(a, b) == 0) == same


# -------------------------------------------------------------- parameters

def test_parameter_count_single_conv():
    # 32 filters of 3x3x3 plus bias plus batchnorm scale/shift
    g = chain([conv_node(32, 3, 1, 1), Node(GLOBALPOOL)])
    head_params = 10 * 32 + 10
    assert parameter_count(g) == 960 + head_params


def test_parameter_count_seed_global_pool():
    g = new_seed_genome("global_pool")
    assert parameter_count(g) == 40


def test_parameter_count_dropout_free():
    base = chain([fc_node(100)], (1, 28, 28))
    with_drop = chain([fc_node(100), dropout_node(0.5)], (1, 28, 28))
    assert parameter_count(with_drop) == parameter_count(base)


def test_parameter_count_additive_per_conv():
    one = chain([conv_node(32), Node(GLOBALPOOL)])
    two = chain([conv_node(32), conv_node(32), Node(GLOBALPOOL)])
    # second conv sees 32 input channels: 32*32*9 + 32 + 64
    assert parameter_count(two) - parameter_count(one) == 9312


def test_parameter_count_fc():
    g = new_seed_genome("fully_connected", (1, 28, 28), 10)
    # fc: 100*784 + 100, head: 10*100 + 10
    assert parameter_count(g) == 78400 + 100 + 1000 + 10


FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"


def test_parameter_count_is_the_param_shapes_total():
    genomes = [new_seed_genome(k, (1, 28, 28)) for k in ("global_pool", "fully_connected")]
    genomes += [skip_genome(), skip_genome(16, 48, CONCAT),
                chain([conv_node(8, 5, 2, 2), maxpool_node(), fc_node(50), dropout_node()])]
    genomes += [deserialize(path.read_text()) for path in sorted(FIXTURES.rglob("*.json"))]
    rng = np.random.default_rng(25)
    genomes += [random_genome(rng, steps=n % 15) for n in range(200)]
    for g in genomes:
        layout = sum(math.prod(shape) for group in param_shapes(g).values() for shape in group.values())
        assert parameter_count(g) == layout


# ------------------------------------------------------------------ shapes

def test_infer_shapes_conv_preserves_spatial():
    g = chain([conv_node(32, 3, 1, 1)])
    shapes = infer_shapes(g)
    assert shapes[1] == (32, 32, 32)


def test_infer_shapes_stride_two():
    g = chain([conv_node(16, 3, 2, 1)])
    assert infer_shapes(g)[1] == (16, 16, 16)


def test_infer_shapes_pool_halves():
    g = chain([conv_node(32), maxpool_node(2, 2)])
    assert infer_shapes(g)[2] == (32, 16, 16)


def test_infer_shapes_globalpool_collapses():
    g = chain([conv_node(32), Node(GLOBALPOOL)])
    assert infer_shapes(g)[2] == (32, 1, 1)


def test_infer_shapes_concat_sums_channels():
    g = skip_genome(32, 48, join="concat")
    assert infer_shapes(g)[3] == (32 + 48, 32, 32)


def test_skip_channel_mismatch_names_node():
    g = skip_genome(32, 48, join=SKIP)
    with pytest.raises(ShapeError) as e:
        infer_shapes(g)
    assert e.value.node_id == 3
    assert "channel mismatch" in str(e.value)


def test_conv_output_collapse_rejected():
    g = chain([conv_node(8, 5, 2, 0)], input_shape=(3, 4, 4))
    with pytest.raises(ShapeError):
        infer_shapes(g)


# ---------------------------------------------------------------- validate

def test_validate_placement_dropout_after_conv():
    g = chain([conv_node(32), dropout_node(0.5), Node(GLOBALPOOL)])
    with pytest.raises(InvalidGenome):
        validate(g)


def test_validate_two_heads():
    g = new_seed_genome("global_pool")
    nodes = dict(g.nodes)
    preds = {i: ps for i, ps in g.preds.items()}
    nodes[3] = Node(HEAD, {"classes": 10})
    preds[3] = (1,)
    with pytest.raises(InvalidGenome):
        validate(Genome(g.input_shape, 10, nodes, preds))


def test_validate_cycle():
    nodes = {0: Node(INPUT), 1: conv_node(8), 2: conv_node(8),
             3: Node(GLOBALPOOL), 4: Node(HEAD, {"classes": 10})}
    preds = {0: (), 1: (0, 2), 2: (1,), 3: (2,), 4: (3,)}
    g = Genome((3, 8, 8), 10, nodes, preds)
    for _ in range(2):  # a failure is never memoized, so every call raises
        with pytest.raises(InvalidGenome):
            topological_order(g)
        with pytest.raises(InvalidGenome):
            infer_shapes(g)
        assert not is_valid(g)


def test_validate_head_after_conv():
    g = chain([conv_node(32)])
    with pytest.raises(InvalidGenome):
        validate(g)


def test_is_valid_on_random_mutants():
    rng = np.random.default_rng(3)
    for _ in range(100):
        assert is_valid(random_genome(rng))


# ------------------------------------------- first fault, message for message

def graph(spec, input_shape=(3, 32, 32), num_classes=10):
    """Genome from (id, node, preds) rows; nodes keep the row order."""
    return Genome(input_shape, num_classes,
                  {i: nd for i, nd, _ in spec}, {i: ps for i, _, ps in spec})


INPUT_ROW = (0, Node(INPUT), ())


def head_row(i, p, classes=10):
    return (i, Node(HEAD, {"classes": classes}), (p,))


# each genome breaks two or more rules; validate names the first it checks
FIRST_FAULTS = {
    "ids-disagree+two-heads": (
        Genome((3, 32, 32), 10,
               {0: Node(INPUT), 1: Node(GLOBALPOOL), 2: Node(HEAD, {"classes": 10}),
                3: Node(HEAD, {"classes": 10})},
               {0: (), 1: (0,), 2: (1,)}),
        "nodes and preds disagree on ids"),
    "no-input+two-heads": (
        graph([(0, Node(GLOBALPOOL), ()), head_row(1, 0), head_row(2, 0)]),
        "expected exactly one input node, found 0"),
    "unreachable-second-input+two-heads": (
        graph([INPUT_ROW, (1, Node(GLOBALPOOL), (0,)), head_row(2, 1), (3, Node(INPUT), ()),
               (4, Node(GLOBALPOOL), (3,)), head_row(5, 4)]),
        "expected exactly one input node, found 2"),
    "two-heads+unknown-kind": (
        graph([INPUT_ROW, (1, Node("bogus"), (0,)), head_row(2, 1), head_row(3, 1)]),
        "expected exactly one head node, found 2"),
    "unknown-kind+pred-count": (
        graph([INPUT_ROW, (1, Node("bogus"), (0,)), (2, conv_node(8), (0, 1)), head_row(3, 2)]),
        "node 1: unknown kind 'bogus'"),
    "pred-count-in-row-order+bad-params": (
        graph([INPUT_ROW, (3, Node(SKIP), (1,)), (1, Node(CONV, {"channels": 8}), (0,)),
               (2, Node(GLOBALPOOL), (3,)), head_row(4, 2)]),
        "node 3 (skip) needs 2 predecessors"),
    "input-with-pred+cycle": (
        graph([(0, Node(INPUT), (1,)), (1, conv_node(8), (0,)), head_row(2, 1)]),
        "node 0 (input) needs 0 predecessors"),
    "missing-pred+bad-params": (
        graph([INPUT_ROW, (1, conv_node(8), (9,)), (2, Node(GLOBALPOOL, {"x": 1}), (1,)), head_row(3, 2)]),
        "node 1 references missing predecessor 9"),
    "param-keys+cycle": (
        graph([INPUT_ROW, (1, Node(CONV, {"channels": 8, "filter": 3, "stride": 1}), (0,)),
               (2, conv_node(8), (3,)), (3, conv_node(8), (2,)), (4, Node(GLOBALPOOL), (1,)),
               head_row(5, 4)]),
        "node 1 (conv) params must be ['channels', 'filter', 'pad', 'stride']"),
    "param-value+dropout-ratio": (
        graph([INPUT_ROW, (1, conv_node(8, filter=4), (0,)), (2, Node(GLOBALPOOL), (1,)),
               (3, fc_node(10), (2,)), (4, dropout_node(1.5), (3,)), head_row(5, 4)]),
        "node 1: conv filter must be one of (1, 3, 5)"),
    "head-classes-param+class-mismatch": (
        graph([INPUT_ROW, (1, Node(GLOBALPOOL), (0,)), head_row(2, 1, classes=1)]),
        "node 2: head needs at least two classes"),
    "cycle+second-sink": (
        graph([INPUT_ROW, (1, Node(SKIP), (0, 2)), (2, conv_node(8), (1,)), (3, conv_node(8), (2,)),
               (4, Node(GLOBALPOOL), (2,)), head_row(5, 4)]),
        "graph has a cycle"),
    "cycle-unreachable-from-input+no-path-to-head": (
        graph([INPUT_ROW, (1, Node(GLOBALPOOL), (0,)), head_row(2, 1), (3, conv_node(8), (4,)),
               (4, conv_node(8), (3,))]),
        "graph has a cycle"),
    "head-not-sink+second-sink": (
        graph([INPUT_ROW, (1, Node(GLOBALPOOL), (0,)), head_row(2, 1), (3, fc_node(10), (2,))]),
        "head must be the unique sink"),
    "second-sink+placement": (
        graph([INPUT_ROW, (1, conv_node(8), (0,)), (2, Node(GLOBALPOOL), (1,)), head_row(3, 2),
               (4, dropout_node(), (1,))]),
        "node 4 has no path to the head"),
    "tail-feeds-trunk+class-mismatch": (
        graph([INPUT_ROW, (1, fc_node(10), (0,)), (2, conv_node(8), (1,)), (3, Node(GLOBALPOOL), (2,)),
               head_row(4, 3, classes=5)]),
        "node 2 (conv) fed by tail layer fc"),
    "tail-feeds-join-second-slot+shape": (
        graph([INPUT_ROW, (1, conv_node(8), (0,)), (2, Node(GLOBALPOOL), (1,)), (3, Node(SKIP), (1, 2)),
               (4, maxpool_node(64, 64), (3,)), (5, Node(GLOBALPOOL), (4,)), head_row(6, 5)]),
        "node 3 (skip) fed by tail layer globalpool"),
    "globalpool-fed-by-tail+class-mismatch": (
        graph([INPUT_ROW, (1, fc_node(10), (0,)), (2, Node(GLOBALPOOL), (1,)), head_row(3, 2, classes=3)]),
        "node 2 (globalpool) fed by tail layer fc"),
    "head-fed-by-conv+shape": (
        graph([INPUT_ROW, (1, conv_node(8, 5, 1, 0), (0,)), head_row(2, 1)], input_shape=(3, 4, 4)),
        "head fed by conv, needs a flat layer"),
    "dropout-outside-tail+class-mismatch": (
        graph([INPUT_ROW, (1, conv_node(8), (0,)), (2, dropout_node(), (1,)), (3, Node(GLOBALPOOL), (2,)),
               head_row(4, 3, classes=7)]),
        "node 2 (dropout) outside the flat tail"),
    "shape+class-mismatch": (
        graph([INPUT_ROW, (1, conv_node(32), (0,)), (2, conv_node(48), (1,)), (3, Node(SKIP), (1, 2)),
               (4, Node(GLOBALPOOL), (3,)), head_row(5, 4, classes=3)]),
        "node 3: skip channel mismatch (32, 32, 32) vs (48, 32, 32)"),
    "collapse+class-mismatch": (
        graph([INPUT_ROW, (1, conv_node(8, 5, 2, 0), (0,)), (2, Node(GLOBALPOOL), (1,)),
               head_row(3, 2, classes=4)], input_shape=(3, 4, 4)),
        "node 1: conv output 0x0 not positive for input 4x4"),
}


@pytest.mark.parametrize("case", list(FIRST_FAULTS))
def test_validate_names_first_fault(case):
    g, message = FIRST_FAULTS[case]
    with pytest.raises(InvalidGenome) as e:
        validate(g)
    assert str(e.value) == message


# (node id, message, ids in err.shapes in order) for each shape fault
SHAPE_FAULTS = {
    "conv-collapse-non-square": (
        graph([INPUT_ROW, (1, conv_node(8, 3, 1, 0), (0,)), (2, Node(GLOBALPOOL), (1,)), head_row(3, 2)],
              input_shape=(3, 4, 2)),
        1, "conv output 2x0 not positive for input 4x2", [0]),
    "pool-collapse": (
        graph([INPUT_ROW, (1, conv_node(8, 3, 2, 1), (0,)), (2, maxpool_node(3, 1), (1,)),
               (3, Node(GLOBALPOOL), (2,)), head_row(4, 3)], input_shape=(3, 3, 5)),
        2, "pool output 0x1 not positive for input 2x3", [0, 1]),
    "skip-spatial": (
        graph([INPUT_ROW, (1, conv_node(8), (0,)), (2, maxpool_node(), (1,)), (3, Node(SKIP), (1, 2)),
               (4, Node(GLOBALPOOL), (3,)), head_row(5, 4)], input_shape=(3, 8, 6)),
        3, "skip spatial mismatch (8, 8, 6) vs (8, 4, 3)", [0, 1, 2]),
    "skip-spatial-and-channel": (
        graph([INPUT_ROW, (1, conv_node(8), (0,)), (2, conv_node(16, 3, 2, 1), (1,)),
               (3, Node(SKIP), (1, 2)), (4, Node(GLOBALPOOL), (3,)), head_row(5, 4)]),
        3, "skip spatial mismatch (8, 32, 32) vs (16, 16, 16)", [0, 1, 2]),
    "skip-channel": (
        graph([INPUT_ROW, (1, conv_node(32), (0,)), (2, conv_node(48), (1,)), (3, Node(SKIP), (1, 2)),
               (4, Node(GLOBALPOOL), (3,)), head_row(5, 4)]),
        3, "skip channel mismatch (32, 32, 32) vs (48, 32, 32)", [0, 1, 2]),
    "concat-spatial": (
        graph([INPUT_ROW, (1, conv_node(8), (0,)), (2, conv_node(4, 3, 2, 1), (0,)),
               (3, Node(CONCAT), (2, 1)), (4, Node(GLOBALPOOL), (3,)), head_row(5, 4)]),
        3, "concat spatial mismatch (8, 32, 32) vs (4, 16, 16)", [0, 1, 2]),
    "conv-on-flat": (
        graph([INPUT_ROW, (1, fc_node(100), (0,)), (2, conv_node(8), (1,)), (3, Node(GLOBALPOOL), (2,)),
               head_row(4, 3)]),
        2, "needs a spatial input, got (100,)", [0, 1]),
    "pool-on-flat": (
        graph([INPUT_ROW, (1, Node(GLOBALPOOL), (0,)), (2, fc_node(50), (1,)), (3, dropout_node(), (2,)),
               (4, maxpool_node(), (3,)), head_row(5, 4)]),
        4, "needs a spatial input, got (50,)", [0, 1, 2, 3]),
    "globalpool-on-flat": (
        graph([INPUT_ROW, (1, fc_node(20), (0,)), (2, Node(GLOBALPOOL), (1,)), head_row(3, 2)]),
        2, "needs a spatial input, got (20,)", [0, 1]),
    "skip-second-input-flat": (
        graph([INPUT_ROW, (1, conv_node(8), (0,)), (2, fc_node(30), (1,)), (3, Node(SKIP), (1, 2)),
               (4, Node(GLOBALPOOL), (3,)), head_row(5, 4)]),
        3, "needs a spatial input, got (30,)", [0, 1, 2]),
    "concat-both-inputs-flat": (
        graph([INPUT_ROW, (1, fc_node(30), (0,)), (2, fc_node(40), (1,)), (3, Node(CONCAT), (1, 2)),
               head_row(4, 3)]),
        3, "needs a spatial input, got (30,)", [0, 1, 2]),
    "unknown-kind": (
        graph([INPUT_ROW, (1, conv_node(8), (0,)), (2, Node("bogus"), (1,)), head_row(3, 2)]),
        2, "unknown kind 'bogus'", [0, 1]),
    "fault-in-topological-not-id-order": (
        graph([INPUT_ROW, (1, conv_node(8, 5, 1, 0), (5,)), (2, Node(GLOBALPOOL), (1,)), head_row(3, 2),
               (5, conv_node(4), (6,)), (6, maxpool_node(), (0,))], input_shape=(3, 6, 6)),
        1, "conv output -1x-1 not positive for input 3x3", [0, 6, 5]),
}


@pytest.mark.parametrize("case", list(SHAPE_FAULTS))
def test_infer_shapes_names_fault_and_keeps_prior_shapes(case):
    g, node_id, message, computed = SHAPE_FAULTS[case]
    with pytest.raises(ShapeError) as e:
        infer_shapes(g)
    assert e.value.node_id == node_id
    assert str(e.value) == f"node {node_id}: {message}"
    assert list(e.value.shapes) == computed


# one SHAPE_FAULTS case per fault kind
FAULT_KIND_CASES = {
    NOT_POSITIVE: "pool-collapse",
    SPATIAL_MISMATCH: "concat-spatial",
    CHANNEL_MISMATCH: "skip-channel",
    FLAT_INPUT: "conv-on-flat",
    UNKNOWN_KIND: "unknown-kind",
}


@pytest.mark.parametrize("kind", list(FAULT_KIND_CASES))
def test_shape_error_names_its_fault_kind(kind):
    with pytest.raises(ShapeError) as e:
        infer_shapes(SHAPE_FAULTS[FAULT_KIND_CASES[kind]][0])
    assert e.value.kind == kind


def test_infer_shapes_every_rule_on_a_non_square_input():
    g = graph([INPUT_ROW, (1, conv_node(8, 3, 2, 1), (0,)), (2, conv_node(8, 1, 1, 0), (1,)),
               (3, Node(SKIP), (1, 2)), (4, maxpool_node(2, 1), (3,)), (5, conv_node(4, 5, 1, 2), (4,)),
               (6, Node(CONCAT), (4, 5)), (7, Node(GLOBALPOOL), (6,)), (8, fc_node(50), (7,)),
               (9, dropout_node(), (8,)), head_row(10, 9)], input_shape=(3, 9, 7))
    assert list(infer_shapes(g).items()) == [
        (0, (3, 9, 7)), (1, (8, 5, 4)), (2, (8, 5, 4)), (3, (8, 5, 4)), (4, (8, 4, 3)),
        (5, (4, 4, 3)), (6, (12, 4, 3)), (7, (12, 1, 1)), (8, (50,)), (9, (50,)), (10, (10,)),
    ]
    validate(g)


# ------------------------------------------------------------ derived data

def test_genome_maps_are_read_only():
    g = new_seed_genome("global_pool")
    with pytest.raises(TypeError):
        g.nodes[1] = fc_node(100)
    with pytest.raises(TypeError):
        g.preds[1] = ()
    with pytest.raises(TypeError):
        infer_shapes(g)[1] = (1,)


def test_genome_keeps_its_own_copies():
    nodes = {0: Node(INPUT), 1: Node(GLOBALPOOL), 2: Node(HEAD, {"classes": 10})}
    preds = {0: (), 1: (0,), 2: (1,)}
    g = Genome((3, 32, 32), 10, nodes, preds)
    order = topological_order(g)
    nodes[3] = fc_node(100)
    preds[2] = (3,)
    assert 3 not in g.nodes and g.preds[2] == (1,)
    assert topological_order(g) == order == (0, 1, 2)


def test_genome_stores_predecessors_as_sorted_tuples():
    g = skip_genome()
    unsorted = Genome(g.input_shape, 10, g.nodes, {0: [], 1: [0], 2: [1], 3: [2, 1], 4: [3], 5: [4]})
    assert dict(unsorted.preds) == {0: (), 1: (0,), 2: (1,), 3: (1, 2), 4: (3,), 5: (4,)}
    assert all(type(p) is tuple for p in unsorted.preds.values())
    assert unsorted == g


def test_joins_of_one_node_with_itself_derive_in_order():
    # ids out of topological order: each join waits for its one input, which
    # it lists twice and which lists it twice among its consumers
    g = graph([INPUT_ROW, (5, conv_node(8), (0,)), (2, Node(SKIP), (5, 5)), (3, Node(CONCAT), (2, 2)),
               (1, Node(GLOBALPOOL), (3,)), head_row(4, 1)])
    assert dict(successors(g)) == {0: (5,), 5: (2, 2), 2: (3, 3), 3: (1,), 1: (4,), 4: ()}
    assert topological_order(g) == (0, 5, 2, 3, 1, 4)
    assert list(infer_shapes(g).items()) == [
        (0, (3, 32, 32)), (5, (8, 32, 32)), (2, (8, 32, 32)), (3, (16, 32, 32)), (1, (16, 1, 1)), (4, (10,)),
    ]
    validate(g)


def test_shape_error_carries_shapes_before_fault():
    g = skip_genome(32, 48, join=SKIP)
    for _ in range(2):
        with pytest.raises(ShapeError) as e:
            infer_shapes(g)
        assert e.value.node_id == 3
        assert dict(e.value.shapes) == {0: (3, 32, 32), 1: (32, 32, 32), 2: (48, 32, 32)}


def test_derived_data_computed_once_per_genome():
    g = skip_genome()
    assert topological_order(g) is topological_order(g)
    assert infer_shapes(g) is infer_shapes(g)
    assert canonical_node_sequence(g) is canonical_node_sequence(g)
    # an equal but distinct genome derives its own, equal data
    twin = Genome(g.input_shape, g.num_classes, g.nodes, g.preds)
    assert twin == g and topological_order(twin) is not topological_order(g)
    assert topological_order(twin) == topological_order(g)
    assert parameter_count(twin) == parameter_count(g)


def test_params_only_edit_keeps_the_graph():
    g = skip_genome()
    order, sequence, shapes = topological_order(g), canonical_node_sequence(g), infer_shapes(g)
    child = g.edit({2: conv_node(48)})
    assert child == Genome(g.input_shape, g.num_classes, {**g.nodes, 2: conv_node(48)}, g.preds)
    assert child.preds is g.preds
    assert g.nodes[2] == conv_node(32) and infer_shapes(g) is shapes
    assert topological_order(child) is order and canonical_node_sequence(child) is sequence
    with pytest.raises(ShapeError) as e:  # the skip's inputs now disagree on channels
        infer_shapes(child)
    assert (e.value.node_id, e.value.kind) == (3, CHANNEL_MISMATCH)


def test_an_edit_that_sets_a_node_without_preds_fails_as_a_fresh_copy_does():
    g = skip_genome()
    topological_order(g), infer_shapes(g)  # fill both of the parent's memos
    child = g.edit({6: conv_node(8)})
    assert child == Genome(g.input_shape, g.num_classes, {**g.nodes, 6: conv_node(8)}, g.preds)
    assert child._graph_memo == {}
    for genome in (child, pickle.loads(pickle.dumps(child))):
        with pytest.raises(InvalidGenome, match="nodes and preds disagree on ids"):
            validate(genome)


def test_head_id_names_the_head_or_refuses_a_headless_genome():
    g = skip_genome()
    assert g.head_id() == 5
    headless = Genome(g.input_shape, g.num_classes, {i: n for i, n in g.nodes.items() if i != 5},
                      {i: p for i, p in g.preds.items() if i != 5})
    with pytest.raises(InvalidGenome, match="no head node"):
        headless.head_id()
    # two heads, which validate refuses, name the lower id
    two_heads = Genome(g.input_shape, g.num_classes, {6: g.nodes[5], **g.nodes}, {6: (4,), **g.preds})
    assert two_heads.head_id() == 5


def test_pickle_round_trip_leaves_memo_behind():
    g = skip_genome()
    order = topological_order(g)
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and copy._memo == {}
    assert topological_order(copy) == order


# --------------------------------------------------------------- serialize

def test_serialize_round_trip_many():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        g = random_genome(rng)
        assert deserialize(serialize(g)) == g


def test_serialize_deterministic():
    g = random_genome(np.random.default_rng(5), steps=4)
    assert serialize(g) == serialize(g)


def test_serialize_document_layout():
    g = skip_genome()
    doc = json.loads(serialize(g))
    assert set(doc) == {"input_shape", "num_classes", "nodes", "edges"}
    ids = [n["id"] for n in doc["nodes"]]
    assert ids == sorted(ids)
    assert doc["edges"] == sorted(doc["edges"])
    assert doc["input_shape"] == [3, 32, 32]


# sha256 of the concatenated serialize() text of the genomes below, so the
# genome file bytes cannot drift unnoticed
SERIALIZE_DIGEST = "f3e51431b56f95ad3806aebf960c112b653465b4966169f8906ff63473ebcb67"


def test_genome_doc_round_trip_and_serialize_bytes_pinned():
    genomes = [new_seed_genome(k) for k in ("global_pool", "fully_connected")]
    genomes += [random_genome(np.random.default_rng(s), steps=20) for s in range(6)]
    for g in genomes:
        assert genome_from_doc(genome_doc(g)) == g
        doc = genome_doc(g)
        for entry in doc["nodes"]:
            entry["params"]["edited"] = 1
        assert genome_from_doc(genome_doc(g)) == g
    text = "".join(serialize(g) for g in genomes)
    assert hashlib.sha256(text.encode()).hexdigest() == SERIALIZE_DIGEST


def test_deserialize_not_json():
    with pytest.raises(ParseError):
        deserialize("digraph genome {}")


def test_deserialize_missing_field():
    doc = json.loads(serialize(new_seed_genome("global_pool")))
    del doc["edges"]
    with pytest.raises(ParseError) as e:
        deserialize(json.dumps(doc))
    assert "edges" in str(e.value)


def test_deserialize_missing_input_node():
    doc = json.loads(serialize(new_seed_genome("global_pool")))
    doc["nodes"] = [n for n in doc["nodes"] if n["kind"] != "input"]
    doc["edges"] = []
    with pytest.raises(ParseError):
        deserialize(json.dumps(doc))


def test_deserialize_duplicate_id():
    doc = json.loads(serialize(new_seed_genome("global_pool")))
    doc["nodes"].append(dict(doc["nodes"][0]))
    with pytest.raises(ParseError) as e:
        deserialize(json.dumps(doc))
    assert "duplicate" in str(e.value)


def test_deserialize_unknown_edge_target():
    doc = json.loads(serialize(new_seed_genome("global_pool")))
    doc["edges"].append([0, 99])
    with pytest.raises(ParseError):
        deserialize(json.dumps(doc))


@pytest.mark.parametrize("field,value", [("nodes", 5), ("edges", 7), ("edges", [[0, [1]]])],
                         ids=["nodes-not-list", "edges-not-list", "edge-endpoint-not-int"])
def test_deserialize_wrong_container_types(field, value):
    doc = json.loads(serialize(new_seed_genome("global_pool")))
    doc[field] = value
    with pytest.raises(ParseError) as e:
        deserialize(json.dumps(doc))
    assert field in str(e.value)


INTEGER_PARAMS = [(1, "channels"), (1, "filter"), (1, "stride"), (1, "pad"),
                  (2, "kernel"), (2, "stride"), (3, "units"), (4, "classes")]


@pytest.mark.parametrize("node_id,param", INTEGER_PARAMS,
                         ids=[f"{i}-{p}" for i, p in INTEGER_PARAMS])
@pytest.mark.parametrize("bad", [4.0, True], ids=["float", "bool"])
def test_deserialize_requires_integer_params(node_id, param, bad):
    doc = genome_doc(chain([conv_node(4), maxpool_node(), fc_node(8)]))
    doc["nodes"][node_id]["params"][param] = bad
    with pytest.raises(ParseError) as e:
        genome_from_doc(doc)
    assert f"node {node_id}" in str(e.value) and param in str(e.value)


def test_deserialize_keeps_fractional_dropout_ratio():
    g = chain([fc_node(8), dropout_node(0.25)])
    assert deserialize(serialize(g)) == g


# --------------------------------------------------------------------- dot

def test_to_dot_seed_genome():
    text = to_dot(new_seed_genome("global_pool"))
    assert text.startswith("digraph genome {")
    assert text.count("[label=") == 3
    assert text.count("->") == 2
    assert text.count("{") == text.count("}")


def test_to_dot_join_has_two_incoming():
    text = to_dot(skip_genome())
    assert "n1 -> n3;" in text
    assert "n2 -> n3;" in text


def test_to_dot_labels_every_chain_kind():
    g = chain([conv_node(32, 3, 1, 1), maxpool_node(2, 2), Node(GLOBALPOOL), fc_node(100), dropout_node(0.5)])
    labels = re.findall(r'^  n\d+ \[label="([^"]+)"\];$', to_dot(g), re.M)
    assert labels == ["input 3x32x32", "conv 32c 3x3 s1 p1", "maxpool 2x2 s2", "globalpool", "fc 100",
                      "dropout 0.5", "head 10"]


def test_to_dot_line_grammar():
    text = to_dot(random_genome(np.random.default_rng(6), steps=5))
    body = text.splitlines()[2:-1]
    node_re = re.compile(r'^  n\d+ \[label="[^"]+"\];$')
    edge_re = re.compile(r"^  n\d+ -> n\d+;$")
    for line in body:
        assert node_re.match(line) or edge_re.match(line), line
