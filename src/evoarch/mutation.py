"""Mutation operators over genomes.

Fifteen operators: add/remove for convolution, pooling, dropout, skip,
concatenate and fully connected layers, plus three hyperparameter
alterations on convolutions.  Each operator picks its site uniformly
from the legal candidates via the supplied rng and returns a new genome,
or None when no legal site exists.  Nodes come and go through two
primitives: `_insert` adds a node fed by given inputs and moves every
consumer of the last input over to it, and `_remove` drops a node and
hands its consumers back to a given input.  `_insert_on_edge` places a
node on a single edge instead, for convolutions, the fc before the head
and repairs.  These three and `_with_params` (conv alterations and
padding bumps) pass `Genome.edit` only the node and predecessor entries
they set and the ids they remove, and it decides what the child shares
with the parent (see genome.py).  The candidate
sites (trunk edges, ancestors, depths, join pairs) and `ids_by_kind` are
derived data of the parent genome: they are computed once per parent and
shared, read-only, by every attempt on it.

`apply_mutation` is the one mutation attempt the search makes: the
operator's edit, then shape repair (padding bumps and 1x1
channel-matching convs), then acceptance of a changed, valid child.
`mutate_until_valid` samples kinds and attempts them until one is
accepted.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from types import MappingProxyType

from evoarch.genome import (
    CHANNEL_MISMATCH,
    CONCAT,
    CONV,
    DROPOUT,
    FC,
    FILTER_MENU,
    GLOBALPOOL,
    MAXPOOL,
    NOT_POSITIVE,
    SKIP,
    SPATIAL_MISMATCH,
    STRIDE_MENU,
    TRUNK_KINDS,
    Node,
    ShapeError,
    _derived,
    _graph_derived,
    conv_node,
    dropout_node,
    fc_node,
    ids_by_kind,
    infer_shapes,
    is_valid,
    maxpool_node,
    successors,
    topological_order,
)

# Structure-growing operators favoured while the search is young.
GROWTH_KINDS = frozenset(
    {
        "add_convolution",
        "add_skip",
        "add_concatenate",
        "alter_stride",
        "alter_filter_size",
        "alter_channel_number",
    }
)

CHANNEL_MENU = (8, 16, 32, 48, 64, 96, 128)
FC_UNITS_MENU = (50, 100, 150, 200)

MAX_REPAIR_FIXES = 8
MAX_PAD_BUMP = 2
MAX_RETRIES = 25  # mutation attempts per child before ExhaustedRetries


class RepairFailure(Exception):
    """Shape repair ran out of applicable fixes or its fix budget."""


class ExhaustedRetries(Exception):
    """No accepted mutation within the retry budget."""


@dataclass(frozen=True)
class MutationWeights:
    """Sampling weights per mutation kind.

    The kinds, in MUTATION_KINDS order, and their cumulative weights are
    tabulated once, at construction.  A kind no operator applies is refused.
    """

    weights: dict
    kinds: tuple = field(init=False, repr=False, compare=False)
    cumulative: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        unknown = self.weights.keys() - _OPERATORS.keys()
        if unknown:
            raise ValueError(f"no mutation operator for {sorted(unknown)}")
        kinds = [k for k in MUTATION_KINDS if k in self.weights]
        values = [self.weights[k] for k in kinds]
        if not kinds or any(v <= 0 for v in values):
            raise ValueError("weights must be a non-empty map of positive values")
        object.__setattr__(self, "kinds", tuple(kinds))
        object.__setattr__(self, "cumulative", tuple(accumulate(values)))

    @classmethod
    def early(cls):
        return cls({k: 2.0 if k in GROWTH_KINDS else 1.0 for k in MUTATION_KINDS})

    @classmethod
    def late(cls):
        return cls({k: 1.0 for k in MUTATION_KINDS})


def sample_mutation(rng, weights):
    """Draw one mutation kind with probability proportional to its weight."""
    kinds, cum = weights.kinds, weights.cumulative
    u = rng.random() * cum[-1]
    return kinds[min(bisect_right(cum, u), len(kinds) - 1)]


def _choose(rng, items):
    return items[int(rng.integers(len(items)))]


# ---------------------------------------------------------------------------
# graph edit primitives; each returns an edit child of the genome


def _insert_on_edge(genome, src, dst, slot, node):
    """Place node on the (src, dst) edge; slot indexes dst's pred tuple."""
    nid = genome.next_id()
    ps = genome.preds[dst]
    return genome.edit({nid: node}, {nid: (src,), dst: ps[:slot] + (nid,) + ps[slot + 1:]})


def _with_params(genome, i, params):
    """Node i's params replaced: the same ids, kinds and edges."""
    return genome.edit({i: Node(genome.nodes[i].kind, params)})


def _moved_consumers(genome, old, new):
    """The pred entries of every consumer of old, pointed at new instead."""
    return {i: tuple(new if p == old else p for p in genome.preds[i]) for i in successors(genome)[old]}


def _insert(genome, node, inputs):
    """Add node fed by inputs; every former consumer of inputs[-1] moves to it."""
    nid = genome.next_id()
    return genome.edit({nid: node}, {**_moved_consumers(genome, inputs[-1], nid), nid: inputs})


def _remove(genome, target, restore_to):
    """Drop target; its consumers go back to restore_to."""
    return genome.edit(preds=_moved_consumers(genome, target, restore_to), removed=(target,))


def _ensure_flat_head(genome):
    """Insert a global pool before the head if its input went spatial."""
    head = genome.head_id()
    (p,) = genome.preds[head]
    if genome.nodes[p].kind in TRUNK_KINDS:
        return _insert_on_edge(genome, p, head, 0, Node(GLOBALPOOL))
    return genome


@_graph_derived
def _ancestors(genome):
    """Read-only map of node id -> frozenset of its ancestors."""
    anc = {}
    for i in topological_order(genome):
        a = set()
        for p in genome.preds[i]:
            a.add(p)
            a |= anc[p]
        anc[i] = frozenset(a)
    return MappingProxyType(anc)


@_graph_derived
def _depths(genome):
    """Read-only map of the longest path length from the input to each node."""
    depth = {}
    for i in topological_order(genome):
        ps = genome.preds[i]
        depth[i] = 0 if not ps else 1 + max(depth[p] for p in ps)
    return MappingProxyType(depth)


@_graph_derived
def _trunk_edges(genome):
    edges = []
    for dst in sorted(genome.preds):
        for slot, src in enumerate(genome.preds[dst]):
            if genome.nodes[src].kind in TRUNK_KINDS:
                edges.append((src, dst, slot))
    return tuple(edges)


# ---------------------------------------------------------------------------
# the fifteen operators


def _add_convolution(genome, rng):
    edges = _trunk_edges(genome)
    if not edges:
        return None
    src, dst, slot = _choose(rng, edges)
    return _insert_on_edge(genome, src, dst, slot, conv_node(32, 3, 1, 1))


def _add_after(genome, rng, kind, make):
    """Place make() after one node of the given kind."""
    ids = ids_by_kind(genome)[kind]
    if not ids:
        return None
    return _insert(genome, make(), (_choose(rng, ids),))


def _alter_conv(genome, rng, key, menu):
    convs = ids_by_kind(genome)[CONV]
    if not convs:
        return None
    target = _choose(rng, convs)
    params = dict(genome.nodes[target].params)
    params[key] = _choose(rng, [v for v in menu if v != params[key]])
    params["pad"] = params["filter"] // 2
    return _with_params(genome, target, params)


@_derived
def _join_pairs(genome):
    """Read-only map of join kind -> (top, bottom) trunk pairs it may join:
    top an ancestor of bottom with equal spatial dims, and for a skip equal
    channels too.  No pairs when the genome's shapes are inconsistent."""
    try:
        shapes = infer_shapes(genome)
    except ShapeError:
        return MappingProxyType({SKIP: (), CONCAT: ()})
    anc, by_kind = _ancestors(genome), ids_by_kind(genome)
    trunk = frozenset(i for kind in TRUNK_KINDS for i in by_kind[kind])
    pairs = {SKIP: [], CONCAT: []}
    for b in sorted(trunk):
        sb = shapes[b]
        for a in sorted(anc[b] & trunk):
            sa = shapes[a]
            if sa[1:] != sb[1:]:
                continue
            if sa[0] == sb[0]:
                pairs[SKIP].append((a, b))
            pairs[CONCAT].append((a, b))
    return MappingProxyType({kind: tuple(v) for kind, v in pairs.items()})


def _add_join(genome, rng, kind):
    pairs = _join_pairs(genome)[kind]
    if not pairs:
        return None
    return _insert(genome, Node(kind), _choose(rng, pairs))


def _deeper_pred(genome, target):
    """The input whose wiring target had taken over: its only input, or for
    a join the one the other input is an ancestor of, falling back to the
    deeper node."""
    ps = genome.preds[target]
    q1, q2 = ps[0], ps[-1]
    if q1 == q2:
        return q1
    anc = _ancestors(genome)
    if q1 in anc[q2]:
        return q2
    if q2 in anc[q1]:
        return q1
    depth = _depths(genome)
    if depth[q1] != depth[q2]:
        return q1 if depth[q1] > depth[q2] else q2
    return max(q1, q2)


def _remove_kind(genome, rng, kind):
    """Drop one node of the given kind; its consumers go back to _deeper_pred."""
    ids = ids_by_kind(genome)[kind]
    if not ids:
        return None
    target = _choose(rng, ids)
    return _ensure_flat_head(_remove(genome, target, _deeper_pred(genome, target)))


def _add_fully_connected(genome, rng):
    """An fc after an existing fc, or at site None on the edge into the head."""
    target = _choose(rng, (None,) + ids_by_kind(genome)[FC])
    node = fc_node(_choose(rng, FC_UNITS_MENU))
    if target is None:
        head = genome.head_id()
        return _insert_on_edge(genome, genome.preds[head][0], head, 0, node)
    return _insert(genome, node, (target,))


_OPERATORS = {
    "add_convolution": _add_convolution,
    "remove_convolution": partial(_remove_kind, kind=CONV),
    "alter_channel_number": partial(_alter_conv, key="channels", menu=CHANNEL_MENU),
    "alter_filter_size": partial(_alter_conv, key="filter", menu=FILTER_MENU),
    "alter_stride": partial(_alter_conv, key="stride", menu=STRIDE_MENU),
    "add_dropout": partial(_add_after, kind=FC, make=partial(dropout_node, 0.5)),
    "remove_dropout": partial(_remove_kind, kind=DROPOUT),
    "add_pooling": partial(_add_after, kind=CONV, make=partial(maxpool_node, 2, 2)),
    "remove_pooling": partial(_remove_kind, kind=MAXPOOL),
    "add_skip": partial(_add_join, kind=SKIP),
    "remove_skip": partial(_remove_kind, kind=SKIP),
    "add_concatenate": partial(_add_join, kind=CONCAT),
    "remove_concatenate": partial(_remove_kind, kind=CONCAT),
    "add_fully_connected": _add_fully_connected,
    "remove_fully_connected": partial(_remove_kind, kind=FC),
}

MUTATION_KINDS = tuple(_OPERATORS)


# ---------------------------------------------------------------------------
# shape repair


def _bump_pad(genome, conv_id, bumps):
    if bumps.get(conv_id, 0) >= MAX_PAD_BUMP:
        return None
    params = dict(genome.nodes[conv_id].params)
    params["pad"] += 1
    bumps[conv_id] = bumps.get(conv_id, 0) + 1
    return _with_params(genome, conv_id, params)


def repair(genome):
    """Make shapes consistent with local fixes: (genome, fix count), or
    raise RepairFailure.

    Fix order per fault: bump padding on the conv feeding the fault (up to
    two pixels per conv) to equalize spatial dims or revive a degenerate
    output, then insert a 1x1 conv on the smaller-channel branch of a skip.
    At most eight fixes per call.
    """
    bumps = {}
    fixes = 0
    while True:
        try:
            infer_shapes(genome)
            return genome, fixes
        except ShapeError as err:
            if fixes >= MAX_REPAIR_FIXES:
                raise RepairFailure(f"fix budget exhausted: {err}") from err
            genome = _apply_fix(genome, err, bumps)
            if genome is None:
                raise RepairFailure(f"no applicable fix: {err}") from err
            fixes += 1


def _apply_fix(genome, err, bumps):
    i, shapes = err.node_id, err.shapes
    node = genome.nodes[i]
    if err.kind == NOT_POSITIVE:
        if node.kind == CONV:
            return _bump_pad(genome, i, bumps)
        producer = genome.preds[i][0]
        if genome.nodes[producer].kind == CONV:
            return _bump_pad(genome, producer, bumps)
        return None
    if err.kind == SPATIAL_MISMATCH:
        q1, q2 = genome.preds[i]
        s1, s2 = shapes[q1], shapes[q2]
        small = q1 if (s1[1] + s1[2], q1) < (s2[1] + s2[2], q2) else q2
        if genome.nodes[small].kind == CONV:
            return _bump_pad(genome, small, bumps)
        return None
    if err.kind == CHANNEL_MISMATCH:
        q1, q2 = genome.preds[i]
        s1, s2 = shapes[q1], shapes[q2]
        small, need = (q1, s2[0]) if s1[0] < s2[0] else (q2, s1[0])
        slot = list(genome.preds[i]).index(small)
        return _insert_on_edge(genome, small, i, slot, conv_node(need, 1, 1, 0))
    return None


# ---------------------------------------------------------------------------
# public entry points


def apply_mutation(genome, kind, rng, attempts=None):
    """One mutation attempt: the operator's local rewrite, shape repair,
    then acceptance of a changed, valid child.

    Returns the child, or None (rejected) when the operator has no legal
    site, the repair fails, or the result is unchanged or invalid.
    Appends a {kind, accepted, repair_fixes} record to `attempts` when
    given.  The input genome is never modified.
    """
    try:
        operator = _OPERATORS[kind]
    except KeyError:
        raise ValueError(f"unknown mutation kind {kind!r}") from None
    child, fixes = operator(genome, rng), 0
    if child is not None:
        try:
            child, fixes = repair(child)
        except RepairFailure:
            child = None
    accepted = child is not None and child != genome and is_valid(child)
    if attempts is not None:
        attempts.append({"kind": kind, "accepted": accepted, "repair_fixes": fixes})
    return child if accepted else None


def mutate_until_valid(genome, weights, rng, attempts=None):
    """Attempt sampled kinds until one is accepted; return that child.

    Appends one record per attempt to `attempts` when given.  Raises
    ExhaustedRetries after MAX_RETRIES rejections.
    """
    for _ in range(MAX_RETRIES):
        child = apply_mutation(genome, sample_mutation(rng, weights), rng, attempts)
        if child is not None:
            return child
    raise ExhaustedRetries(f"no valid mutation within {MAX_RETRIES} attempts")
