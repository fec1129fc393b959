"""Genome data model: a DAG of typed layer nodes describing a CNN.

A genome has exactly one input node (the unique source) and exactly one
classifier head (the unique sink).  Interior nodes are convolutions,
max-pools, skip joins, channel concatenations, global average pools,
fully connected layers and dropout layers.  A genome's node and
predecessor maps are read-only, so every edit builds a new Genome, and
derived data (successors, the node ids of each kind, topological order,
shapes, parameter layout and count, canonical sequence) is computed once
per Genome object and kept on it.

Sharing rule: `Genome.edit` alone derives a genome from another and
decides what the child shares.  An edit states the node and predecessor
entries it sets and the ids it removes; those ids are the ones it touches.
Data that reads only ids, kinds and edges is declared with `_graph_derived`
and lives in the graph memo; the rest, with `_derived`.  A child that sets
no predecessor entry and removes no id keeps the parent's preds map, and
shares the parent's graph memo if every node it sets is an existing id of
the same kind; every other child starts that memo empty.  Every edit child
also holds an edit record: its base, the nearest ancestor whose shapes are
computed, and the ids the edits on the way set or removed, from which
`infer_shapes` and `validate` redo only what the edits changed.
A child drops its record once it validates, so a kept genome holds none
of its ancestors.  The constructor, pickle and parsed files share
nothing.  Only this module touches a genome's memos.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
from dataclasses import dataclass, field
from operator import ne
from types import MappingProxyType

INPUT = "input"
CONV = "conv"
MAXPOOL = "maxpool"
FC = "fc"
DROPOUT = "dropout"
SKIP = "skip"
CONCAT = "concat"
GLOBALPOOL = "globalpool"
HEAD = "head"

# One letter per kind; canonical sequences are strings over this alphabet.
KIND_LETTERS = {
    INPUT: "I",
    CONV: "C",
    MAXPOOL: "P",
    FC: "F",
    DROPOUT: "D",
    SKIP: "S",
    CONCAT: "K",
    GLOBALPOOL: "G",
    HEAD: "H",
}

# Trunk nodes carry spatial (c, h, w) tensors; tail nodes, all other kinds, carry flat
# vectors (globalpool sits at the boundary and is grouped with the tail for placement).
TRUNK_KINDS = frozenset({INPUT, CONV, MAXPOOL, SKIP, CONCAT})
# Layers whose every input must be spatial.
SPATIAL_OPS = frozenset({CONV, MAXPOOL, SKIP, CONCAT, GLOBALPOOL})
# The two seed forms; individual i of a seeded population starts as SEED_KINDS[i % 2].
SEED_KINDS = ("global_pool", "fully_connected")

# Required hyperparameter keys per kind.
PARAM_KEYS = {
    INPUT: frozenset(),
    CONV: frozenset({"channels", "filter", "stride", "pad"}),
    MAXPOOL: frozenset({"kernel", "stride"}),
    FC: frozenset({"units"}),
    DROPOUT: frozenset({"ratio"}),
    SKIP: frozenset(),
    CONCAT: frozenset(),
    GLOBALPOOL: frozenset(),
    HEAD: frozenset({"classes"}),
}

FILTER_MENU = (1, 3, 5)
STRIDE_MENU = (1, 2)


# the kinds of fault a ShapeError names
FLAT_INPUT = "flat input"
NOT_POSITIVE = "not positive"
SPATIAL_MISMATCH = "spatial mismatch"
CHANNEL_MISMATCH = "channel mismatch"
UNKNOWN_KIND = "unknown kind"


class ShapeError(Exception):
    """Tensor shapes along the graph are inconsistent or degenerate.

    `kind` names the fault (NOT_POSITIVE and so on); infer_shapes attaches
    `shapes`, the shapes of the nodes it finished before the fault.
    """

    def __init__(self, node_id, kind, message):
        self.node_id, self.kind = node_id, kind
        super().__init__(f"node {node_id}: {message}")


class InvalidGenome(Exception):
    """Structural or placement rule violated."""


class ParseError(Exception):
    """Malformed genome file."""


@dataclass(frozen=True)
class Node:
    kind: str
    params: dict = field(default_factory=dict)


def conv_node(channels, filter=3, stride=1, pad=None):
    if pad is None:
        pad = filter // 2
    return Node(CONV, {"channels": channels, "filter": filter, "stride": stride, "pad": pad})


def maxpool_node(kernel=2, stride=2):
    return Node(MAXPOOL, {"kernel": kernel, "stride": stride})


def fc_node(units):
    return Node(FC, {"units": units})


def dropout_node(ratio=0.5):
    return Node(DROPOUT, {"ratio": ratio})


# the default of Genome.edit's entry maps: an edit that sets none
_NO_ENTRIES = MappingProxyType({})


class Genome:
    """Layer DAG with read-only structure and derived data computed once.

    nodes maps node id to Node; preds maps node id to a tuple of
    predecessor ids kept sorted ascending (the canonical order, which
    also fixes concat channel order).  Both are read-only views of
    private copies.  Node ids double as creation order: new nodes always
    get max(ids) + 1.
    """

    __slots__ = ("input_shape", "num_classes", "nodes", "preds", "_memo", "_graph_memo")

    def __init__(self, input_shape, num_classes, nodes, preds):
        self.input_shape = tuple(input_shape)
        self.num_classes = num_classes
        self.nodes = MappingProxyType(dict(nodes))
        self.preds = MappingProxyType({i: tuple(sorted(p)) if len(p) > 1 else tuple(p) for i, p in preds.items()})
        self._memo, self._graph_memo = {}, {}

    def __eq__(self, other):
        if not isinstance(other, Genome):
            return NotImplemented
        return (
            self.input_shape == other.input_shape
            and self.num_classes == other.num_classes
            and self.nodes == other.nodes
            and self.preds == other.preds
        )

    def __repr__(self):
        return f"Genome({len(self.nodes)} nodes, in={self.input_shape}, classes={self.num_classes})"

    def __reduce__(self):
        # pickle and copy rebuild from the plain maps and leave the memos behind
        return Genome, (self.input_shape, self.num_classes, dict(self.nodes), dict(self.preds))

    def next_id(self):
        return max(self.nodes) + 1

    def head_id(self):
        """The head's id, the lower one of two heads (which validate refuses)."""
        heads = ids_by_kind(self)[HEAD]
        if not heads:
            raise InvalidGenome("no head node")
        return heads[0]

    def edit(self, nodes=_NO_ENTRIES, preds=_NO_ENTRIES, removed=()):
        """The child of this genome that sets the given node and pred entries
        and drops the removed ids: its touched ids are exactly those.

        Only the pred tuples passed in are sorted; every other one is this
        genome's own, already normalized.  A child that sets no pred entry
        and removes no id keeps this genome's preds map, and its graph memo
        too if every node it sets is an existing id of the same kind.  The
        edit record names this genome if its shapes are computed, else this
        genome's own base, with the touched ids of both edits."""
        old_nodes = self.nodes
        child_nodes = old_nodes.copy()
        child_nodes.update(nodes)
        if preds or removed:
            child_preds = self.preds.copy()
            for i, ps in preds.items():
                child_preds[i] = tuple(sorted(ps))
            for i in removed:
                del child_nodes[i], child_preds[i]
            child_preds, graph_memo = MappingProxyType(child_preds), {}
        else:
            same_kinds = all(i in old_nodes and n.kind == old_nodes[i].kind for i, n in nodes.items())
            child_preds, graph_memo = self.preds, self._graph_memo if same_kinds else {}
        touched = {*nodes, *preds, *removed}

        child = Genome.__new__(Genome)
        child.input_shape, child.num_classes = self.input_shape, self.num_classes
        child.nodes, child.preds, child._graph_memo = MappingProxyType(child_nodes), child_preds, graph_memo
        memo = self._memo
        record = memo.get(_EDIT)
        if "infer_shapes" in memo:
            record = self, frozenset(touched)
        elif record is not None:
            record = record[0], record[1] | touched
        child._memo = {} if record is None else {_EDIT: record}
        return child


# memo keys: an edit child's (base, touched ids), dropped once it validates,
# and the mark of a genome that passed validate
_EDIT = "_edit"
_VALID = "_valid"


def _derived(fn, graph=False):
    """Store fn's first result in the genome's memo, or with graph in its
    graph memo, and return it on later calls.

    A raised error is not stored, so a faulty genome raises on every call.
    Two threads racing on one memo at worst compute the same value twice.
    """
    name = fn.__name__

    @functools.wraps(fn)
    def derived(genome):
        memo = genome._graph_memo if graph else genome._memo
        if name not in memo:
            memo[name] = fn(genome)
        return memo[name]

    return derived


def _graph_derived(fn):
    """_derived for data that reads only ids, kinds and edges: it lives in
    the graph memo, which Genome.edit shares with children that keep them."""
    return _derived(fn, graph=True)


@_graph_derived
def successors(genome):
    """Map node id -> sorted tuple of consumer ids (duplicates kept)."""
    succ = {i: [] for i in genome.nodes}
    preds = genome.preds
    for dst in sorted(preds):  # ascending consumers leave every list sorted
        for src in preds[dst]:
            succ[src].append(dst)
    return MappingProxyType({i: tuple(s) for i, s in succ.items()})


@_graph_derived
def ids_by_kind(genome):
    """Read-only map of kind -> ascending tuple of the ids of that kind; every
    known kind is a key, with no ids when the genome has none of it."""
    ids = {kind: [] for kind in KIND_LETTERS}
    for i in sorted(genome.nodes):
        ids.setdefault(genome.nodes[i].kind, []).append(i)
    return MappingProxyType({kind: tuple(v) for kind, v in ids.items()})


@_graph_derived
def topological_order(genome):
    """Node ids in topological order, ready set drained smallest id first.

    Raises InvalidGenome if the graph has a cycle.
    """
    # in-degrees count edges: a join of a node with itself appears twice in
    # that node's consumers, so it becomes ready once that node is done
    indeg = {i: len(p) for i, p in genome.preds.items()}
    ready = [i for i, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    succ = successors(genome)
    order = []
    pop, push, append = heapq.heappop, heapq.heappush, order.append
    while ready:
        i = pop(ready)
        append(i)
        for j in succ[i]:
            d = indeg[j] - 1
            indeg[j] = d
            if not d:
                push(ready, j)
    if len(order) != len(genome.nodes):
        raise InvalidGenome("graph has a cycle")
    return tuple(order)


def chain_genome(middle, input_shape, num_classes):
    """A path: input -> middle nodes in order -> head, ids in that order."""
    nodes = [Node(INPUT), *middle, Node(HEAD, {"classes": num_classes})]
    preds = {i: (i - 1,) if i else () for i in range(len(nodes))}
    return Genome(input_shape, num_classes, dict(enumerate(nodes)), preds)


def new_seed_genome(kind, input_shape=(3, 32, 32), num_classes=10):
    """Minimal starting genome: input plus one hidden layer plus head.

    kind is "global_pool" (input -> globalpool -> head) or
    "fully_connected" (input -> fc(100) -> head).
    """
    if kind == "global_pool":
        mid = Node(GLOBALPOOL)
    elif kind == "fully_connected":
        mid = fc_node(100)
    else:
        raise ValueError(f"unknown seed kind {kind!r}")
    return chain_genome([mid], input_shape, num_classes)


@_derived
def infer_shapes(genome):
    """Read-only map of every node's output shape, in topological order:
    (c, h, w) for trunk nodes, (n,) for flat.

    Raises ShapeError on inconsistent joins, non-positive spatial dims, or
    spatial ops applied to flat vectors; the error carries the shapes
    computed before the fault.  An edit child takes its base's shape tuple
    for each node it did not touch whose inputs kept their base shapes;
    that is the value a pass from scratch computes.
    """
    order = topological_order(genome)
    nodes, preds, succ = genome.nodes, genome.preds, successors(genome)
    record = genome._memo.get(_EDIT)
    # dirty: the ids to compute, those touched and those fed by a shape
    # that is not the base's
    base, dirty = (record[0]._memo["infer_shapes"], set(record[1])) if record else ({}, set(nodes))
    shapes = {}
    try:
        for i in order:
            if i not in dirty:
                shapes[i] = base[i]
                continue
            node, ps = nodes[i], preds[i]
            kind, p = node.kind, node.params
            if kind in SPATIAL_OPS:
                for q in ps:
                    if len(shapes[q]) != 3:
                        raise ShapeError(i, FLAT_INPUT, f"needs a spatial input, got {shapes[q]}")
                c, h, w = shapes[ps[0]]
            if kind == CONV:
                f, st, pad = p["filter"], p["stride"], p["pad"]
                oh, ow = (h + 2 * pad - f) // st + 1, (w + 2 * pad - f) // st + 1
                if oh < 1 or ow < 1:
                    raise ShapeError(i, NOT_POSITIVE, f"conv output {oh}x{ow} not positive for input {h}x{w}")
                s = (p["channels"], oh, ow)
            elif kind == MAXPOOL:
                k, st = p["kernel"], p["stride"]
                oh, ow = (h - k) // st + 1, (w - k) // st + 1
                if oh < 1 or ow < 1:
                    raise ShapeError(i, NOT_POSITIVE, f"pool output {oh}x{ow} not positive for input {h}x{w}")
                s = (c, oh, ow)
            elif kind == SKIP or kind == CONCAT:
                a, b = [shapes[q] for q in ps]
                if a[1:] != b[1:]:
                    raise ShapeError(i, SPATIAL_MISMATCH, f"{kind} spatial mismatch {a} vs {b}")
                if kind == SKIP and a[0] != b[0]:
                    raise ShapeError(i, CHANNEL_MISMATCH, f"skip channel mismatch {a} vs {b}")
                s = a if kind == SKIP else (a[0] + b[0], h, w)
            elif kind == GLOBALPOOL:
                s = (c, 1, 1)
            elif kind == FC:
                s = (p["units"],)
            elif kind == DROPOUT:
                s = shapes[ps[0]]
            elif kind == HEAD:
                s = (p["classes"],)
            elif kind == INPUT:
                s = genome.input_shape
            else:
                raise ShapeError(i, UNKNOWN_KIND, f"unknown kind {kind!r}")
            old = base.get(i)
            if s == old:
                s = old
            else:
                dirty.update(succ[i])
            shapes[i] = s
    except ShapeError as err:
        err.shapes = MappingProxyType(shapes)
        raise
    return MappingProxyType(shapes)


@_graph_derived
def canonical_node_sequence(genome):
    """Kind letters in topological order, ids breaking ties."""
    return "".join(KIND_LETTERS[genome.nodes[i].kind] for i in topological_order(genome))


def sequence_distance(sa, sb):
    """Positions where two kind sequences differ, shorter one blank-padded."""
    if len(sa) < len(sb):
        sa, sb = sb, sa
    return sum(map(ne, sa, sb.ljust(len(sa), " ")))


def hamming_distance(a, b):
    """Positions where the canonical sequences differ, shorter one padded."""
    return sequence_distance(canonical_node_sequence(a), canonical_node_sequence(b))


@_derived
def param_shapes(genome):
    """Read-only map, ascending node id, of each trainable node's {name: shape}.

    A conv holds W (cout, cin, f, f), bias b, batchnorm scale gamma and
    shift beta; an fc node or the head W (nout, nin) over its flattened
    input, then b.  The trainer allocates exactly these tensors, and
    parameter_count totals their sizes.
    """
    shapes = infer_shapes(genome)
    nodes, preds = genome.nodes, genome.preds
    layout = {}
    for i in sorted(nodes):
        node = nodes[i]
        if node.kind == CONV:
            out, f = shapes[i][:1], node.params["filter"]
            layout[i] = {"W": (*out, shapes[preds[i][0]][0], f, f), "b": out, "gamma": out, "beta": out}
        elif node.kind == FC or node.kind == HEAD:
            out = shapes[i]
            layout[i] = {"W": (*out, math.prod(shapes[preds[i][0]])), "b": out}
    return MappingProxyType(layout)


@_derived
def parameter_count(genome):
    """Trainable parameter total: the summed sizes of the param_shapes
    tensors, from the shapes alone (a conv cout*cin*f*f + 3*cout, an fc or
    the head nout*nin + nout)."""
    shapes = infer_shapes(genome)
    preds = genome.preds
    total = 0
    for i, node in genome.nodes.items():
        kind = node.kind
        if kind == CONV:
            f = node.params["filter"]
            total += shapes[i][0] * (shapes[preds[i][0]][0] * f * f + 3)
        elif kind == FC or kind == HEAD:
            total += shapes[i][0] * (math.prod(shapes[preds[i][0]]) + 1)
    return total


def validate(genome):
    """Raise InvalidGenome unless the genome is structurally sound,
    shape-consistent and obeys the layer placement rules.

    The node-local checks visit the nodes in map order, so the first fault
    named does not depend on the path taken.  An edit child of a validated
    base runs them only on the touched ids and on the untouched consumers of
    ids it removed or gave a new kind: every other node has the base's Node
    object and predecessors, and the base passed them.
    """
    nodes, preds = genome.nodes, genome.preds
    if nodes.keys() != preds.keys():
        raise InvalidGenome("nodes and preds disagree on ids")
    by_kind = ids_by_kind(genome)
    inputs, heads = by_kind[INPUT], by_kind[HEAD]
    if len(inputs) != 1:
        raise InvalidGenome(f"expected exactly one input node, found {len(inputs)}")
    if len(heads) != 1:
        raise InvalidGenome(f"expected exactly one head node, found {len(heads)}")
    head = heads[0]

    memo = genome._memo
    record = memo.get(_EDIT)
    if record and _VALID in record[0]._memo:
        base, touched = record
        shared, base_succ = base.nodes, successors(base)
        check = set(touched)
        for t in touched:
            old = shared.get(t)
            if old is not None and (t not in nodes or nodes[t].kind != old.kind):
                check.update(base_succ[t])
        local = [i for i in nodes if i in check]
    else:
        shared, local = {}, nodes

    for i in local:
        n = nodes[i]
        kind, ps = n.kind, preds[i]
        if kind not in KIND_LETTERS:
            raise InvalidGenome(f"node {i}: unknown kind {kind!r}")
        want = 0 if kind == INPUT else 2 if kind == SKIP or kind == CONCAT else 1
        if len(ps) != want:
            raise InvalidGenome(f"node {i} ({kind}) needs {want} predecessors")
        for p in ps:
            if p not in nodes:
                raise InvalidGenome(f"node {i} references missing predecessor {p}")
        if n is not shared.get(i):
            _check_params(i, n)

    # raises on cycles; with one input, the only node without
    # predecessors, every node is then reachable from it
    topological_order(genome)

    succ = successors(genome)
    if succ[head]:
        raise InvalidGenome("head must be the unique sink")
    for i, s in succ.items():
        if not s and i != head:
            raise InvalidGenome(f"node {i} has no path to the head")

    # placement: the flat tail (fc/dropout/globalpool/head) never feeds a
    # trunk node, the head sees a flat vector, dropout stays in the tail
    for i in local:
        kind, ps = nodes[i].kind, preds[i]
        if kind in (CONV, MAXPOOL, SKIP, CONCAT):
            for p in ps:
                if nodes[p].kind not in TRUNK_KINDS:
                    raise InvalidGenome(f"node {i} ({kind}) fed by tail layer {nodes[p].kind}")
        elif kind in (GLOBALPOOL, HEAD, DROPOUT):
            fed_by = nodes[ps[0]].kind
            if kind == GLOBALPOOL and fed_by not in TRUNK_KINDS:
                raise InvalidGenome(f"node {i} (globalpool) fed by tail layer {fed_by}")
            if kind == HEAD and fed_by not in (FC, DROPOUT, GLOBALPOOL):
                raise InvalidGenome(f"head fed by {fed_by}, needs a flat layer")
            if kind == DROPOUT and fed_by not in (FC, DROPOUT, GLOBALPOOL):
                raise InvalidGenome(f"node {i} (dropout) outside the flat tail")

    try:
        infer_shapes(genome)
    except ShapeError as e:
        raise InvalidGenome(str(e)) from e

    if nodes[head].params["classes"] != genome.num_classes:
        raise InvalidGenome("head class count disagrees with genome num_classes")
    memo[_VALID] = True
    memo.pop(_EDIT, None)


def _check_params(i, node):
    p = node.params
    if p.keys() != PARAM_KEYS[node.kind]:
        raise InvalidGenome(f"node {i} ({node.kind}) params must be {sorted(PARAM_KEYS[node.kind])}")
    if node.kind == CONV:
        if p["channels"] < 1:
            raise InvalidGenome(f"node {i}: conv channels must be positive")
        if p["filter"] not in FILTER_MENU:
            raise InvalidGenome(f"node {i}: conv filter must be one of {FILTER_MENU}")
        if p["stride"] not in STRIDE_MENU:
            raise InvalidGenome(f"node {i}: conv stride must be one of {STRIDE_MENU}")
        if p["pad"] < 0:
            raise InvalidGenome(f"node {i}: conv pad must be non-negative")
    elif node.kind == MAXPOOL:
        if p["kernel"] < 1 or p["stride"] < 1:
            raise InvalidGenome(f"node {i}: pool kernel and stride must be positive")
    elif node.kind == FC:
        if p["units"] < 1:
            raise InvalidGenome(f"node {i}: fc units must be positive")
    elif node.kind == DROPOUT:
        if not 0.0 < p["ratio"] < 1.0:
            raise InvalidGenome(f"node {i}: dropout ratio must be in (0, 1)")
    elif node.kind == HEAD:
        if p["classes"] < 2:
            raise InvalidGenome(f"node {i}: head needs at least two classes")


def is_valid(genome):
    try:
        validate(genome)
        return True
    except InvalidGenome:
        return False


def genome_doc(genome):
    """JSON document of a genome: nodes by id (params copied), edges lexicographic."""
    edges = sorted([src, dst] for dst, ps in genome.preds.items() for src in ps)
    return {
        "input_shape": list(genome.input_shape),
        "num_classes": genome.num_classes,
        "nodes": [
            {"id": i, "kind": genome.nodes[i].kind, "params": dict(genome.nodes[i].params)}
            for i in sorted(genome.nodes)
        ],
        "edges": edges,
    }


def serialize(genome):
    """UTF-8 JSON text of genome_doc(genome)."""
    return json.dumps(genome_doc(genome), sort_keys=True, indent=2) + "\n"


def deserialize(text):
    """Parse serialize() output back into a Genome (see genome_from_doc)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"not valid JSON: {e.msg} at line {e.lineno} column {e.colno}") from e
    except RecursionError as e:
        raise ParseError("JSON nested too deeply to read") from e
    return genome_from_doc(doc)


def genome_from_doc(doc):
    """Build a Genome from a genome_doc() document.

    Raises ParseError with a field diagnostic on malformed input (JSON
    true/false is not an integer here); shape and placement problems are
    left to validate().
    """
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    for key in ("input_shape", "num_classes", "nodes", "edges"):
        if key not in doc:
            raise ParseError(f"missing field {key!r}")

    shape = doc["input_shape"]
    if not _is_shape(shape):
        raise ParseError("input_shape must be three positive integers")
    if not _is_int(doc["num_classes"]) or doc["num_classes"] < 2:
        raise ParseError("num_classes must be an integer of at least 2")
    for key in ("nodes", "edges"):
        if not isinstance(doc[key], list):
            raise ParseError(f"{key} must be a list")

    nodes = {}
    for entry in doc["nodes"]:
        if not isinstance(entry, dict) or set(entry) != {"id", "kind", "params"}:
            raise ParseError(f"node entries need exactly id/kind/params, got {entry!r}")
        i = entry["id"]
        if not _is_int(i) or i < 0:
            raise ParseError(f"node id must be a non-negative integer, got {i!r}")
        if i in nodes:
            raise ParseError(f"duplicate node id {i}")
        kind = entry["kind"]
        if not isinstance(kind, str) or kind not in KIND_LETTERS:
            raise ParseError(f"node {i}: unknown kind {kind!r}")
        params = entry["params"]
        if not isinstance(params, dict) or set(params) != PARAM_KEYS[kind]:
            raise ParseError(f"node {i}: params for {kind} must be {sorted(PARAM_KEYS[kind])}")
        for k, v in params.items():
            ratio = k == "ratio"  # dropout's, the one param that is not a count or size
            if not (_is_int(v) or ratio and isinstance(v, float)):
                raise ParseError(f"node {i}: param {k} must be {'a number' if ratio else 'an integer'}")
        nodes[i] = Node(kind, dict(params))
    if not any(n.kind == INPUT for n in nodes.values()):
        raise ParseError("no input node")

    preds = {i: [] for i in nodes}
    for edge in doc["edges"]:
        if not (isinstance(edge, list) and len(edge) == 2 and all(map(_is_int, edge))):
            raise ParseError(f"edges must be [src, dst] pairs of node ids, got {edge!r}")
        src, dst = edge
        if src not in nodes or dst not in nodes:
            raise ParseError(f"edge {edge} references an unknown node id")
        preds[dst].append(src)
    return Genome(tuple(shape), doc["num_classes"], nodes, {i: tuple(p) for i, p in preds.items()})


def _is_int(value):
    """A JSON integer: bool is an int subclass, but true/false are not counts."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value):
    return _is_int(value) and value >= 0


def _is_shape(value):
    """An input shape: three positive integers, as a list or tuple."""
    return isinstance(value, (list, tuple)) and len(value) == 3 and all(_is_int(d) and d > 0 for d in value)


def _dot_label(node, input_shape):
    p = node.params
    if node.kind == INPUT:
        return "input " + "x".join(map(str, input_shape))
    if node.kind == CONV:
        return f"conv {p['channels']}c {p['filter']}x{p['filter']} s{p['stride']} p{p['pad']}"
    if node.kind == MAXPOOL:
        return f"maxpool {p['kernel']}x{p['kernel']} s{p['stride']}"
    if node.kind == FC:
        return f"fc {p['units']}"
    if node.kind == DROPOUT:
        return f"dropout {p['ratio']:g}"
    if node.kind == HEAD:
        return f"head {p['classes']}"
    return node.kind


def to_dot(genome):
    """Graphviz DOT text with one node per layer, edges in id order."""
    lines = ["digraph genome {", "  rankdir=TB;"]
    for i in sorted(genome.nodes):
        lines.append(f'  n{i} [label="{_dot_label(genome.nodes[i], genome.input_shape)}"];')
    for src, dst in genome_doc(genome)["edges"]:
        lines.append(f"  n{src} -> n{dst};")
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Individual:
    """A genome with bookkeeping for the evolutionary loop.

    fitness is None until evaluated; evaluated individuals are replaced
    wholesale, never mutated in place.
    """

    id: int
    genome: Genome
    fitness: float | None = None
    born_generation: int = 0
    parent_id: int | None = None
