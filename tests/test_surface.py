"""Every public function, class and method of the package has a caller in
it, every module-level constant is read in it, and every name a module
imports is used in that module; no function or lambda takes a mutable
default.

A name defined in src/evoarch but used only by tests is surface that the
program does not need; a constant nothing reads is a hand-written list
left behind by its users; an import nothing uses is a dependency the
module does not have; a mutable default is built once and shared by every
call that omits the argument.  No linter runs on the package, so these
checks do.  A genome's two memos, its edit record and the building of a
Genome that skips `__init__` are touched only in genome.py, where
`Genome.edit` states the rule for which derived data an edit child shares
with its parent.  Only fitness.py, which owns the trained record,
spells its split keys.  Every evoarch name the benchmark in perfbench/ reads
exists, so a rename fails here rather than in a benchmark run.
"""

import ast
import importlib
import re
import tokenize
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "evoarch"
PERFBENCH = PACKAGE.parent.parent / "perfbench"


def _modules():
    return sorted(PACKAGE.glob("*.py"))


def _public_definitions(tree):
    """(qualified name, name) of each public module-level function or class
    and each public method."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def test_every_public_name_has_a_caller_in_the_package():
    uses = Counter()
    definitions = []
    for path in _modules():
        with tokenize.open(path) as fh:
            uses.update(tok.string for tok in tokenize.generate_tokens(fh.readline) if tok.type == tokenize.NAME)
        definitions += [(path.name, *d) for d in _public_definitions(ast.parse(path.read_text()))]
    defined = Counter(name for _, _, name in definitions)
    unused = [f"{module}: {qualified}" for module, qualified, name in definitions if uses[name] <= defined[name]]
    assert unused == []


def _constants(tree):
    """Each UPPER_CASE name a module-level assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target)
                            if isinstance(n, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", n.id))


def test_every_module_level_constant_is_read_in_the_package():
    # an AST walk, not tokens: under Python 3.11 an f-string is one string token
    reads, constants = set(), []
    for path in _modules():
        tree = ast.parse(path.read_text())
        constants += [(path.name, name) for name in _constants(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
    assert len(constants) > 50
    assert [f"{module}: {name}" for module, name in constants if name not in reads] == []


def _imports(tree):
    """(bound name, statement) of each import except from __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name.split(".")[0], node) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((alias.asname or alias.name, node) for alias in node.names)


def test_every_import_is_used_in_its_module():
    unused = []
    for path in _modules():
        imports = list(_imports(ast.parse(path.read_text())))
        import_lines = {line for _, node in imports for line in range(node.lineno, node.end_lineno + 1)}
        with tokenize.open(path) as fh:
            used = {
                tok.string
                for tok in tokenize.generate_tokens(fh.readline)
                if tok.type == tokenize.NAME and tok.start[0] not in import_lines
            }
        unused += [f"{path.name}: {name}" for name, _ in imports if name not in used]
    assert unused == []


def test_no_default_is_mutable():
    """A dict, list or set display or comprehension, or a call, as a
    function or lambda default."""
    mutable = ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp, ast.Call
    found = []
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = node.args.defaults + node.args.kw_defaults
                found += [f"{path.name}:{d.lineno}" for d in defaults if isinstance(d, mutable)]
    assert found == []


def _modules_naming(names, strings=()):
    """Modules with a name token in names or a string token in strings."""
    naming = []
    for path in _modules():
        with tokenize.open(path) as fh:
            if any(tok.type == tokenize.NAME and tok.string in names
                   or tok.type == tokenize.STRING and tok.string[1:-1] in strings
                   for tok in tokenize.generate_tokens(fh.readline)):
                naming.append(path.name)
    return naming


def test_only_genome_py_touches_the_memo():
    assert _modules_naming({"_memo", "_graph_memo"}, {"_memo", "_graph_memo"}) == ["genome.py"]


def test_only_fitness_py_names_the_trained_records_split_keys():
    assert _modules_naming(set(), {"split_seed", "split_sha256"}) == ["fitness.py"]


def test_only_genome_py_builds_edit_children_or_reads_their_record():
    assert _modules_naming({"__new__", "_EDIT"}, {"_edit"}) == ["genome.py"]


def _dotted(node):
    """The parts of a name, or of an attribute chain on a name; else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _perfbench_names():
    """Each evoarch name perfbench reads, as module.attr...: the names it
    imports from an evoarch module, the attribute chains it takes from a
    module it imports with `from evoarch import ...` (or from an attribute
    it stores that module in), and the entries of tracer.TRACED.  Read with
    ast, so nothing of perfbench runs."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        roots = {}  # a name or attribute chain holding an evoarch module -> that module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "evoarch":
                roots.update((alias.asname or alias.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("evoarch."):
                names.update(f"{node.module.removeprefix('evoarch.')}.{alias.name}" for alias in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name) and node.value.id in roots:
                roots.update((".".join(_dotted(t)), roots[node.value.id]) for t in node.targets if _dotted(t))
        for node in ast.walk(tree):
            parts = _dotted(node) or []
            for n in range(len(parts), 0, -1):
                root = ".".join(parts[:n])
                if root in roots:
                    names.add(".".join([roots[root], *parts[n:]]))
                    break
            if isinstance(node, ast.Assign) and _dotted(node.targets[0]) == ["TRACED"]:
                names.update(".".join(entry) for entry in ast.literal_eval(node.value))
    return names


def _defined(name):
    module, *attrs = name.split(".")
    try:
        obj = importlib.import_module(f"evoarch.{module}")
    except ModuleNotFoundError:
        return False
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_evoarch_name_perfbench_reads_is_defined():
    names = _perfbench_names()
    assert {"trainer.TrainPlan.desk_scale", "trainer.DivergedTraining", "fitness.TrainedEvaluator.evaluate"} <= names
    assert sorted(name for name in names if not _defined(name)) == []
