"""Every public function, class and method of the package has a caller in it.

A name defined in src/evoarch but used only by tests is surface that the
program does not need; this check fails on each such name.
"""

import ast
import tokenize
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "evoarch"


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
