"""The package holds no code that only tests call.

Every module-level function and class in src/gasmld is either referenced
from the package outside its own definition or exported in
gasmld.__all__; test-only helpers live in tests/oracles.py.
"""

import ast
from pathlib import Path

import gasmld

SRC = Path(gasmld.__file__).resolve().parent


def _definitions_and_references():
    """Module-level definitions per (module, name), and, per name, how often
    it is read (a Name or an Attribute) outside its own definition."""
    defined = []
    refs: dict[str, int] = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        own = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
                own.update((node.name, id(inner)) for inner in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if (name, id(node)) not in own:
                refs[name] = refs.get(name, 0) + 1
    return defined, refs


def test_every_definition_is_used_or_exported():
    defined, refs = _definitions_and_references()
    assert defined
    unused = sorted(f"{module}.{name}" for module, name in defined
                    if not refs.get(name) and name not in gasmld.__all__)
    assert unused == []
