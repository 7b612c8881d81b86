"""The package holds no code that only tests call.

Every module-level function and class in src/gasmld is referenced from the
package outside its own definition, every module-level constant other than
a dunder is read in the package, every method of a package class other
than a dunder is read as an attribute in the package outside its own body,
and every dataclass field is read as an attribute in the package or in
perfbench/; test-only helpers live in tests/oracles.py.  Exporting a name
does not count as a use, and every exported name resolves on the package.
"""

import ast
from pathlib import Path

import gasmld

SRC = Path(gasmld.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions_and_references():
    """Module-level definitions per (module, name), methods per (module,
    class, name), and how often each name is read outside its own
    definition: as a Name or an Attribute for definitions, as an attribute
    load for methods.  A local variable of a method's name is not a use."""
    defined, methods = [], []
    refs: dict[str, int] = {}
    attr_refs: dict[str, int] = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        own, own_method = set(), set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
                own.update((node.name, id(inner)) for inner in ast.walk(node))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not _is_dunder(item.name)):
                        methods.append((path.stem, node.name, item.name))
                        own_method.update((item.name, id(inner)) for inner in ast.walk(item))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
                if isinstance(node.ctx, ast.Load) and (name, id(node)) not in own_method:
                    attr_refs[name] = attr_refs.get(name, 0) + 1
            else:
                continue
            if (name, id(node)) not in own:
                refs[name] = refs.get(name, 0) + 1
    return defined, methods, refs, attr_refs


def test_every_definition_is_used_or_exported():
    defined, _, refs, _ = _definitions_and_references()
    assert defined
    unused = sorted(f"{module}.{name}" for module, name in defined if not refs.get(name))
    assert unused == []


def test_every_constant_is_read():
    # a constant is a module-level assignment to a name; a read is a load of
    # that name as a Name or an Attribute anywhere in the package
    constants, loads = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                constants.extend((path.stem, target.id) for target in targets
                                 if isinstance(target, ast.Name) and not _is_dunder(target.id))
        loads.update(node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(tree)
                     if isinstance(node, (ast.Name, ast.Attribute))
                     and isinstance(node.ctx, ast.Load))
    assert constants
    assert sorted(f"{module}.{name}" for module, name in constants if name not in loads) == []


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (target.id if isinstance(target, ast.Name) else target.attr) == "dataclass"


def test_every_field_is_read():
    # a field is an annotated name in a package dataclass's body; a read is
    # an attribute load of that name in the package or in perfbench/, whose
    # tracer reads what the package returns.  A constructor keyword is not
    # a read.
    fields, loads = [], set()
    for path in [*sorted(SRC.glob("*.py")), *sorted(PERFBENCH.glob("*.py"))]:
        tree = ast.parse(path.read_text(), filename=str(path))
        loads.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
        if path.parent != SRC:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                fields.extend((path.stem, node.name, item.target.id) for item in node.body
                              if isinstance(item, ast.AnnAssign)
                              and isinstance(item.target, ast.Name))
    assert len(fields) > 50
    assert sorted(f"{module}.{cls}.{name}" for module, cls, name in fields
                  if name not in loads) == []


def test_every_export_resolves():
    assert [name for name in gasmld.__all__ if not hasattr(gasmld, name)] == []


def test_every_method_is_used():
    _, methods, _, attr_refs = _definitions_and_references()
    assert methods
    unused = sorted(f"{module}.{cls}.{name}" for module, cls, name in methods
                    if not attr_refs.get(name))
    assert unused == []


def test_only_streams_derives_keys():
    # one key derivation: no other module names SeedSequence or Philox
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "streams":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            else:
                continue
            found.extend(f"{path.stem}.{name}" for name in names
                         if "SeedSequence" in name or "Philox" in name)
    assert found == []


def test_one_measurement_law():
    # one backend class holds the measurement law: exactly one package class
    # defines measure
    _, methods, _, _ = _definitions_and_references()
    assert [(module, cls) for module, cls, name in methods if name == "measure"] == [
        ("gas", "Backend")]
