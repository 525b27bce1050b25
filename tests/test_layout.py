"""Layout check: no dead code at module level or in a class, and no
private name shared between modules.

Every module-level function and class in src/period_index must be
referenced somewhere in src/ outside its own definition (by name, by
attribute or by import), or be imported by tests/test_acceptance.py,
which calls the public API the acceptance gate names.  Every method of a
class there, dunders aside (the language calls them), must be reached as
an attribute somewhere in src/ outside its own body, and so must every
field a class lists in __slots__ outside its class body.  A helper that
only tests still call, or a field that only tests read, is dead code and
belongs in the test that needs it.  A module of src/period_index imports no
underscore name from another: what two modules share is public.  And it
imports at module level only, never inside a function or class body, so
its imports show every dependency, cycles included.  Every name a
module imports is read in that module: the dead-code check counts an
import as a reference, so an unused import would keep alive what it
names.  And no module imports random: the program has no randomness.
Nor dataclasses: its import pulls in inspect, ast and tokenize, and
each decorated class is built by exec at start-up, so a record is a
plain __slots__ class instead."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "period_index"


def _names(node) -> set:
    """Every name node references: loads, attributes and imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    return out


def _trees() -> list:
    return [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]


def _attributes(node) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def _unreferenced() -> tuple:
    """(count of top-level definitions, names of those no other top-level
    statement of src references)"""
    trees = _trees()
    tops = [(node, _names(node)) for tree in trees for node in tree.body]
    # how many top-level statements reference each name
    refs = Counter(name for _, names in tops for name in names)
    defs = [(node.name, names) for node, names in tops if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    unused = [name for name, own in defs if refs[name] - (name in own) == 0]
    return len(defs), unused


def _acceptance_imports() -> set:
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_top_level_definition_is_used():
    count, unused = _unreferenced()
    assert count > 150
    assert sorted(set(unused) - _acceptance_imports()) == []


def _unreached_methods() -> tuple:
    """(count of methods, Class.method for those no attribute of src
    outside their own body names; methods are matched by name, so one
    shares its references with a same-named method of another class)"""
    trees = _trees()
    refs = sum((_attributes(tree) for tree in trees), Counter())
    methods = [
        (cls.name, node)
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
    ]
    unreached = [
        "%s.%s" % (cls, node.name)
        for cls, node in methods
        if refs[node.name] - _attributes(node)[node.name] == 0
    ]
    return len(methods), unreached


def test_every_method_is_reached_as_an_attribute():
    count, unreached = _unreached_methods()
    assert count > 30
    assert unreached == []


def _slot_fields(cls) -> list:
    """The fields a class body lists in __slots__, dunders (__dict__)
    aside."""
    return [
        elt.value
        for node in cls.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)
        for elt in node.value.elts
        if not elt.value.startswith("__")
    ]


def _unread_fields() -> tuple:
    """(count of __slots__ fields, Class.field for those no attribute of
    src outside their class body names; matched by name, as methods are)"""
    trees = _trees()
    refs = sum((_attributes(tree) for tree in trees), Counter())
    fields = [
        (cls, name)
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for name in _slot_fields(cls)
    ]
    unread = [
        "%s.%s" % (cls.name, name)
        for cls, name in fields
        if refs[name] - _attributes(cls)[name] == 0
    ]
    return len(fields), unread


def test_every_dataclass_field_is_read_as_an_attribute():
    count, unread = _unread_fields()
    assert count > 15
    assert unread == []


def _private_imports() -> list:
    """module: name for every underscore name a module of src imports from
    another module (an alias may be private, the imported name may not)."""
    return [
        "%s: %s" % (path.stem, alias.name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_module_imports_a_private_name():
    assert _private_imports() == []


def _nested_imports() -> list:
    """module:line for every import statement inside a function or class
    body of src."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        "%s:%d" % (path.stem, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for scope in ast.walk(ast.parse(path.read_text()))
        if isinstance(scope, scopes)
        for node in ast.walk(scope)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def test_no_import_inside_a_function_or_class():
    assert _nested_imports() == []


def _unread_imports() -> list:
    """module: name for every name an import statement of a module of src
    binds that no expression of that module reads."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".", 1)[0]
                    if bound not in read:
                        out.append("%s: %s" % (path.stem, bound))
    return out


def test_every_imported_name_is_read():
    assert _unread_imports() == []


def _imports_of(module: str) -> list:
    """module:line for every import of the named module in a module of
    src."""
    return [
        "%s:%d" % (path.stem, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == module for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == module
    ]


def test_no_module_imports_random():
    assert _imports_of("random") == []


def test_no_module_imports_dataclasses():
    assert _imports_of("dataclasses") == []
