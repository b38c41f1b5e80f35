"""The package has no runtime dependencies: every module it imports by
absolute name is part of the standard library, and none of them is
dataclasses, whose class building slowed every cold start, or
fractions, since the package builds no ring element.  Every top-level
definition in it is used by the package or exported, and no class in
it does arithmetic: the checks compare matrix-unit indices and integer
counts, so the package adds, negates and multiplies no ring or algebra
element."""
import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "gpdalg"


def _absolute_imports(path, on_load_only=False):
    """The modules path imports by absolute name; with on_load_only,
    only the imports that run when it is loaded, outside every function
    body."""
    nodes = [ast.parse(path.read_text(), filename=str(path))]
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        elif not (on_load_only and isinstance(node, ast.FunctionDef)):
            nodes.extend(ast.iter_child_nodes(node))


def test_every_absolute_import_is_from_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    checked = 0
    for path in modules:
        for name in _absolute_imports(path):
            assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
            checked += 1
    assert checked >= len(modules)


def test_no_module_imports_dataclasses():
    for path in sorted(SRC.glob("*.py")):
        assert "dataclasses" not in set(_absolute_imports(path)), path.name


def test_no_module_imports_fractions():
    # a ring is read through its descriptor, predicates and
    # characteristic, and no linear algebra or oracle step eliminates
    # over Q, so no Fraction is ever built
    for path in sorted(SRC.glob("*.py")):
        assert "fractions" not in set(_absolute_imports(path)), path.name


def test_no_module_imports_fractions_at_module_level():
    # fractions brings decimal and numbers with it, about 2 ms of every
    # cold start
    for path in sorted(SRC.glob("*.py")):
        assert "fractions" not in set(_absolute_imports(path, on_load_only=True)), path.name


def test_no_class_defines_arithmetic_operators():
    operators = {"__add__", "__sub__", "__neg__", "__mul__"}
    classes = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                classes += 1
                defined = {sub.name for sub in node.body if isinstance(sub, ast.FunctionDef)}
                assert not defined & operators, (path.name, node.name, sorted(defined & operators))
    assert classes >= 20


def _names_read(node):
    """Every name node reads below node: plain names, attribute names,
    names imported from a module, and string constants (so the module
    and export strings of gpdalg's _LAZY table count)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def test_every_definition_is_used_or_public():
    # a top-level function or class that nothing else in src/ reads and
    # that gpdalg does not export is code only the tests reach.  An
    # export is a read: gpdalg/__init__.py imports the eager names and
    # lists the lazy ones as _LAZY strings.  A definition's own body (a
    # recursive call) does not count, and dunders are the interpreter's.
    statements = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            statements.append((path.name, node, set(_names_read(node))))
    unused = []
    for module, node, _ in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("__"):
            continue
        if not any(node.name in names for _, other, names in statements if other is not node):
            unused.append(f"{module}:{node.name}")
    assert len(statements) > 200
    assert unused == []
