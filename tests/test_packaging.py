"""The package has no runtime dependencies: every module it imports by
absolute name is part of the standard library, and none of them is
dataclasses, whose class building slowed every cold start."""
import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "gpdalg"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


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
