"""The package holds only what a report runs: every function defined in
src/gpdalg is entered while tests/test_golden._record() makes all the
stored invocations, or it is on ALLOWED with the reason it stays and
the roadmap item that retires it.  An allowed function that a report
does enter fails as well, so the list cannot go stale.

The trace runs in a fresh interpreter, so what an earlier test loaded,
cached or bound cannot hide a call: the modules that test_golden does
not import load during the recording, as in a cold report."""
import ast
import json
import os
import pathlib
import subprocess
import sys

import gpdalg

SRC = pathlib.Path(gpdalg.__file__).resolve().parent
TESTS = pathlib.Path(__file__).resolve().parent

BENCH = "bench/ builds its inputs with it (items 3 and 13)"
INVERSE = "the parsers' tested inverse, kept (item 13)"
LAZY = "a name read from outside; the recorder imports modules directly (item 3)"
VALUE = "the value contract tests/test_value.py pins; no report compares, hashes or prints a value"

ALLOWED = {
    "constructions._group": BENCH,
    "constructions.cyclic_table": BENCH,
    "constructions.symmetric_table": BENCH,
    "constructions.klein_table": BENCH,
    "constructions.group_groupoid": BENCH,
    "constructions.pair_groupoid": BENCH,
    "constructions.product_with_group": BENCH,
    "constructions.disjoint_union": BENCH,
    "constructions._permutation_closure": BENCH,
    "constructions.action_groupoid": BENCH,
    "groupoid.FiniteGroupoid.make": BENCH,
    "groupoid.FiniteGroupoid.comp": BENCH,
    "leavitt.enumerate_cycles": BENCH,
    "leavitt.condition_ne": BENCH,
    "groupoid.render_groupoid": INVERSE,
    "leavitt.render_graph": INVERSE,
    "isg.render_isg": INVERSE,
    "cli.build_parser": "the argparse fallback for argv the direct reader leaves, kept (item 13)",
    "cli.build_parser._Parser.error": "the argparse fallback's usage error, kept (item 13)",
    "__init__.__getattr__": LAZY,
    "cli.__getattr__": LAZY,
    "value._no_fields": VALUE,
    "value.Value.__eq__": VALUE,
    "value.Value.__hash__": VALUE,
    "value.Value.__repr__": VALUE,
    "groupoid.FiniteGroupoid.__hash__": VALUE,
    "groupoid.Violation.__str__": "a violation's message for a reader; reports print the message field",
    "group_algebra.IntegerGroup.__repr__": "the printed form of the infinite cyclic group; reports render shapes",
}

_TRACE = """
import json, sys
import test_golden
codes = set()
def profile(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)
sys.setprofile(profile)
test_golden._record()
sys.setprofile(None)
with open(sys.argv[1], "w") as out:
    json.dump(sorted({(c.co_filename, c.co_firstlineno) for c in codes}), out)
"""


def _definitions() -> dict:
    """(file, first line) -> module.qualname of every function defined
    in the package, nested ones included.  A decorated function's code
    starts at its first decorator: properties, staticmethods and cached
    functions alike."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [(ast.parse(path.read_text(), filename=str(path)), path.stem)]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.FunctionDef):
                    name = f"{prefix}.{child.name}"
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(str(path), first)] = name
                    stack.append((child, name))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, f"{prefix}.{child.name}"))
                else:
                    stack.append((child, prefix))
    return out


def _entered(folder) -> set:
    """(file, first line) of every code object called while the golden
    invocations are recorded in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), str(TESTS)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = folder / "entered.json"
    subprocess.run([sys.executable, "-c", _TRACE, str(out)],
                   cwd=TESTS, env=env, check=True, timeout=300)
    return {(str(pathlib.Path(f).resolve()), line) for f, line in json.loads(out.read_text())}


def test_every_function_is_entered_by_a_report_or_allowed(tmp_path):
    definitions = _definitions()
    assert len(definitions) > 150
    entered = _entered(tmp_path)
    missed = sorted(name for key, name in definitions.items() if key not in entered)
    assert [name for name in missed if name not in ALLOWED] == []
    # an allowed function a report enters, or one that no longer exists
    assert [name for name in ALLOWED if name not in missed] == []
