"""Which modules each entry point and each report loads, and the
public names that survive loading their modules on first use.  Every
check that depends on what is already imported runs in a fresh
interpreter."""
import json
import os
import pathlib
import subprocess
import sys

import pytest

import gpdalg
import gpdalg.cli

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
FIXTURES = pathlib.Path(__file__).parent / "fixtures"
LAZY_MODULES = ("gpdalg.constructions", "gpdalg.isg", "gpdalg.leavitt")
# standard modules no entry point loads: dataclasses is slow to import
# and to build classes with, and brings in inspect (with ast, dis and
# tokenize), which nothing else here needs
UNUSED_STDLIB = ("dataclasses", "inspect")
# standard modules only help and usage errors load: a report reads its
# argv directly
USAGE_ONLY = ("argparse", "gettext")
# standard modules a Fraction needs; no module of the package imports them
FRACTION_STDLIB = ("fractions", "decimal", "numbers")
# the gpdalg modules every report loads: the CLI, the chain-condition
# verdicts, the report and what they build on
REPORT_BASE = ("cli", "errors", "group_algebra", "report", "rings", "value", "verdicts")

# every name gpdalg/__init__.py binds, by the module that defines it
PUBLIC_NAMES = {
    "errors": ("InternalCheckError", "OracleBudgetError", "ParseError"),
    "rings": (
        "GaloisField", "Integers", "Laurent", "ModularIntegers", "Product", "Q",
        "Rationals", "RingPredicates", "Z", "parse_ring_descriptor",
        "render_ring_descriptor", "ring_predicates",
    ),
    "group_algebra": ("BlockShape", "FiniteGroupTable", "IntegerGroup"),
    "groupoid": (
        "FiniteGroupoid", "Orbit", "Violation", "orbits", "parse_groupoid",
        "render_groupoid", "structured_from_finite", "validate",
    ),
    "constructions": (
        "action_groupoid", "cyclic_table", "disjoint_union", "group_groupoid",
        "klein_table", "pair_groupoid", "product_with_group", "symmetric_table",
    ),
    "algebra": ("Decomposition", "decompose", "verify_isomorphism"),
    "verdicts": ("Verdict", "verdicts"),
    "oracle": ("RadicalReport", "radical_oracle"),
    "leavitt": (
        "Cycle", "ExitWitness", "Graph", "GraphDecomposition", "as_finite_groupoid",
        "condition_ne", "enumerate_cycles", "generator_images", "graph_groupoid",
        "leavitt_verdicts", "parse_graph", "render_graph", "verify_leavitt_relations",
    ),
    "isg": (
        "InverseSemigroup", "isg_verdicts", "natural_partial_order", "parse_isg",
        "render_isg", "semigroup_algebra_iso", "underlying_groupoid",
    ),
    "report": (
        "AnalysisReport", "VerificationReport", "render_report_machine", "render_report_text",
    ),
}


def _fresh(code):
    """Run code in a new interpreter that sees only src/; return the JSON
    value it prints last."""
    p = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.splitlines()[-1])


def _loaded_after(code):
    """The gpdalg modules, and those of UNUSED_STDLIB, USAGE_ONLY and
    FRACTION_STDLIB, loaded after code."""
    return set(_fresh(
        "import json, sys\n" + code
        + "\nprint(json.dumps(sorted(m for m in sys.modules"
        f" if m.startswith('gpdalg') or m in {UNUSED_STDLIB + USAGE_ONLY + FRACTION_STDLIB!r})))"
    ))


def _report(*argv, status=0):
    return (
        "import contextlib, io, gpdalg.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert gpdalg.cli.main({list(argv)!r}) == {status}\n"
    )


@pytest.mark.parametrize("code, absent, present", [
    ("import gpdalg", LAZY_MODULES, ()),
    ("import gpdalg.cli", LAZY_MODULES, ()),
    (_report("groupoid", str(FIXTURES / "pair2_z2.gpd"), "--verify"), LAZY_MODULES, ()),
    (_report("graph", str(FIXTURES / "a3.quiv"), "--verify"),
     ("gpdalg.isg", "gpdalg.constructions"), ("gpdalg.leavitt",)),
    (_report("isg", str(FIXTURES / "i2.isg"), "--verify"),
     ("gpdalg.leavitt", "gpdalg.constructions"), ("gpdalg.isg",)),
], ids=["import-gpdalg", "import-cli", "groupoid", "graph", "isg"])
def test_each_entry_point_loads_only_its_modules(code, absent, present):
    loaded = _loaded_after(code)
    assert "gpdalg.verdicts" in loaded
    assert loaded.isdisjoint(absent), sorted(loaded & set(absent))
    assert loaded.isdisjoint(UNUSED_STDLIB), sorted(loaded & set(UNUSED_STDLIB))
    assert loaded.isdisjoint(USAGE_ONLY), sorted(loaded & set(USAGE_ONLY))
    assert loaded.isdisjoint(FRACTION_STDLIB), sorted(loaded & set(FRACTION_STDLIB))
    assert set(present) <= loaded


# argv with FILE under tests/fixtures, exit status, and the gpdalg modules
# each report loads beyond REPORT_BASE
REPORT_MODULES = [
    (("groupoid", "pair2.gpd", "--verify"), 0, ("algebra", "groupoid", "oracle")),
    (("groupoid", "pair2_z2.gpd", "--ring", "GF(2)", "--verify"), 0,
     ("algebra", "groupoid", "linalg", "oracle")),
    (("groupoid", "z3.gpd", "--ring", "GF(3)"), 0, ("algebra", "groupoid")),
    (("groupoid", "broken_assoc.gpd", "--verify"), 1, ("algebra", "groupoid")),
    (("graph", "a3.quiv", "--verify"), 0, ("groupoid", "leavitt", "oracle")),
    (("graph", "loop_spoke.quiv", "--verify"), 0, ("leavitt",)),
    (("graph", "rose2.quiv", "--ring", "Z", "--verify"), 0, ("leavitt",)),
    (("graph", "a3.quiv", "--ring", "Z", "--verify"), 0, ("leavitt", "oracle")),
    (("isg", "i2.isg", "--verify"), 0, ("groupoid", "isg", "oracle")),
    (("isg", "semilattice2.isg", "--ring", "GF(2)"), 0, ("groupoid", "isg")),
    (("isg", "left_zero.isg", "--verify"), 1, ("groupoid", "isg")),
]


@pytest.mark.parametrize("argv, status, extra", REPORT_MODULES,
                         ids=[" ".join(argv) for argv, _, _ in REPORT_MODULES])
def test_each_report_loads_exactly_the_modules_its_path_runs(argv, status, extra):
    """Beyond REPORT_BASE a report loads its own subcommand's modules,
    oracle only when it runs the oracle, and linalg only when that
    oracle is over GF(p): a graph report reaches the groupoid engine
    only through the oracle's finite groupoid, and loads algebra never.
    No report loads FRACTION_STDLIB."""
    command, name, *options = argv
    loaded = _loaded_after(_report(command, str(FIXTURES / name), *options, status=status))
    assert loaded == {"gpdalg", *(f"gpdalg.{m}" for m in REPORT_BASE + extra)}


def test_a_usage_error_loads_argparse_and_prints_its_usage():
    loaded = _loaded_after(
        "import contextlib, io, gpdalg.cli\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        "    try:\n"
        "        gpdalg.cli.main(['groupoid', '--format', 'yaml'])\n"
        "    except SystemExit as e:\n"
        "        assert e.code == 1\n"
        "    else:\n"
        "        raise AssertionError('no usage error')\n"
        "assert err.getvalue().startswith('usage: gpdalg groupoid [-h]'), err.getvalue()\n"
    )
    assert set(USAGE_ONLY) <= loaded


@pytest.mark.parametrize("access", [
    "value = getattr(gpdalg, name)",
    "exec(f'from gpdalg import {name} as value', ns); value = ns['value']",
])
def test_public_names_resolve_to_their_defining_objects_on_first_use(access):
    wrong = _fresh(
        "import importlib, json, gpdalg\n"
        "ns = {}\n"
        f"names = {PUBLIC_NAMES!r}\n"
        "wrong = []\n"
        "for module, group in names.items():\n"
        "    for name in group:\n"
        f"        {access}\n"
        "        if value is not getattr(importlib.import_module('gpdalg.' + module), name):\n"
        "            wrong.append(name)\n"
        "if not (callable(gpdalg.verdicts) and gpdalg.__version__ == '1.0.0'):\n"
        "    wrong.append('verdicts or __version__')\n"
        "print(json.dumps(wrong))"
    )
    assert wrong == []


def test_lazy_submodules_resolve_after_a_bare_import():
    assert _fresh(
        "import json, sys, gpdalg\n"
        "print(json.dumps([getattr(gpdalg, m) is sys.modules['gpdalg.' + m]\n"
        "                  for m in ('constructions', 'leavitt', 'isg')]))"
    ) == [True, True, True]


def test_verdicts_is_still_the_function():
    assert gpdalg.verdicts.__module__ == "gpdalg.verdicts"
    assert gpdalg.verdicts is sys.modules["gpdalg.verdicts"].verdicts


@pytest.mark.parametrize("module", [gpdalg, gpdalg.cli], ids=lambda m: m.__name__)
def test_an_unknown_name_raises_the_standard_attribute_error(module):
    with pytest.raises(AttributeError) as info:
        getattr(module, "no_such_name")
    assert str(info.value) == f"module {module.__name__!r} has no attribute 'no_such_name'"


def test_wrappers_bound_before_the_first_report_are_called():
    counts = _fresh(
        "import contextlib, importlib, io, json, gpdalg.cli as cli\n"
        "counts = {}\n"
        "def counting(module, name):\n"
        "    def wrapper(*args):\n"
        "        counts[name] = counts.get(name, 0) + 1\n"
        "        return getattr(importlib.import_module(module), name)(*args)\n"
        "    return wrapper\n"
        "cli.parse_graph = counting('gpdalg.leavitt', 'parse_graph')\n"
        "cli.parse_isg = counting('gpdalg.isg', 'parse_isg')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['graph', {str(FIXTURES / 'a3.quiv')!r}]) == 0\n"
        f"    assert cli.main(['isg', {str(FIXTURES / 'i2.isg')!r}]) == 0\n"
        f"    assert cli.main(['graph', {str(FIXTURES / 'rose2.quiv')!r}]) == 0\n"
        "print(json.dumps(counts))"
    )
    assert counts == {"parse_graph": 2, "parse_isg": 1}
