"""End-to-end command line behavior via subprocess."""
import pathlib
import subprocess
import sys
import time

import pytest

from corpus import chain_graph

import gpdalg.algebra
import gpdalg.cli
import gpdalg.groupoid
import gpdalg.leavitt
from gpdalg import render_graph, render_groupoid
from gpdalg.constructions import pair_groupoid, product_with_group, symmetric_table

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

MACHINE_KEYS = [
    "noetherian", "artinian", "semisimple", "shape",
    "verified_pairs", "oracle_agreement",
]


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "gpdalg.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_good_fixtures_exit_zero():
    cases = [
        ("groupoid", "pair2.gpd"),
        ("groupoid", "z3.gpd"),
        ("groupoid", "pair2_z2.gpd"),
        ("graph", "a3.quiv"),
        ("graph", "loop_spoke.quiv"),
        ("graph", "rose2.quiv"),
        ("isg", "i2.isg"),
        ("isg", "semilattice2.isg"),
    ]
    for sub, name in cases:
        r = run_cli(sub, str(FIXTURES / name))
        assert r.returncode == 0, (name, r.stderr)
        assert r.stdout and not r.stderr, name


@pytest.mark.parametrize("sub, name, fragment", [
    ("groupoid", "broken_assoc.gpd", "associativity fails"),
    ("groupoid", "missing_inverse.gpd", "has no inverse"),
    ("groupoid", "undeclared_object.gpd", "line 2: object 'y' not declared"),
    ("graph", "dangling_edge.quiv", "line 3: vertex 'w' not declared"),
    ("isg", "left_zero.isg", "pseudo-inverses"),
    ("isg", "bad_row.isg", "has 1 entries, expected 2"),
])
def test_corrupted_fixtures_exit_one_with_diagnostics(sub, name, fragment):
    r = run_cli(sub, str(FIXTURES / name))
    assert r.returncode == 1, name
    assert fragment in r.stderr, (name, r.stderr)
    assert not r.stdout, name


def test_usage_and_input_errors_exit_one():
    bad_calls = [
        (),
        ("frobnicate", str(FIXTURES / "pair2.gpd")),
        ("groupoid",),
        ("groupoid", str(FIXTURES / "pair2.gpd"), "--format", "yaml"),
        ("groupoid", str(FIXTURES / "pair2.gpd"), "--ring", "GF(9)"),
        ("groupoid", str(FIXTURES / "pair2.gpd"), "--ring", "Frac(Z)"),
        ("groupoid", str(FIXTURES / "no_such_file.gpd")),
        ("graph", str(FIXTURES / "pair2.gpd")),
    ]
    for args in bad_calls:
        r = run_cli(*args)
        assert r.returncode == 1, args
        assert "error" in r.stderr.lower(), args


def test_machine_format_has_the_fixed_keys_in_order():
    r = run_cli("groupoid", str(FIXTURES / "pair2.gpd"), "--format", "machine")
    assert r.returncode == 0
    keys = [line.split("=", 1)[0] for line in r.stdout.splitlines()]
    assert keys == MACHINE_KEYS
    values = dict(line.split("=", 1) for line in r.stdout.splitlines())
    assert values["noetherian"] == "true"
    assert values["semisimple"] == "true"
    assert values["shape"] == "M_2(Q)"
    assert values["verified_pairs"] == "skipped"
    assert values["oracle_agreement"] == "skipped"


def test_verified_groupoid_run_over_gf2():
    r = run_cli(
        "groupoid", str(FIXTURES / "pair2_z2.gpd"),
        "--ring", "GF(2)", "--verify", "--format", "machine",
    )
    assert r.returncode == 0, r.stderr
    values = dict(line.split("=", 1) for line in r.stdout.splitlines())
    assert values["semisimple"] == "false"
    assert values["shape"] == "M_2(GF(2)[Z/2])"
    assert values["oracle_agreement"] == "agree"
    assert values["verified_pairs"].count("/") == 1
    passed, total = values["verified_pairs"].split("/")
    assert passed == total
    assert "witness" in values


def test_text_report_for_an_acyclic_graph():
    r = run_cli("graph", str(FIXTURES / "a3.quiv"), "--verify")
    assert r.returncode == 0, r.stderr
    out = r.stdout
    assert "vertices: 3" in out
    assert "boundary paths: 3" in out
    assert "shape: M_3(Q)" in out
    assert "noetherian: yes" in out and "semisimple: yes" in out
    assert "Leavitt relation checks" in out
    assert "oracle: agree" in out


def test_exit_graph_reports_the_infinite_family():
    r = run_cli("graph", str(FIXTURES / "rose2.quiv"), "--verify", "--format", "machine")
    assert r.returncode == 0, r.stderr
    values = dict(line.split("=", 1) for line in r.stdout.splitlines())
    assert values["noetherian"] == "false"
    assert values["shape"] == "infinite"
    assert values["verified_pairs"] == "unsupported"
    assert values["oracle_agreement"] == "unsupported"
    assert values["witness"] == "Z((e)^n.f), n >= 0"


def test_cyclic_no_exit_graph_skips_the_oracle_but_verifies_relations():
    r = run_cli("graph", str(FIXTURES / "loop_spoke.quiv"), "--verify", "--format", "machine")
    assert r.returncode == 0, r.stderr
    values = dict(line.split("=", 1) for line in r.stdout.splitlines())
    assert values["shape"] == "M_2(Laurent(Q))"
    assert values["noetherian"] == "true" and values["artinian"] == "false"
    assert values["oracle_agreement"] == "unsupported"
    passed, total = values["verified_pairs"].split("/")
    assert passed == total


def test_isg_witness_over_gf2():
    r = run_cli("isg", str(FIXTURES / "i2.isg"), "--ring", "GF(2)", "--verify", "--format", "machine")
    assert r.returncode == 0, r.stderr
    values = dict(line.split("=", 1) for line in r.stdout.splitlines())
    assert values["semisimple"] == "false"
    assert values["shape"] == "M_2(GF(2)) x M_1(GF(2)[Z/2]) x M_1(GF(2))"
    assert values["verified_pairs"] == "50/50"
    assert values["oracle_agreement"] == "agree"
    assert values["witness"] == "1*one + 1*swap"


def test_unsupported_oracle_ring_is_reported_not_failed():
    r = run_cli(
        "groupoid", str(FIXTURES / "pair2.gpd"),
        "--ring", "Product(Q, GF(3))", "--verify", "--format", "machine",
    )
    assert r.returncode == 0, r.stderr
    values = dict(line.split("=", 1) for line in r.stdout.splitlines())
    assert values["oracle_agreement"] == "unsupported"
    passed, total = values["verified_pairs"].split("/")
    assert passed == total


def test_oracle_budget_skip_is_visible(tmp_path):
    big = product_with_group(pair_groupoid(["x", "y"]), symmetric_table(3))
    path = tmp_path / "pair2_s3.gpd"
    path.write_text(render_groupoid(big))
    r = run_cli("groupoid", str(path), "--ring", "GF(2)", "--verify", "--format", "machine")
    assert r.returncode == 0, r.stderr
    values = dict(line.split("=", 1) for line in r.stdout.splitlines())
    assert values["oracle_agreement"] == "skipped"
    passed, total = values["verified_pairs"].split("/")
    assert passed == total


def test_reruns_are_byte_identical():
    invocations = [
        ("groupoid", str(FIXTURES / "pair2_z2.gpd"), "--ring", "GF(2)", "--verify", "--format", "machine"),
        ("groupoid", str(FIXTURES / "z3.gpd"), "--verify"),
        ("graph", str(FIXTURES / "a3.quiv"), "--verify", "--format", "machine"),
        ("graph", str(FIXTURES / "rose2.quiv"), "--verify"),
        ("isg", str(FIXTURES / "i2.isg"), "--ring", "GF(3)", "--verify", "--format", "machine"),
        ("isg", str(FIXTURES / "i2.isg"), "--verify"),
    ]
    for args in invocations:
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0, (args, first.stderr)
        assert first.stdout == second.stdout, args
        assert first.stderr == second.stderr == "", args


def _main_in_process(capsys, *args):
    code = gpdalg.cli.main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("ring", ["GF(1000000000000037)", "GF(1000000000000000003)"])
def test_huge_modulus_is_rejected_quickly(ring, capsys):
    start = time.perf_counter()
    code, out, err = _main_in_process(
        capsys, "groupoid", str(FIXTURES / "z3.gpd"), "--ring", ring, "--verify")
    assert time.perf_counter() - start < 1
    assert code == 1 and not out
    assert err == f"error: position 4: {ring}: modulus above the limit 2147483647\n"


@pytest.mark.parametrize(
    "ring", ["GF(" + "9" * 5000 + ")", "Z/" + "9" * 5000], ids=["GF", "Z"])
def test_modulus_past_the_integer_string_limit_is_a_parse_error(ring, capsys):
    code, out, err = _main_in_process(
        capsys, "groupoid", str(FIXTURES / "z3.gpd"), "--ring", ring)
    assert code == 1 and not out
    assert err.startswith("error: position ")
    assert err.endswith(": modulus above the limit 2147483647\n")
    assert "set_int_max_str_digits" not in err


def test_largest_modulus_is_accepted(capsys):
    code, out, err = _main_in_process(
        capsys, "groupoid", str(FIXTURES / "z3.gpd"), "--ring", "GF(2147483647)",
        "--format", "machine")
    assert code == 0 and not err
    assert "shape=M_1(GF(2147483647)[Z/3])\n" in out


def test_orbit_that_misses_an_arrow_is_an_internal_error(monkeypatch, capsys):
    monkeypatch.setattr(gpdalg.algebra, "orbits", lambda g: [])
    code, out, err = _main_in_process(
        capsys, "groupoid", str(FIXTURES / "pair2_z2.gpd"), "--verify")
    assert code == 2
    assert not out
    assert err == "internal error: orbit computation missed an arrow\n"


def test_composition_lost_after_validation_is_an_internal_error(monkeypatch, capsys):
    real_decompose = gpdalg.cli.decompose

    def decompose_then_drop_a_composition(g, ring):
        d = real_decompose(g, ring)
        monkeypatch.delitem(g._comp_map, g.comp[-1][0])
        return d

    monkeypatch.setattr(gpdalg.cli, "decompose", decompose_then_drop_a_composition)
    code, out, err = _main_in_process(
        capsys, "groupoid", str(FIXTURES / "pair2_z2.gpd"), "--verify")
    assert code == 2
    assert not out
    assert err.startswith("internal error: no composition for composable pair (")
    assert "Traceback" not in err


def _chain_file(tmp_path, n):
    path = tmp_path / f"chain{n}.quiv"
    path.write_text(render_graph(chain_graph(n)))
    return str(path)


def test_verified_chain40_in_process(tmp_path, capsys):
    code, out, err = _main_in_process(
        capsys, "graph", _chain_file(tmp_path, 40), "--ring", "Q", "--verify",
        "--format", "machine")
    assert code == 0, err
    assert "verified_pairs=3318/3318\n" in out
    assert not err


def test_graph_verification_budget_edge_in_process(tmp_path, capsys):
    # 480 boundary paths is the largest count the relation check takes
    code, out, err = _main_in_process(
        capsys, "graph", _chain_file(tmp_path, 480), "--verify", "--format", "machine")
    assert code == 0 and not err
    assert "verified_pairs=462238/462238\n" in out
    code, out, err = _main_in_process(
        capsys, "graph", _chain_file(tmp_path, 481), "--verify", "--format", "machine")
    assert code == 0 and not err
    assert "verified_pairs=skipped\n" in out


def test_graph_verification_over_budget_is_skipped(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(gpdalg.leavitt, "LEAVITT_VERIFY_LIMIT", 3)
    path = _chain_file(tmp_path, 4)
    code, out, err = _main_in_process(
        capsys, "graph", path, "--verify", "--format", "machine")
    assert code == 0, err
    values = dict(line.split("=", 1) for line in out.splitlines())
    assert values["verified_pairs"] == "skipped"
    assert values["oracle_agreement"] == "skipped"
    assert values["shape"] == "M_4(Q)"
    code, out, err = _main_in_process(capsys, "graph", path, "--verify")
    assert code == 0 and not err
    assert "graph has 4 boundary paths; the relation verification budget stops at 3" in out


def _count_calls(monkeypatch, name, *modules):
    """Replace `name` in each module by one wrapper that counts calls."""
    calls = []
    real = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_graph_report_derives_the_boundary_path_groupoid_once(monkeypatch, capsys):
    counters = {
        name: _count_calls(monkeypatch, name, gpdalg.leavitt)
        for name in ("boundary_paths", "enumerate_cycles", "condition_ne")
    }
    code, out, err = _main_in_process(
        capsys, "graph", str(FIXTURES / "a3.quiv"), "--ring", "Q", "--verify")
    assert code == 0, err
    assert "oracle: agree" in out
    assert {name: len(calls) for name, calls in counters.items()} == {
        "boundary_paths": 1, "enumerate_cycles": 1, "condition_ne": 1}


def test_isg_report_validates_the_underlying_groupoid_once(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, "_axiom_violations", gpdalg.groupoid)
    code, out, err = _main_in_process(
        capsys, "isg", str(FIXTURES / "i2.isg"), "--verify", "--format", "machine")
    assert code == 0, err
    assert "verified_pairs=50/50\n" in out
    assert len(calls) == 1


def test_groupoid_report_computes_orbits_once(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, "orbits", gpdalg.groupoid, gpdalg.algebra)
    code, out, err = _main_in_process(
        capsys, "groupoid", str(FIXTURES / "pair2_z2.gpd"), "--verify")
    assert code == 0, err
    assert "oracle: agree" in out
    assert len(calls) == 1


@pytest.mark.parametrize("ring, graph, builds, oracle_line", [
    ("Z", "a3", 0, "oracle: unsupported (oracle handles Q and GF(p), not Z)\n"),
    ("Q", "chain9", 0, "oracle: skipped (dimension 81 beyond the oracle budget 64)\n"),
    ("Q", "a3", 1, "oracle: agree (method trace form, radical dimension 0)\n"),
])
def test_graph_oracle_builds_the_finite_groupoid_only_when_it_runs(
        tmp_path, capsys, monkeypatch, ring, graph, builds, oracle_line):
    path = str(FIXTURES / "a3.quiv") if graph == "a3" else _chain_file(tmp_path, 9)
    calls = _count_calls(monkeypatch, "as_finite_groupoid", gpdalg.cli)
    code, out, err = _main_in_process(capsys, "graph", path, "--ring", ring, "--verify")
    assert code == 0, err
    assert oracle_line in out
    assert len(calls) == builds


@pytest.mark.parametrize("stage, exc", [
    ("leavitt_verdicts", KeyError("boom")),
    ("verify_leavitt_relations", RuntimeError("boom")),
    ("render_report_machine", IndexError("boom")),
])
def test_an_exception_escaping_a_stage_is_an_internal_error(monkeypatch, capsys, stage, exc):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(gpdalg.cli, stage, broken)
    code, out, err = _main_in_process(
        capsys, "graph", str(FIXTURES / "a3.quiv"), "--verify", "--format", "machine")
    assert code == 2
    assert not out
    assert err == f"internal error: {type(exc).__name__}: {exc}\n"
