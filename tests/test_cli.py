"""End-to-end command line behavior via subprocess."""
import contextlib
import io
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from corpus import chain_graph, complete_digraph, diamond_chain_graph, graph_corpus

import gpdalg.cli
import gpdalg.groupoid
import gpdalg.leavitt
from gpdalg import Graph, Orbit, render_graph, render_groupoid
from gpdalg.constructions import cyclic_table, pair_groupoid, product_with_group

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

MACHINE_KEYS = [
    "noetherian", "artinian", "semisimple", "shape",
    "verified_pairs", "oracle_agreement",
]


def run_cli(*args, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "gpdalg.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
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


@pytest.mark.parametrize("sub, text, fragment", [
    ("groupoid", "objects: a\narrow i d : a -> a\n", "line 2: arrow name 'i d' contains"),
    ("graph", "vertices: v\nedge e\t1 : v -> v\n", "line 2: edge name 'e\t1' contains"),
    ("isg", "elements: z\nrow z z : z\n", "line 2: row name 'z z' contains whitespace"),
])
def test_a_declared_name_with_whitespace_exits_one(tmp_path, sub, text, fragment):
    path = tmp_path / "input.txt"
    path.write_text(text)
    r = run_cli(sub, str(path))
    assert r.returncode == 1, r.stderr
    assert fragment in r.stderr, r.stderr
    assert not r.stdout


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


def test_one_parser_serves_every_call_with_the_same_usage_errors(capsys):
    assert gpdalg.cli.build_parser() is gpdalg.cli.build_parser()
    path = str(FIXTURES / "pair2.gpd")
    for bad in (("groupoid", path, "--format", "yaml"), ("frobnicate", path), ()):
        fresh = run_cli(*bad)
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                gpdalg.cli.main(list(bad))
            assert exc.value.code == 1
            out, err = capsys.readouterr()
            assert (out, err) == ("", fresh.stderr), bad
            code, out, err = _main_in_process(capsys, "groupoid", path, "--format", "machine")
            assert code == 0 and out.startswith("noetherian=true\n") and not err


COMMANDS = ("groupoid", "graph", "isg")
# single words, including argparse-only forms: an abbreviation, --opt=value,
# help, '--', a file named '-', a value that looks like a negative number
ARGV_WORDS = COMMANDS + (
    "frobnicate", "pair2.gpd", "a3.quiv", "--ring", "--format", "--verify", "Q", "GF(2)",
    "text", "machine", "yaml", "--ver", "--ring=Q", "-h", "--", "-", "-1", "",
)
# the words of the usage line's form, one option or FILE at a time, with
# values argparse rejects or the direct reader leaves to it among them
ARGV_GROUPS = (
    ("a3.quiv",), ("--verify",),
    ("--ring", "Q"), ("--ring", "GF(2)"), ("--ring", "text"), ("--ring", ""), ("--ring", "-1"),
    ("--format", "text"), ("--format", "machine"), ("--format", "yaml"), ("--format", "Q"),
)


def _argparse_reads(argv):
    """(command, file, ring, verify, format) from build_parser, or None
    when it exits (help or a usage error)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            a = gpdalg.cli.build_parser().parse_args(argv)
    except SystemExit:
        return None
    return a.command, a.file, a.ring, a.verify, a.format


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    st.one_of(st.sampled_from(COMMANDS), st.sampled_from(ARGV_WORDS)),
    st.lists(st.sampled_from(ARGV_GROUPS), max_size=4),
    st.integers(0, 4),
    st.lists(st.tuples(st.integers(0, 10), st.sampled_from(ARGV_WORDS)), max_size=1),
)
def test_the_direct_argv_reader_agrees_with_argparse(first, groups, file_at, inserted):
    groups.insert(file_at, ("pair2.gpd",))
    argv = [first, *(w for group in groups for w in group)]
    for at, word in inserted:
        argv.insert(at, word)
    read = gpdalg.cli._read_argv(argv)
    if read is not None:  # argparse reads it the same, and so accepts it
        assert read == _argparse_reads(argv), argv


@pytest.mark.parametrize("argv", [
    ["groupoid", "pair2.gpd"],
    ["graph", "a3.quiv", "--verify", "--format", "machine"],
    ["isg", "--ring", "GF(2)", "i2.isg", "--verify"],
    ["groupoid", "--format", "text", "--ring", "Z", "--ring", "GF(3)", "f", "--format", "machine"],
    ["graph", "", "--ring", ""],
])
def test_the_usage_line_forms_are_read_directly(argv):
    read = gpdalg.cli._read_argv(argv)
    assert read is not None and read == _argparse_reads(argv)


def test_main_without_argv_reads_sys_argv_on_both_paths(monkeypatch, capsys):
    path = str(FIXTURES / "pair2.gpd")
    for argv in (["groupoid", path, "--format", "machine"], ["groupoid", path, "--format=machine"]):
        monkeypatch.setattr(sys, "argv", ["gpdalg", *argv])
        assert gpdalg.cli.main() == 0
        out, err = capsys.readouterr()
        assert out.startswith("noetherian=true\n") and not err, argv


_GROUPOID_USAGE = (
    "usage: gpdalg groupoid [-h] [--ring RING] [--verify] [--format {text,machine}]\n"
    "                       file\n"
)


@pytest.mark.parametrize("args, code, out, err", [
    (("-h",), 0, (
        "usage: gpdalg [-h] {groupoid,graph,isg} ...\n"
        "\n"
        "structure of groupoid algebras at desk scale\n"
        "\n"
        "positional arguments:\n"
        "  {groupoid,graph,isg}\n"
        "    groupoid            analyze a finite groupoid file\n"
        "    graph               analyze the Leavitt path algebra of a directed graph\n"
        "    isg                 analyze a finite inverse semigroup algebra\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ), ""),
    (("groupoid", "-h"), 0, _GROUPOID_USAGE + (
        "\n"
        "positional arguments:\n"
        "  file                  input file\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --ring RING           coefficient ring descriptor (default Q)\n"
        "  --verify              re-derive all structural claims and run the oracle\n"
        "  --format {text,machine}\n"
        "                        output format (default text)\n"
    ), ""),
    (("groupoid", "PAIR2", "--format", "yaml"), 1, "", _GROUPOID_USAGE
     + "error: argument --format: invalid choice: 'yaml' (choose from 'text', 'machine')\n"),
    (("groupoid", "PAIR2", "--ring"), 1, "", _GROUPOID_USAGE
     + "error: argument --ring: expected one argument\n"),
    (("frobnicate", "PAIR2"), 1, "", "usage: gpdalg [-h] {groupoid,graph,isg} ...\n"
     "error: argument command: invalid choice: 'frobnicate' (choose from 'groupoid', 'graph', 'isg')\n"),
    (("groupoid",), 1, "", _GROUPOID_USAGE + "error: the following arguments are required: file\n"),
], ids=["help", "groupoid-help", "format-yaml", "ring-no-value", "unknown-command", "missing-file"])
def test_help_and_usage_errors_print_what_argparse_always_printed(args, code, out, err):
    args = [str(FIXTURES / "pair2.gpd") if a == "PAIR2" else a for a in args]
    r = subprocess.run([sys.executable, "-m", "gpdalg.cli", *args], capture_output=True, text=True,
                       timeout=60, env=dict(os.environ, COLUMNS="80"))
    assert (r.returncode, r.stdout, r.stderr) == (code, out, err)


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
    big = product_with_group(pair_groupoid(list("abcde")), cyclic_table(4))
    assert big.arrow_count == 100
    path = tmp_path / "pair5_z4.gpd"
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


def test_deeply_nested_ring_is_a_parse_error(capsys):
    # nested far past the parser's limit, a descriptor used to parse and
    # then overflow the recursion limit when compared or rendered
    ring = "Product(" * 200 + "Q" + ")" * 200
    code, out, err = _main_in_process(
        capsys, "groupoid", str(FIXTURES / "pair2.gpd"), "--ring", ring)
    assert code == 1 and not out
    assert err == "error: position 265: ring descriptor nested deeper than 32 levels\n"
    assert "internal error" not in err


def test_largest_modulus_is_accepted(capsys):
    code, out, err = _main_in_process(
        capsys, "groupoid", str(FIXTURES / "z3.gpd"), "--ring", "GF(2147483647)",
        "--format", "machine")
    assert code == 0 and not err
    assert "shape=M_1(GF(2147483647)[Z/3])\n" in out


def test_orbit_that_misses_an_arrow_is_an_internal_error(monkeypatch, capsys):
    # frames that split the orbit {x, y} leave the arrows between x and y out
    def singletons(g):
        return [Orbit((x,), (g.identity_of[x],)) for x in range(len(g.objects))]

    monkeypatch.setattr(gpdalg.groupoid, "orbits", singletons)
    code, out, err = _main_in_process(
        capsys, "groupoid", str(FIXTURES / "pair2_z2.gpd"), "--verify")
    assert code == 2
    assert not out
    assert err == "internal error: orbit computation missed an arrow\n"


def _verify_after_dropping_a_composition(monkeypatch, capsys, pick):
    """Run groupoid --verify on pair2_z2.gpd, deleting the composition
    pick(g) returns from g.rows after validate has passed."""
    real_decompose = gpdalg.cli.decompose

    def decompose_then_drop_a_composition(g, ring):
        d = real_decompose(g, ring)
        f, h = pick(g)
        monkeypatch.delitem(g.rows[f], h)
        return d

    monkeypatch.setattr(gpdalg.cli, "decompose", decompose_then_drop_a_composition)
    return _main_in_process(capsys, "groupoid", str(FIXTURES / "pair2_z2.gpd"), "--verify")


def test_composition_lost_after_validation_is_an_internal_error(monkeypatch, capsys):
    # the last pair of g.comp has no generator on the right, so the pair
    # check does not visit it; it composes to an identity, so its Gram
    # row over Q is left empty and the Q oracle's pattern check fails
    code, out, err = _verify_after_dropping_a_composition(
        monkeypatch, capsys, lambda g: g.comp[-1][0])
    assert code == 2
    assert not out
    assert err == "internal error: trace form over Q is not a nondegenerate monomial form\n"


def test_identity_composition_lost_after_validation_fails_the_q_trace_check(monkeypatch, capsys):
    # p_y_y@0 after p_y_y@1 is no generator pair and on no pull path,
    # and its Gram row keeps one entry; only tr(1_y) drops from 4 to 3
    code, out, err = _verify_after_dropping_a_composition(
        monkeypatch, capsys, lambda g: (g.arrow_index("p_y_y@0"), g.arrow_index("p_y_y@1")))
    assert code == 2
    assert not out
    assert err == "internal error: trace over Q of p_y_y@0 is 3, not 4\n"


def test_generator_composition_lost_after_validation_is_an_internal_error(monkeypatch, capsys):
    def generator_pair(g):
        gens = gpdalg.groupoid.generators(g)
        return next(pair for pair, _ in reversed(g.comp) if pair[1] in gens)

    code, out, err = _verify_after_dropping_a_composition(monkeypatch, capsys, generator_pair)
    assert code == 2
    assert not out
    assert err.startswith("internal error: no composition for composable pair (")
    assert "Traceback" not in err


def test_composition_lost_on_a_pull_path_fails_a_round_trip(monkeypatch, capsys):
    # p_x_y@1 is no generator, so the pair check does not visit the lost
    # composition; pulling p_x_y@1's unit back along the frame needs it
    def pull_path_pair(g):
        return g.arrow_index("p_x_x@0"), g.arrow_index("p_x_y@1")

    code, out, err = _verify_after_dropping_a_composition(monkeypatch, capsys, pull_path_pair)
    assert code == 2
    assert not out
    assert err == (
        "internal error: isomorphism verification failed: phi_inv(phi([p_x_y@1])) != [p_x_y@1]\n")


@pytest.mark.parametrize("lost, message", [
    (("p_x_y@0", "p_y_x@0"), "no transport from p_x_x@0 to p_y_y@0"),
    (("p_y_x@0", "p_x_x@1"), "transported corner of p_x_x@0 does not cover its block once"),
], ids=["inverse", "relabelling"])
def test_transport_composition_lost_before_the_oracle_is_an_internal_error(
        monkeypatch, capsys, lost, message):
    # over GF(2) the oracle carries the radical of the corner at x to
    # y along p_y_x@0 : x -> y and its inverse p_x_y@0; the composition
    # goes after the isomorphism check has passed
    real_oracle = gpdalg.cli.radical_oracle

    def drop_then_run(g, ring):
        f, h = (g.arrow_index(name) for name in lost)
        monkeypatch.delitem(g.rows[f], h)
        return real_oracle(g, ring)

    monkeypatch.setattr(gpdalg.cli, "radical_oracle", drop_then_run)
    code, out, err = _main_in_process(
        capsys, "groupoid", str(FIXTURES / "pair2_z2.gpd"), "--ring", "GF(2)", "--verify")
    assert code == 2
    assert not out
    assert err == f"internal error: {message}\n"


_NOT_MULTIPLICATIVE = "isomorphism verification failed: phi not multiplicative on (p_x_x@0, p_x_y@1)"
_LOOP_NOT_MULTIPLICATIVE = "isomorphism verification failed: phi not multiplicative on (p_x_y@0, p_y_y@1)"


@pytest.mark.parametrize("arrow, field, value, message", [
    ("p_x_y@1", 1, 2, _NOT_MULTIPLICATIVE),   # row = block size
    ("p_x_y@1", 0, 1, _NOT_MULTIPLICATIVE),   # block = block count
    ("p_x_y@1", 3, -1, _NOT_MULTIPLICATIVE),  # key = -1
    ("p_x_y@1", 3, 2, _NOT_MULTIPLICATIVE),   # key = group size
    # a loop's unit out of the shape, once an IndexError where it met
    # itself in the pair check, fails where p_x_y@0 chains into it
    ("p_y_y@1", 0, 1, _LOOP_NOT_MULTIPLICATIVE),
    ("p_y_y@1", 3, 2, _LOOP_NOT_MULTIPLICATIVE),
], ids=["row", "block", "key", "key_size", "loop_block", "loop_key_size"])
def test_a_decomposition_outside_its_shape_is_an_internal_error(
        monkeypatch, capsys, arrow, field, value, message):
    # once exit 1 through phi's ValueError, as if the input were bad
    real_decompose = gpdalg.cli.decompose

    def decompose_then_move_an_arrow(g, ring):
        d = real_decompose(g, ring)
        position = list(d.arrow_position)
        unit = list(position[g.arrow_index(arrow)])
        unit[field] = value
        position[g.arrow_index(arrow)] = tuple(unit)
        return d._replace(arrow_position=tuple(position))

    monkeypatch.setattr(gpdalg.cli, "decompose", decompose_then_move_an_arrow)
    code, out, err = _main_in_process(capsys, "groupoid", str(FIXTURES / "pair2_z2.gpd"), "--verify")
    assert code == 2
    assert not out
    assert err == f"internal error: {message}\n"


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
    # 1440 boundary paths is the largest count the relation check takes
    code, out, err = _main_in_process(
        capsys, "graph", _chain_file(tmp_path, 1440), "--verify", "--format", "machine")
    assert code == 0 and not err
    assert "verified_pairs=4151518/4151518\n" in out
    code, out, err = _main_in_process(
        capsys, "graph", _chain_file(tmp_path, 1441), "--verify", "--format", "machine")
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
        for name in ("_peel", "enumerate_cycles", "condition_ne")
    }
    code, out, err = _main_in_process(
        capsys, "graph", str(FIXTURES / "a3.quiv"), "--ring", "Q", "--verify")
    assert code == 0, err
    assert "oracle: agree" in out
    # (NE) holds: one peel decides it, and no cycle is enumerated
    assert {name: len(calls) for name, calls in counters.items()} == {
        "_peel": 1, "enumerate_cycles": 0, "condition_ne": 0}
    for calls in counters.values():
        calls.clear()
    code, out, err = _main_in_process(capsys, "graph", str(FIXTURES / "rose2.quiv"), "--verify")
    assert code == 0, err
    assert "Z((e)^n.f)" in out
    # (NE) fails: the witness is built without enumerating a cycle
    assert {name: len(calls) for name, calls in counters.items()} == {
        "_peel": 1, "enumerate_cycles": 0, "condition_ne": 0}


def test_forty_diamonds_report_without_listing_a_path(tmp_path, monkeypatch, capsys):
    # 2^42 - 3 paths into the one sink: counted by the peel, never listed
    path = tmp_path / "diamonds40.quiv"
    path.write_text(render_graph(diamond_chain_graph(40)))
    r = run_cli("graph", str(path), timeout=30)
    assert r.returncode == 0 and not r.stderr
    assert "boundary paths: 4398046511101\n" in r.stdout
    assert "shape: M_4398046511101(Q)\n" in r.stdout
    r = run_cli("graph", str(path), "--verify", timeout=30)
    assert r.returncode == 0 and not r.stderr
    assert "verification: skipped\n" in r.stdout
    assert ("graph has 4398046511101 boundary paths; "
            "the relation verification budget stops at 1440") in r.stdout
    listings = _count_calls(monkeypatch, "_listing", gpdalg.leavitt.GraphOrbit)
    code, out, err = _main_in_process(capsys, "graph", str(path), "--verify")
    assert (code, out, err) == (0, r.stdout, "")
    assert listings == []


def test_long_chain_reports_within_the_timeout(tmp_path):
    r = run_cli("graph", _chain_file(tmp_path, 5000), timeout=30)
    assert r.returncode == 0 and not r.stderr
    assert "boundary paths: 5000\n" in r.stdout


def test_complete_digraph_k12_reports_its_witness_within_the_timeout(tmp_path):
    # K12 has billions of simple cycles; the witness is built without them
    path = tmp_path / "k12.quiv"
    path.write_text(render_graph(complete_digraph(12)))
    r = run_cli("graph", str(path), timeout=30)
    assert r.returncode == 0 and not r.stderr
    assert "condition (NE) fails: cycle (e00_01.e01_00) has exit edge 'e00_11'" in r.stdout


def test_ring_with_random_exits_reports_its_witness_within_the_timeout(tmp_path):
    # a 20,000-edge ring and one seeded random edge out of every vertex:
    # every step of the witness, the whole ring, has two edges to choose
    # from, and the witness search must stay linear in the graph
    n, rng = 20000, random.Random(20261020)
    vs = [f"v{i:05d}" for i in range(n)]
    ring = [(f"e{i:05d}", vs[i], vs[(i + 1) % n]) for i in range(n)]
    exits = [(f"f{i:05d}", vs[i], vs[rng.randrange(n)]) for i in range(n)]
    path = tmp_path / "ring20000.quiv"
    path.write_text(render_graph(Graph.make(vs, ring + exits)))
    r = run_cli("graph", str(path), timeout=30)
    assert r.returncode == 0 and not r.stderr
    cycle = ".".join(name for name, _, _ in ring)
    assert f"condition (NE) fails: cycle ({cycle}) has exit edge 'f00000'" in r.stdout


def test_generator_images_read_the_listing_without_path_lookups(tmp_path, monkeypatch, capsys):
    made, inside, calls = [], [], []
    real_images = gpdalg.leavitt.generator_images

    def images(*args):
        made.append(args)
        inside.append(True)
        try:
            return real_images(*args)
        finally:
            inside.pop()

    def watched(name, real):
        def wrapper(*args):
            if inside:
                calls.append(name)
            return real(*args)
        return wrapper

    monkeypatch.setattr(gpdalg.leavitt, "generator_images", images)
    # no boundary path is built, and no unit set is merged or multiplied
    orbit = gpdalg.leavitt.GraphOrbit
    monkeypatch.setattr(orbit, "members", property(watched("members", orbit.members.fget)))
    monkeypatch.setattr(gpdalg.leavitt, "_compose", watched("_compose", gpdalg.leavitt._compose))
    finite = 0
    for name, g, expect_finite in graph_corpus():
        path = tmp_path / f"{name}.quiv"
        path.write_text(render_graph(g))
        code, out, err = _main_in_process(capsys, "graph", str(path), "--verify")
        assert code == 0 and not err, name
        finite += expect_finite
    assert len(made) == finite > 10
    assert calls == []


def test_a_wrong_ne_decision_fails_closed(tmp_path, monkeypatch, capsys):
    # the loop e exits to the sink w; a peel that leaves no vertex makes
    # the graph look acyclic, with one path into w
    path = tmp_path / "loop_exit.quiv"
    path.write_text("vertices: v w\nedge e : v -> v\nedge f : v -> w\n")
    real_peel = gpdalg.leavitt._peel
    monkeypatch.setattr(gpdalg.leavitt, "_peel", lambda g: (real_peel(g)[0], []))
    # the listing that --verify reads walks past the peel's count
    code, out, err = _main_in_process(capsys, "graph", str(path), "--verify")
    assert code == 2 and not out
    assert err == "internal error: listing an orbit of 1 boundary paths walked past it\n"


def test_isg_report_validates_the_underlying_groupoid_once(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, "_axiom_violations", gpdalg.groupoid)
    code, out, err = _main_in_process(
        capsys, "isg", str(FIXTURES / "i2.isg"), "--verify", "--format", "machine")
    assert code == 0, err
    assert "verified_pairs=50/50\n" in out
    assert len(calls) == 1


def test_groupoid_report_computes_orbits_once(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, "orbits", gpdalg.groupoid)
    code, out, err = _main_in_process(
        capsys, "groupoid", str(FIXTURES / "pair2_z2.gpd"), "--verify")
    assert code == 0, err
    assert "oracle: agree" in out
    assert len(calls) == 1


def test_linear_size_groupoid_verifies_every_pair(tmp_path, capsys):
    # 500 objects, each with its identity alone: 500 arrows but only 500
    # composable pairs, so the check need not walk all 250,000
    n = 500
    g = gpdalg.groupoid.FiniteGroupoid.make(
        [f"o{i}" for i in range(n)], [f"id{i}" for i in range(n)],
        range(n), range(n), range(n), {(i, i): i for i in range(n)}, range(n))
    path = tmp_path / "discrete500.gpd"
    path.write_text(render_groupoid(g))
    code, out, err = _main_in_process(
        capsys, "groupoid", str(path), "--ring", "Z", "--verify", "--format", "machine")
    assert code == 0, err
    assert "verified_pairs=251001/251001\n" in out


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
