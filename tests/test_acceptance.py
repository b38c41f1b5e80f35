"""Acceptance suite: seven end-to-end claims, one test each.

Every test prints one line

    ACCEPTANCE n: PASS - <what was established>

on success (run with `pytest -s` to see the lines).  All checks are
exact; there are no numeric tolerances anywhere in the package.
"""
import contextlib
import io
import pathlib
import subprocess
import sys

from corpus import graph_corpus, groupoid_corpus
from support import order_det, paths_to_sinks, reference_generated_dimension

from gpdalg import (
    IntegerGroup,
    Q,
    Z,
    condition_ne,
    decompose,
    enumerate_cycles,
    generator_images,
    graph_groupoid,
    isg_verdicts,
    leavitt_verdicts,
    natural_partial_order,
    parse_isg,
    parse_ring_descriptor,
    radical_oracle,
    render_graph,
    render_groupoid,
    semigroup_algebra_iso,
    structured_from_finite,
    underlying_groupoid,
    verdicts,
    verify_isomorphism,
    verify_leavitt_relations,
)
from gpdalg.cli import main as cli_main
from gpdalg.constructions import cyclic_table, group_groupoid
from gpdalg.leavitt import ExitWitness, block_shape

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

GF2 = parse_ring_descriptor("GF(2)")
GF3 = parse_ring_descriptor("GF(3)")
Z6 = parse_ring_descriptor("Z/6")
LQ = parse_ring_descriptor("Laurent(Q)")
QxGF3 = parse_ring_descriptor("Product(Q, GF(3))")

ISO_RINGS = (Q, Z, GF2, GF3, Z6)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "gpdalg.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_acceptance_1_isomorphism_everywhere():
    corpus = groupoid_corpus()
    checks = 0
    for name, g in corpus:
        for ring in ISO_RINGS:
            report = verify_isomorphism(decompose(g, ring))
            assert report.ok, (name, ring, report.failures[:3])
            assert report.passed == report.total
            checks += report.total
    print(
        f"\nACCEPTANCE 1: PASS - block-matrix isomorphism verified exhaustively "
        f"on {len(corpus)} groupoids x {len(ISO_RINGS)} rings ({checks} unit checks, all exact)"
    )


def test_acceptance_2_cardinality_identity():
    corpus = groupoid_corpus()
    for name, g in corpus:
        shape = structured_from_finite(g, Q)
        total = sum(size ** 2 * group.size for size, group in shape.blocks)
        assert total == g.arrow_count, name
    print(
        f"\nACCEPTANCE 2: PASS - sum of size^2 x isotropy order equals the arrow "
        f"count on all {len(corpus)} corpus groupoids (exact integers)"
    )


def test_acceptance_3_oracle_agreement():
    compared = 0
    for name, g in groupoid_corpus():
        if g.arrow_count > 12:
            continue
        for ring in (Q, GF2, GF3):
            expected = verdicts(structured_from_finite(g, ring)).semisimple
            assert radical_oracle(g, ring).semisimple == expected, (name, ring)
            compared += 1
    z2 = group_groupoid(cyclic_table(2))
    assert radical_oracle(z2, Q).semisimple
    rep = radical_oracle(z2, GF2)
    assert not rep.semisimple
    assert rep.witness == "1*g0 + 1*g1"
    print(
        f"\nACCEPTANCE 3: PASS - radical oracle agrees with the verdict engine on "
        f"{compared} groupoid/ring pairs; fixed points over Q and GF(2) confirmed"
    )


def test_acceptance_4_leavitt_battery():
    corpus = graph_corpus()
    for name, g, finite in corpus:
        holds, _ = condition_ne(g)
        assert holds == finite, name
        assert isinstance(graph_groupoid(g), ExitWitness) != finite, name

    relation_checks = 0
    for name, g, finite in corpus:
        if not finite:
            continue
        gd = graph_groupoid(g)
        cycle_orbits = [o for o in gd.orbits if o.kind == "cycle"]
        assert len(cycle_orbits) == len(enumerate_cycles(g)), name
        for o in gd.orbits:
            assert isinstance(o.isotropy, IntegerGroup) == (o.kind == "cycle"), name
        assert (block_shape(gd, Q).dimension is None) == bool(cycle_orbits), name
        for ring in (Q, Z):
            report = verify_leavitt_relations(g, ring)
            assert report.ok, (name, ring, report.failures[:3])
            relation_checks += report.total

    for name, g, finite in corpus:
        if not finite or enumerate_cycles(g):
            continue
        expected = sum(c * c for c in paths_to_sinks(g).values())
        assert block_shape(graph_groupoid(g), Q).dimension == expected, name
        assert reference_generated_dimension(generator_images(g)) == expected, name
    a3 = dict((n, g) for n, g, _ in corpus)["a3"]
    assert reference_generated_dimension(generator_images(a3)) == 9

    for name, g, finite in corpus:
        if not finite:
            continue
        gd = graph_groupoid(g)
        for ring in (Q, Z, GF2, Z6):
            via_graph = leavitt_verdicts(g, ring)
            via_chain = verdicts(block_shape(gd, ring))
            assert (via_graph.noetherian, via_graph.artinian, via_graph.semisimple) == (
                via_chain.noetherian, via_chain.artinian, via_chain.semisimple
            ), (name, ring)

    rose2 = dict((n, g) for n, g, _ in corpus)["rose2"]
    for ring in (Z, Q, GF2, Z6, LQ, QxGF3):
        v = leavitt_verdicts(rose2, ring)
        assert (v.noetherian, v.artinian, v.semisimple) == (False, False, False)
    print(
        f"\nACCEPTANCE 4: PASS - boundary finiteness = no-exit condition on all "
        f"{len(corpus)} graphs, infinite isotropy exactly on cycle orbits, "
        f"{relation_checks} relation checks green, acyclic dimensions match the "
        f"path-count oracle, graph and chain verdict routes agree, and an exit "
        f"kills every chain condition over all six ring constructors"
    )


def test_acceptance_5_inverse_semigroup_battery():
    s = parse_isg((FIXTURES / "i2.isg").read_text())
    assert s.size == 7
    v = isg_verdicts(s, Q)
    assert v.shape_string == "M_2(Q) x M_1(Q[Z/2]) x M_1(Q)"
    shape = structured_from_finite(underlying_groupoid(s), Q)
    block_dims = sorted(size ** 2 * group.size for size, group in shape.blocks)
    assert block_dims == [1, 2, 4] and sum(block_dims) == s.size
    for ring in (Q, GF3):
        # 49 element pairs plus the identity-to-unit check
        iso = semigroup_algebra_iso(s, ring)
        assert iso.report.ok and iso.report.total == s.size ** 2 + 1 == 50, ring
    assert order_det(natural_partial_order(s)) == 1

    g = underlying_groupoid(s)
    assert not isg_verdicts(s, GF2).semisimple
    rep = radical_oracle(g, GF2)
    assert not rep.semisimple
    assert rep.witness == "1*one + 1*swap"

    lattice = parse_isg((FIXTURES / "semilattice2.isg").read_text())
    assert isg_verdicts(lattice, Q).shape_string == "M_1(Q) x M_1(Q)"
    from gpdalg import InverseSemigroup

    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    z3 = InverseSemigroup.from_table([f"g{i}" for i in range(3)], table)
    assert isg_verdicts(z3, Q).shape_string == "M_1(Q[Z/3])"
    print(
        "\nACCEPTANCE 5: PASS - the 7-element symmetric inverse monoid decomposes "
        "as M_2(R) x M_1(R[Z/2]) x M_1(R) with block dimensions 4+2+1 = 7, all 49 "
        "pairs plus the unit verified over Q and GF(3), unimodular transition, "
        "GF(2) radical witness 1*one + 1*swap; semilattice and group edge cases "
        "have the expected shapes"
    )


def test_acceptance_6_corrupted_inputs_are_rejected():
    cases = [
        ("groupoid", "broken_assoc.gpd", (), "associativity fails"),
        ("groupoid", "missing_inverse.gpd", (), "has no inverse"),
        ("groupoid", "undeclared_object.gpd", (), "object 'y' not declared"),
        ("graph", "dangling_edge.quiv", (), "vertex 'w' not declared"),
        ("isg", "left_zero.isg", (), "pseudo-inverses"),
        ("isg", "bad_row.isg", (), "has 1 entries, expected 2"),
        ("groupoid", "pair2.gpd", ("--ring", "GF(9)"), "9 is not prime"),
    ]
    for sub, name, extra, fragment in cases:
        r = run_cli(sub, str(FIXTURES / name), *extra)
        assert r.returncode == 1, name
        assert fragment in r.stderr, (name, r.stderr)
        assert not r.stdout, name
    print(
        f"\nACCEPTANCE 6: PASS - all {len(cases)} corrupted inputs (bad axioms, "
        f"dangling references, malformed ring descriptor) exit 1 with their "
        f"designated diagnostic on stderr and no report on stdout"
    )


MACHINE_KEYS = [
    "noetherian", "artinian", "semisimple", "shape",
    "verified_pairs", "oracle_agreement",
]


def _run_inprocess(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(args))
    return code, out.getvalue(), err.getvalue()


def test_acceptance_7_deterministic_machine_output(tmp_path):
    invocations = []
    for name, g in groupoid_corpus():
        p = tmp_path / f"{name}.gpd"
        p.write_text(render_groupoid(g))
        invocations.append(("groupoid", str(p), "--verify", "--format", "machine"))
    for name, g, _finite in graph_corpus():
        p = tmp_path / f"{name}.quiv"
        p.write_text(render_graph(g))
        invocations.append(("graph", str(p), "--verify", "--format", "machine"))
    for name in ("i2.isg", "semilattice2.isg"):
        invocations.append(
            ("isg", str(FIXTURES / name), "--verify", "--format", "machine")
        )
    for args in invocations:
        runs = [_run_inprocess(args) for _ in range(2)]
        for code, _stdout, stderr in runs:
            assert code == 0, (args, stderr)
        assert runs[0][1] == runs[1][1], args
        keys = [line.split("=", 1)[0] for line in runs[0][1].splitlines()]
        assert keys[: len(MACHINE_KEYS)] == MACHINE_KEYS, args

    # fresh interpreters rule out per-process ordering artifacts
    subprocess_invocations = [
        ("groupoid", str(FIXTURES / "pair2_z2.gpd"), "--ring", "GF(2)", "--verify", "--format", "machine"),
        ("graph", str(FIXTURES / "loop_spoke.quiv"), "--verify", "--format", "machine"),
        ("isg", str(FIXTURES / "i2.isg"), "--ring", "GF(3)", "--verify", "--format", "machine"),
    ]
    for args in subprocess_invocations:
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0, (args, first.stderr)
        assert first.stdout == second.stdout, args
    print(
        f"\nACCEPTANCE 7: PASS - machine-format reruns are byte identical on all "
        f"{len(invocations)} corpus inputs (and across fresh interpreters for "
        f"all three subcommands) with the fixed key set in order"
    )
