"""Chain-condition verdicts against the brute-force radical oracle."""
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

from corpus import chain_graph, disconnected_ladder, groupoid_corpus, in_tree_graph, isg_corpus
from support import (
    _basis_products,
    _right_ideal_nilpotent,
    reference_exhaustive_radical,
    reference_filtration_radical,
    reference_ideal_certified_nilpotent,
    reference_residue,
    reference_trace_form,
)

import gpdalg.cli
import gpdalg.linalg
import gpdalg.oracle

from gpdalg import (
    BlockShape,
    FiniteGroupoid,
    IntegerGroup,
    OracleBudgetError,
    Q,
    Z,
    decompose,
    parse_ring_descriptor,
    radical_oracle,
    render_groupoid,
    structured_from_finite,
    verdicts,
)
from gpdalg.errors import InternalCheckError
from gpdalg.groupoid import generators, orbits
from gpdalg.isg import underlying_groupoid
from gpdalg.leavitt import as_finite_groupoid
from gpdalg.constructions import (
    cyclic_table,
    disjoint_union,
    group_groupoid,
    klein_table,
    pair_groupoid,
    product_with_group,
    symmetric_table,
)
from gpdalg.group_algebra import FiniteGroupTable
from gpdalg.linalg import echelon
from gpdalg.oracle import (
    ORACLE_DIMENSION_LIMIT_CHAR0,
    ORACLE_DIMENSION_LIMIT_CHARP,
    _EXHAUSTIVE_LIMIT,
    RadicalReport,
    _blocks,
    _filtration_radical_modp,
    _ideal_certified_nilpotent,
    _left_generators,
    _powers_vanish,
    _radical_charp,
    _radical_modp,
    _trace_form,
    oracle_refusal,
)
from gpdalg.rings import render_ring_descriptor

GF2 = parse_ring_descriptor("GF(2)")
GF3 = parse_ring_descriptor("GF(3)")
GF5 = parse_ring_descriptor("GF(5)")
GF7 = parse_ring_descriptor("GF(7)")
Z4 = parse_ring_descriptor("Z/4")
Z6 = parse_ring_descriptor("Z/6")
LQ = parse_ring_descriptor("Laurent(Q)")
QxGF2 = parse_ring_descriptor("Product(Q, GF(2))")

Z7_GROUPOID = group_groupoid(cyclic_table(7))
# pair(2) and Z/7 side by side: the stage products repeat, and the
# generators are a strict subset of the arrows
PAIR2_U_Z7 = disjoint_union(pair_groupoid(["x", "y"]), Z7_GROUPOID)

RING_BATTERY = (Q, Z, GF2, GF3, Z4, Z6, LQ, QxGF2)

PAIR4 = pair_groupoid([f"x{i}" for i in range(4)])

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_verdict_table():
    pair2 = pair_groupoid(["x", "y"])
    z2 = group_groupoid(cyclic_table(2))
    z3 = group_groupoid(cyclic_table(3))
    z5 = group_groupoid(cyclic_table(5))
    s3 = group_groupoid(symmetric_table(3))
    cases = [
        (pair2, Q, (True, True, True)),
        (pair2, Z, (True, False, False)),
        (pair2, LQ, (True, False, False)),
        (pair2, Z4, (True, True, False)),
        (pair2, Z6, (True, True, True)),
        (pair2, QxGF2, (True, True, True)),
        (z2, GF2, (True, True, False)),
        (z2, Z6, (True, True, False)),
        (z2, QxGF2, (True, True, False)),
        (z3, Z6, (True, True, False)),
        (z5, Z6, (True, True, True)),
        (s3, GF5, (True, True, True)),
        (s3, GF7, (True, True, True)),
        (s3, GF3, (True, True, False)),
        (s3, GF2, (True, True, False)),
    ]
    for g, ring, expected in cases:
        v = verdicts(structured_from_finite(g, ring))
        assert (v.noetherian, v.artinian, v.semisimple) == expected, (
            g.objects, ring, v.justification
        )


def test_infinite_cyclic_isotropy_changes_the_verdicts():
    for ring in (Q, GF2, Z6):
        v = verdicts(BlockShape(ring, ((3, IntegerGroup()),)))
        assert v.noetherian and not v.artinian and not v.semisimple
    v = verdicts(BlockShape(Q, ((3, IntegerGroup()),)))
    assert v.shape_string == "M_3(Laurent(Q))"
    assert any("Hilbert basis" in line for line in v.justification)


def test_justification_lines_name_their_theorems():
    v = verdicts(structured_from_finite(group_groupoid(symmetric_table(3)), GF5))
    assert "block reduction" in v.justification[0]
    art = next(l for l in v.justification if l.lower().startswith(("artinian", "not artinian")))
    assert "Connell" in art
    ss = next(l for l in v.justification if l.lower().startswith(("semisimple", "not semisimple")))
    assert "Maschke" in ss

    v = verdicts(structured_from_finite(group_groupoid(cyclic_table(2)), GF2))
    ss = next(l for l in v.justification if l.startswith("not semisimple"))
    assert "characteristic 2" in ss and "Maschke" in ss


def test_shape_string_agrees_with_decomposition():
    for name, g in groupoid_corpus():
        if g.arrow_count > 24:
            continue
        assert verdicts(structured_from_finite(g, Q)).shape_string == decompose(g, Q).shape.render(), name


def test_implication_chain_over_battery():
    for name, g in groupoid_corpus():
        for ring in RING_BATTERY:
            v = verdicts(structured_from_finite(g, ring))
            assert (not v.semisimple) or v.artinian, (name, ring)
            assert (not v.artinian) or v.noetherian, (name, ring)


def test_oracle_fixed_points():
    z2 = group_groupoid(cyclic_table(2))
    report = radical_oracle(z2, Q)
    assert report.semisimple and report.witness is None
    assert report.radical_dimension == 0 and report.method == "trace form"

    report = radical_oracle(z2, GF2)
    assert not report.semisimple and report.method == "exhaustive"
    assert report.witness == "1*g0 + 1*g1"


def test_oracle_agrees_with_verdicts_over_corpus():
    for name, g in groupoid_corpus():
        expected_q = verdicts(structured_from_finite(g, Q)).semisimple
        if g.arrow_count <= 64:
            assert radical_oracle(g, Q).semisimple == expected_q, name
        if g.arrow_count <= ORACLE_DIMENSION_LIMIT_CHARP:
            for ring in (GF2, GF3):
                expected = verdicts(structured_from_finite(g, ring)).semisimple
                assert radical_oracle(g, ring).semisimple == expected, (name, ring)


def _vector(witness, g):
    """The coefficient vector of a witness "c*arrow + ...", by arrow."""
    w = [0] * g.arrow_count
    for term in witness.split(" + "):
        c, name = term.split("*")
        w[g.arrows.index(name)] = int(c)
    return w


def test_exhaustive_and_filtration_methods_agree():
    """The two labels radical_oracle can report over GF(p), on the same
    sweep-sized inputs (where it reports "exhaustive")."""
    checked = 0
    for name, g in groupoid_corpus():
        for ring, dmax in ((GF2, 12), (GF3, 7)):
            if g.arrow_count > dmax:
                continue
            p = ring.p
            assert radical_oracle(g, ring).method == "exhaustive", (name, ring)
            ex_semisimple, _, ex_dim = _radical_charp(g, p, exhaustive=True)
            fi_semisimple, _, fi_dim = _radical_charp(g, p, exhaustive=False)
            assert ex_semisimple == fi_semisimple, (name, ring)
            if ex_semisimple:
                assert ex_dim == 0 == fi_dim
            else:
                assert ex_dim is None and fi_dim >= 1
            checked += 1
    assert checked >= 15


def _filtration_ladder():
    """The oracle's larger corners: (name, groupoid, p)."""
    s4 = group_groupoid(symmetric_table(4))
    return [
        ("S4", s4, 2),
        ("S4", s4, 3),
        ("Z25", group_groupoid(cyclic_table(25)), 5),
        ("Z16", group_groupoid(cyclic_table(16)), 2),
        ("pair2_V4", product_with_group(pair_groupoid(["x", "y"]), klein_table()), 2),
    ]


def _assert_matches_the_matrix_power_reference(name, g, p):
    """The radical basis is the matrix-power reference's, in the same
    order, and both witness picks of `_radical_charp` are read off it:
    the first row with the dimension, or the last row (what the element
    sweep finds first) with none.  Returns the radical dimension."""
    d = g.arrow_count
    basis = _dense_rows(_radical_modp(g, p), d)
    assert basis == reference_filtration_radical(_basis_products(g.rows), d, p), (name, p)
    for exhaustive in (True, False):
        semisimple, witness, dimension = _radical_charp(g, p, exhaustive)
        assert semisimple == (not basis), (name, p)
        if basis:
            assert _dense_rows([witness], d)[0] == basis[-1 if exhaustive else 0], (name, p)
            assert dimension == (None if exhaustive else len(basis)), (name, p)
        else:
            assert (witness, dimension) == (None, 0), (name, p)
    return len(basis)


def test_filtration_matches_the_matrix_power_reference():
    """Traces read as <tr, b^q> on the basis rows alone, extended
    linearly, give the very basis, in the same order, that powering the
    d x d left-multiplication matrix of every product of two basis
    vectors gives, the oracle's larger corners included."""
    pair2_s3 = product_with_group(pair_groupoid(["x", "y"]), symmetric_table(3))
    cases = [(name, g, p) for name, g in groupoid_corpus() if g.arrow_count <= 18 for p in (2, 3, 5, 7)]
    cases += [("pair2_S3", pair2_s3, 2), ("pair2_S3", pair2_s3, 3)]
    cases += [("Z7", Z7_GROUPOID, 7), ("pair2_u_Z7", PAIR2_U_Z7, 7)] + _filtration_ladder()
    nonzero = sum(bool(_assert_matches_the_matrix_power_reference(*case)) for case in cases)
    assert nonzero >= 10


def test_block_filtration_gives_the_single_chain_answer():
    """`_radical_charp`, one corner per block, returns the radical and
    both witness picks that one matrix-power chain over the whole
    algebra gives, on the whole corpus, the groupoids of the
    inverse-semigroup corpus, two relabeled inputs (one whose blocks do
    not start at their least idempotent arrow), and a larger radical."""
    sigma = list(range(PAIR2_U_Z7.arrow_count))
    random.Random(7).shuffle(sigma)
    pair2_z3 = product_with_group(pair_groupoid(["x", "y"]), cyclic_table(3))
    tau = list(range(pair2_z3.arrow_count))
    random.Random(3).shuffle(tau)
    shuffled = _relabel_arrows(pair2_z3, tau)
    idempotents = [a for a in range(shuffled.arrow_count) if shuffled.rows[a].get(a) == a]
    assert min(idempotents) != 0
    pair3_z4 = product_with_group(pair_groupoid(["x", "y", "z"]), cyclic_table(4))
    inputs = groupoid_corpus() + [(name, underlying_groupoid(s)) for name, s in isg_corpus()] + [
        ("pair2_u_Z7 relabeled", _relabel_arrows(PAIR2_U_Z7, sigma)),
        ("pair2_Z3 relabeled", shuffled), ("pair3_Z4", pair3_z4)]
    cases = [(name, g, p) for name, g in inputs for p in (2, 3, 5, 7)]
    nonzero = sum(bool(_assert_matches_the_matrix_power_reference(*case)) for case in cases)
    assert nonzero >= 25


@pytest.mark.parametrize("table, p, group_radical", [
    (cyclic_table(8), 2, 7),
    (symmetric_table(3), 3, 4),
], ids=["pair4_Z8-GF2", "pair4_S3-GF3"])
def test_radical_of_a_matrix_algebra_is_the_matrices_over_the_radical(table, p, group_radical):
    """pair(4) x G has the algebra M_4(k[G]), whose radical is
    M_4(rad k[G]): every radical vector, cut into the 16 slices of |G|
    arrows that one arrow of pair(4) carries, has each slice in the
    radical of k[G] (from the matrix-power reference on G alone), and
    the radical has 16 times its dimension.  On pair(4) x Z8 (128
    arrows) and pair(4) x S3 (96) the reference on the whole algebra
    would take seconds."""
    g = product_with_group(PAIR4, table)
    m = table.size
    group = group_groupoid(table)
    reduced = reference_filtration_radical(_basis_products(group.rows), m, p)
    assert len(reduced) == group_radical
    pivots = [row.index(1) for row in reduced]
    radical = _dense_rows(_radical_modp(g, p), g.arrow_count)
    assert len(radical) == 16 * group_radical
    for row in radical:
        for start in range(0, g.arrow_count, m):
            assert not any(reference_residue(row[start:start + m], reduced, pivots, p))


def _assert_matches_the_sweep(name, g, p):
    """radical_oracle's "exhaustive" report is the element sweep's."""
    ring = parse_ring_descriptor(f"GF({p})")
    d = g.arrow_count
    report = radical_oracle(g, ring)
    semisimple, witness, radical_dimension = reference_exhaustive_radical(
        _basis_products(g.rows), d, p
    )
    assert report.method == "exhaustive", (name, p)
    assert report.semisimple == semisimple, (name, p)
    assert report.radical_dimension == radical_dimension, (name, p)
    if witness is None:
        assert report.witness is None, (name, p)
    else:
        assert _vector(report.witness, g) == witness, (name, p)
    return semisimple


def _sweepable(p, d):
    return p ** d <= _EXHAUSTIVE_LIMIT


def test_exhaustive_answer_is_the_element_sweeps_over_the_corpus():
    checked = nonsemisimple = 0
    for name, g in groupoid_corpus():
        for p in (2, 3, 5, 7):
            if _sweepable(p, g.arrow_count):
                nonsemisimple += not _assert_matches_the_sweep(name, g, p)
                checked += 1
    assert checked >= 40 and nonsemisimple >= 13


def _relabel_arrows(g, sigma):
    """g with arrow i renamed and renumbered sigma[i]."""
    n = g.arrow_count
    at = [0] * n
    for i, s in enumerate(sigma):
        at[s] = i
    return FiniteGroupoid.make(
        g.objects,
        [g.arrows[at[s]] for s in range(n)],
        [g.dom[at[s]] for s in range(n)],
        [g.cod[at[s]] for s in range(n)],
        [None if e is None else sigma[e] for e in g.identity_of],
        {(sigma[f], sigma[h]): sigma[k] for (f, h), k in g.comp},
        [None if g.inv[at[s]] is None else sigma[g.inv[at[s]]] for s in range(n)],
    )


def test_exhaustive_witness_follows_a_relabeling_of_the_arrows():
    """The sweep's witness depends on the arrow order; the last echelon
    row of the radical must move with it."""
    rng = random.Random(20261018)
    moved = 0
    for name, g in groupoid_corpus():
        if not _sweepable(2, g.arrow_count) or g.arrow_count < 4:
            continue
        base = radical_oracle(g, GF2).witness
        for _ in range(2):
            sigma = list(range(g.arrow_count))
            rng.shuffle(sigma)
            h = _relabel_arrows(g, sigma)
            for p in (2, 3):
                if _sweepable(p, h.arrow_count):
                    _assert_matches_the_sweep(f"{name} relabeled", h, p)
            if base is not None:
                w = radical_oracle(h, GF2).witness
                moved += sorted(w.split(" + ")) != sorted(base.split(" + "))
    assert moved >= 3


def test_sweep_sized_input_is_answered_with_few_products(monkeypatch):
    """pair(2) x Z3 over GF(2) is semisimple: the sweep walked all
    4,095 nonzero elements.  The whole trace form mod 2 is degenerate
    (each identity has trace 6), so the filtration runs on the corner
    GF(2)[Z3], whose trace form is not: it forms no product at all."""
    calls = []
    product = gpdalg.oracle._mul

    def counting_mul(*args):
        calls.append(args)
        return product(*args)

    monkeypatch.setattr(gpdalg.oracle, "_mul", counting_mul)
    g = product_with_group(pair_groupoid(["x", "y"]), cyclic_table(3))
    d = g.arrow_count
    assert d == 12
    corners = _count_calls(monkeypatch, "_filtration_radical_modp")
    report = radical_oracle(g, GF2)
    assert report.semisimple and report.method == "exhaustive"
    assert len(corners) == 1 and len(corners[0][0]) == 3 and calls == []
    calls.clear()
    report = radical_oracle(product_with_group(pair_groupoid(["x", "y"]), symmetric_table(3)), Q)
    assert report.semisimple and calls == []


def test_filtration_radical_dimension_example():
    z3 = group_groupoid(cyclic_table(3))
    semisimple, _, radical_dimension = _radical_charp(z3, 3, exhaustive=False)
    assert not semisimple and radical_dimension == 2
    # 7^7 > 4096: radical_oracle reports the filtration and its dimension
    fi = radical_oracle(group_groupoid(cyclic_table(7)), GF7)
    assert fi.method == "filtration"
    assert not fi.semisimple and fi.radical_dimension == 6


def test_oracle_budget_errors():
    pair9 = pair_groupoid([f"v{i}" for i in range(9)])
    with pytest.raises(OracleBudgetError):
        radical_oracle(pair9, Q)
    pair5_z4 = product_with_group(pair_groupoid(list("abcde")), cyclic_table(4))
    assert pair5_z4.arrow_count == 100 > ORACLE_DIMENSION_LIMIT_CHARP
    with pytest.raises(OracleBudgetError):
        radical_oracle(pair5_z4, GF2)
    z6 = group_groupoid(cyclic_table(6))
    fi = radical_oracle(z6, GF5)
    assert fi.semisimple and fi.method == "filtration"


def test_one_gate_decides_the_ring_the_dimension_and_the_refusal():
    laurent = parse_ring_descriptor("Laurent(Q)")
    for ring, limit in ((Q, ORACLE_DIMENSION_LIMIT_CHAR0), (GF2, ORACLE_DIMENSION_LIMIT_CHARP)):
        assert oracle_refusal(ring, limit) is None
        refusal = oracle_refusal(ring, limit + 1)
        assert type(refusal) is OracleBudgetError
        assert str(refusal) == f"dimension {limit + 1} beyond the oracle budget {limit}"
    for ring in (Z, laurent):
        refusal = oracle_refusal(ring, 1)
        assert type(refusal) is ValueError
        assert str(refusal) == f"oracle handles Q and GF(p), not {render_ring_descriptor(ring)}"
    # radical_oracle raises the gate's refusal, word for word
    pair9 = pair_groupoid([f"v{i}" for i in range(9)])
    with pytest.raises(OracleBudgetError) as exc:
        radical_oracle(pair9, Q)
    assert str(exc.value) == str(oracle_refusal(Q, pair9.arrow_count))
    z2 = group_groupoid(cyclic_table(2))
    with pytest.raises(ValueError) as exc:
        radical_oracle(z2, laurent)
    assert str(exc.value) == str(oracle_refusal(laurent, z2.arrow_count))


def test_oracle_rejects_unsupported_rings_and_methods():
    z2 = group_groupoid(cyclic_table(2))
    with pytest.raises(ValueError):
        radical_oracle(z2, Z)


# Path algebra of the quiver 1 -> 2 on the basis e1, e2, a with
# a = e2.a.e1: not semisimple and not a groupoid algebra, with radical
# span(a) over every field.  The certificates are checked on it
# directly, and its trace form, degenerate even over Q, is what the Q
# oracle must refuse.  PATH_ROWS[i] = {j: i.j} over the nonzero products,
# the package's table form; PATH_BP is its dense form for the reference.
E1, E2, A = 0, 1, 2
PATH_ROWS = [
    {E1: E1},         # e1.e1 = e1
    {E2: E2, A: A},   # e2.e2 = e2, e2.a = a
    {E1: A},          # a.e1 = a
]
PATH_BP = _basis_products(PATH_ROWS)


@pytest.mark.parametrize("p", [2, 3])
def test_certificates_on_the_path_algebra_of_one_arrow(p):
    a, e1 = {A: 2}, {E1: 1}
    gens = range(3)
    assert _ideal_certified_nilpotent(PATH_ROWS, [a], gens, p)
    assert not _ideal_certified_nilpotent(PATH_ROWS, [e1], gens, p)      # a.e1 = a is outside
    assert not _ideal_certified_nilpotent(PATH_ROWS, [e1, a], gens, p)   # an ideal, not nilpotent
    assert _right_ideal_nilpotent(PATH_BP, [0, 0, 2], 3, p)
    assert not _right_ideal_nilpotent(PATH_BP, [1, 0, 0], 3, p)


# Path algebra of 1 -> 2 -> 3 on the basis e1, e2, e3, a, b, ba with
# a: 1 -> 2 and b: 2 -> 3.  Its radical span(a, b, ba) needs two power
# steps to vanish; span(a) squares to zero but is not an ideal (b.a = ba).
CHAIN_PRODUCTS = {
    (0, 0): 0, (1, 1): 1, (2, 2): 2,
    (1, 3): 3, (3, 0): 3,              # e2.a = a.e1 = a
    (2, 4): 4, (4, 1): 4,              # e3.b = b.e2 = b
    (4, 3): 5, (2, 5): 5, (5, 0): 5,   # b.a = e3.ba = ba.e1 = ba
}
CHAIN_ROWS = [{j: k for (f, j), k in CHAIN_PRODUCTS.items() if f == i} for i in range(6)]
CHAIN_BP = _basis_products(CHAIN_ROWS)


@pytest.mark.parametrize("p", [2, 3])
def test_certificates_on_the_path_algebra_of_two_arrows(p):
    a, b, ba = ({k: 1} for k in (3, 4, 5))
    assert _ideal_certified_nilpotent(CHAIN_ROWS, [a, b, ba], range(6), p)
    assert not _ideal_certified_nilpotent(CHAIN_ROWS, [a], range(6), p)
    assert _right_ideal_nilpotent(CHAIN_BP, [0, 0, 0, 1, 0, 0], 6, p)
    assert _right_ideal_nilpotent(CHAIN_BP, [0, 0, 0, 1, 1, 0], 6, p)


def _certificate_candidates(g, p):
    """Candidate radicals of g over GF(p): the true radical first, then
    the radical less its first row, the radical plus an identity arrow,
    and one non-loop arrow where there is one."""
    d = g.arrow_count
    radical = _radical_modp(g, p)
    candidates = [radical, radical[1:], radical + [{g.identity_of[0]: 1}]]
    candidates += [[{a: 1}] for a in range(d) if g.dom[a] != g.cod[a]][:1]
    return candidates


def test_certificate_on_generators_is_the_certificate_on_every_arrow():
    """Testing the ideal property against the generators only, and
    taking powers by squaring, gives the answer the test against every
    arrow with one factor of I per power step gives."""
    pair4_s3 = product_with_group(pair_groupoid([f"x{i}" for i in range(4)]), symmetric_table(3))
    cases = [(name, g, p) for name, g in groupoid_corpus() for p in (2, 3)]
    cases += [
        ("Z5", group_groupoid(cyclic_table(5)), 5),
        ("Z7", Z7_GROUPOID, 7),
        ("pair2_u_Z7", PAIR2_U_Z7, 7),
        ("pair4_S3", pair4_s3, 2),
        ("pair4_S3", pair4_s3, 3),
    ]
    answers = []
    for name, g, p in cases:
        bp, d, gens = _basis_products(g.rows), g.arrow_count, generators(g)
        candidates = _certificate_candidates(g, p)
        assert _ideal_certified_nilpotent(g.rows, candidates[0], gens, p), (name, p)
        for basis in candidates:
            got = _ideal_certified_nilpotent(g.rows, basis, gens, p)
            assert got == reference_ideal_certified_nilpotent(bp, _dense_rows(basis, d), d, p), (
                name, p, basis)
            answers.append(got)
    assert answers.count(False) >= 100 and answers.count(True) >= 100


def test_powers_vanish_squares_its_way_to_zero(monkeypatch):
    """The radical of GF(7)[Z/7] has nilpotency index 7 and is
    principal: one vector W generates it as a left ideal, and squaring
    W reaches zero in ceil(log2 7) = 3 eliminations of one product
    each, where one factor of the radical per step would take 6."""
    rows = Z7_GROUPOID.rows
    radical = _radical_modp(Z7_GROUPOID, 7)
    assert len(radical) == 6
    picks = _left_generators(rows, radical, generators(Z7_GROUPOID), 7)
    assert len(picks) == 1
    rounds = []

    def counting_echelon(rows, p):
        rounds.append(len(rows))
        return echelon(rows, p)

    monkeypatch.setattr(gpdalg.linalg, "echelon", counting_echelon)
    products = _count_calls(monkeypatch, "_mul")
    assert _powers_vanish(rows, picks, len(radical), 7)
    assert len(rounds) == 3 and len(products) == 3


def test_certificate_on_radicals_that_need_two_left_generators():
    """GF(2)[V4], pair(2) x V4 over GF(2) and GF(3)[Z3 x Z3] have radicals
    no one vector generates as a left ideal (J/J^2 has dimension 2 in
    each group algebra), so W has two vectors or more.  On the true
    radical, a row dropped, the identity added and the whole algebra (an
    ideal, not nilpotent), the certificate on W gives the answer of the
    test against every arrow with one factor of I per power step."""
    z3xz3 = FiniteGroupTable.from_table(
        [[3 * ((i // 3 + j // 3) % 3) + (i + j) % 3 for j in range(9)] for i in range(9)])
    cases = [
        ("V4", group_groupoid(klein_table()), 2),
        ("pair2_V4", product_with_group(pair_groupoid(["x", "y"]), klein_table()), 2),
        ("Z3xZ3", group_groupoid(z3xz3), 3),
    ]
    picks, answers = [], []
    for name, g, p in cases:
        bp, d, gens = _basis_products(g.rows), g.arrow_count, generators(g)
        candidates = _certificate_candidates(g, p) + [[{a: 1} for a in range(d)]]
        picks.append(len(_left_generators(g.rows, candidates[0], gens, p)))
        for basis in candidates:
            got = _ideal_certified_nilpotent(g.rows, basis, gens, p)
            assert got == reference_ideal_certified_nilpotent(bp, _dense_rows(basis, d), d, p), (
                name, basis)
            answers.append(got)
    assert picks == [2, 4, 2]
    # pair(2) x V4 has a fifth candidate, one non-loop arrow
    assert answers == [True] + [False] * 3 + [True] + [False] * 4 + [True] + [False] * 3


@pytest.mark.parametrize("n, ring, witness", [
    (25, GF5, "1*g0 + 4*g24"),
    (16, GF2, "1*g0 + 1*g15"),
])
def test_the_certificate_past_the_ideal_check_is_linear_in_the_radical(
        monkeypatch, n, ring, witness):
    """GF(p)[Z/p^k] has a radical of dimension p^k - 1 and nilpotency
    index p^k, principal as a left ideal.  The right half of the ideal
    check takes dim I * |gens| products, the closure that finds W and
    proves the left half dim I * |gens| more, and squaring W at most
    ceil(log2(dim I + 1)), where squaring I^m took |I^m|^2 each; the
    report is the one squaring I^m gave."""
    real = gpdalg.oracle._ideal_certified_nilpotent
    seen = []

    def counting(rows, basis, gens, p):
        with monkeypatch.context() as m:
            calls = _count_calls(m, "_mul")
            answer = real(rows, basis, gens, p)
        seen.append((len(basis), len(gens), len(calls)))
        return answer

    monkeypatch.setattr(gpdalg.oracle, "_ideal_certified_nilpotent", counting)
    report = radical_oracle(group_groupoid(cyclic_table(n)), ring)
    assert report == RadicalReport(False, witness, "filtration", n, n - 1)
    [(dim, k, calls)] = seen
    assert dim == n - 1
    assert calls <= 2 * dim * k + math.ceil(math.log2(dim + 1))


def test_the_certificate_refuses_a_right_ideal_that_is_not_a_left_ideal():
    """(1 + s) GF(2)[S3], s a transposition, is a right ideal of
    dimension 3, so it passes the right half of the ideal check; it is
    not a left ideal and not nilpotent.  A closure that stopped at rank
    3 would certify it: the closure run to the end passes rank 3, and
    the certificate refuses it, as the reference does."""
    g = group_groupoid(symmetric_table(3))
    rows, d, gens = g.rows, g.arrow_count, generators(g)
    e = g.identity_of[0]
    s = next(a for a in range(d) if a != e and rows[a][a] == e)
    basis = echelon([{a: 1, rows[s][a]: 1} for a in range(d)], 2)[0]
    assert len(basis) == 3
    right = [gpdalg.oracle._mul(rows, u, {a: 1}, 2) for u in basis for a in range(d)]
    assert len(echelon(basis + right, 2)[0]) == 3
    left = [gpdalg.oracle._mul(rows, {a: 1}, u, 2) for u in basis for a in range(d)]
    assert len(echelon(basis + left, 2)[0]) > 3
    assert _left_generators(rows, basis, gens, 2) is None
    assert not _ideal_certified_nilpotent(rows, basis, gens, 2)
    assert not reference_ideal_certified_nilpotent(_basis_products(rows), _dense_rows(basis, d), d, 2)


def _dense_rows(rows, d):
    return [[row.get(j, 0) for j in range(d)] for row in rows]


def test_every_char_p_witness_generates_a_nilpotent_right_ideal():
    """The witness is a vector of the certified radical J, so its right
    ideal wA lies inside J and the oracle checks it no further: the
    dense reference finds wA nilpotent for every non-semisimple answer,
    either witness pick, over the corpus and the disconnected ladder."""
    answers = 0
    for name, g in groupoid_corpus() + disconnected_ladder():
        bp, d = _basis_products(g.rows), g.arrow_count
        for p in (2, 3, 5, 7):
            for exhaustive in (False, True):
                semisimple, w, _ = _radical_charp(g, p, exhaustive)
                if not semisimple:
                    assert _right_ideal_nilpotent(bp, _dense_rows([w], d)[0], d, p), (name, p)
                    answers += 1
    assert answers == 52


def test_sparse_trace_form_is_the_dense_reference():
    groupoids = [g for _, g in groupoid_corpus()]
    groupoids += [as_finite_groupoid(graph) for graph in (chain_graph(8), in_tree_graph(7))]
    for g in groupoids:
        d = g.arrow_count
        gram = _trace_form(g.rows)[1]
        assert all(v for row in gram for v in row.values())
        assert _dense_rows(gram, d) == reference_trace_form(_basis_products(g.rows), d)


def test_q_oracle_builds_no_products_table_on_the_corpus(monkeypatch):
    """A groupoid's trace form over Q is a nondegenerate monomial form,
    read off the composition table: the Q oracle multiplies nothing and
    eliminates nothing, on the corpus and on pair(4) x Z4."""
    def refuse(*args):
        raise AssertionError("the Q oracle multiplied or eliminated")

    for module, name in ((gpdalg.oracle, "_mul"), (gpdalg.linalg, "echelon"),
                         (gpdalg.linalg, "sparse_kernel")):
        monkeypatch.setattr(module, name, refuse)
    pair4_z4 = product_with_group(PAIR4, cyclic_table(4))
    assert pair4_z4.arrow_count == 64
    cases = groupoid_corpus() + [("pair4_Z4", pair4_z4)]
    for name, g in cases:
        report = radical_oracle(g, Q)
        assert report.semisimple and report.witness is None, name
        assert report.radical_dimension == 0 and report.method == "trace form", name


def test_q_oracle_builds_no_fraction_on_a_semisimple_algebra():
    """No module of the package imports fractions, and the Q oracle
    builds no Fraction: in a fresh interpreter, fractions is still not
    loaded after the oracle answers on pair(4) x Z4."""
    code = (
        "import sys\n"
        "from gpdalg import Q, cyclic_table, pair_groupoid, product_with_group, radical_oracle\n"
        "g = product_with_group(pair_groupoid([f'x{i}' for i in range(4)]), cyclic_table(4))\n"
        "report = radical_oracle(g, Q)\n"
        "assert g.arrow_count == 64 and report.semisimple and report.radical_dimension == 0\n"
        "assert 'fractions' not in sys.modules, sorted(sys.modules)\n"
    )
    p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                       env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert p.returncode == 0, p.stderr


def _tampered_gram(tamper, rows):
    """The trace form of rows with its Gram matrix tampered with: one
    entry dropped, a second entry added to a row, or one row's entry
    moved to the column of another's."""
    tr, gram = _trace_form(rows)
    gram = [dict(row) for row in gram]
    if tamper == "dropped":
        gram[-1].clear()
    elif tamper == "added":
        gram[0][next(c for c in range(len(rows)) if c not in gram[0])] = 1
    else:
        gram[0] = dict(gram[1])
    return tr, gram


@pytest.mark.parametrize("case", ["path", "chain", "dropped", "added", "shared"])
def test_a_degenerate_trace_form_over_q_is_an_internal_error(monkeypatch, case):
    """The Q oracle passes only a Gram matrix with one nonzero entry per
    row meeting every column.  The path algebras' trace forms, read in
    place of a groupoid's of the same dimension, and a corpus groupoid's
    with an entry dropped, added or sharing another row's column, are
    internal errors."""
    real = gpdalg.oracle._trace_form
    if case in ("path", "chain"):
        table = PATH_ROWS if case == "path" else CHAIN_ROWS
        groupoids = [group_groupoid(cyclic_table(len(table)))]
        monkeypatch.setattr(gpdalg.oracle, "_trace_form", lambda rows: real(table))
    else:
        groupoids = [g for _, g in groupoid_corpus() if g.arrow_count > 1]
        monkeypatch.setattr(gpdalg.oracle, "_trace_form", lambda rows: _tampered_gram(case, rows))
    for g in groupoids:
        with pytest.raises(InternalCheckError) as exc:
            radical_oracle(g, Q)
        assert str(exc.value) == "trace form over Q is not a nondegenerate monomial form"


@pytest.mark.parametrize("ring", [Q, GF2, GF3])
@pytest.mark.parametrize("tamper", ["identity", "non-ideal"])
def test_a_tampered_radical_is_an_internal_error(monkeypatch, ring, tamper):
    """A candidate radical that is not a nilpotent ideal never becomes
    a "not semisimple" answer, whichever route produced it: over Q a
    Gram matrix with the column at that vector dropped, so the vector
    spans the trace form's kernel; over GF(p) the corner's filtration."""
    g = product_with_group(pair_groupoid(["x", "y"]), cyclic_table(2 if ring == Q else ring.p))
    d = g.arrow_count
    if ring == Q:
        # an identity is idempotent; an arrow x -> y alone spans no ideal
        e = g.identity_of[0]
        a = next(a for a in range(d) if g.dom[a] != g.cod[a])
        c = e if tamper == "identity" else a
        real = gpdalg.oracle._trace_form

        def degenerate(rows):
            tr, gram = real(rows)
            return tr, [{j: x for j, x in row.items() if j != c} for row in gram]

        monkeypatch.setattr(gpdalg.oracle, "_trace_form", degenerate)
        match = "is not a nondegenerate monomial form"
    else:
        # the corner GF(p)[Z/p]: its identity is idempotent, and a
        # group element other than it alone spans no ideal
        def fake(rows, p):
            i = next(i for i, row in enumerate(rows) if (row[i] == i) == (tamper == "identity"))
            return [{i: 1}]

        monkeypatch.setattr(gpdalg.oracle, "_filtration_radical_modp", fake)
        match = "is not a nilpotent ideal"
    with pytest.raises(InternalCheckError, match=match):
        radical_oracle(g, ring)


@pytest.mark.parametrize("ring", [GF2, GF3, GF5])
def test_a_radical_missing_a_vector_is_an_internal_error(monkeypatch, ring):
    """The corner's true radical less one basis vector is nilpotent but
    not an ideal: some one-arrow product of what is left has a residue
    that only the subtraction of the pivot rows it meets exposes."""
    order = 4 if ring.p == 2 else ring.p
    g = product_with_group(pair_groupoid(["x", "y"]), cyclic_table(order))
    real = gpdalg.oracle._filtration_radical_modp
    # the corner's radical is the augmentation ideal of GF(p)[Z/order]
    calls = []

    def less_one(rows, p):
        radical = real(rows, p)
        calls.append(len(radical))
        return radical[1:]

    monkeypatch.setattr(gpdalg.oracle, "_filtration_radical_modp", less_one)
    with pytest.raises(InternalCheckError, match="is not a nilpotent ideal"):
        radical_oracle(g, ring)
    assert calls == [order - 1]


# ---------------------------------------------------------------------------
# one corner per block


def _arrow_partition(label_of):
    parts = {}
    for a, label in enumerate(label_of):
        parts.setdefault(label, []).append(a)
    return sorted(parts.values())


def test_blocks_are_the_orbits_of_a_groupoid():
    """The product links of a groupoid's arrows join exactly the arrows
    of one orbit, wherever the arrow order puts them."""
    cases = groupoid_corpus() + disconnected_ladder()
    sigma = list(range(PAIR2_U_Z7.arrow_count))
    random.Random(20261019).shuffle(sigma)
    cases.append(("pair2_u_Z7 relabeled", _relabel_arrows(PAIR2_U_Z7, sigma)))
    counts = []
    for name, g in cases:
        orbit_of = {x: i for i, orbit in enumerate(orbits(g)) for x in orbit.members}
        blocks = _arrow_partition(_blocks(g.rows))
        assert blocks == _arrow_partition([orbit_of[x] for x in g.dom]), name
        counts.append(len(blocks))
    assert counts[-5:] == [2, 3, 2, 5, 2]


@pytest.mark.parametrize("p, dims", [(2, [0, 0, 49, 0]), (3, [0, 8, 4, 0]), (7, [6, 12, 0, 0])])
def test_block_filtration_is_the_matrix_power_reference_on_disconnected_inputs(p, dims):
    """One corner per block gives the basis one chain over the whole
    algebra gives, with every trace read off a power of a d x d matrix,
    and both witness picks are read off it."""
    got = [_assert_matches_the_matrix_power_reference(name, g, p) for name, g in disconnected_ladder()]
    assert got == dims


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(gpdalg.oracle, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gpdalg.oracle, name, counting)
    return calls


def test_filtration_carries_its_powers_across_unchanged_stages(monkeypatch):
    """pair(k) x Z8 over GF(2) runs the filtration on one corner, the
    8-dimensional GF(2)[Z8], for every k: the same products and powers
    for k = 2, 3 and 4, three stages mod 2^(3 + 1) (2^3 covers 8), and a
    certificate mod 2 on the corner alone.  The basis stays whole until
    the last stage, so every `_power` call squares."""
    counts = []
    for k in (2, 3, 4):
        g = product_with_group(pair_groupoid([f"x{i}" for i in range(k)]), cyclic_table(8))
        with monkeypatch.context() as m:
            calls = _count_calls(m, "_mul")
            powers = _count_calls(m, "_power")
            semisimple, _, radical_dimension = _radical_charp(g, 2, exhaustive=False)
        assert not semisimple and radical_dimension == 7 * k * k
        counts.append((len(calls), len(powers)))
        assert {q for _, _, q, _ in powers} == {2}
        assert {args[3] for args in calls} == {2, 2 ** 4}
    assert counts[0] == counts[1] == counts[2]


def test_each_block_takes_its_own_stage_count_and_one_squaring_chain(monkeypatch):
    """On pair(2) and Z/7 over GF(7) the 7-arrow corner needs one product
    stage (7^1 covers 7, where 11 arrows would need two), and the
    certificate runs one squaring chain, on that corner's radical: the
    pair(2) block's trace form is nondegenerate mod 7."""
    powers = _count_calls(monkeypatch, "_power")
    squarings = _count_calls(monkeypatch, "_powers_vanish")
    report = radical_oracle(PAIR2_U_Z7, GF7)
    assert not report.semisimple and report.radical_dimension == 6
    assert {q for _, _, q, _ in powers} == {7}
    assert len(squarings) == 1


def test_each_filtration_stage_raises_one_power_per_basis_row(monkeypatch):
    """g_j is additive on I_(j-1), so a stage raises only the basis rows
    of I_(j-1) to the power p^j (a stage that kept the basis raises the
    last stage's powers to the p-th), where one power per distinct
    product of two rows took up to n(n + 1)/2.  The log interleaves each
    corner, each elimination (the last before a run of stages is its
    basis) and the `_power` calls; a run starting at stage j ends where
    the next starts, or after the corner's last stage.  pair(4) x Z8
    has 128 arrows, past the budget, which is patched."""
    monkeypatch.setattr(gpdalg.oracle, "ORACLE_DIMENSION_LIMIT_CHARP", 128)
    log = _count_calls(monkeypatch, "_power")
    real_echelon = gpdalg.linalg.echelon
    real_filtration = gpdalg.oracle._filtration_radical_modp

    def logged_echelon(rows, p):
        reduced, pivots = real_echelon(rows, p)
        log.append(("echelon", len(reduced)))
        return reduced, pivots

    def logged_filtration(rows, p):
        log.append(("corner", next(s for s in range(1, len(rows) + 1) if p ** s >= len(rows))))
        return real_filtration(rows, p)

    monkeypatch.setattr(gpdalg.linalg, "echelon", logged_echelon)
    monkeypatch.setattr(gpdalg.oracle, "_filtration_radical_modp", logged_filtration)
    totals = []
    cases = _filtration_ladder() + [("pair4_Z8", product_with_group(PAIR4, cyclic_table(8)), 2)]
    for name, g, p in cases:
        log.clear()
        assert not radical_oracle(g, parse_ring_descriptor(f"GF({p})")).semisimple, (name, p)
        runs, kind, corner = [], None, 0  # runs: [corner, stages, basis rows, first stage, calls]
        for event in log:
            if event[0] == "corner":
                corner, stages = corner + 1, event[1]
            elif event[0] == "echelon":
                rows = event[1]
            elif kind == "power":
                runs[-1][-1] += 1
            else:
                q = event[2]
                runs.append([corner, stages, rows, next(j for j in range(1, stages + 1) if p ** j == q), 1])
            kind = event[0] if isinstance(event[0], str) else "power"
        for run, after in zip(runs, runs[1:] + [None]):
            corner, stages, rows, first, calls = run
            end = after[3] if after and after[0] == corner else stages + 1
            assert 0 < calls <= rows * (end - first), (name, p, run)
        totals.append(sum(run[-1] for run in runs))
    assert totals == [110, 32, 50, 64, 8, 24]


@pytest.mark.parametrize("tamper", ["drop", "add"])
def test_a_tampered_block_radical_exits_2(monkeypatch, capsys, tmp_path, tamper):
    """The certificate checks the corner's radical against the corner's
    own generators: dropping a vector of the Z/7 corner's radical, or
    adding the corner's identity, is an internal error.  The pair(2)
    block's trace form is nondegenerate mod 7, so its corner never runs."""
    path = tmp_path / "pair2_u_z7.gpd"
    path.write_text(render_groupoid(PAIR2_U_Z7))
    real = gpdalg.oracle._filtration_radical_modp

    def tampered(rows, p):
        radical = real(rows, p)
        assert len(rows) == 7 and len(radical) == 6
        if tamper == "drop":
            return radical[1:]
        return radical + [{next(i for i, row in enumerate(rows) if row[i] == i): 1}]

    monkeypatch.setattr(gpdalg.oracle, "_filtration_radical_modp", tampered)
    code = gpdalg.cli.main(["groupoid", str(path), "--ring", "GF(7)", "--verify"])
    out, err = capsys.readouterr()
    assert code == 2 and not out
    assert err == "internal error: filtration result is not a nilpotent ideal\n"
