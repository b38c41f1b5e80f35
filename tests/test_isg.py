"""Inverse semigroup algebras via the underlying groupoid."""
import pathlib
import random

import pytest

from corpus import PARITY_RINGS, isg_corpus, partial_bijection_semigroup
from support import order_det, reference_inverse_semigroup, reference_semigroup_algebra_iso

import gpdalg.cli
import gpdalg.isg

from gpdalg import (
    InternalCheckError,
    InverseSemigroup,
    OracleBudgetError,
    ParseError,
    Q,
    isg_verdicts,
    natural_partial_order,
    parse_isg,
    parse_ring_descriptor,
    radical_oracle,
    render_isg,
    semigroup_algebra_iso,
    underlying_groupoid,
)
from gpdalg.constructions import cyclic_table, symmetric_table
from gpdalg.groupoid import associativity_generators, isotropy, orbits

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

GF2 = parse_ring_descriptor("GF(2)")
GF3 = parse_ring_descriptor("GF(3)")


def partial_bijection_monoid():
    """The seven partial bijections of a two-point set, ordered to match
    the i2.isg fixture."""
    maps = [
        ("zero", {}),
        ("e1", {0: 0}),
        ("e2", {1: 1}),
        ("m12", {0: 1}),
        ("m21", {1: 0}),
        ("one", {0: 0, 1: 1}),
        ("swap", {0: 1, 1: 0}),
    ]
    table = partial_bijection_semigroup([m for _, m in maps], 2).table
    return InverseSemigroup.from_table([name for name, _ in maps], table)


def _i2_fixture():
    return parse_isg((FIXTURES / "i2.isg").read_text())


def test_fixture_matches_composition_of_partial_bijections():
    assert _i2_fixture() == partial_bijection_monoid()


def test_render_round_trip():
    for s in (_i2_fixture(), parse_isg((FIXTURES / "semilattice2.isg").read_text())):
        assert parse_isg(render_isg(s)) == s


def test_stars_idempotents_identity():
    s = _i2_fixture()
    ix = s.elements.index
    assert s.star[ix("swap")] == ix("swap")
    assert s.star[ix("m12")] == ix("m21")
    assert s.star[ix("m21")] == ix("m12")
    assert [s.elements[e] for e in s.idempotents()] == ["zero", "e1", "e2", "one"]
    assert s.identity_element() == ix("one")


def test_natural_partial_order_on_the_fixture():
    s = _i2_fixture()
    below = natural_partial_order(s)
    ix = s.elements.index

    def under(name):
        return {s.elements[t] for t in range(s.size) if below[t][ix(name)]}

    assert under("swap") == {"zero", "m12", "m21", "swap"}
    assert under("one") == {"zero", "e1", "e2", "one"}
    assert under("e1") == {"zero", "e1"}
    assert under("zero") == {"zero"}
    # reflexive, antisymmetric, transitive
    n = s.size
    for i in range(n):
        assert below[i][i]
        for j in range(n):
            if below[i][j] and below[j][i]:
                assert i == j
            for k in range(n):
                if below[i][j] and below[j][k]:
                    assert below[i][k]


def test_natural_partial_order_reads_each_restriction_set_once(monkeypatch):
    """On I3 (34 elements, 8 idempotents) the order takes n products for
    the t t*, n^2 for the first description and n |E| for the sets
    {e x}, and still compares the two descriptions at every (t, x): an
    idempotent left out of the second is a disagreement."""
    s = isg_corpus()[0][1]
    n, idem = s.size, s.idempotents()
    assert (n, len(idem)) == (34, 8)
    calls = []
    real = InverseSemigroup.mul

    def counting(self, i, j):
        calls.append((i, j))
        return real(self, i, j)

    monkeypatch.setattr(InverseSemigroup, "mul", counting)
    natural_partial_order(s)
    assert len(calls) == n * (1 + n + len(idem))
    monkeypatch.setattr(InverseSemigroup, "idempotents", lambda self: idem[1:])
    with pytest.raises(InternalCheckError, match="two descriptions of the natural partial order disagree"):
        natural_partial_order(s)


def test_underlying_groupoid_structure():
    s = _i2_fixture()
    g = underlying_groupoid(s)
    assert g.objects == ("zero", "e1", "e2", "one")
    assert g.arrow_count == 7
    m12 = g.arrows.index("m12")
    assert g.objects[g.dom[m12]] == "e1" and g.objects[g.cod[m12]] == "e2"
    assert sorted(len(o.members) for o in orbits(g)) == [1, 1, 2]


def test_maximal_subgroups():
    # the maximal subgroup at an idempotent is the isotropy group of the
    # underlying groupoid at that idempotent's object
    s = _i2_fixture()
    g = underlying_groupoid(s)
    group = isotropy(g, g.objects.index("one"))
    assert {g.arrows[a] for a in group.arrows} == {"one", "swap"}
    assert group.table.name == "Z/2"
    group = isotropy(g, g.objects.index("e1"))
    assert group.arrows == (g.arrows.index("e1"),) and group.table.is_trivial
    with pytest.raises(ValueError):
        g.objects.index("m12")


def test_base_change_isomorphism_over_two_rings():
    s = _i2_fixture()
    for ring in (Q, GF3):
        iso = semigroup_algebra_iso(s, ring)
        assert iso.report.ok
        assert iso.report.total == s.size ** 2 + 1
    assert order_det(natural_partial_order(s)) == 1
    ix = s.elements.index
    image = reference_semigroup_algebra_iso(s, Q)[0][ix("swap")]
    g = underlying_groupoid(s)
    assert image == tuple(sorted((g.arrows.index(a), 1) for a in ("zero", "m12", "m21", "swap")))


def test_verdicts_and_oracle_on_the_fixture():
    s = _i2_fixture()
    v = isg_verdicts(s, Q)
    assert (v.noetherian, v.artinian, v.semisimple) == (True, True, True)
    assert v.shape_string == "M_2(Q) x M_1(Q[Z/2]) x M_1(Q)"
    assert "unitriangular base change" in v.justification[0]

    v2 = isg_verdicts(s, GF2)
    assert (v2.noetherian, v2.artinian, v2.semisimple) == (True, True, False)
    v3 = isg_verdicts(s, GF3)
    assert v3.semisimple

    g = underlying_groupoid(s)
    report = radical_oracle(g, GF2)
    assert not report.semisimple
    assert report.witness == "1*one + 1*swap"
    assert radical_oracle(g, Q).semisimple


def test_semilattice_gives_a_product_of_base_rings():
    s = parse_isg((FIXTURES / "semilattice2.isg").read_text())
    assert natural_partial_order(s)[s.elements.index("bot")][s.elements.index("top")]
    v = isg_verdicts(s, Q)
    assert v.shape_string == "M_1(Q) x M_1(Q)"
    assert v.semisimple
    iso = semigroup_algebra_iso(s, Q)
    assert iso.report.ok and order_det(natural_partial_order(s)) == 1


def test_group_as_inverse_semigroup_has_trivial_order():
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    s = InverseSemigroup.from_table([f"g{i}" for i in range(3)], table)
    below = natural_partial_order(s)
    for i in range(3):
        for j in range(3):
            assert below[i][j] == (i == j)
    assert order_det(below) == 1
    assert semigroup_algebra_iso(s, Q).report.ok
    images, _ = reference_semigroup_algebra_iso(s, Q)
    assert images == tuple(((i, 1),) for i in range(3))
    assert isg_verdicts(s, Q).shape_string == "M_1(Q[Z/3])"


def test_left_zero_semigroup_is_rejected():
    with pytest.raises(ValueError) as exc:
        parse_isg((FIXTURES / "left_zero.isg").read_text())
    assert "pseudo-inverse" in str(exc.value)


def test_non_associative_table_is_rejected():
    subtraction = [[(i - j) % 3 for j in range(3)] for i in range(3)]
    with pytest.raises(ValueError) as exc:
        InverseSemigroup.from_table(["a", "b", "c"], subtraction)
    assert "associativity fails at" in str(exc.value)


def test_parse_diagnostics():
    with pytest.raises(ParseError) as exc:
        parse_isg((FIXTURES / "bad_row.isg").read_text())
    assert "has 1 entries, expected 2" in str(exc.value)
    cases = [
        ("elements: a a\nrow a: a\n", "twice"),
        ("elements: a\nrow b: a\n", "not declared"),
        ("elements: a\nrow a: b\n", "not declared"),
        ("elements: a b\nrow a: a b\n", "no row for element 'b'"),
        ("elements: a\nrow a: a\nrow a: a\n", "declared twice"),
        ("elements: a\ntable a\n", "unknown directive"),
        ("", "no elements"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError) as exc:
            parse_isg(text)
        assert fragment in str(exc.value), text


def test_oversized_semigroup_hits_the_budget():
    n = 65
    table = [[min(i, j) for j in range(n)] for i in range(n)]
    s = InverseSemigroup.from_table([f"c{i}" for i in range(n)], table)
    with pytest.raises(OracleBudgetError):
        semigroup_algebra_iso(s, Q)
    # verdicts do not need the pairwise budget
    assert isg_verdicts(s, Q).semisimple


def _outcome(build, elements, rows):
    try:
        s = build(elements, rows)
    except ValueError as e:
        return ("rejected", str(e))
    return ("accepted", s.elements, s.table, s.star)


def _tables():
    i2 = partial_bijection_monoid()
    semilattice = parse_isg((FIXTURES / "semilattice2.isg").read_text())
    yield "i2", i2.elements, i2.table
    yield "semilattice2", semilattice.elements, semilattice.table
    yield "left_zero", ("a", "b"), ((0, 0), (1, 1))
    yield "chain5", tuple(f"c{i}" for i in range(5)), tuple(
        tuple(min(i, j) for j in range(5)) for i in range(5))
    for name, t in (("Z4", cyclic_table(4)), ("S3", symmetric_table(3))):
        yield name, tuple(f"g{i}" for i in range(t.size)), t.table


def test_table_check_fails_exactly_as_the_ordered_scan():
    rng = random.Random(20261018)
    rejected_for_associativity = 0
    for name, elements, table in _tables():
        assert _outcome(InverseSemigroup.from_table, elements, table) == _outcome(
            reference_inverse_semigroup, elements, table), name
        n = len(elements)
        changes = [(i, j, v) for i in range(n) for j in range(n) for v in range(n)
                   if v != table[i][j]]
        for i, j, v in rng.sample(changes, min(len(changes), 120)):
            rows = [list(row) for row in table]
            rows[i][j] = v
            got = _outcome(InverseSemigroup.from_table, elements, rows)
            assert got == _outcome(reference_inverse_semigroup, elements, rows), (name, i, j, v)
            rejected_for_associativity += got[0] == "rejected" and got[1].startswith("associativity")
    assert rejected_for_associativity > 100


def test_table_check_certifies_a_large_group_on_two_generators():
    n = 200
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    assert associativity_generators((0,) * n, (0,) * n, table, 1) == [0, 1]
    s = InverseSemigroup.from_table([f"z{i}" for i in range(n)], table)
    assert s.star == tuple((n - i) % n for i in range(n))


def _semigroup_corpus():
    for name, elements, table in _tables():
        if name != "left_zero":
            yield name, InverseSemigroup.from_table(elements, table)
    yield "i2.isg", _i2_fixture()
    yield from isg_corpus()


def test_transition_matrix_is_unitriangular_on_the_corpus():
    for name, s in _semigroup_corpus():
        assert semigroup_algebra_iso(s, Q).report.ok, name
        assert order_det(natural_partial_order(s)) == 1, name


def _patched_order(change):
    def order(s):
        below = [list(row) for row in natural_partial_order(s)]
        change(s, below)
        return below
    return order


def _no_diagonal(s, below):
    below[s.elements.index("e1")][s.elements.index("e1")] = False


def _two_cycle(s, below):
    # zero <= e1 already; e1 <= zero closes a 2-cycle
    below[s.elements.index("e1")][s.elements.index("zero")] = True


@pytest.mark.parametrize("change, message", [
    (_no_diagonal, "not reflexive: e1 <= e1 fails"),
    (_two_cycle, "not unitriangular: e1 <= zero but #down(e1) = 2 >= #down(zero) = 2"),
])
def test_an_order_that_is_not_unitriangular_exits_2(monkeypatch, capsys, change, message):
    monkeypatch.setattr(gpdalg.isg, "natural_partial_order", _patched_order(change))
    code = gpdalg.cli.main(["isg", str(FIXTURES / "i2.isg"), "--verify"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("internal error: ") and message in err


def _base_change_outcome(check, s, ring):
    try:
        report = check(s, ring)
    except (InternalCheckError, OracleBudgetError) as exc:
        return type(exc).__name__, str(exc)
    return report.total, report.failures


def _flip(*relations):
    def change(s, below):
        for t, x in relations:
            below[t][x] = not below[t][x]
    return change


def _base_change_cases():
    """(name, semigroup, order change or None): the two fixtures, the
    isg corpus and one semigroup over the budget, with their true order
    and with one relation t <= x flipped, for every (t, x) on at most 64
    pairs and a fixed sample of 8 otherwise.  Two flips on i2 double an
    arrow in a product, which is zero over GF(2) only."""
    rng = random.Random(20261019)
    chain = [[min(i, j) for j in range(65)] for i in range(65)]
    semigroups = [
        (name, parse_isg((FIXTURES / name).read_text())) for name in ("i2.isg", "semilattice2.isg")
    ] + isg_corpus() + [("chain65", InverseSemigroup.from_table([f"c{i}" for i in range(65)], chain))]
    for name, s in semigroups:
        yield name, s, None
        pairs = [(t, x) for t in range(s.size) for x in range(s.size)]
        for t, x in pairs if len(pairs) <= 64 else rng.sample(pairs, 8):
            yield f"{name} flip {s.elements[t]} <= {s.elements[x]}", s, _flip((t, x))
    i2 = _i2_fixture()
    ix = i2.elements.index
    yield "i2 flip e1 <= m12, e2 <= swap", i2, _flip((ix("e1"), ix("m12")), (ix("e2"), ix("swap")))


def test_base_change_counts_arrows_and_fails_as_the_reference(monkeypatch):
    # Z/2, Laurent(GF(2)) and Product(GF(2),Z/2) make a doubled arrow
    # vanish by the modulus, the base ring and the lcm of the factors
    extra = ("Z/2", "Laurent(GF(2))", "Product(GF(2),Z/2)")
    rings = [parse_ring_descriptor(r) for r in PARITY_RINGS + extra]
    kinds, by_ring = set(), {}
    for name, s, change in _base_change_cases():
        with monkeypatch.context() as m:
            if change is not None:
                m.setattr(gpdalg.isg, "natural_partial_order", _patched_order(change))
            for ring in rings:
                expected = _base_change_outcome(
                    lambda s, r: reference_semigroup_algebra_iso(s, r)[1], s, ring)
                got = _base_change_outcome(lambda s, r: semigroup_algebra_iso(s, r).report, s, ring)
                assert got == expected, (name, ring)
                kinds.add(got[0] if isinstance(got[0], str) else bool(got[1]))
                by_ring.setdefault(name, set()).add(got)
    # passes, failed pairs and both exceptions occur, and one outcome
    # depends on the ring
    assert kinds == {False, True, "InternalCheckError", "OracleBudgetError"}
    assert [name for name, outcomes in by_ring.items() if len(outcomes) > 1] == [
        "i2 flip e1 <= m12, e2 <= swap"]
