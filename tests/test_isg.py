"""Inverse semigroup algebras via the underlying groupoid."""
import itertools
import pathlib
import random

import pytest

from support import order_det, reference_inverse_semigroup

import gpdalg.cli
import gpdalg.isg

from gpdalg import (
    AlgebraElement,
    InverseSemigroup,
    OracleBudgetError,
    ParseError,
    Q,
    RingElement,
    isg_verdicts,
    maximal_subgroup,
    natural_partial_order,
    parse_element_literal,
    parse_isg,
    parse_ring_descriptor,
    radical_oracle,
    render_isg,
    semigroup_algebra_iso,
    underlying_groupoid,
)
from gpdalg.constructions import cyclic_table, symmetric_table
from gpdalg.groupoid import associativity_generators, orbits

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

GF2 = parse_ring_descriptor("GF(2)")
GF3 = parse_ring_descriptor("GF(3)")


def _compose(x: dict, y: dict) -> dict:
    # x . y applies y first: partial bijections of a finite set
    return {a: x[b] for a, b in y.items() if b in x}


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
    names = [n for n, _ in maps]
    lookup = {tuple(sorted(m.items())): i for i, (_, m) in enumerate(maps)}
    table = [
        [lookup[tuple(sorted(_compose(a, b).items()))] for _, b in maps]
        for _, a in maps
    ]
    return InverseSemigroup.from_table(names, table)


def _i2_fixture():
    return parse_isg((FIXTURES / "i2.isg").read_text())


def test_fixture_matches_composition_of_partial_bijections():
    assert _i2_fixture() == partial_bijection_monoid()


def test_render_round_trip():
    for s in (_i2_fixture(), parse_isg((FIXTURES / "semilattice2.isg").read_text())):
        assert parse_isg(render_isg(s)) == s


def test_stars_idempotents_identity():
    s = _i2_fixture()
    ix = s.element_index
    assert s.star[ix("swap")] == ix("swap")
    assert s.star[ix("m12")] == ix("m21")
    assert s.star[ix("m21")] == ix("m12")
    assert [s.elements[e] for e in s.idempotents()] == ["zero", "e1", "e2", "one"]
    assert s.identity_element() == ix("one")


def test_natural_partial_order_on_the_fixture():
    s = _i2_fixture()
    below = natural_partial_order(s)
    ix = s.element_index

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


def test_underlying_groupoid_structure():
    s = _i2_fixture()
    g = underlying_groupoid(s)
    assert g.objects == ("zero", "e1", "e2", "one")
    assert g.arrow_count == 7
    m12 = g.arrow_index("m12")
    assert g.objects[g.dom[m12]] == "e1" and g.objects[g.cod[m12]] == "e2"
    assert sorted(len(o.members) for o in orbits(g)) == [1, 1, 2]


def test_maximal_subgroups():
    s = _i2_fixture()
    ix = s.element_index
    members, table = maximal_subgroup(s, ix("one"))
    assert {s.elements[m] for m in members} == {"one", "swap"}
    assert table.name == "Z/2"
    members, table = maximal_subgroup(s, ix("e1"))
    assert members == (ix("e1"),) and table.is_trivial
    with pytest.raises(ValueError):
        maximal_subgroup(s, ix("m12"))


def test_base_change_isomorphism_over_two_rings():
    s = _i2_fixture()
    for ring in (Q, GF3):
        iso = semigroup_algebra_iso(s, ring)
        assert iso.report.ok
        assert iso.report.total == s.size ** 2 + 1
    assert order_det(natural_partial_order(s)) == 1
    ix = s.element_index
    image = semigroup_algebra_iso(s, Q).images[ix("swap")]
    g = underlying_groupoid(s)
    assert image == parse_element_literal("zero + m12 + m21 + swap", g, Q)


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
    assert report.witness == parse_element_literal("1*one + 1*swap", g, GF2)
    assert radical_oracle(g, Q).semisimple


def test_semilattice_gives_a_product_of_base_rings():
    s = parse_isg((FIXTURES / "semilattice2.isg").read_text())
    assert natural_partial_order(s)[s.element_index("bot")][s.element_index("top")]
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
    iso = semigroup_algebra_iso(s, Q)
    one = RingElement.one(Q)
    assert iso.images == tuple(
        AlgebraElement.make(iso.groupoid, Q, [(i, one)]) for i in range(3)
    )
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


def symmetric_inverse_monoid(n: int) -> InverseSemigroup:
    """All partial bijections of an n-point set, the empty map first."""
    maps = [{}]
    for k in range(1, n + 1):
        for dom in itertools.combinations(range(n), k):
            for img in itertools.permutations(range(n), k):
                maps.append(dict(zip(dom, img)))
    lookup = {tuple(sorted(m.items())): i for i, m in enumerate(maps)}
    table = [[lookup[tuple(sorted(_compose(a, b).items()))] for b in maps] for a in maps]
    return InverseSemigroup.from_table([f"m{i}" for i in range(len(maps))], table)


def _semigroup_corpus():
    for name, elements, table in _tables():
        if name != "left_zero":
            yield name, InverseSemigroup.from_table(elements, table)
    yield "i2.isg", _i2_fixture()
    yield "I3", symmetric_inverse_monoid(3)


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
    below[s.element_index("e1")][s.element_index("e1")] = False


def _two_cycle(s, below):
    # zero <= e1 already; e1 <= zero closes a 2-cycle
    below[s.element_index("e1")][s.element_index("zero")] = True


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
