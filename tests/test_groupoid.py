"""Groupoid parsing, validation, frames, and orbit structure."""
import pathlib
import random

import pytest

from corpus import chain_graph, graph_corpus, groupoid_corpus, in_tree_graph, isg_corpus
from support import (
    groupoid_axiom_problems,
    reference_as_finite_groupoid,
    reference_axiom_violations,
    reference_parse_groupoid,
    reference_underlying_groupoid,
)

from gpdalg import (
    FiniteGroupoid,
    IntegerGroup,
    ParseError,
    Q,
    parse_groupoid,
    parse_isg,
    render_groupoid,
    structured_from_finite,
    underlying_groupoid,
    validate,
)
from gpdalg.constructions import (
    cyclic_table,
    group_groupoid,
    pair_groupoid,
    product_with_group,
    symmetric_table,
)
from gpdalg.leavitt import as_finite_groupoid
import gpdalg.groupoid
from gpdalg.groupoid import (
    associativity_generators,
    certify_associativity,
    isotropy,
    orbits,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _load(name):
    return parse_groupoid((FIXTURES / name).read_text())


def test_parse_pair2_fixture():
    g = _load("pair2.gpd")
    assert len(g.objects) == 2 and g.arrow_count == 4
    assert validate(g) == []
    assert g.compose(g.arrow_index("f"), g.arrow_index("g")) == g.arrow_index("iy")


def test_render_parse_round_trip():
    for name, g in groupoid_corpus():
        assert parse_groupoid(render_groupoid(g)) == g, name


@pytest.mark.parametrize("bad, fragment", [
    ("objects: a a\n", "twice"),
    ("objects: a\narrow f : a -> b\n", "not declared"),
    ("objects: a\narrow f : a -> a\narrow f : a -> a\n", "twice"),
    ("objects: a\nidentity a = f\n", "not declared"),
    ("objects: a\narrow f : a -> a\ncompose f g = f\n", "not declared"),
    ("objects: a b\narrow f : a -> b\narrow g : a -> b\ncompose f g = f\n", "not composable"),
    ("objects: a\nfrobnicate\n", "unknown"),
])
def test_parse_rejects(bad, fragment):
    with pytest.raises(ParseError) as exc:
        parse_groupoid(bad)
    assert fragment in str(exc.value)
    assert exc.value.line is not None


def test_validate_agrees_with_independent_checker_on_good_inputs():
    for name, g in groupoid_corpus():
        assert validate(g) == [], name
        assert groupoid_axiom_problems(g) == [], name


def _corrupt(g: FiniteGroupoid, **changes) -> FiniteGroupoid:
    fields = dict(
        objects=g.objects, arrows=g.arrows, dom=g.dom, cod=g.cod,
        identity_of=g.identity_of, comp=dict(g.comp), inv=g.inv,
    )
    fields.update(changes)
    return FiniteGroupoid.make(**fields)


def test_validate_catches_corruption_and_so_does_the_oracle():
    z3 = group_groupoid(cyclic_table(3))

    # break one composition entry
    comp = dict(z3.comp)
    comp[(1, 2)] = 1
    broken = _corrupt(z3, comp=comp)
    kinds = {v.kind for v in validate(broken)}
    assert kinds and groupoid_axiom_problems(broken)

    # drop an inverse
    inv = list(z3.inv)
    inv[1] = None
    broken = _corrupt(z3, inv=inv)
    assert any(v.kind == "inverse-missing" for v in validate(broken))
    assert groupoid_axiom_problems(broken)

    # drop an identity
    broken = _corrupt(z3, identity_of=[None])
    assert any(v.kind == "identity-missing" for v in validate(broken))
    assert groupoid_axiom_problems(broken)

    # wrong inverse (self-inverse claim for a 3-cycle element)
    inv = list(z3.inv)
    inv[1] = 1
    broken = _corrupt(z3, inv=inv)
    assert validate(broken) and groupoid_axiom_problems(broken)


def test_corrupted_fixtures_fail_validation():
    g = _load("broken_assoc.gpd")
    assert validate(g)
    g = _load("missing_inverse.gpd")
    assert any(v.kind == "inverse-missing" for v in validate(g))


def test_orbit_frames_are_deterministic_and_well_formed():
    for name, g in groupoid_corpus():
        obs = orbits(g)
        assert obs == orbits(g), name
        seen = set()
        for orb in obs:
            base = orb.members[0]
            assert list(orb.members) == sorted(orb.members)
            assert base == min(orb.members)
            for k, member in enumerate(orb.members):
                conn = orb.connecting[k]
                assert g.dom[conn] == base and g.cod[conn] == member
            assert orb.connecting[0] == g.identity_of[base]
            seen.update(orb.members)
        assert seen == set(range(len(g.objects)))


def test_isotropy_groups_verify_as_groups():
    s3 = group_groupoid(symmetric_table(3))
    iso = isotropy(s3, 0)
    assert iso.table.size == 6 and iso.table.name == "S3"
    p2z2 = product_with_group(pair_groupoid(["x", "y"]), cyclic_table(2))
    iso = isotropy(p2z2, 0)
    assert iso.table.size == 2 and iso.table.name == "Z/2"


def test_structured_summary_and_cardinality():
    p2z2 = product_with_group(pair_groupoid(["x", "y"]), cyclic_table(2))
    shape = structured_from_finite(p2z2, Q)
    assert [(size, group.size) for size, group in shape.blocks] == [(2, 2)]
    assert shape.dimension == 8 == p2z2.arrow_count
    for name, g in groupoid_corpus():
        shape = structured_from_finite(g, Q)
        total = 0
        for size, group in shape.blocks:
            assert not isinstance(group, IntegerGroup)
            total += size ** 2 * group.size
        assert total == shape.dimension == g.arrow_count, name


def test_identity_arrows_listed():
    g = _load("pair2.gpd")
    names = sorted(g.arrows[a] for a in g.identity_arrows())
    assert names == ["ix", "iy"]


def test_validate_memo_hands_out_fresh_lists():
    g = _load("broken_assoc.gpd")
    first = validate(g)
    second = validate(g)
    assert first and first == second
    first.clear()
    assert validate(g) == second and second
    good = _load("pair2.gpd")
    found = validate(good)
    found.append("stray")
    assert validate(good) == []


def _swapped_composites(g: FiniteGroupoid, rng, limit):
    """Copies of g with one composite f h of two non-identity arrows
    replaced by another arrow of the same span: composition stays total
    and coherent and the identity laws hold, so only associativity (and
    perhaps an inverse law) can fail.  Every such copy when g has at
    most limit of them, else a seeded sample of limit."""
    identities = set(g.identity_arrows())
    spans: dict = {}
    for a in range(g.arrow_count):
        spans.setdefault((g.dom[a], g.cod[a]), []).append(a)
    cases = [
        ((f, h), other)
        for (f, h), k in g.comp
        if f not in identities and h not in identities
        for other in spans[g.dom[k], g.cod[k]]
        if other != k
    ]
    if len(cases) > limit:
        cases = rng.sample(cases, limit)
    for pair, other in cases:
        comp = dict(g.comp)
        comp[pair] = other
        yield _corrupt(g, comp=comp)


def _corruptions(g: FiniteGroupoid, rng):
    """Swapped composites, a dropped composition entry and a broken
    identity (the identity of object 0 moved to another arrow, and an
    identity law broken in one entry)."""
    yield from _swapped_composites(g, rng, 40)
    comp = dict(g.comp)
    del comp[rng.choice(sorted(comp))]
    yield _corrupt(g, comp=comp)
    e = g.identity_of[0]
    other = next((a for a in range(g.arrow_count) if a != e), None)
    if other is not None:
        identity_of = list(g.identity_of)
        identity_of[0] = other
        yield _corrupt(g, identity_of=identity_of)
        f = max(f for f in range(g.arrow_count) if g.dom[f] == 0)
        twins = [a for a in range(g.arrow_count)
                 if (g.dom[a], g.cod[a]) == (g.dom[f], g.cod[f]) and a != f]
        comp = dict(g.comp)
        comp[f, e] = twins[0] if twins else (e if f != e else other)
        yield _corrupt(g, comp=comp)


def test_validate_lists_the_violations_of_the_full_scan(monkeypatch):
    scans = _count_scans(monkeypatch)
    rng = random.Random(20261018)
    certified_failures = 0
    for name, g in groupoid_corpus():
        scans.clear()
        assert validate(g) == reference_axiom_violations(g) == [], name
        assert not scans, name
        for broken in _corruptions(g, rng):
            expected = reference_axiom_violations(broken)
            assert expected, name
            scans.clear()
            assert validate(broken) == expected, name
            kinds = {v.kind for v in expected}
            if kinds <= {"associativity", "inverse-law"}:
                # the certificate decided: the scan runs exactly when it fails
                assert len(scans) == ("associativity" in kinds), name
                certified_failures += "associativity" in kinds
            else:
                assert len(scans) == 1, name
    assert certified_failures > 100
    for fixture in ("broken_assoc.gpd", "missing_inverse.gpd"):
        g = _load(fixture)
        assert validate(g) == reference_axiom_violations(g), fixture


def _count_scans(monkeypatch) -> list:
    calls = []
    real = gpdalg.groupoid._associativity_scan

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gpdalg.groupoid, "_associativity_scan", counted)
    return calls


class _Row(dict):
    """One row f -> {h: f after h} of a composition table, counting the
    lookups of every row that shares its counter."""

    def __init__(self, counter):
        super().__init__()
        self.counter = counter

    def __getitem__(self, key):
        self.counter[0] += 1
        return super().__getitem__(key)


def _counting_rows(arrow_count, comp):
    counter = [0]
    rows = [_Row(counter) for _ in range(arrow_count)]
    for (f, h), k in dict(comp).items():
        rows[f][h] = k
    return rows, counter


def test_certificate_skips_the_triple_scan_on_pair4_s3(monkeypatch):
    g = product_with_group(pair_groupoid([f"x{i}" for i in range(4)]), symmetric_table(3))
    scans = _count_scans(monkeypatch)
    assert validate(g) == []
    assert not scans
    into = [[a for a in range(g.arrow_count) if g.cod[a] == x] for x in range(4)]
    pairs = sum(len(into[g.dom[f]]) for f in range(g.arrow_count))
    triples = sum(len(into[g.dom[h]]) for f in range(g.arrow_count) for h in into[g.dom[f]])
    assert (pairs, triples) == (2304, 55296)
    rows, lookups = _counting_rows(g.arrow_count, g.comp)
    gens = associativity_generators(g.dom, g.cod, rows, 4)
    closure = lookups[0]
    assert len(gens) == 9 and closure <= pairs
    rows, lookups = _counting_rows(g.arrow_count, g.comp)
    assert certify_associativity(g.dom, g.cod, rows, 4)
    # the closure, then a y per (a, y), x a per (x, a) and two per triple
    assert lookups[0] == closure + len(gens) * (24 + 24 + 2 * 24 * 24)
    assert lookups[0] < triples / 4


def test_generators_reach_every_arrow_by_left_nested_composites():
    for name, g in groupoid_corpus():
        objects = len(g.objects)
        pairs = sum(1 for f in range(g.arrow_count) for h in range(g.arrow_count)
                    if g.composable(f, h))
        rows, lookups = _counting_rows(g.arrow_count, g.comp)
        gens = associativity_generators(g.dom, g.cod, rows, objects)
        assert lookups[0] <= pairs, name
        assert gens == sorted(gens), name
        reached, fresh = set(gens), list(gens)
        while fresh:  # left-nested composites r s, s a generator
            r = fresh.pop()
            for s in gens:
                c = g.compose(r, s) if g.composable(r, s) else None
                if c is not None and c not in reached:
                    reached.add(c)
                    fresh.append(c)
        assert reached == set(range(g.arrow_count)), name
        assert certify_associativity(g.dom, g.cod, rows, objects), name


def test_generator_closure_composes_each_pair_at_most_once():
    # 2,000 objects, each with its identity alone: 2,000 composable
    # pairs and 2,000 generators, so no generator may meet every arrow
    n = 2000
    identities = {(i, i): i for i in range(n)}
    rows, lookups = _counting_rows(n, identities)
    assert associativity_generators(range(n), range(n), rows, n) == list(range(n))
    assert lookups[0] == n
    rows, lookups = _counting_rows(n, identities)
    assert certify_associativity(range(n), range(n), rows, n)
    # the closure, then a y, x a and the two sides of one triple per generator
    assert lookups[0] == n + 4 * n


def _recording_make(monkeypatch) -> list:
    """Wrap FiniteGroupoid.make to record, per call, the groupoid made
    and the comp tuple its arguments define: the sorted items of
    dict(comp)."""
    made = []
    real = FiniteGroupoid.make

    def recording(objects, arrows, dom, cod, identity_of, comp, inv):
        g = real(objects, arrows, dom, cod, identity_of, comp, inv)
        made.append((g, tuple(sorted(dict(comp).items()))))
        return g

    monkeypatch.setattr(FiniteGroupoid, "make", staticmethod(recording))
    return made


def _stored_comp(made, g):
    return next(comp for m, comp in made if m is g)


def _with_shuffled_lines(g, rng):
    """g rendered, with its identity, inverse and compose lines shuffled."""
    lines = render_groupoid(g).splitlines()
    head = [ln for ln in lines if ln.startswith(("objects:", "arrow "))]
    rest = lines[len(head):]
    rng.shuffle(rest)
    return "\n".join(head + rest) + "\n"


def test_every_builder_yields_the_sorted_comp_of_its_entries(monkeypatch):
    """comp is a view of rows: whichever way a groupoid is built, it is
    the sorted tuple of the composition entries the builder was given."""
    made = _recording_make(monkeypatch)
    corpus = groupoid_corpus()  # every builder in constructions
    for _, g in corpus:
        assert g.comp == _stored_comp(made, g)
        assert g.rows == tuple({h: k for (f2, h), k in g.comp if f2 == f}
                               for f in range(g.arrow_count))

    rng = random.Random(15)
    for name, g in corpus:
        items = list(g.comp)
        rng.shuffle(items)
        shuffled = FiniteGroupoid.make(g.objects, g.arrows, g.dom, g.cod,
                                       g.identity_of, dict(items), g.inv)
        assert shuffled.comp == tuple(sorted(items)) == g.comp, name

        text = _with_shuffled_lines(g, rng)
        made.clear()
        reference_parse_groupoid(text)
        assert parse_groupoid(text).comp == made[-1][1], name


def _graph_and_semigroup_groupoids():
    """(name, package-built groupoid, comp-dict reference) for the
    acyclic graphs of the corpus and the inverse semigroups."""
    graphs = [(name, g) for name, g, _ in graph_corpus()]
    graphs += [("chain5", chain_graph(5)), ("chain40", chain_graph(40)),
               ("in_tree7", in_tree_graph(7))]
    for name, graph in graphs:
        try:
            expected = reference_as_finite_groupoid(graph)
        except ValueError:  # a cycle: no finite groupoid
            continue
        yield name, as_finite_groupoid(graph), expected
    semigroups = isg_corpus()
    semigroups += [(name, parse_isg((FIXTURES / f"{name}.isg").read_text()))
                   for name in ("i2", "semilattice2")]
    for name, s in semigroups:
        yield name, underlying_groupoid(s), reference_underlying_groupoid(s)


def test_rows_built_groupoids_are_the_comp_dict_references():
    """as_finite_groupoid and underlying_groupoid write rows directly;
    the groupoid is the one FiniteGroupoid.make builds from the full
    composition dict, field for field and row order included."""
    fields = ("objects", "arrows", "dom", "cod", "identity_of", "rows", "inv")
    names = []
    for name, g, expected in _graph_and_semigroup_groupoids():
        assert g == expected, name
        for field in fields:
            got, want = getattr(g, field), getattr(expected, field)
            assert type(got) is type(want) and got == want, (name, field)
        assert g.comp == expected.comp, name
        assert [list(row.items()) for row in g.rows] == [
            list(row.items()) for row in expected.rows], name
        names.append(name)
    assert len(names) == 18 and names[-2:] == ["i2", "semilattice2"]


def test_parsed_and_made_groupoids_are_equal_and_hash_alike():
    changed = 0
    for name, g in groupoid_corpus():
        comp = dict(g.comp)
        made = FiniteGroupoid.make(g.objects, g.arrows, g.dom, g.cod, g.identity_of, comp, g.inv)
        parsed = parse_groupoid(render_groupoid(g))
        assert parsed == made and hash(parsed) == hash(made), name
        (f, h), k = g.comp[-1]
        others = [a for a in range(g.arrow_count) if a != k]
        if others:
            comp[(f, h)] = others[0]
            broken = FiniteGroupoid.make(g.objects, g.arrows, g.dom, g.cod,
                                         g.identity_of, comp, g.inv)
            assert broken != parsed and parsed != broken, name
            assert hash(broken) == hash(parsed), name  # rows are not hashed
            changed += 1
    assert changed >= 20


def _incoherent(g: FiniteGroupoid, rng) -> dict:
    """g's composition entries, in a shuffled order, with composites
    recorded for non-composable pairs and composites of the wrong span,
    several of each in each of several rows."""
    comp = dict(g.comp)
    rows = rng.sample(range(g.arrow_count), 3)
    for f in rows:
        strangers = [h for h in range(g.arrow_count) if g.dom[f] != g.cod[h]]
        for h in rng.sample(strangers, min(3, len(strangers))):
            comp[(f, h)] = rng.randrange(g.arrow_count)
        mates = [h for h in range(g.arrow_count) if g.dom[f] == g.cod[h]]
        for h in rng.sample(mates, min(2, len(mates))):
            span = (g.dom[h], g.cod[f])
            comp[(f, h)] = rng.choice([a for a in range(g.arrow_count)
                                       if (g.dom[a], g.cod[a]) != span])
    items = list(comp.items())
    rng.shuffle(items)
    return dict(items)


def test_coherence_violations_over_shuffled_rows_keep_the_full_scan_order():
    rng = random.Random(20261018)
    kinds = {"composition-domain", "composition-span"}
    cases = unsorted = 0
    for name, g in groupoid_corpus():
        if len(g.objects) < 2:
            continue
        for _ in range(3):
            broken = _corrupt(g, comp=_incoherent(g, rng))
            expected = reference_axiom_violations(broken)
            assert validate(broken) == expected, name
            coherence = [v for v in expected if v.kind in kinds]
            assert {v.kind for v in coherence} == kinds, name
            assert len({v.witness[0] for v in coherence}) == 3, name
            # the order a row was filed in is not the order reported
            unsorted += any(list(row) != sorted(row) for row in broken.rows)
            cases += 1
    assert cases >= 30 and unsorted == cases
