"""Groupoid parsing, validation, frames, and orbit structure."""
import pathlib

import pytest

from corpus import groupoid_corpus
from support import groupoid_axiom_problems

from gpdalg import (
    FiniteGroupoid,
    IntegerGroup,
    ParseError,
    parse_groupoid,
    render_groupoid,
    structured_from_finite,
    validate,
)
from gpdalg.constructions import (
    cyclic_table,
    group_groupoid,
    pair_groupoid,
    product_with_group,
    symmetric_table,
)
from gpdalg.groupoid import isotropy, orbits

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
    sg = structured_from_finite(p2z2)
    assert [(o.size, o.isotropy.size) for o in sg.orbits] == [(2, 2)]
    assert sg.arrow_count() == 8 == p2z2.arrow_count
    for name, g in groupoid_corpus():
        sg = structured_from_finite(g)
        total = 0
        for o in sg.orbits:
            assert not isinstance(o.isotropy, IntegerGroup)
            total += o.size ** 2 * o.isotropy.size
        assert total == g.arrow_count, name


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
