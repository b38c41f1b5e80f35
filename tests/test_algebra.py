"""Convolution algebra and the block-matrix isomorphism."""
import itertools
import pathlib
import random

import pytest

import corpus
from corpus import groupoid_corpus
import support
from support import (
    DenseBlockMatrix,
    combine,
    naive_convolution,
    reference_phi,
    reference_phi_inv,
    reference_verify_isomorphism,
)

import gpdalg.algebra
import gpdalg.rings
from gpdalg import (
    FiniteGroupTable,
    FiniteGroupoid,
    Q,
    VerificationReport,
    Z,
    decompose,
    parse_groupoid,
    parse_ring_descriptor,
    verify_isomorphism,
)
from gpdalg.algebra import _pull
from gpdalg.rings import int_payload
from gpdalg.constructions import (
    cyclic_table,
    disjoint_union,
    group_groupoid,
    pair_groupoid,
    product_with_group,
    symmetric_table,
)
from gpdalg.groupoid import generators, isotropy
from gpdalg.isg import underlying_groupoid

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

GF2 = parse_ring_descriptor("GF(2)")
Z6 = parse_ring_descriptor("Z/6")


def _pair2():
    return parse_groupoid((FIXTURES / "pair2.gpd").read_text())


# elements of the groupoid algebra are the references' sorted tuples of
# (arrow, coefficient payload), see support.combine


def _random_element(g, ring, rng):
    return combine(ring, [(rng.randrange(g.arrow_count), int_payload(ring, rng.randint(-3, 3)))
                          for _ in range(rng.randint(1, 4))])


def _chi(ring, arrows):
    return combine(ring, [(a, int_payload(ring, 1)) for a in arrows])


def test_unit_space_characteristic_functions_multiply_by_intersection():
    for name, g in groupoid_corpus():
        if len(g.objects) > 5:
            continue
        object_range = range(len(g.objects))
        for u_bits, v_bits in itertools.product(range(2 ** len(g.objects)), repeat=2):
            u = [x for x in object_range if u_bits >> x & 1]
            v = [x for x in object_range if v_bits >> x & 1]
            chi_u = _chi(Q, [g.identity_of[x] for x in u])
            chi_v = _chi(Q, [g.identity_of[x] for x in v])
            meet = [g.identity_of[x] for x in u if x in set(v)]
            assert naive_convolution(g, Q, chi_u, chi_v) == _chi(Q, meet), name


def test_basis_convolution_is_associative():
    for name, g in groupoid_corpus():
        if g.arrow_count > 8:
            continue
        for ring in (Z, GF2):
            deltas = [_chi(ring, [a]) for a in range(g.arrow_count)]

            def mul(x, y):
                return naive_convolution(g, ring, x, y)

            for da, db, dc in itertools.product(deltas, repeat=3):
                assert mul(mul(da, db), dc) == mul(da, mul(db, dc)), name


def test_convolution_distributes_and_respects_unit():
    rng = random.Random(412)
    for name, g in groupoid_corpus():
        if g.arrow_count > 12:
            continue
        unit = _chi(Q, g.identity_arrows())

        def mul(x, y):
            return naive_convolution(g, Q, x, y)

        def add(x, y):
            return combine(Q, x + y)

        for _ in range(10):
            x = _random_element(g, Q, rng)
            y = _random_element(g, Q, rng)
            z = _random_element(g, Q, rng)
            assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
            assert mul(add(x, y), z) == add(mul(x, z), mul(y, z))
            assert mul(unit, x) == x and mul(x, unit) == x


def test_decompose_rejects_non_groupoid():
    broken = parse_groupoid((FIXTURES / "broken_assoc.gpd").read_text())
    with pytest.raises(ValueError) as exc:
        decompose(broken, Q)
    assert "not a groupoid" in str(exc.value)


def test_shape_strings():
    cases = [
        ("pair2", "M_2(Q)"),
        ("pair2_Z2", "M_2(Q[Z/2])"),
        ("S3", "M_1(Q[S3])"),
        ("pair2_u_Z2", "M_2(Q) x M_1(Q[Z/2])"),
    ]
    by_name = dict(groupoid_corpus())
    for name, expected in cases:
        assert decompose(by_name[name], Q).shape.render() == expected, name


def test_phi_linear_multiplicative_and_inverted():
    # the ring-level maps the isomorphism reference runs, on random
    # elements: phi(x + y), phi(x * y) and phi^-1(phi(x))
    rng = random.Random(413)
    for name, g in groupoid_corpus():
        for ring in (Q, GF2):
            d = decompose(g, ring)
            for a in range(g.arrow_count):
                assert reference_phi(d, _chi(ring, [a])) == DenseBlockMatrix.from_units(
                    d.shape, [d.arrow_position[a]])
            if g.arrow_count > 12:
                continue
            for _ in range(10):
                x = _random_element(g, ring, rng)
                y = _random_element(g, ring, rng)
                assert reference_phi(d, combine(ring, x + y)) == (
                    reference_phi(d, x) + reference_phi(d, y)), name
                assert reference_phi(d, naive_convolution(g, ring, x, y)) == (
                    reference_phi(d, x) * reference_phi(d, y)), name
                assert reference_phi_inv(d, reference_phi(d, x)) == x, name
            identity = DenseBlockMatrix.from_units(d.shape, [
                (bi, i, i, group.identity) for bi, (size, group) in enumerate(d.shape.blocks)
                for i in range(size)])
            assert reference_phi(d, _chi(ring, g.identity_arrows())) == identity


def test_matrix_units_pull_back_to_single_arrows():
    d = decompose(_pair2(), Q)
    covered = {_pull(d, 0, row, col, 0) for row in range(2) for col in range(2)}
    assert covered == set(range(4))


def test_verify_isomorphism_spot_checks():
    by_name = dict(groupoid_corpus())
    for name in ("pair3", "pair2_Z2", "act_S3"):
        report = verify_isomorphism(decompose(by_name[name], Q))
        assert report.ok, report.failures[:3]
        assert report.passed == report.total


def test_a_report_stores_its_total_and_failures_and_derives_passed():
    assert VerificationReport._fields == ("description", "total", "failures")
    report = VerificationReport("checks", 5, ("first", "second"))
    assert (report.passed, report.ok, report.summary()) == (3, False, "3/5 checks")
    assert VerificationReport("checks", 5, ()).ok


def _swap_arrows(d):
    # exchange the images of f and g, or of the first two arrows when
    # the groupoid has no arrows of those names
    g = d.groupoid
    f, h = (g.arrows.index("f"), g.arrows.index("g")) if {"f", "g"} <= set(g.arrows) else (0, 1)
    swapped = list(d.arrow_position)
    swapped[f], swapped[h] = swapped[h], swapped[f]
    return d._replace(arrow_position=tuple(swapped))


def test_tampered_frame_is_detected():
    bad = _swap_arrows(decompose(_pair2(), Q))
    report = verify_isomorphism(bad)
    assert not report.ok
    assert report.failures


def _outcome(report):
    return report.total, report.passed, report.failures


PARITY_RINGS = tuple(parse_ring_descriptor(r) for r in corpus.PARITY_RINGS)


def test_index_check_matches_the_object_reference_on_the_corpus():
    # the check reads no ring element; the reference multiplies in each ring
    for name, g in groupoid_corpus():
        for ring in PARITY_RINGS:
            d = decompose(g, ring)
            fast = verify_isomorphism(d)
            assert fast.ok, (name, fast.failures[:3])
            assert _outcome(fast) == _outcome(reference_verify_isomorphism(d)), name


def _nontrivial_block(d):
    return next(bi for bi, (_, group) in enumerate(d.shape.blocks) if group.size > 1)


def _swap_isotropy_keys(d):
    # relabel two isotropy elements of one block for every arrow in it;
    # one of them is the identity, so this is never an automorphism
    target = _nontrivial_block(d)
    group = d.shape.blocks[target][1]
    k1 = group.identity
    k2 = (k1 + 1) % group.size
    relabel = {k1: k2, k2: k1}
    position = tuple(
        (bi, row, col, relabel.get(key, key) if bi == target else key)
        for bi, row, col, key in d.arrow_position
    )
    return d._replace(arrow_position=position)


def _permute_group_table(d):
    # the same abstract group with its elements renumbered by a shift,
    # so the keys in arrow_position no longer index the right products
    target = _nontrivial_block(d)
    size, group = d.shape.blocks[target]
    perm = [(k + 1) % group.size for k in range(group.size)]
    rows = [[0] * group.size for _ in range(group.size)]
    for i in range(group.size):
        for j in range(group.size):
            rows[perm[i]][perm[j]] = perm[group.table[i][j]]
    blocks = list(d.shape.blocks)
    permuted = FiniteGroupTable.from_table(rows)
    assert permuted.name == group.name
    blocks[target] = (size, permuted)
    shape = d.shape._replace(blocks=tuple(blocks))
    return d._replace(shape=shape)


def _swap_connecting(d):
    # exchange the last two connecting arrows of the first orbit frame:
    # arrow_position still follows the old frame, so the pairs pass and
    # the round trips, which pull back along the frame, fail
    target = next(i for i, orb in enumerate(d.orbit_frames) if len(orb.members) > 1)
    frames = list(d.orbit_frames)
    conn = list(frames[target].connecting)
    conn[-1], conn[-2] = conn[-2], conn[-1]
    frames[target] = frames[target]._replace(connecting=tuple(conn))
    return d._replace(orbit_frames=tuple(frames))


def _merge_rows(d):
    # send row and column 1 of the first block of size > 1 to 0: the
    # object -> (block, row) map stays well defined but is no longer
    # injective, so the certificate fails and every pair is scanned
    target = next(bi for bi, (size, _) in enumerate(d.shape.blocks) if size > 1)
    merge = {1: 0}
    position = tuple(
        (bi, merge.get(row, row), merge.get(col, col), key) if bi == target
        else (bi, row, col, key)
        for bi, row, col, key in d.arrow_position
    )
    return d._replace(arrow_position=position)


@pytest.mark.parametrize("tamper, groupoid", [
    (_swap_arrows, "pair2"),
    (_swap_isotropy_keys, "pair2_S3"),
    (_swap_isotropy_keys, "pair2_u_Z2"),
    (_permute_group_table, "pair2_S3"),
    (_permute_group_table, "pair2Z2_u_Z4"),
    (_swap_connecting, "pair2"),
    (_swap_connecting, "pair3_Z2"),
    (_merge_rows, "pair2"),
    (_merge_rows, "pair2_u_pair3"),
])
def test_tampered_decompositions_fail_exactly_as_the_reference(tamper, groupoid):
    g = _pair2() if groupoid == "pair2" else dict(groupoid_corpus())[groupoid]
    for ring in (Q, GF2, Z6):
        bad = tamper(decompose(g, ring))
        report = verify_isomorphism(bad)
        assert not report.ok and report.failures
        assert _outcome(report) == _outcome(reference_verify_isomorphism(bad))


_TAMPERS = (_swap_arrows, _swap_isotropy_keys, _permute_group_table, _swap_connecting, _merge_rows)


def test_every_tamper_of_every_corpus_decomposition_fails_as_the_reference():
    # the generator pairs pass only when every pair does: a failing
    # tamper falls back to the full scan and lists its failures
    for name, g in groupoid_corpus():
        for ring in (Q, GF2, Z6):
            d = decompose(g, ring)
            for tamper in _TAMPERS:
                try:
                    bad = tamper(d)
                except (StopIteration, IndexError):  # no block, frame or arrow to tamper with
                    continue
                report = verify_isomorphism(bad)
                assert _outcome(report) == _outcome(reference_verify_isomorphism(bad)), (
                    name, ring, tamper.__name__)


def test_the_check_runs_no_ring_arithmetic_and_fails_as_the_reference(monkeypatch):
    cases = []
    for name, g in groupoid_corpus():
        for ring in (Q, GF2, Z6):
            d = decompose(g, ring)
            for tamper in (None,) + _TAMPERS:
                try:
                    bad = d if tamper is None else tamper(d)
                except (StopIteration, IndexError):  # no block, frame or arrow to tamper with
                    continue
                cases.append((name, ring, bad, _outcome(reference_verify_isomorphism(bad))))

    def ring_level(*args, **kwargs):
        raise AssertionError("verify_isomorphism read a ring element")

    # the package keeps no ring arithmetic; these read its only payloads
    for name in ("int_payload", "render_payload", "_payload_is_zero"):
        monkeypatch.setattr(gpdalg.rings, name, ring_level)
    for name, ring, d, expected in cases:
        assert _outcome(verify_isomorphism(d)) == expected, (name, ring)


def _planned_pairs(monkeypatch):
    """The pairs (a, b) the pair loops of the next verify_isomorphism
    visit, in order, as its _pair_partners calls plan them."""
    visits = []
    real = gpdalg.algebra._pair_partners

    def recording(*args):
        partners = real(*args)
        visits.extend((a, b) for a, bs in enumerate(partners) for b in bs)
        return partners

    monkeypatch.setattr(gpdalg.algebra, "_pair_partners", recording)
    return visits


def _non_loop_first(g):
    # the same groupoid with its first non-loop arrow renumbered to 0
    first = next(a for a in range(g.arrow_count) if g.dom[a] != g.cod[a])
    order = [first] + [a for a in range(g.arrow_count) if a != first]
    new = {old: i for i, old in enumerate(order)}
    return FiniteGroupoid.make(
        g.objects,
        [g.arrows[a] for a in order],
        [g.dom[a] for a in order],
        [g.cod[a] for a in order],
        [None if a is None else new[a] for a in g.identity_of],
        {(new[f], new[h]): new[k] for (f, h), k in g.comp},
        [new[g.inv[a]] for a in order],
    )


def _generator_pairs(g):
    """(a, s) for s among validate's generators with cod s = dom a, in
    the order of the full scan."""
    gens = generators(g)
    return [
        (a, s) for a in range(g.arrow_count) for s in gens if g.cod[s] == g.dom[a]]


@pytest.mark.parametrize("reorder", [False, True], ids=["loop_first", "non_loop_first"])
def test_pair_phase_visits_only_composable_pairs(monkeypatch, reorder):
    g = product_with_group(pair_groupoid([f"x{i}" for i in range(4)]), cyclic_table(4))
    if reorder:
        g = _non_loop_first(g)
    n = g.arrow_count
    visits = _planned_pairs(monkeypatch)
    report = verify_isomorphism(decompose(g, Q))
    assert report.ok and report.total == (n + 1) ** 2
    # the generator pairs alone, every one composable
    assert visits == _generator_pairs(g)
    assert len(visits) == 64 * 2
    composable = [(a, b) for a in range(n) for b in range(n) if g.dom[a] == g.cod[b]]
    assert len(composable) == 1024
    # a failing generator pair: the generator pairs, then the full scan
    visits.clear()
    bad = _swap_isotropy_keys(decompose(g, Q))
    report = verify_isomorphism(bad)
    assert not report.ok
    assert visits == _generator_pairs(g) + composable


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_pair_phase_counts_one_visit_per_arrow_and_generator_into_its_domain(
        monkeypatch, size):
    # counted work, not time: a later fallback to the full scan fails here
    for table in (cyclic_table(2), cyclic_table(4), symmetric_table(3)):
        g = product_with_group(pair_groupoid([f"x{i}" for i in range(size)]), table)
        for h in (g, _non_loop_first(g)):
            visits = _planned_pairs(monkeypatch)
            assert verify_isomorphism(decompose(h, Q)).ok
            gens = generators(h)
            expected = sum(1 for a in range(h.arrow_count) for s in gens if h.cod[s] == h.dom[a])
            assert len(visits) == expected, (size, table.name)


def test_a_slot_map_that_is_not_injective_scans_every_pair(monkeypatch):
    d = _merge_rows(decompose(dict(groupoid_corpus())["pair2_u_pair3"], Q))
    n = d.groupoid.arrow_count
    visits = _planned_pairs(monkeypatch)
    assert not verify_isomorphism(d).ok
    # the outcome itself is pinned by the tamper test against the reference
    assert visits == list(itertools.product(range(n), repeat=2))


def test_swapped_frame_fails_the_round_trips_only():
    for name in ("pair2", "pair3_Z2"):
        g = _pair2() if name == "pair2" else dict(groupoid_corpus())[name]
        report = verify_isomorphism(_swap_connecting(decompose(g, Q)))
        assert report.failures, name
        assert all(f.startswith("phi_inv(phi(") or f.startswith("phi(phi_inv(")
                   for f in report.failures), name


def _discrete(n):
    """n objects, each with its identity alone."""
    return FiniteGroupoid.make(
        [f"o{i}" for i in range(n)], [f"id{i}" for i in range(n)],
        range(n), range(n), range(n), {(i, i): i for i in range(n)}, range(n))


def test_decompose_lays_out_every_orbit_as_the_all_arrow_scan():
    """Grouping the arrows by orbit once gives the arrow positions of
    scanning every arrow for every orbit, and reading each isotropy
    group off validate's proof (table, identity 1_x, inverses from
    g.inv) gives FiniteGroupTable.from_table's group on the same loop
    table, at every object: over the corpus, the constructions and the
    groupoids underlying the inverse-semigroup corpus."""
    pair2 = pair_groupoid(["x", "y"])
    pair2_z3 = product_with_group(pair2, cyclic_table(3))
    # arrow names in reverse, so that no identity is its object's first loop
    reversed_names = FiniteGroupoid.make(
        pair2_z3.objects, [f"a{pair2_z3.arrow_count - i:02d}" for i in range(pair2_z3.arrow_count)],
        pair2_z3.dom, pair2_z3.cod, pair2_z3.identity_of, pair2_z3.comp, pair2_z3.inv)
    cases = groupoid_corpus() + corpus.disconnected_ladder() + [
        ("discrete40", _discrete(40)),
        ("Z7", group_groupoid(cyclic_table(7))),
        ("Z12", group_groupoid(cyclic_table(12))),
        ("S4", group_groupoid(symmetric_table(4))),
        ("pair2_u_Z5", disjoint_union(pair2, group_groupoid(cyclic_table(5)))),
        ("pair2_Z3 names reversed", reversed_names),
    ] + [(name, underlying_groupoid(s)) for name, s in corpus.isg_corpus()]
    names = set()
    for name, g in cases:
        d = decompose(g, Q)
        assert (d.isotropies, d.arrow_position) == support.reference_orbit_layout(g), name
        for x in range(len(g.objects)):
            assert isotropy(g, x) == support.reference_isotropy(g, x), (name, x)
        names.update(iso.table.name for iso in d.isotropies)
    assert names >= {"1", "Z/2", "Z/7", "Z/2xZ/2", "S3", "G24"}
