"""Group tables, the ring-level group algebra and block matrices the
references compute with, and the unit-set product of the Leavitt check
against them."""
import random

import pytest

from support import DenseBlockMatrix, coeff_mul, reference_group_table

from gpdalg import BlockShape, FiniteGroupTable, GaloisField, IntegerGroup, Q, Z
from gpdalg.constructions import cyclic_table, klein_table, symmetric_table
from gpdalg.group_algebra import entry_ring_rendering
from gpdalg.leavitt import _compose
from gpdalg.rings import Laurent, ModularIntegers, Product, int_payload


def test_group_table_verifies_axioms():
    with pytest.raises(ValueError):
        # constant rows: no identity, not a latin square
        FiniteGroupTable.from_table([[0, 0], [1, 1]])
    with pytest.raises(ValueError):
        # identity exists but one element has no inverse
        FiniteGroupTable.from_table([[0, 1, 2], [1, 1, 1], [2, 1, 0]])
    with pytest.raises(ValueError):
        # non-associative quasigroup on 5 elements (subtraction mod 5)
        FiniteGroupTable.from_table(
            [[(i - j) % 5 for j in range(5)] for i in range(5)]
        )


def _table_outcome(build, rows):
    try:
        return build(rows)
    except ValueError as exc:
        return str(exc)


def test_group_tables_verify_as_the_full_triple_scan():
    # the certificate on generators, with its ordered fallback scan,
    # against every triple scanned: the same table or the same message
    rng = random.Random(14)
    groups = [cyclic_table(n) for n in (1, 2, 5, 8)]
    groups += [klein_table(), symmetric_table(3), symmetric_table(4)]
    cases = [[[(i - j) % 5 for j in range(5)] for i in range(5)]]
    for t in groups:
        n = t.size
        rows = [list(r) for r in t.table]
        cases.append(rows)
        perm = list(range(n))
        rng.shuffle(perm)
        cases.append([[perm[v] for v in r] for r in rows])  # relabeled values only
        for _ in range(12):
            bad = [list(r) for r in rows]
            bad[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            cases.append(bad)
        if n > 2:
            # swap two non-identity entries of one row: identity and
            # inverses survive, associativity does not
            x = rng.choice([v for v in range(n) if v != t.identity])
            i, j = rng.sample([v for v in range(n) if rows[x][v] != t.identity], 2)
            bad = [list(r) for r in rows]
            bad[x][i], bad[x][j] = bad[x][j], bad[x][i]
            cases.append(bad)
    outcomes = set()
    for rows in cases:
        got = _table_outcome(FiniteGroupTable.from_table, rows)
        assert got == _table_outcome(reference_group_table, rows), rows
        outcomes.add(got.split(" at ")[0] if isinstance(got, str) else "group")
    assert {"group", "associativity fails"} <= outcomes


def test_group_classification_names():
    assert cyclic_table(1).name == "1"
    assert cyclic_table(2).name == "Z/2"
    assert cyclic_table(6).name == "Z/6"
    assert klein_table().name == "Z/2xZ/2"
    assert symmetric_table(3).name == "S3"


def _cell(group, ring, terms):
    """The group algebra element sum of c * g over (g, c) in terms, as
    the one cell of a 1 x 1 block."""
    shape = BlockShape(ring, ((1, group),))
    return DenseBlockMatrix.build(shape, [[((0, 0), (k, int_payload(ring, c))) for k, c in terms]])


def test_one_plus_g_squares_to_zero_in_char_two():
    one_plus_g = _cell(cyclic_table(2), GaloisField(2), [(0, 1), (1, 1)])
    assert one_plus_g.blocks != ((),)
    assert (one_plus_g * one_plus_g).blocks == ((),)


def test_group_algebra_associativity_seeded():
    rng = random.Random(11)
    for table, ring in [(symmetric_table(3), Q), (cyclic_table(4), GaloisField(3))]:
        for _ in range(25):
            a, b, c = (
                _cell(table, ring, [(rng.randrange(table.size), rng.randint(-3, 3))
                                    for _ in range(rng.randint(0, 3))])
                for _ in range(3)
            )
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_integer_group_is_laurent():
    prod = _cell(IntegerGroup(), Q, [(3, 1)]) * _cell(IntegerGroup(), Q, [(-1, 1)])
    assert prod == _cell(IntegerGroup(), Q, [(2, 1)])
    # the same coefficients read as an element of Laurent(Q)
    one = int_payload(Q, 1)
    assert prod.entry(0, 0, 0) == coeff_mul(Laurent(Q), ((3, one),), ((-1, one),))


def test_group_algebra_over_z_has_no_surprise_division():
    two_g = _cell(cyclic_table(2), Z, [(0, 2)]) * _cell(cyclic_table(2), Z, [(1, 1)])
    assert two_g.entry(0, 0, 0) == ((1, 2),)


def test_entry_ring_rendering():
    assert entry_ring_rendering(cyclic_table(1), Q) == "Q"
    assert entry_ring_rendering(cyclic_table(2), Q) == "Q[Z/2]"
    assert entry_ring_rendering(symmetric_table(3), GaloisField(2)) == "GF(2)[S3]"
    assert entry_ring_rendering(IntegerGroup(), ModularIntegers(6)) == "Laurent(Z/6)"


# the unit-set product of leavitt._compose, on the blocks it meets: one
# with infinite cyclic isotropy (keys are exponents and add) and one
# with trivial isotropy (every key 0)
_SIZES = (3, 2)


def _unit(bi, row, col, key=0):
    return ((bi, row, col, key),)


def test_matrix_units_multiply_like_matrix_units():
    size = _SIZES[0]
    for i in range(size):
        for j in range(size):
            for k in range(size):
                for l in range(size):
                    prod = _compose(_unit(0, i, j, 2), _unit(0, k, l, -3))
                    assert prod == (_unit(0, i, l, -1) if j == k else ())


def test_block_matrix_identity_and_blocks_do_not_mix():
    identity = tuple((bi, i, i, 0) for bi, size in enumerate(_SIZES) for i in range(size))
    a, b = _unit(0, 0, 1, 4), _unit(1, 0, 0)
    assert _compose(identity, a) == a == _compose(a, identity)
    assert _compose(a, b) == () == _compose(b, a)


def _random_units(rng):
    """A sorted unit set, repeats allowed: coefficient 2 over Z."""
    units = []
    for _ in range(rng.randint(0, 5)):
        bi = rng.randrange(len(_SIZES))
        size = _SIZES[bi]
        key = rng.randint(-2, 2) if bi == 0 else 0
        units.append((bi, rng.randrange(size), rng.randrange(size), key))
    return tuple(sorted(units))


def test_block_matrix_associativity_seeded():
    rng = random.Random(5)
    for _ in range(60):
        a, b, c = _random_units(rng), _random_units(rng), _random_units(rng)
        assert _compose(_compose(a, b), c) == _compose(a, _compose(b, c))
        assert _compose(a, tuple(sorted(b + c))) == tuple(sorted(_compose(a, b) + _compose(a, c)))


@pytest.mark.parametrize("ring", [
    Q, GaloisField(3), Laurent(Q), GaloisField(2), ModularIntegers(6), Z,
    Product((GaloisField(2), GaloisField(3))),
])
def test_block_matrices_agree_with_the_dense_reference(ring):
    # a unit set is a sum of coefficient-one units: its product and sum
    # are the ring-level ones in every ring
    shape = BlockShape(ring, ((_SIZES[0], IntegerGroup()), (_SIZES[1], cyclic_table(1))))
    rng = random.Random(16)

    def dense(units):
        return DenseBlockMatrix.from_units(shape, units)

    mats = [_random_units(rng) for _ in range(40)]
    for a, b in zip(mats, mats[1:] + mats[:1]):
        assert dense(_compose(a, b)) == dense(a) * dense(b)
        assert dense(tuple(sorted(a + b))) == dense(a) + dense(b)
    # a unit listed twice is coefficient 2, zero in GF(2) alone
    doubled = [m for m in mats if m]
    cancelled = sum(dense(tuple(sorted(m + m))) == dense(()) for m in doubled)
    assert doubled and cancelled == (len(doubled) if ring == GaloisField(2) else 0)
