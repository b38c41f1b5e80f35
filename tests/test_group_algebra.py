"""Group tables, group algebra arithmetic, and block matrices."""
import random

import pytest

from gpdalg import (
    BlockMatrix,
    BlockShape,
    FiniteGroupTable,
    GaloisField,
    GroupAlgebraElement,
    IntegerGroup,
    Q,
    RingElement,
    Z,
)
from gpdalg.constructions import cyclic_table, klein_table, symmetric_table
from gpdalg.group_algebra import (
    IndexMap,
    NotAnIndexMap,
    as_laurent_element,
    entry_ring_rendering,
)
from gpdalg.rings import Laurent, ModularIntegers, laurent_variable


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


def test_group_classification_names():
    assert cyclic_table(1).name == "1"
    assert cyclic_table(2).name == "Z/2"
    assert cyclic_table(6).name == "Z/6"
    assert klein_table().name == "Z/2xZ/2"
    assert symmetric_table(3).name == "S3"


def test_one_plus_g_squares_to_zero_in_char_two():
    ring = GaloisField(2)
    z2 = cyclic_table(2)
    one_plus_g = GroupAlgebraElement.make(
        z2, ring, [(0, RingElement.one(ring)), (1, RingElement.one(ring))]
    )
    assert (one_plus_g * one_plus_g).is_zero
    assert not one_plus_g.is_zero


def test_group_algebra_associativity_seeded():
    rng = random.Random(11)
    for table, ring in [(symmetric_table(3), Q), (cyclic_table(4), GaloisField(3))]:
        for _ in range(25):
            a, b, c = (
                GroupAlgebraElement.make(
                    table,
                    ring,
                    [
                        (rng.randrange(table.size), RingElement.from_int(ring, rng.randint(-3, 3)))
                        for _ in range(rng.randint(0, 3))
                    ],
                )
                for _ in range(3)
            )
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_integer_group_is_laurent():
    ring = Q
    g = IntegerGroup()
    x = GroupAlgebraElement.delta(g, ring, 3)
    y = GroupAlgebraElement.delta(g, ring, -1)
    prod = x * y
    assert prod == GroupAlgebraElement.delta(g, ring, 2)
    lau = as_laurent_element(prod)
    assert lau == laurent_variable(Laurent(Q), 2)


def test_entry_ring_rendering():
    assert entry_ring_rendering(cyclic_table(1), Q) == "Q"
    assert entry_ring_rendering(cyclic_table(2), Q) == "Q[Z/2]"
    assert entry_ring_rendering(symmetric_table(3), GaloisField(2)) == "GF(2)[S3]"
    assert entry_ring_rendering(IntegerGroup(), ModularIntegers(6)) == "Laurent(Z/6)"


def _shape():
    return BlockShape(Q, ((2, cyclic_table(2)), (1, cyclic_table(1))))


def test_matrix_units_multiply_like_matrix_units():
    shape = _shape()
    size = shape.blocks[0][0]
    for i in range(size):
        for j in range(size):
            for k in range(size):
                for l in range(size):
                    prod = BlockMatrix.matrix_unit(shape, 0, i, j) * BlockMatrix.matrix_unit(shape, 0, k, l)
                    if j == k:
                        assert prod == BlockMatrix.matrix_unit(shape, 0, i, l)
                    else:
                        assert prod.is_zero


def test_block_matrix_identity_and_blocks_do_not_mix():
    shape = _shape()
    ident = BlockMatrix.identity(shape)
    a = BlockMatrix.matrix_unit(shape, 0, 0, 1)
    b = BlockMatrix.matrix_unit(shape, 1, 0, 0)
    assert ident * a == a and a * ident == a
    assert (a * b).is_zero and (b * a).is_zero
    assert a + b - a == b


def test_block_matrix_associativity_seeded():
    shape = _shape()
    rng = random.Random(5)

    def rand_matrix():
        m = BlockMatrix.zero(shape)
        for _ in range(rng.randint(0, 4)):
            bi = rng.randrange(2)
            size, group = shape.blocks[bi]
            m = m + BlockMatrix.matrix_unit(
                shape, bi, rng.randrange(size), rng.randrange(size),
                key=rng.randrange(group.size),
                coeff=RingElement.from_int(Q, rng.randint(-2, 2)),
            )
        return m

    for _ in range(30):
        a, b, c = rand_matrix(), rand_matrix(), rand_matrix()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_group_algebra_over_z_has_no_surprise_division():
    z2 = cyclic_table(2)
    two = GroupAlgebraElement.make(z2, Z, [(0, RingElement.from_int(Z, 2))])
    g = GroupAlgebraElement.delta(z2, Z, 1)
    assert (two * g).coeffs[0][1] == RingElement.from_int(Z, 2)


def _map_shape(ring):
    return BlockShape(ring, (
        (3, symmetric_table(3)), (2, IntegerGroup()), (2, FiniteGroupTable.from_table([[0]])),
    ))


def _random_map_matrix(shape, rng):
    """A block matrix of coefficient-one units, at most one per row, and
    the (block, row) -> (col, key) map it should read as."""
    rows, items = {}, [[] for _ in shape.blocks]
    for bi, (size, group) in enumerate(shape.blocks):
        for row in range(size):
            if rng.random() < 0.6:
                col = rng.randrange(size)
                key = rng.randint(-3, 3) if isinstance(group, IntegerGroup) else rng.randrange(group.size)
                rows[bi, row] = (col, key)
                items[bi].append(((row, col), GroupAlgebraElement.delta(group, shape.ring, key)))
    return BlockMatrix.build(shape, items), rows


@pytest.mark.parametrize("ring", [Q, GaloisField(3), Laurent(Q)])
def test_index_maps_compose_add_and_compare_like_their_block_matrices(ring):
    shape = _map_shape(ring)
    rng = random.Random(11)
    for _ in range(60):
        (a, rows_a), (b, rows_b) = _random_map_matrix(shape, rng), _random_map_matrix(shape, rng)
        ma, mb = IndexMap.read(a), IndexMap.read(b)
        assert ma.rows == rows_a and mb.rows == rows_b
        assert (ma == mb) == (a == b)
        assert IndexMap.read(a * b) == ma * mb
        for bi, (size, _) in enumerate(shape.blocks):
            for row in range(size):
                for col in range(size):
                    key = ma.entry(bi, row, col)
                    want = a.entry(bi, row, col)
                    assert want == (GroupAlgebraElement.zero(shape.blocks[bi][1], ring) if key is None
                                    else GroupAlgebraElement.delta(shape.blocks[bi][1], ring, key))
        if rows_a.keys().isdisjoint(rows_b):
            assert IndexMap.read(a + b) == ma + mb
        else:
            with pytest.raises(NotAnIndexMap):
                ma + mb
    unit = IndexMap.unit(shape, 0, 1, 2)
    assert unit == IndexMap.read(BlockMatrix.matrix_unit(shape, 0, 1, 2))


def test_only_coefficient_one_single_units_read_as_index_maps():
    shape = _map_shape(Q)
    e01 = BlockMatrix.matrix_unit(shape, 0, 0, 1)
    two = RingElement.from_int(Q, 2)
    s3 = shape.blocks[0][1]
    not_maps = {
        "coefficient 2": e01 + e01,
        "two entries in a row": e01 + BlockMatrix.matrix_unit(shape, 0, 0, 2),
        "two keys in an entry": e01 + BlockMatrix.matrix_unit(shape, 0, 0, 1, key=1),
        "coefficient 2 at x": BlockMatrix.matrix_unit(shape, 1, 0, 0, key=1, coeff=two),
        "an entry over another group": BlockMatrix(shape, (
            (((0, 1), GroupAlgebraElement.delta(cyclic_table(6), Q, 0)),), (), ())),
    }
    for name, m in not_maps.items():
        assert IndexMap.read(m) is None, name
    assert IndexMap.read(e01 + BlockMatrix.matrix_unit(shape, 0, 1, 1, key=s3.size - 1)) is not None
    assert IndexMap.read(BlockMatrix.zero(shape)).rows == {}
