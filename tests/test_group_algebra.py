"""Group tables, group algebra arithmetic, and block matrices."""
import random

import pytest

from support import DenseBlockMatrix, reference_group_table

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
from gpdalg.group_algebra import entry_ring_rendering
from gpdalg.rings import Laurent, ModularIntegers, Product, laurent_variable


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
    # the same coefficients read as an element of Laurent(Q)
    lau = RingElement(Laurent(Q), tuple((e, c.value) for e, c in prod.coeffs))
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


def _dense_shape(ring):
    # S3, infinite cyclic and trivial blocks; block 3 is never touched
    return BlockShape(ring, (
        (2, symmetric_table(3)), (3, IntegerGroup()), (1, cyclic_table(1)),
        (2, IntegerGroup()), (2, symmetric_table(3)),
    ))


def _random_items(shape, rng):
    """One random matrix as ((block, row, col, key), coefficient) items,
    and as the reference's per-block lists of ((row, col), element):
    coefficient-one units at most one per row, or small coefficients
    (-3..3, so 2 * 3 and 1 + 1 can vanish) with repeated cells and
    keys."""
    units = rng.random() < 0.4
    ring = shape.ring
    items, dense = [], [[] for _ in shape.blocks]
    for bi, (size, group) in enumerate(shape.blocks):
        if bi == 3 or rng.random() < 0.35:
            continue
        for row in range(size):
            for _ in range(1 if units else rng.randint(0, 2)):
                if units and rng.random() < 0.3:
                    continue
                col = rng.randrange(size)
                for _ in range(1 if units else rng.randint(1, 2)):
                    key = rng.randint(-2, 2) if isinstance(group, IntegerGroup) else rng.randrange(group.size)
                    coeff = RingElement.one(ring) if units else RingElement.from_int(ring, rng.randint(-3, 3))
                    items.append(((bi, row, col, key), coeff))
                    dense[bi].append(((row, col), GroupAlgebraElement.delta(group, ring, key, coeff)))
    return items, dense


def _dense_unit(ref):
    """(block, row, col, key) when ref is one coefficient-one matrix
    unit, read off its cells, else None."""
    cells = [(bi, rc, v) for bi, block in enumerate(ref.blocks) for rc, v in block]
    if len(cells) != 1 or len(cells[0][2].coeffs) != 1:
        return None
    (bi, (row, col), v), = cells
    (key, coeff), = v.coeffs
    return (bi, row, col, key) if coeff == RingElement.one(ref.shape.ring) else None


def _assert_matches_dense(m, ref):
    for bi, (size, _) in enumerate(m.shape.blocks):
        for row in range(size):
            for col in range(size):
                assert m.entry(bi, row, col) == ref.entry(bi, row, col)
    assert str(m) == str(ref)
    assert m.unit_index() == _dense_unit(ref)
    assert (m == BlockMatrix.zero(m.shape)) == all(not b for b in ref.blocks)


# ring -> coefficient payloads whose product is zero
ZERO_PRODUCTS = {
    ModularIntegers(6): ((2, 3),),
    Product((GaloisField(2), GaloisField(3))): (((1, 0), (0, 1)),),
}


def _unit_items(shape, unit, coeff):
    """One matrix unit as build items, and as the reference's per-block lists."""
    bi, row, col, key = unit
    dense = [[] for _ in shape.blocks]
    group = shape.blocks[bi][1]
    dense[bi].append(((row, col), GroupAlgebraElement.delta(group, shape.ring, key, coeff)))
    return [(unit, coeff)], dense


@pytest.mark.parametrize("ring", [
    Q, GaloisField(3), Laurent(Q), GaloisField(2), ModularIntegers(6), Z,
    Product((GaloisField(2), GaloisField(3))),
])
def test_block_matrices_agree_with_the_dense_reference(ring):
    shape = _dense_shape(ring)
    rng = random.Random(16)
    zero = BlockMatrix.zero(shape)
    mats = []
    for _ in range(24):
        items, dense_items = _random_items(shape, rng)
        m, ref = BlockMatrix.build(shape, items), DenseBlockMatrix.build(shape, dense_items)
        _assert_matches_dense(m, ref)
        mats.append((m, ref))
    for (a, ra), (b, rb), (c, rc) in zip(mats, mats[1:] + mats[:1], mats[2:] + mats[:2]):
        assert (a == b) == (ra == rb)
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            _assert_matches_dense(op(a, b), op(ra, rb))
        # triple products, and equal values hash alike
        left, right = (a * b) * c, a * (b * c)
        _assert_matches_dense(left, (ra * rb) * rc)
        assert left == right and hash(left) == hash(right)
        spread, split = a * (b + c), a * b + a * c
        _assert_matches_dense(spread, ra * (rb + rc))
        assert spread == split and hash(spread) == hash(split)
        # cancel each touched block of a in turn: that block drops out
        for bi in sorted({unit[0] for unit, _ in a.entries}):
            minus = BlockMatrix.build(shape, [(u, -v) for u, v in a.entries if u[0] == bi])
            rminus = DenseBlockMatrix.build(
                shape, [[(rc, -v) for rc, v in ra.blocks[i]] if i == bi else [] for i in range(bi + 1)])
            cut = a + minus
            _assert_matches_dense(cut, ra + rminus)
            assert all(unit[0] != bi for unit, _ in cut.entries)
        gone = a - a
        assert gone == zero and hash(gone) == hash(zero) and gone.entries == ()
        assert (a + -a) == zero and hash(a + -a) == hash(zero)
    # an equal shape built separately: its matrices compare equal, hash
    # alike and multiply with those over shape; a matrix is not its entries
    twin = _dense_shape(ring)
    assert twin is not shape and twin == shape
    for (a, _), (b, _) in zip(mats, mats[1:]):
        twin_a = BlockMatrix.build(twin, a.entries)
        assert twin_a == a and a == twin_a and hash(twin_a) == hash(a)
        assert twin_a * b == a * b and a * BlockMatrix.build(twin, b.entries) == a * b
        assert (a == a.entries) is False and (a == None) is False and a != 0  # noqa: E711
    # one unit times one unit whose coefficients multiply to zero
    for left, right in ZERO_PRODUCTS.get(ring, ()):
        for unit_a, unit_b in (((0, 0, 1, 2), (0, 1, 0, 4)), ((1, 2, 0, -1), (1, 0, 2, 3))):
            items_a, dense_a = _unit_items(shape, unit_a, RingElement(ring, left))
            items_b, dense_b = _unit_items(shape, unit_b, RingElement(ring, right))
            a, b = BlockMatrix.build(shape, items_a), BlockMatrix.build(shape, items_b)
            product = a * b
            dense = DenseBlockMatrix.build(shape, dense_a) * DenseBlockMatrix.build(shape, dense_b)
            _assert_matches_dense(product, dense)
            assert product.entries == () and product == zero and hash(product) == hash(zero)


def test_build_raises_on_blocks_and_keys_before_cells_outside_their_block():
    shape = _dense_shape(Q)
    one = RingElement.one(Q)
    with pytest.raises(ValueError, match="group element index 6 out of range"):
        BlockMatrix.build(shape, [((0, 5, 0, 0), one), ((4, 0, 0, 6), one)])
    with pytest.raises(ValueError, match=r"entry \(0,2\) outside block of size 2"):
        BlockMatrix.build(shape, [((4, 0, 3, 0), one), ((0, 0, 2, 0), one)])
    # a block index outside the shape is not read modulo the block count
    for bi in (-1, 5):
        with pytest.raises(ValueError, match=f"block index {bi} out of range"):
            BlockMatrix.build(shape, [((bi, 0, 0, 0), one)])
    # a key is checked on a zero coefficient too, as the cell element was built first
    with pytest.raises(ValueError, match="group element index -1 out of range"):
        BlockMatrix.build(shape, [((0, 0, 0, -1), RingElement.zero(Q))])
    assert BlockMatrix.build(shape, [((1, 0, 0, -7), one)]).entry(1, 0, 0) == \
        GroupAlgebraElement.delta(IntegerGroup(), Q, -7)
