"""Group algebras over exact rings, and block matrices over them.

Isotropy comes in two kinds: a finite group given by its multiplication
table, or the infinite cyclic group.  A group algebra element is a
finitely supported map from group elements to ring coefficients.  Over
the infinite cyclic group that map is keyed by integer exponents, i.e.
the element is stored exactly as a Laurent polynomial over the ring.
"""
from __future__ import annotations

from operator import itemgetter

from .errors import InternalCheckError, RingMismatchError
from .rings import (
    RingDescriptor,
    RingElement,
    render_ring_descriptor,
    sum_like_terms,
)
from .value import Value


class FiniteGroupTable(Value):
    """A finite group on indices 0..size-1 with a verified table."""

    __slots__ = ("size", "table", "identity", "inverse", "name")  # table[i][j] = index of i*j

    @staticmethod
    def from_table(rows) -> "FiniteGroupTable":
        """Build from a full multiplication table, verifying the group
        axioms rather than assuming them (associativity by
        associativity_failure); _classify_group names the group."""
        n = len(rows)
        table = square_table(rows, n)
        identity = next(
            (e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n))), None)
        if identity is None:
            raise ValueError("no identity element")
        inverse = []
        for x in range(n):
            invs = [y for y in range(n) if table[x][y] == identity and table[y][x] == identity]
            if len(invs) != 1:
                raise ValueError(f"element {x} lacks a unique inverse")
            inverse.append(invs[0])
        bad = associativity_failure(table)
        if bad is not None:
            raise ValueError("associativity fails at (%d,%d,%d)" % bad)
        return FiniteGroupTable(n, table, identity, tuple(inverse), _classify_group(table, identity))

    @property
    def is_trivial(self) -> bool:
        return self.size == 1


def certify_associativity(dom, cod, rows, object_count: int, gens=None) -> bool:
    """Light's associativity test on a generating set (Clifford and
    Preston, The Algebraic Theory of Semigroups I, 1.2).

    Arrow a runs dom[a] -> cod[a]; rows[f][g] must be f after g for
    every composable pair (dom[f] == cod[g]), with the composite
    running dom[g] -> cod[f].  Then the arrows m with (x m) y = x (m y)
    for all composable x, y are closed under composition, since for
    such a and b

        (x (a b)) y = ((x a) b) y = (x a) (b y) = x (a (b y)) = x ((a b) y)

    using the law for a, b, a and b in turn.  So associativity holds on
    every composable triple once it holds on the triples whose middle
    arrow is a generator.  Generators are picked greedily in arrow
    order: an arrow becomes one when the left-nested composites of the
    generators before it do not reach it.  With generators indexed by
    codomain, the closure composes each composable (arrow, generator)
    pair at most once, and the check reads a subset of the composable
    triples, comparing for each generator a and each x the row of x a
    at every y with the row of x at every a y.  gens, when given, must
    be associativity_generators of the same table.  True proves
    associativity; False means some triple through a generator fails."""
    if gens is None:
        gens = associativity_generators(dom, cod, rows, object_count)
    outof: list = [[] for _ in range(object_count)]  # object -> arrows with that dom
    into: list = [[] for _ in range(object_count)]   # object -> arrows with that cod
    for a in range(len(dom)):
        outof[dom[a]].append(a)
        into[cod[a]].append(a)
    for a in gens:
        ys = into[dom[a]]
        if not ys:
            continue
        row_a = rows[a]
        left = itemgetter(*ys)                       # (x a) y for every y
        right = itemgetter(*[row_a[y] for y in ys])  # x (a y) for every y
        for x in outof[cod[a]]:
            row_x = rows[x]
            if left(rows[row_x[a]]) != right(row_x):
                return False
    return True


def associativity_generators(dom, cod, rows, object_count: int) -> list:
    """The generators certify_associativity checks, in arrow order:
    every arrow is a left-nested composite g1 g2 ... gk of them."""
    gens: list = []
    gens_into: list = [[] for _ in range(object_count)]  # object -> generators with that cod
    done: list = [[] for _ in range(object_count)]       # object -> closed arrows with that dom
    reached = [False] * len(dom)
    for a in range(len(dom)):
        if reached[a]:
            continue
        gens.append(a)
        gens_into[cod[a]].append(a)
        reached[a] = True
        fresh = [a]
        # every closed arrow meets the new generator once here; fresh
        # arrows meet all generators once, when they close
        for r in done[cod[a]]:
            c = rows[r][a]
            if not reached[c]:
                reached[c] = True
                fresh.append(c)
        while fresh:
            r = fresh.pop()
            done[dom[r]].append(r)
            for s in gens_into[dom[r]]:
                c = rows[r][s]
                if not reached[c]:
                    reached[c] = True
                    fresh.append(c)
    return gens


def square_table(rows, n: int) -> tuple:
    """rows as a tuple of n tuples of entries in range(n), or ValueError."""
    table = tuple(tuple(r) for r in rows)
    if len(table) != n or any(len(r) != n for r in table):
        raise ValueError("multiplication table is not square")
    for r in table:
        for v in r:
            if not 0 <= v < n:
                raise ValueError(f"table entry {v} out of range")
    return table


def associativity_failure(table):
    """The first triple (a, b, c) in lexicographic order with (a b) c !=
    a (b c) in the total table, or None.  The ordered scan runs only when
    the certificate, on the table as one object, fails."""
    n = len(table)
    one_object = (0,) * n
    if certify_associativity(one_object, one_object, table, 1):
        return None
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return a, b, c
    raise InternalCheckError("the associativity certificate failed on an associative table")


def _element_order(table, identity, x) -> int:
    k, y = 1, x
    while y != identity:
        y = table[y][x]
        k += 1
    return k


def _classify_group(table, identity) -> str:
    """Readable name for small groups; safe fallback otherwise."""
    n = len(table)
    if n == 1:
        return "1"
    if any(_element_order(table, identity, x) == n for x in range(n)):
        return f"Z/{n}"
    if n == 4:
        return "Z/2xZ/2"
    if n == 6:
        return "S3"
    return f"G{n}"


class IntegerGroup(Value):
    """The infinite cyclic group.  Group algebra = Laurent polynomials."""

    __slots__ = ()

    def __repr__(self):
        return "ZZ"


def entry_ring_rendering(group, ring: RingDescriptor) -> str:
    """How one matrix entry's ring prints inside a shape string."""
    base = render_ring_descriptor(ring)
    if isinstance(group, IntegerGroup):
        return f"Laurent({base})"
    if group.is_trivial:
        return base
    return f"{base}[{group.name}]"


class GroupAlgebraElement(Value):
    """Finitely supported coefficients over a group.

    coeffs maps group element index (finite case) or integer exponent
    (infinite cyclic case) to a nonzero RingElement; stored as a sorted
    tuple so equality and hashing are structural.
    """

    __slots__ = ("group", "ring", "coeffs")

    def __init__(self, group, ring: RingDescriptor, coeffs: tuple):
        self.group = group
        self.ring = ring
        self.coeffs = coeffs

    @staticmethod
    def make(group, ring, items) -> "GroupAlgebraElement":
        return GroupAlgebraElement(group, ring, sum_like_terms(items))

    @staticmethod
    def zero(group, ring) -> "GroupAlgebraElement":
        return GroupAlgebraElement(group, ring, ())

    @staticmethod
    def unit(group, ring) -> "GroupAlgebraElement":
        return GroupAlgebraElement.delta(group, ring, _identity_key(group))

    @staticmethod
    def delta(group, ring, key, coeff: RingElement | None = None) -> "GroupAlgebraElement":
        if coeff is None:
            coeff = RingElement.one(ring)
        if isinstance(group, FiniteGroupTable) and not 0 <= key < group.size:
            raise ValueError(f"group element index {key} out of range")
        return GroupAlgebraElement(group, ring, () if coeff.is_zero else ((key, coeff),))

    def _check(self, other: "GroupAlgebraElement"):
        if self.group != other.group or self.ring != other.ring:
            raise RingMismatchError("group algebra mismatch")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        self._check(other)
        return GroupAlgebraElement.make(self.group, self.ring, self.coeffs + other.coeffs)

    def __neg__(self):
        return GroupAlgebraElement(
            self.group, self.ring, tuple((k, -c) for k, c in self.coeffs)
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return group_algebra_mul(self, other)

    def __str__(self):
        if not self.coeffs:
            return "0"
        if isinstance(self.group, IntegerGroup):
            parts = []
            for e, c in self.coeffs:
                x = "1" if e == 0 else ("x" if e == 1 else f"x^{e}")
                parts.append(x if (str(c) == "1" and e != 0) else (str(c) if e == 0 else f"{c}*{x}"))
            return " + ".join(parts)
        return " + ".join(f"{c}*g{k}" for k, c in self.coeffs)


def _identity_key(group):
    if isinstance(group, IntegerGroup):
        return 0
    return group.identity


def group_algebra_mul(a: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    """Convolution over the group.  For the infinite cyclic group this
    is literally Laurent multiplication: exponents add."""
    a._check(b)
    group = a.group
    items = []
    if isinstance(group, IntegerGroup):
        for e1, c1 in a.coeffs:
            for e2, c2 in b.coeffs:
                items.append((e1 + e2, c1 * c2))
    else:
        for g1, c1 in a.coeffs:
            for g2, c2 in b.coeffs:
                items.append((group.table[g1][g2], c1 * c2))
    return GroupAlgebraElement.make(group, a.ring, items)


# ---------------------------------------------------------------------------
# block matrices


class BlockShape(Value):
    """The block form of a groupoid algebra: per orbit, one diagonal
    block M_size(ring[isotropy]), plus the ring."""

    __slots__ = ("ring", "blocks")  # blocks: tuple of (size, FiniteGroupTable | IntegerGroup)

    @property
    def dimension(self):
        """Sum of size^2 |G| over the blocks, the arrow count, or None
        when some block has infinite cyclic isotropy."""
        if any(isinstance(group, IntegerGroup) for _, group in self.blocks):
            return None
        return sum(size * size * group.size for size, group in self.blocks)

    def render(self) -> str:
        return " x ".join(
            f"M_{size}({entry_ring_rendering(group, self.ring)})"
            for size, group in self.blocks
        )


class BlockMatrix(Value):
    """Block-diagonal matrix with group algebra entries, stored over the
    blocks it touches: entries holds (block, cells) in block order for
    each block with a nonzero entry, cells its sorted ((row, col),
    nonzero GroupAlgebraElement) pairs.  An empty block is absent, so an
    operation costs the entries it reads, not the number of blocks."""

    __slots__ = ("shape", "entries")

    def __init__(self, shape: BlockShape, entries: tuple):
        self.shape = shape
        self.entries = entries  # sorted tuple of (block, cells), touched blocks only

    @staticmethod
    def build(shape: BlockShape, items_per_block) -> "BlockMatrix":
        """The sum of the ((row, col), element) items in the dict block -> items."""
        blocks = []
        for bi, items in sorted(items_per_block.items()):
            size = shape.blocks[bi][0]
            for (r, c), _ in items:
                if not 0 <= r < size or not 0 <= c < size:
                    raise ValueError(f"entry ({r},{c}) outside block of size {size}")
            cells = sum_like_terms(items)
            if cells:
                blocks.append((bi, cells))
        return BlockMatrix(shape, tuple(blocks))

    @staticmethod
    def zero(shape: BlockShape) -> "BlockMatrix":
        return BlockMatrix(shape, ())

    @staticmethod
    def identity(shape: BlockShape) -> "BlockMatrix":
        items = {}
        for bi, (size, group) in enumerate(shape.blocks):
            unit = GroupAlgebraElement.unit(group, shape.ring)
            items[bi] = [((i, i), unit) for i in range(size)]
        return BlockMatrix.build(shape, items)

    @staticmethod
    def matrix_unit(shape, block_index, row, col, key=None, coeff=None) -> "BlockMatrix":
        """coeff * (group element) * E_{row,col} inside one block."""
        size, group = shape.blocks[block_index]
        if key is None:
            key = _identity_key(group)
        val = GroupAlgebraElement.delta(group, shape.ring, key, coeff)
        return BlockMatrix.build(shape, {block_index: [((row, col), val)]})

    def _check(self, other: "BlockMatrix"):
        if self.shape != other.shape:
            raise RingMismatchError("block shape mismatch")

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other):
        self._check(other)
        items = dict(self.entries)
        for bi, cells in other.entries:
            items[bi] = items[bi] + cells if bi in items else cells
        return BlockMatrix.build(self.shape, items)

    def __neg__(self):
        return BlockMatrix(
            self.shape,
            tuple((bi, tuple((rc, -v) for rc, v in cells)) for bi, cells in self.entries),
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        right = dict(other.entries)
        items = {}
        for bi, cells in self.entries:
            if bi not in right:
                continue
            by_row: dict = {}
            for (r, k), v in right[bi]:
                by_row.setdefault(r, []).append((k, v))
            items[bi] = [((r, c), group_algebra_mul(v, w))
                         for (r, k), v in cells for c, w in by_row.get(k, ())]
        return BlockMatrix.build(self.shape, items)

    def entry(self, block_index, row, col) -> GroupAlgebraElement:
        size, group = self.shape.blocks[block_index]
        for rc, v in dict(self.entries).get(block_index, ()):
            if rc == (row, col):
                return v
        return GroupAlgebraElement.zero(group, self.shape.ring)

    def __str__(self):
        """Every block of the shape, the empty ones included."""
        present = dict(self.entries)
        parts = []
        for bi, (size, _) in enumerate(self.shape.blocks):
            cells = ", ".join(f"({r},{c}): {v}" for (r, c), v in present.get(bi, ()))
            parts.append(f"block {bi} [{size}x{size}]: {{{cells}}}")
        return "; ".join(parts)


class NotAnIndexMap(Exception):
    """A sum of index maps whose rows overlap: the block matrix sum has
    two entries, or a coefficient other than one, in some row."""


class IndexMap(Value):
    """A block matrix each of whose nonzero entries is the ring's one
    times a single group element, at most one per row, read as the
    partial map (block, row) -> (col, key).

    Over one shape, two maps are equal exactly when their block
    matrices are, a product composes by row lookup with the keys
    multiplied in the block's group, and a sum of maps on disjoint rows
    is their union; each is the block matrix operation, since one times
    one is one and nothing cancels."""

    __slots__ = ("shape", "rows")

    def __init__(self, shape: BlockShape, rows: dict):
        self.shape = shape
        self.rows = rows  # (block, row) -> (col, key); never mutated after construction

    @staticmethod
    def read(m: BlockMatrix) -> "IndexMap | None":
        """m as an index map, or None when m is not of that form.  Reads
        the blocks m touches only."""
        ring = m.shape.ring
        one = RingElement.one(ring)
        rows = {}
        for bi, cells in m.entries:
            group = m.shape.blocks[bi][1]
            for (row, col), val in cells:
                if len(val.coeffs) != 1 or (bi, row) in rows:
                    return None
                if not (val.group is group or val.group == group):
                    return None
                if not (val.ring is ring or val.ring == ring):
                    return None
                (key, coeff), = val.coeffs
                if coeff != one:
                    return None
                rows[bi, row] = (col, key)
        return IndexMap(m.shape, rows)

    @staticmethod
    def unit(shape: BlockShape, block_index, row, col) -> "IndexMap":
        """The matrix unit E_{row,col} of one block, at the identity."""
        key = _identity_key(shape.blocks[block_index][1])
        return IndexMap(shape, {(block_index, row): (col, key)})

    def _check(self, other: "IndexMap"):
        if self.shape is not other.shape and self.shape != other.shape:
            raise RingMismatchError("block shape mismatch")

    def __mul__(self, other: "IndexMap") -> "IndexMap":
        self._check(other)
        blocks = self.shape.blocks
        out = {}
        for (bi, row), (mid, a) in self.rows.items():
            hit = other.rows.get((bi, mid))
            if hit is not None:
                group = blocks[bi][1]
                key = a + hit[1] if isinstance(group, IntegerGroup) else group.table[a][hit[1]]
                out[bi, row] = (hit[0], key)
        return IndexMap(self.shape, out)

    def __add__(self, other: "IndexMap") -> "IndexMap":
        self._check(other)
        if not self.rows.keys().isdisjoint(other.rows):
            raise NotAnIndexMap("the summands share a row")
        return IndexMap(self.shape, {**self.rows, **other.rows})

    def entry(self, block_index, row, col):
        """The key at (row, col) of one block, or None where it is zero."""
        found = self.rows.get((block_index, row))
        return found[1] if found is not None and found[0] == col else None
