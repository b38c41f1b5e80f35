"""Group algebras over exact rings, and block matrices over them.

Isotropy comes in two kinds: a finite group given by its multiplication
table, or the infinite cyclic group.  A group algebra element is a
finitely supported map from group elements to ring coefficients.  Over
the infinite cyclic group that map is keyed by integer exponents, i.e.
the element is stored exactly as a Laurent polynomial over the ring.

A block matrix over such entries is stored by matrix unit: one
coefficient per (block, row, col, group element) it touches, so sums,
products and comparisons read ring coefficients and group table
entries directly, and entry() rebuilds one cell's group algebra
element only when asked.
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

    __slots__ = ("ring", "blocks", "_one")  # blocks: tuple of (size, FiniteGroupTable | IntegerGroup)

    def __init__(self, ring: RingDescriptor, blocks: tuple):
        self.ring = ring
        self.blocks = blocks
        self._one = RingElement.one(ring)  # products read it without hashing the ring

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
    """Block-diagonal matrix with group algebra entries, stored as its
    matrix units: entries is the sorted tuple of ((block, row, col, key),
    nonzero RingElement) pairs, key a group element index of the
    block's isotropy (a Laurent exponent on an infinite cyclic block),
    the way AlgebraElement stores arrow coefficients.  An operation
    costs the units it reads, not the number of blocks or cells.

    Two matrices are equal when their shapes and entries are, compared
    as a Value compares its fields (each by identity before ==).  A
    product whose units meet at one unit stores that unit as it is,
    with no sort, unless its coefficient is zero (2 * 3 over Z/6); a
    coefficient that is the shape's one is kept without a zero test."""

    __slots__ = ("shape", "entries", "_rows")

    def __init__(self, shape: BlockShape, entries: tuple):
        self.shape = shape
        self.entries = entries  # sorted tuple of ((block, row, col, key), RingElement)
        self._rows = None       # row_index() memo

    @staticmethod
    def build(shape: BlockShape, items) -> "BlockMatrix":
        """The sum of the ((block, row, col, key), coefficient) items.  A
        block index outside the shape or a key outside a finite block's
        group raises ValueError first, then a row or column outside its
        block, the lowest such block first."""
        items = list(items)
        blocks = shape.blocks
        outside = None
        for (bi, row, col, key), _ in items:
            if not 0 <= bi < len(blocks):
                raise ValueError(f"block index {bi} out of range")
            size, group = blocks[bi]
            if isinstance(group, FiniteGroupTable) and not 0 <= key < group.size:
                raise ValueError(f"group element index {key} out of range")
            if not (0 <= row < size and 0 <= col < size) and (outside is None or bi < outside[0]):
                outside = (bi, row, col, size)
        if outside is not None:
            _, row, col, size = outside
            raise ValueError(f"entry ({row},{col}) outside block of size {size}")
        if len(items) == 1 and not items[0][1].is_zero:  # already its own sum
            return BlockMatrix(shape, tuple(items))
        return BlockMatrix(shape, sum_like_terms(items))

    @staticmethod
    def zero(shape: BlockShape) -> "BlockMatrix":
        return BlockMatrix(shape, ())

    @staticmethod
    def sum(shape: BlockShape, matrices) -> "BlockMatrix":
        """The sum of the matrices, each over shape, in one pass."""
        items: list = []
        for m in matrices:
            if m.shape is not shape and m.shape != shape:
                raise RingMismatchError("block shape mismatch")
            items.extend(m.entries)
        return BlockMatrix(shape, sum_like_terms(items))

    @staticmethod
    def identity(shape: BlockShape) -> "BlockMatrix":
        one = shape._one
        return BlockMatrix(shape, tuple(
            ((bi, i, i, _identity_key(group)), one)
            for bi, (size, group) in enumerate(shape.blocks) for i in range(size)))

    @staticmethod
    def matrix_unit(shape, block_index, row, col, key=None, coeff=None) -> "BlockMatrix":
        """coeff * (group element) * E_{row,col} inside one block."""
        if key is None:
            key = _identity_key(shape.blocks[block_index][1])
        if coeff is None:
            coeff = shape._one
        return BlockMatrix.build(shape, [((block_index, row, col, key), coeff)])

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def unit_index(self):
        """(block, row, col, key) when self is a single matrix unit with
        coefficient one, else None."""
        if len(self.entries) != 1:
            return None
        (unit, coeff), = self.entries
        one = self.shape._one
        return unit if coeff is one or coeff == one else None

    def row_index(self) -> dict:
        """(block, row) -> [(col, key, coefficient)] over the units in
        that row, in entry order; built once."""
        if self._rows is None:
            rows: dict = {}
            for (bi, row, col, key), c in self.entries:
                rows.setdefault((bi, row), []).append((col, key, c))
            self._rows = rows
        return self._rows

    def __add__(self, other):
        return BlockMatrix.sum(self.shape, (self, other))

    def __neg__(self):
        return BlockMatrix(self.shape, tuple((unit, -c) for unit, c in self.entries))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Each unit (b, r, m, k) of self meets the units (b, m, c, k') of
        the row m of other, giving (b, r, c, k k').  A coefficient that is
        the ring's one multiplies as itself, and a product of two ones
        needs no zero test unless it was summed."""
        shape = self.shape
        if other.shape is not shape and other.shape != shape:
            raise RingMismatchError("block shape mismatch")
        rows = other._rows
        if rows is None:
            rows = other.row_index()
        blocks = shape.blocks
        one = shape._one
        acc: dict = {}
        for (bi, row, mid, k), a in self.entries:
            hits = rows.get((bi, mid))
            if hits is None:
                continue
            group = blocks[bi][1]
            table = None if isinstance(group, IntegerGroup) else group.table
            for col, k2, b in hits:
                unit = (bi, row, col, k + k2 if table is None else table[k][k2])
                c = b if a is one else a if b is one else a * b
                acc[unit] = acc[unit] + c if unit in acc else c
        if len(acc) == 1:  # one unit: nothing to sort
            entries = tuple(acc.items())
            c = entries[0][1]
            return BlockMatrix(shape, entries if c is one or not c.is_zero else ())
        return BlockMatrix(shape, tuple(sorted(
            (unit, c) for unit, c in acc.items() if c is one or not c.is_zero)))

    def entry(self, block_index, row, col) -> GroupAlgebraElement:
        group = self.shape.blocks[block_index][1]
        return GroupAlgebraElement(group, self.shape.ring, tuple(
            (key, c) for at, key, c in self.row_index().get((block_index, row), ()) if at == col))

    def __str__(self):
        """Every block of the shape, the empty ones included."""
        cells: dict = {}  # block -> (row, col) -> [(key, coefficient)]
        for (bi, row, col, key), c in self.entries:
            cells.setdefault(bi, {}).setdefault((row, col), []).append((key, c))
        ring = self.shape.ring
        parts = []
        for bi, (size, group) in enumerate(self.shape.blocks):
            text = ", ".join(f"({r},{c}): {GroupAlgebraElement(group, ring, tuple(v))}"
                             for (r, c), v in cells.get(bi, {}).items())
            parts.append(f"block {bi} [{size}x{size}]: {{{text}}}")
        return "; ".join(parts)
