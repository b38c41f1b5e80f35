"""Group algebras over exact rings, and block matrices over them.

Isotropy comes in two kinds: a finite group given by its multiplication
table, or the infinite cyclic group.  A group algebra element is a
finitely supported map from group elements to ring coefficients.  Over
the infinite cyclic group that map is keyed by integer exponents, i.e.
the element is stored exactly as a Laurent polynomial over the ring.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import RingMismatchError
from .rings import (
    Laurent,
    RingDescriptor,
    RingElement,
    render_ring_descriptor,
)


@dataclass(frozen=True)
class FiniteGroupTable:
    """A finite group on indices 0..size-1 with a verified table."""

    size: int
    table: tuple  # table[i][j] = index of product i*j
    identity: int
    inverse: tuple
    name: str

    @staticmethod
    def from_table(rows, name: str | None = None) -> "FiniteGroupTable":
        """Build from a full multiplication table, verifying the group
        axioms rather than assuming them."""
        n = len(rows)
        table = tuple(tuple(r) for r in rows)
        if any(len(r) != n for r in table):
            raise ValueError("multiplication table is not square")
        for r in table:
            for v in r:
                if not 0 <= v < n:
                    raise ValueError(f"table entry {v} out of range")
        identity = None
        for e in range(n):
            if all(table[e][x] == x and table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError("no identity element")
        inverse = []
        for x in range(n):
            invs = [y for y in range(n) if table[x][y] == identity and table[y][x] == identity]
            if len(invs) != 1:
                raise ValueError(f"element {x} lacks a unique inverse")
            inverse.append(invs[0])
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if table[table[a][b]][c] != table[a][table[b][c]]:
                        raise ValueError(f"associativity fails at ({a},{b},{c})")
        if name is None:
            name = _classify_group(table, identity)
        return FiniteGroupTable(n, table, identity, tuple(inverse), name)

    @property
    def is_trivial(self) -> bool:
        return self.size == 1


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


@dataclass(frozen=True)
class IntegerGroup:
    """The infinite cyclic group.  Group algebra = Laurent polynomials."""

    def __repr__(self):
        return "ZZ"


IsotropyDescriptor = "FiniteGroupTable | IntegerGroup"


def entry_ring_rendering(group, ring: RingDescriptor) -> str:
    """How one matrix entry's ring prints inside a shape string."""
    base = render_ring_descriptor(ring)
    if isinstance(group, IntegerGroup):
        return f"Laurent({base})"
    if group.is_trivial:
        return base
    return f"{base}[{group.name}]"


@dataclass(frozen=True)
class GroupAlgebraElement:
    """Finitely supported coefficients over a group.

    coeffs maps group element index (finite case) or integer exponent
    (infinite cyclic case) to a nonzero RingElement; stored as a sorted
    tuple so equality and hashing are structural.
    """

    group: object
    ring: RingDescriptor
    coeffs: tuple

    @staticmethod
    def make(group, ring, items) -> "GroupAlgebraElement":
        acc = {}
        for k, c in items:
            if k in acc:
                acc[k] = acc[k] + c
            else:
                acc[k] = c
        cleaned = tuple(sorted((k, c) for k, c in acc.items() if not c.is_zero))
        return GroupAlgebraElement(group, ring, cleaned)

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
        return GroupAlgebraElement.make(group, ring, [(key, coeff)])

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


def as_laurent_element(a: GroupAlgebraElement) -> RingElement:
    """View an infinite-cyclic group algebra element as a RingElement of
    Laurent(ring).  Only defined over base rings that Laurent accepts."""
    if not isinstance(a.group, IntegerGroup):
        raise ValueError("only infinite cyclic isotropy converts to a Laurent element")
    ring = Laurent(a.ring)
    return RingElement(ring, tuple((e, c.value) for e, c in a.coeffs))


# ---------------------------------------------------------------------------
# block matrices


@dataclass(frozen=True)
class BlockShape:
    """Sizes and isotropy of each diagonal block, plus the ring."""

    ring: RingDescriptor
    blocks: tuple  # tuple of (size, group descriptor)

    def render(self) -> str:
        return " x ".join(
            f"M_{size}({entry_ring_rendering(group, self.ring)})"
            for size, group in self.blocks
        )


@dataclass(frozen=True)
class BlockMatrix:
    """Block-diagonal matrix with group algebra entries, stored sparsely:
    entries[i] maps (row, col) to a nonzero GroupAlgebraElement."""

    shape: BlockShape
    entries: tuple  # per block: sorted tuple of ((row, col), element)

    @staticmethod
    def build(shape: BlockShape, items_per_block) -> "BlockMatrix":
        blocks = []
        for bi, (size, group) in enumerate(shape.blocks):
            items = items_per_block[bi] if bi < len(items_per_block) else ()
            if not items:
                blocks.append(())
                continue
            acc: dict = {}
            for (r, c), val in items:
                if not 0 <= r < size or not 0 <= c < size:
                    raise ValueError(f"entry ({r},{c}) outside block of size {size}")
                if (r, c) in acc:
                    acc[(r, c)] = acc[(r, c)] + val
                else:
                    acc[(r, c)] = val
            blocks.append(tuple(sorted((rc, v) for rc, v in acc.items() if not v.is_zero)))
        return BlockMatrix(shape, tuple(blocks))

    @staticmethod
    def zero(shape: BlockShape) -> "BlockMatrix":
        return BlockMatrix(shape, tuple(() for _ in shape.blocks))

    @staticmethod
    def identity(shape: BlockShape) -> "BlockMatrix":
        items = []
        for size, group in shape.blocks:
            unit = GroupAlgebraElement.unit(group, shape.ring)
            items.append([((i, i), unit) for i in range(size)])
        return BlockMatrix.build(shape, items)

    @staticmethod
    def matrix_unit(shape, block_index, row, col, key=None, coeff=None) -> "BlockMatrix":
        """coeff * (group element) * E_{row,col} inside one block."""
        size, group = shape.blocks[block_index]
        if key is None:
            key = _identity_key(group)
        val = GroupAlgebraElement.delta(group, shape.ring, key, coeff)
        items = [[] for _ in shape.blocks]
        items[block_index] = [((row, col), val)]
        return BlockMatrix.build(shape, items)

    def _check(self, other: "BlockMatrix"):
        if self.shape != other.shape:
            raise RingMismatchError("block shape mismatch")

    @property
    def is_zero(self) -> bool:
        return all(not b for b in self.entries)

    def __add__(self, other):
        self._check(other)
        items = []
        for b1, b2 in zip(self.entries, other.entries):
            items.append(list(b1) + list(b2))
        return BlockMatrix.build(self.shape, items)

    def __neg__(self):
        return BlockMatrix(
            self.shape,
            tuple(tuple((rc, -v) for rc, v in b) for b in self.entries),
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        items = []
        for b1, b2 in zip(self.entries, other.entries):
            by_row: dict = {}
            for (r, k), v in b2:
                by_row.setdefault(r, []).append((k, v))
            out = []
            for (r, k), v in b1:
                for c, w in by_row.get(k, ()):
                    out.append(((r, c), group_algebra_mul(v, w)))
            items.append(out)
        return BlockMatrix.build(self.shape, items)

    def entry(self, block_index, row, col) -> GroupAlgebraElement:
        size, group = self.shape.blocks[block_index]
        for (r, c), v in self.entries[block_index]:
            if (r, c) == (row, col):
                return v
        return GroupAlgebraElement.zero(group, self.shape.ring)

    def __str__(self):
        parts = []
        for bi, block in enumerate(self.entries):
            size, group = self.shape.blocks[bi]
            cells = ", ".join(f"({r},{c}): {v}" for (r, c), v in block)
            parts.append(f"block {bi} [{size}x{size}]: {{{cells}}}")
        return "; ".join(parts)


class NotAnIndexMap(Exception):
    """A sum of index maps whose rows overlap: the block matrix sum has
    two entries, or a coefficient other than one, in some row."""


@dataclass(frozen=True)
class IndexMap:
    """A block matrix each of whose nonzero entries is the ring's one
    times a single group element, at most one per row, read as the
    partial map (block, row) -> (col, key).

    Over one shape, two maps are equal exactly when their block
    matrices are, a product composes by row lookup with the keys
    multiplied in the block's group, and a sum of maps on disjoint rows
    is their union; each is the block matrix operation, since one times
    one is one and nothing cancels."""

    shape: BlockShape
    rows: dict  # (block, row) -> (col, key); never mutated after construction

    @staticmethod
    def read(m: BlockMatrix) -> "IndexMap | None":
        """m as an index map, or None when m is not of that form."""
        ring = m.shape.ring
        one = RingElement.one(ring)
        rows = {}
        for bi, block in enumerate(m.entries):
            group = m.shape.blocks[bi][1] if block else None
            for (row, col), val in block:
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
