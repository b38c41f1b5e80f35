"""Isotropy groups and the block form they give.

Isotropy comes in two kinds: a finite group given by its multiplication
table, or the infinite cyclic group, whose group algebra over a ring R
is the Laurent polynomial ring R[x, x^-1].  A BlockShape lists one
block M_size(R[G]) per orbit; it is all the verdict engine reads.  An
element of a block is addressed by its matrix units (block, row, col,
key), key a group element index, or a Laurent exponent on an infinite
cyclic block: the isomorphism and relation checks compare those index
tuples and never multiply ring elements.

A raw table is verified as a group by FiniteGroupTable.from_table,
associativity by Light's test on a generating set
(certify_associativity), which the groupoid and inverse semigroup
validators share; an isotropy group of a validated groupoid is read off
validate's proof instead (groupoid.orbit_layout).
"""
from __future__ import annotations

from operator import itemgetter

from .errors import InternalCheckError
from .rings import RingDescriptor, render_ring_descriptor
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
