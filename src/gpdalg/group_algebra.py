"""Isotropy groups and the block form they give.

Isotropy comes in two kinds: a finite group given by its multiplication
table, or the infinite cyclic group, whose group algebra over a ring R
is the Laurent polynomial ring R[x, x^-1].  A BlockShape lists one
block M_size(R[G]) per orbit; it is all the verdict engine reads.  An
element of a block is addressed by its matrix units (block, row, col,
key), key a group element index, or a Laurent exponent on an infinite
cyclic block: the isomorphism and relation checks compare those index
tuples and never multiply ring elements.

Associativity is proved by Light's test on a generating set
(certify_associativity), which the groupoid and inverse semigroup
validators share.  No group table is verified here: an isotropy group
of a validated groupoid is read off validate's proof
(groupoid.orbit_layout), and the standard groups of constructions are
built with their identity and inverses known.
"""
from __future__ import annotations

from itertools import chain
from operator import itemgetter

from .rings import RingDescriptor, render_ring_descriptor
from .value import Value


class FiniteGroupTable(Value):
    """A finite group on indices 0..size-1, its identity, inverses and
    name given with its table; the builders guarantee the axioms."""

    __slots__ = ("size", "table", "identity", "inverse", "name")  # table[i][j] = index of i*j

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
    arrow is a generator.  Generators are picked greedily, a cycle
    through each orbit first and then every arrow in arrow order
    (associativity_generators): an arrow becomes one when the
    left-nested composites of the generators before it do not reach
    it.  With generators indexed by codomain, the closure composes each
    composable (arrow, generator) pair at most once, and the check
    reads a subset of the composable triples, comparing for each
    generator a and each x the row of x a at every y with the row of x
    at every a y.  gens, when given, must be associativity_generators
    of the same table.  True proves associativity; False means some
    triple through a generator fails."""
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
    every arrow is a left-nested composite g1 g2 ... gk of them.

    An arrow becomes a generator when the left-nested composites of the
    generators picked before it do not reach it.  A cycle through each
    orbit is offered first: from each object its first arrow to the
    least larger object it reaches, and from the largest object its
    first arrow back to the least.  Then every arrow is offered in arrow
    order.  On a groupoid the closure of an orbit's first generators is
    a subgroupoid on the whole orbit, and each later generator strictly
    enlarges its isotropy, so an orbit of n objects with isotropy G
    holds at most n + Omega(|G|) generators, Omega counting prime
    factors with multiplicity.  Arrows of different orbits never
    compose, and the cycle of a one-object orbit is its first arrow, so
    a table with one object, or a discrete one, keeps the generators of
    arrow order."""
    step: list = [None] * object_count  # object -> its cycle arrow
    rank = [2 * object_count] * object_count  # object -> rank of its cycle arrow's cod
    for a, (x, y) in enumerate(zip(dom, cod)):
        k = y if y > x else y + object_count  # larger objects first, then the least
        if k < rank[x]:
            step[x], rank[x] = a, k
    gens: list = []
    gens_into: list = [[] for _ in range(object_count)]  # object -> generators with that cod
    done: list = [[] for _ in range(object_count)]       # object -> closed arrows with that dom
    reached = [False] * len(dom)
    for a in chain([a for a in step if a is not None], range(len(dom))):
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
    gens.sort()
    return gens


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
