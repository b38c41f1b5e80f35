"""Builders for standard groupoids: one-object groups, pair groupoids,
products with a group, disjoint unions, and action groupoids.  These
feed tests and fixture generation; all outputs pass validate().
"""
from __future__ import annotations

from itertools import permutations

from .group_algebra import FiniteGroupTable, _classify_group
from .groupoid import FiniteGroupoid


def _group(rows, inverse) -> FiniteGroupTable:
    """The group of a multiplication table whose identity is element 0,
    inverse[i] the inverse of element i."""
    table = tuple(tuple(r) for r in rows)
    return FiniteGroupTable(len(table), table, 0, tuple(inverse), _classify_group(table, 0))


def cyclic_table(n: int) -> FiniteGroupTable:
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    return _group(rows, [-i % n for i in range(n)])


def symmetric_table(n: int) -> FiniteGroupTable:
    """Symmetric group on n letters via explicit permutation tuples; the
    identity permutation sorts first, so it is element 0."""
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    rows = []
    for p in elems:
        # (p*q)(x) = p(q(x))
        rows.append([index[tuple(p[q[x]] for x in range(n))] for q in elems])
    inverse = [index[tuple(sorted(range(n), key=p.__getitem__))] for p in elems]
    return _group(rows, inverse)


def klein_table() -> FiniteGroupTable:
    rows = [[i ^ j for j in range(4)] for i in range(4)]
    return _group(rows, range(4))


def group_groupoid(table: FiniteGroupTable, object_name: str = "pt") -> FiniteGroupoid:
    """One object, one arrow per group element."""
    names = [f"g{i}" for i in range(table.size)]
    comp = {}
    for i in range(table.size):
        for j in range(table.size):
            comp[(i, j)] = table.table[i][j]
    return FiniteGroupoid.make(
        [object_name],
        names,
        [0] * table.size,
        [0] * table.size,
        [table.identity],
        comp,
        list(table.inverse),
    )


def pair_groupoid(objects) -> FiniteGroupoid:
    """Exactly one arrow between every ordered pair of objects."""
    objects = list(objects)
    n = len(objects)
    names = []
    dom, cod = [], []
    idx = {}
    for y in range(n):
        for x in range(n):
            idx[(y, x)] = len(names)
            names.append(f"p_{objects[y]}_{objects[x]}")  # arrow x -> y
            dom.append(x)
            cod.append(y)
    comp = {}
    for z in range(n):
        for y in range(n):
            for x in range(n):
                comp[(idx[(z, y)], idx[(y, x)])] = idx[(z, x)]
    identity_of = [idx[(x, x)] for x in range(n)]
    inv = [0] * len(names)
    for (y, x), a in idx.items():
        inv[a] = idx[(x, y)]
    return FiniteGroupoid.make(objects, names, dom, cod, identity_of, comp, inv)


def product_with_group(g: FiniteGroupoid, table: FiniteGroupTable) -> FiniteGroupoid:
    """Componentwise product of a groupoid with a one-object group."""
    names = []
    dom, cod = [], []
    idx = {}
    for a in range(g.arrow_count):
        for k in range(table.size):
            idx[(a, k)] = len(names)
            names.append(f"{g.arrows[a]}@{k}")
            dom.append(g.dom[a])
            cod.append(g.cod[a])
    comp = {(idx[(f, k1)], idx[(h, k2)]): idx[(fh, k1k2)]
            for f, row in enumerate(g.rows) for h, fh in row.items()
            for k1, krow in enumerate(table.table) for k2, k1k2 in enumerate(krow)}
    identity_of = [
        idx[(e, table.identity)] if e is not None else None for e in g.identity_of
    ]
    inv = [0] * len(names)
    for (a, k), i in idx.items():
        inv[i] = idx[(g.inv[a], table.inverse[k])]
    return FiniteGroupoid.make(list(g.objects), names, dom, cod, identity_of, comp, inv)


def disjoint_union(g1: FiniteGroupoid, g2: FiniteGroupoid,
                   prefix1: str = "L.", prefix2: str = "R.") -> FiniteGroupoid:
    objects = [prefix1 + o for o in g1.objects] + [prefix2 + o for o in g2.objects]
    names = [prefix1 + a for a in g1.arrows] + [prefix2 + a for a in g2.arrows]
    no, na = len(g1.objects), len(g1.arrows)
    dom = list(g1.dom) + [x + no for x in g2.dom]
    cod = list(g1.cod) + [x + no for x in g2.cod]
    identity_of = [e for e in g1.identity_of] + [
        (e + na if e is not None else None) for e in g2.identity_of
    ]
    comp = {(f + s, h + s): fh + s for s, part in ((0, g1), (na, g2))
            for f, row in enumerate(part.rows) for h, fh in row.items()}
    inv = [e for e in g1.inv] + [(e + na if e is not None else None) for e in g2.inv]
    return FiniteGroupoid.make(objects, names, dom, cod, identity_of, comp, inv)


def _permutation_closure(generators, m):
    """Subgroup of Sym(m) generated by the given permutation tuples."""
    ident = tuple(range(m))
    group = {ident}
    frontier = [ident]
    gens = [tuple(p) for p in generators]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = tuple(p[q[x]] for x in range(m))
                if r not in group:
                    group.add(r)
                    nxt.append(r)
        frontier = nxt
    return sorted(group)


def action_groupoid(generators, m: int) -> FiniteGroupoid:
    """Groupoid of a permutation group acting on {0..m-1}: objects are
    points, arrows are (group element, point) with (s, x): x -> s(x)."""
    perms = _permutation_closure(generators, m)
    pindex = {p: i for i, p in enumerate(perms)}
    objects = [f"x{j}" for j in range(m)]
    names = []
    dom, cod = [], []
    idx = {}
    for i, p in enumerate(perms):
        for x in range(m):
            idx[(i, x)] = len(names)
            names.append(f"s{i}_x{x}")
            dom.append(x)
            cod.append(p[x])
    comp = {}
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            pq = tuple(p[q[x]] for x in range(m))
            k = pindex[pq]
            for x in range(m):
                # (p, q(x)) after (q, x) = (pq, x)
                comp[(idx[(i, q[x])], idx[(j, x)])] = idx[(k, x)]
    ident = pindex[tuple(range(m))]
    identity_of = [idx[(ident, x)] for x in range(m)]
    inv = [0] * len(names)
    for (i, x), a in idx.items():
        p = perms[i]
        pinv = tuple(sorted(range(m), key=lambda y: p[y]))
        inv[a] = idx[(pindex[pinv], p[x])]
    return FiniteGroupoid.make(objects, names, dom, cod, identity_of, comp, inv)
