"""Independent references for the test suite.

Each reference recomputes one claim the package makes, and the first
sentence of its docstring names that claim and the route it takes.
What stays here follows one rule:

- a reference stays when its route differs from the package's: a
  sweep, a full scan, a ring-level product, a matrix power, a dense
  elimination;
- where two references check one claim by one route, only one stays;
- a replay of code the package no longer runs (an old parser, the
  enumerating boundary-path route) stays only while no other test
  would catch what it catches, and its docstring says it is a replay.

The helpers without a `reference_` name (ring arithmetic, products
tables, path edits) serve the references and check no claim of their
own."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

import gpdalg.isg
from gpdalg import FiniteGroupoid, InverseSemigroup, VerificationReport, render_ring_descriptor
from gpdalg.algebra import _pull
from gpdalg.errors import InternalCheckError, OracleBudgetError, ParseError
from gpdalg.group_algebra import BlockShape, FiniteGroupTable, IntegerGroup, _classify_group
from gpdalg.groupoid import IsotropyGroup, Violation, orbits
from gpdalg.leavitt import (
    ExitWitness,
    GeneratorImages,
    Graph,
    Lasso,
    SinkPath,
    _canonical_cycle,
    block_shape,
    enumerate_cycles,
    generator_images,
    graph_groupoid,
)
from gpdalg.rings import (
    Q,
    GaloisField,
    Integers,
    Laurent,
    ModularIntegers,
    Product,
    Rationals,
    RingDescriptor,
)


def reference_axiom_violations(g: FiniteGroupoid) -> list:
    """validate's violation list, by a full scan: the same checks,
    violations and order, with associativity checked on every composable
    triple where validate certifies it on a generating set (the other
    passes replay validate's)."""
    out: list = []
    arrows = range(g.arrow_count)
    into: list = [[] for _ in g.objects]  # object -> arrows with that cod, ascending
    for a in arrows:
        into[g.cod[a]].append(a)

    def name(a):
        return g.arrows[a]

    for x, obj in enumerate(g.objects):
        e = g.identity_of[x]
        if e is None:
            out.append(Violation("identity-missing", (obj,), f"object '{obj}' has no identity arrow"))
            continue
        if g.dom[e] != x or g.cod[e] != x:
            out.append(Violation(
                "identity-span", (obj, name(e)),
                f"identity arrow '{name(e)}' of '{obj}' is not a loop at '{obj}'",
            ))

    for (f, h), k in g.comp:
        if g.dom[f] != g.cod[h]:
            out.append(Violation(
                "composition-domain", (name(f), name(h)),
                f"composition recorded for non-composable pair ({name(f)}, {name(h)})",
            ))
            continue
        if g.dom[k] != g.dom[h] or g.cod[k] != g.cod[f]:
            out.append(Violation(
                "composition-span", (name(f), name(h), name(k)),
                f"compose {name(f)} {name(h)} = {name(k)} breaks dom/cod coherence",
            ))

    for f in arrows:
        for h in into[g.dom[f]]:
            if g.compose(f, h) is None:
                out.append(Violation(
                    "composition-missing", (name(f), name(h)),
                    f"no composition declared for composable pair ({name(f)}, {name(h)})",
                ))

    for x in range(len(g.objects)):
        e = g.identity_of[x]
        if e is None:
            continue
        for f in arrows:
            if g.dom[f] == x:
                got = g.compose(f, e)
                if got is not None and got != f:
                    out.append(Violation(
                        "identity-law", (name(f), name(e)),
                        f"{name(f)} after {name(e)} is {name(got)}, expected {name(f)}",
                    ))
            if g.cod[f] == x:
                got = g.compose(e, f)
                if got is not None and got != f:
                    out.append(Violation(
                        "identity-law", (name(e), name(f)),
                        f"{name(e)} after {name(f)} is {name(got)}, expected {name(f)}",
                    ))

    for f in arrows:
        for h in into[g.dom[f]]:
            fh = g.compose(f, h)
            if fh is None:
                continue
            for k in into[g.dom[h]]:
                hk = g.compose(h, k)
                if hk is None:
                    continue
                left = g.compose(fh, k)
                right = g.compose(f, hk)
                if left is not None and right is not None and left != right:
                    out.append(Violation(
                        "associativity", (name(f), name(h), name(k)),
                        f"associativity fails on ({name(f)}, {name(h)}, {name(k)}): "
                        f"({name(f)}{name(h)}){name(k)} = {name(left)} but "
                        f"{name(f)}({name(h)}{name(k)}) = {name(right)}",
                    ))

    for f in arrows:
        fi = g.inv[f]
        if fi is None:
            out.append(Violation("inverse-missing", (name(f),), f"arrow '{name(f)}' has no inverse"))
            continue
        if g.dom[fi] != g.cod[f] or g.cod[fi] != g.dom[f]:
            out.append(Violation(
                "inverse-span", (name(f), name(fi)),
                f"inverse of '{name(f)}' has the wrong endpoints",
            ))
            continue
        e_dom = g.identity_of[g.dom[f]]
        e_cod = g.identity_of[g.cod[f]]
        if e_dom is not None and g.compose(fi, f) not in (None, e_dom):
            out.append(Violation(
                "inverse-law", (name(f),),
                f"'{name(fi)}' after '{name(f)}' is not the identity at dom",
            ))
        if e_cod is not None and g.compose(f, fi) not in (None, e_cod):
            out.append(Violation(
                "inverse-law", (name(f),),
                f"'{name(f)}' after '{name(fi)}' is not the identity at cod",
            ))
    return out


def reference_inverse_semigroup(elements, rows) -> InverseSemigroup:
    """InverseSemigroup.from_table's checks, by scanning every triple
    for associativity in order where the package certifies it on
    generators: the same checks, the same first failure.

    rows[i][j] is the index of the product elements[i] . elements[j].
    Raises ValueError naming a witness when associativity fails or
    when some element's pseudo-inverse is missing or not unique."""
    elements = tuple(elements)
    n = len(elements)
    if n == 0:
        raise ValueError("empty inverse semigroup")
    table = tuple(tuple(row) for row in rows)
    if len(table) != n or any(len(row) != n for row in table):
        raise ValueError("multiplication table is not square")
    for row in table:
        for v in row:
            if not 0 <= v < n:
                raise ValueError(f"table entry {v} out of range")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise ValueError(
                        f"associativity fails at "
                        f"({elements[i]}.{elements[j]}).{elements[k]} != "
                        f"{elements[i]}.({elements[j]}.{elements[k]})"
                    )
    star = []
    for i in range(n):
        pseudo = [
            t
            for t in range(n)
            if table[table[i][t]][i] == i and table[table[t][i]][t] == t
        ]
        if len(pseudo) != 1:
            shown = ", ".join(f"'{elements[t]}'" for t in pseudo[:4])
            raise ValueError(
                f"element '{elements[i]}' has {len(pseudo)} pseudo-inverses"
                f"{' (' + shown + ')' if pseudo else ''}; "
                f"not an inverse semigroup"
            )
        star.append(pseudo[0])
    return InverseSemigroup(elements, table, tuple(star))


def reference_check_unitriangular(s: InverseSemigroup, below) -> None:
    """isg._check_unitriangular replayed on the n x n order matrix
    below[t][x], so that reference_semigroup_algebra_iso raises what the
    package raises: the diagonal scanned first, then every pair (t, x)
    with x in element order and then t, each down-set counted along a
    column of below."""
    n = s.size
    names = s.elements
    for x in range(n):
        if not below[x][x]:
            raise InternalCheckError(
                f"natural partial order is not reflexive: {names[x]} <= {names[x]} fails")
    down = [sum(1 for t in range(n) if below[t][x]) for x in range(n)]  # #{t <= x}
    for x in range(n):
        for t in range(n):
            if t != x and below[t][x] and down[t] >= down[x]:
                raise InternalCheckError(
                    f"transition matrix of the natural partial order is not unitriangular: "
                    f"{names[t]} <= {names[x]} but #down({names[t]}) = {down[t]} "
                    f">= #down({names[x]}) = {down[x]}")


# ---------------------------------------------------------------------------
# ring-level arithmetic for the references (the package has none):
# coefficients are canonical payloads, and an element of a groupoid
# algebra, or a cell of a block, is the sorted tuple of its (basis key,
# nonzero coefficient) terms.  int_payload gives the image of an
# integer in a ring as its canonical payload:
#
#     Z          int
#     Q          Fraction (always reduced, positive denominator)
#     GF(p)      int residue in [0, p)
#     Z/n        int residue in [0, n)
#     Laurent    sorted tuple of (exponent, base payload), no zero terms
#     Product    tuple of factor payloads


def int_payload(ring: RingDescriptor, k: int):
    """Image of the integer k under the unique map Z -> ring."""
    if isinstance(ring, Integers):
        return k
    if isinstance(ring, Rationals):
        return Fraction(k)
    if isinstance(ring, GaloisField):
        return k % ring.p
    if isinstance(ring, ModularIntegers):
        return k % ring.n
    if isinstance(ring, Laurent):
        c = int_payload(ring.base, k)
        return () if _payload_is_zero(ring.base, c) else ((0, c),)
    if isinstance(ring, Product):
        return tuple(int_payload(f, k) for f in ring.factors)
    raise TypeError(f"not a ring descriptor: {ring!r}")


def _payload_is_zero(ring: RingDescriptor, a) -> bool:
    # payloads are canonical, so zero is the falsy one; a Product's
    # tuple of factor zeros is truthy, so its factors are tested apart
    if isinstance(ring, Product):
        return all(_payload_is_zero(f, x) for f, x in zip(ring.factors, a))
    return not a


def coeff_add(ring, a, b):
    if isinstance(ring, Laurent):
        return combine(ring.base, a + b)
    if isinstance(ring, Product):
        return tuple(coeff_add(f, x, y) for f, x, y in zip(ring.factors, a, b))
    return _residue(ring, a + b)


def coeff_mul(ring, a, b):
    if isinstance(ring, Laurent):
        return combine(ring.base, [(e1 + e2, coeff_mul(ring.base, c1, c2))
                                   for e1, c1 in a for e2, c2 in b])
    if isinstance(ring, Product):
        return tuple(coeff_mul(f, x, y) for f, x, y in zip(ring.factors, a, b))
    return _residue(ring, a * b)


def _residue(ring, x):
    if isinstance(ring, GaloisField):
        return x % ring.p
    if isinstance(ring, ModularIntegers):
        return x % ring.n
    return x


def combine(ring, terms) -> tuple:
    """The (key, coefficient) terms with the coefficients of equal keys
    summed and zero sums dropped, sorted by key."""
    acc: dict = {}
    for k, c in terms:
        acc[k] = coeff_add(ring, acc[k], c) if k in acc else c
    return tuple(sorted((k, c) for k, c in acc.items() if not _payload_is_zero(ring, c)))


@dataclass(frozen=True)
class DenseBlockMatrix:
    """A block matrix at ring level, multiplied by convolution in
    every cell where the package composes matrix-unit indices:
    blocks[i] is the sorted tuple of ((row, col), cell) for the nonzero
    cells of block i, one tuple per block of the shape, empty or not, a
    cell being a group algebra element (see combine); every operation
    walks every block, and exponents add on an infinite cyclic block."""

    shape: BlockShape
    blocks: tuple

    @staticmethod
    def build(shape: BlockShape, items_per_block) -> "DenseBlockMatrix":
        """items_per_block[i] holds the ((row, col), (key, coefficient))
        terms of block i; a list shorter than the shape leaves the blocks
        past its end empty."""
        blocks = []
        for bi, (size, _) in enumerate(shape.blocks):
            cells: dict = {}
            for (r, c), term in items_per_block[bi] if bi < len(items_per_block) else ():
                if not 0 <= r < size or not 0 <= c < size:
                    raise ValueError(f"entry ({r},{c}) outside block of size {size}")
                cells.setdefault((r, c), []).append(term)
            blocks.append(tuple(sorted(
                (rc, cell) for rc, terms in cells.items() if (cell := combine(shape.ring, terms)))))
        return DenseBlockMatrix(shape, tuple(blocks))

    @staticmethod
    def from_units(shape: BlockShape, units) -> "DenseBlockMatrix":
        """The sum of the (block, row, col, key) matrix units, each with
        coefficient one: a unit listed twice has coefficient 2."""
        one = int_payload(shape.ring, 1)
        items: list = [[] for _ in shape.blocks]
        for bi, r, c, k in units:
            items[bi].append(((r, c), (k, one)))
        return DenseBlockMatrix.build(shape, items)

    def __add__(self, other):
        return DenseBlockMatrix.build(self.shape, [
            [(rc, term) for rc, cell in b1 + b2 for term in cell]
            for b1, b2 in zip(self.blocks, other.blocks)])

    def __mul__(self, other):
        ring, items = self.shape.ring, []
        for (_, group), b1, b2 in zip(self.shape.blocks, self.blocks, other.blocks):
            by_row: dict = {}
            for (r, c), cell in b2:
                by_row.setdefault(r, []).append((c, cell))
            times = (lambda k1, k2: k1 + k2) if isinstance(group, IntegerGroup) else (
                lambda k1, k2, table=group.table: table[k1][k2])
            items.append([((r, c), (times(k1, k2), coeff_mul(ring, x, y)))
                          for (r, m), u in b1 for c, v in by_row.get(m, ())
                          for k1, x in u for k2, y in v])
        return DenseBlockMatrix.build(self.shape, items)

    def entry(self, block_index, row, col) -> tuple:
        return dict(self.blocks[block_index]).get((row, col), ())


def naive_convolution(g: FiniteGroupoid, ring, f1, f2) -> tuple:
    """The groupoid algebra's product, by the displayed formula

        (f1 * f2)(g) = sum over h with dom(h) = dom(g) of f1(g h^-1) f2(h)

    summed over every arrow g of the groupoid, not over support pairs."""
    c1 = dict(f1)
    items = []
    for a in range(g.arrow_count):
        for h, v2 in f2:
            if g.dom[h] == g.dom[a]:
                gh_inv = g.compose(a, g.inv[h])
                if gh_inv in c1:
                    items.append((a, coeff_mul(ring, c1[gh_inv], v2)))
    return combine(ring, items)


def reference_phi(d, f) -> DenseBlockMatrix:
    """phi at ring level: the arrow a goes to the matrix unit at
    arrow_position[a], the element f to the sum of its terms."""
    items: list = [[] for _ in d.shape.blocks]
    for a, c in f:
        bi, row, col, key = d.arrow_position[a]
        items[bi].append(((row, col), (key, c)))
    return DenseBlockMatrix.build(d.shape, items)


def reference_phi_inv(d, m: DenseBlockMatrix) -> tuple:
    """phi^-1 at ring level: each unit of m pulls back to the arrow
    conn_row iso[key] conn_col^-1."""
    return combine(d.ring, [(_pull(d, bi, row, col, key), c)
                            for bi, block in enumerate(m.blocks)
                            for (row, col), cell in block for key, c in cell])


def reference_semigroup_algebra_iso(s: InverseSemigroup, ring):
    """semigroup_algebra_iso's images and report, by multiplying
    the images as algebra elements through naive_convolution where the
    package counts arrows: image(x) is the sum of [t] over t <= x (see
    combine), and the unit is compared with the sum of the identity
    arrows.  Same budget, order checks, count and failure strings."""
    if s.size > gpdalg.isg.ISG_SIZE_LIMIT:
        raise OracleBudgetError(
            f"inverse semigroup has {s.size} elements; "
            f"the pairwise verification budget stops at {gpdalg.isg.ISG_SIZE_LIMIT}"
        )
    g = gpdalg.isg.underlying_groupoid(s)
    below = gpdalg.isg.natural_partial_order(s)
    one = int_payload(ring, 1)
    images = tuple(
        combine(ring, [(t, one) for t in range(s.size) if below[t][i]]) for i in range(s.size))
    reference_check_unitriangular(s, below)
    failures = [
        f"image({s.elements[i]}) * image({s.elements[j]}) != image({s.elements[s.mul(i, j)]})"
        for i in range(s.size) for j in range(s.size)
        if naive_convolution(g, ring, images[i], images[j]) != images[s.mul(i, j)]
    ]
    total = s.size * s.size
    unit = s.identity_element()
    if unit is not None:
        total += 1
        if images[unit] != combine(ring, [(a, one) for a in g.identity_arrows()]):
            failures.append("image of the identity element is not the unit")
    report = VerificationReport(
        f"semigroup algebra pairs over {render_ring_descriptor(ring)}",
        total,
        tuple(failures),
    )
    return images, report


def reference_verify_isomorphism(d) -> VerificationReport:
    """verify_isomorphism's report, by multiplying every arrow pair
    at ring level (naive_convolution, reference_phi and the
    DenseBlockMatrix product, phi recomputed for every operand) where
    the package compares matrix-unit indices on generator pairs.  Same
    checks, same counts and same failure strings."""
    g, ring, shape = d.groupoid, d.ring, d.shape
    one = int_payload(ring, 1)
    failures = []
    total = 0

    for a in range(g.arrow_count):
        da = ((a, one),)
        for b in range(g.arrow_count):
            db = ((b, one),)
            total += 1
            if reference_phi(d, naive_convolution(g, ring, da, db)) != (
                    reference_phi(d, da) * reference_phi(d, db)):
                failures.append(
                    f"phi not multiplicative on ({g.arrows[a]}, {g.arrows[b]})"
                )

    total += 1
    identity = DenseBlockMatrix.build(shape, [
        [((i, i), (group.identity, one)) for i in range(size)] for size, group in shape.blocks])
    if reference_phi(d, combine(ring, [(a, one) for a in g.identity_arrows()])) != identity:
        failures.append("phi does not send the unit to the identity matrix")

    for a in range(g.arrow_count):
        da = ((a, one),)
        total += 1
        if reference_phi_inv(d, reference_phi(d, da)) != da:
            failures.append(f"phi_inv(phi([{g.arrows[a]}])) != [{g.arrows[a]}]")

    for bi, (size, group) in enumerate(shape.blocks):
        for row in range(size):
            for col in range(size):
                for key in range(group.size):
                    unit = DenseBlockMatrix.from_units(shape, [(bi, row, col, key)])
                    total += 1
                    if reference_phi(d, reference_phi_inv(d, unit)) != unit:
                        failures.append(
                            f"phi(phi_inv(E)) != E at block {bi} ({row},{col}) g{key}"
                        )

    return VerificationReport(
        "isomorphism checks (arrow pairs, unit, basis round trips)",
        total,
        tuple(failures),
    )


def _flatten(m: DenseBlockMatrix, layout) -> dict:
    """m, over Q with trivial isotropy, as a sparse Fraction vector:
    column layout[(block, row, col)] -> the coefficient there."""
    vec: dict = {}
    for bi, block in enumerate(m.blocks):
        for (r, c), cell in block:
            for key, coeff in cell:
                if key != 0:
                    raise InternalCheckError("acyclic flatten hit a Laurent term")
                vec[layout[(bi, r, c)]] = coeff
    return vec


def _fraction_residue(vec, rows, pivots):
    """Residue over Q of the sparse vector vec against echelon rows, each
    with entry 1 at its pivot and 0 at the pivots of the rows before it;
    empty exactly when vec lies in their span.  vec is not mutated."""
    v = {c: y for c, y in vec.items() if y}
    for r, c in zip(rows, pivots):
        f = v.get(c)
        if f:
            for k, x in r.items():
                y = v.get(k, 0) - f * x
                if y:
                    v[k] = y
                else:
                    v.pop(k, None)
    return v


def reference_generated_dimension(images: GeneratorImages) -> int:
    """The dimension of the subalgebra the Leavitt generators'
    images generate, by closing the images under products and taking
    the rank over Q one sparse Fraction vector at a time, where the
    package counts attained matrix units.  Only meaningful for acyclic
    graphs (trivial isotropy everywhere)."""
    shape, vertex, edge, ghost = _dense_images(images, Q)
    layout: dict = {}
    for bi, (size, group) in enumerate(shape.blocks):
        for r in range(size):
            for c in range(size):
                layout[(bi, r, c)] = len(layout)
    gens = list(vertex.values()) + list(edge.values()) + list(ghost.values())
    basis_vecs: list = []  # each 1 at its pivot and 0 at the pivots before it
    pivots: list = []

    def try_add(mat):
        vec = _fraction_residue(_flatten(mat, layout), basis_vecs, pivots)
        if not vec:
            return False
        lead = min(vec)
        inv = 1 / vec[lead]
        basis_vecs.append({i: v * inv for i, v in vec.items()})
        pivots.append(lead)
        return True

    frontier = []
    for m in gens:
        if try_add(m):
            frontier.append(m)
    while frontier:
        new_frontier = []
        for m in frontier:
            for gmat in gens:
                for candidate in (m * gmat, gmat * m):
                    if try_add(candidate):
                        new_frontier.append(candidate)
        frontier = new_frontier
    return len(basis_vecs)


def paths_to_sinks(g: Graph) -> dict:
    """The size of each sink orbit, by counting the finite paths into
    each sink depth first backward, the empty path included: sink vertex
    index -> count."""
    in_edges = [[] for _ in g.vertices]
    for e in range(g.edge_count):
        in_edges[g.dst[e]].append(e)

    def count_into(v, depth):
        if depth > g.edge_count + 1:
            raise RuntimeError("graph is not acyclic")
        total = 1
        for e in in_edges[v]:
            total += count_into(g.src[e], depth + 1)
        return total

    return {v: count_into(v, 0) for v in range(len(g.vertices)) if g.is_sink(v)}


def _offset(bp: Lasso) -> int:
    """Aligns tails: dropping _offset(bp) edges leaves the canonical
    rotation of the cycle, up to multiples of its length."""
    return len(bp.spoke) - bp.entry_pos


def _path_sort_key(g: Graph, bp):
    if isinstance(bp, SinkPath):
        return (0, len(bp.edges), tuple(g.edge_names[e] for e in bp.edges))
    return (1, len(bp.spoke), tuple(g.edge_names[e] for e in bp.spoke), bp.entry_pos)


def reference_boundary_paths(g: Graph):
    """boundary_paths, by enumerating every simple cycle and every
    vertex-simple backward walk with one global sort (a replay of the
    route before the topological peel): all boundary paths when (NE)
    holds, else an ExitWitness.

    Sink paths are enumerated backward from each sink; spokes backward
    from each cycle vertex over non-cycle edges.  Both walks are
    vertex-simple, which (NE) guarantees is exhaustive: a repeated
    vertex would put a cycle with an exit inside the path.
    """
    cycles = enumerate_cycles(g)
    for c in cycles:
        for e in c.edges:
            for other in g.out_edges(g.src[e]):
                if other != e:
                    return ExitWitness(c, other)

    seen_vertices: dict = {}
    for c in cycles:
        for e in c.edges:
            v = g.src[e]
            if v in seen_vertices:
                raise InternalCheckError(
                    "distinct cycles share a vertex although (NE) holds"
                )
            seen_vertices[v] = c

    paths = []

    def extend_backward(start, forbidden):
        """Every vertex-simple path ending at start, in depth-first
        preorder, the empty path first.  The stack is explicit, so long
        chains cannot exhaust the recursion limit."""
        store: list = [()]
        visited = {start}
        stack = [((), iter(g.in_edges(start)))]
        while stack:
            tail_edges, pending = stack[-1]
            e = next(pending, None)
            if e is None:
                stack.pop()
                if tail_edges:
                    visited.discard(g.src[tail_edges[0]])
                continue
            if e in forbidden:
                continue
            u = g.src[e]
            if u in visited:
                raise InternalCheckError(
                    "vertex-simple walk revisited a vertex although (NE) holds"
                )
            if u in seen_vertices:
                raise InternalCheckError(
                    "spoke or sink path touched a cycle although (NE) holds"
                )
            new_edges = (e,) + tail_edges
            store.append(new_edges)
            visited.add(u)
            stack.append((new_edges, iter(g.in_edges(u))))
        return store

    for v in range(len(g.vertices)):
        if g.is_sink(v):
            for edges in extend_backward(v, frozenset()):
                paths.append(SinkPath(edges, v))
    for c in cycles:
        forbidden = frozenset(c.edges)
        for pos in range(c.length()):
            w = g.src[c.edges[pos]]
            for edges in extend_backward(w, forbidden):
                paths.append(Lasso(edges, c, pos))
    return sorted(paths, key=lambda bp: _path_sort_key(g, bp))


def reference_graph_orbits(g: Graph):
    """graph_groupoid's orbits, by regrouping reference_boundary_paths
    as the package grouped them before the peel (a replay): a list of
    (kind, anchor, members, degrees), sinks by vertex name and then
    cycles by edge names, or the ExitWitness."""
    paths = reference_boundary_paths(g)
    if isinstance(paths, ExitWitness):
        return paths
    sink_groups: dict = {}
    cycle_groups: dict = {}
    for bp in paths:
        if isinstance(bp, SinkPath):
            sink_groups.setdefault(bp.sink, []).append(bp)
        else:
            cycle_groups.setdefault(bp.cycle, []).append(bp)
    orbits = []
    for v in sorted(sink_groups, key=lambda v: g.vertices[v]):
        members = tuple(sink_groups[v])
        degrees = tuple(len(bp.edges) - len(members[0].edges) for bp in members)
        orbits.append(("sink", v, members, degrees))
    for c in sorted(cycle_groups, key=lambda c: tuple(g.edge_names[e] for e in c.edges)):
        members = tuple(cycle_groups[c])
        base = members[0]
        n = c.length()
        degrees = tuple((_offset(bp) - _offset(base)) % n for bp in members)
        orbits.append(("cycle", c, members, degrees))
    return orbits


def _check_path_in_graph(g: Graph, bp):
    if isinstance(bp, SinkPath):
        if not 0 <= bp.sink < len(g.vertices) or not g.is_sink(bp.sink):
            raise ValueError("path does not end at a sink of this graph")
        at = bp.sink
        for e in reversed(bp.edges):
            if not 0 <= e < g.edge_count or g.dst[e] != at:
                raise ValueError("path edges do not chain in this graph")
            at = g.src[e]
        return
    c = bp.cycle
    n = c.length()
    if not 0 <= bp.entry_pos < n:
        raise ValueError("lasso entry position out of range")
    if len(set(c.edges)) != n:
        raise ValueError("cycle repeats an edge")
    for i, e in enumerate(c.edges):
        nxt = c.edges[(i + 1) % n]
        if not 0 <= e < g.edge_count or g.dst[e] != g.src[nxt]:
            raise ValueError("cycle edges do not chain in this graph")
    if len({g.src[e] for e in c.edges}) != n:
        raise ValueError("cycle repeats a vertex")
    at = g.src[c.edges[bp.entry_pos]]
    for e in reversed(bp.spoke):
        if not 0 <= e < g.edge_count or g.dst[e] != at:
            raise ValueError("spoke edges do not chain in this graph")
        if e in set(c.edges):
            raise ValueError("spoke reuses a cycle edge")
        at = g.src[e]


def _normalize_lasso(g: Graph, bp: Lasso) -> Lasso:
    canon = _canonical_cycle(g, bp.cycle.edges)
    if canon == bp.cycle:
        return bp
    shift = canon.edges.index(bp.cycle.edges[0])
    return Lasso(bp.spoke, canon, (bp.entry_pos + shift) % canon.length())


def is_arrow(g: Graph, eta, k: int, gamma) -> bool:
    """Which triples (eta, k, gamma) are arrows of the boundary-path
    groupoid, by comparing tails alone where the package reads its orbit
    frames: eta = alpha delta and gamma = beta delta with k = |alpha| -
    |beta| means the same sink, or the same cycle with the degree
    matching the lasso offsets mod the cycle length."""
    _check_path_in_graph(g, eta)
    _check_path_in_graph(g, gamma)
    if isinstance(eta, SinkPath) and isinstance(gamma, SinkPath):
        return eta.sink == gamma.sink and k == len(eta.edges) - len(gamma.edges)
    if isinstance(eta, Lasso) and isinstance(gamma, Lasso):
        eta = _normalize_lasso(g, eta)
        gamma = _normalize_lasso(g, gamma)
        if eta.cycle != gamma.cycle:
            return False
        return (k - (_offset(eta) - _offset(gamma))) % eta.cycle.length() == 0
    return False


def path_start(g: Graph, bp) -> int:
    """The vertex the boundary path bp starts at."""
    if isinstance(bp, SinkPath):
        return g.src[bp.edges[0]] if bp.edges else bp.sink
    if bp.spoke:
        return g.src[bp.spoke[0]]
    return g.src[bp.cycle.edges[bp.entry_pos]]


def prepend_edge(g: Graph, e: int, bp):
    """The boundary path e . bp; requires dst(e) = start(bp)."""
    if g.dst[e] != path_start(g, bp):
        raise ValueError("edge does not reach the start of the path")
    if isinstance(bp, SinkPath):
        return SinkPath((e,) + bp.edges, bp.sink)
    if e in set(bp.cycle.edges):
        if bp.spoke:
            raise InternalCheckError("cycle edge feeding a nonempty spoke")
        n = bp.cycle.length()
        pos = bp.cycle.edges.index(e)
        if (pos + 1) % n != bp.entry_pos:
            raise InternalCheckError("cycle edge does not precede the entry")
        return Lasso((), bp.cycle, pos)
    return Lasso((e,) + bp.spoke, bp.cycle, bp.entry_pos)


def _reference_arrow_unit(gd, eta, k: int, gamma) -> tuple:
    """Matrix unit of one groupoid arrow (eta, k, gamma): is_arrow
    decides it is one, a scan of the orbit members finds its row and
    column, and the key is the net degree over the cycle length on a
    lasso block, 0 on a sink block."""
    if not is_arrow(gd.graph, eta, k, gamma):
        raise ValueError("not an arrow of the boundary-path groupoid")
    for bi, orbit in enumerate(gd.orbits):
        if eta not in orbit.members:
            continue
        row = next(i for i, m in enumerate(orbit.members) if m == eta)
        col = next(i for i, m in enumerate(orbit.members) if m == gamma)
        net = k - orbit.degrees[row] + orbit.degrees[col]
        if orbit.kind == "sink":
            if net != 0:
                raise InternalCheckError("sink orbit arrow with nonzero net degree")
            return (bi, row, col, 0)
        n = orbit.anchor.length()
        if net % n:
            raise InternalCheckError("lasso arrow degree not a multiple of the cycle length")
        return (bi, row, col, net // n)
    raise ValueError("boundary path not in any orbit")


def reference_generator_images(g: Graph) -> GeneratorImages:
    """generator_images, by placing every term arrow by arrow
    (is_arrow and a scan of the orbit members) where the package reads
    its orbit listing: v is the sum of the identity arrows (x, 0, x) at
    paths x starting at v, e the sum of the arrows (e.x, 1, x) over
    paths x starting at r(e), e* the sum of their inverses (x, -1, e.x),
    each term one matrix unit."""
    gd = graph_groupoid(g)
    paths = [bp for o in gd.orbits for bp in o.members]
    vertex, edge, ghost = {}, {}, {}
    for v in range(len(g.vertices)):
        vertex[g.vertices[v]] = tuple(sorted(
            _reference_arrow_unit(gd, bp, 0, bp) for bp in paths if path_start(g, bp) == v))
    for e in range(g.edge_count):
        pairs = [(prepend_edge(g, e, bp), bp) for bp in paths if path_start(g, bp) == g.dst[e]]
        edge[g.edge_names[e]] = tuple(sorted(
            _reference_arrow_unit(gd, extended, 1, bp) for extended, bp in pairs))
        ghost[g.edge_names[e]] = tuple(sorted(
            _reference_arrow_unit(gd, bp, -1, extended) for extended, bp in pairs))
    return GeneratorImages(g, gd, vertex, edge, ghost)


def _dense_images(images: GeneratorImages, ring):
    """(shape, vertex, edge, ghost): the images as DenseBlockMatrix over
    ring, each unit a coefficient one."""
    shape = block_shape(images.decomposition, ring)
    return (shape,) + tuple(
        {name: DenseBlockMatrix.from_units(shape, units) for name, units in kind.items()}
        for kind in (images.vertex, images.edge, images.ghost))


def reference_verify_leavitt_relations(g: Graph, ring, images: GeneratorImages | None = None) -> VerificationReport:
    """verify_leavitt_relations' report, by multiplying out every
    relation at ring level on DenseBlockMatrix images, each unit a
    coefficient one, where the package composes matrix-unit indices; the
    span check counts attained units with reference_path_unit_count.
    Same checks, same labels, same order; no budget."""
    if images is None:
        images = generator_images(g)
    shape, vertex, edge, ghost = _dense_images(images, ring)
    total = 0
    failures = []

    def check(ok: bool, label: str):
        nonlocal total
        total += 1
        if not ok:
            failures.append(label)

    zero = DenseBlockMatrix.build(shape, [])
    names = list(g.vertices)
    for u in names:
        for v in names:
            expect = vertex[u] if u == v else zero
            check(vertex[u] * vertex[v] == expect, f"vertex idempotents: {u} * {v}")
    unit = zero
    for v in names:
        unit = unit + vertex[v]
    identity = DenseBlockMatrix.build(shape, [
        [((i, i), (0, int_payload(ring, 1))) for i in range(size)] for size, _ in shape.blocks])
    check(unit == identity, "vertex sum = identity")

    for e in range(g.edge_count):
        en = g.edge_names[e]
        sv = g.vertices[g.src[e]]
        rv = g.vertices[g.dst[e]]
        x, y = edge[en], ghost[en]
        check(vertex[sv] * x == x, f"unit path: {sv} . {en}")
        check(x * vertex[rv] == x, f"unit path: {en} . {rv}")
        check(vertex[rv] * y == y, f"unit path: {rv} . {en}*")
        check(y * vertex[sv] == y, f"unit path: {en}* . {sv}")

    for e in range(g.edge_count):
        for f in range(g.edge_count):
            en, fn = g.edge_names[e], g.edge_names[f]
            expect = vertex[g.vertices[g.dst[e]]] if e == f else zero
            check(ghost[en] * edge[fn] == expect, f"CK1: {en}* . {fn}")

    for v in range(len(g.vertices)):
        outs = g.out_edges(v)
        if not outs:
            continue
        acc = zero
        for e in outs:
            en = g.edge_names[e]
            acc = acc + edge[en] * ghost[en]
        check(acc == vertex[g.vertices[v]], f"CK2 at {g.vertices[v]}")

    if not images.decomposition.has_cycle() and isinstance(ring, Rationals):
        n = reference_path_unit_count(images)
        expect_dim = sum(len(o.members) ** 2 for o in images.decomposition.orbits)
        check(n == expect_dim,
              f"generated subalgebra fills the block algebra ({n} vs {expect_dim})")
    for bi, orbit in enumerate(images.decomposition.orbits):
        if orbit.kind != "cycle":
            continue
        word = None
        for e in orbit.anchor.edges:
            m = edge[g.edge_names[e]]
            word = m if word is None else word * m
        x = DenseBlockMatrix.from_units(shape, [(bi, 0, 0, 1)])
        check(word.entry(bi, 0, 0) == x.entry(bi, 0, 0), f"cycle word attains x in block {bi}")

    return VerificationReport("Leavitt relation checks", total, tuple(failures))


def reference_path_unit_count(images: GeneratorImages) -> int:
    """_attained_matrix_units' count, by ring-level products: each
    path's image and ghost is the DenseBlockMatrix product over Q of its
    first edge's image with its suffix's, compared with a freshly built
    matrix unit, 2P products for P paths.  Only meaningful for acyclic
    graphs."""
    g = images.graph
    shape, vertex, edge, ghost_of = _dense_images(images, Q)
    img: dict = {}
    ghost: dict = {}
    attained = 0
    for bi, orbit in enumerate(images.decomposition.orbits):
        rows = cols = 0
        for r, bp in enumerate(orbit.members):
            key = (bp.edges, bp.sink)
            if not bp.edges:
                img[key] = ghost[key] = vertex[g.vertices[bp.sink]]
            else:
                first = g.edge_names[bp.edges[0]]
                rest = (bp.edges[1:], bp.sink)
                img[key] = edge[first] * img[rest]
                ghost[key] = ghost[rest] * ghost_of[first]
            rows += img[key] == DenseBlockMatrix.from_units(shape, [(bi, r, 0, 0)])
            cols += ghost[key] == DenseBlockMatrix.from_units(shape, [(bi, 0, r, 0)])
        attained += rows * cols
    return attained


def reference_isotropy(g: FiniteGroupoid, x: int) -> IsotropyGroup:
    """isotropy, by scanning every arrow for the loops at x and
    verifying the loop table as a group with FiniteGroupTable.from_table,
    where the package reads it off validate's proof."""
    loops = sorted((a for a in range(g.arrow_count) if g.dom[a] == x == g.cod[a]),
                   key=g.arrows.__getitem__)
    table = [[loops.index(g.compose(a, b)) for b in loops] for a in loops]
    return IsotropyGroup(tuple(loops), FiniteGroupTable.from_table(table))


def reference_orbit_layout(g: FiniteGroupoid):
    """decompose's isotropies and arrow positions, by letting every
    orbit scan every arrow: the isotropy group at each basepoint from
    `reference_isotropy`, and each arrow's (block, row, col, isotropy
    key) from the orbit that holds both of its ends."""
    frames = orbits(g)
    isotropies = tuple(reference_isotropy(g, orb.members[0]) for orb in frames)
    position = [None] * g.arrow_count
    for bi, (orb, iso) in enumerate(zip(frames, isotropies)):
        member_pos = {m: i for i, m in enumerate(orb.members)}
        loop_pos = {a: i for i, a in enumerate(iso.arrows)}
        for a in range(g.arrow_count):
            y, z = g.dom[a], g.cod[a]
            if y in member_pos and z in member_pos:
                conn_y = orb.connecting[member_pos[y]]
                conn_z = orb.connecting[member_pos[z]]
                loop = g.compose(g.inv[conn_z], g.compose(a, conn_y))
                position[a] = (bi, member_pos[z], member_pos[y], loop_pos[loop])
    return isotropies, tuple(position)


def _basis_products(rows):
    """The dense d x d products table of a composition table (rows[i] =
    {j: k}, k = arrow i after arrow j, as in `g.rows`): bp[i][j] = k, or
    -1.  The dense references below read it."""
    d = len(rows)
    bp = [[-1] * d for _ in range(d)]
    for bp_i, row in zip(bp, rows):
        for j, k in row.items():
            bp_i[j] = k
    return bp


def reference_trace_form(bp, d):
    """The trace form's Gram matrix, by counting fixed points along the
    dense rows of a products table: tr[c] counts the k with c k = k,
    and entry (i, j) is tr of the product of i and j, or 0."""
    tr = [sum(1 for k in range(d) if bp[c][k] == k) for c in range(d)]
    return [[tr[k] if k >= 0 else 0 for k in row] for row in bp]


def _vec_mul(bp, u, v, d, p=0):
    """u * v on the arrow basis for dense vectors, reduced mod p when
    p > 0 (exact when p = 0): every pair of nonzero entries is visited."""
    out = [0] * d
    nonzero_v = [(j, vj) for j, vj in enumerate(v) if vj]
    for i, ui in enumerate(u):
        if ui:
            row = bp[i]
            for j, vj in nonzero_v:
                k = row[j]
                if k >= 0:
                    out[k] += ui * vj
    return [x % p for x in out] if p else out


def _unit_vectors(d):
    for j in range(d):
        e = [0] * d
        e[j] = 1
        yield e


def _powers_vanish(bp, base, d, p):
    """base spans a subspace I with I*I inside I (echelon rows); is I
    nilpotent?  Take ideal powers until zero or stabilization."""
    current = base
    while current:
        nxt = [_vec_mul(bp, u, v, d, p) for u in current for v in base]
        reduced, _ = reference_rref(nxt, p)
        if len(reduced) >= len(current):
            # no strict descent and still nonzero: never reaches zero
            return not reduced
        current = reduced
    return True


def _right_ideal_nilpotent(bp, w, d, p):
    """Is the right ideal generated by w nilpotent over GF(p)?  Exact:
    build a basis of wA from d dense products, then take
    its powers."""
    gens = [_vec_mul(bp, w, e, d, p) for e in _unit_vectors(d)]
    gens.append(w)
    return _powers_vanish(bp, reference_rref(gens, p)[0], d, p)


def reference_ideal_certified_nilpotent(bp, basis, d, p):
    """The nilpotent-ideal certificate over GF(p), by testing the ideal
    property against every arrow on both sides and taking the powers I,
    I^2, I^3, ... one factor of I per step, where the package tests
    generators only and squares.  basis is dense rows."""
    rows, pivots = reference_rref(basis, p)
    for u in rows:
        for e in _unit_vectors(d):
            for vec in (_vec_mul(bp, e, u, d, p), _vec_mul(bp, u, e, d, p)):
                if any(reference_residue(vec, rows, pivots, p)):
                    return False
    return _powers_vanish(bp, rows, d, p)


def _nilpotent_element_modp(bp, w, d, p):
    """Quick soundness filter: anything in the radical is nilpotent."""
    current = w
    steps = 0
    limit = 1
    while limit < d:
        limit <<= 1
        steps += 1
    for _ in range(max(steps, 1)):
        current = _vec_mul(bp, current, current, d, p)
        if not any(current):
            return True
    return not any(current)


def reference_exhaustive_radical(bp, d, p):
    """The "exhaustive" oracle's answer, by sweeping GF(p)^d in
    `itertools.product` order (coordinate 0 most significant): (False,
    w, None) for the first nonzero w whose right ideal wA is nilpotent,
    or (True, None, 0) when there is none, at p^d candidates."""
    for w in iter_product(range(p), repeat=d):
        if not any(w):
            continue
        if not _nilpotent_element_modp(bp, list(w), d, p):
            continue
        if _right_ideal_nilpotent(bp, list(w), d, p):
            return False, list(w), None
    return True, None, 0


def _matrix_power_trace_mod(m, q, mod, d):
    """Tr(m^q) mod `mod` for the d x d integer matrix m, held as rows of
    nonzero entries, by repeated squaring."""
    def matmul(a, b):
        out = []
        for ar in a:
            outr = {}
            for k, ark in ar.items():
                for c, bkc in b[k].items():
                    outr[c] = (outr.get(c, 0) + ark * bkc) % mod
            out.append({c: v for c, v in outr.items() if v})
        return out
    result = None
    base = [{c: v % mod for c, v in row.items() if v % mod} for row in m]
    e = q
    while e:
        if e & 1:
            result = base if result is None else matmul(result, base)
        e >>= 1
        if e:
            base = matmul(base, base)
    return sum(result[i].get(i, 0) for i in range(d)) % mod


def _left_mult_matrix_int(bp, z, d):
    """The d x d integer matrix of left multiplication by z, as rows of
    nonzero entries."""
    m = [{} for _ in range(d)]
    for i, zi in enumerate(z):
        if zi:
            for c, k in enumerate(bp[i]):
                if k >= 0:
                    m[k][c] = m[k].get(c, 0) + zi
    return m


def reference_filtration_radical(bp, d, p):
    """The char-p radical's rref basis, by one trace-lift filtration over
    the whole algebra with every trace read off a matrix power: the d x d
    integer left-multiplication matrix L_z of each product z of two basis
    vectors is raised to q = p^j mod p^(j+1) and its diagonal summed,
    where the package runs one corner per block and reads the trace as
    <tr, z^q>."""
    stages = 1
    while p ** stages < d:
        stages += 1
    basis = [list(e) for e in _unit_vectors(d)]
    for j in range(stages + 1):
        if not basis:
            break
        q = p ** j
        mod = p ** (j + 1)
        rows = []
        traces = {}  # one matrix power per distinct product
        for y in basis:
            row = []
            for b in basis:
                z = tuple(_vec_mul(bp, b, y, d))
                if z not in traces:
                    traces[z] = _matrix_power_trace_mod(_left_mult_matrix_int(bp, z, d), q, mod, d)
                t = traces[z]
                if t % q:
                    raise InternalCheckError("trace filtration divisibility failed")
                row.append((t // q) % p)
            rows.append(row)
        coeff_kernel = reference_kernel(rows, p)
        new_basis = []
        for coeffs in coeff_kernel:
            vec = [0] * d
            for c, b in zip(coeffs, basis):
                if c:
                    for idx in range(d):
                        vec[idx] = (vec[idx] + c * b[idx]) % p
            new_basis.append(vec)
        basis, _ = reference_rref(new_basis, p)
    return basis


def reference_rref(rows, p):
    """`linalg.echelon`'s rref and pivots, by dense Gauss-Jordan over
    GF(p): each pivot row is scaled to pivot 1 and subtracted from every
    other row with a nonzero entry in its column, where the package
    eliminates forward on sparse rows.  Entries are ints in range(p)."""
    m = [[v % p for v in r] for r in rows]
    pivots = []
    row = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((i for i in range(row, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = pow(m[row][col], -1, p)
        m[row] = [v * inv % p for v in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return m[:row], pivots


def reference_kernel(rows, p):
    """`linalg.sparse_kernel`'s basis, densely, read off `reference_rref`:
    one vector per free column f, with entry 1 at f and -rref[i][f] at
    the pivot of each row i."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = reference_rref(rows, p)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for r, c in zip(reduced, pivots):
            v[c] = -r[f] % p
        basis.append(v)
    return basis


def reference_residue(vec, reduced, pivots, p):
    """Span membership against a full rref, densely: vec less vec[c]
    times the rref row at each pivot c, all zero exactly when vec lies
    in the span, where the package reduces a sparse row step by step."""
    out = list(vec)
    for row, c in zip(reduced, pivots):
        if f := vec[c] % p:
            out = [a - f * b for a, b in zip(out, row)]
    return [x % p for x in out]


def _reference_one_word(name: str, keyword: str, ln: int) -> None:
    """The NAME of a "KEYWORD NAME : ..." line must be one word."""
    if len(name.split()) > 1:
        raise ParseError(f"{keyword} name '{name}' contains whitespace", line=ln)


def reference_parse_groupoid(text: str) -> FiniteGroupoid:
    """parse_groupoid's groupoid or error, by the line parser from
    before the one-pass parser (a replay: only the mutation parity tests
    pin error messages and lines on arbitrary text): every line
    comment-stripped and split, compose entries collected in a dict
    keyed by (f, g) pairs, and FiniteGroupoid.make sorting them."""
    objects: list = []
    obj_set: dict = {}
    arrows: list = []
    arr_set: dict = {}
    dom: list = []
    cod: list = []
    identity_decl: dict = {}
    comp: dict = {}
    inv: dict = {}

    def need_object(name, ln):
        if name not in obj_set:
            raise ParseError(f"object '{name}' not declared", line=ln)
        return obj_set[name]

    def need_arrow(name, ln):
        if name not in arr_set:
            raise ParseError(f"arrow '{name}' not declared", line=ln)
        return arr_set[name]

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("objects:"):
            for name in line[len("objects:"):].split():
                if name in obj_set:
                    raise ParseError(f"object '{name}' declared twice", line=ln)
                obj_set[name] = len(objects)
                objects.append(name)
            continue
        parts = line.split()
        if parts[0] == "arrow":
            # arrow NAME : SRC -> DST
            rest = line[len("arrow"):].strip()
            if ":" not in rest:
                raise ParseError("arrow declaration needs ':'", line=ln)
            name, spanspec = (s.strip() for s in rest.split(":", 1))
            _reference_one_word(name, "arrow", ln)
            if "->" not in spanspec:
                raise ParseError("arrow declaration needs '->'", line=ln)
            src, dst = (s.strip() for s in spanspec.split("->", 1))
            if not name or not src or not dst:
                raise ParseError("malformed arrow declaration", line=ln)
            if name in arr_set:
                raise ParseError(f"arrow '{name}' declared twice", line=ln)
            arr_set[name] = len(arrows)
            arrows.append(name)
            dom.append(need_object(src, ln))
            cod.append(need_object(dst, ln))
        elif parts[0] == "identity":
            # identity OBJ = ARROW
            if len(parts) != 4 or parts[2] != "=":
                raise ParseError("expected: identity OBJ = ARROW", line=ln)
            x = need_object(parts[1], ln)
            if x in identity_decl:
                raise ParseError(f"identity for '{parts[1]}' declared twice", line=ln)
            identity_decl[x] = need_arrow(parts[3], ln)
        elif parts[0] == "compose":
            # compose F G = H
            if len(parts) != 5 or parts[3] != "=":
                raise ParseError("expected: compose F G = H", line=ln)
            f = need_arrow(parts[1], ln)
            g = need_arrow(parts[2], ln)
            h = need_arrow(parts[4], ln)
            if dom[f] != cod[g]:
                raise ParseError(
                    f"'{parts[1]}' and '{parts[2]}' are not composable: "
                    f"dom({parts[1]}) = {objects[dom[f]]} but "
                    f"cod({parts[2]}) = {objects[cod[g]]}",
                    line=ln,
                )
            if (f, g) in comp:
                raise ParseError(f"compose {parts[1]} {parts[2]} declared twice", line=ln)
            comp[(f, g)] = h
        elif parts[0] == "inverse":
            # inverse F = G
            if len(parts) != 4 or parts[2] != "=":
                raise ParseError("expected: inverse F = G", line=ln)
            f = need_arrow(parts[1], ln)
            if f in inv:
                raise ParseError(f"inverse of '{parts[1]}' declared twice", line=ln)
            inv[f] = need_arrow(parts[3], ln)
        else:
            raise ParseError(f"unknown directive '{parts[0]}'", line=ln)

    if not objects:
        raise ParseError("no objects declared", line=1)
    identity_of = tuple(identity_decl.get(x) for x in range(len(objects)))
    inv_total = tuple(inv.get(a) for a in range(len(arrows)))
    return FiniteGroupoid.make(objects, arrows, dom, cod, identity_of, comp, inv_total)


def reference_parse_graph(text: str) -> Graph:
    """parse_graph's graph or error, by the line parser from before
    the line grammar was shared (a replay, kept for the mutation parity
    tests): the same graph, or a ParseError with the same message and
    line."""
    vertices: list = []
    vset: dict = {}
    edges: list = []
    eset = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            for name in line[len("vertices:"):].split():
                if name in vset:
                    raise ParseError(f"vertex '{name}' declared twice", line=ln)
                vset[name] = len(vertices)
                vertices.append(name)
        elif line.split()[0] == "edge":
            rest = line[len("edge"):].strip()
            if ":" not in rest:
                raise ParseError("edge declaration needs ':'", line=ln)
            name, spanspec = (s.strip() for s in rest.split(":", 1))
            _reference_one_word(name, "edge", ln)
            if "->" not in spanspec:
                raise ParseError("edge declaration needs '->'", line=ln)
            s, t = (x.strip() for x in spanspec.split("->", 1))
            if not name or not s or not t:
                raise ParseError("malformed edge declaration", line=ln)
            if name in eset:
                raise ParseError(f"edge '{name}' declared twice", line=ln)
            if s not in vset:
                raise ParseError(f"vertex '{s}' not declared", line=ln)
            if t not in vset:
                raise ParseError(f"vertex '{t}' not declared", line=ln)
            eset.add(name)
            edges.append((name, s, t))
        else:
            raise ParseError(f"unknown directive '{line.split()[0]}'", line=ln)
    if not vertices:
        raise ParseError("no vertices declared", line=1)
    return Graph.make(vertices, edges)


def reference_parse_isg(text: str) -> InverseSemigroup:
    """parse_isg's semigroup or error, by the line parser from before
    the line grammar was shared (a replay, kept for the mutation parity
    tests): the same semigroup, or a ParseError (or the table check's
    ValueError) with the same message.  It reads 'row' only when a
    space follows."""
    elements: list = []
    eset: dict = {}
    rows: dict = {}
    pending: list = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("elements:"):
            for name in line[len("elements:"):].split():
                if name in eset:
                    raise ParseError(f"element '{name}' declared twice", line=ln)
                eset[name] = len(elements)
                elements.append(name)
        elif line.startswith("row "):
            rest = line[len("row "):]
            if ":" not in rest:
                raise ParseError("row declaration needs ':'", line=ln)
            name, prods = (s.strip() for s in rest.split(":", 1))
            _reference_one_word(name, "row", ln)
            if name not in eset:
                raise ParseError(f"element '{name}' not declared", line=ln)
            if name in rows:
                raise ParseError(f"row for '{name}' declared twice", line=ln)
            entries = prods.split()
            pending.append((ln, name, entries))
            rows[name] = entries
        else:
            raise ParseError(f"unknown directive '{line.split()[0]}'", line=ln)
    if not elements:
        raise ParseError("no elements declared", line=1)
    n = len(elements)
    table = [[0] * n for _ in range(n)]
    seen = set()
    for ln, name, entries in pending:
        if len(entries) != n:
            raise ParseError(
                f"row for '{name}' has {len(entries)} entries, expected {n}",
                line=ln,
            )
        for j, prod in enumerate(entries):
            if prod not in eset:
                raise ParseError(f"element '{prod}' not declared", line=ln)
            table[eset[name]][j] = eset[prod]
        seen.add(name)
    missing = [e for e in elements if e not in seen]
    if missing:
        raise ParseError(f"no row for element '{missing[0]}'", line=1)
    return InverseSemigroup.from_table(elements, table)


def reference_group_table(rows) -> FiniteGroupTable:
    """FiniteGroupTable.from_table, by scanning all n^3 triples in
    order where the package certifies associativity on generators: the
    same table, or a ValueError with the same message."""
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
    return FiniteGroupTable(n, table, identity, tuple(inverse), _classify_group(table, identity))


def int_det(rows) -> int:
    """Determinant of a square integer matrix, by Bareiss elimination
    (fraction free, exact)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def order_det(below) -> int:
    """The determinant of the transition matrix [t <= s] of a natural
    partial order, which is 1 when the package's unitriangularity proof
    holds, by int_det on below[t][s] as natural_partial_order gives it."""
    return int_det([[1 if row[s] else 0 for row in below] for s in range(len(below))])
