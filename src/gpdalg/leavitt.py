"""Leavitt path algebras through the boundary-path groupoid.

A directed multigraph E determines an algebra L_R(E) generated by
vertex idempotents v, edge generators e, and ghost edges e*, subject to

    (unit paths)   s(e) e = e = e r(e)         r(e) e* = e* = e* s(e)
    (CK1)          e* f = [e = f] r(e)
    (CK2)          v = sum of e e* over e with s(e) = v,  v not a sink

This module works at desk scale with the graphs whose boundary-path
space is finite.  A boundary path is either a finite path ending at a
sink (possibly empty) or a lasso: a spoke with no cycle edges followed
by a simple cycle repeated forever.  The space is finite exactly when
no cycle has an exit, condition (NE); when (NE) fails the module
reports the infinite witness family instead.

Arrows of the boundary-path groupoid are triples (eta, k, gamma) of
boundary paths with a common tail, k counting the length difference of
the trimmed heads.  Tail-equivalence classes (same sink, or same
cycle) are the orbits; sink orbits have trivial isotropy and lasso
orbits have infinite cyclic isotropy generated by the degree-|cycle|
loop, which the block layout writes as the Laurent variable x.

Frames are deterministic: members of an orbit sort by (spoke length,
edge names, entry position) with the empty sink path respectively the
pure lasso at the cycle's canonical rotation coming first, and
connecting arrows take the least admissible nonnegative degree.
"""
from __future__ import annotations

import operator
from functools import reduce

from .errors import InternalCheckError, Names, OracleBudgetError, lines, read_span
from .group_algebra import (
    BlockMatrix,
    BlockShape,
    FiniteGroupTable,
    GroupAlgebraElement,
    IntegerGroup,
)
from .rings import Rationals, RingDescriptor, RingElement, ring_predicates
from .algebra import VerificationReport
from .value import Value
from .verdicts import (
    CITE_BLOCK,
    CITE_CONNELL,
    CITE_HILBERT,
    CITE_MASCHKE,
    Verdict,
    verdicts,
)

_TRIVIAL = FiniteGroupTable.from_table([[0]])

# largest boundary-path count verify_leavitt_relations takes; every
# vertex and every edge starts some boundary path, so this also bounds
# the vertex and edge counts.  At the limit `graph --verify --ring Q`
# takes about 0.8 s on the slowest shape measured (a 1,440-vertex
# chain), 0.3 s on 1,440 disjoint loops (one block each).
LEAVITT_VERIFY_LIMIT = 1440


class Graph(Value):
    __slots__ = ("vertices", "edge_names", "src", "dst",
                 "_vindex", "_eindex", "_out", "_in", "_groupoid")

    def __init__(self, vertices: tuple, edge_names: tuple, src: tuple, dst: tuple):
        self.vertices = vertices
        self.edge_names = edge_names
        self.src = src
        self.dst = dst
        self._vindex = {v: i for i, v in enumerate(vertices)}
        self._eindex = {e: i for i, e in enumerate(edge_names)}
        out: list = [[] for _ in vertices]  # vertex -> its out-edges, ascending
        for e, v in enumerate(src):
            out[v].append(e)
        self._out = tuple(map(tuple, out))
        into: list = [[] for _ in vertices]  # vertex -> its in-edges, by edge name
        for e in sorted(range(len(edge_names)), key=edge_names.__getitem__):
            into[dst[e]].append(e)
        self._in = tuple(map(tuple, into))
        self._groupoid = None  # graph_groupoid() memo

    @staticmethod
    def make(vertices, edges) -> "Graph":
        """edges: iterable of (name, src name, dst name)."""
        vertices = tuple(vertices)
        vindex = {v: i for i, v in enumerate(vertices)}
        names, src, dst = [], [], []
        for name, s, t in edges:
            names.append(name)
            src.append(vindex[s])
            dst.append(vindex[t])
        return Graph(vertices, tuple(names), tuple(src), tuple(dst))

    def vertex_index(self, name: str) -> int:
        return self._vindex[name]

    def edge_index(self, name: str) -> int:
        return self._eindex[name]

    def out_edges(self, v: int) -> tuple:
        return self._out[v]

    def in_edges(self, v: int) -> tuple:
        """The edges into v, in edge-name order."""
        return self._in[v]

    def is_sink(self, v: int) -> bool:
        return not self.out_edges(v)

    @property
    def edge_count(self) -> int:
        return len(self.edge_names)


def parse_graph(text: str) -> Graph:
    """Line format, in the line grammar of errors:

        vertices: u v
        edge e : u -> v
    """
    vertices = Names("vertex", "vertices")
    edges = Names("edge")
    src: list = []
    dst: list = []
    for ln, words, line in lines(text):
        if words[0] == "edge":
            s, t = read_span(line, ln, edges, vertices)
            src.append(s)
            dst.append(t)
        else:
            vertices.read_list(words, line, ln)
    return Graph(vertices.require(), tuple(edges.index), tuple(src), tuple(dst))


def render_graph(g: Graph) -> str:
    lines = ["vertices: " + " ".join(g.vertices)]
    for e in range(g.edge_count):
        lines.append(
            f"edge {g.edge_names[e]} : {g.vertices[g.src[e]]} -> {g.vertices[g.dst[e]]}"
        )
    return "\n".join(lines) + "\n"


class Cycle(Value):
    """A simple directed cycle, canonically rotated so that the source
    of the first edge is the least vertex name on the cycle."""

    __slots__ = ("edges",)  # edge indices

    def length(self) -> int:
        return len(self.edges)


def _canonical_cycle(g: Graph, edges) -> Cycle:
    names = [g.vertices[g.src[e]] for e in edges]
    start = names.index(min(names))
    return Cycle(tuple(edges[start:]) + tuple(edges[:start]))


def _cycle_sort_key(g: Graph, c: Cycle):
    return tuple(g.edge_names[e] for e in c.edges)


def enumerate_cycles(g: Graph) -> list:
    """All simple directed cycles, parallel edges giving distinct
    cycles, deterministically ordered."""
    found = []
    vcount = len(g.vertices)
    order = sorted(range(vcount), key=lambda v: g.vertices[v])
    rank = {v: i for i, v in enumerate(order)}

    out_sorted = [
        sorted(g.out_edges(v), key=lambda e: g.edge_names[e]) for v in range(vcount)
    ]

    # depth-first walk with an explicit stack, so long paths cannot
    # exhaust the interpreter's recursion limit
    for start in order:
        path_edges: list = []
        on_path = {start}
        stack = [iter(out_sorted[start])]
        while stack:
            e = next(stack[-1], None)
            if e is None:
                stack.pop()
                if path_edges:
                    on_path.discard(g.dst[path_edges.pop()])
                continue
            nxt = g.dst[e]
            if nxt == start:
                found.append(_canonical_cycle(g, path_edges + [e]))
            elif nxt not in on_path and rank[nxt] > rank[start]:
                path_edges.append(e)
                on_path.add(nxt)
                stack.append(iter(out_sorted[nxt]))
    return sorted(found, key=lambda c: _cycle_sort_key(g, c))


class ExitWitness(Value):
    """A cycle together with an edge leaving it: condition (NE) fails
    and the sets Z(cycle^n exit), n >= 0, are infinitely many nonempty
    disjoint pieces of the boundary-path space."""

    __slots__ = ("cycle", "exit_edge")


def witness_names(g: Graph, w: ExitWitness) -> tuple:
    """How reports spell an ExitWitness: (the cycle's edge names joined
    by '.', the exit edge's name, the family Z((cycle)^n.exit))."""
    cyc = ".".join(g.edge_names[e] for e in w.cycle.edges)
    exit_name = g.edge_names[w.exit_edge]
    return cyc, exit_name, f"Z(({cyc})^n.{exit_name})"


def condition_ne(g: Graph, cycles=None):
    """Returns (holds, witness).  holds is True iff every vertex on
    every cycle has out-degree exactly one."""
    if cycles is None:
        cycles = enumerate_cycles(g)
    for c in cycles:
        for e in c.edges:
            # an edge off the cycle, or a second cycle edge at src(e)
            for other in g.out_edges(g.src[e]):
                if other != e:
                    return False, ExitWitness(c, other)
    return True, None


class SinkPath(Value):
    """Finite path ending at a sink; empty edges means the sink alone."""

    __slots__ = (
        "edges",  # edge indices, in walking order
        "sink",   # vertex index
    )


class Lasso(Value):
    """spoke (no cycle edges) followed by the cycle repeated forever,
    entering at position entry_pos of the canonical rotation."""

    __slots__ = ("spoke", "cycle", "entry_pos")

    def offset(self) -> int:
        # aligns tails: dropping offset() edges leaves the canonical
        # rotation of the cycle, up to multiples of the length
        return len(self.spoke) - self.entry_pos


def path_start(g: Graph, bp) -> int:
    if isinstance(bp, SinkPath):
        return g.src[bp.edges[0]] if bp.edges else bp.sink
    if bp.spoke:
        return g.src[bp.spoke[0]]
    return g.src[bp.cycle.edges[bp.entry_pos]]


def render_path(g: Graph, bp) -> str:
    if isinstance(bp, SinkPath):
        if not bp.edges:
            return f"({g.vertices[bp.sink]})"
        return ".".join(g.edge_names[e] for e in bp.edges)
    spoke = ".".join(g.edge_names[e] for e in bp.spoke)
    n = bp.cycle.length()
    rot = [bp.cycle.edges[(bp.entry_pos + i) % n] for i in range(n)]
    cyc = ".".join(g.edge_names[e] for e in rot)
    return (spoke + "." if spoke else "") + f"({cyc})^inf"


def _path_sort_key(g: Graph, bp):
    if isinstance(bp, SinkPath):
        return (0, len(bp.edges), tuple(g.edge_names[e] for e in bp.edges))
    return (1, len(bp.spoke), tuple(g.edge_names[e] for e in bp.spoke), bp.entry_pos)


def boundary_paths(g: Graph):
    """All boundary paths when (NE) holds, else an ExitWitness.

    Sink paths are enumerated backward from each sink; spokes backward
    from each cycle vertex over non-cycle edges.  Both walks are
    vertex-simple, which (NE) guarantees is exhaustive: a repeated
    vertex would put a cycle with an exit inside the path.
    """
    cycles = enumerate_cycles(g)
    holds, witness = condition_ne(g, cycles)
    if not holds:
        return witness

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


class GraphOrbit(Value):
    __slots__ = (
        "kind",      # "sink" or "cycle"
        "anchor",    # vertex index or Cycle
        "members",   # boundary paths, sorted; members[0] is the basepoint
        "degrees",   # connecting degree basepoint -> member
        "isotropy",  # FiniteGroupTable (trivial) or IntegerGroup
    )


class GraphDecomposition(Value):
    __slots__ = ("graph", "orbits")

    def boundary_count(self) -> int:
        return sum(len(o.members) for o in self.orbits)

    def has_cycle(self) -> bool:
        # under (NE) every cycle of the graph owns a lasso orbit
        return any(o.kind == "cycle" for o in self.orbits)


def graph_groupoid(g: Graph):
    """Orbit/frame layout of the boundary-path groupoid, or the
    ExitWitness of condition_ne when the space is infinite.

    Computed once per Graph, which never changes, and memoised on it: this
    is the one place a report enumerates cycles, decides (NE) and walks
    the boundary paths, and every other stage reads this result."""
    if g._groupoid is None:
        g._groupoid = _boundary_path_groupoid(g)
    return g._groupoid


def _boundary_path_groupoid(g: Graph):
    paths = boundary_paths(g)
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
        orbits.append(GraphOrbit("sink", v, members, degrees, _TRIVIAL))
    for c in sorted(cycle_groups, key=lambda c: _cycle_sort_key(g, c)):
        members = tuple(cycle_groups[c])
        base = members[0]
        n = c.length()
        degrees = tuple((bp.offset() - base.offset()) % n for bp in members)
        orbits.append(GraphOrbit("cycle", c, members, degrees, IntegerGroup()))
    return GraphDecomposition(g, tuple(orbits))


def block_shape(gd: GraphDecomposition, ring: RingDescriptor) -> BlockShape:
    return BlockShape(ring, tuple((len(o.members), o.isotropy) for o in gd.orbits))


class GeneratorImages(Value):
    __slots__ = (
        "graph",
        "decomposition",  # GraphDecomposition
        "shape",          # BlockShape
        "vertex",         # vertex name -> BlockMatrix
        "edge",           # edge name -> BlockMatrix
        "ghost",          # edge name -> BlockMatrix (the starred generator)
    )


def generator_images(g: Graph, ring: RingDescriptor):
    """Images of the Leavitt generators in the block algebra, or an
    ExitWitness when the boundary-path space is infinite.

    Read straight off the frame: v maps to the sum of E_{r,r} over the
    rows r of paths starting at v; an edge e maps to the sum of
    E_{row(e.gamma),row(gamma)} over paths gamma starting at r(e),
    keyed on a lasso block by the net degree (1 - deg(e.gamma) +
    deg(gamma)) / |cycle|; the ghost e* to the transposes with the
    inverse keys.  Each image is built from its (unit, one) items."""
    gd = graph_groupoid(g)
    if isinstance(gd, ExitWitness):
        return gd
    shape = block_shape(gd, ring)
    where = {bp: (bi, r) for bi, o in enumerate(gd.orbits) for r, bp in enumerate(o.members)}
    one = RingElement.one(ring)
    vertex = {v: [] for v in g.vertices}  # name -> items
    edge = {e: [] for e in g.edge_names}
    ghost = {e: [] for e in g.edge_names}
    for bp, (bi, col) in where.items():
        orbit = gd.orbits[bi]
        v = path_start(g, bp)
        vertex[g.vertices[v]].append(((bi, col, col, 0), one))
        for e in g.in_edges(v):
            bj, row = where.get(prepend_edge(g, e, bp), (None, None))
            if bj != bi:
                raise InternalCheckError("prepended path leaves its orbit")
            net = 1 - orbit.degrees[row] + orbit.degrees[col]
            n = orbit.anchor.length() if orbit.kind == "cycle" else 1
            if net % n:
                raise InternalCheckError("lasso arrow degree not a multiple of the cycle length")
            key = net // n  # 0, the identity, on a sink block
            edge[g.edge_names[e]].append(((bi, row, col, key), one))
            ghost[g.edge_names[e]].append(((bi, col, row, -key), one))
    vertex, edge, ghost = (
        {name: BlockMatrix.build(shape, items) for name, items in terms.items()}
        for terms in (vertex, edge, ghost)
    )
    return GeneratorImages(g, gd, shape, vertex, edge, ghost)


def verify_leavitt_relations(g: Graph, ring: RingDescriptor, images: GeneratorImages | None = None) -> VerificationReport:
    """Exhaustively check the defining relations on the generator
    images: vertex idempotents orthogonal and summing to the identity,
    unit path relations, CK1 on all edge pairs, CK2 at every non-sink.
    For acyclic graphs over Q additionally confirm the generators span
    the whole block algebra: every path eta into a sink w maps to the
    matrix unit E_{eta,w} and its ghost to E_{w,eta}, so every monomial
    eta . gamma* maps to E_{eta,gamma}.  For graphs with cycles confirm
    each lasso block attains the Laurent variable x from its cycle
    word.  Raises OracleBudgetError above LEAVITT_VERIFY_LIMIT boundary
    paths.

    Every relation is multiplied out once as block matrices over the
    ring.  Of the V^2 vertex and E^2 CK1 pairs, only those where some
    column of the left factor is a row of the right one are multiplied;
    every other product is zero, which the expected 0 equals.  On valid
    images that makes V + 6E products, plus |c| - 1 per cycle c and the
    span check's 2(P - S) for P boundary paths into S sinks.  A check
    carries its failure text as a format and its arguments, and the
    text is built only when the check fails."""
    gd = images.decomposition if images is not None else graph_groupoid(g)
    if isinstance(gd, ExitWitness):
        raise ValueError("boundary-path space is infinite; no finite block algebra")
    if gd.boundary_count() > LEAVITT_VERIFY_LIMIT:
        raise OracleBudgetError(
            f"graph has {gd.boundary_count()} boundary paths; "
            f"the relation verification budget stops at {LEAVITT_VERIFY_LIMIT}"
        )
    if images is None:
        images = generator_images(g, ring)
    vertex, edge, ghost = images.vertex, images.edge, images.ghost
    zero = BlockMatrix.zero(images.shape)
    total = 0
    failures = []

    def record(ok: bool, label: str, *args):
        nonlocal total
        total += 1
        if not ok:
            failures.append(label.format(*args))

    def pairs(label, names, lefts, rights, diagonal):
        """The checks lefts[i] * rights[j] == (diagonal[i] if i == j
        else 0), for every i and then every j, labelled with names[i]
        and names[j].  Only j = i and the j whose matrix has a row at a
        column of left i are multiplied; every other product is zero,
        and the check passes."""
        nonlocal total
        owners: dict = {}  # (block, row) -> the j whose matrix has that row
        for j, m in enumerate(rights):
            for row in m.row_index():
                owners.setdefault(row, []).append(j)
        for i, m in enumerate(lefts):
            js = {i}
            for (bi, _, col, _), _ in m.entries:
                js.update(owners.get((bi, col), ()))
            for j in sorted(js):
                if m * rights[j] != (diagonal[i] if i == j else zero):
                    failures.append(label.format(names[i], names[j]))
            total += len(rights)

    vertices = [vertex[u] for u in g.vertices]
    pairs("vertex idempotents: {} * {}", g.vertices, vertices, vertices, vertices)
    record(BlockMatrix.sum(images.shape, vertices) == BlockMatrix.identity(images.shape),
           "vertex sum = identity")

    for e in range(g.edge_count):
        en = g.edge_names[e]
        sv = g.vertices[g.src[e]]
        rv = g.vertices[g.dst[e]]
        x, y = edge[en], ghost[en]
        record(vertex[sv] * x == x, "unit path: {} . {}", sv, en)
        record(x * vertex[rv] == x, "unit path: {} . {}", en, rv)
        record(vertex[rv] * y == y, "unit path: {} . {}*", rv, en)
        record(y * vertex[sv] == y, "unit path: {}* . {}", en, sv)

    edges = g.edge_names
    pairs("CK1: {}* . {}", edges,
          [ghost[en] for en in edges], [edge[en] for en in edges],
          [vertex[g.vertices[g.dst[e]]] for e in range(g.edge_count)])

    for v in range(len(g.vertices)):
        outs = [g.edge_names[e] for e in g.out_edges(v)]
        if outs:
            vn = g.vertices[v]
            terms = [edge[en] * ghost[en] for en in outs]
            record(BlockMatrix.sum(images.shape, terms) == vertex[vn], "CK2 at {}", vn)

    if not images.decomposition.has_cycle() and isinstance(ring, Rationals):
        n = _attained_matrix_units(images)
        expect_dim = images.shape.dimension
        record(n == expect_dim, "generated subalgebra fills the block algebra ({} vs {})",
               n, expect_dim)
    for bi, orbit in enumerate(images.decomposition.orbits):
        if orbit.kind != "cycle":
            continue
        word = reduce(operator.mul, (edge[g.edge_names[e]] for e in orbit.anchor.edges))
        x = GroupAlgebraElement.delta(orbit.isotropy, images.shape.ring, 1)
        record(word.entry(bi, 0, 0) == x, "cycle word attains x in block {}", bi)

    return VerificationReport("Leavitt relation checks", total, tuple(failures))


def _attained_matrix_units(images: GeneratorImages) -> int:
    """Number of pairs (eta, gamma) of paths into one sink w whose
    monomial eta . gamma* the count shows to map to E_{eta,gamma}: per
    sink orbit, rows eta with img(eta) = E_{eta,w} times columns gamma
    with ghost(gamma) = E_{w,gamma}, since then img(eta) ghost(gamma) =
    E_{eta,w} E_{w,gamma} = E_{eta,gamma}.  When all pairs are attained
    the generators span the whole block algebra.  Each path's image is
    built once from its suffix, a shorter member of the same orbit, so
    this takes 2(P - S) products for P paths into S sinks.  Only
    meaningful for acyclic graphs, where every key is 0."""
    g = images.graph
    img: dict = {}    # (edges, sink) -> image of the path
    ghost: dict = {}  # (edges, sink) -> image of its ghost
    attained = 0
    for bi, orbit in enumerate(images.decomposition.orbits):
        rows = cols = 0
        # members sort by length first, so every suffix is already built
        # and members[0] is the empty path w at row 0
        for r, bp in enumerate(orbit.members):
            key = (bp.edges, bp.sink)
            if not bp.edges:
                img[key] = ghost[key] = images.vertex[g.vertices[bp.sink]]
            else:
                first = g.edge_names[bp.edges[0]]
                rest = (bp.edges[1:], bp.sink)
                img[key] = images.edge[first] * img[rest]
                ghost[key] = ghost[rest] * images.ghost[first]
            rows += img[key].unit_index() == (bi, r, 0, 0)
            cols += ghost[key].unit_index() == (bi, 0, r, 0)
        attained += rows * cols
    return attained


def as_finite_groupoid(g: Graph):
    """Materialize the boundary-path groupoid of an acyclic graph as an
    explicit finite groupoid, for cross-checks by exhaustive tools.
    Arrows w{i}_{j} pair boundary paths i, j at the same sink, composing
    like matrix units."""
    from .groupoid import FiniteGroupoid

    gd = graph_groupoid(g)
    if isinstance(gd, ExitWitness) or gd.has_cycle():
        raise ValueError("graph has a cycle; its boundary-path groupoid is not finite")
    names = [render_path(g, bp) for orbit in gd.orbits for bp in orbit.members]
    arrows, dom, cod, inv, rows = [], [], [], [], []
    identity_of = [None] * len(names)
    start = 0
    for orbit in gd.orbits:
        # the orbit's paths are contiguous, and so are its arrows, row by row
        n = len(orbit.members)
        paths = range(start, start + n)
        offset = len(arrows) - start * (n + 1)  # w{i}_{j} is arrow offset + i*n + j
        for i in paths:
            identity_of[i] = offset + i * n + i
            for j in paths:
                arrows.append(f"w{i}_{j}")
                dom.append(j)
                cod.append(i)
                inv.append(offset + j * n + i)
                # w{i}_{j} after w{j}_{k} is w{i}_{k}
                rows.append({offset + j * n + k: offset + i * n + k for k in paths})
        start += n
    return FiniteGroupoid(tuple(names), tuple(arrows), tuple(dom), tuple(cod),
                          tuple(identity_of), tuple(rows), tuple(inv))


def leavitt_verdicts(g: Graph, ring: RingDescriptor) -> Verdict:
    """Chain conditions of L_R(E), decided from the graph:

      Noetherian  iff R Noetherian and no cycle has an exit;
      Artinian    iff R Artinian and the graph is acyclic;
      semisimple  iff R is a finite product of fields and the graph is
                  acyclic.

    When (NE) holds the same questions are answered independently by
    the verdict engine on the boundary-path groupoid's block layout,
    and the two routes must agree."""
    preds = ring_predicates(ring)
    gd = graph_groupoid(g)
    if isinstance(gd, ExitWitness):
        cyc, exit_name, family = witness_names(g, gd)
        lines = (
            f"condition (NE) fails: cycle ({cyc}) has exit edge '{exit_name}'; "
            f"the sets {family} are infinitely many disjoint "
            f"nonempty pieces of the boundary-path space [{CITE_BLOCK}]",
            f"not Noetherian for any coefficient ring [{CITE_BLOCK}]",
            f"not Artinian: the graph has a cycle [{CITE_CONNELL}]",
            f"not semisimple: the graph has a cycle [{CITE_MASCHKE}]",
        )
        return Verdict(False, False, False, "infinite", lines)

    acyclic = not gd.has_cycle()
    graph_route = (
        preds.noetherian,
        preds.artinian and acyclic,
        preds.field_product and acyclic,
    )
    chain = verdicts(block_shape(gd, ring))
    if graph_route != (chain.noetherian, chain.artinian, chain.semisimple):
        raise InternalCheckError(
            f"graph-side verdicts {graph_route} disagree with the block "
            f"decomposition verdicts"
        )
    lines = [
        f"condition (NE) holds; boundary-path space has {gd.boundary_count()} "
        f"paths [{CITE_BLOCK}]"
    ]
    if acyclic:
        lines.append(f"graph is acyclic: all isotropy trivial [{CITE_BLOCK}]")
    else:
        lines.append(
            f"cycles without exits give infinite cyclic isotropy and Laurent "
            f"entries [{CITE_HILBERT}]"
        )
    lines.extend(chain.justification)
    return chain._replace(justification=tuple(lines))
