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
from dataclasses import dataclass, replace
from functools import reduce

from .errors import InternalCheckError, OracleBudgetError, ParseError
from .group_algebra import (
    BlockMatrix,
    BlockShape,
    FiniteGroupTable,
    GroupAlgebraElement,
    IndexMap,
    IntegerGroup,
    NotAnIndexMap,
)
from .groupoid import OrbitSummary, StructuredGroupoid
from .rings import Rationals, RingDescriptor, ring_predicates
from .algebra import VerificationReport
from .verdicts import (
    CITE_BLOCK,
    CITE_CONNELL,
    CITE_HILBERT,
    CITE_MASCHKE,
    Verdict,
    verdicts,
)

_TRIVIAL = FiniteGroupTable.from_table([[0]], name="1")

# largest boundary-path count verify_leavitt_relations takes; every
# vertex and every edge starts some boundary path, so this also bounds
# the vertex and edge counts.  At the limit `graph --verify` takes about
# 0.7 s on the slowest shape measured (480 disjoint loops, one block
# each), 0.1 s on a 480-vertex chain.
LEAVITT_VERIFY_LIMIT = 480


@dataclass(frozen=True)
class Graph:
    vertices: tuple
    edge_names: tuple
    src: tuple
    dst: tuple

    def __post_init__(self):
        object.__setattr__(self, "_vindex", {v: i for i, v in enumerate(self.vertices)})
        object.__setattr__(self, "_eindex", {e: i for i, e in enumerate(self.edge_names)})
        object.__setattr__(self, "_groupoid", None)  # graph_groupoid() memo

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

    def out_edges(self, v: int):
        return [e for e in range(len(self.edge_names)) if self.src[e] == v]

    def is_sink(self, v: int) -> bool:
        return not self.out_edges(v)

    @property
    def edge_count(self) -> int:
        return len(self.edge_names)


def parse_graph(text: str) -> Graph:
    """Line format:

        vertices: u v
        edge e : u -> v

    '#' comments and blank lines allowed."""
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


def render_graph(g: Graph) -> str:
    lines = ["vertices: " + " ".join(g.vertices)]
    for e in range(g.edge_count):
        lines.append(
            f"edge {g.edge_names[e]} : {g.vertices[g.src[e]]} -> {g.vertices[g.dst[e]]}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Cycle:
    """A simple directed cycle, canonically rotated so that the source
    of the first edge is the least vertex name on the cycle."""

    edges: tuple  # edge indices

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


@dataclass(frozen=True)
class ExitWitness:
    """A cycle together with an edge leaving it: condition (NE) fails
    and the sets Z(cycle^n exit), n >= 0, are infinitely many nonempty
    disjoint pieces of the boundary-path space."""

    cycle: Cycle
    exit_edge: int


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


@dataclass(frozen=True)
class SinkPath:
    """Finite path ending at a sink; empty edges means the sink alone."""

    edges: tuple  # edge indices, in walking order
    sink: int     # vertex index


@dataclass(frozen=True)
class Lasso:
    """spoke (no cycle edges) followed by the cycle repeated forever,
    entering at position entry_pos of the canonical rotation."""

    spoke: tuple
    cycle: Cycle
    entry_pos: int

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

    in_edges: list = [[] for _ in g.vertices]
    for e in sorted(range(g.edge_count), key=lambda e: g.edge_names[e]):
        in_edges[g.dst[e]].append(e)

    paths = []

    def extend_backward(start, forbidden):
        """Every vertex-simple path ending at start, in depth-first
        preorder, the empty path first.  The stack is explicit, so long
        chains cannot exhaust the recursion limit."""
        store: list = [()]
        visited = {start}
        stack = [((), iter(in_edges[start]))]
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
            stack.append((new_edges, iter(in_edges[u])))
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


def _normalize_lasso(g: Graph, bp: Lasso) -> Lasso:
    canon = _canonical_cycle(g, bp.cycle.edges)
    if canon == bp.cycle:
        return bp
    shift = canon.edges.index(bp.cycle.edges[0])
    return Lasso(bp.spoke, canon, (bp.entry_pos + shift) % canon.length())


def is_arrow(g: Graph, eta, k: int, gamma) -> bool:
    """Is (eta, k, gamma) an arrow of the boundary-path groupoid, i.e.
    eta = alpha delta, gamma = beta delta with k = |alpha| - |beta|?"""
    _check_path_in_graph(g, eta)
    _check_path_in_graph(g, gamma)
    if isinstance(eta, SinkPath) and isinstance(gamma, SinkPath):
        return eta.sink == gamma.sink and k == len(eta.edges) - len(gamma.edges)
    if isinstance(eta, Lasso) and isinstance(gamma, Lasso):
        eta = _normalize_lasso(g, eta)
        gamma = _normalize_lasso(g, gamma)
        if eta.cycle != gamma.cycle:
            return False
        return (k - (eta.offset() - gamma.offset())) % eta.cycle.length() == 0
    return False


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


@dataclass(frozen=True)
class GraphOrbit:
    kind: str          # "sink" or "cycle"
    anchor: object     # vertex index or Cycle
    members: tuple     # boundary paths, sorted; members[0] is the basepoint
    degrees: tuple     # connecting degree basepoint -> member
    isotropy: object   # FiniteGroupTable (trivial) or IntegerGroup


@dataclass(frozen=True)
class GraphDecomposition:
    graph: Graph
    orbits: tuple
    structured: StructuredGroupoid

    def boundary_count(self) -> int:
        return sum(len(o.members) for o in self.orbits)

    def has_cycle(self) -> bool:
        # under (NE) every cycle of the graph owns a lasso orbit
        return any(o.kind == "cycle" for o in self.orbits)


def graph_groupoid(g: Graph):
    """Orbit/frame layout of the boundary-path groupoid, or the
    ExitWitness of condition_ne when the space is infinite.

    Computed once per Graph, which is frozen, and memoised on it: this
    is the one place a report enumerates cycles, decides (NE) and walks
    the boundary paths, and every other stage reads this result."""
    if g._groupoid is None:
        object.__setattr__(g, "_groupoid", _boundary_path_groupoid(g))
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
        members = tuple(sorted(sink_groups[v], key=lambda bp: _path_sort_key(g, bp)))
        degrees = tuple(len(bp.edges) - len(members[0].edges) for bp in members)
        orbits.append(GraphOrbit("sink", v, members, degrees, _TRIVIAL))
    for c in sorted(cycle_groups, key=lambda c: _cycle_sort_key(g, c)):
        members = tuple(sorted(cycle_groups[c], key=lambda bp: _path_sort_key(g, bp)))
        base = members[0]
        n = c.length()
        degrees = tuple((bp.offset() - base.offset()) % n for bp in members)
        orbits.append(GraphOrbit("cycle", c, members, degrees, IntegerGroup()))
    structured = StructuredGroupoid(
        tuple(OrbitSummary(len(o.members), o.isotropy) for o in orbits)
    )
    return GraphDecomposition(g, tuple(orbits), structured)


def block_shape(gd: GraphDecomposition, ring: RingDescriptor) -> BlockShape:
    return BlockShape(ring, tuple((len(o.members), o.isotropy) for o in gd.orbits))


@dataclass
class GeneratorImages:
    graph: Graph
    ring: RingDescriptor
    decomposition: GraphDecomposition
    shape: BlockShape
    vertex: dict   # vertex name -> BlockMatrix
    edge: dict     # edge name -> BlockMatrix
    ghost: dict    # edge name -> BlockMatrix (the starred generator)


def generator_images(g: Graph, ring: RingDescriptor):
    """Images of the Leavitt generators in the block algebra, or an
    ExitWitness when the boundary-path space is infinite.

    Read straight off the frame: v maps to the sum of E_{r,r} over the
    rows r of paths starting at v; an edge e maps to the sum of
    E_{row(e.gamma),row(gamma)} over paths gamma starting at r(e),
    keyed on a lasso block by the net degree (1 - deg(e.gamma) +
    deg(gamma)) / |cycle|; the ghost e* to the transposes with the
    inverse keys."""
    gd = graph_groupoid(g)
    if isinstance(gd, ExitWitness):
        return gd
    shape = block_shape(gd, ring)
    where = {bp: (bi, r) for bi, o in enumerate(gd.orbits) for r, bp in enumerate(o.members)}
    delta = GroupAlgebraElement.delta
    vertex = {v: [[] for _ in shape.blocks] for v in g.vertices}
    edge = {e: [[] for _ in shape.blocks] for e in g.edge_names}
    ghost = {e: [[] for _ in shape.blocks] for e in g.edge_names}
    for bp, (bi, col) in where.items():
        orbit = gd.orbits[bi]
        v = path_start(g, bp)
        vertex[g.vertices[v]][bi].append(((col, col), delta(orbit.isotropy, ring, 0)))
        for e in range(g.edge_count):
            if g.dst[e] != v:
                continue
            bj, row = where.get(prepend_edge(g, e, bp), (None, None))
            if bj != bi:
                raise InternalCheckError("prepended path leaves its orbit")
            net = 1 - orbit.degrees[row] + orbit.degrees[col]
            n = orbit.anchor.length() if orbit.kind == "cycle" else 1
            if net % n:
                raise InternalCheckError("lasso arrow degree not a multiple of the cycle length")
            key = net // n  # 0, the identity, on a sink block
            edge[g.edge_names[e]][bi].append(((row, col), delta(orbit.isotropy, ring, key)))
            ghost[g.edge_names[e]][bi].append(((col, row), delta(orbit.isotropy, ring, -key)))
    vertex, edge, ghost = (
        {name: BlockMatrix.build(shape, items) for name, items in terms.items()}
        for terms in (vertex, edge, ghost)
    )
    return GeneratorImages(g, ring, gd, shape, vertex, edge, ghost)


def _generator_matrices(images: GeneratorImages) -> dict:
    """Every generator image by (kind, name): "v" a vertex, "e" an
    edge, "g" the ghost of an edge."""
    out = {}
    for kind, table in (("v", images.vertex), ("e", images.edge), ("g", images.ghost)):
        for name, m in table.items():
            out[kind, name] = m
    return out


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

    The checks run on index maps.  Each image is read once, off the
    block matrix being verified, as the partial map (block, row) ->
    (col, key) of its coefficient-one entries; products, sums and
    comparisons are compositions, unions and dict comparisons of these
    maps, and of the V^2 vertex and E^2 CK1 pairs only those whose maps
    meet are composed, every other composite being the empty map that
    the expected 0 equals.  The first check of every run, and every
    check that meets an image or a sum that is not an index map,
    multiplies in full as BlockMatrix products over the ring, so when
    every image is a map the relation checks make one such product
    outside the span check."""
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
    full = _generator_matrices(images)
    full["0", None] = BlockMatrix.zero(images.shape)
    full["1", None] = BlockMatrix.identity(images.shape)
    for bi, orbit in enumerate(images.decomposition.orbits):
        if orbit.kind == "cycle":
            full["x", bi] = BlockMatrix.matrix_unit(images.shape, bi, 0, 0, key=1)
    maps = {key: IndexMap.read(m) for key, m in full.items()}

    def block_matrix(kind, name=None):
        return full[kind, name]

    def index_map(kind, name=None):
        found = maps[kind, name]
        if found is None:
            raise NotAnIndexMap(f"{kind} {name}")
        return found

    total = 0
    passed = 0
    failures = []

    def record(ok: bool, label: str):
        nonlocal total, passed
        total += 1
        if ok:
            passed += 1
        else:
            failures.append(label)

    def check(label: str, relation):
        """relation(value) decides the check, value(kind, name) giving
        each operand; on index maps unless this is the run's first
        check or some operand or sum is not one."""
        ok = None
        if total:
            try:
                ok = relation(index_map)
            except NotAnIndexMap:
                pass
        if ok is None:
            ok = relation(block_matrix)
        record(ok, label)

    def pairs(label, lefts, rights, diagonal):
        """The checks lefts[i] * rights[j] == (diagonal[i] if i == j
        else 0), for every i and then every j.  Composing left i looks
        up the rows its columns lead to, so only the j whose map has
        such a row, j = i, and the j that are not maps need a check of
        their own: for every other j both are maps whose composite is
        the empty map, which is the expected 0, and the check passes."""
        nonlocal total, passed
        owners: dict = {}  # (block, row) -> the j whose map has that row
        unread = []        # the j that are not index maps
        for j, key in enumerate(rights):
            if maps[key] is None:
                unread.append(j)
            else:
                for row in maps[key].rows:
                    owners.setdefault(row, []).append(j)
        for i, key in enumerate(lefts):
            if maps[key] is None:
                js = range(len(rights))
            else:
                js = {i, *unread}
                for (bi, _), (col, _) in maps[key].rows.items():
                    js.update(owners.get((bi, col), ()))
                js = sorted(js)
            for j in js:
                check(label(i, j), lambda m: m(*lefts[i]) * m(*rights[j])
                      == (m(*diagonal[i]) if i == j else m("0")))
            total += len(rights) - len(js)
            passed += len(rights) - len(js)

    names = list(g.vertices)
    vertices = [("v", u) for u in names]
    pairs(lambda i, j: f"vertex idempotents: {names[i]} * {names[j]}",
          vertices, vertices, vertices)
    check("vertex sum = identity",
          lambda m: reduce(operator.add, (m("v", v) for v in names)) == m("1"))

    for e in range(g.edge_count):
        en = g.edge_names[e]
        sv = g.vertices[g.src[e]]
        rv = g.vertices[g.dst[e]]
        check(f"unit path: {sv} . {en}", lambda m: m("v", sv) * m("e", en) == m("e", en))
        check(f"unit path: {en} . {rv}", lambda m: m("e", en) * m("v", rv) == m("e", en))
        check(f"unit path: {rv} . {en}*", lambda m: m("v", rv) * m("g", en) == m("g", en))
        check(f"unit path: {en}* . {sv}", lambda m: m("g", en) * m("v", sv) == m("g", en))

    edges = g.edge_names
    pairs(lambda i, j: f"CK1: {edges[i]}* . {edges[j]}",
          [("g", en) for en in edges], [("e", en) for en in edges],
          [("v", g.vertices[g.dst[e]]) for e in range(g.edge_count)])

    for v in range(len(g.vertices)):
        outs = [g.edge_names[e] for e in g.out_edges(v)]
        if outs:
            vn = g.vertices[v]
            check(f"CK2 at {vn}",
                  lambda m: reduce(operator.add, (m("e", en) * m("g", en) for en in outs))
                  == m("v", vn))

    if not images.decomposition.has_cycle() and isinstance(ring, Rationals):
        n = _attained_matrix_units(images)
        expect_dim = sum(len(o.members) ** 2 for o in images.decomposition.orbits)
        record(n == expect_dim,
               f"generated subalgebra fills the block algebra ({n} vs {expect_dim})")
    for bi, orbit in enumerate(images.decomposition.orbits):
        if orbit.kind != "cycle":
            continue
        word = [g.edge_names[e] for e in orbit.anchor.edges]
        check(f"cycle word attains x in block {bi}",
              lambda m: reduce(operator.mul, (m("e", en) for en in word)).entry(bi, 0, 0)
              == m("x", bi).entry(bi, 0, 0))

    return VerificationReport("Leavitt relation checks", total, passed, tuple(failures))


def _attained_matrix_units(images: GeneratorImages) -> int:
    """Number of pairs (eta, gamma) of paths into one sink w whose
    monomial eta . gamma* the count shows to map to E_{eta,gamma}: per
    sink orbit, rows eta with img(eta) = E_{eta,w} times columns gamma
    with ghost(gamma) = E_{w,gamma}, since then img(eta) ghost(gamma) =
    E_{eta,w} E_{w,gamma} = E_{eta,gamma}.  When all pairs are attained
    the generators span the whole block algebra.  Each path's image is
    built once from its suffix, a shorter member of the same orbit, so
    this takes at most 2P products for P paths.  They compose index
    maps, except the first, which multiplies the block matrices over
    the ring and reads the result back; when some generator image is
    not an index map every product is a block matrix product.  Only
    meaningful for acyclic graphs."""
    g = images.graph
    full = _generator_matrices(images)
    maps = {key: IndexMap.read(m) for key, m in full.items()}
    on_maps = all(m is not None for m in maps.values())
    table, unit = (maps, IndexMap.unit) if on_maps else (full, BlockMatrix.matrix_unit)
    pending = on_maps  # the first product still to multiply in full
    img: dict = {}    # (edges, sink) -> image of the path
    ghost: dict = {}  # (edges, sink) -> image of its ghost
    attained = 0
    for bi, orbit in enumerate(images.decomposition.orbits):
        rows = cols = 0
        # members sort by length first, so every suffix is already built
        # and members[0] is the empty path w at row 0
        for r, bp in enumerate(orbit.members):
            key = (bp.edges, bp.sink)
            sink = g.vertices[bp.sink]
            if not bp.edges:
                img[key] = ghost[key] = table["v", sink]
            else:
                first = g.edge_names[bp.edges[0]]
                rest = (bp.edges[1:], bp.sink)
                if pending and len(bp.edges) == 1:
                    pending = False
                    img[key] = IndexMap.read(full["e", first] * full["v", sink])
                else:
                    img[key] = table["e", first] * img[rest]
                ghost[key] = ghost[rest] * table["g", first]
            rows += img[key] == unit(images.shape, bi, r, 0)
            cols += ghost[key] == unit(images.shape, bi, 0, r)
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
    names = []
    orbit_of = []
    for oi, orbit in enumerate(gd.orbits):
        for bp in orbit.members:
            names.append(render_path(g, bp))
            orbit_of.append(oi)
    pairs = [
        (i, j)
        for i in range(len(names))
        for j in range(len(names))
        if orbit_of[i] == orbit_of[j]
    ]
    aindex = {p: a for a, p in enumerate(pairs)}
    arrows = [f"w{i}_{j}" for i, j in pairs]
    dom = [j for _, j in pairs]
    cod = [i for i, _ in pairs]
    identity_of = [aindex[(i, i)] for i in range(len(names))]
    inv = [aindex[(j, i)] for i, j in pairs]
    comp = {}
    for (i, j), a in aindex.items():
        for k in range(len(names)):
            if orbit_of[k] == orbit_of[j]:
                comp[(a, aindex[(j, k)])] = aindex[(i, k)]
    return FiniteGroupoid.make(names, arrows, dom, cod, identity_of, comp, inv)


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
    chain = verdicts(gd.structured, ring)
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
    return replace(chain, justification=tuple(lines))
