"""Leavitt path algebras through the boundary-path groupoid."""
import itertools
import pathlib
import random

import pytest

from corpus import chain_graph, graph_corpus, in_tree_graph
from support import (
    is_arrow,
    paths_to_sinks,
    reference_as_finite_groupoid,
    reference_attained_matrix_units,
    reference_generated_dimension,
    reference_generator_images,
    reference_path_unit_count,
    reference_verify_leavitt_relations,
    truncation_is_arrow,
)

import gpdalg.leavitt
from gpdalg import (
    BlockMatrix,
    Cycle,
    ExitWitness,
    Graph,
    GroupAlgebraElement,
    IntegerGroup,
    Lasso,
    OracleBudgetError,
    ParseError,
    Q,
    SinkPath,
    Z,
    as_finite_groupoid,
    boundary_paths,
    condition_ne,
    decompose,
    enumerate_cycles,
    generator_images,
    graph_groupoid,
    leavitt_verdicts,
    parse_graph,
    parse_ring_descriptor,
    path_start,
    prepend_edge,
    render_graph,
    render_path,
    validate,
    verdicts,
    verify_leavitt_relations,
)
from gpdalg.group_algebra import IndexMap
from gpdalg.leavitt import _attained_matrix_units, _generator_matrices, block_shape

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

GF2 = parse_ring_descriptor("GF(2)")
Z6 = parse_ring_descriptor("Z/6")
LQ = parse_ring_descriptor("Laurent(Q)")
QxGF3 = parse_ring_descriptor("Product(Q, GF(3))")

GRAPHS = {name: g for name, g, _ in graph_corpus()}
NE_GRAPHS = [(name, g) for name, g, finite in graph_corpus() if finite]
EXIT_GRAPHS = [(name, g) for name, g, finite in graph_corpus() if not finite]


def test_parse_render_round_trip():
    for name, g, _ in graph_corpus():
        assert parse_graph(render_graph(g)) == g, name


@pytest.mark.parametrize("bad, fragment", [
    ("vertices: u v\nedge e1 : u -> v\nedge e2 : v -> w\n", "not declared"),
    ("vertices: u v\nedge e : w -> v\n", "not declared"),
    ("vertices: u u\n", "twice"),
    ("vertices: u\nedge e : u -> u\nedge e : u -> u\n", "twice"),
    ("vertices: u\nloop e at u\n", "unknown directive"),
    ("", "no vertices"),
])
def test_parse_rejects(bad, fragment):
    with pytest.raises(ParseError) as exc:
        parse_graph(bad)
    assert fragment in str(exc.value)


def test_a2_boundary_paths():
    g = GRAPHS["a2"]
    paths = boundary_paths(g)
    assert [render_path(g, bp) for bp in paths] == ["(v1)", "e0"]


def test_fixture_graphs_decompose_as_expected():
    a3 = parse_graph((FIXTURES / "a3.quiv").read_text())
    gd = graph_groupoid(a3)
    assert gd.boundary_count() == 3
    assert leavitt_verdicts(a3, Q).shape_string == "M_3(Q)"
    loop_spoke = parse_graph((FIXTURES / "loop_spoke.quiv").read_text())
    assert leavitt_verdicts(loop_spoke, Q).shape_string == "M_2(Laurent(Q))"


def test_boundary_finiteness_matches_no_exit_condition():
    for name, g, finite in graph_corpus():
        holds, witness = condition_ne(g)
        assert holds == finite, name
        paths = boundary_paths(g)
        if finite:
            assert isinstance(paths, list) and witness is None, name
        else:
            assert isinstance(paths, ExitWitness), name
            assert paths.exit_edge not in set(paths.cycle.edges), name


def test_exit_witness_generates_infinitely_many_prefixes():
    for name, g in EXIT_GRAPHS:
        witness = boundary_paths(g)
        edges = witness.cycle.edges
        start = next(i for i, e in enumerate(edges)
                     if g.src[e] == g.src[witness.exit_edge])
        rot = edges[start:] + edges[:start]
        seen = set()
        for n in range(6):
            word = rot * n + (witness.exit_edge,)
            for a, b in zip(word, word[1:]):
                assert g.dst[a] == g.src[b], name
            assert word not in seen
            seen.add(word)
            # the word always continues to a boundary path: walk forward
            # greedily until a sink or a revisited vertex stops us
            at = g.dst[word[-1]]
            visited = set()
            while not g.is_sink(at) and at not in visited:
                visited.add(at)
                at = g.dst[g.out_edges(at)[0]]
        assert len(seen) == 6, name


def test_rose2_witness_names():
    g = GRAPHS["rose2"]
    holds, witness = condition_ne(g)
    assert not holds
    assert [g.edge_names[e] for e in witness.cycle.edges] == ["e"]
    assert g.edge_names[witness.exit_edge] == "f"


def test_is_arrow_matches_truncation_oracle():
    for name, g in NE_GRAPHS:
        paths = boundary_paths(g)
        span = 2 * len(g.vertices)
        for eta, gamma in itertools.product(paths, repeat=2):
            for k in range(-span, span + 1):
                assert is_arrow(g, eta, k, gamma) == truncation_is_arrow(g, eta, k, gamma), (
                    name, render_path(g, eta), k, render_path(g, gamma)
                )


def test_is_arrow_accepts_non_canonical_cycle_rotations():
    g = GRAPHS["c3"]
    x, y, z = (g.edge_index(n) for n in ("x", "y", "z"))
    at_b = Lasso((), Cycle((y, z, x)), 0)
    same_path = Lasso((), Cycle((x, y, z)), 1)
    assert is_arrow(g, at_b, 0, same_path)
    assert is_arrow(g, at_b, 3, same_path)
    assert not is_arrow(g, at_b, 1, same_path)


def test_sink_orbits_match_backward_path_counts():
    for name, g in NE_GRAPHS:
        gd = graph_groupoid(g)
        expected = paths_to_sinks(g) if not enumerate_cycles(g) else None
        sinks = {o.anchor: len(o.members) for o in gd.orbits if o.kind == "sink"}
        if expected is not None:
            assert sinks == expected, name


def test_acyclic_block_sizes_and_dimension():
    cases = {"a3": 9, "parallel2": 9, "star3": 3 * 4, "tree7": 4 * 9, "a5": 25}
    for name, expected_dim in cases.items():
        g = GRAPHS[name]
        counts = paths_to_sinks(g)
        assert sum(c * c for c in counts.values()) == expected_dim, name
        gd = graph_groupoid(g)
        assert sum(len(o.members) ** 2 for o in gd.orbits) == expected_dim, name


def test_lasso_orbits_carry_the_infinite_isotropy():
    for name, g in NE_GRAPHS:
        gd = graph_groupoid(g)
        cycle_orbits = [o for o in gd.orbits if o.kind == "cycle"]
        assert len(cycle_orbits) == len(enumerate_cycles(g)), name
        for o in gd.orbits:
            if o.kind == "cycle":
                assert isinstance(o.isotropy, IntegerGroup), name
            else:
                assert o.isotropy.is_trivial, name


def test_relations_hold_for_every_no_exit_graph():
    for name, g in NE_GRAPHS:
        for ring in (Q, Z):
            report = verify_leavitt_relations(g, ring)
            assert report.ok, (name, ring, report.failures[:3])
            assert report.total >= len(g.vertices) ** 2


def test_prepend_edge_walks_around_the_cycle():
    g = GRAPHS["c3"]
    x, y, z = (g.edge_index(n) for n in ("x", "y", "z"))
    base = Lasso((), Cycle((x, y, z)), 0)
    at_c = prepend_edge(g, z, base)
    assert at_c == Lasso((), Cycle((x, y, z)), 2)
    at_b = prepend_edge(g, y, at_c)
    assert at_b == Lasso((), Cycle((x, y, z)), 1)
    assert prepend_edge(g, x, at_b) == base
    with pytest.raises(ValueError):
        prepend_edge(g, x, base)

    spoked = GRAPHS["c3_spoke"]
    s = spoked.edge_index("s")
    x2 = spoked.edge_index("x")
    y2 = spoked.edge_index("y")
    z2 = spoked.edge_index("z")
    lasso = Lasso((), Cycle((x2, y2, z2)), 0)
    assert prepend_edge(spoked, s, lasso) == Lasso((s,), Cycle((x2, y2, z2)), 0)

    a2 = GRAPHS["a2"]
    tip = SinkPath((), 1)
    assert prepend_edge(a2, 0, tip) == SinkPath((0,), 1)
    assert path_start(a2, prepend_edge(a2, 0, tip)) == 0


def test_materialized_groupoid_of_an_acyclic_graph():
    g = GRAPHS["a3"]
    fg = as_finite_groupoid(g)
    assert validate(fg) == []
    assert fg.arrow_count == 9
    assert decompose(fg, Q).shape.render() == "M_3(Q)"
    with pytest.raises(ValueError):
        as_finite_groupoid(GRAPHS["loop"])


def test_leavitt_verdict_examples():
    cases = [
        ("a3", Q, (True, True, True), "M_3(Q)"),
        ("a3", Z, (True, False, False), "M_3(Z)"),
        ("loop", Q, (True, False, False), "M_1(Laurent(Q))"),
        ("loop_spoke", Q, (True, False, False), "M_2(Laurent(Q))"),
        ("c3", Q, (True, False, False), "M_3(Laurent(Q))"),
        ("tree7", Q, (True, True, True), "M_3(Q) x M_3(Q) x M_3(Q) x M_3(Q)"),
        ("loop_u_a2", Q, (True, False, False), "M_2(Q) x M_1(Laurent(Q))"),
        ("tree7", GF2, (True, True, True), "M_3(GF(2)) x M_3(GF(2)) x M_3(GF(2)) x M_3(GF(2))"),
    ]
    for name, ring, expected, shape in cases:
        v = leavitt_verdicts(GRAPHS[name], ring)
        assert (v.noetherian, v.artinian, v.semisimple) == expected, name
        assert v.shape_string == shape, name


def test_two_routes_agree_on_every_no_exit_graph():
    for name, g in NE_GRAPHS:
        gd = graph_groupoid(g)
        for ring in (Q, Z, GF2, Z6):
            graph_view = leavitt_verdicts(g, ring)
            chain_view = verdicts(block_shape(gd, ring))
            assert (graph_view.noetherian, graph_view.artinian, graph_view.semisimple) == (
                chain_view.noetherian, chain_view.artinian, chain_view.semisimple
            ), (name, ring)
            assert graph_view.shape_string == chain_view.shape_string, (name, ring)


def test_exit_kills_every_chain_condition_over_every_ring_kind():
    rose2 = GRAPHS["rose2"]
    for ring in (Z, Q, GF2, Z6, LQ, QxGF3):
        v = leavitt_verdicts(rose2, ring)
        assert (v.noetherian, v.artinian, v.semisimple) == (False, False, False)
        assert v.shape_string == "infinite"
        assert "Z((e)^n.f)" in v.justification[0]
    for name, g in EXIT_GRAPHS:
        v = leavitt_verdicts(g, Q)
        assert not v.noetherian and v.shape_string == "infinite", name


def test_long_chains_and_cycles_do_not_recurse():
    n = 1200
    vs = [f"v{i:04d}" for i in range(n)]
    chain = Graph.make(vs, [(f"e{i:04d}", vs[i], vs[i + 1]) for i in range(n - 1)])
    assert enumerate_cycles(chain) == []
    paths = boundary_paths(chain)
    assert len(paths) == n
    assert [len(bp.edges) for bp in paths] == list(range(n))
    assert paths[-1].edges == tuple(range(n - 1)) and paths[-1].sink == n - 1

    ring = Graph.make(vs, [(f"e{i:04d}", vs[i], vs[(i + 1) % n]) for i in range(n)])
    lassos = boundary_paths(ring)
    assert [(bp.spoke, bp.entry_pos) for bp in lassos] == [((), pos) for pos in range(n)]
    assert {bp.cycle.edges for bp in lassos} == {tuple(range(n))}


def _out_tree(depth):
    """Complete binary tree, every edge pointing to the leaves."""
    n = 2 ** (depth + 1) - 1
    vs = [f"v{i}" for i in range(n)]
    return Graph.make(vs, [(f"e{i}", vs[(i - 1) // 2], vs[i]) for i in range(1, n)])


def _random_dags(seed, count, vertices, edges):
    """Seeded DAGs: each edge joins a lower-numbered vertex to a higher
    one, parallel edges allowed."""
    rng = random.Random(seed)
    vs = [f"v{i}" for i in range(vertices)]
    out = []
    for k in range(count):
        es = []
        for i in range(edges):
            s, t = sorted(rng.sample(range(vertices), 2))
            es.append((f"e{i}", vs[s], vs[t]))
        out.append((f"dag{k}", Graph.make(vs, es)))
    return out


SPAN_GRAPHS = (
    [(name, g) for name, g in NE_GRAPHS if not enumerate_cycles(g)]
    + [(f"chain{n}", chain_graph(n)) for n in range(1, 7)]
    + [(f"intree{n}", in_tree_graph(n)) for n in range(2, 8)]
    + [(f"outtree{d}", _out_tree(d)) for d in (1, 2)]
    + _random_dags(20261018, 6, 5, 6)
)


def _replaced(images, kind, items):
    """Copy of the generator images with some images of one kind
    (vertex, edge or ghost) replaced."""
    return images._replace(**{kind: {**getattr(images, kind), **items}})


IMAGE_RINGS = (Q, parse_ring_descriptor("GF(3)"), Z6, LQ)
RELATION_GRAPHS = (
    NE_GRAPHS
    + [(f"chain{n}", chain_graph(n)) for n in (1, 2, 5, 9)]
    + [(f"intree{n}", in_tree_graph(n)) for n in (2, 5, 9)]
)


def test_generator_images_match_the_arrow_by_arrow_reference():
    for name, g in RELATION_GRAPHS:
        for ring in IMAGE_RINGS:
            got = generator_images(g, ring)
            want = reference_generator_images(g, ring)
            assert got.shape == want.shape, (name, ring)
            assert got.vertex == want.vertex, (name, ring)
            assert got.edge == want.edge, (name, ring)
            assert got.ghost == want.ghost, (name, ring)


def _index_maps(images):
    """Each generator image read as an index map, as
    verify_leavitt_relations hands them to _attained_matrix_units."""
    return {key: IndexMap.read(m) for key, m in _generator_matrices(images).items()}


def test_matrix_unit_count_equals_the_closure_rank():
    for name, g in SPAN_GRAPHS:
        images = generator_images(g, Q)
        expected = sum(c * c for c in paths_to_sinks(g).values())
        maps = _index_maps(images)
        assert _attained_matrix_units(images, maps) == expected, name
        assert reference_attained_matrix_units(images, maps) == expected, name
        assert reference_generated_dimension(images) == expected, name


def test_tampered_images_never_pass_where_the_closure_fails(monkeypatch):
    reference_passes_swapped_edges = 0
    for name, g in SPAN_GRAPHS:
        if g.edge_count < 2:
            continue
        images = generator_images(g, Q)
        full = sum(c * c for c in paths_to_sinks(g).values())
        e, f = g.edge_names[:2]
        sink = next(v for v in g.vertices if g.is_sink(g.vertex_index(v)))
        other = next(v for v in g.vertices if v != sink)
        tampered = {
            "swapped edges": _replaced(
                images, "edge", {e: images.edge[f], f: images.edge[e]}),
            "zero ghost": _replaced(images, "ghost", {e: BlockMatrix.zero(images.shape)}),
            "swapped vertices": _replaced(
                images, "vertex", {sink: images.vertex[other], other: images.vertex[sink]}),
        }
        for kind, t in tampered.items():
            attained = _attained_matrix_units(t, _index_maps(t))
            rank = reference_generated_dimension(t)
            assert attained < full, (name, kind)
            assert rank == full or attained < full, (name, kind)
            ok = verify_leavitt_relations(g, Q, t).ok
            assert not ok, (name, kind)
            with monkeypatch.context() as m:
                m.setattr(gpdalg.leavitt, "_attained_matrix_units",
                          reference_attained_matrix_units)
                assert verify_leavitt_relations(g, Q, t).ok == ok, (name, kind)
            if kind == "swapped edges" and rank == full:
                reference_passes_swapped_edges += 1
    # the closure only sees the span, so swapping two edges goes unnoticed
    assert reference_passes_swapped_edges > 0


def test_span_check_makes_at_most_2p_products(monkeypatch):
    real_mul = BlockMatrix.__mul__
    calls = 0

    def counting_mul(self, other):
        nonlocal calls
        calls += 1
        return real_mul(self, other)

    for name, g in SPAN_GRAPHS + [("chain40", chain_graph(40))]:
        images = generator_images(g, Q)
        p = images.decomposition.boundary_count()
        maps = _index_maps(images)
        calls = 0
        monkeypatch.setattr(BlockMatrix, "__mul__", counting_mul)
        _attained_matrix_units(images, maps)
        monkeypatch.undo()
        assert calls <= 2 * p, (name, calls, p)
        # a graph without edges needs no product: its paths are its sinks
        assert (calls > 0) == (g.edge_count > 0), (name, calls, p)


def test_relation_verification_reads_each_image_once(monkeypatch):
    real_read = IndexMap.read
    reads = []

    def counting_read(m):
        reads.append(m)
        return real_read(m)

    monkeypatch.setattr(IndexMap, "read", staticmethod(counting_read))
    for name, g in SPAN_GRAPHS:
        reads.clear()
        assert verify_leavitt_relations(g, Q).ok, name
        # every generator image, 0 and 1 once, and the span check's one
        # product multiplied in full when the graph has an edge
        images = len(g.vertices) + 2 * g.edge_count
        assert len(reads) == images + 2 + (g.edge_count > 0), name


def test_relation_verification_has_a_boundary_path_budget(monkeypatch):
    chain4 = chain_graph(4)
    assert verify_leavitt_relations(chain4, Q).ok
    monkeypatch.setattr(gpdalg.leavitt, "LEAVITT_VERIFY_LIMIT", 4)
    assert verify_leavitt_relations(chain4, Q).ok
    monkeypatch.setattr(gpdalg.leavitt, "LEAVITT_VERIFY_LIMIT", 3)
    with pytest.raises(OracleBudgetError, match="4 boundary paths"):
        verify_leavitt_relations(chain4, Q)


def _outcome(report):
    return report.total, report.passed, report.failures


def test_relation_checks_match_the_block_matrix_reference():
    for name, g in RELATION_GRAPHS:
        for ring in IMAGE_RINGS:
            report = verify_leavitt_relations(g, ring)
            assert report.ok, (name, ring, report.failures[:3])
            assert _outcome(report) == _outcome(reference_verify_leavitt_relations(g, ring)), (
                name, ring)


def _rebuilt(m, entry):
    """m with each entry ((row, col), value) of block bi replaced by the
    items entry(bi, row, col, value) returns."""
    items: dict = {}
    for bi, cells in m.entries:
        for (row, col), val in cells:
            items.setdefault(bi, []).extend(entry(bi, row, col, val))
    return BlockMatrix.build(m.shape, items)


def _shifted_key(bi, row, col, val):
    # x^k -> x^(k+1) on a lasso block, sink blocks unchanged
    if not isinstance(val.group, IntegerGroup):
        return [((row, col), val)]
    return [((row, col), GroupAlgebraElement.make(
        val.group, val.ring, [(k + 1, c) for k, c in val.coeffs]))]


def _tampered_images(g, images):
    """Swapped edges, a zeroed ghost and swapped vertices where the
    graph has them, a cycle edge with its key shifted by one, and two
    images that are not index maps: an edge with coefficient 2 and an
    edge with a second entry in one of its rows."""
    out = {}
    e = g.edge_names[0] if g.edge_count else None
    if g.edge_count >= 2:
        f = g.edge_names[1]
        out["swapped edges"] = _replaced(images, "edge", {e: images.edge[f], f: images.edge[e]})
    if e is not None:
        out["zero ghost"] = _replaced(images, "ghost", {e: BlockMatrix.zero(images.shape)})
        out["coefficient 2"] = _replaced(images, "edge", {e: images.edge[e] + images.edge[e]})
        bi, cells = images.edge[e].entries[0]
        (row, col), val = cells[0]
        size = images.shape.blocks[bi][0]
        if size > 1:
            extra = BlockMatrix.matrix_unit(images.shape, bi, row, (col + 1) % size)
            out["two entries in a row"] = _replaced(images, "edge", {e: images.edge[e] + extra})
    sinks = [v for v in g.vertices if g.is_sink(g.vertex_index(v))]
    others = [v for v in g.vertices if v not in sinks[:1]]
    if sinks and others:
        s, o = sinks[0], others[0]
        out["swapped vertices"] = _replaced(
            images, "vertex", {s: images.vertex[o], o: images.vertex[s]})
    for orbit in images.decomposition.orbits:
        if orbit.kind == "cycle":
            c = g.edge_names[orbit.anchor.edges[0]]
            out["shifted cycle key"] = _replaced(
                images, "edge", {c: _rebuilt(images.edge[c], _shifted_key)})
            break
    return out


def test_tampered_images_fail_exactly_as_the_block_matrix_reference():
    seen = set()
    for name, g in RELATION_GRAPHS:
        for ring in IMAGE_RINGS:
            images = generator_images(g, ring)
            for kind, t in _tampered_images(g, images).items():
                seen.add(kind)
                report = verify_leavitt_relations(g, ring, t)
                assert not report.ok, (name, ring, kind)
                assert _outcome(report) == _outcome(reference_verify_leavitt_relations(g, ring, t)), (
                    name, ring, kind)
                if kind == "shifted cycle key":
                    assert any(f.startswith("cycle word attains x") for f in report.failures), (
                        name, ring)
                if ring == Q and not images.decomposition.has_cycle():
                    assert _attained_matrix_units(t, _index_maps(t)) == reference_path_unit_count(t), (
                        name, kind)
    assert seen == {"swapped edges", "zero ghost", "coefficient 2", "two entries in a row",
                    "swapped vertices", "shifted cycle key"}


def _count_products(monkeypatch):
    calls = []
    real_mul = BlockMatrix.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return real_mul(self, other)

    monkeypatch.setattr(BlockMatrix, "__mul__", counting_mul)
    return calls


def test_relation_checks_on_index_maps_make_one_product_per_run(monkeypatch):
    for name, g in RELATION_GRAPHS:
        for ring in IMAGE_RINGS:
            images = generator_images(g, ring)
            spans = ring == Q and not images.decomposition.has_cycle()
            calls = _count_products(monkeypatch)
            report = verify_leavitt_relations(g, ring, images)
            monkeypatch.undo()
            assert report.ok, (name, ring)
            # the run's first check, and the span check's first product
            assert len(calls) == 1 + (spans and g.edge_count > 0), (name, ring, len(calls))


@pytest.mark.parametrize("graph, ring, products", [
    # first check 1, unit paths v0.e0 and e0.v1 2, CK1 f*.e0 for f in
    # e0, e1 2, CK2 at v0 1
    ("chain3", parse_ring_descriptor("GF(3)"), 6),
    # first check 1, unit paths 2, CK1 f*.x for f in x, y, z 3, CK2 at
    # a 1, the cycle word x.y.z 2
    ("c3", Q, 9),
])
def test_checks_that_meet_an_image_that_is_not_a_map_multiply_in_full(
        monkeypatch, graph, ring, products):
    g = chain_graph(3) if graph == "chain3" else GRAPHS[graph]
    images = generator_images(g, ring)
    e = g.edge_names[0]
    doubled = _replaced(images, "edge", {e: images.edge[e] + images.edge[e]})
    calls = _count_products(monkeypatch)
    report = verify_leavitt_relations(g, ring, doubled)
    monkeypatch.undo()
    assert len(calls) == products
    assert _outcome(report) == _outcome(reference_verify_leavitt_relations(g, ring, doubled))


def test_materialized_groupoid_is_the_all_pairs_reference():
    graphs = [(name, g) for name, g, _ in graph_corpus()]
    graphs += [("chain8", chain_graph(8)), ("in_tree7", in_tree_graph(7))]
    built = 0
    for name, g in graphs:
        try:
            expected = reference_as_finite_groupoid(g)
        except ValueError:
            with pytest.raises(ValueError):
                as_finite_groupoid(g)
            continue
        assert as_finite_groupoid(g) == expected, name
        built += 1
    assert built >= 10


def test_out_edges_are_each_vertex_s_edges_in_ascending_order():
    graphs = [g for _, g, _ in graph_corpus()] + [chain_graph(6), in_tree_graph(9)]
    for g in graphs:
        for v in range(len(g.vertices)):
            want = tuple(e for e in range(g.edge_count) if g.src[e] == v)
            assert g.out_edges(v) == want
            assert g.is_sink(v) == (not want)
