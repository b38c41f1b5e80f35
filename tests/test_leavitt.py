"""Leavitt path algebras through the boundary-path groupoid."""
import pathlib
import random

import pytest

import corpus
from corpus import chain_graph, complete_digraph, diamond_chain_graph, graph_corpus, in_tree_graph
from support import (
    is_arrow,
    path_start,
    paths_to_sinks,
    prepend_edge,
    reference_generated_dimension,
    reference_generator_images,
    reference_graph_orbits,
    reference_path_unit_count,
    reference_verify_leavitt_relations,
)

import gpdalg.leavitt
from gpdalg import (
    Cycle,
    ExitWitness,
    Graph,
    IntegerGroup,
    InternalCheckError,
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
    render_graph,
    render_path,
    validate,
    verdicts,
    verify_leavitt_relations,
)
from gpdalg.group_algebra import FiniteGroupTable
from gpdalg.groupoid import orbits
from gpdalg.leavitt import _attained_matrix_units, block_shape

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


def test_is_arrow_accepts_non_canonical_cycle_rotations():
    g = GRAPHS["c3"]
    x, y, z = (g.edge_names.index(n) for n in ("x", "y", "z"))
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
    x, y, z = (g.edge_names.index(n) for n in ("x", "y", "z"))
    base = Lasso((), Cycle((x, y, z)), 0)
    at_c = prepend_edge(g, z, base)
    assert at_c == Lasso((), Cycle((x, y, z)), 2)
    at_b = prepend_edge(g, y, at_c)
    assert at_b == Lasso((), Cycle((x, y, z)), 1)
    assert prepend_edge(g, x, at_b) == base
    with pytest.raises(ValueError):
        prepend_edge(g, x, base)

    spoked = GRAPHS["c3_spoke"]
    s = spoked.edge_names.index("s")
    x2 = spoked.edge_names.index("x")
    y2 = spoked.edge_names.index("y")
    z2 = spoked.edge_names.index("z")
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


def _fed_cycles(rng):
    """A seeded graph: exit-free cycles of length 1 to 3, a random DAG
    on the other vertices whose edges point forward or into a cycle,
    and now and then one stray edge anywhere, which may break (NE)."""
    vs = [f"v{i}" for i in range(rng.randint(1, 9))]
    rng.shuffle(vs)
    edges, cut = [], 0
    while cut < len(vs) and rng.random() < 0.5:
        cycle = vs[cut:cut + rng.randint(1, 3)]
        edges += [(u, cycle[(i + 1) % len(cycle)]) for i, u in enumerate(cycle)]
        cut += len(cycle)
    dag = vs[cut:]
    for _ in range(rng.randint(0, 12) if dag else 0):
        i = rng.randrange(len(dag))
        targets = dag[i + 1:] + vs[:cut]
        if targets:
            edges.append((dag[i], rng.choice(targets)))
    if rng.random() < 0.2:
        edges.append((rng.choice(vs), rng.choice(vs)))
    names = rng.sample(range(len(edges)), len(edges))  # edge order is not name order
    return Graph.make(vs, [(f"e{k}", s, t) for k, (s, t) in zip(names, edges)])


def test_the_peel_matches_the_enumerating_reference(monkeypatch):
    calls = []
    real = gpdalg.leavitt.condition_ne
    monkeypatch.setattr(gpdalg.leavitt, "condition_ne", lambda g: calls.append(g) or real(g))
    rng = random.Random(20261019)
    graphs = ([g for _, g, _ in graph_corpus()]
              + [chain_graph(n) for n in range(1, 30)] + [in_tree_graph(n) for n in range(1, 30)]
              + [diamond_chain_graph(k) for k in range(1, 9)]
              + [_fed_cycles(rng) for _ in range(3000)])
    exits = cycles = 0
    for g in graphs:
        want = reference_graph_orbits(g)
        got = graph_groupoid(g)
        if isinstance(want, ExitWitness):
            assert got == want
            exits += 1
            continue
        assert [(o.kind, o.anchor, o.size, o.members, o.degrees) for o in got.orbits] == [
            (kind, anchor, len(members), members, degrees) for kind, anchor, members, degrees in want]
        assert boundary_paths(g) == [bp for _, _, members, _ in want for bp in members]
        cycles += got.has_cycle()
    # the witness of a graph that fails (NE) is built without condition_ne
    assert calls == []
    assert exits > 200 and cycles > 1000


def _random_digraph(rng):
    """A seeded digraph on up to 8 vertices with up to 14 edges, loops
    and parallel edges allowed, edge order not name order."""
    vs = [f"v{i}" for i in range(rng.randint(1, 8))]
    rng.shuffle(vs)
    edges = [(rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(1, 14))]
    names = rng.sample(range(len(edges)), len(edges))
    return Graph.make(vs, [(f"e{k}", s, t) for k, (s, t) in zip(names, edges)])


def test_the_greedy_exit_witness_is_condition_ne_s(monkeypatch):
    rng = random.Random(20261020)
    graphs = ([g for _, g in EXIT_GRAPHS] + [complete_digraph(n) for n in range(2, 9)]
              + [_random_digraph(rng) for _ in range(2000)] + [_fed_cycles(rng) for _ in range(2000)])
    calls = []
    real = gpdalg.leavitt.enumerate_cycles
    monkeypatch.setattr(gpdalg.leavitt, "enumerate_cycles", lambda g: calls.append(g) or real(g))
    failing = 0
    for g in graphs:
        holds, want = condition_ne(g)
        calls.clear()
        if holds:
            continue
        assert graph_groupoid(g) == want, render_graph(g)
        assert calls == []
        failing += 1
    assert failing > 1500


def test_a_listing_past_the_peel_count_fails_closed(monkeypatch):
    g = Graph.make(["v", "w"], [("e", "v", "v"), ("f", "v", "w")])
    # a peel that claims no vertex is left and leaves the counts as given
    monkeypatch.setattr(gpdalg.leavitt, "_peel", lambda g: ([10 ** 6] * 2, []))
    with pytest.raises(InternalCheckError, match="walked past"):
        graph_groupoid(g).orbits[0].members
    g = chain_graph(3)
    monkeypatch.setattr(gpdalg.leavitt, "_peel", lambda g: ([4] * 3, []))
    with pytest.raises(InternalCheckError, match="listed 3 boundary paths in an orbit of 4"):
        graph_groupoid(g).orbits[0].degrees


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


IMAGE_RINGS = (Q, GF2, parse_ring_descriptor("GF(3)"), Z6, LQ)
RELATION_GRAPHS = (
    NE_GRAPHS
    + [(f"chain{n}", chain_graph(n)) for n in (1, 2, 5, 9)]
    + [(f"intree{n}", in_tree_graph(n)) for n in (2, 5, 9)]
)


def _spoked_cycle(k, spokes):
    """A k-cycle through c0 .. c(k-1), listed from its last vertex, and
    a chain of spokes[i] edges into c(i mod k) for each i."""
    cs = [f"c{i}" for i in range(k)]
    vs, es = cs[::-1], [(f"x{i}", cs[i], cs[(i + 1) % k]) for i in reversed(range(k))]
    for i, length in enumerate(spokes):
        chain = [f"s{i}_{j}" for j in range(length)]
        vs += chain
        es += [(f"t{i}_{j}", u, w) for j, (u, w) in enumerate(zip(chain, chain[1:] + [cs[i % k]]))]
    return Graph.make(vs, es)


IMAGE_GRAPHS = (
    RELATION_GRAPHS
    + [(f"spoked{k}_{spokes}", _spoked_cycle(k, spokes))
       for k, spokes in ((1, (2,)), (2, (2, 2)), (3, (1, 2, 0)), (4, (3, 1, 1, 2, 1)))]
    + [(f"diamonds{k}", diamond_chain_graph(k)) for k in range(1, 7)]
    + [("cycle200", _spoked_cycle(200, ()))]
)


def test_generator_images_match_the_arrow_by_arrow_reference():
    names = {name for name, _ in IMAGE_GRAPHS}
    assert {"c3_spoke", "two_cycles_in_tree", "diamonds3_loop", "diamonds6", "cycle200"} <= names
    for name, g in IMAGE_GRAPHS:
        assert generator_images(g) == reference_generator_images(g), name


def test_generator_images_are_built_in_order():
    """generator_images sorts no image: the vertex, edge and ghost
    images it takes as built are their sorted form, on every image
    graph (every finite graph of the corpus, chains, trees, spoked
    cycles and diamond chains) and on seeded random graphs of sink
    trees and spoked cycles with shuffled names."""
    rng = random.Random(41)
    cases = list(IMAGE_GRAPHS)
    for t in range(200):
        # edges run from a higher to a lower v, so only the c cycle cycles
        n, k = rng.randrange(2, 8), rng.randrange(4)
        ends = []
        for _ in range(rng.randrange(12)):
            i, j = sorted(rng.sample(range(n), 2))
            ends.append((f"v{j}", f"v{i}"))
        ends += [(f"c{i}", f"c{(i + 1) % k}") for i in range(k)]
        ends += [(f"v{rng.randrange(n)}", f"c{rng.randrange(k)}") for _ in range(rng.randrange(3)) if k]
        names = rng.sample([f"e{i}" for i in range(len(ends))], len(ends))
        vs = rng.sample([f"v{i}" for i in range(n)] + [f"c{i}" for i in range(k)], n + k)
        cases.append((f"random{t}", Graph.make(vs, [(name, s, d) for name, (s, d) in zip(names, ends)])))
    for name, g in cases:
        images = generator_images(g)
        for image in (*images.vertex.values(), *images.edge.values(), *images.ghost.values()):
            assert image == tuple(sorted(image)), name


def _reference_compose(left, right):
    """The product as _compose made it for every pair of factors: index
    the right factor by (block, row), compose, sort."""
    rows: dict = {}
    for b, r, c, k in right:
        rows.setdefault((b, r), []).append((c, k))
    return tuple(sorted([(b, r, c, k + k2) for b, r, m, k in left for c, k2 in rows.get((b, m), ())]))


def test_compose_is_the_index_and_sort_product_on_sorted_unit_tuples():
    """On seeded sorted unit tuples, with lasso keys, units in three
    blocks and repeated units, _compose, which takes a one-unit right
    factor in one pass with no sort, gives the index-and-sort product."""
    rng = random.Random(41)

    def units(n):
        return tuple(sorted((rng.randrange(3), rng.randrange(4), rng.randrange(4), rng.randrange(-2, 3))
                            for _ in range(n)))

    one_unit = repeated = 0
    for _ in range(3000):
        left, right = units(rng.randrange(9)), units(rng.choice((0, 1, 1, 1, 2, 3, 6)))
        if left and rng.random() < 0.3:
            left = tuple(sorted(left + (rng.choice(left),)))
        got = gpdalg.leavitt._compose(left, right)
        assert got == _reference_compose(left, right), (left, right)
        one_unit += len(right) == 1 and bool(got)
        repeated += len(set(got)) < len(got)
    assert one_unit >= 300 and repeated >= 30
    # a one-unit right factor keeps the units of its block ending at its
    # row, keys added, and meets nothing in another block
    left = ((0, 0, 1, 0), (1, 0, 1, -1), (1, 2, 1, 1), (1, 2, 1, 1), (1, 3, 0, 0))
    assert gpdalg.leavitt._compose(left, ((1, 1, 4, 2),)) == ((1, 0, 4, 1), (1, 2, 4, 3), (1, 2, 4, 3))
    assert gpdalg.leavitt._compose(left, ((2, 1, 0, 0),)) == ()


def test_trivial_isotropy_is_the_one_element_group_table():
    assert gpdalg.leavitt._TRIVIAL == FiniteGroupTable.from_table([[0]])


def test_matrix_unit_count_equals_the_closure_rank():
    for name, g in SPAN_GRAPHS:
        images = generator_images(g)
        expected = sum(c * c for c in paths_to_sinks(g).values())
        assert _attained_matrix_units(images) == expected, name
        assert reference_generated_dimension(images) == expected, name


def test_tampered_images_never_pass_where_the_closure_fails(monkeypatch):
    reference_passes_swapped_edges = 0
    for name, g in SPAN_GRAPHS:
        if g.edge_count < 2:
            continue
        images = generator_images(g)
        full = sum(c * c for c in paths_to_sinks(g).values())
        e, f = g.edge_names[:2]
        sink = next(v for i, v in enumerate(g.vertices) if g.is_sink(i))
        other = next(v for v in g.vertices if v != sink)
        tampered = {
            "swapped edges": _replaced(
                images, "edge", {e: images.edge[f], f: images.edge[e]}),
            "zero ghost": _replaced(images, "ghost", {e: ()}),
            "swapped vertices": _replaced(
                images, "vertex", {sink: images.vertex[other], other: images.vertex[sink]}),
        }
        for kind, t in tampered.items():
            attained = _attained_matrix_units(t)
            rank = reference_generated_dimension(t)
            assert attained < full, (name, kind)
            assert rank == full or attained < full, (name, kind)
            ok = verify_leavitt_relations(g, Q, t).ok
            assert not ok, (name, kind)
            with monkeypatch.context() as m:
                m.setattr(gpdalg.leavitt, "_attained_matrix_units", reference_path_unit_count)
                assert verify_leavitt_relations(g, Q, t).ok == ok, (name, kind)
            if kind == "swapped edges" and rank == full:
                reference_passes_swapped_edges += 1
    # the closure only sees the span, so swapping two edges goes unnoticed
    assert reference_passes_swapped_edges > 0


def test_span_check_makes_at_most_2p_products(monkeypatch):
    for name, g in SPAN_GRAPHS + [("chain40", chain_graph(40))]:
        images = generator_images(g)
        p = images.decomposition.boundary_count()
        sinks = len(images.decomposition.orbits)
        calls = _count_products(monkeypatch)
        _attained_matrix_units(images)
        monkeypatch.undo()
        # one product for the image and one for the ghost of each path
        # but the empty paths at the sinks
        assert len(calls) == 2 * (p - sinks) <= 2 * p, (name, len(calls), p)
        # a graph without edges needs no product: its paths are its sinks
        assert (len(calls) > 0) == (g.edge_count > 0), (name, len(calls), p)


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


def _tampered_images(g, images):
    """Swapped edges, a zeroed ghost and swapped vertices where the
    graph has them, a cycle edge with its keys shifted by one, the first
    vertex with its first unit repeated, and one edge with a unit
    dropped, every unit repeated (coefficient 2 over the integers), its
    first unit repeated, or a second unit in the row of its first."""
    out = {}
    e = g.edge_names[0] if g.edge_count else None
    if g.edge_count >= 2:
        f = g.edge_names[1]
        out["swapped edges"] = _replaced(images, "edge", {e: images.edge[f], f: images.edge[e]})
    if e is not None:
        units = images.edge[e]
        out["zero ghost"] = _replaced(images, "ghost", {e: ()})
        out["dropped unit"] = _replaced(images, "edge", {e: units[1:]})
        out["doubled edge"] = _replaced(images, "edge", {e: tuple(sorted(units * 2))})
        out["coefficient 2 at one unit"] = _replaced(
            images, "edge", {e: tuple(sorted(units + units[:1]))})
        bi, row, col, _ = units[0]
        size = images.decomposition.orbits[bi].size
        if size > 1:
            extra = (bi, row, (col + 1) % size, 0)
            out["two entries in a row"] = _replaced(
                images, "edge", {e: tuple(sorted(units + (extra,)))})
    first = images.vertex[g.vertices[0]]
    out["repeated vertex unit"] = _replaced(
        images, "vertex", {g.vertices[0]: tuple(sorted(first + first[:1]))})
    sinks = [v for i, v in enumerate(g.vertices) if g.is_sink(i)]
    others = [v for v in g.vertices if v not in sinks[:1]]
    if sinks and others:
        s, o = sinks[0], others[0]
        out["swapped vertices"] = _replaced(
            images, "vertex", {s: images.vertex[o], o: images.vertex[s]})
    orbits = images.decomposition.orbits
    for orbit in orbits:
        if orbit.kind == "cycle":
            c = g.edge_names[orbit.anchor.edges[0]]
            out["shifted cycle key"] = _replaced(images, "edge", {c: tuple(
                (bi, row, col, key + 1 if orbits[bi].kind == "cycle" else key)
                for bi, row, col, key in images.edge[c])})
            break
    return out


PARITY_RINGS = tuple(parse_ring_descriptor(r) for r in corpus.PARITY_RINGS)
TAMPER_GRAPHS = RELATION_GRAPHS + [(name, g) for name, g, finite in graph_corpus() if finite]

# the tampers whose repeated unit GF(2) cancels, on every graph: over
# GF(2) the repeated vertex unit u reads as 2u = 0, the vertex loses u
# and is still an idempotent, so the ring-level check passes v * v
# where the index check fails it; a repeated edge unit fails the same
# relations either way
GF2_CANCELS = ("repeated vertex unit",)


def test_relation_checks_are_the_same_over_every_parity_ring():
    # the ring decides only whether the span entry, over Q alone, is counted
    checked = 0
    for name, g, finite in graph_corpus():
        if not finite:
            continue
        span = not graph_groupoid(g).has_cycle()
        outcomes = set()
        for ring in PARITY_RINGS:
            report = verify_leavitt_relations(g, ring)
            assert report.ok, (name, ring)
            outcomes.add(report.total - (span and ring == Q))
        assert len(outcomes) == 1, name
        checked += 1
    assert checked >= 15


def test_tampered_images_fail_exactly_as_the_block_matrix_reference():
    # the index check reads a unit listed twice as coefficient 2, as the
    # integers do, so it fails wherever the ring-level check does; they
    # differ only where GF(2) cancels 2u, and there the index check is
    # the stricter one
    seen, cancels = set(), set()
    for name, g in TAMPER_GRAPHS:
        images = generator_images(g)
        for kind, t in _tampered_images(g, images).items():
            seen.add(kind)
            for ring in PARITY_RINGS:
                report = verify_leavitt_relations(g, ring, t)
                assert not report.ok, (name, ring, kind)
                want = reference_verify_leavitt_relations(g, ring, t)
                if _outcome(report) != _outcome(want):
                    assert ring == GF2, (name, ring, kind)
                    assert report.total == want.total and set(want.failures) < set(report.failures)
                    cancels.add((name, kind))
                if kind == "shifted cycle key":
                    assert any(f.startswith("cycle word attains x") for f in report.failures), name
            if not images.decomposition.has_cycle():
                assert _attained_matrix_units(t) == reference_path_unit_count(t), (name, kind)
    assert seen == {"swapped edges", "zero ghost", "dropped unit", "doubled edge",
                    "coefficient 2 at one unit", "two entries in a row", "swapped vertices",
                    "repeated vertex unit", "shifted cycle key"}
    assert cancels == {(name, kind) for name, _ in TAMPER_GRAPHS for kind in GF2_CANCELS}


def _count_products(monkeypatch):
    calls = []
    real = gpdalg.leavitt._compose

    def counting(left, right):
        calls.append(1)
        return real(left, right)

    monkeypatch.setattr(gpdalg.leavitt, "_compose", counting)
    return calls


def _expected_products(g, images, ring):
    """The products verify_leavitt_relations makes on valid images: one
    per vertex (the pair v * v), four unit paths, one CK1 pair and one
    CK2 term per edge, |c| - 1 per cycle word, and over Q on an
    acyclic graph an image and a ghost per path that is not a sink."""
    gd = images.decomposition
    cycles = sum(o.anchor.length() - 1 for o in gd.orbits if o.kind == "cycle")
    spans = ring == Q and not gd.has_cycle()
    paths = 2 * (gd.boundary_count() - len(gd.orbits)) if spans else 0
    return len(g.vertices) + 6 * g.edge_count + cycles + paths


@pytest.mark.parametrize("ring", IMAGE_RINGS, ids=str)
def test_relation_checks_make_one_product_per_relation_term(monkeypatch, ring):
    cases = RELATION_GRAPHS + [("chain40", chain_graph(40))]
    for name, g in cases:
        images = generator_images(g)
        calls = _count_products(monkeypatch)
        report = verify_leavitt_relations(g, ring, images)
        monkeypatch.undo()
        assert report.ok, (name, ring)
        # V^2 + E^2 would mean every vertex and CK1 pair is multiplied
        assert len(calls) == _expected_products(g, images, ring), (name, ring, len(calls))


def test_materialized_groupoid_is_the_all_pairs_reference():
    """An acyclic graph's boundary-path groupoid is one pair groupoid
    per sink, on the paths into it: the materialized groupoid validates,
    its objects are the rendered boundary paths, each orbit holds the
    paths into one sink (as many as paths_to_sinks counts backward), and
    its arrows run once between every two objects of an orbit and never
    across orbits.  A graph with a cycle has no finite groupoid."""
    graphs = [(name, g) for name, g, _ in graph_corpus()]
    graphs += [("chain8", chain_graph(8)), ("in_tree7", in_tree_graph(7))]
    built = 0
    for name, g in graphs:
        if enumerate_cycles(g):
            with pytest.raises(ValueError):
                as_finite_groupoid(g)
            continue
        fg = as_finite_groupoid(g)
        assert validate(fg) == [], name
        sink_of = {render_path(g, bp): bp.sink for bp in boundary_paths(g)}
        assert sorted(fg.objects) == sorted(sink_of), name
        members = [[fg.objects[x] for x in orbit.members] for orbit in orbits(fg)]
        assert all(len({sink_of[x] for x in orbit}) == 1 for orbit in members), name
        assert sorted(map(len, members)) == sorted(paths_to_sinks(g).values()), name
        pairs = sorted((fg.objects[fg.dom[a]], fg.objects[fg.cod[a]]) for a in range(fg.arrow_count))
        assert pairs == sorted((x, y) for orbit in members for x in orbit for y in orbit), name
        built += 1
    assert built >= 10


def test_out_edges_are_each_vertex_s_edges_in_ascending_order():
    graphs = [g for _, g, _ in graph_corpus()] + [chain_graph(6), in_tree_graph(9)]
    for g in graphs:
        for v in range(len(g.vertices)):
            want = tuple(e for e in range(g.edge_count) if g.src[e] == v)
            assert g.out_edges(v) == want
            assert g.is_sink(v) == (not want)
