"""Shared example inventory: groupoids, graphs and inverse semigroups
the whole test suite runs against.  Randomized entries use fixed seeds
so every run sees the same corpus."""
from __future__ import annotations

import random
from itertools import combinations, permutations

from gpdalg.constructions import (
    action_groupoid,
    cyclic_table,
    disjoint_union,
    group_groupoid,
    klein_table,
    pair_groupoid,
    product_with_group,
    symmetric_table,
)
from gpdalg.isg import InverseSemigroup
from gpdalg.leavitt import Graph

# the coefficient rings the parity checks run every input over
PARITY_RINGS = ("Q", "Z", "GF(2)", "GF(3)", "Z/6", "Laurent(Q)", "Product(GF(2),GF(3))")


def groupoid_corpus():
    """List of (name, FiniteGroupoid); every entry passes validate()."""
    out = []
    for n in (2, 3, 4):
        out.append((f"pair{n}", pair_groupoid([f"x{i}" for i in range(n)])))
    tables = [(f"Z{n}", cyclic_table(n)) for n in range(1, 7)]
    tables.append(("V4", klein_table()))
    tables.append(("S3", symmetric_table(3)))
    for name, t in tables:
        out.append((name, group_groupoid(t)))
    pair2 = pair_groupoid(["x", "y"])
    pair3 = pair_groupoid(["x", "y", "z"])
    out.append(("pair2_Z2", product_with_group(pair2, cyclic_table(2))))
    out.append(("pair2_Z3", product_with_group(pair2, cyclic_table(3))))
    out.append(("pair3_Z2", product_with_group(pair3, cyclic_table(2))))
    out.append(("pair2_V4", product_with_group(pair2, klein_table())))
    out.append(("pair2_S3", product_with_group(pair2, symmetric_table(3))))
    out.append(("pair2_u_Z2", disjoint_union(pair2, group_groupoid(cyclic_table(2)))))
    out.append(("Z3_u_pair3", disjoint_union(group_groupoid(cyclic_table(3)), pair3)))
    out.append(("pair2_u_pair3", disjoint_union(pair2, pair3)))
    out.append((
        "pair2Z2_u_Z4",
        disjoint_union(
            product_with_group(pair2, cyclic_table(2)),
            group_groupoid(cyclic_table(4)),
        ),
    ))
    out.append(("act_cycle3", action_groupoid([(1, 2, 0)], 3)))
    out.append(("act_swap3", action_groupoid([(1, 0, 2)], 3)))
    out.append(("act_S3", action_groupoid([(1, 2, 0), (1, 0, 2)], 3)))
    out.append(("act_Z4", action_groupoid([(1, 2, 3, 0)], 4)))
    out.append(("act_V4", action_groupoid([(1, 0, 3, 2), (2, 3, 0, 1)], 4)))
    rng = random.Random(20260815)
    all_perms = list(permutations(range(4)))
    made = 0
    while made < 3:
        gens = [rng.choice(all_perms) for _ in range(rng.randint(1, 2))]
        g = action_groupoid(gens, 4)
        if g.arrow_count <= 30:
            out.append((f"act_rand{made}", g))
            made += 1
    return out


def disconnected_ladder():
    """List of (name, FiniteGroupoid) with several blocks each: the
    inputs on which the char-p radical oracle runs one filtration per
    block instead of one over the whole arrow basis."""
    pair2 = pair_groupoid(["x", "y"])
    z7 = group_groupoid(cyclic_table(7))
    discrete5 = pair_groupoid(["o0"])
    for i in range(1, 5):
        discrete5 = disjoint_union(discrete5, pair_groupoid([f"o{i}"]))
    pair4 = pair_groupoid([f"x{i}" for i in range(4)])
    return [
        ("pair2_u_Z7", disjoint_union(pair2, z7)),
        ("pair2Z3_u_Z7_u_Z7", disjoint_union(
            disjoint_union(product_with_group(pair2, cyclic_table(3)), z7), z7)),
        ("pair4Z4_u_S3", disjoint_union(
            product_with_group(pair4, cyclic_table(4)), group_groupoid(symmetric_table(3)))),
        ("discrete5", discrete5),
    ]


def _graph(vertices, edges):
    return Graph.make(vertices, edges)


def chain_graph(n):
    """v0 -> v1 -> ... -> v(n-1): one sink with n paths into it."""
    vs = [f"v{i}" for i in range(n)]
    return Graph.make(vs, [(f"e{i}", vs[i], vs[i + 1]) for i in range(n - 1)])


def in_tree_graph(n):
    """Binary tree on n vertices, every edge pointing to the root."""
    vs = [f"v{i}" for i in range(n)]
    return Graph.make(vs, [(f"e{i}", vs[i], vs[(i - 1) // 2]) for i in range(1, n)])


def _diamonds(k):
    """Vertices and edges of k diamonds in a row, names zero-padded:
    v_i -> a_i, b_i -> v_(i+1)."""
    vs, es = [], []
    for i in range(k):
        v, a, b, w = f"v{i:02d}", f"a{i:02d}", f"b{i:02d}", f"v{i + 1:02d}"
        vs += [v, a, b]
        es += [(f"p{i:02d}", v, a), (f"q{i:02d}", v, b), (f"r{i:02d}", a, w), (f"s{i:02d}", b, w)]
    vs.append(f"v{k:02d}")
    return vs, es


def diamond_chain_graph(k):
    """k diamonds in a row: one sink with 2^(k+2) - 3 paths into it."""
    return Graph.make(*_diamonds(k))


def complete_digraph(n):
    """K_n: an edge e_i_j from every vertex v_i to every other v_j, names
    zero-padded and listed in reverse name order, so out-edge order is
    not name order."""
    vs = [f"v{i:02d}" for i in range(n)]
    return Graph.make(vs, [(f"e{i:02d}_{j:02d}", vs[i], vs[j])
                           for i in reversed(range(n)) for j in reversed(range(n)) if i != j])


def graph_corpus():
    """List of (name, Graph, expect_finite_boundary)."""
    out = []
    for n in range(1, 6):
        vs = [f"v{i}" for i in range(n)]
        es = [(f"e{i}", f"v{i}", f"v{i+1}") for i in range(n - 1)]
        out.append((f"a{n}", _graph(vs, es), True))
    out.append(("loop", _graph(["v"], [("e", "v", "v")]), True))
    out.append(("loop_spoke", _graph(["v", "w"], [("e", "v", "v"), ("f", "w", "v")]), True))
    out.append((
        "loop_spoke2",
        _graph(["v", "w", "u"], [("e", "v", "v"), ("f", "w", "v"), ("g", "u", "w")]),
        True,
    ))
    out.append((
        "c3",
        _graph(["a", "b", "c"], [("x", "a", "b"), ("y", "b", "c"), ("z", "c", "a")]),
        True,
    ))
    out.append((
        "c4",
        _graph(
            ["a", "b", "c", "d"],
            [("x", "a", "b"), ("y", "b", "c"), ("z", "c", "d"), ("w", "d", "a")],
        ),
        True,
    ))
    out.append((
        "c3_spoke",
        _graph(
            ["a", "b", "c", "p"],
            [("x", "a", "b"), ("y", "b", "c"), ("z", "c", "a"), ("s", "p", "a")],
        ),
        True,
    ))
    out.append((
        "two_loops",
        _graph(["v", "w"], [("e", "v", "v"), ("f", "w", "w")]),
        True,
    ))
    out.append((
        "loop_u_a2",
        _graph(["v", "p", "q"], [("e", "v", "v"), ("f", "p", "q")]),
        True,
    ))
    out.append((
        "tree7",
        _graph(
            ["r", "a", "b", "s1", "s2", "s3", "s4"],
            [
                ("ea", "r", "a"), ("eb", "r", "b"),
                ("e1", "a", "s1"), ("e2", "a", "s2"),
                ("e3", "b", "s3"), ("e4", "b", "s4"),
            ],
        ),
        True,
    ))
    out.append((
        "star3",
        _graph(
            ["r", "s1", "s2", "s3"],
            [("e1", "r", "s1"), ("e2", "r", "s2"), ("e3", "r", "s3")],
        ),
        True,
    ))
    out.append((
        "parallel2",
        _graph(["u", "v"], [("e1", "u", "v"), ("e2", "u", "v")]),
        True,
    ))
    out.append(("rose2", _graph(["v"], [("e", "v", "v"), ("f", "v", "v")]), False))
    out.append((
        "c3_exit",
        _graph(
            ["a", "b", "c", "d"],
            [("x", "a", "b"), ("y", "b", "c"), ("z", "c", "a"), ("out", "b", "d")],
        ),
        False,
    ))
    out.append((
        "rose2_u_a2",
        _graph(
            ["v", "p", "q"],
            [("e", "v", "v"), ("f", "v", "v"), ("g", "p", "q")],
        ),
        False,
    ))
    out.append((
        "shared_vertex_cycles",
        _graph(
            ["a", "b", "c"],
            [("x", "a", "b"), ("y", "b", "a"), ("z", "a", "c"), ("w", "c", "a")],
        ),
        False,
    ))
    # three padded diamonds feeding a loop that has a second spoke
    vs, es = _diamonds(3)
    out.append((
        "diamonds3_loop",
        _graph(vs + ["x", "y"], es + [("l", "x", "x"), ("t", "y", "x"), ("u", "v03", "x")]),
        True,
    ))
    # exit-free cycles (g.h) and (i.o.j), fed by one in-tree with the
    # parallel edges e1, e2; canonical rotations start mid-list
    out.append((
        "two_cycles_in_tree",
        _graph(
            ["c", "m", "d", "k", "z", "r", "s", "w", "u"],
            [
                ("h", "m", "c"), ("g", "c", "m"),
                ("j", "z", "d"), ("i", "d", "k"), ("o", "k", "z"),
                ("e1", "s", "r"), ("e2", "s", "r"), ("e3", "w", "s"), ("e4", "u", "r"),
                ("f1", "r", "m"), ("f2", "r", "d"), ("f3", "s", "k"),
            ],
        ),
        True,
    ))
    # cycles (w), (x.y) and (z.v.u), each with an exit
    out.append((
        "exits_everywhere",
        _graph(
            ["a", "b", "c", "d", "s"],
            [
                ("x", "a", "b"), ("y", "b", "a"), ("z", "b", "c"), ("w", "c", "c"),
                ("v", "c", "d"), ("u", "d", "b"), ("t", "c", "s"),
            ],
        ),
        False,
    ))
    for n in (4, 5, 6):
        out.append((f"K{n}", complete_digraph(n), False))
    # the exit-free loop (k) at a and the cycle (z.y) through b sort
    # around (m.n), the least cycle with an exit, which avoids a and b
    out.append((
        "least_exit_avoids_a",
        _graph(
            ["a", "b", "c", "d"],
            [("k", "a", "a"), ("z", "b", "c"), ("y", "c", "b"), ("m", "c", "d"), ("n", "d", "c")],
        ),
        False,
    ))
    return out


def _compose_partial(x: dict, y: dict) -> dict:
    """x . y of two partial bijections of a finite set: y first."""
    return {a: x[b] for a, b in y.items() if b in x}


def partial_bijection_semigroup(maps, n: int) -> InverseSemigroup:
    """The inverse semigroup of maps, a list of partial bijections of an
    n-point set closed under composition, in list order.  Each is named
    by its images, one digit per point and _ where undefined: '1_0'
    sends 0 to 1 and 2 to 0."""
    names = ["".join(str(m[x]) if x in m else "_" for x in range(n)) for m in maps]
    lookup = {tuple(sorted(m.items())): i for i, m in enumerate(maps)}
    table = [[lookup[tuple(sorted(_compose_partial(a, b).items()))] for b in maps] for a in maps]
    return InverseSemigroup.from_table(names, table)


def symmetric_inverse_monoid(n: int) -> InverseSemigroup:
    """I_n: all partial bijections of an n-point set, the empty map first."""
    maps = [{}]
    for k in range(1, n + 1):
        for dom in combinations(range(n), k):
            for img in permutations(range(n), k):
                maps.append(dict(zip(dom, img)))
    return partial_bijection_semigroup(maps, n)


def inverse_subsemigroup(generators, n: int) -> InverseSemigroup:
    """The inverse subsemigroup of I_n that the partial bijections
    generators generate, in order of discovery."""
    maps, seen = [], set()

    def add(m):
        key = tuple(sorted(m.items()))
        if key not in seen:
            seen.add(key)
            maps.append(m)

    for m in generators:
        add(m)
        add({v: x for x, v in m.items()})
    i = 0
    while i < len(maps):  # each pair is multiplied when its later member comes up
        for j in range(i + 1):
            add(_compose_partial(maps[i], maps[j]))
            add(_compose_partial(maps[j], maps[i]))
        i += 1
    return partial_bijection_semigroup(maps, n)


def isg_corpus():
    """List of (name, InverseSemigroup): I_3 and four inverse
    subsemigroups of it, each closed from a few partial bijections."""
    return [
        ("I3", symmetric_inverse_monoid(3)),
        # the semilattice of the eight partial identities
        ("E3", inverse_subsemigroup([{0: 0, 1: 1}, {1: 1, 2: 2}, {0: 0, 2: 2}, {0: 0, 1: 1, 2: 2}], 3)),
        # the maps of rank at most one: the Brandt semigroup B_3 with zero
        ("B3", inverse_subsemigroup([{0: 1}, {1: 2}], 3)),
        ("shift3", inverse_subsemigroup([{0: 1, 1: 2}], 3)),
        # Z_3 over the maps of rank at most one
        ("cycle_rank1", inverse_subsemigroup([{0: 1, 1: 2, 2: 0}, {0: 0}], 3)),
    ]


def glued_span_line(words: list, names: list, rng: random.Random) -> str:
    """The span line words = [KIND, NAME, ':', SRC, '->', DST] with the
    whitespace on one or more sides of its separators removed, or with
    ':' or '->' and a name from names put inside NAME, SRC or DST: lines
    the word-level reading of a span line leaves to the string path, or
    names holding a separator that it reads itself."""
    kind, name, _, src, _, dst = words
    if rng.random() < 0.5:
        gaps = [" "] * 4  # before and after ':', then before and after '->'
        for k in rng.sample(range(4), rng.randint(1, 4)):
            gaps[k] = ""
        return f"{kind} {name}{gaps[0]}:{gaps[1]}{src}{gaps[2]}->{gaps[3]}{dst}"
    j = rng.choice((1, 3, 5))
    sep, other = rng.choice((":", "->")), rng.choice(names)
    words = list(words)
    words[j] = rng.choice((words[j] + sep + other, other + sep + words[j]))
    return " ".join(words)
