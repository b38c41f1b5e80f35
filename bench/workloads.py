"""Seeded inputs for the four benchmark workloads.

Every input is rendered to the text format the CLI reads, together with
what the benchmark predicts about its report: the exit code, the check
count in ``verified_pairs=P/T``, the ``semisimple`` verdict (from
Maschke's theorem and the isotropy orders this module computes itself,
not from the package), and the oracle status.  The seed only relabels
and reorders: it picks names, the order of arrows, edges and elements,
and the permutation that conjugates each group action.  The inputs are
otherwise fixed per workload, so the work per pass does not depend on
the seed.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from itertools import permutations

from gpdalg import constructions as C
from gpdalg.groupoid import FiniteGroupoid, render_groupoid

DEFAULT_SEED = 1

# The budgets of the package at the time the benchmark was defined.  No
# --verify input may exceed them, so no expected report says "skipped".
ORACLE_BUDGET_Q = 64
ORACLE_BUDGET_GFP = 12
ISG_BUDGET = 64

WORKLOADS = ("groupoid_verify", "leavitt_verify", "charp_oracle", "cli_cold")

# Known defect: a graph with a cycle over Laurent(Q) renders the shape
# M_n(Laurent(Laurent(Q))), which the package's own ring grammar rejects.
NESTED_LAURENT = "nested Laurent shape"


@dataclass(frozen=True)
class Case:
    """One report: a CLI invocation and what its output must say."""

    name: str
    command: str              # groupoid, graph or isg
    filename: str             # relative to the work directory or the repo
    text: str | None          # rendered input, None for a committed fixture
    ring: str
    verify: bool
    fmt: str                  # "machine" or "text"
    expect_exit: int
    checks: int | None = None       # T in verified_pairs=T/T; None: unsupported
    semisimple: bool | None = None
    oracle: str | None = None       # "agree" or "unsupported" under --verify
    sizes: dict = field(default_factory=dict)
    known_defect: str | None = None

    def argv(self, path: str) -> list:
        out = [self.command, path, "--ring", self.ring, "--format", self.fmt]
        if self.verify:
            out.append("--verify")
        return out

    def input_bytes(self, root) -> bytes:
        """The input file's contents; fixtures are read below `root`."""
        return self.text.encode() if self.text is not None else (root / self.filename).read_bytes()

    def key(self, root) -> str:
        """Identity of the report for the stored expected output: the
        invocation and the input bytes."""
        h = hashlib.sha256()
        for part in (self.command, self.ring, str(self.verify), self.fmt):
            h.update(part.encode() + b"\0")
        h.update(self.input_bytes(root))
        return h.hexdigest()[:24]

    @property
    def kind(self) -> tuple:
        return (self.command, self.ring, self.verify, self.fmt, self.expect_exit)


# ---------------------------------------------------------------------------
# ring facts (independent of the package's verdict engine)

_FIELD_CHARS = {"Q": {0}, "Z/6": {2, 3}}


def _field_chars(ring: str):
    """Characteristics of the field factors, or None if the ring is not
    a finite product of fields."""
    if ring in _FIELD_CHARS:
        return _FIELD_CHARS[ring]
    if ring.startswith("GF("):
        return {int(ring[3:-1])}
    return None  # Z, Laurent(Q)


def maschke(ring: str, isotropy_orders) -> bool:
    chars = _field_chars(ring)
    return chars is not None and not any(
        p and n % p == 0 for p in chars for n in isotropy_orders
    )


def _oracle_supported(ring: str) -> bool:
    return ring == "Q" or ring.startswith("GF(")


def within_budget(case: Case) -> bool:
    """Whether every exhaustive stage of a --verify case fits today's budget."""
    if not case.verify:
        return True
    if case.sizes.get("elements", 0) > ISG_BUDGET:
        return False
    if case.oracle != "agree":
        return True
    limit = ORACLE_BUDGET_Q if case.ring == "Q" else ORACLE_BUDGET_GFP
    return case.sizes["oracle_dimension"] <= limit


# ---------------------------------------------------------------------------
# groupoids, built with gpdalg.constructions

_GROUPS = {
    "Z2": lambda: C.cyclic_table(2),
    "Z3": lambda: C.cyclic_table(3),
    "Z4": lambda: C.cyclic_table(4),
    "V4": C.klein_table,
    "S3": lambda: C.symmetric_table(3),
}

# permutation generators of groups acting on m points, before conjugation
_ACTIONS = {
    "C3on3": (3, [(1, 2, 0)]),
    "S3on3": (3, [(1, 0, 2), (1, 2, 0)]),
    "D4on4": (4, [(1, 2, 3, 0), (0, 3, 2, 1)]),
    "A4on4": (4, [(1, 2, 0, 3), (1, 0, 3, 2)]),
    "C5on5": (5, [(1, 2, 3, 4, 0)]),
    "D5on5": (5, [(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)]),
}


@dataclass(frozen=True)
class GroupoidSpec:
    groupoid: FiniteGroupoid
    isotropy_orders: tuple


def _pair(n: int) -> GroupoidSpec:
    return GroupoidSpec(C.pair_groupoid([f"o{i}" for i in range(n)]), (1,))


def _pair_with_group(n: int, group: str) -> GroupoidSpec:
    table = _GROUPS[group]()
    return GroupoidSpec(C.product_with_group(_pair(n).groupoid, table), (table.size,))


def _group_only(group: str) -> GroupoidSpec:
    table = _GROUPS[group]()
    return GroupoidSpec(C.group_groupoid(table), (table.size,))


def _cyclic_group(n: int) -> GroupoidSpec:
    return GroupoidSpec(C.group_groupoid(C.cyclic_table(n)), (n,))


def _action(name: str, rng: random.Random) -> GroupoidSpec:
    m, gens = _ACTIONS[name]
    sigma = list(range(m))
    rng.shuffle(sigma)
    inv = [0] * m
    for i, s in enumerate(sigma):
        inv[s] = i
    # conjugate each generator by sigma: x -> sigma(p(sigma^-1(x)))
    conj = [tuple(sigma[p[inv[x]]] for x in range(m)) for p in gens]
    g = C.action_groupoid(conj, m)
    # isotropy order per orbit: group order / orbit size, computed here
    group = _closure(conj, m)
    orders = []
    seen = set()
    for x in range(m):
        if x in seen:
            continue
        orbit = {p[x] for p in group}
        seen |= orbit
        orders.append(len(group) // len(orbit))
    return GroupoidSpec(g, tuple(orders))


def _closure(gens, m):
    group = {tuple(range(m))}
    frontier = list(group)
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = tuple(p[q[x]] for x in range(m))
                if r not in group:
                    group.add(r)
                    nxt.append(r)
        frontier = nxt
    return group


def _union(a: GroupoidSpec, b: GroupoidSpec) -> GroupoidSpec:
    return GroupoidSpec(
        C.disjoint_union(a.groupoid, b.groupoid),
        a.isotropy_orders + b.isotropy_orders,
    )


def _relabel(g: FiniteGroupoid, rng: random.Random) -> FiniteGroupoid:
    """Same groupoid, seeded object and arrow names and declaration order."""
    op = list(range(len(g.objects)))
    ap = list(range(g.arrow_count))
    rng.shuffle(op)
    rng.shuffle(ap)
    onew = {old: new for new, old in enumerate(op)}
    anew = {old: new for new, old in enumerate(ap)}
    otag, atag = rng.choice("abcdxyz"), rng.choice("fghkmpq")
    return FiniteGroupoid.make(
        [f"{otag}{i}" for i in range(len(op))],
        [f"{atag}{i}" for i in range(len(ap))],
        [onew[g.dom[a]] for a in ap],
        [onew[g.cod[a]] for a in ap],
        [anew[g.identity_of[x]] for x in op],
        {(anew[f], anew[h]): anew[k] for (f, h), k in g.comp},
        [anew[g.inv[a]] for a in ap],
    )


def groupoid_case(name, spec: GroupoidSpec, ring, rng, verify=True, fmt="machine") -> Case:
    g = _relabel(spec.groupoid, rng)
    d = g.arrow_count
    return Case(
        name=name,
        command="groupoid",
        filename=f"{name}.gpd",
        text=render_groupoid(g),
        ring=ring,
        verify=verify,
        fmt=fmt,
        expect_exit=0,
        checks=(d + 1) ** 2,
        semisimple=maschke(ring, spec.isotropy_orders),
        oracle="agree" if _oracle_supported(ring) else "unsupported",
        sizes={"arrows": d, "compositions": len(g.comp), "oracle_dimension": d},
    )


# ---------------------------------------------------------------------------
# directed graphs (the benchmark's own generator)


@dataclass(frozen=True)
class GraphSpec:
    vertices: int
    edges: tuple          # (src, dst) over range(vertices)
    cycles: int           # cycles, all without exits, when ne_holds
    ne_holds: bool


def _chain(n):
    return GraphSpec(n, tuple((i, i + 1) for i in range(n - 1)), 0, True)


def _in_tree(n):
    """Binary tree with every edge pointing towards the root (one sink)."""
    return GraphSpec(n, tuple((i, (i - 1) // 2) for i in range(1, n)), 0, True)


def _out_tree(depth):
    """Complete binary tree with edges pointing to the leaves (the sinks)."""
    n = 2 ** (depth + 1) - 1
    return GraphSpec(n, tuple(((i - 1) // 2, i) for i in range(1, n)), 0, True)


def _cycle(n):
    return GraphSpec(n, tuple((i, (i + 1) % n) for i in range(n)), 1, True)


def _lasso(cycle_len, tail):
    """A cycle on 0..cycle_len-1 with a path of `tail` vertices into it."""
    edges = [(i, (i + 1) % cycle_len) for i in range(cycle_len)]
    prev = 0
    for v in range(cycle_len, cycle_len + tail):
        edges.append((v, prev))
        prev = v
    return GraphSpec(cycle_len + tail, tuple(edges), 1, True)


def _cycle_with_exit(n, tail):
    """A cycle whose vertex 0 also has an edge out to a path of sinks."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    prev = 0
    for v in range(n, n + tail):
        edges.append((prev, v))
        prev = v
    return GraphSpec(n + tail, tuple(edges), 0, False)


def _rose(petals):
    return GraphSpec(1, tuple((0, 0) for _ in range(petals)), 0, False)


def _random_dag(name, vertices, edges, lo, hi):
    """Random DAG with a fixed vertex and edge count whose boundary-path
    pairs (the dimension of its algebra) lie in [lo, hi].  It is drawn
    from its name, not the run's seed, which only relabels it, so the
    work of a workload does not depend on the seed."""
    rng = random.Random(name)
    pairs_all = [(i, j) for i in range(vertices) for j in range(i + 1, vertices)]
    while True:
        chosen = tuple(sorted(rng.sample(pairs_all, edges)))
        spec = GraphSpec(vertices, chosen, 0, True)
        if lo <= sum(s * s for s in _sink_orbit_sizes(spec)) <= hi:
            return spec


def _sink_orbit_sizes(spec: GraphSpec):
    """Number of paths ending at each sink of an acyclic graph."""
    out = [[] for _ in range(spec.vertices)]
    for s, t in spec.edges:
        out[s].append(t)
    sinks = [v for v in range(spec.vertices) if not out[v]]
    sizes = []
    for sink in sinks:
        count = {}

        def paths_to(v):
            if v not in count:
                count[v] = (v == sink) + sum(paths_to(t) for t in out[v])
            return count[v]

        sizes.append(sum(paths_to(v) for v in range(spec.vertices)))
    return sizes


def _render_graph(spec: GraphSpec, rng):
    vp = list(range(spec.vertices))
    rng.shuffle(vp)
    vname = {old: f"v{new}" for new, old in enumerate(vp)}
    order = list(range(len(spec.edges)))
    rng.shuffle(order)
    lines = ["vertices: " + " ".join(vname[old] for old in vp)]
    for k, i in enumerate(order):
        s, t = spec.edges[i]
        lines.append(f"edge e{k} : {vname[s]} -> {vname[t]}")
    return "\n".join(lines) + "\n"


def graph_case(name, spec: GraphSpec, ring, rng, verify=True, fmt="machine") -> Case:
    v, e = spec.vertices, len(spec.edges)
    nonsinks = len({s for s, _ in spec.edges})
    acyclic = spec.ne_holds and spec.cycles == 0
    sizes = {"vertices": v, "edges": e}
    checks = None
    oracle = "unsupported"
    if spec.ne_holds:
        # vertex products, vertex sum, unit paths, CK1, CK2, then the span
        # check (acyclic over Q) or one cycle-word check per cycle
        checks = v * v + 1 + 4 * e + e * e + nonsinks
        checks += (1 if ring == "Q" else 0) if acyclic else spec.cycles
        if acyclic:
            orbit_sizes = _sink_orbit_sizes(spec)
            sizes["boundary_paths"] = sum(orbit_sizes)
            sizes["oracle_dimension"] = sum(s * s for s in orbit_sizes)
            if _oracle_supported(ring):
                oracle = "agree"
        else:
            sizes["boundary_paths"] = v
    return Case(
        name=name,
        command="graph",
        filename=f"{name}.quiv",
        text=_render_graph(spec, rng),
        ring=ring,
        verify=verify,
        fmt=fmt,
        expect_exit=0,
        checks=checks,
        semisimple=acyclic and _field_chars(ring) is not None,
        oracle=oracle,
        sizes=sizes,
        known_defect=NESTED_LAURENT if ring == "Laurent(Q)" and spec.cycles else None,
    )


# ---------------------------------------------------------------------------
# inverse subsemigroups of the symmetric inverse monoid I_3


def _pmul(a, b):
    """Partial maps as tuples with None for undefined: (a*b)(x) = a(b(x))."""
    return tuple(None if b[x] is None else a[b[x]] for x in range(len(a)))


def _pinv(a):
    out = [None] * len(a)
    for x, y in enumerate(a):
        if y is not None:
            out[y] = x
    return tuple(out)


def _all_partial_injections(n):
    out = []
    for k in range(n + 1):
        for dom in permutations(range(n), k):
            if list(dom) != sorted(dom):
                continue
            for img in permutations(range(n), k):
                m = [None] * n
                for x, y in zip(dom, img):
                    m[x] = y
                out.append(tuple(m))
    return out


def _inverse_closure(gens):
    elems = set(gens) | {_pinv(a) for a in gens}
    frontier = list(elems)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(elems):
                for c in (_pmul(a, b), _pmul(b, a)):
                    if c not in elems:
                        elems.add(c)
                        nxt.append(c)
        frontier = nxt
    return elems


def _random_isg(name, lo, hi, n=3):
    """Random inverse subsemigroup of I_n with between lo and hi elements,
    drawn from its name like _random_dag."""
    rng = random.Random(name)
    universe = _all_partial_injections(n)
    while True:
        elems = _inverse_closure(rng.sample(universe, rng.choice((2, 3))))
        if lo <= len(elems) <= hi:
            return sorted(elems, key=lambda m: tuple(-1 if x is None else x for x in m))


def _isg_facts(elems):
    """(has an identity, isotropy group orders at each idempotent)."""
    has_identity = any(
        all(_pmul(e, s) == s and _pmul(s, e) == s for s in elems) for e in elems
    )
    orders = []
    for e in elems:
        if _pmul(e, e) == e:
            orders.append(sum(
                1 for s in elems if _pmul(_pinv(s), s) == e and _pmul(s, _pinv(s)) == e
            ))
    return has_identity, tuple(orders)


def isg_case(name, elems, ring, rng, verify=True, fmt="machine") -> Case:
    order = list(elems)
    rng.shuffle(order)
    names = {m: "m" + "".join("x" if y is None else str(y) for y in m) for m in order}
    lines = ["elements: " + " ".join(names[m] for m in order)]
    for a in order:
        lines.append(f"row {names[a]}: " + " ".join(names[_pmul(a, b)] for b in order))
    n = len(order)
    has_identity, orders = _isg_facts(order)
    return Case(
        name=name,
        command="isg",
        filename=f"{name}.isg",
        text="\n".join(lines) + "\n",
        ring=ring,
        verify=verify,
        fmt=fmt,
        expect_exit=0,
        checks=n * n + (1 if has_identity else 0),
        semisimple=maschke(ring, orders),
        oracle="agree" if _oracle_supported(ring) else "unsupported",
        sizes={"elements": n, "oracle_dimension": n},
    )


# ---------------------------------------------------------------------------
# committed fixtures of the test suite

FIXTURE_DIR = "tests/fixtures"

# name, command, ring, verify, format, exit, checks, semisimple, oracle, sizes
_FIXTURES = (
    ("pair2.gpd", "groupoid", "Q", True, "machine", 0, 25, True, "agree", {"arrows": 4, "oracle_dimension": 4}),
    ("pair2_z2.gpd", "groupoid", "GF(2)", True, "text", 0, 81, False, "agree", {"arrows": 8, "oracle_dimension": 8}),
    ("z3.gpd", "groupoid", "GF(3)", False, "machine", 0, None, False, None, {"arrows": 3}),
    ("a3.quiv", "graph", "Q", True, "text", 0, 25, True, "agree", {"edges": 2, "oracle_dimension": 9}),
    ("loop_spoke.quiv", "graph", "Q", True, "machine", 0, 20, False, "unsupported", {"edges": 2}),
    ("rose2.quiv", "graph", "Z", True, "machine", 0, None, False, "unsupported", {"edges": 2}),
    ("i2.isg", "isg", "Q", True, "machine", 0, 50, True, "agree", {"elements": 7, "oracle_dimension": 7}),
    ("semilattice2.isg", "isg", "GF(2)", False, "text", 0, None, True, None, {"elements": 2}),
    ("broken_assoc.gpd", "groupoid", "Q", True, "machine", 1, None, None, None, {}),
    ("missing_inverse.gpd", "groupoid", "Q", False, "text", 1, None, None, None, {}),
    ("undeclared_object.gpd", "groupoid", "Q", False, "machine", 1, None, None, None, {}),
    ("dangling_edge.quiv", "graph", "Q", True, "machine", 1, None, None, None, {}),
    ("bad_row.isg", "isg", "Q", False, "machine", 1, None, None, None, {}),
    ("left_zero.isg", "isg", "Q", True, "text", 1, None, None, None, {}),
)


def _fixture_cases():
    return [
        Case(
            name=f"fixture:{fname}",
            command=cmd,
            filename=f"{FIXTURE_DIR}/{fname}",
            text=None,
            ring=ring,
            verify=verify,
            fmt=fmt,
            expect_exit=rc,
            checks=checks,
            semisimple=ss,
            oracle=oracle,
            sizes=dict(sizes),
        )
        for fname, cmd, ring, verify, fmt, rc, checks, ss, oracle, sizes in _FIXTURES
    ]


# ---------------------------------------------------------------------------
# workloads


def _groupoid_verify(rng):
    cases = []
    for n, group in ((2, "S3"), (3, "Z2"), (3, "Z3"), (3, "Z4"), (3, "V4"), (3, "S3"),
                     (4, "Z2"), (4, "Z3"), (4, "Z4"), (4, "V4"), (4, "S3")):
        spec = _pair_with_group(n, group)
        d = spec.groupoid.arrow_count
        ring = "Q" if d <= ORACLE_BUDGET_Q else "Z/6"
        cases.append(groupoid_case(f"pair{n}x{group}", spec, ring, rng))
    for name in ("S3on3", "D4on4", "A4on4", "D5on5"):
        cases.append(groupoid_case(f"act_{name}", _action(name, rng), "Q", rng))
    u1 = _union(_pair_with_group(2, "Z2"), _action("C5on5", rng))
    cases.append(groupoid_case("union_pair2xZ2_C5on5", u1, "Q", rng))
    u2 = _union(_pair_with_group(3, "Z4"), _pair_with_group(3, "V4"))
    cases.append(groupoid_case("union_pair3xZ4_pair3xV4", u2, "Z", rng))
    return cases


def _leavitt_verify(rng):
    cases = []
    # acyclic over Q: the relation check runs the span closure
    for n in (5, 6, 7, 8):
        cases.append(graph_case(f"chain{n}", _chain(n), "Q", rng))
    cases.append(graph_case("intree7", _in_tree(7), "Q", rng))
    cases.append(graph_case("outtree2", _out_tree(2), "Q", rng))
    for i in range(6):
        cases.append(graph_case(f"dag{i}", _random_dag(f"dag{i}", 6, 7, 44, 64), "Q", rng))
    # larger acyclic over Z: no span closure, no oracle
    cases.append(graph_case("chain12_Z", _chain(12), "Z", rng))
    cases.append(graph_case("outtree3_Z", _out_tree(3), "Z", rng))
    cases.append(graph_case("dag_Z", _random_dag("dag_Z", 9, 12, 65, 400), "Z", rng))
    # cycles without exits: Laurent blocks, checked by cycle words
    cases.append(graph_case("cycle3_Q", _cycle(3), "Q", rng))
    cases.append(graph_case("lasso3_2_Q", _lasso(3, 2), "Q", rng))
    cases.append(graph_case("cycle4_LQ", _cycle(4), "Laurent(Q)", rng))
    cases.append(graph_case("lasso2_2_LQ", _lasso(2, 2), "Laurent(Q)", rng))
    # cycles with exits: infinite boundary-path space, no relation check
    cases.append(graph_case("exit3_Q", _cycle_with_exit(3, 2), "Q", rng))
    cases.append(graph_case("rose3_Z", _rose(3), "Z", rng))
    return cases


def _charp_oracle(rng):
    cases = []
    for name, spec, rings in (
        ("pair2xZ3", _pair_with_group(2, "Z3"), ("GF(2)", "GF(3)", "GF(5)")),
        ("pair2xZ2", _pair_with_group(2, "Z2"), ("GF(2)", "GF(3)", "GF(7)")),
        ("pair3", _pair(3), ("GF(2)", "GF(5)")),
        ("S3", _group_only("S3"), ("GF(2)", "GF(3)", "GF(7)")),
        ("Z6", _cyclic_group(6), ("GF(3)", "GF(5)")),
        ("act_C3on3", _action("C3on3", rng), ("GF(3)", "GF(7)")),
        ("union_pair2_Z7", _union(_pair(2), _cyclic_group(7)), ("GF(7)", "GF(2)")),
    ):
        for ring in rings:
            cases.append(groupoid_case(f"{name}_{ring}", spec, ring, rng))
    return cases


def _cli_cold(rng):
    cases = _fixture_cases()
    cases.append(groupoid_case("pair2xZ3", _pair_with_group(2, "Z3"), "GF(3)", rng))
    cases.append(groupoid_case("act_C3on3", _action("C3on3", rng), "Q", rng, fmt="text"))
    cases.append(groupoid_case("pair3", _pair(3), "Q", rng, verify=False))
    cases.append(graph_case("chain4", _chain(4), "Q", rng, fmt="text"))
    cases.append(graph_case("cycle3", _cycle(3), "Q", rng))
    cases.append(graph_case("outtree2", _out_tree(2), "Z", rng, verify=False))
    cases.append(isg_case("isg_small", _random_isg("isg_small", 5, 12), "GF(2)", rng))
    cases.append(isg_case("isg_mid", _random_isg("isg_mid", 13, 24), "Q", rng, fmt="text"))
    cases.append(isg_case("isg_any", _random_isg("isg_any", 5, 24), "Q", rng, verify=False))
    return cases


_BUILDERS = {
    "groupoid_verify": _groupoid_verify,
    "leavitt_verify": _leavitt_verify,
    "charp_oracle": _charp_oracle,
    "cli_cold": _cli_cold,
}


def build_cases(workload: str, seed: int) -> list:
    """The inputs of one workload; the same seed gives the same cases."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
