"""Independent oracles used across the test suite.

Everything here recomputes a claim from its definition, by a different
route than the package takes, so agreement is evidence and not an
echo."""
from __future__ import annotations

from fractions import Fraction

from gpdalg import (
    AlgebraElement,
    BlockMatrix,
    FiniteGroupoid,
    VerificationReport,
    convolve,
    phi,
    phi_inv,
)
from gpdalg.errors import InternalCheckError
from gpdalg.leavitt import (
    GeneratorImages,
    Graph,
    Lasso,
    SinkPath,
    block_shape,
    generator_images,
    graph_groupoid,
    is_arrow,
    path_start,
    prepend_edge,
)
from gpdalg.linalg import kernel, reduce, rref
from gpdalg.rings import Rationals
from gpdalg.verdicts import _unit_vectors, _vec_mul


def groupoid_axiom_problems(g: FiniteGroupoid) -> list:
    """Check every groupoid axiom directly on the raw tables; returns a
    list of short problem strings, empty when g is a groupoid."""
    problems = []
    n = g.arrow_count
    comp = dict(g.comp)

    for x in range(len(g.objects)):
        e = g.identity_of[x]
        if e is None:
            problems.append(f"no identity at object {x}")
        elif not (g.dom[e] == x == g.cod[e]):
            problems.append(f"identity at object {x} is not a loop there")
    for f in range(n):
        ex = g.identity_of[g.cod[f]]
        ey = g.identity_of[g.dom[f]]
        if ex is not None and comp.get((ex, f)) != f:
            problems.append(f"left identity law fails at arrow {f}")
        if ey is not None and comp.get((f, ey)) != f:
            problems.append(f"right identity law fails at arrow {f}")

    for f in range(n):
        for h in range(n):
            defined = (f, h) in comp
            if defined != (g.dom[f] == g.cod[h]):
                problems.append(f"composability mismatch on ({f}, {h})")
            if defined:
                k = comp[(f, h)]
                if g.dom[k] != g.dom[h] or g.cod[k] != g.cod[f]:
                    problems.append(f"composite of ({f}, {h}) has the wrong span")

    for f in range(n):
        for h in range(n):
            for j in range(n):
                if (h, j) in comp and (f, h) in comp:
                    left = comp.get((comp[(f, h)], j))
                    right = comp.get((f, comp[(h, j)]))
                    if left != right or left is None:
                        problems.append(f"associativity fails on ({f}, {h}, {j})")

    for f in range(n):
        finv = g.inv[f]
        if finv is None:
            problems.append(f"arrow {f} has no inverse")
            continue
        if g.dom[finv] != g.cod[f] or g.cod[finv] != g.dom[f]:
            problems.append(f"inverse of {f} has the wrong span")
            continue
        if comp.get((f, finv)) != g.identity_of[g.cod[f]]:
            problems.append(f"f . f^-1 is not the identity for {f}")
        if comp.get((finv, f)) != g.identity_of[g.dom[f]]:
            problems.append(f"f^-1 . f is not the identity for {f}")
    return problems


def naive_convolution(f1: AlgebraElement, f2: AlgebraElement) -> AlgebraElement:
    """Convolution directly from the displayed formula

        (f1 * f2)(g) = sum over h with dom(h) = dom(g) of f1(g h^-1) f2(h)

    iterating over every arrow g of the groupoid, not over support
    pairs."""
    g = f1.groupoid
    c2 = dict(f2.coeffs)
    items = []
    for a in range(g.arrow_count):
        acc = None
        for h, v2 in c2.items():
            if g.dom[h] != g.dom[a]:
                continue
            gh_inv = g.compose(a, g.inv[h])
            if gh_inv is None:
                continue
            term = f1.coefficient(gh_inv) * v2
            acc = term if acc is None else acc + term
        if acc is not None and not acc.is_zero:
            items.append((a, acc))
    return AlgebraElement.make(g, f1.ring, items)


def reference_verify_isomorphism(d) -> VerificationReport:
    """verify_isomorphism on objects only: every arrow pair is multiplied
    as algebra elements through convolve, phi and the block matrix
    product, with phi recomputed for every operand.  Same checks, same
    counts and same failure strings as the package's index-based check."""
    g = d.groupoid
    failures = []
    total = 0
    passed = 0

    for a in range(g.arrow_count):
        da = AlgebraElement.delta(g, d.ring, a)
        for b in range(g.arrow_count):
            db = AlgebraElement.delta(g, d.ring, b)
            total += 1
            if phi(d, convolve(da, db)) == phi(d, da) * phi(d, db):
                passed += 1
            else:
                failures.append(
                    f"phi not multiplicative on ({g.arrows[a]}, {g.arrows[b]})"
                )

    total += 1
    if phi(d, AlgebraElement.unit(g, d.ring)) == BlockMatrix.identity(d.shape):
        passed += 1
    else:
        failures.append("phi does not send the unit to the identity matrix")

    for a in range(g.arrow_count):
        da = AlgebraElement.delta(g, d.ring, a)
        total += 1
        if phi_inv(d, phi(d, da)) == da:
            passed += 1
        else:
            failures.append(f"phi_inv(phi([{g.arrows[a]}])) != [{g.arrows[a]}]")

    for bi, (size, group) in enumerate(d.shape.blocks):
        keys = range(group.size)
        for row in range(size):
            for col in range(size):
                for key in keys:
                    unit = BlockMatrix.matrix_unit(d.shape, bi, row, col, key)
                    total += 1
                    if phi(d, phi_inv(d, unit)) == unit:
                        passed += 1
                    else:
                        failures.append(
                            f"phi(phi_inv(E)) != E at block {bi} ({row},{col}) g{key}"
                        )

    return VerificationReport(
        "isomorphism checks (arrow pairs, unit, basis round trips)",
        total,
        passed,
        tuple(failures),
    )


def _flatten(m: BlockMatrix, layout) -> list:
    vec = [Fraction(0)] * layout["dim"]
    for bi, block in enumerate(m.entries):
        for (r, c), val in block:
            for key, coeff in val.coeffs:
                vec[layout["index"][(bi, r, c)]] += coeff.value
                if key != 0:
                    raise InternalCheckError("acyclic flatten hit a Laurent term")
    return vec


def reference_generated_dimension(images: GeneratorImages) -> int:
    """Rank over Q of the span of all products of generators, by closing
    the generator images under multiplication one dense Fraction vector
    at a time.  Only meaningful for acyclic graphs (trivial isotropy
    everywhere)."""
    layout = {"index": {}, "dim": 0}
    for bi, (size, group) in enumerate(images.shape.blocks):
        for r in range(size):
            for c in range(size):
                layout["index"][(bi, r, c)] = layout["dim"]
                layout["dim"] += 1
    gens = list(images.vertex.values()) + list(images.edge.values()) + list(images.ghost.values())
    basis_vecs: list = []
    pivots: list = []

    def try_add(mat):
        vec = reduce(_flatten(mat, layout), basis_vecs, pivots)
        lead = next((i for i, v in enumerate(vec) if v), None)
        if lead is None:
            return False
        inv = 1 / vec[lead]
        basis_vecs.append([v * inv for v in vec])
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
    """sink vertex index -> number of finite paths ending there
    (including the empty path), by depth-first enumeration backward."""
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


def _unrolled(g: Graph, bp, length: int) -> tuple:
    """First `length` edges of the boundary path as a tuple; sink paths
    are padded with ("stop", sink) markers."""
    out = []
    if isinstance(bp, SinkPath):
        out.extend(bp.edges)
        while len(out) < length:
            out.append(("stop", bp.sink))
        return tuple(out[:length])
    out.extend(bp.spoke)
    n = bp.cycle.length()
    i = bp.entry_pos
    while len(out) < length:
        out.append(bp.cycle.edges[i % n])
        i += 1
    return tuple(out[:length])


def truncation_is_arrow(g: Graph, eta, k: int, gamma) -> bool:
    """Decide tail equivalence with shift k by brute truncation: look
    for drop counts a, b with a - b = k whose dropped words agree on a
    long window."""
    def prefix_len(bp):
        if isinstance(bp, SinkPath):
            return len(bp.edges)
        return len(bp.spoke)

    def period(bp):
        return 1 if isinstance(bp, SinkPath) else bp.cycle.length()

    bound = abs(k) + prefix_len(eta) + prefix_len(gamma) + 2 * (period(eta) + period(gamma)) + 2
    window = prefix_len(eta) + prefix_len(gamma) + 2 * period(eta) * period(gamma) + 2
    word_eta = _unrolled(g, eta, bound + window)
    word_gamma = _unrolled(g, gamma, bound + window)

    def max_drop(bp):
        # a finite path only factors as alpha.delta with |alpha| <= |path|
        return len(bp.edges) if isinstance(bp, SinkPath) else bound

    for a in range(min(bound, max_drop(eta)) + 1):
        b = a - k
        if b < 0 or b > min(bound, max_drop(gamma)):
            continue
        if word_eta[a:a + window] == word_gamma[b:b + window]:
            return True
    return False


def _reference_arrow_matrix(gd, ring, eta, k: int, gamma) -> BlockMatrix:
    """Block matrix of one groupoid arrow (eta, k, gamma): is_arrow
    decides it is one, a scan of the orbit members finds its row and
    column, and the entry carries x^(net degree / cycle length) on a
    lasso block."""
    if not is_arrow(gd.graph, eta, k, gamma):
        raise ValueError("not an arrow of the boundary-path groupoid")
    shape = block_shape(gd, ring)
    for bi, orbit in enumerate(gd.orbits):
        if eta not in orbit.members:
            continue
        row = next(i for i, m in enumerate(orbit.members) if m == eta)
        col = next(i for i, m in enumerate(orbit.members) if m == gamma)
        net = k - orbit.degrees[row] + orbit.degrees[col]
        if orbit.kind == "sink":
            if net != 0:
                raise InternalCheckError("sink orbit arrow with nonzero net degree")
            return BlockMatrix.matrix_unit(shape, bi, row, col)
        n = orbit.anchor.length()
        if net % n:
            raise InternalCheckError("lasso arrow degree not a multiple of the cycle length")
        return BlockMatrix.matrix_unit(shape, bi, row, col, key=net // n)
    raise ValueError("boundary path not in any orbit")


def reference_generator_images(g: Graph, ring) -> GeneratorImages:
    """generator_images arrow by arrow: v is the sum of the identity
    arrows (x, 0, x) at paths x starting at v, e the sum of the arrows
    (e.x, 1, x) over paths x starting at r(e), e* the sum of their
    inverses (x, -1, e.x), each term one matrix unit."""
    gd = graph_groupoid(g)
    shape = block_shape(gd, ring)
    paths = [bp for o in gd.orbits for bp in o.members]
    vertex, edge, ghost = {}, {}, {}
    for v in range(len(g.vertices)):
        acc = BlockMatrix.zero(shape)
        for bp in paths:
            if path_start(g, bp) == v:
                acc = acc + _reference_arrow_matrix(gd, ring, bp, 0, bp)
        vertex[g.vertices[v]] = acc
    for e in range(g.edge_count):
        acc_e = acc_g = BlockMatrix.zero(shape)
        for bp in paths:
            if path_start(g, bp) == g.dst[e]:
                extended = prepend_edge(g, e, bp)
                acc_e = acc_e + _reference_arrow_matrix(gd, ring, extended, 1, bp)
                acc_g = acc_g + _reference_arrow_matrix(gd, ring, bp, -1, extended)
        edge[g.edge_names[e]] = acc_e
        ghost[g.edge_names[e]] = acc_g
    return GeneratorImages(g, ring, gd, shape, vertex, edge, ghost)


def reference_attained_matrix_units(images: GeneratorImages) -> int:
    """Number of pairs (eta, gamma) of paths into one sink with
    img(eta) . ghost(gamma) equal to a freshly built E_{eta,gamma}: all
    P^2 products, each path's image built from its suffix.  Only
    meaningful for acyclic graphs."""
    g = images.graph
    img: dict = {}
    ghost: dict = {}
    attained = 0
    for bi, orbit in enumerate(images.decomposition.orbits):
        members = orbit.members
        for bp in members:
            key = (bp.edges, bp.sink)
            if not bp.edges:
                img[key] = ghost[key] = images.vertex[g.vertices[bp.sink]]
                continue
            first = g.edge_names[bp.edges[0]]
            rest = (bp.edges[1:], bp.sink)
            img[key] = images.edge[first] * img[rest]
            ghost[key] = ghost[rest] * images.ghost[first]
        for r, eta in enumerate(members):
            left = img[(eta.edges, eta.sink)]
            for c, gamma in enumerate(members):
                unit = BlockMatrix.matrix_unit(images.shape, bi, r, c)
                if left * ghost[(gamma.edges, gamma.sink)] == unit:
                    attained += 1
    return attained


def reference_verify_leavitt_relations(g: Graph, ring, images: GeneratorImages | None = None) -> VerificationReport:
    """verify_leavitt_relations on block matrices only: every relation
    is multiplied out as BlockMatrix products over the ring, and the
    span check counts attained units with reference_path_unit_count.
    Same checks, same labels, same order; no budget."""
    if images is None:
        images = generator_images(g, ring)
    total = 0
    passed = 0
    failures = []

    def check(ok: bool, label: str):
        nonlocal total, passed
        total += 1
        if ok:
            passed += 1
        else:
            failures.append(label)

    zero = BlockMatrix.zero(images.shape)
    names = list(g.vertices)
    for u in names:
        for v in names:
            expect = images.vertex[u] if u == v else zero
            check(images.vertex[u] * images.vertex[v] == expect,
                  f"vertex idempotents: {u} * {v}")
    unit = zero
    for v in names:
        unit = unit + images.vertex[v]
    check(unit == BlockMatrix.identity(images.shape), "vertex sum = identity")

    for e in range(g.edge_count):
        en = g.edge_names[e]
        sv = g.vertices[g.src[e]]
        rv = g.vertices[g.dst[e]]
        x, y = images.edge[en], images.ghost[en]
        check(images.vertex[sv] * x == x, f"unit path: {sv} . {en}")
        check(x * images.vertex[rv] == x, f"unit path: {en} . {rv}")
        check(images.vertex[rv] * y == y, f"unit path: {rv} . {en}*")
        check(y * images.vertex[sv] == y, f"unit path: {en}* . {sv}")

    for e in range(g.edge_count):
        for f in range(g.edge_count):
            en, fn = g.edge_names[e], g.edge_names[f]
            expect = images.vertex[g.vertices[g.dst[e]]] if e == f else zero
            check(images.ghost[en] * images.edge[fn] == expect, f"CK1: {en}* . {fn}")

    for v in range(len(g.vertices)):
        outs = g.out_edges(v)
        if not outs:
            continue
        acc = zero
        for e in outs:
            en = g.edge_names[e]
            acc = acc + images.edge[en] * images.ghost[en]
        check(acc == images.vertex[g.vertices[v]], f"CK2 at {g.vertices[v]}")

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
            m = images.edge[g.edge_names[e]]
            word = m if word is None else word * m
        expect = BlockMatrix.matrix_unit(images.shape, bi, 0, 0, key=1)
        check(word.entry(bi, 0, 0) == expect.entry(bi, 0, 0),
              f"cycle word attains x in block {bi}")

    return VerificationReport("Leavitt relation checks", total, passed, tuple(failures))


def reference_path_unit_count(images: GeneratorImages) -> int:
    """_attained_matrix_units on block matrices: each path's image and
    ghost is the BlockMatrix product of its first edge's image with its
    suffix's, compared with a freshly built matrix unit, 2P products for
    P paths.  Only meaningful for acyclic graphs."""
    g = images.graph
    img: dict = {}
    ghost: dict = {}
    attained = 0
    for bi, orbit in enumerate(images.decomposition.orbits):
        rows = cols = 0
        for r, bp in enumerate(orbit.members):
            key = (bp.edges, bp.sink)
            if not bp.edges:
                img[key] = ghost[key] = images.vertex[g.vertices[bp.sink]]
            else:
                first = g.edge_names[bp.edges[0]]
                rest = (bp.edges[1:], bp.sink)
                img[key] = images.edge[first] * img[rest]
                ghost[key] = ghost[rest] * images.ghost[first]
            rows += img[key] == BlockMatrix.matrix_unit(images.shape, bi, r, 0)
            cols += ghost[key] == BlockMatrix.matrix_unit(images.shape, bi, 0, r)
        attained += rows * cols
    return attained


def _matrix_power_trace_mod(m, q, mod, d):
    def matmul(a, b):
        out = [[0] * d for _ in range(d)]
        for r in range(d):
            ar = a[r]
            outr = out[r]
            for k in range(d):
                ark = ar[k]
                if ark:
                    bk = b[k]
                    for c in range(d):
                        outr[c] = (outr[c] + ark * bk[c]) % mod
        return out
    result = None
    base = [[v % mod for v in row] for row in m]
    e = q
    while e:
        if e & 1:
            result = base if result is None else matmul(result, base)
        e >>= 1
        if e:
            base = matmul(base, base)
    return sum(result[i][i] for i in range(d)) % mod


def _left_mult_matrix_int(bp, z, d):
    m = [[0] * d for _ in range(d)]
    for i, zi in enumerate(z):
        if zi:
            row = bp[i]
            for c in range(d):
                k = row[c]
                if k >= 0:
                    m[k][c] += zi
    return m


def reference_filtration_radical(bp, d, p):
    """The trace-lift filtration with every trace read off a matrix:
    build the d x d integer left-multiplication matrix L_z of each basis
    product z, raise it to the power q = p^j mod p^(j+1), and sum its
    diagonal.  Same stages, kernels and echelon steps as the package's
    `_filtration_radical_modp`, which reads the trace as <tr, z^q>."""
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
        for y in basis:
            row = []
            for b in basis:
                z = _vec_mul(bp, b, y, d)
                t = _matrix_power_trace_mod(_left_mult_matrix_int(bp, z, d), q, mod, d)
                if t % q:
                    raise InternalCheckError("trace filtration divisibility failed")
                row.append((t // q) % p)
            rows.append(row)
        coeff_kernel = kernel(rows, p)
        new_basis = []
        for coeffs in coeff_kernel:
            vec = [0] * d
            for c, b in zip(coeffs, basis):
                if c:
                    for idx in range(d):
                        vec[idx] = (vec[idx] + c * b[idx]) % p
            new_basis.append(vec)
        basis, _ = rref(new_basis, p)
    return basis


def reference_rref_q(rows):
    """Gauss-Jordan over Q on `Fraction` rows: each pivot row is scaled
    to pivot 1 and subtracted from every other row with a nonzero entry
    in its column.  `linalg.rref` eliminates on integer rows instead and
    must return exactly this, entry types included."""
    m = [list(map(Fraction, r)) for r in rows]
    pivots = []
    row = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((i for i in range(row, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [v * inv for v in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return m[:row], pivots


def reference_kernel_q(rows):
    """Kernel basis read off `reference_rref_q`, one vector per free
    column, as `linalg.kernel` must return it over Q."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = reference_rref_q(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in zip(reduced, pivots):
            v[c] = -r[f]
        basis.append(v)
    return basis
