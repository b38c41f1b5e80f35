"""The certified semisimplicity oracle.

radical_oracle() answers the semisimplicity question that verdicts()
settles by Maschke's theorem without using the block structure: it
reads every product of arrows off the groupoid's one composition table
`g.rows`, on sparse vectors (dicts from arrow to nonzero coefficient).
Over Q the radical is the nullspace of the trace form of the left
regular representation.  On a groupoid that form pairs each arrow with
its inverse alone (only an identity 1_y has a nonzero trace, the number
of arrows into y), so its Gram matrix has one nonzero entry per row and
those entries meet every column: the oracle checks exactly that pattern
and those traces, and eliminates nothing.  Over GF(p) that trace form
mod p comes first: its kernel holds the radical, so a zero kernel means
semisimple.  Each block (arrows linked by nonzero products) the kernel
touches is reduced to one corner: for the block's least idempotent
arrow e, eAe is the group algebra of the loops at e, and rad(eAe) =
e rad(A) e (Lam, A First Course in Noncommutative Rings, Thm 21.10).
Its radical N is the end of the iterated trace-lift filtration, the
classical radical algorithm over prime fields (Ronyai 1990; Cohen,
Ivanyos and Wales 1997), which reads Tr(L_z^q) = <tr, z^q> off algebra
powers, tr[c] the trace of left multiplication by arrow c.  In Cohen,
Ivanyos and Wales's form, stage j keeps the x of the ideal I_(j-1)
with g_j(x a) = 0 for every arrow a, g_j(z) = Tr(L_z^(p^j))/p^j mod p;
g_j is additive on I_(j-1), and Tr((X + pY)^(p^j)) = Tr(X^(p^j)) mod
p^(j+1), so g_j is read on a basis of I_(j-1), one power per basis
vector, on any integer lift, and extended linearly.  Transport
arrows h_y: e -> 1_y and their inverses carry N over the block:
J = sum of h_y N h_z^-1 = A N A.  Over GF(p) with p^dim at most 4096
the answer is labelled "exhaustive" and reports the element an
exhaustive sweep of GF(p)^dim would find first, the last row of J's
reduced echelon basis (the sweep lives on in the test suite); above
that it is labelled "filtration" and reports J's dimension.  Only the
GF(p) path eliminates, so only it loads `linalg`, once, through _linalg.

Every nonzero answer is certified, so a wrong "not semisimple" cannot
escape.  N in eAe must be a nilpotent two-sided ideal.  It must be
closed on the right under the corner's own generating arrows.  A few
of its vectors W are picked so that the closure of their span under
left multiplication by those arrows, run to the end, holds N; that
closure is eAe W, and its rank is dim N only when N = eAe W, a left
ideal.  Then N^m = eAe W^(m), W^(m) the span of the m-fold
products of W, squared W -> W^(2) -> W^(4) -> ... until zero, or until
m > dim N, past the nilpotency index of any ideal of that dimension.
J = A N A is an ideal by construction, and J^k lies in A N^k A = 0, as
N A N = N eAe N lies in N^2.  The witness is a vector of the ideal, so
its right ideal lies inside it.  A wrong "semisimple" cannot escape
either: over Q the radical is the trace-form kernel, which the checked
pattern makes zero; over GF(p) it lies in that kernel, and in J, since
1_y rad(A) 1_z = h_y e (h_y^-1 rad(A) h_z) e h_z^-1 lies in
h_y N h_z^-1.  A missing transport, or copies of the corner that do not
cover the block's arrows once each, is an internal error.
"""
from __future__ import annotations

from functools import cache
from importlib import import_module

from .errors import InternalCheckError, OracleBudgetError
from .group_algebra import associativity_generators
from .rings import GaloisField, Rationals, RingDescriptor, render_ring_descriptor
from .value import Value

# FiniteGroupoid in the annotations is groupoid's, not imported: the
# annotations are never evaluated, and a report whose oracle is refused
# does not load groupoid

ORACLE_DIMENSION_LIMIT_CHAR0 = 64
ORACLE_DIMENSION_LIMIT_CHARP = 96
_EXHAUSTIVE_LIMIT = 4096  # largest p**dim reported as the element sweep
_linalg = cache(lambda: import_module(".linalg", __package__))  # the GF(p) path's, on first use


class RadicalReport(Value):
    __slots__ = (
        "semisimple",
        "witness",            # "c*arrow + ..." over the arrow basis, or None
        "method",
        "dimension",
        "radical_dimension",  # int; None beside an "exhaustive" witness
    )


def _mul(rows, u, v, p):
    """u * v on the arrow basis, for sparse vectors (dicts from arrow to
    nonzero coefficient), read off the composition table `g.rows`
    (rows[i] = {j: k}, k = arrow i after arrow j) and reduced mod p: a
    prime for GF(p), or the prime power p^(j+1) the trace-lift
    filtration works modulo.  Every product of two arrows is one arrow
    or 0, so only pairs of nonzero entries cost anything."""
    out = {}
    for i, ui in u.items():
        row = rows[i]
        for j, vj in v.items():
            k = row.get(j)
            if k is not None:
                out[k] = out.get(k, 0) + ui * vj
    return {k: r for k, x in out.items() if (r := x % p)}


def _left_generators(rows, basis, gens, p):
    """W, rows of basis with A*W = I, for I the span of basis (independent
    rows) in the unital algebra A that gens generate, or None when I is
    not a left ideal.  A row outside the span C so far joins W, and C is
    closed under left multiplication by gens, to the end: then C = A*W,
    and C holds every row of basis, so C contains I.  Rank dim I makes
    C = I, so A*I = A*A*W = I: the closure proves I a left ideal.  A
    rank past dim I puts A*W, inside A*I, outside I."""
    insert, span, picks = _linalg().insert_reduced, {}, []
    for u in basis:
        if (v := insert(dict(u), span, p)) is None:
            continue
        picks.append(u)
        queue = [v]
        while queue and len(span) <= len(basis):
            v = queue.pop()
            queue += [w for e in gens if (w := _mul(rows, {e: 1}, v, p)) and (w := insert(w, span, p))]
        if len(span) > len(basis):
            return None
    return picks


def _powers_vanish(rows, picks, dim, p):
    """Is I nilpotent, for I = A*W a two-sided ideal of dimension dim
    and W = picks (`_left_generators`)?  I^(m-1)*A = I^(m-1) in the
    unital A, so I^m = I^(m-1)*A*W = I^(m-1)*W, by induction A*W^(m),
    W^(m) the span of the m-fold products of W: I^m = 0 exactly when
    W^(m) = 0.  Square, W^(2m) = W^(m)*W^(m), until zero, or until
    m > dim with W^(m) nonzero: the powers of a nilpotent I fall in
    dimension until zero, so I^(dim+1) = 0.  At most ceil(log2(dim+1))
    eliminations, of |W^(m)|^2 products each, |W^(m)| <= dim I^m."""
    linalg, current, m = _linalg(), picks, 1
    while current and m <= dim:
        current = linalg.echelon([w for u in current for v in current if (w := _mul(rows, u, v, p))], p)[0]
        m *= 2
    return not current


def _ideal_certified_nilpotent(rows, basis, gens, p):
    """basis (sparse vectors) spans a subspace I; certify I is a
    two-sided ideal and nilpotent, for every nonzero radical answer.
    gens generate the algebra (every basis element is a product of
    them), so I*s inside I for each s in gens gives I*A inside I.  The
    closure that finds W with I = A*W (`_left_generators`) proves A*I
    inside I.  Then I^m = A*W^(m), and I is nilpotent exactly when
    W^(2^j) = 0 at the first 2^j > dim I (`_powers_vanish`)."""
    linalg = _linalg()
    reduced, piv = linalg.echelon(basis, p)
    span = dict(zip(piv, reduced))  # I; a u*e outside it joins it and fails the check
    for u in reduced:
        for e in gens:
            # u*e reads entry e of each row u touches
            if linalg.insert_reduced(_mul(rows, u, {e: 1}, p), span, p) is not None:
                return False
    picks = _left_generators(rows, reduced, gens, p)
    return picks is not None and _powers_vanish(rows, picks, len(reduced), p)


def _trace_form(rows):
    """The trace form on the arrow basis, read off the composition
    table alone (rows[i] = {j: k}, k = arrow i after arrow j).  Returns
    (tr, gram): tr[i] is the trace of left multiplication by arrow i,
    the number of entries of row i with k = j, and gram, the integer
    Gram matrix as sparse rows, holds the trace of left multiplication
    by the product of arrows i and j, tr[k], at row i and column j.
    Only the entries of the table are read; no d x d table is built."""
    tr, gram = [], []
    for row in rows:
        t = 0
        for j, k in row.items():
            if k == j:
                t += 1
        tr.append(t)
    for row in rows:
        entries = {}
        for j, k in row.items():
            if t := tr[k]:
                entries[j] = t
        gram.append(entries)
    return tr, gram


def _radical_char0(g: FiniteGroupoid):
    """The radical over Q, which is zero: the Gram matrix of the trace
    form, read off `g.rows`, must have one nonzero entry per row, and
    those entries must meet every column (a nondegenerate monomial form,
    as on every groupoid).  Then the traces must be a groupoid's:
    tr(1_y) the number of arrows into y, and 0 at every other arrow.
    Anything else is an internal error; nothing is eliminated."""
    tr, gram = _trace_form(g.rows)
    if not all(len(row) == 1 for row in gram) or len(set().union(*gram)) != g.arrow_count:
        raise InternalCheckError("trace form over Q is not a nondegenerate monomial form")
    want = [0] * g.arrow_count
    for y, e in enumerate(g.identity_of):
        want[e] = g.cod.count(y)
    if tr != want:
        a = next(a for a, (got, n) in enumerate(zip(tr, want)) if got != n)
        raise InternalCheckError(f"trace over Q of {g.arrows[a]} is {tr[a]}, not {want[a]}")
    return True, None, 0


def _power(rows, z, q, mod):
    """z^q mod `mod` by repeated squaring; a vanishing power ends it early."""
    result = None
    while q:
        if not z:
            return z
        if q & 1:
            result = z if result is None else _mul(rows, result, z, mod)
        q >>= 1
        if q:
            z = _mul(rows, z, z, mod)
    return result


def _blocks(rows):
    """block_of[a] for every arrow a: the components of the arrows, two
    linked when their product in either order is nonzero (`g.rows`)."""
    root = list(range(len(rows)))

    def find(a):
        while root[a] != a:
            root[a] = a = root[root[a]]
        return a

    for i, row in enumerate(rows):
        r = find(i)
        for j in row:
            if root[j] != r:
                root[find(j)] = r
    return [find(a) for a in range(len(rows))]


def _filtration_radical_modp(rows, p):
    """Iterated trace-lift filtration on sparse vectors over the table
    rows of one unital algebra A (the oracle passes a corner GF(p)[G_x]),
    in the form of Cohen, Ivanyos and Wales.  I_0 is the kernel of the
    trace form mod p; stage j, q = p^j, has g_j(x) = Tr(L_x^q)/q mod p,
    read as <tr, x^q>/q on an integer lift of x: Tr((X + pY)^q) =
    Tr(X^q) mod pq, so any lift gives the same g_j, and g_j is additive
    on the ideal I_(j-1).  So g_j is read on the rref rows b_k of
    I_(j-1) alone, one power each, taken mod p^(stages+1), and extended
    linearly, psi(v) = sum of v[pivot_k] g_j(b_k); then I_j = {x in
    I_(j-1) : psi(x a) = 0 for every arrow a}, each equation read off the
    table, psi(x a) = sum of x[i] psi[rows[i][a]].  It reaches the
    radical once p^stages covers the dimension.  While a stage keeps the
    whole basis (psi = 0), the next raises each power to the p-th.
    Returns the radical's rref rows."""
    linalg = _linalg()
    d = len(rows)
    tr, gram = _trace_form(rows)
    basis, pivots = linalg.echelon(linalg.sparse_kernel(gram, d, p), p)
    stages = next(s for s in range(1, d + 1) if p ** s >= d)
    mod = p ** (stages + 1)
    powers = None  # b_k^q mod `mod`, one per basis row
    for j in range(1, stages + 1):
        if not basis:
            break
        q = p ** j
        if powers is None:
            powers = [_power(rows, b, q, mod) for b in basis]
        else:
            powers = [_power(rows, z, p, mod) for z in powers]
        psi = {}  # pivot column -> g_j of its row, where nonzero
        for c, z in zip(pivots, powers):
            t = sum(tr[k] * x for k, x in z.items()) % (q * p)
            if t % q:
                raise InternalCheckError("trace filtration divisibility failed")
            if x := t // q % p:
                psi[c] = x
        if not psi:
            continue  # I_j = I_(j-1): keep the basis and the powers
        equations = [{} for _ in range(d)]  # arrow a -> {k: psi(b_k a)}
        for k, b in enumerate(basis):
            for i, x in b.items():
                for a, c in rows[i].items():
                    if y := psi.get(c):
                        equations[a][k] = equations[a].get(k, 0) + x * y
        new_basis = []
        for coeffs in linalg.sparse_kernel(equations, len(basis), p):
            vec = {}
            for i, cf in coeffs.items():
                for idx, x in basis[i].items():
                    vec[idx] = vec.get(idx, 0) + cf * x
            new_basis.append(vec)
        (basis, pivots), powers = linalg.echelon(new_basis, p), None
    return basis


def _block_radical(g: FiniteGroupoid, block, p):
    """The radical of one block of `_blocks` (its arrows, ascending):
    the corner's certified radical N, carried over as h_y N h_z^-1."""
    rows, names = g.rows, g.arrows
    idempotents = [a for a in block if rows[a].get(a) == a]
    e = idempotents[0]
    loops = sorted(a for a, k in rows[e].items() if k == a and rows[a].get(e) == a)
    local = {a: i for i, a in enumerate(loops)}
    corner = [{local[b]: local[k] for b, k in rows[a].items() if b in local} for a in loops]
    transports = []
    for f in idempotents:
        h = e if f == e else next((a for a, k in rows[f].items() if k == a and rows[a].get(e) == a), None)
        inverse = next((b for b in rows[e] if rows[b].get(h) == e and rows[h].get(b) == f), None)
        if inverse is None:
            raise InternalCheckError(f"no transport from {names[e]} to {names[f]}")
        transports.append((h, inverse))
    copies = [
        [None if (k := rows[hy].get(a)) is None else rows[k].get(hz) for a in loops]
        for hy, _ in transports for _, hz in transports
    ]
    hits = [k for copy in copies for k in copy]
    if None in hits or sorted(hits) != block:
        raise InternalCheckError(f"transported corner of {names[e]} does not cover its block once")
    radical = _filtration_radical_modp(corner, p)
    if not radical:
        return radical
    n = len(loops)
    gens = associativity_generators([0] * n, [0] * n, corner, 1)  # the corner's generators
    if not _ideal_certified_nilpotent(corner, radical, gens, p):
        raise InternalCheckError("filtration result is not a nilpotent ideal")
    return [{copy[i]: x for i, x in v.items()} for copy in copies for v in radical]


def _radical_modp(g: FiniteGroupoid, p):
    """The radical of the algebra of g over GF(p) as rref rows: empty
    when the trace form mod p is nondegenerate, else `_block_radical`
    on each block its kernel touches."""
    linalg = _linalg()
    rows = g.rows
    kernel = linalg.sparse_kernel(_trace_form(rows)[1], g.arrow_count, p)
    if not kernel:
        return kernel
    block_of, radical = _blocks(rows), []
    for b in sorted({block_of[a] for v in kernel for a in v}):
        radical += _block_radical(g, [a for a, c in enumerate(block_of) if c == b], p)
    return linalg.echelon(radical, p)[0]


def _radical_charp(g: FiniteGroupoid, p: int, exhaustive: bool):
    """The certified radical J over GF(p).  exhaustive reports
    what a sweep of GF(p)^d in `itertools.product` order would find
    first, and no radical dimension: in a unital algebra wA is nilpotent
    exactly when w lies in J, and the first nonzero element of J in that
    order is the last row of J's reduced echelon basis (its pivot is
    rightmost and 1)."""
    radical = _radical_modp(g, p)
    if not radical:
        return True, None, 0
    return False, radical[-1 if exhaustive else 0], None if exhaustive else len(radical)


def oracle_refusal(ring: RingDescriptor, d: int):
    """Why radical_oracle does not take a d-dimensional algebra over
    ring, or None when it does: a ValueError for a ring other than Q
    and GF(p), an OracleBudgetError for d above the ring's limit."""
    if isinstance(ring, Rationals):
        budget = ORACLE_DIMENSION_LIMIT_CHAR0
    elif isinstance(ring, GaloisField):
        budget = ORACLE_DIMENSION_LIMIT_CHARP
    else:
        return ValueError(f"oracle handles Q and GF(p), not {render_ring_descriptor(ring)}")
    if d > budget:
        return OracleBudgetError(f"dimension {d} beyond the oracle budget {budget}")
    return None


def radical_oracle(g: FiniteGroupoid, ring: RingDescriptor) -> RadicalReport:
    """Decide semisimplicity of the algebra of g, which must have
    passed validate(), from its arrow basis alone, as the module
    docstring sets out: the trace form's pattern and traces over Q, the
    certified radical J = A N A over GF(p).  Takes Q up to dimension
    ORACLE_DIMENSION_LIMIT_CHAR0 and GF(p) up to
    ORACLE_DIMENSION_LIMIT_CHARP, and raises oracle_refusal's error
    otherwise.  The report's method is "trace form" over Q; over GF(p)
    it is "exhaustive" while p^dim <= 4096, with the element sweep's
    witness and no radical dimension, and "filtration" above that."""
    d = g.arrow_count
    refusal = oracle_refusal(ring, d)
    if refusal is not None:
        raise refusal
    p = ring.p if isinstance(ring, GaloisField) else 0
    if p:
        exhaustive = p ** d <= _EXHAUSTIVE_LIMIT
        method = "exhaustive" if exhaustive else "filtration"
        semisimple, witness_vec, rad_dim = _radical_charp(g, p, exhaustive)
    else:
        method = "trace form"
        semisimple, witness_vec, rad_dim = _radical_char0(g)
    witness = None
    if witness_vec is not None:
        witness = " + ".join(f"{witness_vec[a]}*{g.arrows[a]}" for a in sorted(witness_vec))
    return RadicalReport(semisimple, witness, method, d, rad_dim)
