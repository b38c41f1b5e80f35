"""Chain-condition verdicts and the certified semisimplicity oracle.

verdicts() reads facts off the block layout, a BlockShape: the algebra
of a groupoid with finitely many orbits is a finite product of matrix
algebras M_n(R[G]) over isotropy group algebras, one block per orbit,
so

  * Noetherian  iff the coefficient ring is Noetherian and every
    isotropy group algebra is (finite groups: module-finite transfer;
    infinite cyclic: Laurent polynomials, Hilbert basis theorem);
  * Artinian    iff the coefficient ring is Artinian and every isotropy
    group is finite (Connell's theorem for group rings);
  * semisimple  iff the coefficient ring is a finite product of fields
    none of whose characteristics divides any isotropy order
    (Maschke's theorem), with all isotropy finite.

radical_oracle() answers the semisimplicity question for the same
algebra without using any of that structure: it works directly on the
arrow basis of a validated finite groupoid.  Over Q the radical is the
nullspace of the trace form of the left regular representation.  Over
GF(p) it is the end of an iterated trace-lift filtration, the classical
radical algorithm over prime fields (Ronyai 1990; Cohen, Ivanyos and
Wales 1997), whose stage 0 is the same trace form read mod p.  The
later stages need traces of powers of left multiplications, and since
left multiplication L is a representation of the integer form of the
algebra it reads them off algebra powers: Tr(L_z^q) = <tr, z^q>, with
tr[c] the trace of left multiplication by arrow c.  The trace form and
every product are read off the groupoid's one composition table,
`g.rows` (one nonzero per Gram row for a groupoid); no d x d table is
built.  Vectors, and the rows `linalg.echelon` eliminates, are sparse
(dicts from arrow to nonzero coefficient).  The filtration
runs once per block (arrows linked by nonzero products), in ceil(log_p)
of the block's dimension stages, carrying each distinct product's power
to the next stage while the basis stays the same.  The caller picks no
method: over GF(p) with p^dim at most 4096 the answer is labelled
"exhaustive" and reports the element an exhaustive sweep of GF(p)^dim
would find first, the last row of the radical's reduced echelon basis
(the sweep itself lives on in the test suite as a cross-check); above
that it is labelled "filtration" and reports the radical's dimension.
Either way every nonzero answer is certified on the spot: the reported
radical must be a nilpotent two-sided ideal, so a wrong "not
semisimple" cannot escape.  The witness w is one of its vectors, so
its right ideal wA lies inside it and is nilpotent as well.  The ideal
property is tested against the generating arrows validate certifies
associativity on (every arrow is a product of them, so closure under
them is closure under the algebra), and nilpotency by repeated
squaring, I -> I^2 -> I^4 -> ..., until zero or no drop in dimension.
A wrong "semisimple" cannot escape either: the radical is always
contained in the trace-form kernel respectively the filtration result,
and those coming out zero forces the radical to be zero.
"""
from __future__ import annotations

from .algebra import AlgebraElement
from .errors import InternalCheckError, OracleBudgetError
from .group_algebra import BlockShape, IntegerGroup
from .groupoid import FiniteGroupoid, generators
from .linalg import echelon, rref_residue, sparse_kernel
from .rings import (
    GaloisField,
    Rationals,
    RingDescriptor,
    RingElement,
    render_ring_descriptor,
    ring_predicates,
)
from .value import Value

ORACLE_DIMENSION_LIMIT_CHAR0 = 64
ORACLE_DIMENSION_LIMIT_CHARP = 96
_EXHAUSTIVE_LIMIT = 4096  # largest p**dim reported as the element sweep

CITE_BLOCK = "block reduction"
CITE_CONNELL = "Connell"
CITE_MASCHKE = "Maschke"
CITE_HILBERT = "Hilbert basis"


class Verdict(Value):
    __slots__ = ("noetherian", "artinian", "semisimple", "shape_string", "justification")


def verdicts(shape: BlockShape) -> Verdict:
    """The chain conditions of the block algebra shape, over shape.ring."""
    ring = shape.ring
    preds = ring_predicates(ring)
    rname = render_ring_descriptor(ring)
    shape_string = shape.render()
    groups = [group for _, group in shape.blocks]
    finite_orders = [group.size for group in groups if not isinstance(group, IntegerGroup)]
    infinite_isotropy = len(finite_orders) < len(groups)
    lines = [f"algebra decomposes as {shape_string} [{CITE_BLOCK}]"]

    noetherian = preds.noetherian
    if noetherian:
        line = (
            f"Noetherian: {rname} is Noetherian and each isotropy group algebra "
            f"over it is Noetherian [{CITE_BLOCK}]"
        )
        if infinite_isotropy:
            line += f"; infinite cyclic isotropy gives Laurent polynomial entries [{CITE_HILBERT}]"
        lines.append(line)
    else:
        lines.append(f"not Noetherian: {rname} is not Noetherian [{CITE_BLOCK}]")

    bad_char = None
    for p in sorted(preds.characteristics):
        if p == 0:
            continue
        for i, n in enumerate(finite_orders):
            if n % p == 0:
                bad_char = (p, i, n)
                break
        if bad_char:
            break

    artinian = preds.artinian and not infinite_isotropy
    if artinian:
        lines.append(
            f"Artinian: {rname} is Artinian and every isotropy group is finite [{CITE_CONNELL}]"
        )
    elif not preds.artinian:
        lines.append(f"not Artinian: {rname} is not Artinian [{CITE_CONNELL}]")
    else:
        lines.append(
            f"not Artinian: an orbit has infinite cyclic isotropy, so the arrow "
            f"space is infinite [{CITE_CONNELL}]"
        )

    semisimple = preds.field_product and not infinite_isotropy and bad_char is None
    if semisimple:
        chars = "{" + ",".join(str(c) for c in sorted(preds.characteristics)) + "}"
        lines.append(
            f"semisimple: {rname} is a finite product of fields with characteristics "
            f"{chars}, none dividing an isotropy order [{CITE_MASCHKE}]"
        )
    elif not preds.field_product:
        lines.append(
            f"not semisimple: {rname} is not a finite product of fields [{CITE_MASCHKE}]"
        )
    elif infinite_isotropy:
        lines.append(
            f"not semisimple: infinite cyclic isotropy, Laurent entries are never "
            f"semisimple [{CITE_MASCHKE}]"
        )
    else:
        p, i, n = bad_char
        lines.append(
            f"not semisimple: characteristic {p} divides the isotropy order {n} "
            f"of orbit {i} [{CITE_MASCHKE}]"
        )

    return Verdict(noetherian, artinian, semisimple, shape_string, tuple(lines))


# ---------------------------------------------------------------------------
# the oracle


class RadicalReport(Value):
    __slots__ = (
        "semisimple",
        "witness",            # AlgebraElement or None
        "method",
        "dimension",
        "radical_dimension",  # int; None beside an "exhaustive" witness
    )


def _mul(rows, u, v, p=0):
    """u * v on the arrow basis, for sparse vectors (dicts from arrow to
    nonzero coefficient), read off the composition table `g.rows`
    (rows[i] = {j: k}, k = arrow i after arrow j) and reduced mod p
    when p > 0: a prime for GF(p), or the prime power p^(j+1) the
    trace-lift filtration works modulo.
    With p = 0 the entries are multiplied exactly (rationals over Q).
    Every product of two arrows is one arrow or 0, so only pairs of
    nonzero entries cost anything."""
    out = {}
    for i, ui in u.items():
        row = rows[i]
        for j, vj in v.items():
            k = row.get(j)
            if k is not None:
                out[k] = out.get(k, 0) + ui * vj
    if p:
        return {k: r for k, x in out.items() if (r := x % p)}
    return {k: x for k, x in out.items() if x}


def _powers_vanish(rows, base, p):
    """base spans a subspace I with I*I inside I (sparse echelon rows);
    is I nilpotent?  Square until zero or stabilization: I^m*I^m is
    I^(2m), which lies inside I^m, so a nilpotency index N takes
    ceil(log2 N) eliminations, and I^(2m) of the same dimension as
    I^m equals it and never reaches zero."""
    current = base
    while current:
        products = (_mul(rows, u, v, p) for u in current for v in current)
        reduced, _ = echelon([w for w in products if w], p)
        if len(reduced) >= len(current):
            # no strict descent and still nonzero: never reaches zero
            return not reduced
        current = reduced
    return True


def _ideal_certified_nilpotent(rows, basis, gens, p=0):
    """basis (sparse vectors) spans a subspace V; certify V is a
    two-sided ideal and nilpotent.  gens generate the algebra (every
    basis element is a product of them), so V*s and s*V inside V for
    each s in gens give V*A and A*V inside V.  Used to vouch for every
    nonzero radical answer."""
    reduced, piv = echelon(basis, p)
    pivot_rows = dict(zip(piv, reduced))  # a full rref: see rref_residue
    for u in reduced:
        for e in gens:
            # e*u reads row e; u*e reads entry e of each row u touches
            for vec in (_mul(rows, {e: 1}, u, p), _mul(rows, u, {e: 1}, p)):
                if vec and rref_residue(vec, pivot_rows, p):
                    return False
    return _powers_vanish(rows, reduced, p)


def _certified_radical(rows, radical, gens, p=0, pick=0):
    """Turn a nonzero candidate radical basis (sparse vectors) into the
    oracle's answer, over Q (p = 0, the trace-form kernel) or GF(p)
    (the filtration result); gens generate the algebra.  The answer
    must be a nilpotent two-sided ideal J.  Its vector at index pick is
    the witness w, whose right ideal wA then lies inside J and needs no
    check of its own."""
    if not _ideal_certified_nilpotent(rows, radical, gens, p):
        what = "filtration result" if p else "trace-form kernel"
        raise InternalCheckError(f"{what} is not a nilpotent ideal")
    return False, radical[pick], len(radical)


def _trace_form(rows):
    """The trace form on the arrow basis, read off the composition
    table alone (rows[i] = {j: k}, k = arrow i after arrow j).  Returns
    (tr, gram): tr[i] is the trace of left multiplication by arrow i,
    the number of entries of row i with k = j, and gram, the integer
    Gram matrix as sparse rows, holds the trace of left multiplication
    by the product of arrows i and j, tr[k], at row i and column j.
    Only the entries of the table are read; no d x d table is built."""
    tr = [len([j for j, k in row.items() if k == j]) for row in rows]
    gram = [{j: tr[k] for j, k in row.items() if tr[k]} for row in rows]
    return tr, gram


def _radical_char0(g: FiniteGroupoid):
    """Nullspace of the trace form, exact over Q.  The Gram matrix holds
    integers and `sparse_kernel` eliminates it fraction free on its
    nonzero entries (one per row for a groupoid), so `Fraction` entries
    appear only in the kernel vectors.  In characteristic zero this
    nullspace is the radical; a nonzero kernel is certified a nilpotent
    ideal at runtime, multiplying on `g.rows`."""
    d = g.arrow_count
    radical = sparse_kernel(_trace_form(g.rows)[1], d)
    if not radical:
        return True, None, 0
    return _certified_radical(g.rows, radical, generators(g))


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


def _filtration_radical_modp(g: FiniteGroupoid, p):
    """Iterated trace-lift filtration on sparse vectors, one block
    (`_blocks`: a unital two-sided ideal, off which its elements
    multiply to zero) at a time.  Stage 0 is the trace form mod p; stage
    j reads Tr(L_z^q) = <tr, z^q> for q = p^j mod p^(j+1), z the product
    of two basis vectors, divides it by q and reads it mod p, on the
    upper triangle only, as Tr(L_(by)^q) = Tr(L_(yb)^q) over Z.  A block
    reaches its radical once p^stages covers its dimension.  Products
    are taken mod p^(stages+1), each distinct one's power once a stage;
    while a stage keeps the whole basis, the next raises each power to
    the p-th.  Products are read off `g.rows`.  Returns the radical's
    rref rows."""
    rows = g.rows
    tr, gram = _trace_form(rows)
    kernel = echelon(sparse_kernel(gram, g.arrow_count, p), p)[0]
    if not kernel:
        return kernel
    block_of, by_block = _blocks(rows), {}
    for v in kernel:
        by_block.setdefault(block_of[next(iter(v))], []).append(v)
    radical = []
    for b, basis in by_block.items():
        size = block_of.count(b)
        stages = next(s for s in range(1, size + 1) if p ** s >= size)
        mod = p ** (stages + 1)
        powers = None  # product (as a frozenset of items) -> z^q mod `mod`
        for j in range(1, stages + 1):
            q, n = p ** j, len(basis)
            if powers is None:
                where, powers = {}, {}  # where: product -> its (row, column) pairs
                for r, y in enumerate(basis):
                    for c in range(r, n):
                        z = _mul(rows, basis[c], y, mod)
                        key = frozenset(z.items())
                        if key not in powers:
                            powers[key] = _power(rows, z, q, mod)
                        where.setdefault(key, []).append((r, c))
            else:
                powers = {key: _power(rows, z, p, mod) for key, z in powers.items()}
            form = [{} for _ in range(n)]
            for key, z in powers.items():
                t = sum(tr[k] * x for k, x in z.items()) % (q * p)
                if t % q:
                    raise InternalCheckError("trace filtration divisibility failed")
                if x := t // q % p:
                    for r, c in where[key]:
                        form[r][c] = form[c][r] = x
            if not any(form):
                continue  # the kernel is the whole basis: keep it and the powers
            new_basis = []
            for coeffs in sparse_kernel(form, n, p):
                vec = {}
                for i, cf in coeffs.items():
                    for idx, x in basis[i].items():
                        vec[idx] = vec.get(idx, 0) + cf * x
                new_basis.append(vec)
            basis, powers = echelon(new_basis, p)[0], None
            if not basis:
                break
        radical += basis
    return echelon(radical, p)[0]


def _radical_charp(g: FiniteGroupoid, p: int, exhaustive: bool):
    """The certified filtration radical J over GF(p).  exhaustive reports
    what a sweep of GF(p)^d in `itertools.product` order would find
    first, and no radical dimension: in a unital algebra wA is nilpotent
    exactly when w lies in J, and the first nonzero element of J in that
    order is the last row of J's reduced echelon basis (its pivot is
    rightmost and 1)."""
    radical = _filtration_radical_modp(g, p)
    if not radical:
        return True, None, 0
    pick = -1 if exhaustive else 0
    semisimple, witness, dimension = _certified_radical(g.rows, radical, generators(g), p, pick)
    return semisimple, witness, None if exhaustive else dimension


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
    """Decide semisimplicity of the groupoid algebra from its arrow
    basis alone: the trace form over Q, the trace-lift filtration over
    GF(p).  A nonzero radical is certified a nilpotent two-sided ideal,
    and the witness is one of its vectors (see the module docstring).

    Takes Q up to dimension ORACLE_DIMENSION_LIMIT_CHAR0 and GF(p) up
    to ORACLE_DIMENSION_LIMIT_CHARP, and raises oracle_refusal's error
    otherwise.
    The groupoid must already have passed validate().  The report's
    method is "trace form" over Q; over GF(p) it is "exhaustive" while
    p^dim <= 4096, with the element sweep's witness and no radical
    dimension, and "filtration" above that.
    """
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
        witness = AlgebraElement.make(
            g, ring, [(a, RingElement(ring, c)) for a, c in witness_vec.items()]
        )
    return RadicalReport(semisimple, witness, method, d, rad_dim)
