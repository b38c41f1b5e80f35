"""Chain-condition verdicts and the brute-force semisimplicity oracle.

verdicts() reads facts off the block decomposition: the algebra of a
finite groupoid is a finite product of matrix algebras over isotropy
group algebras, so

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
GF(p) the oracle searches for a nonzero element a whose right ideal aA
is nilpotent; the search is exhaustive when p^dim is small, otherwise
candidates come from an iterated trace-lift filtration (the classical
radical algorithm over prime fields).  The filtration needs traces of
powers of left multiplications, and since left multiplication L is a
representation of the integer form of the algebra it reads them off
algebra powers: Tr(L_z^q) = <tr, z^q>, with tr[c] the trace of left
multiplication by arrow c.  Either way every nonzero answer
is certified on the spot: the reported radical must be a nilpotent
ideal and the witness must satisfy (aA)^k = 0, so a wrong "not
semisimple" cannot escape.  A wrong "semisimple" cannot either: the
radical is always contained in the trace-form kernel respectively the
filtration result, and those coming out zero forces the radical to be
zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

from .algebra import AlgebraElement
from .errors import InternalCheckError, OracleBudgetError
from .group_algebra import BlockShape, IntegerGroup
from .groupoid import FiniteGroupoid, StructuredGroupoid
from .linalg import kernel, reduce, rref
from .rings import (
    GaloisField,
    Rationals,
    RingDescriptor,
    RingElement,
    render_ring_descriptor,
    ring_predicates,
)

ORACLE_DIMENSION_LIMIT_CHAR0 = 64
ORACLE_DIMENSION_LIMIT_CHARP = 12
_EXHAUSTIVE_LIMIT = 4096  # largest p**dim the element sweep will walk

CITE_BLOCK = "block reduction"
CITE_CONNELL = "Connell"
CITE_MASCHKE = "Maschke"
CITE_HILBERT = "Hilbert basis"


@dataclass(frozen=True)
class Verdict:
    noetherian: bool
    artinian: bool
    semisimple: bool
    shape_string: str
    justification: tuple


def verdicts(sg: StructuredGroupoid, ring: RingDescriptor) -> Verdict:
    preds = ring_predicates(ring)
    rname = render_ring_descriptor(ring)
    shape_string = BlockShape(ring, tuple((o.size, o.isotropy) for o in sg.orbits)).render()
    finite_orders = [
        o.isotropy.size for o in sg.orbits if not isinstance(o.isotropy, IntegerGroup)
    ]
    infinite_isotropy = any(isinstance(o.isotropy, IntegerGroup) for o in sg.orbits)
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


@dataclass(frozen=True)
class RadicalReport:
    semisimple: bool
    witness: object          # AlgebraElement or None
    method: str
    dimension: int
    radical_dimension: object  # int when the full radical was computed


def _basis_products(g: FiniteGroupoid):
    """bp[i][j] = index of arrow i after arrow j, or -1."""
    d = g.arrow_count
    bp = [[-1] * d for _ in range(d)]
    for (i, j), k in g.comp:
        bp[i][j] = k
    return bp


def _vec_mul(bp, u, v, d, p=0):
    """u * v on the arrow basis, reduced mod p when p > 0: a prime for
    GF(p), or the prime power p^(j+1) the trace-lift filtration works
    modulo.  With p = 0 the entries are multiplied exactly: rationals
    over Q, or the integer lifts the filtration starts from."""
    out = [0] * d
    for i, ui in enumerate(u):
        if ui:
            row = bp[i]
            for j, vj in enumerate(v):
                if vj:
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
        reduced, _ = rref(nxt, p)
        if len(reduced) >= len(current):
            # no strict descent and still nonzero: never reaches zero
            return not reduced
        current = reduced
    return True


def _right_ideal_nilpotent(bp, w, d, p=0):
    """Is the right ideal generated by w nilpotent over Q (p = 0) or
    GF(p)?  Exact: build a basis of wA, then take its powers."""
    gens = [_vec_mul(bp, w, e, d, p) for e in _unit_vectors(d)]
    gens.append(w)
    return _powers_vanish(bp, rref(gens, p)[0], d, p)


def _ideal_certified_nilpotent(bp, basis, d, p=0):
    """basis spans a subspace V; certify V is a two-sided ideal and
    nilpotent.  Used to vouch for every nonzero radical answer."""
    rows, piv = rref(basis, p)
    for u in rows:
        for e in _unit_vectors(d):
            for vec in (_vec_mul(bp, e, u, d, p), _vec_mul(bp, u, e, d, p)):
                if any(reduce(vec, rows, piv, p)):
                    return False
    return _powers_vanish(bp, rows, d, p)


def _left_mult_trace(bp, d):
    """tr[c] = trace of left multiplication by arrow c."""
    tr = [0] * d
    for c in range(d):
        row = bp[c]
        tr[c] = sum(1 for k in range(d) if row[k] == k)
    return tr


def _certified_radical(bp, radical, d, p=0):
    """Turn a candidate radical basis into the oracle's answer, over Q
    (p = 0, the trace-form kernel) or GF(p) (the filtration result).
    A nonzero answer must be a nilpotent ideal, and its first vector,
    the witness, must generate a nilpotent right ideal."""
    if not radical:
        return True, None, 0
    if not _ideal_certified_nilpotent(bp, radical, d, p):
        what = "filtration result" if p else "trace-form kernel"
        raise InternalCheckError(f"{what} is not a nilpotent ideal")
    witness = radical[0]
    if not _right_ideal_nilpotent(bp, witness, d, p):
        raise InternalCheckError("radical witness fails the right-ideal check")
    return False, witness, len(radical)


def _trace_form(bp, d):
    """Integer Gram matrix of the trace form: entry (i, j) is the trace
    of left multiplication by the product of arrows i and j."""
    tr = _left_mult_trace(bp, d)
    return [[tr[k] if k >= 0 else 0 for k in row] for row in bp]


def _radical_char0(g: FiniteGroupoid):
    """Nullspace of the trace form, exact over Q.  The Gram matrix holds
    integers and `kernel` eliminates it fraction free, so `Fraction`
    entries appear only in the kernel vectors.  In characteristic zero
    this nullspace is the radical; both inclusions are rechecked at
    runtime (witness ideals must be nilpotent)."""
    d = g.arrow_count
    bp = _basis_products(g)
    return _certified_radical(bp, kernel(_trace_form(bp, d)), d)


def _trace_of_power(bp, tr, z, q, d, mod):
    """Tr(L_z^q) mod `mod` as <tr, z^q>, with z^q by repeated squaring."""
    result = None
    base = z
    while q:
        if q & 1:
            result = base if result is None else _vec_mul(bp, result, base, d, mod)
        q >>= 1
        if q:
            base = _vec_mul(bp, base, base, d, mod)
    return sum(t * x for t, x in zip(tr, result)) % mod


def _filtration_radical_modp(bp, d, p):
    """Iterated trace-lift filtration.  Stage 0 is the plain trace form
    mod p; stage j reads Tr(L_z^q) = <tr, z^q> for q = p^j modulo
    p^(j+1), with z the integer product of two basis vectors, divides
    it by q and reads it mod p.  The radical is contained in every
    stage, and the chain reaches it once p^stage covers the
    dimension."""
    tr = _left_mult_trace(bp, d)
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
                t = _trace_of_power(bp, tr, _vec_mul(bp, b, y, d), q, d, mod)
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


def _radical_charp(g: FiniteGroupoid, p: int, method: str):
    d = g.arrow_count
    bp = _basis_products(g)
    if method == "exhaustive":
        if p ** d > _EXHAUSTIVE_LIMIT:
            raise OracleBudgetError(
                f"element sweep over GF({p})^{d} exceeds the oracle budget"
            )
        for w in iter_product(range(p), repeat=d):
            if not any(w):
                continue
            if not _nilpotent_element_modp(bp, list(w), d, p):
                continue
            if _right_ideal_nilpotent(bp, list(w), d, p):
                return False, list(w), None
        return True, None, 0
    return _certified_radical(bp, _filtration_radical_modp(bp, d, p), d, p)


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


def oracle_budget(ring: RingDescriptor):
    """Largest arrow count the oracle takes over ring: the char-0 limit
    for Q, the char-p limit for GF(p), None for any other ring."""
    if isinstance(ring, Rationals):
        return ORACLE_DIMENSION_LIMIT_CHAR0
    if isinstance(ring, GaloisField):
        return ORACLE_DIMENSION_LIMIT_CHARP
    return None


def radical_oracle(g: FiniteGroupoid, ring: RingDescriptor, method: str = "auto") -> RadicalReport:
    """Decide semisimplicity of the groupoid algebra by brute force.

    Supports Q (dimension up to 64) and GF(p) (dimension up to 12).
    The groupoid must already have passed validate().  method is
    "auto", "exhaustive", or "filtration"; the last two are GF(p)-only
    and raise ValueError over Q.
    """
    d = g.arrow_count
    budget = oracle_budget(ring)
    if budget is None:
        raise ValueError(
            f"oracle supports Q and GF(p) only, not {render_ring_descriptor(ring)}"
        )
    if method not in ("auto", "exhaustive", "filtration"):
        raise ValueError(f"unknown oracle method '{method}'")
    p = ring.p if isinstance(ring, GaloisField) else 0
    if not p and method != "auto":
        raise ValueError(f"oracle method '{method}' is GF(p)-only; over Q use 'auto'")
    if d > budget:
        raise OracleBudgetError(
            f"dimension {d} beyond the char-{'p' if p else 0} oracle budget"
        )
    if p:
        if method == "auto":
            method = "exhaustive" if p ** d <= _EXHAUSTIVE_LIMIT else "filtration"
        semisimple, witness_vec, rad_dim = _radical_charp(g, p, method)
    else:
        method = "trace form"
        semisimple, witness_vec, rad_dim = _radical_char0(g)
    witness = None
    if witness_vec is not None:
        witness = AlgebraElement.make(
            g, ring, [(a, RingElement(ring, c)) for a, c in enumerate(witness_vec) if c]
        )
    return RadicalReport(semisimple, witness, method, d, rad_dim)
