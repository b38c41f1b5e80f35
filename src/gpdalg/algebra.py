"""Convolution algebra of a finite groupoid and its block-matrix form.

The algebra has one basis element per arrow.  Convolution is

    (f1 * f2)(g) = sum over h with dom(h) = dom(g) of f1(g h^-1) f2(h)

which on basis arrows is the category-algebra rule: [g][h] = [gh] when
dom(g) = cod(h), else 0.

decompose() picks the deterministic frame from groupoid.orbits and
realizes the algebra as one matrix block per orbit, entries in the
group algebra of the basepoint isotropy; the layout is its BlockShape,
which verdicts() reads.  An arrow g: y -> z in orbit i
lands in block i at (row of z, column of y) carrying the isotropy
element conn_z^-1 g conn_y.  phi/phi_inv implement the two directions;
verify_isomorphism checks multiplicativity on every pair of basis
arrows, unit preservation, and that the two directions invert each
other on every basis vector of both sides.

The checks work on basis indices.  phi runs once per arrow, and each
image, a block matrix stored by its matrix units, is one unit (block,
row, col, isotropy key) with coefficient one, read off at a cost that
does not grow with the number of blocks.  A pair then passes when the
unit of the composite, or zero, equals the product of the two units,
which is (b, r, c', table[k][k']) when both sit in block b and c = r',
else zero.
When every image is such a unit and the units give an injective map
object -> (block, row) (slot(cod a) = (b, r), slot(dom a) = (b, c)),
two units chain only when their arrows compose, so every
non-composable pair is zero on both sides and passes without being
visited.  Of the composable pairs, those (a, s) with s one of the
generators validate certified associativity on suffice: every arrow
is a left-nested composite of them and phi is linear, so
multiplicativity on them gives it on every pair by induction, as
Light's test gives associativity (Clifford and Preston, The Algebraic
Theory of Semigroups I, 1.2).  When a generator pair fails the pair
loop visits every composable pair, and without the slot map every
pair, so failures are listed as by the full scan; the report still
counts all d^2.  The round trips compare indices too: phi_inv sends
the unit (b, r, c, k) to the arrow conn_r iso[k] conn_c^-1, so
phi_inv(phi([a])) == [a] when that arrow is a, and phi(phi_inv(E)) ==
E when the unit of that arrow is E.  The pair (0, 0), the first round
trip of each kind, and any check that meets an image that is not a
single coefficient-one unit or a missing composition, still goes
through convolve, phi, phi_inv and the block matrix operations with
the ring's own elements.
"""
from __future__ import annotations

from .errors import InternalCheckError, ParseError, RingMismatchError
from .group_algebra import BlockMatrix, BlockShape
from .groupoid import (
    FiniteGroupoid,
    generators,
    orbit_isotropies,
    orbits,
    validate,
)
from .rings import RingDescriptor, RingElement, sum_like_terms
from .value import Value


class AlgebraElement(Value):
    """Finitely supported arrow -> coefficient map, no zero entries."""

    __slots__ = ("groupoid", "ring", "coeffs")

    def __init__(self, groupoid: FiniteGroupoid, ring: RingDescriptor, coeffs: tuple):
        self.groupoid = groupoid
        self.ring = ring
        self.coeffs = coeffs  # sorted tuple of (arrow index, RingElement)

    @staticmethod
    def make(g, ring, items) -> "AlgebraElement":
        return AlgebraElement(g, ring, sum_like_terms(items))

    @staticmethod
    def zero(g, ring) -> "AlgebraElement":
        return AlgebraElement(g, ring, ())

    @staticmethod
    def delta(g, ring, arrow: int, coeff: RingElement | None = None) -> "AlgebraElement":
        if coeff is None:
            coeff = RingElement.one(ring)
        return AlgebraElement(g, ring, () if coeff.is_zero else ((arrow, coeff),))

    @staticmethod
    def chi(g, ring, arrow_set) -> "AlgebraElement":
        one = RingElement.one(ring)
        return AlgebraElement.make(g, ring, [(a, one) for a in arrow_set])

    @staticmethod
    def unit(g, ring) -> "AlgebraElement":
        """Characteristic function of the unit space."""
        return AlgebraElement.chi(g, ring, g.identity_arrows())

    def _check(self, other):
        if self.groupoid is not other.groupoid and self.groupoid != other.groupoid:
            raise RingMismatchError("elements live over different groupoids")
        if self.ring != other.ring:
            raise RingMismatchError("elements live over different rings")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, arrow: int) -> RingElement:
        for a, c in self.coeffs:
            if a == arrow:
                return c
        return RingElement.zero(self.ring)

    def __add__(self, other):
        self._check(other)
        return AlgebraElement.make(self.groupoid, self.ring, self.coeffs + other.coeffs)

    def __neg__(self):
        return AlgebraElement(
            self.groupoid, self.ring, tuple((a, -c) for a, c in self.coeffs)
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return convolve(self, other)

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*{self.groupoid.arrows[a]}" for a, c in self.coeffs)


def convolve(f1: AlgebraElement, f2: AlgebraElement) -> AlgebraElement:
    f1._check(f2)
    g = f1.groupoid
    items = []
    for a, c1 in f1.coeffs:
        for b, c2 in f2.coeffs:
            if g.dom[a] == g.cod[b]:
                ab = g.compose(a, b)
                if ab is None:
                    raise ValueError("groupoid has a missing composition entry")
                items.append((ab, c1 * c2))
    return AlgebraElement.make(g, f1.ring, items)


def parse_element_literal(text: str, g: FiniteGroupoid, ring: RingDescriptor) -> AlgebraElement:
    """Literal syntax for tests and reports: '3*f + (-1)*id_a + g'.
    Coefficients are integers, fractions n/d (over Q), possibly
    parenthesized with a sign."""
    items = []
    for chunk in text.split("+"):
        term = chunk.strip()
        if not term:
            raise ParseError("empty term in element literal")
        if "*" in term:
            coeff_text, name = (s.strip() for s in term.rsplit("*", 1))
            if coeff_text.startswith("(") and coeff_text.endswith(")"):
                coeff_text = coeff_text[1:-1].strip()
            try:
                if "/" in coeff_text:
                    num, den = coeff_text.split("/", 1)
                    coeff = RingElement.rational(ring, int(num), int(den))
                else:
                    coeff = RingElement.from_int(ring, int(coeff_text))
            except RingMismatchError:
                raise
            except ValueError as exc:
                raise ParseError(f"bad coefficient '{coeff_text}'") from exc
        else:
            name = term
            coeff = RingElement.one(ring)
        try:
            arrow = g.arrow_index(name)
        except KeyError:
            raise ParseError(f"unknown arrow '{name}'") from None
        items.append((arrow, coeff))
    return AlgebraElement.make(g, ring, items)


class Decomposition(Value):
    """Frame data binding a validated groupoid to its block algebra."""

    __slots__ = (
        "groupoid",
        "ring",
        "orbit_frames",    # Orbit per block
        "isotropies",      # IsotropyGroup per block, at each basepoint
        "shape",           # BlockShape
        "arrow_position",  # arrow -> (block, row, col, isotropy element index)
    )


def decompose(g: FiniteGroupoid, ring: RingDescriptor) -> Decomposition:
    """Validate, pick frames, and lay out the block algebra.

    Raises ValueError listing the violations if the input is not a
    groupoid, and InternalCheckError if the frames miss an arrow.
    """
    problems = validate(g)
    if problems:
        head = "; ".join(str(v) for v in problems[:3])
        raise ValueError(f"not a groupoid ({len(problems)} violations): {head}")
    frames = orbits(g)
    per_orbit = orbit_isotropies(g, frames)
    isotropies = tuple(iso for _, iso in per_orbit)
    shape = BlockShape(
        ring, tuple((len(o.members), iso.table) for o, iso in zip(frames, isotropies)))

    position = [None] * g.arrow_count
    for bi, (orb, (arrows, iso)) in enumerate(zip(frames, per_orbit)):
        member_pos = {m: i for i, m in enumerate(orb.members)}
        loop_pos = {a: i for i, a in enumerate(iso.arrows)}
        for a in arrows:  # dom(a) is in orb
            y, z = g.dom[a], g.cod[a]
            if z in member_pos:
                conn_y = orb.connecting[member_pos[y]]
                conn_z = orb.connecting[member_pos[z]]
                loop = g.compose(g.inv[conn_z], g.compose(a, conn_y))
                position[a] = (bi, member_pos[z], member_pos[y], loop_pos[loop])
    if any(p is None for p in position):
        raise InternalCheckError("orbit computation missed an arrow")
    return Decomposition(
        g, ring, tuple(frames), tuple(isotropies), shape, tuple(position)
    )


def phi(d: Decomposition, f: AlgebraElement) -> BlockMatrix:
    """Algebra -> block matrices along the frame: [a] goes to the matrix
    unit at arrow_position[a]."""
    if f.groupoid != d.groupoid or f.ring != d.ring:
        raise RingMismatchError("element does not match the decomposition")
    position = d.arrow_position
    return BlockMatrix.build(d.shape, [(position[a], c) for a, c in f.coeffs])


def phi_inv(d: Decomposition, m: BlockMatrix) -> AlgebraElement:
    """Block matrices -> algebra: a E_{zy} pulls back to conn_z a conn_y^-1."""
    if m.shape != d.shape:
        raise RingMismatchError("matrix does not match the decomposition")
    return AlgebraElement.make(
        d.groupoid, d.ring, [(_pull(d, *unit), c) for unit, c in m.entries])


def _pull(d: Decomposition, bi, row, col, key):
    """The arrow conn_row iso[key] conn_col^-1 that phi_inv gives for the
    coefficient-one unit (bi, row, col, key), or None when a composition
    along the way is missing."""
    g = d.groupoid
    connecting = d.orbit_frames[bi].connecting
    loop = d.isotropies[bi].arrows[key]
    return g.compose(connecting[row], g.compose(loop, g.inv[connecting[col]]))


class VerificationReport(Value):
    """Outcome of an exhaustive check: how many unit checks ran, and a
    witness string per failure; every other check passed."""

    __slots__ = ("description", "total", "failures")

    @property
    def passed(self) -> int:
        return self.total - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return f"{self.passed}/{self.total} {self.description}"


_ZERO = ()  # index form of the zero matrix in the pair check


def _slot_certificate(g: FiniteGroupoid, units) -> bool:
    """True when every image is a unit and object -> (block, row), with
    slot(cod a) = (b, r) and slot(dom a) = (b, c) for the unit (b, r, c, k)
    of each arrow a, is well defined and injective.  Then the units of a
    and b chain only when dom a = cod b, so every other pair multiplies
    to zero on both sides."""
    slot = [None] * len(g.objects)
    for a, unit in enumerate(units):
        if unit is None:
            return False
        bi, row, col, _ = unit
        for x, s in ((g.cod[a], (bi, row)), (g.dom[a], (bi, col))):
            if slot[x] is None:
                slot[x] = s
            elif slot[x] != s:
                return False
    return len(set(slot)) == len(slot)


def _pair_partners(g: FiniteGroupoid, slots_ok: bool, gens=None) -> list:
    """The b that the pair loop visits for each arrow a, in the order of
    the full scan.  When the arrow units pass _slot_certificate
    (slots_ok) these are the arrows composable with a, or only those in
    gens when given, and arrow 0 also meets itself; otherwise every
    arrow."""
    n = g.arrow_count
    if not slots_ok:
        return [range(n)] * n
    into = [[] for _ in g.objects]
    for b in range(n) if gens is None else gens:
        into[g.cod[b]].append(b)
    partners = [into[g.dom[a]] for a in range(n)]
    if n and g.dom[0] != g.cod[0]:
        partners[0] = [0] + partners[0]
    return partners


def _product_generators(g: FiniteGroupoid):
    """validate's generators when g passed validate and every row holds
    an entry per arrow into its domain, else None."""
    if validate(g):
        return None
    into = [0] * len(g.objects)
    for y in g.cod:
        into[y] += 1
    if any(len(row) != into[x] for row, x in zip(g.rows, g.dom)):
        return None
    return generators(g)


def verify_isomorphism(d: Decomposition) -> VerificationReport:
    """Check that phi is a unital isomorphism onto the block algebra:
    multiplicative on all arrow pairs, unit to identity, inverted both
    ways by phi_inv on every basis vector.

    The pair loop visits the pairs _pair_partners plans.  When the
    arrow units pass _slot_certificate every non-composable pair is
    zero on both sides and counts as passed.  If moreover g passed
    validate, the loop visits the ring-level pair (0, 0) and the pairs
    (a, s) with s one of validate's generators and dom a = cod s, in
    the order of the full scan.  That proves the rest: every arrow t is
    a left-nested composite of generators, t = t's with s a generator,
    so by induction on t and the associativity validate certified,
    phi([a][t]) = phi([a][t'][s]) = phi([a][t']) phi(s) = phi(a)
    phi(t') phi(s) = phi(a) phi(t), and phi is linear.  When a visited
    pair fails, or g did not pass, the loop visits (0, 0) and every
    composable pair; without the slot certificate, every pair.  Either
    way the failures are those of the full scan, and the report counts
    all d^2.  The round trips compare indices: phi_inv(phi([a])) == [a]
    as _pull(unit of a) == a, and phi(phi_inv(E)) == E as unit of
    _pull(E) == E.  The first round trip of each kind, and any whose
    pull is missing or whose image is not a unit, runs on block
    matrices and algebra elements."""
    g = d.groupoid
    n = g.arrow_count

    deltas = [AlgebraElement.delta(g, d.ring, a) for a in range(n)]
    images = [phi(d, da) for da in deltas]
    units = [m.unit_index() for m in images]

    dom, cod, blocks = g.dom, g.cod, d.shape.blocks

    def pair_failures(plan):
        out = []
        for a, partners in enumerate(plan):
            row_a, ua = g.rows[a], units[a]
            for b in partners:
                if dom[a] == cod[b]:
                    ab = row_a.get(b)
                    if ab is None:
                        raise InternalCheckError(
                            f"no composition for composable pair ({g.arrows[a]}, {g.arrows[b]})"
                        )
                    left = units[ab]
                else:
                    left = _ZERO
                ub = units[b]
                if (a == 0 and b == 0) or ua is None or ub is None or left is None:
                    da, db = deltas[a], deltas[b]
                    ok = phi(d, convolve(da, db)) == phi(d, da) * phi(d, db)
                elif ua[0] == ub[0] and ua[2] == ub[1]:
                    ok = left == (ua[0], ua[1], ub[2], blocks[ua[0]][1].table[ua[3]][ub[3]])
                else:
                    ok = left == _ZERO
                if not ok:
                    out.append(f"phi not multiplicative on ({g.arrows[a]}, {g.arrows[b]})")
        return out

    slots_ok = _slot_certificate(g, units)
    gens = _product_generators(g) if slots_ok else None
    failures = pair_failures(_pair_partners(g, slots_ok, gens))
    if failures and gens is not None:
        failures = pair_failures(_pair_partners(g, slots_ok))
    total = n * n + 1 + n
    if phi(d, AlgebraElement.unit(g, d.ring)) != BlockMatrix.identity(d.shape):
        failures.append("phi does not send the unit to the identity matrix")

    for a in range(n):
        back = None if a == 0 or units[a] is None else _pull(d, *units[a])
        if back is None:
            ok = phi_inv(d, images[a]) == deltas[a]
        else:
            ok = back == a
        if not ok:
            failures.append(f"phi_inv(phi([{g.arrows[a]}])) != [{g.arrows[a]}]")

    first = True
    for bi, (size, group) in enumerate(d.shape.blocks):
        keys = range(group.size)
        for row in range(size):
            for col in range(size):
                for key in keys:
                    total += 1
                    arrow = None if first else _pull(d, bi, row, col, key)
                    first = False
                    if arrow is None or units[arrow] is None:
                        unit = BlockMatrix.matrix_unit(d.shape, bi, row, col, key)
                        ok = phi(d, phi_inv(d, unit)) == unit
                    else:
                        ok = units[arrow] == (bi, row, col, key)
                    if not ok:
                        failures.append(
                            f"phi(phi_inv(E)) != E at block {bi} ({row},{col}) g{key}"
                        )

    return VerificationReport(
        "isomorphism checks (arrow pairs, unit, basis round trips)",
        total,
        tuple(failures),
    )
