"""Convolution algebra of a finite groupoid and its block-matrix form.

The algebra has one basis element per arrow.  Convolution is

    (f1 * f2)(g) = sum over h with dom(h) = dom(g) of f1(g h^-1) f2(h)

which on basis arrows is the category-algebra rule: [g][h] = [gh] when
dom(g) = cod(h), else 0.

decompose() picks the deterministic frame from groupoid.orbits and
realizes the algebra as one matrix block per orbit, entries in the
group algebra of the basepoint isotropy.  An arrow g: y -> z in orbit i
lands in block i at (row of z, column of y) carrying the isotropy
element conn_z^-1 g conn_y.  phi/phi_inv implement the two directions;
verify_isomorphism checks multiplicativity on every pair of basis
arrows, unit preservation, and that the two directions invert each
other on every basis vector of both sides.

The pair check works on basis indices.  phi runs once per arrow, and
each image is read back from its block matrix as one matrix unit
(block, row, col, isotropy key).  A pair then passes when the unit of
the composite, or zero, equals the product of the two units, which is
(b, r, c', table[k][k']) when both sit in block b and c = r', else zero.
One pair per run, and any pair whose images are not single
coefficient-one units, still goes through convolve, phi and the block
matrix product with the ring's own elements.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalCheckError, ParseError, RingMismatchError
from .group_algebra import (
    BlockMatrix,
    BlockShape,
    FiniteGroupTable,
    GroupAlgebraElement,
)
from .groupoid import (
    FiniteGroupoid,
    IsotropyGroup,
    Orbit,
    StructuredGroupoid,
    OrbitSummary,
    isotropy,
    orbits,
    validate,
)
from .rings import RingDescriptor, RingElement


@dataclass(frozen=True)
class AlgebraElement:
    """Finitely supported arrow -> coefficient map, no zero entries."""

    groupoid: FiniteGroupoid
    ring: RingDescriptor
    coeffs: tuple  # sorted tuple of (arrow index, RingElement)

    @staticmethod
    def make(g, ring, items) -> "AlgebraElement":
        acc: dict = {}
        for a, c in items:
            if a in acc:
                acc[a] = acc[a] + c
            else:
                acc[a] = c
        return AlgebraElement(
            g, ring, tuple(sorted((a, c) for a, c in acc.items() if not c.is_zero))
        )

    @staticmethod
    def zero(g, ring) -> "AlgebraElement":
        return AlgebraElement(g, ring, ())

    @staticmethod
    def delta(g, ring, arrow: int, coeff: RingElement | None = None) -> "AlgebraElement":
        if coeff is None:
            coeff = RingElement.one(ring)
        return AlgebraElement.make(g, ring, [(arrow, coeff)])

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


@dataclass(frozen=True)
class Decomposition:
    """Frame data binding a validated groupoid to its block algebra."""

    groupoid: FiniteGroupoid
    ring: RingDescriptor
    orbit_frames: tuple      # Orbit per block
    isotropies: tuple        # IsotropyGroup per block, at each basepoint
    structured: StructuredGroupoid
    shape: BlockShape
    arrow_position: tuple    # arrow -> (block, row, col, isotropy element index)

    @property
    def shape_string(self) -> str:
        return self.shape.render()


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
    isotropies = tuple(isotropy(g, orb.members[0]) for orb in frames)
    summaries = tuple(
        OrbitSummary(len(orb.members), iso.table)
        for orb, iso in zip(frames, isotropies)
    )
    structured = StructuredGroupoid(summaries)
    shape = BlockShape(ring, tuple((s.size, s.isotropy) for s in summaries))

    position = [None] * g.arrow_count
    for bi, (orb, iso) in enumerate(zip(frames, isotropies)):
        member_pos = {m: i for i, m in enumerate(orb.members)}
        loop_pos = {a: i for i, a in enumerate(iso.arrows)}
        for a in range(g.arrow_count):
            y, z = g.dom[a], g.cod[a]
            if y in member_pos and z in member_pos:
                conn_y = orb.connecting[member_pos[y]]
                conn_z = orb.connecting[member_pos[z]]
                loop = g.compose(g.inv[conn_z], g.compose(a, conn_y))
                position[a] = (bi, member_pos[z], member_pos[y], loop_pos[loop])
    if any(p is None for p in position):
        raise InternalCheckError("orbit computation missed an arrow")
    return Decomposition(
        g, ring, tuple(frames), tuple(isotropies), structured, shape, tuple(position)
    )


def phi(d: Decomposition, f: AlgebraElement) -> BlockMatrix:
    """Algebra -> block matrices along the frame."""
    if f.groupoid != d.groupoid or f.ring != d.ring:
        raise RingMismatchError("element does not match the decomposition")
    items = [[] for _ in d.shape.blocks]
    for a, c in f.coeffs:
        bi, row, col, key = d.arrow_position[a]
        group = d.shape.blocks[bi][1]
        items[bi].append(((row, col), GroupAlgebraElement.delta(group, d.ring, key, c)))
    return BlockMatrix.build(d.shape, items)


def phi_inv(d: Decomposition, m: BlockMatrix) -> AlgebraElement:
    """Block matrices -> algebra: a E_{zy} pulls back to conn_z a conn_y^-1."""
    if m.shape != d.shape:
        raise RingMismatchError("matrix does not match the decomposition")
    g = d.groupoid
    items = []
    for bi, block in enumerate(m.entries):
        orb = d.orbit_frames[bi]
        iso = d.isotropies[bi]
        for (row, col), val in block:
            conn_z = orb.connecting[row]
            conn_y = orb.connecting[col]
            for key, coeff in val.coeffs:
                arrow = g.compose(conn_z, g.compose(iso.arrows[key], g.inv[conn_y]))
                items.append((arrow, coeff))
    return AlgebraElement.make(g, d.ring, items)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of an exhaustive check: how many unit checks ran, how
    many passed, and a witness string per failure."""

    description: str
    total: int
    passed: int
    failures: tuple

    @property
    def ok(self) -> bool:
        return self.passed == self.total and not self.failures

    def summary(self) -> str:
        return f"{self.passed}/{self.total} {self.description}"


_ZERO = ()  # index form of the zero matrix in the pair check


def _matrix_unit_index(d: Decomposition, m: BlockMatrix, one: RingElement):
    """(block, row, col, key) when m is a single coefficient-one unit
    over the block's finite isotropy table, else None."""
    found = None
    for bi, block in enumerate(m.entries):
        for (row, col), val in block:
            if found is not None or len(val.coeffs) != 1:
                return None
            group = d.shape.blocks[bi][1]
            if not isinstance(group, FiniteGroupTable) or val.group != group:
                return None
            key, coeff = val.coeffs[0]
            if coeff != one:
                return None
            found = (bi, row, col, key)
    return found


def verify_isomorphism(d: Decomposition) -> VerificationReport:
    """Exhaustive check that phi is a unital isomorphism onto the block
    algebra: multiplicative on all arrow pairs, unit to identity,
    inverted both ways by phi_inv on every basis vector."""
    g = d.groupoid
    n = g.arrow_count
    failures = []
    total = 0
    passed = 0

    deltas = [AlgebraElement.delta(g, d.ring, a) for a in range(n)]
    images = [phi(d, da) for da in deltas]
    one = RingElement.one(d.ring)
    units = [_matrix_unit_index(d, m, one) for m in images]

    for a in range(n):
        ua = units[a]
        dom_a = g.dom[a]
        for b in range(n):
            total += 1
            if dom_a == g.cod[b]:
                ab = g.compose(a, b)
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
            else:
                bi, row, mid, key = ua
                bj, mid2, col, key2 = ub
                if bi == bj and mid == mid2:
                    table = d.shape.blocks[bi][1].table
                    ok = left == (bi, row, col, table[key][key2])
                else:
                    ok = left == _ZERO
            if ok:
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

    for a in range(n):
        total += 1
        if phi_inv(d, images[a]) == deltas[a]:
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
