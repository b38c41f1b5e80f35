"""Convolution algebra of a finite groupoid and its block-matrix form.

The algebra has one basis element per arrow.  Convolution is

    (f1 * f2)(g) = sum over h with dom(h) = dom(g) of f1(g h^-1) f2(h)

which on basis arrows is the category-algebra rule: [g][h] = [gh] when
dom(g) = cod(h), else 0.

decompose() picks the deterministic frame from groupoid.orbits and
realizes the algebra as one matrix block per orbit, entries in the
group algebra of the basepoint isotropy; the layout is its BlockShape,
which verdicts() reads.  An arrow g: y -> z in orbit i lands in block
i at (row of z, column of y) carrying the isotropy element conn_z^-1 g
conn_y.  The map phi sends the basis arrow [g] to that matrix unit,
with coefficient one, and its inverse phi^-1 sends the unit (b, r, c,
k) back to the arrow conn_r iso[k] conn_c^-1.  Both are read off
indices: d.arrow_position[a] is the unit of a, and _pull the arrow of
a unit.  Neither map is built as a function on algebra elements; the
failure strings of verify_isomorphism name phi and phi_inv as the maps
their checks test.

verify_isomorphism checks multiplicativity on every pair of basis
arrows, unit preservation, and that the two maps invert each other on
every basis vector of both sides, on basis indices, over every ring
alike.  A pair passes when the unit of the composite, or zero, equals
the product of the two units, which is (b, r, c', table[k][k']) when
both sit in block b and c = r', else zero; units that chain fail when
one is outside the shape.
When the units give an injective map object -> (block, row)
(slot(cod a) = (b, r), slot(dom a) = (b, c)), two units chain only
when their arrows compose, so every non-composable pair is zero on
both sides and passes without being visited.  Of the composable pairs,
those (a, s) with s one of the generators validate certified
associativity on suffice: every arrow is a left-nested composite of
them and phi is linear, so multiplicativity on them gives it on every
pair by induction, as Light's test gives associativity (Clifford and
Preston, The Algebraic Theory of Semigroups I, 1.2).  When a generator
pair fails the pair loop visits every composable pair, and without the
slot map every pair, so failures are listed as by the full scan; the
report still counts all d^2.  phi sends the unit to the identity when
the identity arrows' units are the diagonal units, each once.  The
round trips compare indices too: each unit is pulled back once, so
phi_inv(phi([a])) == [a] when that arrow is a, and phi(phi_inv(E)) ==
E when the unit of that arrow is E.
"""
from __future__ import annotations

from .errors import InternalCheckError
from .groupoid import FiniteGroupoid, generators, orbit_layout, validate
from .rings import RingDescriptor
from .value import Value


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
    frames, per_orbit, shape = orbit_layout(g, ring)

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
        g, ring, tuple(frames), tuple(iso for _, iso in per_orbit), shape, tuple(position)
    )


def _pull(d: Decomposition, bi, row, col, key):
    """The arrow conn_row iso[key] conn_col^-1 that phi^-1 gives for the
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
    """True when object -> (block, row), with slot(cod a) = (b, r) and
    slot(dom a) = (b, c) for the unit (b, r, c, k) of each arrow a, is
    well defined and injective.  Then the units of a and b chain only
    when dom a = cod b, so every other pair multiplies to zero on both
    sides."""
    slot = [None] * len(g.objects)
    for a, (bi, row, col, _) in enumerate(units):
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
    gens when given; otherwise every arrow."""
    n = g.arrow_count
    if not slots_ok:
        return [range(n)] * n
    into = [[] for _ in g.objects]
    for b in range(n) if gens is None else gens:
        into[g.cod[b]].append(b)
    return [into[g.dom[a]] for a in range(n)]


def verify_isomorphism(d: Decomposition) -> VerificationReport:
    """Check that phi is a unital isomorphism onto the block algebra:
    multiplicative on all arrow pairs, unit to identity, inverted both
    ways by phi_inv on every basis vector.  Every check reads the
    matrix unit d.arrow_position[a] that phi sends [a] to.

    The pair loop visits the pairs _pair_partners plans.  When the
    arrow units pass _slot_certificate every non-composable pair is
    zero on both sides and counts as passed.  If moreover g passed
    validate, each row of the composition table is keyed by exactly
    the arrows into its domain (no composition-missing and no
    composition-domain violation), and the loop visits the pairs
    (a, s) with s one of validate's generators and dom a = cod s, in
    the order of the full scan.  That proves the rest: every arrow t
    is a left-nested composite of generators, t = t's with s a
    generator, so by induction on t and the associativity validate
    certified, phi([a][t]) = phi([a][t'][s]) = phi([a][t']) phi(s) =
    phi(a) phi(t') phi(s) = phi(a) phi(t), and phi is linear.  When a
    visited pair fails, or g did not pass, the loop visits every
    composable pair; without the slot certificate, every pair.  Either
    way the failures are those of the full scan, and the report counts
    all d^2.  Each arrow's unit is tested against the shape once: a pair
    whose units chain fails when either is not a unit of the shape.  The
    unit passes when the identity arrows' units are the diagonal units
    of the identity matrix, each once.  Each matrix unit
    E is pulled back once: phi_inv(phi([a])) == [a] when the pull of a's
    unit is a, and phi(phi_inv(E)) == E when the unit of E's pull is
    E."""
    g = d.groupoid
    n = g.arrow_count
    units = d.arrow_position
    dom, cod, blocks = g.dom, g.cod, d.shape.blocks
    pulled = {
        (bi, row, col, key): _pull(d, bi, row, col, key)
        for bi, (size, group) in enumerate(blocks)
        for row in range(size) for col in range(size) for key in range(group.size)
    }
    inside = [unit in pulled for unit in units]  # a unit of the shape

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
                if ua[0] == ub[0] and ua[2] == ub[1]:
                    ok = inside[a] and inside[b] and left == (
                        ua[0], ua[1], ub[2], blocks[ua[0]][1].table[ua[3]][ub[3]])
                else:
                    ok = left == _ZERO
                if not ok:
                    out.append(f"phi not multiplicative on ({g.arrows[a]}, {g.arrows[b]})")
        return out

    slots_ok = _slot_certificate(g, units)
    gens = generators(g) if slots_ok and not validate(g) else None
    failures = pair_failures(_pair_partners(g, slots_ok, gens))
    if failures and gens is not None:
        failures = pair_failures(_pair_partners(g, slots_ok))
    diagonal = [(bi, i, i, group.identity)
                for bi, (size, group) in enumerate(blocks) for i in range(size)]
    if sorted(units[a] for a in g.identity_arrows()) != diagonal:
        failures.append("phi does not send the unit to the identity matrix")

    for a in range(n):
        if pulled.get(units[a]) != a:
            failures.append(f"phi_inv(phi([{g.arrows[a]}])) != [{g.arrows[a]}]")
    for (bi, row, col, key), arrow in pulled.items():
        if arrow is None or units[arrow] != (bi, row, col, key):
            failures.append(f"phi(phi_inv(E)) != E at block {bi} ({row},{col}) g{key}")

    return VerificationReport(
        "isomorphism checks (arrow pairs, unit, basis round trips)",
        n * n + 1 + n + len(pulled),
        tuple(failures),
    )
