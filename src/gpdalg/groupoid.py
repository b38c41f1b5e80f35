"""Finite groupoids given by explicit arrow tables.

Conventions used throughout the package:

  * compose(f, g) means "f after g" and is defined exactly when
    dom(f) = cod(g); the composite runs dom(g) -> cod(f).
  * a groupoid stores one composition table, rows: the row {g: f after
    g} of each arrow f.  parse_groupoid fills it as it reads, and
    leavitt.as_finite_groupoid and isg.underlying_groupoid build it
    row by row; make fills it from a composition dict, for
    constructions.  compose, validate, isotropy, the oracle and
    verify_isomorphism all read it; comp, the sorted tuple of
    ((f, g), f after g), is a view computed from it on each call.
  * parse accepts structurally well-formed input (every referenced name
    declared, composition lines only for composable pairs) and defers
    all axioms to validate(), which checks them exhaustively and
    returns every violation with a witness.  Associativity is certified
    on a generating set (certify_associativity, an exact proof); only
    when that fails, or another axiom already failed, does the scan of
    every composable triple run to list the violations.
  * orbits and frames are deterministic: the basepoint of an orbit is
    its lexicographically least object, connecting arrows come from a
    breadth-first search that scans arrows in lexicographic id order,
    and matrix positions follow the sorted member list.  orbit_layout
    walks them once and reads the block layout (a BlockShape: per orbit
    its size and basepoint isotropy) off them, for decompose and
    structured_from_finite alike.
"""
from __future__ import annotations

from .errors import Names, ParseError, lines, read_span
from .group_algebra import (
    BlockShape,
    FiniteGroupTable,
    associativity_generators,
    certify_associativity,
)
from .rings import RingDescriptor
from .value import Value


class FiniteGroupoid(Value):
    __slots__ = (
        "objects",      # object names, declaration order
        "arrows",       # arrow names, declaration order
        "dom",          # arrow index -> object index
        "cod",
        "identity_of",  # object index -> arrow index or None
        # the one composition table: rows[f] = {g: f after g}, an entry
        # per recorded composite.  Never mutated; compared, but not hashed.
        "rows",
        "inv",          # arrow index -> arrow index or None
        "_violations",  # validate() memo
        "_generators",  # generators() memo
        "_arrow_index",
    )

    def __init__(self, objects, arrows, dom, cod, identity_of, rows, inv):
        self.objects = objects
        self.arrows = arrows
        self.dom = dom
        self.cod = cod
        self.identity_of = identity_of
        self.rows = rows
        self.inv = inv
        self._violations = None
        self._generators = None
        self._arrow_index = {a: i for i, a in enumerate(arrows)}

    def __hash__(self):
        return hash((self.objects, self.arrows, self.dom, self.cod, self.identity_of, self.inv))

    @staticmethod
    def make(objects, arrows, dom, cod, identity_of, comp, inv) -> "FiniteGroupoid":
        """A groupoid from a composition dict {(f, g): f after g} or its
        items, copied into rows: the form constructions builds.  Parsers
        and the graph and semigroup builders fill rows directly."""
        rows = tuple({} for _ in arrows)
        for (f, h), k in dict(comp).items():
            rows[f][h] = k
        return FiniteGroupoid(tuple(objects), tuple(arrows), tuple(dom), tuple(cod),
                              tuple(identity_of), rows, tuple(inv))

    @property
    def comp(self) -> tuple:
        """The sorted tuple of ((f, g), f after g), built from rows."""
        return tuple(((f, h), row[h]) for f, row in enumerate(self.rows) for h in sorted(row))

    def arrow_index(self, name: str) -> int:
        return self._arrow_index[name]

    def compose(self, f: int, g: int):
        """Index of f after g, or None when no entry is recorded."""
        return self.rows[f].get(g)

    def composable(self, f: int, g: int) -> bool:
        return self.dom[f] == self.cod[g]

    def identity_arrows(self):
        return tuple(a for a in self.identity_of if a is not None)

    @property
    def arrow_count(self) -> int:
        return len(self.arrows)


def parse_groupoid(text: str) -> FiniteGroupoid:
    """Parse the line format:

        objects: a b
        arrow f : a -> b
        identity a = id_a
        compose f g = h
        inverse f = g

    in the line grammar of errors.  Each compose line goes
    straight into its arrow's row of the groupoid's table.
    """
    objects = Names("object", "objects")
    arrows = Names("arrow")
    dom: list = []
    cod: list = []
    rows: list = []  # arrow f -> {g: f after g}
    identity_decl: dict = {}
    inv: dict = {}

    index = arrows.index
    for ln, parts, line in lines(text):
        if parts[0] == "compose":
            # compose F G = H
            if len(parts) != 5 or parts[3] != "=":
                raise ParseError("expected: compose F G = H", line=ln)
            try:
                f, g, h = index[parts[1]], index[parts[2]], index[parts[4]]
            except KeyError:
                f, g, h = (arrows.need(parts[i], ln) for i in (1, 2, 4))
            if dom[f] != cod[g]:
                names = list(objects.index)
                raise ParseError(
                    f"'{parts[1]}' and '{parts[2]}' are not composable: "
                    f"dom({parts[1]}) = {names[dom[f]]} but "
                    f"cod({parts[2]}) = {names[cod[g]]}",
                    line=ln,
                )
            row = rows[f]
            if g in row:
                raise ParseError(f"compose {parts[1]} {parts[2]} declared twice", line=ln)
            row[g] = h
        elif parts[0] == "arrow":
            src, dst = read_span(line, ln, arrows, objects)
            dom.append(src)
            cod.append(dst)
            rows.append({})
        elif parts[0] == "identity":
            # identity OBJ = ARROW
            if len(parts) != 4 or parts[2] != "=":
                raise ParseError("expected: identity OBJ = ARROW", line=ln)
            x = objects.need(parts[1], ln)
            if x in identity_decl:
                raise ParseError(f"identity for '{parts[1]}' declared twice", line=ln)
            identity_decl[x] = arrows.need(parts[3], ln)
        elif parts[0] == "inverse":
            # inverse F = G
            if len(parts) != 4 or parts[2] != "=":
                raise ParseError("expected: inverse F = G", line=ln)
            f = arrows.need(parts[1], ln)
            if f in inv:
                raise ParseError(f"inverse of '{parts[1]}' declared twice", line=ln)
            inv[f] = arrows.need(parts[3], ln)
        else:
            objects.read_list(parts, line, ln)

    object_names = objects.require()
    identity_of = tuple(identity_decl.get(x) for x in range(len(object_names)))
    inv_total = tuple(inv.get(a) for a in range(len(dom)))
    return FiniteGroupoid(object_names, tuple(arrows.index), tuple(dom), tuple(cod),
                          identity_of, tuple(rows), inv_total)


def render_groupoid(g: FiniteGroupoid) -> str:
    """Text form accepted back by parse_groupoid, deterministic."""
    lines = ["objects: " + " ".join(g.objects)]
    for a, name in enumerate(g.arrows):
        lines.append(f"arrow {name} : {g.objects[g.dom[a]]} -> {g.objects[g.cod[a]]}")
    for x, a in enumerate(g.identity_of):
        if a is not None:
            lines.append(f"identity {g.objects[x]} = {g.arrows[a]}")
    for a, b in enumerate(g.inv):
        if b is not None:
            lines.append(f"inverse {g.arrows[a]} = {g.arrows[b]}")
    for (f, h), k in g.comp:
        lines.append(f"compose {g.arrows[f]} {g.arrows[h]} = {g.arrows[k]}")
    return "\n".join(lines) + "\n"


class Violation(Value):
    __slots__ = ("kind", "witness", "message")

    def __str__(self):
        return self.message


def validate(g: FiniteGroupoid) -> list:
    """Exhaustively check the groupoid axioms.

    Covers: identities present and lawful, composition total on
    composable pairs and only on them, dom/cod coherence, associativity,
    inverses total and two-sided.  Associativity is certified on a
    generating set when every earlier check passed; otherwise, or when
    the certificate fails, every composable triple is scanned, so the
    violations listed are those of the full scan.  Returns all
    violations, deterministically ordered; empty list means valid.
    The result is memoised on the (immutable) groupoid; each call gets
    a fresh list.
    """
    if g._violations is None:
        g._violations = tuple(_axiom_violations(g))
    return list(g._violations)


def generators(g: FiniteGroupoid) -> tuple:
    """The generators validate certifies associativity on
    (associativity_generators), computed once per groupoid: every arrow
    is a left-nested composite of them.  Composition must be total on
    composable pairs: validate calls this only once its earlier checks
    passed, and verify_isomorphism's pair certificate and the radical
    oracle's ideal certificate only on a groupoid that passed validate."""
    if g._generators is None:
        g._generators = tuple(associativity_generators(g.dom, g.cod, g.rows, len(g.objects)))
    return g._generators


def _axiom_violations(g: FiniteGroupoid) -> list:
    out: list = []
    dom, cod = g.dom, g.cod
    arrows = range(g.arrow_count)
    into: list = [[] for _ in g.objects]   # object -> arrows with that cod, ascending
    outof: list = [[] for _ in g.objects]  # object -> arrows with that dom, ascending
    for a in arrows:
        into[cod[a]].append(a)
        outof[dom[a]].append(a)
    rows = g.rows  # f -> {h: f after h}, every recorded entry

    def name(a):
        return g.arrows[a]

    for x, obj in enumerate(g.objects):
        e = g.identity_of[x]
        if e is None:
            out.append(Violation("identity-missing", (obj,), f"object '{obj}' has no identity arrow"))
            continue
        if dom[e] != x or cod[e] != x:
            out.append(Violation(
                "identity-span", (obj, name(e)),
                f"identity arrow '{name(e)}' of '{obj}' is not a loop at '{obj}'",
            ))

    # the incoherent entries, in (f, h) order: only these are sorted
    bad = sorted((f, h) for f, row in enumerate(rows) for h, k in row.items()
                 if dom[f] != cod[h] or dom[k] != dom[h] or cod[k] != cod[f])
    for f, h in bad:
        k = rows[f][h]
        if dom[f] != cod[h]:
            out.append(Violation(
                "composition-domain", (name(f), name(h)),
                f"composition recorded for non-composable pair ({name(f)}, {name(h)})",
            ))
            continue
        if dom[k] != dom[h] or cod[k] != cod[f]:
            out.append(Violation(
                "composition-span", (name(f), name(h), name(k)),
                f"compose {name(f)} {name(h)} = {name(k)} breaks dom/cod coherence",
            ))

    for f in arrows:
        row, hs = rows[f], into[dom[f]]
        # with every entry coherent, a row keyed by all of hs misses none
        if bad or len(row) != len(hs):
            for h in hs:
                if h not in row:
                    out.append(Violation(
                        "composition-missing", (name(f), name(h)),
                        f"no composition declared for composable pair ({name(f)}, {name(h)})",
                    ))

    for x, e in enumerate(g.identity_of):
        if e is None:
            continue
        for f in sorted({*outof[x], *into[x]}):  # the arrows at x, in arrow order
            if dom[f] == x:
                got = rows[f].get(e)
                if got is not None and got != f:
                    out.append(Violation(
                        "identity-law", (name(f), name(e)),
                        f"{name(f)} after {name(e)} is {name(got)}, expected {name(f)}",
                    ))
            if cod[f] == x:
                got = rows[e].get(f)
                if got is not None and got != f:
                    out.append(Violation(
                        "identity-law", (name(e), name(f)),
                        f"{name(e)} after {name(f)} is {name(got)}, expected {name(f)}",
                    ))

    # the checks above passing make composition total on composable
    # pairs with coherent spans, which is all the certificate needs
    certified = not out and certify_associativity(dom, cod, rows, len(g.objects), generators(g))
    if not certified:
        out.extend(_associativity_scan(g, rows, into))

    for f in arrows:
        fi = g.inv[f]
        if fi is None:
            out.append(Violation("inverse-missing", (name(f),), f"arrow '{name(f)}' has no inverse"))
            continue
        if dom[fi] != cod[f] or cod[fi] != dom[f]:
            out.append(Violation(
                "inverse-span", (name(f), name(fi)),
                f"inverse of '{name(f)}' has the wrong endpoints",
            ))
            continue
        e_dom = g.identity_of[dom[f]]
        e_cod = g.identity_of[cod[f]]
        if e_dom is not None and rows[fi].get(f) not in (None, e_dom):
            out.append(Violation(
                "inverse-law", (name(f),),
                f"'{name(fi)}' after '{name(f)}' is not the identity at dom",
            ))
        if e_cod is not None and rows[f].get(fi) not in (None, e_cod):
            out.append(Violation(
                "inverse-law", (name(f),),
                f"'{name(f)}' after '{name(fi)}' is not the identity at cod",
            ))
    return out


def _associativity_scan(g: FiniteGroupoid, rows: list, into: list) -> list:
    """Associativity violations over every composable triple (f, h, k)
    whose four composites are recorded in rows, in arrow order."""
    out: list = []
    name = g.arrows.__getitem__
    for f in range(g.arrow_count):
        row_f = rows[f]
        for h in into[g.dom[f]]:
            fh = row_f.get(h)
            if fh is None:
                continue
            for k in into[g.dom[h]]:
                hk = rows[h].get(k)
                if hk is None:
                    continue
                left = rows[fh].get(k)
                right = row_f.get(hk)
                if left is not None and right is not None and left != right:
                    out.append(Violation(
                        "associativity", (name(f), name(h), name(k)),
                        f"associativity fails on ({name(f)}, {name(h)}, {name(k)}): "
                        f"({name(f)}{name(h)}){name(k)} = {name(left)} but "
                        f"{name(f)}({name(h)}{name(k)}) = {name(right)}",
                    ))
    return out


class Orbit(Value):
    """One connected component with its frame.

    members are sorted object indices (matrix order); basepoint is
    members[0]; connecting[k] is an arrow basepoint -> members[k], with
    the identity at the basepoint in position 0.
    """

    __slots__ = ("members", "connecting")


def orbits(g: FiniteGroupoid) -> list:
    """Connected components with deterministic frames.  Requires a
    groupoid that passed validate()."""
    n_obj = len(g.objects)
    # arrows scanned in lexicographic name order makes the BFS canonical
    out_arrows: list = [[] for _ in range(n_obj)]
    for a in sorted(range(g.arrow_count), key=g.arrows.__getitem__):
        out_arrows[g.dom[a]].append(a)

    seen = [False] * n_obj
    result = []
    for base in sorted(range(n_obj), key=g.objects.__getitem__):
        if seen[base]:
            continue
        connecting = {base: g.identity_of[base]}
        seen[base] = True
        queue = [base]
        while queue:
            y = queue.pop(0)
            for a in out_arrows[y]:
                z = g.cod[a]
                if not seen[z]:
                    seen[z] = True
                    connecting[z] = g.compose(a, connecting[y])
                    queue.append(z)
        members = tuple(sorted(connecting, key=lambda x: g.objects[x]))
        result.append(Orbit(members, tuple(connecting[m] for m in members)))
    return result


class IsotropyGroup(Value):
    """Loops at one object, packaged as a verified group table."""

    __slots__ = (
        "arrows",  # loop arrow indices, sorted by arrow name
        "table",   # FiniteGroupTable
    )


def isotropy(g: FiniteGroupoid, x: int) -> IsotropyGroup:
    return _isotropy(g, x, range(g.arrow_count))


def _isotropy(g: FiniteGroupoid, x: int, arrows) -> IsotropyGroup:
    """isotropy(g, x), with the loops at x looked for among arrows."""
    loops = sorted((a for a in arrows if g.dom[a] == x == g.cod[a]), key=g.arrows.__getitem__)
    pos = {a: i for i, a in enumerate(loops)}
    try:  # a missing composite, or one that is not a loop at x
        rows = [[pos[g.rows[a][b]] for b in loops] for a in loops]
    except KeyError:
        raise ValueError(f"loops at '{g.objects[x]}' are not closed under composition") from None
    return IsotropyGroup(tuple(loops), FiniteGroupTable.from_table(rows))


def orbit_layout(g: FiniteGroupoid, ring: RingDescriptor) -> tuple:
    """(orbits(g); per orbit, its arrows in arrow order and the isotropy
    group at its basepoint; the BlockShape of g's algebra over ring) of
    a groupoid that passed validate().  The loops at a basepoint are
    looked for among its orbit's arrows only, so the cost is linear in
    the arrows, not orbits x arrows."""
    frames = orbits(g)
    orbit_of = {m: bi for bi, orb in enumerate(frames) for m in orb.members}
    groups: list = [[] for _ in frames]
    for a in range(g.arrow_count):
        groups[orbit_of[g.dom[a]]].append(a)
    per_orbit = [(arrows, _isotropy(g, orb.members[0], arrows)) for orb, arrows in zip(frames, groups)]
    shape = BlockShape(ring, tuple(
        (len(orb.members), iso.table) for orb, (_, iso) in zip(frames, per_orbit)))
    return frames, per_orbit, shape


def structured_from_finite(g: FiniteGroupoid, ring: RingDescriptor) -> BlockShape:
    """The block layout of g's algebra over ring: per orbit, its size
    and the isotropy group at its basepoint."""
    return orbit_layout(g, ring)[2]
