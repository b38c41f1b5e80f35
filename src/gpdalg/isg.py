"""Finite inverse semigroups and their algebras.

An inverse semigroup is a semigroup in which every element s has a
unique pseudo-inverse s* (meaning s s* s = s and s* s s* = s*).  Its
elements form a groupoid: s is an arrow from the idempotent s*s to the
idempotent ss*, with composition the semigroup product restricted to
the pairs where domains match.

The semigroup algebra RS is isomorphic to the algebra of that groupoid
by the base change

    s  |->  sum of [t] over t <= s

where <= is the natural partial order (t <= s iff t = (t t*) s, or
equivalently t = e s for some idempotent e).  The transition matrix is
unitriangular in any linear extension of <=, so its determinant is 1
and the map is a bijection on bases.  This module reads the order once
into down-sets (the t <= s of each s) and proves the matrix
unitriangular from them, raising InternalCheckError otherwise: every
s <= s, and t <= s with t != s has a smaller down-set than s, so
listing elements by down-set size is a linear extension.  It then
verifies multiplicativity exhaustively on all pairs, by counting
arrows: every image is a sum of arrows with coefficient one.
"""
from __future__ import annotations

from collections import Counter

from .errors import InternalCheckError, Names, OracleBudgetError, ParseError, lines, split_declaration
from .group_algebra import certify_associativity
from .groupoid import FiniteGroupoid, structured_from_finite, validate
from .report import VerificationReport
from .rings import RingDescriptor, characteristic, render_ring_descriptor
from .value import Value
from .verdicts import CITE_BLOCK, Verdict, verdicts

ISG_SIZE_LIMIT = 64


class InverseSemigroup(Value):
    __slots__ = (
        "elements",   # names, declaration order
        "table",      # table[i][j] = index of elements[i] . elements[j]
        "star",       # index -> index of the unique pseudo-inverse
        "_groupoid",  # underlying_groupoid() memo
    )

    def __init__(self, elements: tuple, table: tuple, star: tuple):
        self.elements = elements
        self.table = table
        self.star = star
        self._groupoid = None

    @staticmethod
    def from_table(elements, rows) -> "InverseSemigroup":
        """Verify the semigroup and inverse axioms exhaustively
        (associativity by associativity_failure, exact).

        rows[i][j] is the index of the product elements[i] . elements[j].
        Raises ValueError naming a witness when associativity fails or
        when some element's pseudo-inverse is missing or not unique."""
        elements = tuple(elements)
        n = len(elements)
        if n == 0:
            raise ValueError("empty inverse semigroup")
        table = square_table(rows, n)
        bad = associativity_failure(table)
        if bad is not None:
            i, j, k = (elements[t] for t in bad)
            raise ValueError(f"associativity fails at ({i}.{j}).{k} != {i}.({j}.{k})")
        star = []
        for i in range(n):
            pseudo = [
                t
                for t in range(n)
                if table[table[i][t]][i] == i and table[table[t][i]][t] == t
            ]
            if len(pseudo) != 1:
                shown = ", ".join(f"'{elements[t]}'" for t in pseudo[:4])
                raise ValueError(
                    f"element '{elements[i]}' has {len(pseudo)} pseudo-inverses"
                    f"{' (' + shown + ')' if pseudo else ''}; "
                    f"not an inverse semigroup"
                )
            star.append(pseudo[0])
        return InverseSemigroup(elements, table, tuple(star))

    @property
    def size(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def idempotents(self):
        return tuple(i for i in range(self.size) if self.table[i][i] == i)

    def identity_element(self):
        """Index of the two-sided identity, or None."""
        for i in range(self.size):
            if all(
                self.table[i][j] == j and self.table[j][i] == j
                for j in range(self.size)
            ):
                return i
        return None


def square_table(rows, n: int) -> tuple:
    """rows as a tuple of n tuples of entries in range(n), or ValueError."""
    table = tuple(tuple(r) for r in rows)
    if len(table) != n or any(len(r) != n for r in table):
        raise ValueError("multiplication table is not square")
    for r in table:
        for v in r:
            if not 0 <= v < n:
                raise ValueError(f"table entry {v} out of range")
    return table


def associativity_failure(table):
    """The first triple (a, b, c) in lexicographic order with (a b) c !=
    a (b c) in the total table, or None.  The ordered scan runs only when
    the certificate, on the table as one object, fails."""
    n = len(table)
    one_object = (0,) * n
    if certify_associativity(one_object, one_object, table, 1):
        return None
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return a, b, c
    raise InternalCheckError("the associativity certificate failed on an associative table")


def parse_isg(text: str) -> InverseSemigroup:
    """Line format, in the line grammar of errors:

        elements: a b c
        row a: a b c

    where 'row x:' lists the products x.a x.b x.c in declaration order.
    Structural problems raise ParseError; axiom failures raise
    ValueError from the table check."""
    elements = Names("element", "elements")
    rows: dict = {}  # name -> (line number, products), in line order
    for ln, words, line in lines(text):
        if words[0] == "row":
            name, products = split_declaration(line, "row", ln)
            elements.need(name, ln)
            if name in rows:
                raise ParseError(f"row for '{name}' declared twice", line=ln)
            rows[name] = (ln, products.split())
        else:
            elements.read_list(words, line, ln)
    names, index = elements.require(), elements.index
    n = len(names)
    table = [[0] * n for _ in range(n)]
    for name, (ln, entries) in rows.items():
        if len(entries) != n:
            raise ParseError(
                f"row for '{name}' has {len(entries)} entries, expected {n}",
                line=ln,
            )
        try:
            table[index[name]] = [index[prod] for prod in entries]
        except KeyError:
            for prod in entries:
                elements.need(prod, ln)
    missing = [e for e in names if e not in rows]
    if missing:
        raise ParseError(f"no row for element '{missing[0]}'", line=1)
    return InverseSemigroup.from_table(names, table)


def render_isg(s: InverseSemigroup) -> str:
    lines = ["elements: " + " ".join(s.elements)]
    for i, name in enumerate(s.elements):
        lines.append(
            f"row {name}: " + " ".join(s.elements[v] for v in s.table[i])
        )
    return "\n".join(lines) + "\n"


def natural_partial_order(s: InverseSemigroup):
    """below[i][j] is True iff elements[i] <= elements[j].

    Computed two ways (t = (t t*) s, and t = e s for an idempotent e)
    which must agree; the set {e s} is formed once per s."""
    n = s.size
    idem = s.idempotents()
    restrictions = [{s.mul(e, x) for e in idem} for x in range(n)]
    below = []
    for t in range(n):
        tt = s.mul(t, s.star[t])
        row = []
        for x in range(n):
            first = s.mul(tt, x) == t
            if first != (t in restrictions[x]):
                raise InternalCheckError(
                    "the two descriptions of the natural partial order disagree"
                )
            row.append(first)
        below.append(tuple(row))
    return tuple(below)


def underlying_groupoid(s: InverseSemigroup) -> FiniteGroupoid:
    """The groupoid with one arrow per element: s runs from s*s to ss*,
    composition is the product on matching pairs.  The result passes
    the exhaustive groupoid validator; a failure would be a bug here,
    not a property of the input.  Built and validated once per
    InverseSemigroup, which never changes, and memoised on it, so the
    verdicts and the base change share one groupoid."""
    if s._groupoid is None:
        s._groupoid = _build_underlying_groupoid(s)
    return s._groupoid


def _build_underlying_groupoid(s: InverseSemigroup) -> FiniteGroupoid:
    """Arrow i's row holds the products i.j over the arrows j with
    cod j = dom i, read off the semigroup table in element order."""
    idem = s.idempotents()
    obj_of = {e: k for k, e in enumerate(idem)}
    dom = tuple(obj_of[s.mul(s.star[i], i)] for i in range(s.size))
    cod = tuple(obj_of[s.mul(i, s.star[i])] for i in range(s.size))
    into = [[] for _ in idem]  # object -> arrows with that cod, ascending
    for j, c in enumerate(cod):
        into[c].append(j)
    rows = tuple({j: products[j] for j in into[dom[i]]} for i, products in enumerate(s.table))
    g = FiniteGroupoid(tuple(s.elements[e] for e in idem), tuple(s.elements), dom, cod, idem,
                       rows, tuple(s.star))
    violations = validate(g)
    if violations:
        raise InternalCheckError(
            f"underlying groupoid fails validation: {violations[0].message}"
        )
    return g


class IsgIsomorphism(Value):
    __slots__ = (
        "groupoid",
        "report",  # VerificationReport
    )


def _check_unitriangular(s: InverseSemigroup, down) -> None:
    """Prove the transition matrix [t <= s] unitriangular from the order
    itself, given as down-sets (down[x] = the t <= x, ascending): every
    s <= s, and t <= s with t != s has fewer elements below it than s.
    Listing the elements by that count then extends the order, so the
    matrix is unitriangular in that listing, and its determinant is 1.
    Otherwise raises InternalCheckError naming the first pair that
    fails: the diagonal first, then (t, s) with s in element order and
    then t."""
    names = s.elements
    for x, below_x in enumerate(down):
        if x not in below_x:
            raise InternalCheckError(
                f"natural partial order is not reflexive: {names[x]} <= {names[x]} fails")
    for x, below_x in enumerate(down):
        for t in below_x:
            if t != x and len(down[t]) >= len(below_x):
                raise InternalCheckError(
                    f"transition matrix of the natural partial order is not unitriangular: "
                    f"{names[t]} <= {names[x]} but #down({names[t]}) = {len(down[t])} "
                    f">= #down({names[x]}) = {len(below_x)}")


def semigroup_algebra_iso(s: InverseSemigroup, ring: RingDescriptor) -> IsgIsomorphism:
    """The base change s |-> sum of [t] over t <= s, with exhaustive
    multiplicativity verification on all ordered pairs.  The arrow w
    has coefficient k . 1 in image(i) image(j), k the number of pairs
    a <= i, b <= j with ab = w, so (i, j) passes when the ring's
    characteristic divides k - [w <= ij] for every w; no ring element
    is multiplied."""
    if s.size > ISG_SIZE_LIMIT:
        raise OracleBudgetError(
            f"inverse semigroup has {s.size} elements; "
            f"the pairwise verification budget stops at {ISG_SIZE_LIMIT}"
        )
    g = underlying_groupoid(s)
    below = natural_partial_order(s)
    n = s.size
    down = [[t for t in range(n) if below[t][x]] for x in range(n)]
    _check_unitriangular(s, down)
    char = characteristic(ring)
    failures = []
    for i in range(n):
        rows = [g.rows[a] for a in down[i]]
        for j, ij in enumerate(s.table[i]):
            counts = Counter(row[b] for row in rows for b in down[j] if b in row)
            counts.subtract(down[ij])
            if any(k % char if char else k for k in counts.values()):
                failures.append(
                    f"image({s.elements[i]}) * image({s.elements[j]}) != image({s.elements[ij]})")
    total = n * n
    one = s.identity_element()
    if one is not None:
        total += 1
        if down[one] != list(s.idempotents()):
            failures.append("image of the identity element is not the unit")
    report = VerificationReport(
        f"semigroup algebra pairs over {render_ring_descriptor(ring)}",
        total,
        tuple(failures),
    )
    return IsgIsomorphism(g, report)


def isg_verdicts(s: InverseSemigroup, ring: RingDescriptor) -> Verdict:
    """Chain conditions of RS, read off the underlying groupoid."""
    g = underlying_groupoid(s)
    base = verdicts(structured_from_finite(g, ring))
    lines = (
        f"semigroup algebra matches the groupoid algebra of the underlying "
        f"groupoid: {s.size} elements, {len(g.objects)} idempotents, "
        f"unitriangular base change [{CITE_BLOCK}]",
    ) + base.justification
    return base._replace(justification=lines)
