"""Coefficient ring descriptors.

A ring descriptor is an immutable value naming one of:

    Z, Q, GF(p), Z/n, Laurent(base), Product(r1, ..., rk)

The package reads a ring only through its descriptor, its predicates
and its characteristic: the block shape names it, ring_predicates
decides the chain conditions from it, and characteristic gives the n
whose multiples are the integers that vanish in it.  No element of a
ring is ever built or multiplied: every structure map the reports
check has coefficients one, so the checks read indices and integer
counts.  Nothing here touches a float.
"""
from __future__ import annotations

from math import lcm

from .errors import ParseError
from .value import Value

# largest modulus GF(p) and Z/n accept: primality and the ring
# predicates divide by trial up to the square root, which stays quick
# below this bound and would hang on a huge one
_MODULUS_LIMIT = 2 ** 31 - 1

# deepest nesting of Laurent and Product the parser accepts: comparing
# and rendering a descriptor recurse once per level, so a deeper one
# would exhaust the interpreter's recursion limit after parsing
_NESTING_LIMIT = 32


def _factor(n: int) -> dict:
    """{prime: exponent} of n by trial division; {} for n < 2."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = 1
    return out


class Integers(Value):
    __slots__ = ()

    def __repr__(self):
        return "Z"


class Rationals(Value):
    __slots__ = ()

    def __repr__(self):
        return "Q"


class GaloisField(Value):
    __slots__ = ("p",)

    def __init__(self, p: int):
        if p > _MODULUS_LIMIT:
            raise ValueError(f"GF({p}): modulus above the limit {_MODULUS_LIMIT}")
        if _factor(p) != {p: 1}:
            raise ValueError(f"GF({p}): {p} is not prime")
        self.p = p

    def __repr__(self):
        return f"GF({self.p})"


class ModularIntegers(Value):
    __slots__ = ("n",)

    def __init__(self, n: int):
        if n > _MODULUS_LIMIT:
            raise ValueError(f"Z/{n}: modulus above the limit {_MODULUS_LIMIT}")
        if n < 2:
            raise ValueError(f"Z/{n}: modulus must be at least 2")
        self.n = n

    def __repr__(self):
        return f"Z/{self.n}"


class Laurent(Value):
    __slots__ = ("base",)

    def __init__(self, base: RingDescriptor):
        if isinstance(base, Laurent):
            raise ValueError("Laurent rings do not nest")
        self.base = base

    def __repr__(self):
        return f"Laurent({self.base!r})"


class Product(Value):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[RingDescriptor, ...]):
        if not factors:
            raise ValueError("Product needs at least one factor")
        self.factors = factors

    def __repr__(self):
        inner = ", ".join(repr(f) for f in self.factors)
        return f"Product({inner})"


# every descriptor class; an annotation reads it as any one of them
RingDescriptor = (Integers, Rationals, GaloisField, ModularIntegers, Laurent, Product)

Z = Integers()
Q = Rationals()


def render_ring_descriptor(ring: RingDescriptor) -> str:
    """Canonical text form; parse_ring_descriptor inverts it exactly."""
    return repr(ring)


# ---------------------------------------------------------------------------
# descriptor parser: recursive descent over the grammar
#   ring := 'Z' | 'Q' | 'GF(' int ')' | 'Z/' int
#         | 'Laurent(' ring ')' | 'Product(' ring (',' ring)* ')'
# Whitespace is ignored everywhere between tokens.


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos:self.pos + 1]

    def expect(self, token: str):
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise ParseError(f"expected '{token}'", column=self.pos + 1)
        self.pos += len(token)

    def match_word(self, word: str) -> bool:
        """Consume word if present and not followed by more letters."""
        self.skip_ws()
        end = self.pos + len(word)
        if not self.text.startswith(word, self.pos):
            return False
        if end < len(self.text) and (self.text[end].isalnum() or self.text[end] == "_"):
            return False
        self.pos = end
        return True

    def integer(self, render) -> tuple:
        """(start column, value) of the modulus at the scan position.  A
        digit run longer than any accepted modulus is refused before
        int() reads it, with the ring named as render(digits) spells it."""
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", column=start + 1)
        digits = self.text[start:self.pos]
        if len(digits.lstrip("0")) > len(str(_MODULUS_LIMIT)):
            raise ParseError(
                f"{render(digits)}: modulus above the limit {_MODULUS_LIMIT}", column=start + 1
            )
        return start, int(digits)


def _modulus_ring(ring_type, n: int, at: int) -> RingDescriptor:
    """GF(n) or Z/n, the constructor's rejection reported at column at."""
    try:
        return ring_type(n)
    except ValueError as e:
        raise ParseError(str(e), column=at + 1) from None


def _parse_ring(sc: _Scanner, depth: int = 0) -> RingDescriptor:
    """The ring at the scan position, inside depth Laurent and Product
    constructors."""
    start = sc.pos
    if depth > _NESTING_LIMIT:
        sc.skip_ws()
        raise ParseError(
            f"ring descriptor nested deeper than {_NESTING_LIMIT} levels", column=sc.pos + 1
        )
    if sc.match_word("Laurent"):
        sc.expect("(")
        sc.skip_ws()
        if sc.text.startswith("Laurent", sc.pos):
            raise ParseError("Laurent rings do not nest", column=sc.pos + 1)
        base = _parse_ring(sc, depth + 1)
        sc.expect(")")
        return Laurent(base)
    if sc.match_word("Product"):
        sc.expect("(")
        factors = [_parse_ring(sc, depth + 1)]
        while sc.peek() == ",":
            sc.expect(",")
            factors.append(_parse_ring(sc, depth + 1))
        sc.expect(")")
        return Product(tuple(factors))
    if sc.match_word("GF"):
        sc.expect("(")
        at, p = sc.integer("GF({})".format)
        sc.expect(")")
        return _modulus_ring(GaloisField, p, at)
    if sc.match_word("Q"):
        return Q
    sc.skip_ws()
    if sc.text.startswith("Z", sc.pos):
        sc.pos += 1
        if sc.peek() == "/":
            sc.expect("/")
            at, n = sc.integer("Z/{}".format)
            return _modulus_ring(ModularIntegers, n, at)
        return Z
    raise ParseError("expected a ring descriptor", column=start + 1)


def parse_ring_descriptor(text: str) -> RingDescriptor:
    sc = _Scanner(text)
    ring = _parse_ring(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise ParseError("trailing input after ring descriptor", column=sc.pos + 1)
    return ring


def characteristic(ring: RingDescriptor) -> int:
    """The n >= 0 whose multiples are the integers that vanish in ring:
    0 for Z and Q, p for GF(p), n for Z/n, the base ring's for a Laurent
    ring, and the lcm of the factors' for a Product, which is 0 when a
    factor's is."""
    if isinstance(ring, (Integers, Rationals)):
        return 0
    if isinstance(ring, GaloisField):
        return ring.p
    if isinstance(ring, ModularIntegers):
        return ring.n
    if isinstance(ring, Laurent):
        return characteristic(ring.base)
    if isinstance(ring, Product):
        return lcm(*(characteristic(f) for f in ring.factors))
    raise TypeError(f"not a ring descriptor: {ring!r}")


# ---------------------------------------------------------------------------
# chain-condition predicates


class RingPredicates(Value):
    __slots__ = ("noetherian", "artinian", "field_product", "characteristics")


def ring_predicates(ring: RingDescriptor) -> RingPredicates:
    """Chain-condition facts used by the verdict engine.

    field_product means: isomorphic to a finite direct product of
    fields.  Z/n qualifies exactly when n is squarefree (Chinese
    remainder splits it into prime fields).  characteristics collects
    the characteristic of every field factor (0 for Q, primes
    otherwise); for non-field-products it still records the primes or 0
    relevant to the ring so reports can name them.
    """
    if isinstance(ring, Integers):
        return RingPredicates(True, False, False, frozenset([0]))
    if isinstance(ring, Rationals):
        return RingPredicates(True, True, True, frozenset([0]))
    if isinstance(ring, GaloisField):
        return RingPredicates(True, True, True, frozenset([ring.p]))
    if isinstance(ring, ModularIntegers):
        factors = _factor(ring.n)
        return RingPredicates(True, True, all(e == 1 for e in factors.values()), frozenset(factors))
    if isinstance(ring, Laurent):
        base = ring_predicates(ring.base)
        return RingPredicates(base.noetherian, False, False, base.characteristics)
    if isinstance(ring, Product):
        parts = [ring_predicates(f) for f in ring.factors]
        chars = frozenset().union(*(p.characteristics for p in parts))
        return RingPredicates(
            all(p.noetherian for p in parts),
            all(p.artinian for p in parts),
            all(p.field_product for p in parts),
            chars,
        )
    raise TypeError(f"not a ring descriptor: {ring!r}")
