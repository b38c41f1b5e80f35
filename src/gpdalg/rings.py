"""Coefficient ring descriptors.

A ring descriptor is an immutable value naming one of:

    Z, Q, GF(p), Z/n, Laurent(base), Product(r1, ..., rk)

The package computes over a ring only through its descriptor: the
block shape names it, ring_predicates decides the chain conditions
from it, and int_payload gives the image of an integer in it, as a
canonical payload:

    Z          int
    Q          Fraction (always reduced, positive denominator)
    GF(p)      int residue in [0, p)
    Z/n        int residue in [0, n)
    Laurent    sorted tuple of (exponent, base payload), no zero terms
    Product    tuple of factor payloads

render_payload prints one.  No element of a ring is ever multiplied:
every structure map the reports check has coefficients one, so the
checks read indices and integer counts.  Nothing here touches a float.
"""
from __future__ import annotations

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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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
        if not _is_prime(p):
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


# ---------------------------------------------------------------------------
# payloads


def int_payload(ring: RingDescriptor, k: int):
    """Image of the integer k under the unique map Z -> ring."""
    if isinstance(ring, Integers):
        return k
    if isinstance(ring, Rationals):
        from fractions import Fraction  # read only where semigroup pair counts differ

        return Fraction(k)
    if isinstance(ring, GaloisField):
        return k % ring.p
    if isinstance(ring, ModularIntegers):
        return k % ring.n
    if isinstance(ring, Laurent):
        c = int_payload(ring.base, k)
        return () if _payload_is_zero(ring.base, c) else ((0, c),)
    if isinstance(ring, Product):
        return tuple(int_payload(f, k) for f in ring.factors)
    raise TypeError(f"not a ring descriptor: {ring!r}")


def _payload_is_zero(ring: RingDescriptor, a) -> bool:
    # payloads are canonical, so zero is the falsy one; a Product's
    # tuple of factor zeros is truthy, so its factors are tested apart
    if isinstance(ring, Product):
        return all(_payload_is_zero(f, x) for f, x in zip(ring.factors, a))
    return not a


def render_payload(ring: RingDescriptor, a) -> str:
    if isinstance(ring, (Integers, Rationals, GaloisField, ModularIntegers)):
        return str(a)
    if isinstance(ring, Laurent):
        if not a:
            return "0"
        parts = []
        for e, c in a:
            cs = render_payload(ring.base, c)
            if "," in cs or " " in cs:
                cs = f"({cs})"
            if e == 0:
                parts.append(cs)
            elif e == 1:
                parts.append(f"{cs}*x" if cs != "1" else "x")
            else:
                parts.append(f"{cs}*x^{e}" if cs != "1" else f"x^{e}")
        return " + ".join(parts)
    if isinstance(ring, Product):
        return "(" + ",".join(render_payload(f, x) for f, x in zip(ring.factors, a)) + ")"
    raise TypeError(f"not a ring descriptor: {ring!r}")


# ---------------------------------------------------------------------------
# chain-condition predicates


class RingPredicates(Value):
    __slots__ = ("noetherian", "artinian", "field_product", "characteristics")


def _squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def _prime_divisors(n: int) -> frozenset:
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return frozenset(out)


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
        return RingPredicates(True, True, _squarefree(ring.n), _prime_divisors(ring.n))
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
