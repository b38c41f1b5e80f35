"""Coefficient ring descriptors, exact arithmetic, and predicates."""
import random
from fractions import Fraction

import pytest

from gpdalg import (
    GaloisField,
    Integers,
    Laurent,
    LaurentOverflowError,
    ModularIntegers,
    ParseError,
    Product,
    Q,
    RingElement,
    Z,
    laurent_variable,
    parse_ring_descriptor,
    render_ring_descriptor,
    ring_predicates,
)

ROUND_TRIP = [
    "Z",
    "Q",
    "GF(2)",
    "GF(7)",
    "Z/4",
    "Z/6",
    "Laurent(Z)",
    "Laurent(GF(3))",
    "Product(Q, Z/6, Laurent(Z))",
    "Product(GF(2), GF(2))",
]


def test_parse_render_round_trip():
    for text in ROUND_TRIP:
        ring = parse_ring_descriptor(text)
        assert render_ring_descriptor(ring) == text
        assert parse_ring_descriptor(render_ring_descriptor(ring)) == ring


def test_parse_ignores_whitespace():
    assert parse_ring_descriptor(" Product( Q ,Z/6, Laurent( Z ) ) ") == \
        parse_ring_descriptor("Product(Q, Z/6, Laurent(Z))")


@pytest.mark.parametrize("bad", [
    "GF(9)",
    "GF(1)",
    "Z/1",
    "Z/0",
    "Laurent(Laurent(Z))",
    "Product()",
    "Q extra",
    "GF(",
    "Frac(Z)",
    "",
    "Product(Q",
    "GF(-3)",
])
def test_parse_rejects_with_position(bad):
    with pytest.raises(ParseError) as exc:
        parse_ring_descriptor(bad)
    assert "position" in str(exc.value) or "line" in str(exc.value)


def _elements(ring):
    """A full or representative element list for exhaustive axiom runs."""
    if isinstance(ring, (GaloisField, ModularIntegers)):
        n = ring.p if isinstance(ring, GaloisField) else ring.n
        return [RingElement.from_int(ring, k) for k in range(n)]
    if isinstance(ring, Product):
        firsts = _elements(ring.factors[0])
        seconds = _elements(ring.factors[1])
        return [
            RingElement(ring, (a.value, b.value)) for a in firsts for b in seconds
        ]
    raise AssertionError("exhaustive elements only for finite rings")


@pytest.mark.parametrize("text", ["Z/4", "Z/6", "Z/9", "Z/12", "GF(2)", "GF(5)"])
def test_ring_axioms_exhaustive(text):
    ring = parse_ring_descriptor(text)
    elems = _elements(ring)
    zero = RingElement.zero(ring)
    one = RingElement.one(ring)
    for a in elems:
        assert a + zero == a and a * one == a
        assert a + (-a) == zero
        for b in elems:
            assert a + b == b + a and a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_product_ring_axioms_exhaustive():
    ring = parse_ring_descriptor("Product(GF(2), Z/4)")
    elems = _elements(ring)
    assert len(elems) == 8
    zero = RingElement.zero(ring)
    # zero in every factor, not in one: a tuple of factor zeros is truthy
    assert [a for a in elems if a.is_zero] == [zero]
    for a in elems:
        assert a + (-a) == zero
        for b in elems:
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert a * (b + c) == a * b + a * c


def _squarefree(n):
    return all(n % (p * p) for p in range(2, n) if p * p <= n)


def _pow(x, m):
    out = x
    for _ in range(m - 1):
        out = out * x
    return out


@pytest.mark.parametrize("n", range(2, 13))
def test_modular_field_product_matches_nilpotents(n):
    """Z/n is a product of fields exactly when it has no nonzero
    nilpotent, exactly when n is squarefree."""
    ring = ModularIntegers(n)
    has_nilpotent = any(
        _pow(RingElement.from_int(ring, k), n + 1).is_zero for k in range(1, n)
    )
    preds = ring_predicates(ring)
    assert preds.field_product == (not has_nilpotent) == _squarefree(n)


def test_predicate_table():
    assert ring_predicates(Z) == ring_predicates(Integers())
    for text, noe, art, fp, chars in [
        ("Z", True, False, False, {0}),
        ("Q", True, True, True, {0}),
        ("GF(2)", True, True, True, {2}),
        ("GF(7)", True, True, True, {7}),
        ("Z/4", True, True, False, {2}),
        ("Z/6", True, True, True, {2, 3}),
        ("Z/12", True, True, False, {2, 3}),
        ("Laurent(Z)", True, False, False, {0}),
        ("Laurent(Q)", True, False, False, {0}),
        ("Laurent(GF(3))", True, False, False, {3}),
        ("Product(Q, GF(2))", True, True, True, {0, 2}),
        ("Product(Z, Q)", True, False, False, {0}),
        ("Product(Z/6, GF(5))", True, True, True, {2, 3, 5}),
    ]:
        p = ring_predicates(parse_ring_descriptor(text))
        assert (p.noetherian, p.artinian, p.field_product) == (noe, art, fp), text
        assert set(p.characteristics) == chars, text


def test_product_predicates_match_componentwise():
    parts = ["Z", "Q", "GF(2)", "Z/4", "Z/6", "Laurent(Z)", "Laurent(Q)"]
    for a in parts:
        for b in parts:
            ra, rb = parse_ring_descriptor(a), parse_ring_descriptor(b)
            got = ring_predicates(Product((ra, rb)))
            pa, pb = ring_predicates(ra), ring_predicates(rb)
            assert got.noetherian == (pa.noetherian and pb.noetherian)
            assert got.artinian == (pa.artinian and pb.artinian)
            assert got.field_product == (pa.field_product and pb.field_product)
            assert set(got.characteristics) == set(pa.characteristics) | set(pb.characteristics)


def test_galois_field_requires_prime():
    with pytest.raises(ValueError):
        GaloisField(6)
    with pytest.raises(ValueError):
        GaloisField(1)
    GaloisField(13)


def test_modulus_limit_is_checked_by_the_constructors():
    GaloisField(2 ** 31 - 1)
    ModularIntegers(2 ** 31 - 1)
    for make, n in ((GaloisField, 10 ** 18 + 3), (ModularIntegers, 2 ** 31)):
        with pytest.raises(ValueError, match="modulus above the limit 2147483647"):
            make(n)
    with pytest.raises(ParseError, match="position 3: Z/2147483648: modulus above"):
        parse_ring_descriptor("Z/2147483648")


@pytest.mark.parametrize("text, column", [
    ("GF(4)", 4), ("GF( 4)", 5), ("Z/1", 3), ("Z/ 1", 4),
])
def test_bad_modulus_is_reported_at_the_integer(text, column):
    with pytest.raises(ParseError, match=f"^position {column}: "):
        parse_ring_descriptor(text)


def test_laurent_no_nesting():
    with pytest.raises(ValueError):
        Laurent(Laurent(Z))


@pytest.mark.parametrize("make, text, message, parsed", [
    (lambda: GaloisField(4), "GF(4)", "GF(4): 4 is not prime", "position 4: GF(4): 4 is not prime"),
    (lambda: ModularIntegers(1), "Z/1", "Z/1: modulus must be at least 2",
     "position 3: Z/1: modulus must be at least 2"),
    (lambda: Laurent(Laurent(Q)), "Laurent(Laurent(Q))", "Laurent rings do not nest",
     "position 9: Laurent rings do not nest"),
    (lambda: Product(()), "Product()", "Product needs at least one factor",
     "position 9: expected a ring descriptor"),
], ids=["GF(4)", "Z/1", "Laurent(Laurent(Q))", "Product()"])
def test_descriptor_validation_messages(make, text, message, parsed):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message
    with pytest.raises(ParseError) as info:
        parse_ring_descriptor(text)
    assert str(info.value) == parsed


def test_nesting_limit_is_a_parse_error_at_the_deepest_ring():
    # 32 constructors deep parses and renders back; one more is refused
    # at the column of the ring that passes the limit
    deepest = "Product(" * 31 + "Laurent(Q" + ")" * 32
    assert render_ring_descriptor(parse_ring_descriptor(deepest)) == deepest
    with pytest.raises(ParseError) as info:
        parse_ring_descriptor("Product(" * 32 + "Laurent( Q" + ")" * 33)
    assert str(info.value) == "position 266: ring descriptor nested deeper than 32 levels"
    with pytest.raises(ParseError) as info:
        parse_ring_descriptor("Product(Z, " + "Product(" * 200 + "Q" + ")" * 201)
    assert str(info.value) == "position 268: ring descriptor nested deeper than 32 levels"


def _laurent_oracle_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _from_dict(ring, d):
    """Laurent element from {exponent: base coefficient}."""
    return RingElement(ring, tuple(sorted((e, c) for e, c in d.items() if c)))


def _dict_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def test_laurent_arithmetic_against_dict_oracle():
    ring = Laurent(Q)
    rng = random.Random(7)
    for _ in range(60):
        a = {rng.randint(-5, 5): Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(0, 4))}
        b = {rng.randint(-5, 5): Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(0, 4))}
        a = {e: c for e, c in a.items() if c}
        b = {e: c for e, c in b.items() if c}
        ea, eb = _from_dict(ring, a), _from_dict(ring, b)
        assert ea * eb == _from_dict(ring, _laurent_oracle_mul(a, b))
        assert ea + eb == _from_dict(ring, _dict_add(a, b))
        assert ea - ea == RingElement.zero(ring)


def test_laurent_variable_inverse():
    ring = Laurent(GaloisField(5))
    x = laurent_variable(ring, 1)
    xi = laurent_variable(ring, -1)
    assert x * xi == RingElement.one(ring)


def test_laurent_overflow_is_an_error():
    ring = Laurent(Z)
    big = laurent_variable(ring, 2 ** 20)
    with pytest.raises(LaurentOverflowError):
        big * big
    with pytest.raises(LaurentOverflowError):
        laurent_variable(ring, 2 ** 20 + 1)


def test_rational_coefficients_only_over_q():
    half = RingElement.rational(Q, 1, 2)
    assert half + half == RingElement.one(Q)
    with pytest.raises(ValueError):
        RingElement.rational(Z, 1, 2)
