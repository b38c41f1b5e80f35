"""Coefficient ring descriptors and predicates, and the exact ring-level
arithmetic the test references compute with."""
import math
import random
from fractions import Fraction

import pytest

from corpus import PARITY_RINGS
from support import _payload_is_zero, coeff_add, coeff_mul, combine, int_payload

from gpdalg import (
    GaloisField,
    Integers,
    Laurent,
    ModularIntegers,
    ParseError,
    Product,
    Q,
    Z,
    parse_ring_descriptor,
    render_ring_descriptor,
    ring_predicates,
)
from gpdalg.rings import _factor, characteristic

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
    """A full element list (payloads) for exhaustive axiom runs."""
    if isinstance(ring, (GaloisField, ModularIntegers)):
        n = ring.p if isinstance(ring, GaloisField) else ring.n
        return [int_payload(ring, k) for k in range(n)]
    if isinstance(ring, Product):
        firsts = _elements(ring.factors[0])
        seconds = _elements(ring.factors[1])
        return [(a, b) for a in firsts for b in seconds]
    raise AssertionError("exhaustive elements only for finite rings")


def _arithmetic(ring):
    """(add, mul, neg, zero, one) of the references' arithmetic over ring."""
    minus_one = int_payload(ring, -1)
    return (lambda a, b: coeff_add(ring, a, b), lambda a, b: coeff_mul(ring, a, b),
            lambda a: coeff_mul(ring, minus_one, a), int_payload(ring, 0), int_payload(ring, 1))


@pytest.mark.parametrize("text", ["Z/4", "Z/6", "Z/9", "Z/12", "GF(2)", "GF(5)"])
def test_ring_axioms_exhaustive(text):
    ring = parse_ring_descriptor(text)
    elems = _elements(ring)
    add, mul, neg, zero, one = _arithmetic(ring)
    for a in elems:
        assert add(a, zero) == a and mul(a, one) == a
        assert add(a, neg(a)) == zero
        for b in elems:
            assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
            for c in elems:
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_product_ring_axioms_exhaustive():
    ring = parse_ring_descriptor("Product(GF(2), Z/4)")
    elems = _elements(ring)
    assert len(elems) == 8
    add, mul, neg, zero, _ = _arithmetic(ring)
    # zero in every factor, not in one: a tuple of factor zeros is truthy
    assert [a for a in elems if _payload_is_zero(ring, a)] == [zero]
    for a in elems:
        assert add(a, neg(a)) == zero
        for b in elems:
            for c in elems:
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_factor_matches_brute_force():
    # a factorization is primes, each with exponent at least one, whose
    # product is n; primes are found by testing every smaller divisor
    primes = {q for q in range(2, 3001) if all(q % d for d in range(2, q))}
    for n in range(1, 3001):
        factors = _factor(n)
        assert set(factors) <= primes and all(e >= 1 for e in factors.values()), n
        assert math.prod(q ** e for q, e in factors.items()) == n, n
    for n in (-2, -1, 0, 1):
        assert _factor(n) == {}
    assert _factor(2 ** 31 - 1) == {2 ** 31 - 1: 1}  # a Mersenne prime
    assert _factor(2 ** 31 - 2) == {2: 1, 3: 2, 7: 1, 11: 1, 31: 1, 151: 1, 331: 1}


def _squarefree(n):
    return all(n % (p * p) for p in range(2, n) if p * p <= n)


@pytest.mark.parametrize("n", range(2, 13))
def test_modular_field_product_matches_nilpotents(n):
    """Z/n is a product of fields exactly when it has no nonzero
    nilpotent, exactly when n is squarefree."""
    has_nilpotent = any(pow(k, n + 1, n) == 0 for k in range(1, n))
    preds = ring_predicates(ModularIntegers(n))
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


CHARACTERISTIC_RINGS = PARITY_RINGS + (
    "Z/2", "Z/4", "Laurent(GF(2))", "Product(GF(2),Z/2)", "Product(Z/4,Z/6)",
    "Product(Q,GF(2))", "Laurent(Product(GF(3),Z/9))",
)


@pytest.mark.parametrize("text", CHARACTERISTIC_RINGS)
def test_characteristic_divides_exactly_the_integers_that_vanish(text):
    ring = parse_ring_descriptor(text)
    n = characteristic(ring)
    for k in range(-40, 41):
        assert _payload_is_zero(ring, int_payload(ring, k)) == (k % n == 0 if n else k == 0), k


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


def _from_dict(d):
    """Laurent payload from {exponent: base coefficient}."""
    return tuple(sorted((e, c) for e, c in d.items() if c))


def _dict_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def test_laurent_arithmetic_against_dict_oracle():
    ring = Laurent(Q)
    minus_one = int_payload(ring, -1)
    rng = random.Random(7)
    for _ in range(60):
        a = {rng.randint(-5, 5): Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(0, 4))}
        b = {rng.randint(-5, 5): Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(0, 4))}
        a = {e: c for e, c in a.items() if c}
        b = {e: c for e, c in b.items() if c}
        ea, eb = _from_dict(a), _from_dict(b)
        assert coeff_mul(ring, ea, eb) == _from_dict(_laurent_oracle_mul(a, b))
        assert coeff_add(ring, ea, eb) == _from_dict(_dict_add(a, b))
        assert coeff_add(ring, ea, coeff_mul(ring, minus_one, ea)) == int_payload(ring, 0)


def test_laurent_variable_inverse():
    ring = Laurent(GaloisField(5))
    one = int_payload(GaloisField(5), 1)
    x, xi = combine(ring.base, [(1, one)]), combine(ring.base, [(-1, one)])
    assert coeff_mul(ring, x, xi) == int_payload(ring, 1)
