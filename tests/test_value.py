"""The contract of the package's value types (gpdalg.value.Value): equal
fields give equal objects with equal hashes, the class takes part in
equality, memo slots do not, and the repr names every field.  That a
FiniteGroupoid compares rows but leaves them out of its hash is checked
in test_groupoid."""
import pytest

from corpus import chain_graph
from gpdalg import (
    BlockShape,
    GaloisField,
    IntegerGroup,
    Integers,
    Laurent,
    ModularIntegers,
    Orbit,
    Product,
    Q,
    Rationals,
    Verdict,
    Violation,
    Z,
    decompose,
    parse_groupoid,
    parse_isg,
    radical_oracle,
    render_groupoid,
    ring_predicates,
    underlying_groupoid,
    validate,
    verify_isomorphism,
)
from gpdalg.constructions import cyclic_table, pair_groupoid
from gpdalg.leavitt import Cycle, Lasso, SinkPath, graph_groupoid

PAIR2 = render_groupoid(pair_groupoid(["a", "b"]))
ISG = "elements: top bot\nrow top: top bot\nrow bot: bot bot\n"

# name -> a function building the same value from fresh field objects
MAKERS = {
    "Z": lambda: Integers(),
    "Q": lambda: Rationals(),
    "GF(7)": lambda: GaloisField(int("7")),
    "Z/6": lambda: ModularIntegers(int("6")),
    "Laurent(GF(3))": lambda: Laurent(GaloisField(3)),
    "Product": lambda: Product(tuple([Q, ModularIntegers(6), Laurent(Z)])),
    "RingPredicates": lambda: ring_predicates(Product((Q, GaloisField(5)))),
    "FiniteGroupTable": lambda: cyclic_table(4),
    "IntegerGroup": lambda: IntegerGroup(),
    "BlockShape": lambda: BlockShape(Q, ((2, cyclic_table(3)), (1, IntegerGroup()))),
    "FiniteGroupoid": lambda: parse_groupoid(PAIR2),
    "Violation": lambda: validate(parse_groupoid("objects: a\narrow f : a -> a\n"))[0],
    "Orbit": lambda: Orbit((0, 1), (0, 2)),
    "Decomposition": lambda: decompose(parse_groupoid(PAIR2), GaloisField(2)),
    "VerificationReport": lambda: verify_isomorphism(decompose(parse_groupoid(PAIR2), Q)),
    "Verdict": lambda: Verdict(True, True, True, "M_2(Q)", ("a", "b")),
    "RadicalReport": lambda: radical_oracle(parse_groupoid(PAIR2), Q),
    "InverseSemigroup": lambda: parse_isg(ISG),
    "Cycle": lambda: Cycle((0, 1)),
    "SinkPath": lambda: SinkPath((2, 3), 0),
    "Lasso": lambda: Lasso((4,), Cycle((0, 1)), 1),
    "GraphDecomposition": lambda: graph_groupoid(chain_graph(3)),
}


@pytest.mark.parametrize("name", MAKERS)
def test_equal_fields_give_equal_values_with_equal_hashes(name):
    a, b = MAKERS[name](), MAKERS[name]()
    assert a is not b or name in ("Z", "Q")
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_the_class_takes_part_in_equality():
    assert GaloisField(2) != ModularIntegers(2)
    assert Integers() != Rationals()
    assert Z != Q and Q == Rationals()
    assert Laurent(GaloisField(2)) != Laurent(ModularIntegers(2))
    assert {GaloisField(2): "f", ModularIntegers(2): "m"}[ModularIntegers(2)] == "m"
    # a value is not the tuple of its fields
    assert Cycle((0, 1)) != ((0, 1),) and SinkPath((), 0) != ((), 0)


def test_memo_slots_take_no_part():
    g, fresh = parse_groupoid(PAIR2), parse_groupoid(PAIR2)
    assert validate(g) == []
    assert g._violations == () and fresh._violations is None
    assert g == fresh and hash(g) == hash(fresh)
    s = parse_isg(ISG)
    underlying_groupoid(s)
    assert s == parse_isg(ISG)


def test_repr_names_every_field_and_descriptors_keep_their_own():
    assert repr(Orbit((0, 1), (0, 2))) == "Orbit(members=(0, 1), connecting=(0, 2))"
    assert repr(Violation("k", ("a",), "m")) == "Violation(kind='k', witness=('a',), message='m')"
    assert str(Violation("k", ("a",), "m")) == "m"
    assert [repr(r) for r in MAKERS["Product"]().factors] == ["Q", "Z/6", "Laurent(Z)"]
    assert repr(IntegerGroup()) == "ZZ"


def test_replace_builds_through_the_constructor():
    v = Verdict(True, False, False, "M_1(Z)", ("x",))
    assert v._replace(justification=("y",)) == Verdict(True, False, False, "M_1(Z)", ("y",))
    assert v.justification == ("x",)
    with pytest.raises(TypeError):
        v._replace(no_such_field=1)
    with pytest.raises(ValueError, match="Laurent rings do not nest"):
        Laurent(Z)._replace(base=Laurent(Q))
    with pytest.raises(TypeError):
        Verdict(True, False)
