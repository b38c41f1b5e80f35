"""Exact linear algebra over Q (p = 0) and GF(p), checked against the
properties that pin down the reduced row echelon form, with ranks
recomputed independently from integer minors, and against a dense
Gauss-Jordan reference."""
import copy
import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from corpus import chain_graph, groupoid_corpus, in_tree_graph
from support import int_det, reference_kernel, reference_rref

from gpdalg.leavitt import as_finite_groupoid
from gpdalg.linalg import echelon, rref_residue, sparse_kernel, sparse_reduce
from gpdalg.verdicts import _trace_form

FIELDS = [0, 2, 3, 5, 7]
SHAPES = [(1, 1), (1, 5), (5, 1), (3, 3), (2, 6), (6, 2), (4, 5), (6, 6)]


def _entry(rng, p):
    if p:
        return rng.randrange(p)
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _combination(rng, gens, n, p):
    v = [0] * n
    for g in gens:
        c = _entry(rng, p)
        v = [a + c * b for a, b in zip(v, g)]
    return [x % p for x in v] if p else v


def _matrices(p, seed):
    """Per shape: a random matrix, a rank-deficient one (rows drawn from
    the span of fewer rows) and one with zero rows."""
    rng = random.Random(seed)
    out = []
    for m, n in SHAPES:
        full = [[_entry(rng, p) for _ in range(n)] for _ in range(m)]
        gens = [[_entry(rng, p) for _ in range(n)] for _ in range(rng.randrange(m))]
        deficient = [_combination(rng, gens, n, p) for _ in range(m)]
        zeros = [row if rng.random() < 0.5 else [0] * n for row in full]
        out += [full, deficient, zeros]
    return out


def _minor_rank(rows, p):
    """Rank as the size of the largest nonzero minor (mod p for GF(p))."""
    ints = [[int(v * lcm(*(Fraction(x).denominator for x in r))) for v in r] for r in rows]
    m, n = len(rows), len(rows[0]) if rows else 0
    for k in range(min(m, n), 0, -1):
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                det = int_det([[ints[r][c] for c in cs] for r in rs])
                if det % p if p else det:
                    return k
    return 0


def _sparse_rows(rows):
    return [{c: v for c, v in enumerate(r) if v} for r in rows]


def _densify(vectors, n, p):
    zero = 0 if p else Fraction(0)
    return [[v.get(c, zero) for c in range(n)] for v in vectors]


def _reference_residue(vec, reduced, pivots, p):
    """vec minus vec[c] times the rref row at each pivot c: its residue
    against a full rref, computed densely."""
    out = list(vec)
    for row, c in zip(reduced, pivots):
        f = vec[c]
        out = [a - f * b for a, b in zip(out, row)]
    return [x % p for x in out] if p else out


def _is_field_entry(v, p):
    return isinstance(v, int) and 0 <= v < p if p else isinstance(v, Fraction)


def _assert_rref(reduced, pivots, p):
    assert len(reduced) == len(pivots)
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for i, (row, c) in enumerate(zip(reduced, pivots)):
        assert all(_is_field_entry(v, p) for v in row)
        assert row[c] == 1
        assert not any(row[:c])
        assert all(other[c] == 0 for j, other in enumerate(reduced) if j != i)


@pytest.mark.parametrize("p", FIELDS)
def test_empty_and_zero_matrices(p):
    assert echelon([], p) == ([], []) == reference_rref([], p)
    assert reference_kernel([], p) == []
    assert echelon([{}, {}], p) == ([], []) == reference_rref([[0, 0, 0], [0, 0, 0]], p)
    assert sparse_kernel([{}], 3, p) == [{0: 1}, {1: 1}, {2: 1}]
    assert reference_kernel([[0, 0, 0]], p) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert sparse_reduce({0: 1, 1: 2, 2: 3}, [], [], p) == (
        {c: x for c, v in enumerate((1, 2, 3)) if (x := v % p)} if p else {0: 1, 1: 2, 2: 3}
    )


@pytest.mark.parametrize("p", FIELDS)
@pytest.mark.parametrize("seed", range(2))
def test_rref_kernel_and_reduce_properties(p, seed):
    rng = random.Random(1000 + seed)
    for rows in _matrices(p, seed):
        sparse = _sparse_rows(rows)
        before = copy.deepcopy(sparse)
        n = len(rows[0])
        echelon_rows, pivots = echelon(sparse, p)
        assert sparse == before
        reduced = _densify(echelon_rows, n, p)
        _assert_rref(reduced, pivots, p)
        assert len(reduced) == _minor_rank(rows, p)
        for row in sparse:
            assert sparse_reduce(row, echelon_rows, pivots, p) == {}

        basis = _densify(sparse_kernel(sparse, n, p), n, p)
        assert len(basis) == n - len(reduced)
        assert _minor_rank(basis, p) == len(basis)
        for v in basis:
            assert all(_is_field_entry(x, p) for x in v)
            for row in rows:
                dot = sum(a * b for a, b in zip(row, v))
                assert (dot % p if p else dot) == 0

        rank = len(reduced)
        for vec in ([_entry(rng, p) for _ in range(n)], _combination(rng, rows, n, p)):
            residue = sparse_reduce(dict(enumerate(vec)), echelon_rows, pivots, p)
            assert all(residue.values())
            assert all(_is_field_entry(x, p) for x in residue.values())
            assert (not residue) == (_minor_rank(rows + [vec], p) == rank)


def _gram(g):
    d = g.arrow_count
    return [[row.get(j, 0) for j in range(d)] for row in _trace_form(g.rows)[1]]


def _q_reference_inputs():
    """The random matrices above, with `Fraction` entries and again as
    integer rows, and the trace-form Gram matrices the Q oracle reduces."""
    out = []
    for seed in range(2):
        for rows in _matrices(0, seed):
            out += [rows, [[Fraction(v).numerator for v in r] for r in rows]]
    out += [_gram(g) for _, g in groupoid_corpus() if g.arrow_count <= 64]
    out += [_gram(as_finite_groupoid(graph)) for graph in (chain_graph(8), in_tree_graph(7))]
    return out


def test_q_elimination_matches_the_fraction_reference():
    for rows in _q_reference_inputs():
        n = len(rows[0])
        sparse = _sparse_rows(rows)
        reduced, pivots = echelon(sparse)
        assert (_densify(reduced, n, 0), pivots) == reference_rref(rows)
        basis = sparse_kernel(sparse, n)
        assert _densify(basis, n, 0) == reference_kernel(rows)
        assert all(type(v) is Fraction for vec in reduced + basis for v in vec.values())


def _edge_cases(p):
    """Zero rows, duplicate rows and all-zero columns, inside a matrix
    and at its ends."""
    rng = random.Random(500 + p)
    base = [[_entry(rng, p) or 1 for _ in range(4)] for _ in range(3)]
    return [
        [[0] * 4],
        [[0] * 4 for _ in range(3)],
        base + base,
        [r[:1] + [0] + r[1:] + [0] for r in base],
        [[0, 0] + r for r in base[:2] + [[0] * 4] + base[:1]],
    ]


@pytest.mark.parametrize("p", FIELDS)
def test_sparse_elimination_matches_the_dense_functions(p):
    rng = random.Random(2000 + p)
    inputs = _matrices(p, 0) + _matrices(p, 1) + _edge_cases(p)
    if not p:
        inputs += [[[Fraction(v).numerator for v in r] for r in rows] for rows in inputs]
    for rows in inputs:
        n = len(rows[0])
        sparse = _sparse_rows(rows)
        before = copy.deepcopy(sparse)
        reduced, pivots = echelon(sparse, p)
        basis = sparse_kernel(sparse, n, p)
        assert sparse == before
        assert all(v for vec in reduced + basis for v in vec.values())
        dense_reduced, dense_pivots = reference_rref(rows, p)
        assert (_densify(reduced, n, p), pivots) == (dense_reduced, dense_pivots)
        assert _densify(basis, n, p) == reference_kernel(rows, p)
        for vec in sparse:
            assert sparse_reduce(vec, reduced, pivots, p) == {}
        for vec in ([_entry(rng, p) for _ in range(n)], [1] * n):
            residue = sparse_reduce(dict(enumerate(vec)), reduced, pivots, p)
            assert all(residue.values())
            assert _densify([residue], n, p)[0] == _reference_residue(vec, dense_reduced, pivots, p)


@pytest.mark.parametrize("p", [0, 2, 3])
def test_residue_against_present_pivots_is_sparse_reduce(p):
    # rref_residue reads only the rows whose pivots a vector has; on a
    # full rref that is the residue sparse_reduce finds walking them all
    rng = random.Random(3000 + p)
    inputs = _matrices(p, 2) + _matrices(p, 3) + _edge_cases(p)
    checked = 0
    for rows in inputs:
        n = len(rows[0])
        reduced, pivots = echelon(_sparse_rows(rows), p)
        pivot_rows = dict(zip(pivots, reduced))
        before = copy.deepcopy(pivot_rows)
        vectors = [dict(enumerate(r)) for r in rows] + [
            {c: _entry(rng, p) for c in rng.sample(range(n), rng.randint(0, n))}
            for _ in range(20)
        ]
        for vec in vectors:
            want = sparse_reduce(vec, reduced, pivots, p)
            assert rref_residue(vec, pivot_rows, p) == want
            checked += bool(want)
        assert pivot_rows == before
    assert checked  # some vectors lie outside the span
    assert rref_residue({1: p + 1, 2: p}, {}, p) == {1: 1}


def _monomial_cases(p):
    """Rows of at most one nonzero entry each, read off with no
    elimination: in distinct columns, with an entry that vanishes mod p
    (p itself; an explicit zero over Q), with empty rows, and with two
    rows sharing a column."""
    rng = random.Random(3000 + p)
    cases = []
    for n in (1, 4, 7):
        for m in range(n + 1):
            cols = rng.sample(range(n), m)
            rows = [{c: _entry(rng, p) or 2} for c in cols]
            cases.append((rows[:1] + [{}] + rows[1:] + [{}], n))
            if rows:
                cases.append((rows, n))
                cases.append((rows + [{cols[0]: p}], n))
                cases.append((rows + [{cols[0]: _entry(rng, p) or 1}], n))
    return cases


@pytest.mark.parametrize("p", FIELDS)
def test_kernel_of_monomial_rows_matches_the_reference(p):
    shared = 0
    for sparse, n in _monomial_cases(p) + [([{0: 1, 2: 3}, {1: 2}], 3)]:
        before = copy.deepcopy(sparse)
        dense = [[r.get(c, 0) for c in range(n)] for r in sparse]
        basis = sparse_kernel(sparse, n, p)
        assert sparse == before
        assert all(_is_field_entry(v, p) for vec in basis for v in vec.values())
        assert _densify(basis, n, p) == reference_kernel(dense, p), (sparse, n)
        cols = [c for r in sparse for c, v in r.items() if (v % p if p else v)]
        shared += len(cols) != len(set(cols))
    assert shared  # two rows with the same nonzero column occur


@pytest.mark.parametrize("p", FIELDS)
def test_sparse_elimination_of_no_rows(p):
    assert echelon([], p) == ([], [])
    assert sparse_kernel([], 3, p) == [{0: 1}, {1: 1}, {2: 1}]
    assert sparse_kernel([{}, {}], 2, p) == [{0: 1}, {1: 1}]
    assert sparse_kernel([], 0, p) == []
    assert sparse_reduce({1: p + 1, 2: p}, [], [], p) == {1: 1}
