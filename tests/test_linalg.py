"""Exact linear algebra over GF(p), checked against the properties that
pin down the reduced row echelon form, with ranks recomputed
independently from integer minors, and against a dense Gauss-Jordan
reference."""
import copy
import random
from itertools import combinations

import pytest

from support import int_det, reference_kernel, reference_rref, sparse_reduce

from gpdalg.linalg import echelon, insert_reduced, sparse_kernel

FIELDS = [2, 3, 5, 7]
SHAPES = [(1, 1), (1, 5), (5, 1), (3, 3), (2, 6), (6, 2), (4, 5), (6, 6)]


def _entry(rng, p):
    return rng.randrange(p)


def _combination(rng, gens, n, p):
    v = [0] * n
    for g in gens:
        c = _entry(rng, p)
        v = [a + c * b for a, b in zip(v, g)]
    return [x % p for x in v]


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
    """Rank as the size of the largest minor nonzero mod p."""
    m, n = len(rows), len(rows[0]) if rows else 0
    for k in range(min(m, n), 0, -1):
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                if int_det([[rows[r][c] for c in cs] for r in rs]) % p:
                    return k
    return 0


def _sparse_rows(rows):
    return [{c: v for c, v in enumerate(r) if v} for r in rows]


def _densify(vectors, n, p):
    return [[v.get(c, 0) for c in range(n)] for v in vectors]


def _reference_residue(vec, reduced, pivots, p):
    """vec minus vec[c] times the rref row at each pivot c: its residue
    against a full rref, computed densely."""
    out = list(vec)
    for row, c in zip(reduced, pivots):
        f = vec[c]
        out = [a - f * b for a, b in zip(out, row)]
    return [x % p for x in out]


def _is_field_entry(v, p):
    return isinstance(v, int) and 0 <= v < p


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
    assert sparse_reduce({0: 1, 1: 2, 2: 3}, [], [], p) == {
        c: x for c, v in enumerate((1, 2, 3)) if (x := v % p)
    }


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
                assert dot % p == 0

        rank = len(reduced)
        for vec in ([_entry(rng, p) for _ in range(n)], _combination(rng, rows, n, p)):
            residue = sparse_reduce(dict(enumerate(vec)), echelon_rows, pivots, p)
            assert all(residue.values())
            assert all(_is_field_entry(x, p) for x in residue.values())
            assert (not residue) == (_minor_rank(rows + [vec], p) == rank)


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


@pytest.mark.parametrize("p", [2, 3])
def test_insert_reduced_against_an_rref_decides_the_span(p):
    # the GF(p) certificate tests each u*e against its ideal's rref this
    # way: a vector in the span returns None and leaves the map as it
    # was, one outside it returns the row it adds
    rng = random.Random(4000 + p)
    outside = 0
    for rows in _matrices(p, 2) + _matrices(p, 3) + _edge_cases(p):
        n = len(rows[0])
        reduced, pivots = echelon(_sparse_rows(rows), p)
        before = copy.deepcopy(reduced)
        vectors = rows + [_combination(rng, rows, n, p) for _ in range(5)] + [
            [_entry(rng, p) for _ in range(n)] for _ in range(20)]
        for vec in vectors:
            span = dict(zip(pivots, reduced))
            added = insert_reduced({c: v % p for c, v in enumerate(vec) if v % p}, span, p)
            if sparse_reduce(dict(enumerate(vec)), reduced, pivots, p):
                outside += 1
                assert added is not None and len(span) == len(pivots) + 1
            else:
                assert added is None and span == dict(zip(pivots, reduced))
        assert reduced == before
    assert outside  # some vectors lie outside the span


def _monomial_cases(p):
    """Rows of at most one nonzero entry each, read off with no
    elimination: in distinct columns, with an entry that vanishes mod p
    (p itself), with empty rows, and with two
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
        cols = [c for r in sparse for c, v in r.items() if v % p]
        shared += len(cols) != len(set(cols))
    assert shared  # two rows with the same nonzero column occur


@pytest.mark.parametrize("p", FIELDS)
def test_sparse_elimination_of_no_rows(p):
    assert echelon([], p) == ([], [])
    assert sparse_kernel([], 3, p) == [{0: 1}, {1: 1}, {2: 1}]
    assert sparse_kernel([{}, {}], 2, p) == [{0: 1}, {1: 1}]
    assert sparse_kernel([], 0, p) == []
    assert sparse_reduce({1: p + 1, 2: p}, [], [], p) == {1: 1}
