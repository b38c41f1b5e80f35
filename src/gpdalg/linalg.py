"""Small exact linear algebra: one Gauss-Jordan over Q or GF(p), plus an
integer determinant.  Everything works on lists of lists; sizes here
are desk scale (at most 96), so clarity beats asymptotics.

The field is named by its characteristic p: p = 0 means Q (integer or
`Fraction` input is accepted), and a prime p means GF(p), with `int`
entries in range(p) (any integer input is reduced mod p).  Results
carry entries of the field's type: `Fraction` over Q, `int` over GF(p).

Over Q the elimination runs fraction free on integer rows: each input
row is scaled once by the lcm of its denominators, and each row update
a*row_i - f*row_piv is divided by its content.  Every integer row is a
nonzero multiple of the row a `Fraction` elimination would hold, so the
pivots are the same; `Fraction` appears only when a result is read off.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO, _ONE = Fraction(0), Fraction(1)


def _mod(vec, p):
    return [v % p for v in vec] if p else vec


def _integer_row(r):
    """r as it is when its entries are all int, otherwise r times the
    lcm of its denominators."""
    if all(isinstance(v, int) for v in r):
        return list(r)
    den = lcm(*(v.denominator for v in r))
    return [v.numerator * (den // v.denominator) for v in r]


def _primitive(r):
    """r divided by its content, the gcd of its entries."""
    g = gcd(*r)
    return [v // g for v in r] if g > 1 else r


def _echelon(rows, p):
    """Gauss-Jordan elimination shared by rref and kernel.  Returns
    (rows, pivot cols) with the zero rows dropped.  Over GF(p) the rows
    are the rref; over Q they are integer rows, each a nonzero multiple
    of the matching rref row (divide by its pivot entry to get it)."""
    m = [[v % p for v in r] if p else _integer_row(r) for r in rows]
    pivots = []
    row = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((i for i in range(row, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        if p:
            inv = pow(m[row][col], -1, p)
            m[row] = _mod([v * inv for v in m[row]], p)
        prow = m[row]
        a = prow[col]
        for i in range(len(m)):
            if i != row and m[i][col]:
                f = m[i][col]
                new = [a * x - f * y for x, y in zip(m[i], prow)]
                m[i] = _mod(new, p) if p else _primitive(new)
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return m[:row], pivots


def rref(rows, p=0):
    """Reduced row echelon form.  Returns (rref rows, pivot cols).
    Input rows are not mutated."""
    m, pivots = _echelon(rows, p)
    if not p:
        m = [[Fraction(v, r[c]) for v in r] for r, c in zip(m, pivots)]
    return m, pivots


def kernel(rows, p=0):
    """Basis of {v : M v = 0}, for M given as rows (one vector per free
    column of the rref)."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = _echelon(rows, p)
    zero, one = (0, 1) if p else (_ZERO, _ONE)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for r, c in zip(reduced, pivots):
            v[c] = -r[f] % p if p else Fraction(-r[f], r[c])
        basis.append(v)
    return basis


def reduce(vec, rows, pivots, p=0):
    """Residue of vec against echelon rows: each row has entry 1 at its
    pivot and 0 at the pivots of the rows before it (any rref qualifies).
    The residue is zero exactly when vec lies in the span of the rows."""
    v = _mod(list(vec), p)
    for r, c in zip(rows, pivots):
        if v[c]:
            f = v[c]
            v = _mod([a - f * b for a, b in zip(v, r)], p)
    return v


def int_det(rows) -> int:
    """Determinant of a square integer matrix, Bareiss elimination
    (fraction free, exact)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
