"""Small exact linear algebra: one sparse elimination over Q or GF(p),
plus an integer determinant.

A sparse row (or vector) is a dict from column to its nonzero entry.
The matrices here are mostly zero: the trace-form Gram matrix of a
groupoid algebra has one nonzero entry per row, and products of arrow
combinations stay short.  `echelon` reduces sparse rows in two steps:
each input row is reduced forward against a map from pivot column to
pivot row until its leading column carries no pivot (or it vanishes)
and then joins the map; afterwards one back-substitution pass, from
the rightmost pivot to the leftmost, clears every pivot column in the
rows to its left.  Work is done only on nonzero entries.  The reduced
row echelon form of a matrix is determined by its row space, so this
order of elimination gives exactly the rows and pivots of a textbook
Gauss-Jordan.  `sparse_kernel` reads the kernel off that echelon (or,
on rows of at most one nonzero entry, off the rows alone) and
`sparse_reduce` reduces a vector against echelon rows (`rref_residue`
reads only the rows a vector needs from a full rref).

The field is named by its characteristic p: p = 0 means Q (integer or
`Fraction` input is accepted), and a prime p means GF(p), with `int`
entries in range(p) (any integer input is reduced mod p).  Results
carry entries of the field's type: `Fraction` over Q, `int` over GF(p).

Over Q the elimination runs fraction free on integer rows: each input
row is scaled once by the lcm of its denominators, and each row update
a*row_i - f*row_piv is divided by its content.  Every integer row is a
nonzero multiple of the row a `Fraction` elimination in the same order
would hold, so the pivots are the same, and dividing each final row by
its pivot entry gives the rref; `Fraction` appears only when a result
is read off.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ONE = Fraction(1)


def _start_row(r, p):
    """A copy of the sparse row r to eliminate on: entries mod p over
    GF(p), zeros dropped; over Q r as it is when its entries are all
    int, otherwise r times the lcm of its denominators."""
    if p:
        return {c: x for c, v in r.items() if (x := v % p)}
    r = {c: v for c, v in r.items() if v}
    if all(isinstance(v, int) for v in r.values()):
        return r
    den = lcm(*(v.denominator for v in r.values()))
    return {c: v.numerator * (den // v.denominator) for c, v in r.items()}


def _eliminate(row, col, prow, p):
    """row with its entry at col cleared by the pivot row prow: over
    GF(p) prow has pivot entry 1 and row - f*prow is taken mod p; over
    Q a*row - f*prow (a the pivot entry) is divided by its content."""
    f = row.pop(col)
    if p:
        for c, x in prow.items():
            if c != col:
                v = (row.get(c, 0) - f * x) % p
                if v:
                    row[c] = v
                else:
                    row.pop(c, None)
        return row
    a = prow[col]
    new = {c: a * v for c, v in row.items()} if a != 1 else row
    for c, x in prow.items():
        if c != col:
            v = new.get(c, 0) - f * x
            if v:
                new[c] = v
            else:
                new.pop(c, None)
    g = gcd(*new.values()) if new else 1
    return {c: v // g for c, v in new.items()} if g > 1 else new


def _echelon(rows, p):
    """The elimination behind every function here.  Returns (rows,
    pivot cols), the pivots ascending and the zero rows dropped.  Over
    GF(p) the rows are the rref; over Q they are integer rows, each a
    nonzero multiple of the matching rref row (divide by its pivot
    entry to get it)."""
    pivot_row: dict = {}  # pivot column -> its row, leading at that column
    for r in rows:
        row = _start_row(r, p)
        while row:
            col = min(row)
            prow = pivot_row.get(col)
            if prow is None:
                if p and row[col] != 1:
                    inv = pow(row[col], -1, p)
                    row = {c: v * inv % p for c, v in row.items()}
                pivot_row[col] = row
                break
            row = _eliminate(row, col, prow, p)
    pivots = sorted(pivot_row)
    for col in reversed(pivots):
        row = pivot_row[col]
        # the rows right of col are reduced already, so clearing one of
        # their pivots here brings in no other pivot column
        for c in [c for c in row if c != col and c in pivot_row]:
            row = _eliminate(row, c, pivot_row[c], p)
        pivot_row[col] = row
    return [pivot_row[c] for c in pivots], pivots


def echelon(rows, p=0):
    """Reduced row echelon form of sparse rows.  Returns (rref rows as
    sparse rows, pivot cols).  Input rows are not mutated."""
    reduced, pivots = _echelon(rows, p)
    if not p:
        reduced = [
            {c: Fraction(v, r[piv]) for c, v in r.items()}
            for r, piv in zip(reduced, pivots)
        ]
    return reduced, pivots


def _monomial_columns(rows, p):
    """The columns of the rows' nonzero entries (mod p) when no row has
    two, else None."""
    cols: set = set()
    for r in rows:
        hit = [c for c, v in r.items() if (v % p if p else v)]
        if len(hit) > 1:
            return None
        cols.update(hit)
    return cols


def sparse_kernel(rows, ncols, p=0):
    """Basis of {v : M v = 0} for the ncols-column matrix M given as
    sparse rows, as sparse vectors: one per free column f of the rref,
    with entry 1 at f and -rref[i][f] at the pivot of each row i.  When
    no row has two nonzero entries (a groupoid's Gram matrix over Q),
    the rref is the unit rows at the columns of those entries and the
    kernel is read off with no elimination."""
    monomial = _monomial_columns(rows, p)
    if monomial is not None:
        return [{f: 1 if p else _ONE} for f in range(ncols) if f not in monomial]
    reduced, pivots = _echelon(rows, p)
    pivot_set = set(pivots)
    basis = {f: {f: 1 if p else _ONE} for f in range(ncols) if f not in pivot_set}
    for r, c in zip(reduced, pivots):
        for f, v in r.items():
            if f != c:
                basis[f][c] = -v % p if p else Fraction(-v, r[c])
    return list(basis.values())


def sparse_reduce(vec, rows, pivots, p=0):
    """Residue of the sparse vector vec against echelon rows: each row
    has entry 1 at its pivot and 0 at the pivots of the rows before it
    (any rref qualifies).  The residue is empty exactly when vec lies in
    the span of the rows.  vec is not mutated."""
    v = {c: x for c, y in vec.items() if (x := y % p if p else y)}
    for r, c in zip(rows, pivots):
        f = v.get(c)
        if f:
            for k, x in r.items():
                y = v.get(k, 0) - f * x
                if p:
                    y %= p
                if y:
                    v[k] = y
                else:
                    v.pop(k, None)
    return v


def rref_residue(vec, pivot_rows, p=0):
    """sparse_reduce against a full rref, given as pivot column -> row: a
    row changes no other pivot entry of vec, so only the rows at the
    pivots vec has are read.  vec is not mutated."""
    present = sorted(c for c in vec if c in pivot_rows)
    return sparse_reduce(vec, [pivot_rows[c] for c in present], present, p)


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
