"""Small exact linear algebra: one sparse elimination over GF(p).

A sparse row (or vector) is a dict from column to its nonzero entry.
The matrices here are mostly zero: the trace-form Gram matrix of a
groupoid algebra has one nonzero entry per row, and products of arrow
combinations stay short.  `echelon` reduces sparse rows in two steps:
each input row is reduced forward against a map from pivot column to
pivot row until its leading column carries no pivot (or it vanishes)
and then joins the map (`insert_reduced`, which also grows a span one
vector at a time); afterwards one back-substitution pass, from
the rightmost pivot to the leftmost, clears every pivot column in the
rows to its left.  Work is done only on nonzero entries.  The reduced
row echelon form of a matrix is determined by its row space, so this
order of elimination gives exactly the rows and pivots of a textbook
Gauss-Jordan.  `sparse_kernel` reads the kernel off that echelon (or,
on rows of at most one nonzero entry, off the rows alone).

The field is GF(p) for a prime p: any integer input is reduced mod p,
and results carry `int` entries in range(p).
"""
from __future__ import annotations


def _eliminate(row, col, prow, p):
    """row with its entry at col cleared by the pivot row prow, whose
    pivot entry is 1: row - f*prow, taken mod p."""
    f = row.pop(col)
    for c, x in prow.items():
        if c != col:
            v = (row.get(c, 0) - f * x) % p
            if v:
                row[c] = v
            else:
                row.pop(c, None)
    return row


def insert_reduced(row, pivot_row, p):
    """Reduce the sparse row (entries in range(1, p); it is consumed)
    forward against pivot_row, a map from pivot column to a row leading
    there with entry 1, until its leading column carries no pivot; then
    scale that entry to 1 and add the row to the map.  Returns the added
    row, or None when row lies in the span of the map's rows."""
    while row:
        col = min(row)
        prow = pivot_row.get(col)
        if prow is None:
            if row[col] != 1:
                inv = pow(row[col], -1, p)
                row = {c: v * inv % p for c, v in row.items()}
            pivot_row[col] = row
            return row
        row = _eliminate(row, col, prow, p)
    return None


def echelon(rows, p):
    """Reduced row echelon form of sparse rows.  Returns (rref rows as
    sparse rows, pivot cols), the pivots ascending and the zero rows
    dropped.  Input rows are not mutated."""
    pivot_row: dict = {}  # pivot column -> its row, leading at that column
    for r in rows:
        insert_reduced({c: x for c, v in r.items() if (x := v % p)}, pivot_row, p)
    pivots = sorted(pivot_row)
    for col in reversed(pivots):
        row = pivot_row[col]
        # the rows right of col are reduced already, so clearing one of
        # their pivots here brings in no other pivot column
        for c in [c for c in row if c != col and c in pivot_row]:
            row = _eliminate(row, c, pivot_row[c], p)
        pivot_row[col] = row
    return [pivot_row[c] for c in pivots], pivots


def _monomial_columns(rows, p):
    """The columns of the rows' nonzero entries (mod p) when no row has
    two, else None."""
    cols: set = set()
    for r in rows:
        hit = [c for c, v in r.items() if v % p]
        if len(hit) > 1:
            return None
        cols.update(hit)
    return cols


def sparse_kernel(rows, ncols, p):
    """Basis of {v : M v = 0} for the ncols-column matrix M given as
    sparse rows, as sparse vectors: one per free column f of the rref,
    with entry 1 at f and -rref[i][f] at the pivot of each row i.  When
    no row has two nonzero entries, the rref is the unit rows at the
    columns of those entries and the kernel is read off with no
    elimination."""
    monomial = _monomial_columns(rows, p)
    if monomial is not None:
        return [{f: 1} for f in range(ncols) if f not in monomial]
    reduced, pivots = echelon(rows, p)
    pivot_set = set(pivots)
    basis = {f: {f: 1} for f in range(ncols) if f not in pivot_set}
    for r, c in zip(reduced, pivots):
        for f, v in r.items():
            if f != c:
                basis[f][c] = -v % p
    return list(basis.values())
