"""Exact linear algebra over Q(r) and over Q(r)[X,Y,Z,T,m].

A matrix is a sequence of equal-length rows whose entries are all NFElem or
all MPoly.  Determinants use cofactor expansion (adequate at size <= 6).
Ranks come from one fraction-free elimination: each step scales a row by a
nonzero pivot, a unit of the fraction field, so polynomial entries never
need a quotient and the rank over Q(r)(X,Y,Z,T,m) is exact.  It runs
column by column and stops at full row rank, so the columns after the
last pivot are never eliminated.  Kernels are read off the reduced row
echelon form over Q(r), whose Gauss-Jordan steps scale and subtract only
the nonzero entries of the pivot row, from the pivot column on.
"""

from __future__ import annotations

from .nf import NFElem


def _width(rows):
    """Common row length of `rows`; ValueError on ragged rows."""
    n = len(rows[0]) if rows else 0
    if any(len(r) != n for r in rows):
        raise ValueError("ragged rows")
    return n


def matrix_det(rows):
    """Exact determinant by cofactor expansion; square input of size 1 to 6.

    Returns an NFElem or an MPoly, the type of the entries.
    """
    n = len(rows)
    if not 1 <= n <= 6:
        raise ValueError(f"cofactor expansion needs size 1 to 6, not {n}")
    if _width(rows) != n:
        raise ValueError(f"determinant of a non-square {n}x{len(rows[0])} matrix")
    return _det([tuple(r) for r in rows])


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    if len(rows) == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    out = None
    rest = rows[1:]
    for j, a in enumerate(rows[0]):
        if a.is_zero():
            continue
        term = a * _det([r[:j] + r[j + 1:] for r in rest])
        term = term if j % 2 == 0 else -term
        out = term if out is None else out + term
    return rows[0][0] if out is None else out   # a zero first row: the determinant is that zero


def matrix_rank(rows):
    """Rank over the fraction field of the entries, with the pivot columns.

    Fraction-free elimination, one column at a time: step k swaps its pivot
    row p into place k and turns each row below it with a nonzero entry f in
    the pivot column c into p[c] * row - f * p.  A column is brought through
    the earlier steps only when the elimination reaches it, entry by entry
    with that same product, and the elimination stops at full row rank, so
    no column after the last pivot is ever read (a left-looking order of
    the same steps; Bareiss, Math. Comp. 22 (1968) 565-578).  Returns
    (rank, pivot columns); the pivot columns are the greedy column basis,
    so at full row rank they index the lexicographically first nonzero
    maximal minor.
    """
    nc = _width(rows)
    n = len(rows)
    steps = []   # per pivot: (row swapped into place, pivot entry, [(row, f)])
    pivots = []
    for col in range(nc):
        top = len(pivots)
        if top == n:
            break
        v = [r[col] for r in rows]
        for k, (swap, p, factors) in enumerate(steps):
            v[k], v[swap] = v[swap], v[k]
            y = v[k]
            for i, f in factors:
                v[i] = p * v[i] - f * y
        piv = next((i for i in range(top, n) if not v[i].is_zero()), None)
        if piv is None:
            continue
        v[top], v[piv] = v[piv], v[top]
        steps.append((piv, v[top], [(i, v[i]) for i in range(top + 1, n) if not v[i].is_zero()]))
        pivots.append(col)
    return len(pivots), tuple(pivots)


def nf_rref(rows):
    """Reduced row echelon form over Q(r); returns (rref rows, pivot columns)."""
    a = [list(r) for r in rows]
    nc = _width(a)
    pivots = []
    for col in range(nc):
        top = len(pivots)
        if top == len(a):
            break
        piv = next((i for i in range(top, len(a)) if not a[i][col].is_zero()), None)
        if piv is None:
            continue
        a[top], a[piv] = a[piv], a[top]
        prow = a[top]
        inv = prow[col].inverse()
        # left of col the pivot row is 0, so only its nonzero entries from col on change any row
        scaled = [(j, prow[j] * inv) for j in range(col, nc) if not prow[j].is_zero()]
        for j, y in scaled:
            prow[j] = y
        for i, row in enumerate(a):
            f = row[col]
            if i != top and not f.is_zero():
                for j, y in scaled:
                    row[j] = row[j] - f * y
        pivots.append(col)
    return a, pivots


def nf_kernel_basis(rows):
    """Right-kernel basis over Q(r): one vector per free column, deterministic."""
    rref, pivots = nf_rref(rows)
    nc = len(rows[0]) if rows else 0
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        v = [NFElem(0)] * nc
        v[fc] = NFElem(1)
        for prow, pcol in enumerate(pivots):
            v[pcol] = -rref[prow][fc]
        basis.append(tuple(v))
    return basis


def circulant_det_formula(a, b, c, d) -> NFElem:
    """Determinant of the 4x4 circulant with first row (a, b, c, d).

    Product of the eigenvalues at the fourth roots of unity:
    (a+b+c+d)(a-b+c-d)((a-c)^2 + (b-d)^2).
    """
    a, b, c, d = (NFElem.coerce(v) for v in (a, b, c, d))
    return (a + b + c + d) * (a - b + c - d) * ((a - c) ** 2 + (b - d) ** 2)
