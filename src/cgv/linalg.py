"""Exact matrices over Q(r)[X,Y,Z,T,m] and linear algebra over Q(r).

Determinants use cofactor expansion (adequate at size <= 6).  Ranks are
computed by Gaussian elimination when the entries are scalars; with m kept
symbolic a minor counts as nonzero iff its determinant is a nonzero
polynomial in m, so no fraction field is ever materialized.
"""

from __future__ import annotations

import itertools

from .nf import NFElem
from .mpoly import MPoly


class RingMatrix:
    __slots__ = ("rows",)

    def __init__(self, rows):
        rs = tuple(tuple(MPoly.coerce(e) for e in row) for row in rows)
        if rs and any(len(r) != len(rs[0]) for r in rs):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rs)

    def __setattr__(self, name, value):
        raise AttributeError("RingMatrix is immutable")

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def nf_entries(self):
        return [[e.as_nfelem() for e in row] for row in self.rows]

    def is_scalar(self):
        return all(e.is_constant() for row in self.rows for e in row)

    def __eq__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __str__(self):
        return "[" + "; ".join(", ".join(str(e) for e in row) for row in self.rows) + "]"


def matrix_det(mat: RingMatrix) -> MPoly:
    """Exact determinant by cofactor expansion; square input of size <= 6."""
    n, c = mat.shape
    if n != c:
        raise ValueError(f"determinant of a non-square {n}x{c} matrix")
    if n > 6:
        raise ValueError("cofactor expansion limited to size 6")
    return _det(mat.rows)


def _det(rows):
    n = len(rows)
    if n == 0:
        return MPoly.constant(1)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    out = MPoly.zero()
    rest = rows[1:]
    for j in range(n):
        a = rows[0][j]
        if a.is_zero():
            continue
        minor = [r[:j] + r[j + 1:] for r in rest]
        term = a * _det(minor)
        out = out + term if j % 2 == 0 else out - term
    return out


def nf_rref(rows):
    """Reduced row echelon form over Q(r); returns (rref rows, pivot columns)."""
    a = [list(r) for r in rows]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    pivots = []
    rank = 0
    for col in range(nc):
        piv = None
        for i in range(rank, nr):
            if not a[i][col].is_zero():
                piv = i
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = a[rank][col].inverse()
        a[rank] = [e * inv for e in a[rank]]
        for i in range(nr):
            if i != rank and not a[i][col].is_zero():
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        pivots.append(col)
        rank += 1
        if rank == nr:
            break
    return a, pivots


def nf_rank(rows):
    """Rank over Q(r) plus the pivot-column witness."""
    _, pivots = nf_rref(rows)
    return len(pivots), tuple(pivots)


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


def matrix_rank(mat: RingMatrix):
    """Rank over Q(r) (scalar entries) or over Q(r)(m) (entries involving m).

    Returns (rank, witness): pivot columns in the scalar case, the certifying
    nonzero minor (rows, cols) in the symbolic case.
    """
    if mat.is_scalar():
        rank, pivots = nf_rank(mat.nf_entries())
        return rank, {"pivot_columns": pivots}
    nr, nc = mat.shape
    for size in range(min(nr, nc), 0, -1):
        for rset in itertools.combinations(range(nr), size):
            for cset in itertools.combinations(range(nc), size):
                sub = RingMatrix([[mat.rows[i][j] for j in cset] for i in rset])
                if not matrix_det(sub).is_zero():
                    return size, {"minor_rows": rset, "minor_cols": cset}
    return 0, {"minor_rows": (), "minor_cols": ()}


def circulant_det_formula(a, b, c, d) -> NFElem:
    """Determinant of the 4x4 circulant with first row (a, b, c, d).

    Product of the eigenvalues at the fourth roots of unity:
    (a+b+c+d)(a-b+c-d)((a-c)^2 + (b-d)^2).
    """
    a, b, c, d = (NFElem.coerce(v) for v in (a, b, c, d))
    return (a + b + c + d) * (a - b + c - d) * ((a - c) ** 2 + (b - d) ** 2)


def circulant_matrix(a, b, c, d) -> RingMatrix:
    first = [a, b, c, d]
    rows = [first[-k:] + first[:-k] for k in range(4)]
    return RingMatrix(rows)
