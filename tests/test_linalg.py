import random
from itertools import combinations

import pytest

import cgv.linalg as linalg
from cgv.baselocus import quadric_independence
from cgv.geometry import QUADRIC_BASIS
from cgv.linalg import (circulant_det_formula, circulant_matrix, matrix_det, matrix_rank,
                        nf_kernel_basis)
from cgv.mpoly import MPoly
from cgv.nf import NFElem

from conftest import random_nfelem


def nf_matrix(rows):
    return [[NFElem(v) for v in row] for row in rows]


def test_det_identity():
    ident = nf_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert matrix_det(ident) == NFElem(1)


def test_det_2x2_symbolic():
    a, b, c, d = (MPoly.var(v) for v in ("X", "Y", "Z", "T"))
    assert matrix_det([[a, b], [c, d]]) == a * d - b * c


def test_det_alternating():
    rng = random.Random(41)
    for _ in range(30):
        rows = [[random_nfelem(rng, span=6, den=3) for _ in range(3)] for _ in range(3)]
        d = matrix_det(rows)
        swapped = [rows[1], rows[0], rows[2]]
        assert matrix_det(swapped) == -d
        repeated = [rows[0], rows[0], rows[2]]
        assert matrix_det(repeated).is_zero()


def test_det_guards():
    with pytest.raises(ValueError):
        matrix_det(nf_matrix([[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(ValueError):
        matrix_det(nf_matrix([[1] * 7 for _ in range(7)]))
    with pytest.raises(ValueError):
        matrix_det(nf_matrix([[1, 2], [3]]))
    with pytest.raises(ValueError):
        matrix_det([])


def test_rank_trivial():
    assert matrix_rank(nf_matrix([[0, 0], [0, 0]])) == (0, ())
    ident = nf_matrix([[int(i == j) for j in range(4)] for i in range(4)])
    assert matrix_rank(ident) == (4, (0, 1, 2, 3))


def test_rank_symbolic_in_m():
    m = MPoly.var("m")
    one, zero = MPoly.constant(1), MPoly()
    assert matrix_rank([[m, one], [m, one]]) == (1, (0,))
    mat2 = [[m, zero], [zero, one]]
    assert matrix_rank(mat2) == (2, (0, 1))
    # specializing m at the degenerate value drops the rank
    at_zero = [[e.substitute({"m": 0}) for e in row] for row in mat2]
    assert matrix_rank(at_zero)[0] == 1


def minor_rank(rows):
    """(rank, columns) by trying every minor, largest first, in lexicographic
    order: at full row rank the columns are the first nonzero maximal minor."""
    nr, nc = len(rows), len(rows[0])
    for size in range(min(nr, nc), 0, -1):
        for rset in combinations(range(nr), size):
            for cset in combinations(range(nc), size):
                if not matrix_det([[rows[i][j] for j in cset] for i in rset]).is_zero():
                    return size, cset
    return 0, ()


def random_matrix(rng, entry, scalar):
    """A random matrix of at most 4x6 whose rows past the first k are
    combinations of the first k, shuffled, sometimes with zero columns."""
    nr, nc = rng.randint(1, 4), rng.randint(1, 6)
    k = rng.randint(1, nr)
    base = [[entry() for _ in range(nc)] for _ in range(k)]
    rows = list(base)
    for _ in range(nr - k):
        row = [scalar(0) for _ in range(nc)]
        for b in base:
            c = scalar(rng.randint(-2, 2))
            row = [x + c * y for x, y in zip(row, b)]
        rows.append(row)
    rng.shuffle(rows)
    for col in range(nc):
        if rng.random() < 0.15:
            for row in rows:
                row[col] = scalar(0)
    return rows


def nf_entry(rng):
    return NFElem(0) if rng.random() < 0.25 else random_nfelem(rng, span=4, den=2)


def m_linear_entry(rng):
    m = MPoly.var("m")
    return MPoly.constant(nf_entry(rng)) + MPoly.constant(nf_entry(rng)) * m


@pytest.mark.parametrize("entry, scalar", [(nf_entry, NFElem), (m_linear_entry, MPoly.constant)],
                         ids=["nf", "m-linear"])
def test_rank_matches_minor_enumeration(entry, scalar):
    # dual route: the elimination against the largest nonzero minor
    rng = random.Random(53)
    deficient = 0
    for _ in range(100):
        rows = random_matrix(rng, lambda: entry(rng), scalar)
        rank, pivots = matrix_rank(rows)
        want, cols = minor_rank(rows)
        assert rank == want == len(pivots)
        assert list(pivots) == sorted(set(pivots))
        if rank == len(rows):
            assert pivots == cols
        else:
            deficient += 1
    assert 20 <= deficient <= 80


def _quadric_rows(family):
    """The coefficients of Q0..Q3 over the ten quadric monomials, read off the quadrics."""
    return [[q.coeff_of_geom(e) for e in QUADRIC_BASIS] for q in family.quadrics]


@pytest.mark.parametrize("m", [None, NFElem(0), NFElem(1), NFElem(0, 1)],
                         ids=["symbolic", "0", "1", "r"])
def test_quadric_rows_are_the_mixed_matrix_with_zero_square_columns(family, m):
    fam = family.at_m(m)
    rows = _quadric_rows(fam)
    # M's columns in order, with a zero at each square X^2, Y^2, Z^2, T^2
    expected = []
    for row in fam.mixed_matrix:
        entries = iter(row)
        expected.append([MPoly.constant(0) if 2 in exp else next(entries) for exp in QUADRIC_BASIS])
    assert rows == expected
    assert [k for k, exp in enumerate(QUADRIC_BASIS) if 2 in exp] == [0, 4, 7, 9]
    ind = quadric_independence(fam)
    assert (ind.rank, ind.rank_witness) == matrix_rank(rows) == (4, (1, 2, 3, 5))


def test_quadric_rank_takes_no_determinant(family, monkeypatch):
    rows = _quadric_rows(family)
    assert any(e.involves("m") for row in rows for e in row)
    dets = []
    real = linalg.matrix_det
    monkeypatch.setattr(linalg, "matrix_det", lambda rows: dets.append(rows) or real(rows))
    # the X^2 column (0) is zero; the pivots are the columns the report prints
    assert matrix_rank(rows) == (4, (1, 2, 3, 5))
    assert len(dets) == 0


def test_kernel_basis_contract():
    rng = random.Random(43)
    for _ in range(25):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 5)
        rows = [[random_nfelem(rng, span=4, den=2) for _ in range(ncols)] for _ in range(nrows)]
        rank, _ = matrix_rank(rows)
        kernel = nf_kernel_basis(rows)
        assert rank + len(kernel) == ncols
        for vec in kernel:
            for row in rows:
                acc = NFElem(0)
                for a, x in zip(row, vec):
                    acc = acc + a * x
                assert acc.is_zero()


def test_circulant_trivial_cases():
    assert matrix_det(circulant_matrix(1, 0, 0, 0)) == NFElem(1)
    # the 4-cycle permutation is odd
    assert matrix_det(circulant_matrix(0, 1, 0, 0)) == NFElem(-1)


def test_circulant_formula_matches_cofactor_200_cases():
    rng = random.Random(47)
    for _ in range(200):
        a, b, c, d = (random_nfelem(rng, span=5, den=3) for _ in range(4))
        cof = matrix_det(circulant_matrix(a, b, c, d))
        assert cof == circulant_det_formula(a, b, c, d)


def test_matrix_equality_and_shape():
    # a matrix is a tuple of equal-length rows; ragged rows are refused
    m1 = circulant_matrix(1, 2, 3, 4)
    assert m1 == circulant_matrix(1, 2, 3, 4)
    assert [len(row) for row in m1] == [4, 4, 4, 4]
    assert m1[1] == tuple(NFElem(v) for v in (4, 1, 2, 3))
    with pytest.raises(ValueError):
        matrix_rank(nf_matrix([[1, 2], [3]]))
