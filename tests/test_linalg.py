import random

import pytest

from cgv.linalg import (RingMatrix, circulant_det_formula, circulant_matrix,
                        matrix_det, matrix_rank, nf_kernel_basis, nf_rank)
from cgv.mpoly import MPoly
from cgv.nf import NFElem

from conftest import random_nfelem


def test_det_identity():
    ident = RingMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert matrix_det(ident).as_nfelem() == NFElem(1)


def test_det_2x2_symbolic():
    a, b, c, d = (MPoly.var(v) for v in ("X", "Y", "Z", "T"))
    mat = RingMatrix([[a, b], [c, d]])
    assert matrix_det(mat) == a * d - b * c


def test_det_alternating():
    rng = random.Random(41)
    for _ in range(30):
        rows = [[random_nfelem(rng, span=6, den=3) for _ in range(3)] for _ in range(3)]
        d = matrix_det(RingMatrix(rows)).as_nfelem()
        swapped = [rows[1], rows[0], rows[2]]
        assert matrix_det(RingMatrix(swapped)).as_nfelem() == -d
        repeated = [rows[0], rows[0], rows[2]]
        assert matrix_det(RingMatrix(repeated)).as_nfelem().is_zero()


def test_det_guards():
    with pytest.raises(ValueError):
        matrix_det(RingMatrix([[1, 2, 3], [4, 5, 6]]))
    seven = RingMatrix([[1] * 7 for _ in range(7)])
    with pytest.raises(ValueError):
        matrix_det(seven)


def test_rank_trivial():
    zero = RingMatrix([[0, 0], [0, 0]])
    assert matrix_rank(zero)[0] == 0
    ident = RingMatrix([[int(i == j) for j in range(4)] for i in range(4)])
    rank, witness = matrix_rank(ident)
    assert rank == 4
    assert witness["pivot_columns"] == (0, 1, 2, 3)


def test_rank_symbolic_in_m():
    m = MPoly.var("m")
    mat = RingMatrix([[m, MPoly.constant(1)], [m, MPoly.constant(1)]])
    assert matrix_rank(mat)[0] == 1
    mat2 = RingMatrix([[m, MPoly.constant(0)], [MPoly.constant(0), MPoly.constant(1)]])
    rank, witness = matrix_rank(mat2)
    assert rank == 2
    # specializing m at the degenerate value drops the rank
    at_zero = RingMatrix([[e.substitute({"m": NFElem(0)}) for e in row] for row in mat2.rows])
    assert matrix_rank(at_zero)[0] == 1


def test_kernel_basis_contract():
    rng = random.Random(43)
    for _ in range(25):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 5)
        rows = [[random_nfelem(rng, span=4, den=2) for _ in range(ncols)] for _ in range(nrows)]
        rank, _ = nf_rank(rows)
        kernel = nf_kernel_basis(rows)
        assert rank + len(kernel) == ncols
        for vec in kernel:
            for row in rows:
                acc = NFElem(0)
                for a, x in zip(row, vec):
                    acc = acc + a * x
                assert acc.is_zero()


def test_circulant_trivial_cases():
    assert matrix_det(circulant_matrix(1, 0, 0, 0)).as_nfelem() == NFElem(1)
    # the 4-cycle permutation is odd
    assert matrix_det(circulant_matrix(0, 1, 0, 0)).as_nfelem() == NFElem(-1)


def test_circulant_formula_matches_cofactor_200_cases():
    rng = random.Random(47)
    for _ in range(200):
        a, b, c, d = (random_nfelem(rng, span=5, den=3) for _ in range(4))
        cof = matrix_det(circulant_matrix(a, b, c, d)).as_nfelem()
        assert cof == circulant_det_formula(a, b, c, d)


def test_matrix_equality_and_shape():
    m1 = RingMatrix([[1, 2], [3, 4]])
    m2 = RingMatrix([[1, 2], [3, 4]])
    assert m1 == m2
    assert m1.shape == (2, 2)
    with pytest.raises(ValueError):
        RingMatrix([[1, 2], [3]])
