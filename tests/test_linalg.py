import random
from itertools import combinations

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

import cgv.linalg as linalg
from cgv.baselocus import QUADRIC_BASIS, quadric_independence
from cgv.geometry import MIXED_MONOMIALS, build_cubics
from cgv.linalg import circulant_det_formula, matrix_det, matrix_rank, nf_kernel_basis
from cgv.mpoly import MPoly
from cgv.nf import NFElem

from conftest import circulant_matrix, mpoly_products, nf_products, random_nfelem


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


# -- the column-by-column elimination against a whole-matrix one -------------------


def right_looking_rank(rows):
    """(rank, pivots) by the same fraction-free steps, each applied at once to
    every later column of every row below the pivot, through full rank."""
    a = [tuple(r) for r in rows]
    pivots = []
    for col in range(len(a[0]) if a else 0):
        top = len(pivots)
        if top == len(a):
            break
        piv = next((i for i in range(top, len(a)) if not a[i][col].is_zero()), None)
        if piv is None:
            continue
        a[top], a[piv] = a[piv], a[top]
        p = a[top]
        for i in range(top + 1, len(a)):
            f = a[i][col]
            if not f.is_zero():
                a[i] = a[i][:col + 1] + tuple(p[col] * x - f * y for x, y in zip(a[i][col + 1:], p[col + 1:]))
        pivots.append(col)
    return len(pivots), tuple(pivots)


QR = sp.QQ.algebraic_field(sp.CRootOf(sp.Symbol("x") ** 3 + sp.Symbol("x") ** 2 - 1, 0))
QR_R = QR.from_sympy(QR.ext)
QR_M_X = QR.frac_field(sp.Symbol("m"), sp.Symbol("X"))


def qr_elem(a: NFElem):
    n0, n1, n2, d = (QR.convert(n) for n in a.integers())
    return (n0 + n1 * QR_R + n2 * QR_R * QR_R) / d


def qr_m_x_elem(p: MPoly):
    m, x = QR_M_X.gens
    return sum((QR_M_X.convert_from(qr_elem(c), QR) * x ** e[0] * m ** e[4] for e, c in p.terms.items()),
               QR_M_X.zero)


def sympy_rank(rows):
    """The rank by sympy's elimination over Q(r), or over Q(r)(m, X) for MPoly entries."""
    field, elem = (QR, qr_elem) if isinstance(rows[0][0], NFElem) else (QR_M_X, qr_m_x_elem)
    return DomainMatrix([[elem(e) for e in row] for row in rows], (len(rows), len(rows[0])), field).rank()


NF_ENTRIES = st.one_of(
    st.just(NFElem(0)),
    st.builds(NFElem, st.integers(-3, 3), st.integers(-2, 2), st.integers(-1, 1), st.integers(1, 3)),
)
MPOLY_ENTRIES = st.one_of(
    st.just(MPoly()),
    st.builds(lambda a, b, c: MPoly.constant(a) + MPoly.constant(b) * MPoly.var("m")
              + MPoly.constant(c) * MPoly.var("X") * MPoly.var("m"), NF_ENTRIES, NF_ENTRIES, NF_ENTRIES),
)


@st.composite
def matrices(draw, entries, scalar, max_rows, max_cols):
    """A matrix whose rows past the first k are integer combinations of those
    k, in a drawn row order, with some columns zeroed: wide, tall and square,
    of full rank and rank-deficient."""
    nr, nc = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    k = draw(st.integers(0, nr))
    base = [[draw(entries) for _ in range(nc)] for _ in range(k)]
    rows = list(base)
    for _ in range(nr - k):
        row = [scalar(0)] * nc
        for b in base:
            c = draw(st.integers(-2, 2))
            row = [x + c * y for x, y in zip(row, b)]
        rows.append(row)
    rows = [rows[i] for i in draw(st.permutations(range(nr)))]
    for col in draw(st.sets(st.integers(0, nc - 1), max_size=2)):
        for row in rows:
            row[col] = scalar(0)
    return rows


@settings(max_examples=150, deadline=None)
@given(matrices(NF_ENTRIES, NFElem, 5, 6))
def test_lazy_rank_matches_whole_matrix_elimination_over_qr(rows):
    got = matrix_rank(rows)
    assert got == right_looking_rank(rows)
    assert got[0] == sympy_rank(rows)


@settings(max_examples=60, deadline=None)
@given(matrices(MPOLY_ENTRIES, MPoly.constant, 3, 4))
def test_lazy_rank_matches_whole_matrix_elimination_over_mpoly(rows):
    got = matrix_rank(rows)
    assert got == right_looking_rank(rows)
    assert got[0] == sympy_rank(rows)


@settings(max_examples=150, deadline=None)
@given(matrices(NF_ENTRIES, NFElem, 5, 6))
def test_nf_rref_matches_sympy_over_qr(rows):
    # the reduced row echelon form is unique: the same entries and the same pivots
    got, pivots = linalg.nf_rref(rows)
    want, want_pivots = DomainMatrix([[qr_elem(e) for e in row] for row in rows],
                                     (len(rows), len(rows[0])), QR).rref()
    assert tuple(pivots) == want_pivots
    assert [[qr_elem(e) for e in row] for row in got] == want.to_list()


def test_nf_rref_multiplies_from_the_pivot_column_on(monkeypatch):
    # each step multiplies the nonzero pivot-row entries from the pivot column
    # on, once to scale them and once per other row it clears: 3 * 2 at column
    # 0, which leaves the second row (0, 1, 2), then 2 * 2 at column 1, where
    # whole rows would make 3 * 2 again
    rows = nf_matrix([[1, 1, 1], [1, 2, 3]])
    (rref, pivots), calls = nf_products(monkeypatch, lambda: linalg.nf_rref(rows))
    assert (rref, pivots) == (nf_matrix([[1, 0, -1], [0, 1, 2]]), [0, 1])
    assert calls == ["mul"] * 10


class Untouchable:
    """An entry that fails any test or arithmetic on it."""

    def __getattr__(self, name):
        raise AssertionError(f"entry read: {name}")


@pytest.mark.parametrize("m", [None, NFElem(1)], ids=["symbolic", "1"])
def test_independence_never_reaches_the_yt_and_zt_columns(m, monkeypatch):
    # the rank of M, which quadric_independence reports; its circulant block reads ZT
    fam = build_cubics().at_m(m)
    want = matrix_rank(fam.mixed_matrix)
    yt, zt = MIXED_MONOMIALS.index((0, 1, 0, 1)), MIXED_MONOMIALS.index((0, 0, 1, 1))
    rows = tuple(tuple(Untouchable() if k in (yt, zt) else e for k, e in enumerate(row))
                 for row in fam.mixed_matrix)
    got, products = mpoly_products(monkeypatch, lambda: matrix_rank(rows))
    assert got == want == (4, (0, 1, 2, 3))
    # pivots at XY, XZ, XT and YZ: the products of eliminating those four columns alone
    first_four = [row[:4] for row in fam.mixed_matrix]
    assert len(products) == len(mpoly_products(monkeypatch, lambda: right_looking_rank(first_four))[1]) > 0
    # the same pivots as QUADRIC_BASIS indices
    assert quadric_independence(fam).rank_witness == (1, 2, 3, 5)
