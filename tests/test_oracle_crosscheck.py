"""Independent symbolic recomputation of the load-bearing values with sympy.

These tests rebuild the objects from scratch in a second computer-algebra
system and compare: the dual-route discipline for the values the package's
own arithmetic is trusted with elsewhere.
"""

import pytest
import sympy as sp

from cgv.baselocus import (quadric_independence, single_hyperplane_det_analysis,
                           single_hyperplane_system)
from cgv.geometry import MIXED_MONOMIALS
from cgv.linalg import circulant_det_formula
from cgv.nf import NFElem
from cgv.tangent import chart_gradient, tangent_determinant

from conftest import RR, SYMS, circulant_matrix, nf_to_sympy, red, to_sympy

SX, SY, SZ, ST, SM = (SYMS[v] for v in ("X", "Y", "Z", "T", "m"))


def independent_quadrics():
    a1, a2 = 3 * RR - 2, RR + 1
    a3, a4 = -6 * RR**2 + 2 * RR + 2, -2 * RR**2 - 5 * RR + 5
    q0 = a1 * ((SX + SM * SY + RR**2 * SZ) * ST + a2 * SX * SY) + a3 * SX * SZ + a4 * SY * SZ
    q1 = a1 * ((SY + SM * SZ + RR**2 * ST) * SX + a2 * SY * SZ) + a3 * SY * ST + a4 * SZ * ST
    q2 = a1 * ((SZ + SM * ST + RR**2 * SX) * SY + a2 * SZ * ST) + a3 * SZ * SX + a4 * ST * SX
    q3 = a1 * ((ST + SM * SX + RR**2 * SY) * SZ + a2 * ST * SX) + a3 * ST * SY + a4 * SX * SY
    return q0, q1, q2, q3


def test_quadrics_match_independent_expansion(family):
    for q, sq in zip(family.quadrics, independent_quadrics()):
        assert red(to_sympy(q) - sq) == 0


def test_cubic_term_counts_match_expansion(family):
    qs = independent_quadrics()
    coords = (ST, SX, SY, SZ)
    for c, coord, sq in zip(family.cubics, coords, qs):
        expanded = sp.Poly(sp.expand(coord * sq), SX, SY, SZ, ST, SM)
        assert len(expanded.terms()) == len(c.terms)


def test_tangent_rows_match_independent_differentiation(family):
    q0, q1, q2, _ = independent_quadrics()
    cubics = (ST * q0, SX * q1, SY * q2)
    for i, c in enumerate(cubics):
        row = chart_gradient(family, i)
        for v, g in zip((SX, SY, SZ), row):
            expected = sp.diff(c, v).subs({ST: 1})
            assert red(to_sympy(g) - expected) == 0


def test_tangent_determinant_matches_independent_expansion(family):
    # dual route for the stored D, symbolic in m: sympy's determinant of the
    # rows differentiated from the independently expanded cubics
    q0, q1, q2, _ = independent_quadrics()
    rows = [[sp.diff(c, v).subs({ST: 1}) for v in (SX, SY, SZ)] for c in (ST * q0, SX * q1, SY * q2)]
    assert red(sp.Matrix(rows).det() - to_sympy(tangent_determinant(family))) == 0


def test_printed_matrix_determinant_vanishes(family):
    mat = single_hyperplane_system(family.mixed_matrix, "T")
    smat = sp.Matrix([[to_sympy(e) for e in row] for row in mat])
    assert red(smat.det()) == 0
    analysis = single_hyperplane_det_analysis(mat)
    assert analysis.det.is_zero()


def test_circulant_value_against_sympy(family):
    ind = quadric_independence(family)
    a = red((RR + 1) * (3 * RR - 2))
    b = 3 * RR - 2
    c = red(RR**2 * (3 * RR - 2))
    d = -2 * RR**2 - 5 * RR + 5
    m = sp.Matrix([[a, b, c, d], [d, a, b, c], [c, d, a, b], [b, c, d, a]])
    det = red(m.det())
    got = ind.det_cofactor
    assert red(det - nf_to_sympy(got)) == 0


@pytest.mark.parametrize("m", [None, NFElem(0), NFElem(1), NFElem(0, 1)],
                         ids=["symbolic", "0", "1", "r"])
def test_the_circulant_is_the_cyclic_block_of_the_mixed_matrix(family, m):
    # M's columns XY, YZ, ZT, XT (exponents in X, Y, Z, T order) are the
    # transpose of the circulant of the XY column, and sympy's determinant of
    # that block is the eigenvalue-product formula
    fam = family.at_m(m)
    cols = [MIXED_MONOMIALS.index(e) for e in ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1))]
    block = [tuple(row[k].as_nfelem() for k in cols) for row in fam.mixed_matrix]
    xy = [row[0] for row in block]
    assert block == list(zip(*circulant_matrix(*xy)))
    det = red(sp.Matrix([[nf_to_sympy(e) for e in row] for row in block]).det())
    formula = circulant_det_formula(*xy)
    assert red(det - nf_to_sympy(formula)) == 0
    assert quadric_independence(fam).det_cofactor == formula


def test_restricted_cofactors_against_sympy(family):
    from cgv.geometry import LINE_R, eval_at_point
    q0, q1, _, _ = independent_quadrics()
    sub = {SZ: -SX, ST: -SY}
    for q, sq in ((family.quadrics[0], q0), (family.quadrics[1], q1)):
        ours = to_sympy(eval_at_point(q, LINE_R))
        theirs = sp.expand(sq.subs(sub, simultaneous=True))
        assert red(ours - theirs) == 0


def test_quadrics_vanish_at_the_reference_points():
    # the base locus substitutes nothing at a reference point, since M exists;
    # here each Q_j at each e_i is 0 identically in m and r, without r's relation
    coords = (SX, SY, SZ, ST)
    for sq in independent_quadrics():
        for i in range(4):
            at_e = sq.subs({v: int(k == i) for k, v in enumerate(coords)}, simultaneous=True)
            assert sp.expand(at_e) == 0
