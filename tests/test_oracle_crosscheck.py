"""Independent symbolic recomputation of the load-bearing values with sympy.

These tests rebuild the objects from scratch in a second computer-algebra
system and compare: the dual-route discipline for the values the package's
own arithmetic is trusted with elsewhere.
"""

import sympy as sp

from cgv.baselocus import single_hyperplane_det_analysis, single_hyperplane_system
from cgv.tangent import chart_gradient

from conftest import RR, SYMS, red, to_sympy

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


def test_printed_matrix_determinant_vanishes(family):
    mat, _, _, _ = single_hyperplane_system(family, "T")
    smat = sp.Matrix([[to_sympy(e) for e in row] for row in mat])
    assert red(smat.det()) == 0
    analysis = single_hyperplane_det_analysis(mat)
    assert analysis.det.is_zero()


def test_circulant_value_against_sympy(family):
    from cgv.baselocus import quadric_independence
    ind = quadric_independence(family)
    a = red((RR + 1) * (3 * RR - 2))
    b = 3 * RR - 2
    c = red(RR**2 * (3 * RR - 2))
    d = -2 * RR**2 - 5 * RR + 5
    m = sp.Matrix([[a, b, c, d], [d, a, b, c], [c, d, a, b], [b, c, d, a]])
    det = red(m.det())
    got = ind.det_cofactor
    expected = sp.Rational(got.c0) + sp.Rational(got.c1) * RR + sp.Rational(got.c2) * RR**2
    assert red(det - expected) == 0


def test_restricted_cofactors_against_sympy(family):
    from cgv.geometry import LINE_R
    q0, q1, _, _ = independent_quadrics()
    sub = {SZ: -SX, ST: -SY}
    for q, sq in ((family.quadrics[0], q0), (family.quadrics[1], q1)):
        ours = to_sympy(LINE_R.restrict(q))
        theirs = sp.expand(sq.subs(sub, simultaneous=True))
        assert red(ours - theirs) == 0
