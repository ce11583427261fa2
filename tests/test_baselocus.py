import random

import pytest

from cgv.baselocus import (EMPTY, INCONCLUSIVE, NON_REFERENCE, REFERENCE,
                           MIXED_MONOMIALS, QUADRIC_BASIS, Stratum, aggregate,
                           all_strata, classify_stratum,
                           mixed_monomial_matrix, monomial_kernel_lift,
                           no_hyperplane_torus_check,
                           single_hyperplane_det_analysis,
                           single_hyperplane_system, stratum_double_hyperplane,
                           stratum_triple_hyperplane, quadric_independence)
from cgv.geometry import COFACTOR_COORDS, REFERENCE_POINTS, SIGMA, apply_map, point_name
from cgv.linalg import circulant_det_formula, matrix_rank, nf_kernel_basis
from cgv.mpoly import GEOM_VARS, MPoly
from cgv.nf import NFElem
from cgv.parsing import parse_poly

from conftest import nf_to_float

M1 = NFElem(1)


def nf_rows(mat):
    """The rows of a matrix with constant MPoly entries, as NFElem rows."""
    return [[e.as_nfelem() for e in row] for row in mat]


def test_sixteen_strata_in_display_order():
    strata = all_strata()
    assert len(strata) == 16
    assert strata[0].taken == (0, 1, 2, 3)
    assert strata[-1].taken == ()
    sizes = [len(s.taken) for s in strata]
    assert sizes.count(4) == 1 and sizes.count(3) == 4
    assert sizes.count(2) == 6 and sizes.count(1) == 4 and sizes.count(0) == 1
    # the displayed decomposition starts T.X.Y.Z, then T.X.Y|Q3, T.X.Z|Q2, T.X|Q2.Q3
    labels = [s.label() for s in strata[:4]]
    assert labels == ["T.X.Y.Z|-", "T.X.Y|Q3", "T.X.Z|Q2", "T.X|Q2.Q3"]


def _unit_points(stratum):
    """The points with 1 at one free coordinate of the stratum, ordered X, Y, Z, T."""
    positions = sorted(GEOM_VARS.index(COFACTOR_COORDS[j]) for j in stratum.quadrics)
    return tuple(tuple(NFElem(int(k == p)) for k in range(4)) for p in positions)


def test_stratum_reference_points(family):
    for stratum in all_strata():
        points = stratum.reference_points()
        assert points == _unit_points(stratum)
        assert len(points) == 4 - len(stratum.taken)
        # each lies on the stratum, identically in m
        for pt in points:
            assert all(pt[GEOM_VARS.index(COFACTOR_COORDS[i])].is_zero() for i in stratum.taken)
            sub = dict(zip(GEOM_VARS, pt))
            assert all(family.quadrics[j].substitute(sub).is_zero() for j in stratum.quadrics)
    assert Stratum(()).reference_points() == REFERENCE_POINTS


@pytest.mark.parametrize("m", [NFElem(0), NFElem(1), NFElem(0, 1)], ids=["0", "1", "r"])
def test_reference_results_report_the_stratum_reference_points(family, m):
    results = [classify_stratum(family.at_m(m), s) for s in all_strata()]
    reference = [res for res in results if res.kind == REFERENCE]
    # every stratum but the empty one, less the two strata left inconclusive at m = 0
    assert len(reference) >= 13
    for res in reference:
        assert res.points == _unit_points(res.stratum)


def test_quadruple_stratum_empty(family):
    res = classify_stratum(family, Stratum((0, 1, 2, 3)))
    assert res.kind == EMPTY


def test_triple_strata_reference_points(family):
    expected = {
        (0, 1, 2): "[0:0:1:0]",
        (0, 1, 3): "[0:1:0:0]",
        (0, 2, 3): "[1:0:0:0]",
        (1, 2, 3): "[0:0:0:1]",
    }
    for taken, name in expected.items():
        res = stratum_triple_hyperplane(family, Stratum(taken))
        assert res.kind == REFERENCE
        assert [point_name(p) for p in res.points] == [name]


def test_triple_stratum_restriction_identically_zero(family):
    # Q3 with T = X = Y = 0 vanishes for all Z, including the m terms
    q = family.quadrics[3].substitute({"T": 0, "X": 0, "Y": 0})
    assert q.is_zero()


def test_double_strata_unit_monomials(family):
    # frozen restriction table: coefficient values and shared monomial
    unit = NFElem(-2, 3)              # 3r - 2
    unit_r2 = NFElem(3, 0, -5)        # r^2 (3r - 2) reduced
    table = {
        (0, 1): (unit, unit_r2),
        (0, 3): (unit, unit_r2),
        (1, 2): (unit_r2, unit),
        (2, 3): (unit, unit_r2),
    }
    for taken, coeffs in table.items():
        stratum = Stratum(taken)
        res = stratum_double_hyperplane(family, stratum)
        assert res.kind == REFERENCE
        assert len(res.points) == 2
        for j, expected_coeff in zip(stratum.quadrics, coeffs):
            restricted = family.quadrics[j].substitute(
                {name: 0 for name in stratum.hyperplane_names})
            assert len(restricted.terms) == 1
            ((_, coeff),) = restricted.terms.items()
            assert coeff == expected_coeff


def test_double_strata_m_dependent(family):
    for taken in ((0, 2), (1, 3)):
        res = stratum_double_hyperplane(family, Stratum(taken))
        assert res.kind == REFERENCE
        assert any("m = 0" in n for n in res.notes)
        degenerate = stratum_double_hyperplane(family.at_m(NFElem(0)), Stratum(taken))
        assert degenerate.kind == INCONCLUSIVE
        fine = stratum_double_hyperplane(family.at_m(M1), Stratum(taken))
        assert fine.kind == REFERENCE


def test_double_stratum_TX_example(family):
    res = stratum_double_hyperplane(family, Stratum((0, 1)))
    names = [point_name(p) for p in res.points]
    assert names == ["[0:1:0:0]", "[0:0:1:0]"]


def test_single_system_matches_printed_matrix(family):
    mat, basis, row_quadrics, cycle = single_hyperplane_system(family, "T")
    printed = (
        (parse_poly("1"), parse_poly("r+1"), parse_poly("m")),
        (parse_poly("r^2*(3*r-2)"), parse_poly("3*r-2"), parse_poly("-6*r^2+2*r+2")),
        (parse_poly("-2*r^2-5*r+5"), parse_poly("r^2*(3*r-2)"), parse_poly("(3*r-2)*m")),
    )
    assert mat == printed
    assert row_quadrics == (1, 2, 3)
    assert cycle == ("X", "Y", "Z")
    assert basis[0] == (1, 1, 0, 0)  # XY


def test_single_systems_sigma_conjugate(family):
    base, basis_t, _, cycle_t = single_hyperplane_system(family, "T")

    def name(f):
        return GEOM_VARS[f.geom_support()[0].index(1)]

    # transport h = T, its free cycle and its basis monomials by the rotation
    h_var = MPoly.var("T")
    cycle = [MPoly.var(v) for v in cycle_t]
    basis = [parse_poly("*".join(v for v, k in zip(GEOM_VARS, e) if k)) for e in basis_t]
    seen = []
    for _ in range(3):
        h_var = apply_map(h_var, SIGMA)
        cycle = [apply_map(f, SIGMA) for f in cycle]
        basis = [apply_map(f, SIGMA) for f in basis]
        h = name(h_var)
        mat, basis_h, _, cycle_h = single_hyperplane_system(family, h)
        assert mat == base
        assert cycle_h == tuple(name(f) for f in cycle)
        assert basis_h == [f.geom_support()[0] for f in basis]
        seen.append(h)
    assert seen == ["Z", "Y", "X"]


def test_det_analysis_identically_zero(family):
    for h in ("T", "X", "Y", "Z"):
        mat, _, _, _ = single_hyperplane_system(family, h)
        analysis = single_hyperplane_det_analysis(mat)
        assert analysis.det.is_zero()
        assert analysis.m_coefficient.is_zero()
        assert analysis.m_free_part.is_zero()


def test_det_numeric_crosscheck(family):
    # independent float cofactor expansion of the printed matrix at m in {1, 2}
    mat, _, _, _ = single_hyperplane_system(family, "T")
    for m_val in (1.0, 2.0):
        rows = []
        for row in mat:
            vals = []
            for e in row:
                up = e.m_upoly()
                cs = [nf_to_float(c) for c in up.coeffs] or [0.0]
                vals.append(sum(c * m_val ** k for k, c in enumerate(cs)))
            rows.append(vals)
        det = (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
               - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
               + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
        assert abs(det) < 1e-9


def test_kernel_lift_at_m1(family):
    res = monomial_kernel_lift(family.at_m(M1), "T")
    assert res.kind == REFERENCE
    names = [point_name(p) for p in res.points]
    assert names == ["[1:0:0:0]", "[0:1:0:0]", "[0:0:1:0]"]
    # the kernel is one-dimensional with vanishing ZX component; frozen direction
    mat, _, _, _ = single_hyperplane_system(family.at_m(M1), "T")
    kernel = nf_kernel_basis(nf_rows(mat))
    assert len(kernel) == 1
    vec = kernel[0]
    assert vec[2].is_zero()
    cand = (NFElem(-5, 1, 8), NFElem(7, -8, -2), NFElem(0))  # (3r-2)(r+1-r^2) reduced, etc.
    # proportional to the frozen candidate
    assert vec[0] * cand[1] == vec[1] * cand[0]
    for row in nf_rows(mat):
        acc = NFElem(0)
        for a, x in zip(row, cand):
            acc = acc + a * x
        assert acc.is_zero()


def test_kernel_lift_all_h_and_various_m(family):
    for h in ("T", "X", "Y", "Z"):
        for mv in (M1, NFElem(0), NFElem(0, 1)):
            res = monomial_kernel_lift(family.at_m(mv), h)
            assert res.kind == REFERENCE
            assert len(res.points) == 3


def test_kernel_lift_requires_m(family):
    with pytest.raises(ValueError):
        monomial_kernel_lift(family, "T")


def test_lift_identity_algebra():
    # (uw, uv, vw) has monomial vector (pq, qs, sp) = uvw * (u, v, w)
    rng = random.Random(59)
    for _ in range(40):
        u, v, w = (NFElem(rng.randint(1, 9), rng.randint(-3, 3)) for _ in range(3))
        p, q, s = u * w, u * v, v * w
        scale = u * v * w
        assert (p * q, q * s, s * p) == (scale * u, scale * v, scale * w)


def test_torus_stratum_empty(family):
    res = no_hyperplane_torus_check(family.at_m(M1))
    assert res.kind == REFERENCE
    assert len(res.points) == 4
    mat = mixed_monomial_matrix(family.at_m(M1))
    rank, _ = matrix_rank(mat)
    assert rank == 4
    assert len(nf_kernel_basis(nf_rows(mat))) == 2


def test_quadric_independence(family):
    ind = quadric_independence(family)
    # frozen oracle value of the circulant determinant
    assert ind.det_cofactor == NFElem(-1929, 1445, 1471)
    assert ind.det_cofactor == circulant_det_formula(*ind.entries)
    assert ind.nonzero
    assert ind.rank == 4
    a, b, c, d = ind.entries
    assert a == NFElem(1, 1) * NFElem(-2, 3)
    assert abs(nf_to_float(ind.det_cofactor) - 0.0332957846) < 1e-8


def test_quadrics_supported_on_mixed_monomials(family):
    for q in family.quadrics:
        for exp in q.geom_support():
            assert exp in MIXED_MONOMIALS
    assert len(QUADRIC_BASIS) == 10


def test_sigma_equivariance_of_strata(family):
    # transporting the stratum data by the rotation permutes the points by it
    for stratum in all_strata():
        res = classify_stratum(family.at_m(M1), stratum)
        image = Stratum(tuple(sorted((i + 1) % 4 for i in stratum.taken)))
        res_img = classify_stratum(family.at_m(M1), image)
        mapped = {SIGMA.point_image(p) for p in res.points}
        assert mapped == set(res_img.points)
        assert res.kind == res_img.kind


def test_aggregate_confirmed_at_m1(family):
    results = [classify_stratum(family.at_m(M1), s) for s in all_strata()]
    kind, points = aggregate(results)
    assert kind == REFERENCE
    assert points == REFERENCE_POINTS


def test_aggregate_indeterminate_when_m_symbolic(family):
    results = [classify_stratum(family.at_m(None), s) for s in all_strata()]
    kind, _ = aggregate(results)
    assert kind == INCONCLUSIVE


def test_aggregate_never_silently_confirmed(family):
    results = [classify_stratum(family.at_m(M1), s) for s in all_strata()]
    # degrade one stratum to inconclusive: the aggregate must follow
    from cgv.baselocus import StratumResult
    results[7] = StratumResult(results[7].stratum, INCONCLUSIVE, (), ())
    kind, _ = aggregate(results)
    assert kind == INCONCLUSIVE


def _synthetic_family(restriction):
    """A family whose quadrics 1..3 share the given T=0 restriction shape."""
    from cgv.geometry import CubicFamily
    unit = MPoly.constant(NFElem(-2, 3))
    q = unit * restriction
    quadrics = (q, q, q, q)
    cubics = tuple(MPoly.var(c) * q for c in ("T", "X", "Y", "Z"))
    return CubicFamily(cubics, quadrics, (0, 1, 2, 3))


def test_kernel_lift_reports_non_reference_points():
    # a singular system whose kernel contains an all-nonzero vector must
    # surface the lifted non-reference point instead of staying silent
    fake = _synthetic_family(parse_poly("X*Y + Y*Z + Z*X"))
    res = monomial_kernel_lift(fake, "T")
    assert res.kind == NON_REFERENCE
    assert res.points
    pt = res.points[0]
    assert all(not c.is_zero() for c in pt[:3]) and pt[3].is_zero()


def test_kernel_lift_reports_zero_column_line():
    fake = _synthetic_family(parse_poly("Y*Z"))
    res = monomial_kernel_lift(fake, "T")
    assert res.kind == NON_REFERENCE
    assert any("line" in s for s in res.identities)
