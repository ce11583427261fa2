import itertools
import json
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import cgv.suites as suites

import cgv.baselocus as baselocus
from cgv.baselocus import (EMPTY, INCONCLUSIVE, NON_REFERENCE, QUADRIC_BASIS, REFERENCE,
                           Stratum, aggregate,
                           ALL_STRATA, SLICES, classify_stratum,
                           single_hyperplane_det_analysis,
                           single_hyperplane_system, quadric_independence)
from cgv.cli import main
from cgv.geometry import (COFACTOR_COORDS, GENERIC_POINT, MIXED_MONOMIALS, build_cubics,
                          REFERENCE_POINTS, SIGMA, ConstructionError, CubicFamily,
                          InternalCheckError, eval_at_point, point_name)
from cgv.linalg import circulant_det_formula, matrix_det, matrix_rank, nf_kernel_basis
from cgv.mpoly import GEOM_VARS, MPoly
from cgv.nf import NFElem
from cgv.parsing import parse_poly

from conftest import count_calls, nf_to_float, over_display_unit, run_config

M1 = NFElem(1)

# the ROADMAP's exceptional values of m: the torus stratum has base points there
M_A = "5/7 + 18/7*r + 8/7*r^2"
M_B = "-9/7 - 10/7*r - 20/7*r^2"
M_C = "2/7 - 4/7*r + 6/7*r^2"


def nf_rows(mat):
    """The rows of a matrix with constant MPoly entries, as NFElem rows."""
    return [[e.as_nfelem() for e in row] for row in mat]


def test_sixteen_strata_in_display_order():
    strata = ALL_STRATA
    assert type(strata) is tuple and len(strata) == 16
    assert strata[0].taken == (0, 1, 2, 3)
    assert strata[-1].taken == ()
    sizes = [len(s.taken) for s in strata]
    assert sizes.count(4) == 1 and sizes.count(3) == 4
    assert sizes.count(2) == 6 and sizes.count(1) == 4 and sizes.count(0) == 1
    # the displayed decomposition starts T.X.Y.Z, then T.X.Y|Q3, T.X.Z|Q2, T.X|Q2.Q3
    labels = [s.label for s in strata[:4]]
    assert labels == ["T.X.Y.Z|-", "T.X.Y|Q3", "T.X.Z|Q2", "T.X|Q2.Q3"]


def test_stratum_fields_follow_from_taken():
    # cofactor order T, X, Y, Z names the hyperplanes; points are written in X, Y, Z, T positions
    every = [taken for n in range(5) for taken in itertools.combinations(range(4), n)]
    assert set(ALL_STRATA) == {Stratum(taken) for taken in every}
    for taken in every:
        stratum = Stratum(taken)
        quadrics = tuple(j for j in range(4) if j not in taken)
        names = tuple("TXYZ"[i] for i in taken)
        free = [v for v in "XYZT" if "TXYZ".index(v) not in taken]
        assert stratum.taken == taken and stratum.quadrics == quadrics
        assert stratum.hyperplane_names == names
        assert stratum.label == (".".join(names) or "-") + "|" + (".".join(f"Q{j}" for j in quadrics) or "-")
        assert stratum.reference_points == tuple(tuple(NFElem(int(v == w)) for w in "XYZT") for v in free)
        assert stratum.points_str == (", ".join("[" + ":".join("1" if v == w else "0" for w in "XYZT") + "]"
                                                for v in free) or "(none)")
    assert Stratum((0, 1)).label == "T.X|Q2.Q3"
    assert Stratum((0, 1)).points_str == "[0:1:0:0], [0:0:1:0]"
    assert Stratum((1, 2, 3)).points_str == "[0:0:0:1]"
    assert Stratum((0, 1, 2, 3)).label == "T.X.Y.Z|-" and Stratum((0, 1, 2, 3)).points_str == "(none)"
    assert Stratum(()).label == "-|Q0.Q1.Q2.Q3"


def _unit_points(stratum):
    """The points with 1 at one free coordinate of the stratum, ordered X, Y, Z, T."""
    positions = sorted(GEOM_VARS.index(COFACTOR_COORDS[j]) for j in stratum.quadrics)
    return tuple(tuple(NFElem(int(k == p)) for k in range(4)) for p in positions)


def test_stratum_reference_points(family):
    for stratum in ALL_STRATA:
        points = stratum.reference_points
        assert points == _unit_points(stratum)
        assert len(points) == 4 - len(stratum.taken)
        # each lies on the stratum, identically in m
        for pt in points:
            assert all(pt[GEOM_VARS.index(COFACTOR_COORDS[i])].is_zero() for i in stratum.taken)
            sub = dict(zip(GEOM_VARS, pt))
            assert all(family.quadrics[j].substitute(sub).is_zero() for j in stratum.quadrics)
    assert Stratum(()).reference_points == REFERENCE_POINTS


# m, and how many of the 16 strata are REFERENCE there: all but the empty
# one, less the two strata left inconclusive at m = 0 and the five that
# need m fixed while it is a symbol
@pytest.mark.parametrize("m, n_reference", [
    (NFElem(0), 13), (NFElem(1), 15), (NFElem(0, 1), 15),
    (None, 10), (NFElem(-1), 15), (parse_poly("7/3").as_nfelem(), 15),
], ids=["0", "1", "r", "symbolic", "-1", "7/3"])
def test_reference_results_report_the_stratum_reference_points(family, m, n_reference):
    # `_result` substitutes nothing into a REFERENCE result, so its points
    # must be the stratum's own reference points
    fixed = family if m is None else family.at_m(m)
    reference = [res for res in (classify_stratum(fixed, s) for s in ALL_STRATA)
                 if res.kind == REFERENCE]
    assert len(reference) == n_reference
    for res in reference:
        assert res.points == res.stratum.reference_points == _unit_points(res.stratum)


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
        res = classify_stratum(family, Stratum(taken))
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
        res = classify_stratum(family, stratum)
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
        res = classify_stratum(family, Stratum(taken))
        assert res.kind == REFERENCE
        assert any("m = 0" in n for n in res.notes)
        degenerate = classify_stratum(family.at_m(NFElem(0)), Stratum(taken))
        assert degenerate.kind == INCONCLUSIVE
        fine = classify_stratum(family.at_m(M1), Stratum(taken))
        assert fine.kind == REFERENCE


def test_double_stratum_TX_example(family):
    res = classify_stratum(family, Stratum((0, 1)))
    names = [point_name(p) for p in res.points]
    assert names == ["[0:1:0:0]", "[0:0:1:0]"]


def test_single_system_matches_printed_matrix(family):
    mat = over_display_unit(single_hyperplane_system(family.mixed_matrix, "T"))
    basis, row_quadrics, cycle, _ = SLICES["T"]
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
    base = single_hyperplane_system(family.mixed_matrix, "T")
    basis_t, _, cycle_t, _ = SLICES["T"]

    def name(f):
        return GEOM_VARS[f.geom_support()[0].index(1)]

    # transport h = T, its free cycle and its basis monomials by the rotation
    h_var = MPoly.var("T")
    cycle = [MPoly.var(v) for v in cycle_t]
    basis = [parse_poly("*".join(v for v, k in zip(GEOM_VARS, e) if k)) for e in basis_t]
    pullback = SIGMA.point_image(GENERIC_POINT)
    seen = []
    for _ in range(3):
        h_var = eval_at_point(h_var, pullback)
        cycle = [eval_at_point(f, pullback) for f in cycle]
        basis = [eval_at_point(f, pullback) for f in basis]
        h = name(h_var)
        mat = single_hyperplane_system(family.mixed_matrix, h)
        basis_h, _, cycle_h, _ = SLICES[h]
        assert mat == base
        assert cycle_h == tuple(name(f) for f in cycle)
        assert basis_h == tuple(f.geom_support()[0] for f in basis)
        seen.append(h)
    assert seen == ["Z", "Y", "X"]


def test_det_analysis_identically_zero(family):
    for h in ("T", "X", "Y", "Z"):
        mat = single_hyperplane_system(family.mixed_matrix, h)
        analysis = single_hyperplane_det_analysis(mat)
        assert analysis.det.is_zero()
        assert analysis.m_coefficient.is_zero()
        assert analysis.m_free_part.is_zero()


def test_det_numeric_crosscheck(family):
    # independent float cofactor expansion of the printed matrix at m in {1, 2}
    mat = single_hyperplane_system(family.mixed_matrix, "T")
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
    res = classify_stratum(family.at_m(M1), Stratum((0,)))
    assert res.kind == REFERENCE
    names = [point_name(p) for p in res.points]
    assert names == ["[1:0:0:0]", "[0:1:0:0]", "[0:0:1:0]"]
    # the kernel is one-dimensional with vanishing ZX component; frozen direction
    mat = single_hyperplane_system(family.at_m(M1).mixed_matrix, "T")
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
    for i in range(4):
        for mv in (M1, NFElem(0), NFElem(0, 1)):
            res = classify_stratum(family.at_m(mv), Stratum((i,)))
            assert res.kind == REFERENCE
            assert len(res.points) == 3


def test_kernel_lift_requires_m(family):
    for taken, analysis in (((0,), "kernel lift"), ((), "torus check")):
        res = classify_stratum(family, Stratum(taken))
        assert res.kind == INCONCLUSIVE and res.points == ()
        # one identity, then the remark
        assert res.notes[1:] == (f"m left symbolic; supply --m to run the {analysis}",)


def test_lift_identity_algebra():
    # (uw, uv, vw) has monomial vector (pq, qs, sp) = uvw * (u, v, w)
    rng = random.Random(59)
    for _ in range(40):
        u, v, w = (NFElem(rng.randint(1, 9), rng.randint(-3, 3)) for _ in range(3))
        p, q, s = u * w, u * v, v * w
        scale = u * v * w
        assert (p * q, q * s, s * p) == (scale * u, scale * v, scale * w)


def test_the_torus_stratum_checks_each_reported_point(family, monkeypatch):
    evals = count_calls(monkeypatch, "eval_at_point", baselocus)
    # at m = 1 the torus stratum reports the reference points: nothing to substitute
    res = classify_stratum(family.at_m(M1), Stratum(()))
    assert res.kind == REFERENCE and res.points == REFERENCE_POINTS
    assert evals == []
    # at M_A it reports a computed point, substituted into each of Q0..Q3
    fixed = family.at_m(parse_poly(M_A).as_nfelem())
    res = classify_stratum(fixed, Stratum(()))
    assert res.kind == NON_REFERENCE
    (pt,) = res.points
    assert point_name(pt) == "[-1:1:-1:1]"
    assert evals == [(q, pt) for q in fixed.quadrics]
    # a point that fails the check is an internal error, not a verdict
    monkeypatch.setattr(baselocus, "eval_at_point", lambda f, pt: NFElem(1))
    with pytest.raises(InternalCheckError, match=r"\[-1:1:-1:1\] fails exact substitution on -\|Q0"):
        classify_stratum(fixed, Stratum(()))


@pytest.mark.parametrize("m", ["0", "1", "r", M_A, M_B], ids=["0", "1", "r", "M_A", "M_B"])
def test_every_reported_point_is_checked(family, monkeypatch, m):
    # a computed point is substituted into each quadric of its stratum; a
    # reference point lies on every quadric because M exists, so a REFERENCE,
    # EMPTY or INCONCLUSIVE result substitutes nothing
    evals = count_calls(monkeypatch, "eval_at_point", baselocus)
    fixed = family.at_m(parse_poly(m).as_nfelem())
    kinds = []
    for stratum in ALL_STRATA:
        del evals[:]
        res = classify_stratum(fixed, stratum)
        kinds.append(res.kind)
        computed = res.points if res.kind == NON_REFERENCE else ()
        assert evals == [(fixed.quadrics[j], pt) for pt in computed for j in stratum.quadrics]
    # the exceptional values of m reach the substitution
    assert (NON_REFERENCE in kinds) == (m in (M_A, M_B))


def test_torus_stratum_empty(family):
    res = classify_stratum(family.at_m(M1), Stratum(()))
    assert res.kind == REFERENCE
    assert len(res.points) == 4
    mat = family.at_m(M1).mixed_matrix
    rank, _ = matrix_rank(mat)
    assert rank == 4
    assert len(nf_kernel_basis(nf_rows(mat))) == 2


@pytest.mark.parametrize("m_text", ["0", "1", "r", M_A, M_B, M_C, f"-({M_C})"])
def test_the_mixed_monomial_kernel_is_a_plane_for_every_m(family, m_text):
    # the columns XY, YZ, ZT, XT of M are free of m and their determinant is
    # the nonzero circulant determinant, so rank M = 4 whatever m is
    cols = [MIXED_MONOMIALS.index(tuple(int(v in pair) for v in GEOM_VARS))
            for pair in ("XY", "YZ", "ZT", "XT")]
    block = [[row[k] for k in cols] for row in family.mixed_matrix]
    assert not any(e.involves("m") for row in block for e in row)
    det = matrix_det(nf_rows(block))
    assert det == quadric_independence(family).det_cofactor == NFElem(-1929, 1445, 1471)
    fixed = family.at_m(parse_poly(m_text).as_nfelem())
    assert len(nf_kernel_basis(nf_rows(fixed.mixed_matrix))) == 2


def test_a_torus_kernel_that_is_not_a_plane_is_an_internal_error(family, monkeypatch):
    real = baselocus.nf_kernel_basis
    monkeypatch.setattr(baselocus, "nf_kernel_basis", lambda rows: real(rows)[:1])
    with pytest.raises(InternalCheckError, match="dimension 1, not 2"):
        classify_stratum(family.at_m(M1), Stratum(()))


def test_quadric_independence(family):
    ind = quadric_independence(family)
    # frozen oracle value of the circulant determinant
    assert ind.det_cofactor == NFElem(-1929, 1445, 1471)
    assert ind.det_cofactor == circulant_det_formula(*ind.entries)
    assert not ind.det_cofactor.is_zero()
    assert ind.rank == 4
    a, b, c, d = ind.entries
    assert a == NFElem(1, 1) * NFElem(-2, 3)
    assert abs(nf_to_float(ind.det_cofactor) - 0.0332957846) < 1e-8


def test_quadrics_supported_on_mixed_monomials(family):
    for q in family.quadrics:
        for exp in q.geom_support():
            assert exp in MIXED_MONOMIALS
    assert len(QUADRIC_BASIS) == 10


@pytest.mark.parametrize("m", [None, NFElem(0), NFElem(1), NFElem(0, 1)],
                         ids=["symbolic", "0", "1", "r"])
def test_stratum_restrictions_are_slices_of_the_mixed_matrix(family, m):
    # dual route: substitute the stratum's zeros into each remaining quadric
    fam = family.at_m(m)
    assert len(fam.mixed_matrix) == 4 and all(len(row) == 6 for row in fam.mixed_matrix)
    for stratum in ALL_STRATA:
        zero = {name: 0 for name in stratum.hyperplane_names}
        columns = [k for k, e in enumerate(MIXED_MONOMIALS) if not any(e[GEOM_VARS.index(h)] for h in zero)]
        assert len(columns) == {4: 0, 3: 0, 2: 1, 1: 3, 0: 6}[len(stratum.taken)]
        for j in stratum.quadrics:
            sliced = MPoly()
            for k in columns:
                sliced = sliced + fam.mixed_matrix[j][k] * MPoly({MIXED_MONOMIALS[k] + (0,): NFElem(1)})
            assert fam.quadrics[j].substitute(zero) == sliced


def _square_term_family(family):
    """The family with X^2 added to Q0, so that Q0 is off the mixed monomials."""
    quadrics = (family.quadrics[0] + MPoly.var("X") ** 2,) + family.quadrics[1:]
    cubics = tuple(MPoly.var(c) * q for c, q in zip(COFACTOR_COORDS, quadrics))
    return CubicFamily(cubics, quadrics, family.sigma_index_map)


def test_a_square_term_makes_every_stratum_raise(family):
    bad = _square_term_family(family)
    for m in (None, M1):
        for stratum in ALL_STRATA:
            with pytest.raises(ConstructionError, match="Q0 has a term off the mixed monomials"):
                classify_stratum(bad.at_m(m), stratum)


@pytest.mark.parametrize("m_args", [[], ["--m=1"]], ids=["symbolic", "1"])
def test_check_base_locus_reports_a_square_term_as_an_error(family, monkeypatch, capsys, m_args):
    monkeypatch.setattr(suites, "build_cubics", lambda: _square_term_family(family))
    rc = main(["check", "base-locus", "--format", "json", *m_args])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert int(doc["summary"]["errors"]) >= 1
    assert any("Q0 has a term off the mixed monomials" in check["computed"] for check in doc["checks"])
    for check in doc["checks"]:
        if check["check-id"].startswith("base-locus/stratum/"):
            assert check["computed"] != "empty" and check["agreement"] != "confirmed"


def test_a_raising_system_keeps_the_checks_already_made(family, monkeypatch, capsys):
    # each single-hyperplane system raises on its own, and the checks
    # before and after it are still reported
    monkeypatch.setattr(suites, "build_cubics", lambda: _square_term_family(family))
    rc = main(["check", "base-locus", "--format", "json", "--m=1"])
    doc = json.loads(capsys.readouterr().out)
    errors = [c["check-id"] for c in doc["checks"] if c["computed"].startswith("internal error: ")]
    assert rc == 1
    assert errors == ([f"base-locus/stratum/{s.label}" for s in ALL_STRATA]
                      + [f"base-locus/system/{h}" for h in "TXYZ"]
                      + ["base-locus/quadric-independence"])
    assert doc["summary"]["errors"] == "21"
    ids = [c["check-id"] for c in doc["checks"]]
    assert ids[-2:] == ["base-locus/aggregate", "base-locus/codimension-2-step"]
    assert "base-locus/suite" not in ids


def test_sigma_equivariance_of_strata(family):
    # transporting the stratum data by the rotation permutes the points by it
    for stratum in ALL_STRATA:
        res = classify_stratum(family.at_m(M1), stratum)
        image = Stratum(tuple(sorted((i + 1) % 4 for i in stratum.taken)))
        res_img = classify_stratum(family.at_m(M1), image)
        mapped = {SIGMA.point_image(p) for p in res.points}
        assert mapped == set(res_img.points)
        assert res.kind == res_img.kind


def test_aggregate_confirmed_at_m1(family):
    results = [classify_stratum(family.at_m(M1), s) for s in ALL_STRATA]
    kind, points = aggregate(results)
    assert kind == REFERENCE
    assert points == REFERENCE_POINTS


def test_aggregate_indeterminate_when_m_symbolic(family):
    results = [classify_stratum(family.at_m(None), s) for s in ALL_STRATA]
    kind, _ = aggregate(results)
    assert kind == INCONCLUSIVE


def test_aggregate_never_silently_confirmed(family):
    results = [classify_stratum(family.at_m(M1), s) for s in ALL_STRATA]
    # degrade one stratum to inconclusive: the aggregate must follow
    from cgv.baselocus import StratumResult
    results[7] = StratumResult(results[7].stratum, INCONCLUSIVE, (), ())
    kind, _ = aggregate(results)
    assert kind == INCONCLUSIVE


def _synthetic_family(restriction):
    """A family whose quadrics 1..3 share the given T=0 restriction shape."""
    unit = MPoly.constant(NFElem(-2, 3))
    q = unit * restriction
    quadrics = (q, q, q, q)
    cubics = tuple(MPoly.var(c) * q for c in ("T", "X", "Y", "Z"))
    return CubicFamily(cubics, quadrics, (0, 1, 2, 3))


def test_kernel_lift_reports_non_reference_points(monkeypatch):
    # a singular system whose kernel contains an all-nonzero vector must
    # surface the lifted non-reference point instead of staying silent
    fake = _synthetic_family(parse_poly("X*Y + Y*Z + Z*X"))
    evals = count_calls(monkeypatch, "eval_at_point", baselocus)
    res = classify_stratum(fake, Stratum((0,)))
    assert res.kind == NON_REFERENCE
    (pt,) = res.points
    assert all(not c.is_zero() for c in pt[:3]) and pt[3].is_zero()
    # the lifted point is substituted into each quadric of the stratum
    assert evals == [(fake.quadrics[j], pt) for j in (1, 2, 3)]


def test_kernel_lift_reports_zero_column_line(monkeypatch):
    fake = _synthetic_family(parse_poly("Y*Z"))
    evals = count_calls(monkeypatch, "eval_at_point", baselocus)
    res = classify_stratum(fake, Stratum((0,)))
    assert res.kind == NON_REFERENCE
    assert any("line" in s for s in res.notes)
    # the sample point on the line is substituted into each quadric of the stratum
    (sample,) = res.points
    assert sample == (NFElem(1), NFElem(1), NFElem(0), NFElem(0))
    assert evals == [(fake.quadrics[j], sample) for j in (1, 2, 3)]


def _nf_vector(*entries):
    return tuple(NFElem(e) for e in entries)


# kernels in (XY, XZ, XT, YZ, YT, ZT) coordinates that drive the torus analysis
# down the branches the real family never reaches
@pytest.mark.parametrize("kernel, kind, text", [
    ((_nf_vector(1, 0, 0, 0, 0, 0), _nf_vector(0, 1, 0, 0, 0, 0)), REFERENCE,
     "every kernel vector has a fixed zero entry"),
    ((_nf_vector(1, 0, 0, 0, 0, 1), _nf_vector(0, 1, 1, 1, 1, 0)), INCONCLUSIVE,
     "the consistency gcd is quadratic; its roots were not extracted over Q(r)"),
    ((_nf_vector(0, 0, 0, 0, 0, 1), _nf_vector(1, 0, 1, 0, 1, 0)), REFERENCE,
     "every common root of the consistency relations has a zero entry"),
], ids=["fixed-zero-entry", "quadratic-gcd", "roots-with-a-zero-entry"])
def test_torus_branches_on_a_substituted_kernel(family, monkeypatch, kernel, kind, text):
    monkeypatch.setattr(baselocus, "nf_kernel_basis", lambda rows: list(kernel))
    res = classify_stratum(family.at_m(M1), Stratum(()))
    assert res.kind == kind
    assert text in res.notes
    assert res.points == (REFERENCE_POINTS if kind == REFERENCE else ())


def _span_bases(k, n):
    """k vectors of length n over small elements of Q(r), small integers often,
    so that b0 + t*b1 meets 0 at small t."""
    small = st.integers(-3, 3)
    entries = st.one_of(st.integers(-6, 6).map(NFElem), st.builds(NFElem, small, small))
    return st.lists(st.tuples(*[entries] * n), min_size=k, max_size=k)


# one vector or two, on the slice (n = 3) or on M (n = 6): every call the base
# locus makes that passes the zero-column branch
@settings(max_examples=150, deadline=None)
@given(st.one_of(*(_span_bases(k, n) for k in (1, 2) for n in (3, 6))))
# c0*b0 + c1*b1 has a zero entry for each (c0, c1) in {0, 1, 2}^2; (1, 3) clears
@example([_nf_vector(1, 0, -1, -2, -1, 5), _nf_vector(0, 1, 1, 1, 2, 1)])
@example([_nf_vector(0, -1, -2), _nf_vector(1, 1, 1)])
@example([_nf_vector(2, -1, 3)])
def test_an_unconfined_kernel_has_an_all_nonzero_vector(basis):
    n = len(basis[0])
    rank = matrix_rank(basis)[0]
    # a basis, not confined to a coordinate hyperplane
    assume(rank == len(basis) and not any(all(b[p].is_zero() for b in basis) for p in range(n)))
    vec = baselocus._all_nonzero_kernel_vector(basis)
    assert vec is not None and len(vec) == n
    assert all(not x.is_zero() for x in vec)
    assert matrix_rank(list(basis) + [vec])[0] == rank


def test_a_nonsingular_single_hyperplane_system_leaves_the_reference_points(family, monkeypatch):
    monkeypatch.setattr(baselocus, "nf_kernel_basis", lambda rows: [])
    stratum = Stratum((0,))
    res = classify_stratum(family.at_m(M1), stratum)
    assert res.kind == REFERENCE
    assert res.notes[-1] == "the specialized system is nonsingular: kernel = 0"
    assert res.points == stratum.reference_points
    # the three identities of the kernel lift, and no remark after them
    assert len(res.notes) == 3


def test_one_run_substitutes_nothing_at_the_reference_points(monkeypatch, capsys):
    import cgv.geometry as geometry
    geometry.build_cubics()  # the construction checks run once per process, before counting
    evals = count_calls(monkeypatch, "eval_at_point", geometry, baselocus)
    kernels = count_calls(monkeypatch, "nf_kernel_basis", baselocus)
    dets = count_calls(monkeypatch, "single_hyperplane_det_analysis", suites)
    counts = []
    for _ in range(2):
        assert main(["check", "base-locus", "--m=1"]) == 0
        capsys.readouterr()
        at_reference = [(f, pt) for f, pt in evals if pt in REFERENCE_POINTS]
        counts.append((len(at_reference), len(kernels), len(dets)))
        del evals[:], kernels[:], dets[:]
    # every stratum at m = 1 reports reference points, which lie on every
    # quadric because M exists; the four single-hyperplane slices are equal,
    # so one slice kernel and the torus kernel, and one determinant expansion,
    # again in the second run, on its own family
    assert counts == [(0, 2, 1)] * 2


@pytest.mark.parametrize("m", [NFElem(1), NFElem(0, 1), NFElem(-1)], ids=["1", "r", "-1"])
def test_the_single_strata_share_one_slice_kernel(family, monkeypatch, m):
    # the four slices of the rotation-invariant family are equal, so the four
    # single strata eliminate, search and print their kernel once between them
    kernels = count_calls(monkeypatch, "nf_kernel_basis", baselocus)
    searches = count_calls(monkeypatch, "_all_nonzero_kernel_vector", baselocus)
    printed = count_calls(monkeypatch, "nf_str", baselocus)
    fixed = family.at_m(m)
    results = [classify_stratum(fixed, Stratum((i,))) for i in range(4)]
    assert len(kernels) == 1 and len(searches) <= 1
    kernel = nf_kernel_basis(*kernels[0])
    # the note prints each entry of the kernel basis once, and every stratum carries it
    assert kernel and len(printed) == 3 * len(kernel)
    note = f"kernel dimension {len(kernel)}; basis "
    assert all(sum(n.startswith(note) for n in res.notes) == 1 for res in results)


@pytest.mark.parametrize("m, conversions", [(NFElem(1), 24), (NFElem(0, 1), 24), (NFElem(-1), 24), (None, 0)],
                         ids=["1", "r", "-1", "symbolic"])
def test_the_strata_convert_m_to_q_r_once(monkeypatch, m, conversions):
    # the 24 entries of M go to Q(r) once per family, for the four slices and
    # the torus alike; while m is a symbol no entry is converted
    fixed = build_cubics().at_m(m)
    calls = count_calls(monkeypatch, "as_nfelem", MPoly)
    for stratum in ALL_STRATA:
        classify_stratum(fixed, stratum)
    assert len(calls) == conversions


def _mixed_term_family(family):
    """The family with X*Y added to Q1: M still exists, but the rotation no
    longer permutes the quadrics, and the four single-hyperplane slices differ."""
    quadrics = (family.quadrics[0], family.quadrics[1] + parse_poly("X*Y")) + family.quadrics[2:]
    cubics = tuple(MPoly.var(c) * q for c, q in zip(COFACTOR_COORDS, quadrics))
    return CubicFamily(cubics, quadrics, family.sigma_index_map)


def test_results_are_reused_by_value_not_by_position(family, monkeypatch):
    # the real family first, so that a cache keyed by h or by stratum holds its values
    real = [classify_stratum(family.at_m(M1), s) for s in ALL_STRATA]
    real_checks = suites.run_suite("base-locus", run_config(m_expr="1"))
    altered = _mixed_term_family(family)
    shared = altered.at_m(M1)
    slices = {h: single_hyperplane_system(shared.mixed_matrix, h) for h in COFACTOR_COORDS}
    assert len(set(slices.values())) == 3
    # each stratum of one family equals the same stratum of its own fresh family
    results = [classify_stratum(shared, stratum) for stratum in ALL_STRATA]
    assert results == [classify_stratum(altered.at_m(M1), s) for s in ALL_STRATA]
    assert results != real
    # and each slice's kernel is its own: T and Z are nonsingular here, X and Y are not
    for res in results:
        if len(res.stratum.taken) == 1:
            (h,) = res.stratum.hyperplane_names
            dim = len(nf_kernel_basis(nf_rows(slices[h])))
            assert dim == (0 if h in "TZ" else 1)
            assert (res.notes[2] == "the specialized system is nonsingular: kernel = 0") == (dim == 0)
            assert any(n.startswith(f"kernel dimension {dim};") for n in res.notes) == (dim > 0)
    # each determinant of one suite run is the expansion of its own matrix
    monkeypatch.setattr(suites, "build_cubics", lambda: _mixed_term_family(family))
    checks = {c.check_id: c.computed for c in suites.run_suite("base-locus", run_config(m_expr="1"))}
    dets = {h: matrix_det(over_display_unit(single_hyperplane_system(_mixed_term_family(family).mixed_matrix, h)))
            for h in COFACTOR_COORDS}
    assert len(set(dets.values())) > 1
    for h in ("X", "Y", "Z"):
        assert checks[f"base-locus/det/{h}/value"] == str(dets[h])
    assert checks["base-locus/det/T/m-free-part"] == str(dets["T"].substitute({"m": 0}).as_nfelem())
    assert {c.check_id: c.computed for c in real_checks}["base-locus/det/X/value"] == "0"
