import itertools
import random
from math import lcm

import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st

import cgv.tangent as tangent
from cgv import geometry
from cgv.claims import CLAIMED_TANGENT_ROWS
from cgv.geometry import REFERENCE_POINTS, CubicFamily, _mixed_row, build_cubics, eval_at_point
from cgv.linalg import matrix_det, matrix_rank, nf_rref
from cgv.mpoly import GEOM_VARS, MPoly
from cgv.nf import NFElem, nf_invert
from cgv.parsing import parse_poly
from cgv.tangent import (CHART_VARS, sample_points, _packed_horner,
                         chart_gradient, display_agreement, lambda_replay,
                         pairwise_independence, rank_survey, tangent_determinant)

from conftest import mpoly_products, random_nfelem, red, to_sympy

M1 = NFElem(1)


def gradient_at(family, i, point):
    """Exact gradient row of C_i at a chart point (x, y, z)."""
    sub = {v: MPoly.coerce(c) for v, c in zip(CHART_VARS, point)}
    return tuple(g.substitute(sub) for g in chart_gradient(family, i))


def chart_rows(family):
    return tuple(chart_gradient(family, i) for i in range(3))


def projective_gradient(family, i, pt):
    """The 4-component gradient of C_i at a point of P^3, as the tangent suite
    evaluates it at [0:0:0:1]."""
    return tuple(eval_at_point(family.cubics[i].partial(v), pt) for v in GEOM_VARS)


def scalar(text):
    return parse_poly(text).as_nfelem()


def test_display_agreement_flags(family):
    # frozen from the independent differentiation oracle
    expected = {0: (True, True, True), 1: (False, True, True), 2: (True, False, True)}
    rows = chart_rows(family)
    for i, flags in expected.items():
        diffs = display_agreement(rows[i], tuple(parse_poly(t) for t in CLAIMED_TANGENT_ROWS[i]))
        assert tuple(d.is_zero() for d in diffs) == flags


def test_euler_relation(family):
    # homogeneous degree 3: X dC/dX + Y dC/dY + Z dC/dZ + T dC/dT = 3 C
    for c in family.cubics:
        acc = MPoly()
        for v in ("X", "Y", "Z", "T"):
            acc = acc + MPoly.var(v) * c.partial(v)
        assert acc == 3 * c


def test_euler_relation_at_random_points(family):
    rng = random.Random(61)
    for _ in range(20):
        pt = tuple(random_nfelem(rng, span=6, den=3) for _ in range(4))
        for i in (0, 1):
            grad = projective_gradient(family, i, pt)
            acc = MPoly()
            for g, coord in zip(grad, pt):
                acc = acc + g * MPoly.constant(coord)
            value = eval_at_point(family.cubics[i], pt)
            assert acc == 3 * value


def test_gradients_vanish_at_reference_point(family):
    pt = REFERENCE_POINTS[3]
    assert pt == (NFElem(0), NFElem(0), NFElem(0), NFElem(1))
    for i in (1, 2, 3):
        assert all(c.is_zero() for c in projective_gradient(family, i, pt))
    # C0 is smooth there: gradient (3r-2) * (1, m, r^2, 0)
    g0 = projective_gradient(family, 0, pt)
    unit = MPoly.constant(NFElem(-2, 3))
    assert g0[0] == unit
    assert g0[1] == unit * MPoly.var("m")
    assert g0[2] == MPoly.constant(NFElem(3, 0, -5))  # (3r-2) r^2 reduced
    assert g0[3].is_zero()


def test_lambda_replay(family):
    replay = lambda_replay(chart_rows(family))
    assert replay.obstruction == NFElem(-4, 4, 3)       # 3r^2 + 4r - 4
    assert replay.steps[0].endswith("so a = r^2")       # 1/(r+1) = r^2
    assert replay.obstruction * replay.obstruction_inverse == NFElem(1)
    assert nf_invert(replay.obstruction) == replay.obstruction_inverse


def test_pairwise_independence(family):
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert pairwise_independence(chart_rows(family), i, j)
        assert pairwise_independence(chart_rows(family), j, i)


def test_pairwise_self_dependent(family):
    assert not pairwise_independence(chart_rows(family), 1, 1)


def test_pairwise_independence_forms_one_minor_per_pair(family, monkeypatch):
    # the elimination stops at full rank: the first 2x2 minor is nonzero, so
    # its two products are the only ones
    rows = chart_rows(family)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        independent, products = mpoly_products(monkeypatch, lambda: pairwise_independence(rows, i, j))
        assert independent
        assert products == [(rows[i][0], rows[j][1]), (rows[j][0], rows[i][1])]


def test_rank_at_handpicked_point(family):
    rows = [gradient_at(family.at_m(M1), i, (1, 2, 3)) for i in range(3)]
    nf_rows = [[e.as_nfelem() for e in row] for row in rows]
    rank, _ = matrix_rank(nf_rows)
    assert rank == 3


def test_rank_monotonicity(family):
    # the rank of the 3 stacked rows never drops below the rank of a sub-pair
    points = sample_points(99)
    for _ in range(5):
        pt = next(points)
        rows = [[e.as_nfelem() for e in gradient_at(family.at_m(M1), i, pt)] for i in range(3)]
        r3, _ = matrix_rank(rows)
        assert r3 <= 3
        for a in range(3):
            for b in range(a + 1, 3):
                r2, _ = matrix_rank([rows[a], rows[b]])
                assert r3 >= r2


def test_sample_stream_frozen_draws():
    points = sample_points(1)
    pts = [next(points) for _ in range(5)]
    assert pts == [(13, -9, 3), (-19, -1, 6), (9, 11, 12), (8, 12, 20), (13, 6, -15)]
    for p in pts:
        assert all(c != 0 and -20 <= c <= 20 for c in p)


def test_survey_deterministic_and_generic(family):
    s1 = rank_survey(family.at_m(M1), 5, 1)
    s2 = rank_survey(family.at_m(M1), 5, 1)
    assert s1 == s2
    assert s1.histogram == ((3, 5),)
    assert s1.skipped == 0
    s3 = rank_survey(family.at_m(M1), 5, 2)
    assert s3.histogram == ((3, 5),)


def test_survey_falls_back_to_elimination_on_a_rank_deficient_family(family):
    # with C1 = C0 the stacked rows have rank <= 2 everywhere: every point
    # takes the elimination branch, and the histogram must be that of the
    # pivots of the reduced row echelon form
    c0, _, c2, c3 = family.cubics
    twin = CubicFamily((c0, c0, c2, c3), family.quadrics, family.sigma_index_map).at_m(M1)
    n, seed = 30, 5
    survey = rank_survey(twin, n, seed)
    points = sample_points(seed)
    hist, skipped = {}, 0
    for _ in range(n):
        pt = next(points)
        rows = [[e.as_nfelem() for e in gradient_at(twin, i, pt)] for i in range(3)]
        if any(all(c.is_zero() for c in row) for row in rows):
            skipped += 1
            continue
        rank = len(nf_rref(rows)[1])
        hist[rank] = hist.get(rank, 0) + 1
    assert survey.histogram == tuple(sorted(hist.items()))
    assert survey.skipped == skipped
    assert survey.histogram and all(rank <= 2 for rank, _ in survey.histogram)


@pytest.mark.parametrize("m_text", ["0", "1", "r"])
def test_nonzero_determinant_iff_rank_three(family, m_text):
    fixed = family.at_m(scalar(m_text))
    points = sample_points(7)
    for _ in range(200):
        pt = next(points)
        rows = [[e.as_nfelem() for e in gradient_at(fixed, i, pt)] for i in range(3)]
        det = matrix_det(rows)
        rank = len(nf_rref(rows)[1])
        assert (not det.is_zero()) == (rank == 3)
        assert matrix_rank(rows)[0] == rank


@pytest.mark.parametrize("m_text", ["0", "1", "r", "2/3*r^2-5", "7/3"])
def test_chart_determinant_matches_sympy(family, m_text):
    # dual route for D, the determinant the survey evaluates at each point
    rows = chart_rows(family.at_m(scalar(m_text)))
    det = matrix_det(rows)
    oracle = sp.Matrix([[to_sympy(g) for g in row] for row in rows]).det()
    assert red(oracle - to_sympy(det)) == 0
    assert not det.is_zero()


def balanced_digits(packed, k):
    """The three balanced base-2^k digits (s0, s1, s2) of s0 + s1*2^k + s2*2^(2k),
    each in [-2^(k-1), 2^(k-1))."""
    digits = []
    for _ in range(3):
        d = (packed + (1 << (k - 1))) % (1 << k) - (1 << (k - 1))
        digits.append(d)
        packed = (packed - d) >> k
    assert packed == 0
    return digits


@pytest.mark.parametrize("m_text", ["2/3*r^2-5", "7/3"])
def test_packed_horner_is_the_determinant_over_one_denominator(family, m_text):
    # at these m the coefficients of D have denominators 1, 3 and 9, so a
    # coefficient left off the common denominator changes the digits; the
    # bound is tightest at the corners (+-40, +-40, +-40)
    det = matrix_det(chart_rows(family.at_m(scalar(m_text))))
    den = lcm(*(c.integers()[3] for c in det.terms.values()))
    assert den > 1
    k, packed = _packed_horner(det, 40)

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(*[st.integers(min_value=-40, max_value=40)] * 3))
    @example((0, 0, 0))
    @example((0, 7, 0))
    @example((-40, 1, 40))
    def check(point):
        x, y, z = point
        value = det.substitute({"X": x, "Y": y, "Z": z}).as_nfelem()
        digits = balanced_digits(packed(x, y, z), k)
        assert NFElem(*digits) == den * value
        assert (packed(x, y, z) == 0) == value.is_zero()

    for corner in itertools.product((-40, 40), repeat=3):
        check = example(corner)(check)
    check()


chart_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3).map(lambda e: (*e, 0, 0)),
    st.builds(NFElem, *[st.integers(-50, 50)] * 3, st.integers(1, 6)), max_size=6).map(MPoly)


@settings(max_examples=80, deadline=None)
@given(chart_polys, st.integers(1, 6), st.data())
# one term at the corner (bound, ...) reaches the bound: 4 at 1, 6^3 at 6
@example(MPoly({(1, 0, 0, 0, 0): 4}), 1, None)
@example(MPoly({(1, 1, 1, 0, 0): NFElem(0, 0, 1)}), 6, None)
def test_packed_digits_hold_up_to_the_bound(p, bound, data):
    # the digits stay apart at every point within the bound, the extreme
    # corner (bound, bound, bound) included
    den = lcm(*(c.integers()[3] for c in p.terms.values()))
    k, packed = _packed_horner(p, bound)
    points = [(bound,) * 3, (-bound,) * 3]
    if data is not None:
        points.append(data.draw(st.tuples(*[st.integers(-bound, bound)] * 3)))
    for x, y, z in points:
        value = p.substitute({"X": x, "Y": y, "Z": z}).as_nfelem()
        assert NFElem(*balanced_digits(packed(x, y, z), k)) == den * value


def test_packed_horner_refuses_t_m_and_a_bound_below_one():
    for text in ("X*T", "m*Y", "m"):
        with pytest.raises(ValueError):
            _packed_horner(parse_poly(text), 20)
    with pytest.raises(ValueError):
        _packed_horner(parse_poly("X"), 0)


def test_survey_at_fixed_m_needs_no_elimination(monkeypatch):
    # D(p) is nonzero at every sampled point: no point takes the row
    # substitution or matrix_rank.  From a cleared store the first survey
    # builds the symbolic rows (T := 1 in each of the 9 partials) and D; after
    # that a survey, in any run, makes one substitution: m := 1 in D
    geometry._verified_family.cache_clear()
    runs = [build_cubics().at_m(M1) for _ in range(2)]
    ranks, substitutions = [], []
    real_substitute = MPoly.substitute

    def substitute(self, mapping):
        substitutions.append(mapping)
        return real_substitute(self, mapping)

    monkeypatch.setattr(tangent, "matrix_rank", lambda rows: ranks.append(rows))
    monkeypatch.setattr(MPoly, "substitute", substitute)
    for fixed, expected in zip(runs, ([{"T": 1}] * 9 + [{"m": M1}], [{"m": M1}])):
        substitutions.clear()
        survey = rank_survey(fixed, 100, 1)
        assert survey.histogram == ((3, 100),)
        assert substitutions == expected
    assert ranks == []


def test_survey_rejects_symbolic_m(family):
    with pytest.raises(ValueError):
        rank_survey(family, 3, 1)


def test_survey_rejects_empty(family):
    with pytest.raises(ValueError):
        rank_survey(family.at_m(M1), 0, 1)


def test_sampled_points_cannot_be_reference_points():
    # reference points have zero coordinates; samples never do
    points = sample_points(12345)
    for _ in range(50):
        pt = next(points)
        chart_pt = (pt[0], pt[1], pt[2], 1)
        assert all(c != 0 for c in chart_pt)
        assert tuple(map(NFElem, chart_pt)) not in REFERENCE_POINTS


SPECIAL_M = ("0", "1", "r", "-r", "2/3*r^2-5")


def substituted_first_row(family, i, value):
    """The chart row of C_i with m := value put into the cubic first, then
    differentiated and restricted to T = 1."""
    c = family.cubics[i].substitute({"m": value})
    return tuple(c.partial(v).substitute({"T": 1}) for v in CHART_VARS)


def test_chart_gradient_specializes_m(family):
    # dual route: fix m in the cubic, then differentiate, against the
    # fixed family's row, which specialises the symbolic row
    for m_text in SPECIAL_M:
        value = scalar(m_text)
        for i in range(4):
            sym = chart_gradient(family, i)
            fixed = chart_gradient(family.at_m(value), i)
            assert any(g.involves("m") for g in sym)
            assert not any(g.involves("m") for g in fixed)
            assert fixed == substituted_first_row(family, i, value)


@settings(max_examples=40, deadline=None)
@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 9), st.integers(0, 3))
def test_chart_gradient_specializes_any_m(family, n0, n1, n2, d, i):
    value = NFElem(n0, n1, n2, d)
    assert chart_gradient(family.at_m(value), i) == substituted_first_row(family, i, value)


# the ledger's a, b, c and -c, where the torus stratum has base points
LEDGER_M = ("5/7+18/7*r+8/7*r^2", "-9/7-10/7*r-20/7*r^2", "2/7-4/7*r+6/7*r^2", "-2/7+4/7*r-6/7*r^2")


@settings(max_examples=30, deadline=None)
@given(st.builds(NFElem, st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 9)))
@example(NFElem(0))
@example(NFElem(1))
@example(NFElem(0, 1))
@example(scalar(LEDGER_M[0]))
@example(scalar(LEDGER_M[1]))
@example(scalar(LEDGER_M[2]))
@example(scalar(LEDGER_M[3]))
def test_the_stored_d_with_m_fixed_is_the_determinant_at_m(family, value):
    # dual route: D with m := v against the determinant of the rows of the
    # cubics with m fixed first, then differentiated
    rows = [substituted_first_row(family, i, value) for i in range(3)]
    assert tangent_determinant(family.at_m(value)) == matrix_det(rows)


def test_a_mutant_family_reads_its_own_m_rows_and_d():
    # Q0 gains m*X*Y, so row 0 of M, the row of C0 = T*Q0 and D all change.
    # The printed family's store is filled first: a mutant that read it
    # would get the printed family's values
    verified = build_cubics()
    printed = (verified.mixed_matrix, chart_rows(verified), tangent_determinant(verified))
    quadrics = (verified.quadrics[0] + parse_poly("m*X*Y"),) + verified.quadrics[1:]
    cubics = (MPoly.var("T") * quadrics[0],) + verified.cubics[1:]
    mutant = CubicFamily(cubics, quadrics, verified.sigma_index_map)
    rows = tuple(tuple(c.partial(v).substitute({"T": 1}) for v in CHART_VARS) for c in cubics[:3])
    own = (tuple(_mixed_row(j, q) for j, q in enumerate(quadrics)), rows, matrix_det(rows))
    assert (mutant.mixed_matrix, chart_rows(mutant), tangent_determinant(mutant)) == own
    assert all(a != b for a, b in zip(own, printed))
    # with m fixed each family specialises its own D, and a new run of the
    # printed family still reads the printed values
    fixed = mutant.at_m(M1)
    assert tangent_determinant(fixed) == matrix_det(chart_rows(fixed)) != tangent_determinant(verified.at_m(M1))
    fresh = build_cubics()
    assert (fresh.mixed_matrix, chart_rows(fresh), tangent_determinant(fresh)) == printed


def test_a_fixed_family_builds_each_symbolic_row_once(monkeypatch):
    # from a cleared store the symbolic rows are differentiated once per
    # process; every family with m fixed, in any run, only substitutes m into
    # them, and at_m itself substitutes nothing
    geometry._verified_family.cache_clear()
    runs = [build_cubics() for _ in range(2)]
    partials, substitutions = [], []
    real_partial, real_substitute = MPoly.partial, MPoly.substitute
    monkeypatch.setattr(MPoly, "partial", lambda p, v: partials.append(v) or real_partial(p, v))
    monkeypatch.setattr(MPoly, "substitute",
                        lambda p, mapping: substitutions.append(dict(mapping)) or real_substitute(p, mapping))
    fixed = [fam.at_m(scalar(m_text)) for fam in runs for m_text in SPECIAL_M]
    assert substitutions == []
    for f in fixed:
        chart_rows(f)
        chart_rows(f)
    assert len(partials) == 9
    assert sum("T" in s for s in substitutions) == 9
    assert [s for s in substitutions if "m" in s] == [
        {"m": scalar(t)} for _ in runs for t in SPECIAL_M for _ in range(9)]
