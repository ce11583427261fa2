import random
from math import lcm

import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st

import cgv.tangent as tangent
from cgv.geometry import REFERENCE_POINTS, CubicFamily, eval_at_point
from cgv.linalg import matrix_det, matrix_rank, nf_rref
from cgv.mpoly import MPoly
from cgv.nf import NFElem, nf_invert
from cgv.parsing import parse_scalar
from cgv.tangent import (CHART_VARS, SampleStream, _integer_terms, _integer_value,
                         chart_gradient, display_agreement, lambda_replay,
                         pairwise_independence, projective_gradient, rank_survey,
                         reference_point_rows)

from conftest import random_nfelem, red, to_sympy

M1 = NFElem(1)


def gradient_at(family, i, point):
    """Exact gradient row of C_i at a chart point (x, y, z)."""
    sub = {v: MPoly.coerce(c) for v, c in zip(CHART_VARS, point)}
    return tuple(g.substitute(sub) for g in chart_gradient(family, i))


def chart_rows(family):
    return tuple(chart_gradient(family, i) for i in range(3))


def test_display_agreement_flags(family):
    # frozen from the independent differentiation oracle
    expected = {0: (True, True, True), 1: (False, True, True), 2: (True, False, True)}
    for i, flags in expected.items():
        got, diffs = display_agreement(chart_rows(family), i)
        assert got == flags
        for f, d in zip(got, diffs):
            assert f == d.is_zero()


def test_euler_relation(family):
    # homogeneous degree 3: X dC/dX + Y dC/dY + Z dC/dZ + T dC/dT = 3 C
    for c in family.cubics:
        acc = MPoly.zero()
        for v in ("X", "Y", "Z", "T"):
            acc = acc + MPoly.var(v) * c.partial(v)
        assert acc == 3 * c


def test_euler_relation_at_random_points(family):
    rng = random.Random(61)
    for _ in range(20):
        pt = tuple(random_nfelem(rng, span=6, den=3) for _ in range(4))
        for i in (0, 1):
            grad = projective_gradient(family, i, pt)
            acc = MPoly.zero()
            for g, coord in zip(grad, pt):
                acc = acc + g * MPoly.constant(coord)
            value = eval_at_point(family.cubics[i], pt)
            assert acc == 3 * value


def test_gradients_vanish_at_reference_point(family):
    rows = reference_point_rows(family)
    for row in rows:
        assert all(c.is_zero() for c in row)
    # C0 is smooth there: gradient (3r-2) * (1, m, r^2, 0)
    pt = (NFElem(0), NFElem(0), NFElem(0), NFElem(1))
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


def test_rank_at_handpicked_point(family):
    rows = [gradient_at(family.at_m(M1), i, (1, 2, 3)) for i in range(3)]
    nf_rows = [[e.as_nfelem() for e in row] for row in rows]
    rank, _ = matrix_rank(nf_rows)
    assert rank == 3


def test_rank_monotonicity(family):
    # the rank of the 3 stacked rows never drops below the rank of a sub-pair
    stream = SampleStream(99)
    for _ in range(5):
        pt = stream.next_point()
        rows = [[e.as_nfelem() for e in gradient_at(family.at_m(M1), i, pt)] for i in range(3)]
        r3, _ = matrix_rank(rows)
        assert r3 <= 3
        for a in range(3):
            for b in range(a + 1, 3):
                r2, _ = matrix_rank([rows[a], rows[b]])
                assert r3 >= r2


def test_sample_stream_frozen_draws():
    stream = SampleStream(1)
    pts = [stream.next_point() for _ in range(5)]
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
    stream = SampleStream(seed)
    hist, skipped = {}, 0
    for _ in range(n):
        pt = stream.next_point()
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
    fixed = family.at_m(parse_scalar(m_text))
    stream = SampleStream(7)
    for _ in range(200):
        pt = stream.next_point()
        rows = [[e.as_nfelem() for e in gradient_at(fixed, i, pt)] for i in range(3)]
        det = matrix_det(rows)
        rank = len(nf_rref(rows)[1])
        assert (not det.is_zero()) == (rank == 3)
        assert matrix_rank(rows)[0] == rank


@pytest.mark.parametrize("m_text", ["0", "1", "r", "2/3*r^2-5", "7/3"])
def test_chart_determinant_matches_sympy(family, m_text):
    # dual route for D, the determinant the survey evaluates at each point
    rows = chart_rows(family.at_m(parse_scalar(m_text)))
    det = matrix_det(rows)
    oracle = sp.Matrix([[to_sympy(g) for g in row] for row in rows]).det()
    assert red(oracle - to_sympy(det)) == 0
    assert not det.is_zero()


@pytest.mark.parametrize("m_text", ["2/3*r^2-5", "7/3"])
def test_integer_value_is_the_determinant_over_one_denominator(family, m_text):
    # at these m the coefficients of D have denominators 1, 3 and 9, so a
    # coefficient left off the common denominator changes the sums
    det = matrix_det(chart_rows(family.at_m(parse_scalar(m_text))))
    den = lcm(*(q.denominator for c in det.terms.values() for q in c.coords()))
    assert den > 1
    terms = _integer_terms(det)

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(*[st.integers(min_value=-40, max_value=40)] * 3))
    @example((0, 0, 0))
    @example((0, 7, 0))
    @example((-40, 1, 40))
    def check(point):
        x, y, z = point
        value = det.substitute({"X": x, "Y": y, "Z": z}).as_nfelem()
        sums = _integer_value(terms, x, y, z)
        assert any(sums) == (not value.is_zero())
        assert NFElem(*sums) == den * value

    check()


def test_survey_at_fixed_m_needs_no_elimination(family, monkeypatch):
    # D(p) is nonzero at every sampled point: no point takes the row
    # substitution or matrix_rank, only chart_gradient's 9 substitutions of T = 1
    fixed = family.at_m(M1)
    ranks, substitutions = [], []
    real_substitute = MPoly.substitute

    def substitute(self, mapping):
        substitutions.append(mapping)
        return real_substitute(self, mapping)

    monkeypatch.setattr(tangent, "matrix_rank", lambda rows: ranks.append(rows))
    monkeypatch.setattr(MPoly, "substitute", substitute)
    survey = rank_survey(fixed, 100, 1)
    assert survey.histogram == ((3, 100),)
    assert ranks == []
    assert len(substitutions) == 9


def test_survey_rejects_symbolic_m(family):
    with pytest.raises(ValueError):
        rank_survey(family, 3, 1)


def test_survey_rejects_empty(family):
    with pytest.raises(ValueError):
        rank_survey(family.at_m(M1), 0, 1)


def test_sampled_points_cannot_be_reference_points():
    # reference points have zero coordinates; samples never do
    stream = SampleStream(12345)
    for _ in range(50):
        pt = stream.next_point()
        chart_pt = (pt[0], pt[1], pt[2], 1)
        assert all(c != 0 for c in chart_pt)
        assert tuple(map(NFElem, chart_pt)) not in REFERENCE_POINTS


def test_chart_gradient_specializes_m(family):
    # dual route: fix m in the family, then differentiate, against
    # differentiating the symbolic family, then fixing m in each entry
    for m_text in ("0", "1", "r", "-r", "2/3*r^2-5"):
        value = parse_scalar(m_text)
        for i in range(4):
            sym = chart_gradient(family, i)
            fixed = chart_gradient(family.at_m(value), i)
            assert any(g.involves("m") for g in sym)
            assert not any(g.involves("m") for g in fixed)
            assert fixed == tuple(g.substitute({"m": value}) for g in sym)
