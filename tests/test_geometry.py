import random

import pytest
from hypothesis import example, given, settings, strategies as st

import cgv.claims as claims
import cgv.geometry as geometry
from cgv.claims import QUADRIC_TEXTS
from cgv.geometry import (COFACTOR_COORDS, GENERIC_POINT, ConstructionError, CoordMap, CubicFamily,
                          LINE_R, LINE_R_PRIME, REFERENCE_POINTS, SIGMA, SIGMA2, _mixed_row,
                          build_cubics, eval_at_point, fixed_line_check, point_name)
from cgv.mpoly import GEOM_VARS, MPoly
from cgv.nf import NF_R, NFElem
from cgv.parsing import parse_poly

from conftest import frac_elem, nf_products


def pullback(f, g):
    """f composed with the coordinate map g."""
    return eval_at_point(f, g.point_image(GENERIC_POINT))


def test_sigma_definition():
    assert pullback(MPoly.var("X"), SIGMA) == MPoly.var("T")
    assert pullback(MPoly.var("Y"), SIGMA) == MPoly.var("X")


def test_sigma_order_four():
    assert SIGMA.order() == 4
    assert SIGMA2.order() == 2
    assert CoordMap((0, 1, 2, 3)).order() == 1


def test_sigma_fourth_power_is_identity_on_polynomials():
    rng = random.Random(53)
    for _ in range(20):
        terms = {tuple(rng.randint(0, 2) for _ in range(5)): NFElem(rng.randint(-4, 4))
                 for _ in range(4)}
        f = MPoly(terms)
        g = f
        for _ in range(4):
            g = pullback(g, SIGMA)
        assert g == f


def test_fixed_lines():
    ok, _ = fixed_line_check(SIGMA2, LINE_R)
    assert ok
    ok, _ = fixed_line_check(SIGMA2, LINE_R_PRIME)
    assert ok
    ok, failing = fixed_line_check(SIGMA, LINE_R)
    assert not ok and failing


def test_sigma_permutes_cubics(family):
    # frozen from the expansion oracle: C_i composed with the rotation is C_{i-1}
    assert family.sigma_index_map == (3, 0, 1, 2)
    for i, j in enumerate(family.sigma_index_map):
        assert pullback(family.cubics[i], SIGMA) == family.cubics[j]


def test_cubics_structure(family):
    for i, (c, q) in enumerate(zip(family.cubics, family.quadrics)):
        assert c.is_homogeneous(3)
        assert q.is_homogeneous(2)
        quotient, exact = c.div_by_var(COFACTOR_COORDS[i])
        assert exact and quotient == q
        # term counts frozen against the independent expansion oracle
        assert len(c.terms) == 6
        assert len(q.terms) == 6


def test_cubics_vanish_at_reference_points(family):
    for c in family.cubics:
        for pt in REFERENCE_POINTS:
            assert eval_at_point(c, pt).is_zero()


def test_quadrics_vanish_at_reference_points(family):
    for q in family.quadrics:
        for pt in REFERENCE_POINTS:
            assert eval_at_point(q, pt).is_zero()


def test_q2_restriction_example(family):
    restricted = family.quadrics[2].substitute({"T": 0, "X": 0})
    assert restricted == parse_poly("(3*r-2)*Y*Z")


def test_line_restrictions():
    f = parse_poly("Z^5")
    assert eval_at_point(f, LINE_R) == parse_poly("-X^5")
    assert eval_at_point(f, LINE_R_PRIME) == parse_poly("X^5")
    binary = eval_at_point(parse_poly("X*Y + Z*T + m*X^2"), LINE_R)
    assert not binary.involves("Z") and not binary.involves("T")


def test_restricting_to_r_multiplies_as_the_two_entry_substitution(monkeypatch, family):
    # LINE_R's entries X and Y are GENERIC_POINT's own objects, so they are
    # skipped and the restriction makes exactly the products of Z -> -X, T -> -Y
    x, y = MPoly.var("X"), MPoly.var("Y")
    f = x * MPoly.var("Z") * family.cubics[0]
    real = NFElem.__mul__

    def products(restrict):
        calls = []
        monkeypatch.setattr(NFElem, "__mul__", lambda a, b: calls.append(1) or real(a, b))
        restricted = restrict()
        monkeypatch.undo()
        return restricted, len(calls)

    restricted, n = products(lambda: eval_at_point(f, LINE_R))
    assert (restricted, n) == products(lambda: f.substitute({"Z": -x, "T": -y}))
    # an identity entry is a one-term image with coefficient 1: substituting
    # the identity entries as well costs no further product
    assert products(lambda: f.substitute(dict(zip("XYZT", LINE_R))))[1] == n


def at_reference_point(p, i):
    """p at e_i by the pure-power rule: the sum of c*m^k over the terms c*x_i^a*m^k of p."""
    return sum((MPoly({(0, 0, 0, 0, e[4]): c}) for e, c in p.terms.items()
                if not any(k for j, k in enumerate(e[:4]) if j != i)), MPoly())


def reference_point_polys(family):
    polys = family.cubics + family.quadrics
    return polys + tuple(p.partial(v) for p in polys for v in GEOM_VARS)


@pytest.mark.parametrize("m_value", [None, NFElem(0), NFElem(1), NF_R], ids=["symbolic", "0", "1", "r"])
def test_eval_at_reference_points_is_the_pure_power_sum(monkeypatch, family, m_value):
    # checked against an independent rule, then pinned at no Q(r) product or
    # power: zero images drop the other terms and the image 1 is not multiplied
    fam = family.at_m(m_value)
    polys = reference_point_polys(fam)
    for p in polys:
        for i, pt in enumerate(REFERENCE_POINTS):
            assert eval_at_point(p, pt) == at_reference_point(p, i)
    _, calls = nf_products(monkeypatch, lambda: [eval_at_point(p, pt) for p in polys
                                                  for pt in REFERENCE_POINTS])
    assert calls == []


def test_coordmap_composition_and_validation():
    assert SIGMA.compose(SIGMA) == SIGMA2
    assert SIGMA.compose(SIGMA).compose(SIGMA).compose(SIGMA) == CoordMap((0, 1, 2, 3))
    with pytest.raises(ValueError):
        CoordMap((0, 0, 2, 3))


def test_point_name():
    assert point_name(REFERENCE_POINTS[0]) == "[1:0:0:0]"


def test_identity_map_fixes_both_lines():
    ident = CoordMap((0, 1, 2, 3))
    for line in (LINE_R, LINE_R_PRIME):
        assert fixed_line_check(ident, line) == (True, [])


fractions = st.fractions(min_value=-30, max_value=30, max_denominator=12)
nf_elems = st.builds(frac_elem, fractions, fractions, fractions)


def test_at_m_none_is_the_family(family):
    assert family.at_m(None) is family


def test_at_m_substitutes_on_first_use(family, monkeypatch):
    substituted = []
    real = MPoly.substitute
    monkeypatch.setattr(MPoly, "substitute", lambda p, mapping: substituted.append(p) or real(p, mapping))
    fixed = family.at_m(NFElem(2))
    # M is the parent's M with m fixed entry by entry, so it substitutes no quadric
    fixed.mixed_matrix
    assert substituted == []
    fixed.quadrics, fixed.quadrics
    assert substituted == list(family.quadrics)
    fixed.cubics, fixed.mixed_matrix
    assert substituted == list(family.quadrics + family.cubics)


# the ledger's a, b, c and -c, where the torus stratum has base points
LEDGER_M = ("5/7+18/7*r+8/7*r^2", "-9/7-10/7*r-20/7*r^2", "2/7-4/7*r+6/7*r^2", "-2/7+4/7*r-6/7*r^2")


@settings(max_examples=60, deadline=None)
@given(nf_elems)
@example(NFElem(0))
@example(NFElem(1))
@example(NF_R)
@example(parse_poly(LEDGER_M[0]).as_nfelem())
@example(parse_poly(LEDGER_M[1]).as_nfelem())
@example(parse_poly(LEDGER_M[2]).as_nfelem())
@example(parse_poly(LEDGER_M[3]).as_nfelem())
def test_mixed_matrix_at_m_is_read_off_the_fixed_quadrics(family, value):
    fixed = family.at_m(value)
    assert fixed.mixed_matrix == tuple(_mixed_row(j, q) for j, q in enumerate(fixed.quadrics))


def test_a_square_term_raises_at_every_m(family):
    # m*X^2 added to Q0: the symbolic M raises, so M at every m raises too,
    # even at m = 0, where the fixed Q0 has lost the square term
    quadrics = (family.quadrics[0] + MPoly.var("m") * MPoly.var("X") ** 2,) + family.quadrics[1:]
    cubics = tuple(MPoly.var(c) * q for c, q in zip(COFACTOR_COORDS, quadrics))
    bad = CubicFamily(cubics, quadrics, family.sigma_index_map)
    assert _mixed_row(0, bad.at_m(NFElem(0)).quadrics[0]) == family.at_m(NFElem(0)).mixed_matrix[0]
    for m in (None, NFElem(0), NFElem(1)):
        with pytest.raises(ConstructionError, match="Q0 has a term off the mixed monomials"):
            bad.at_m(m).mixed_matrix


def test_cached_builds_once_per_family_and_key():
    family = build_cubics()
    fixed = family.at_m(NFElem(2))
    built = []

    def build(f):
        built.append(f)
        return len(built)

    assert family.cached("k", build) == family.cached("k", build) == 1
    assert family.cached("other", build) == 2
    # a fresh family and a family with m fixed each build their own value
    fresh = build_cubics()
    assert fresh.cached("k", build) == 3
    assert fixed.cached("k", build) == fixed.cached("k", build) == 4
    assert [f is g for f, g in zip(built, (family, family, fresh, fixed))] == [True] * 4

    # derive on a family with m fixed builds on the parent only
    derived = []

    def build_polys(f):
        derived.append(f)
        return (f.quadrics[0],)

    assert fixed.derive("q0", build_polys) == fixed.derive("q0", build_polys) == (fixed.quadrics[0],)
    assert family.derive("q0", build_polys) == (family.quadrics[0],)
    assert len(derived) == 1 and derived[0] is family


@settings(max_examples=60, deadline=None)
@given(nf_elems)
def test_at_m_specializes_quadrics_and_cubics(family, value):
    fixed = family.at_m(value)
    assert fixed.quadrics == tuple(q.substitute({"m": value}) for q in family.quadrics)
    assert fixed.cubics == tuple(c.substitute({"m": value}) for c in family.cubics)
    assert fixed.sigma_index_map == family.sigma_index_map
    # second route: write the value into the printed quadric texts and parse
    printed = tuple(parse_poly(t.replace("m", f"({value})")) for t in QUADRIC_TEXTS)
    assert fixed.quadrics == printed


@pytest.mark.parametrize("extra, message", [
    ("+X", "Q0 has a term off the mixed monomials"),
    ("+T^2", "Q0 has a term off the mixed monomials"),
    ("+X*Y", "composed with the rotation is not in the family"),
])
def test_construction_checks_reject_an_altered_quadric(monkeypatch, extra, message):
    altered = (QUADRIC_TEXTS[0] + extra,) + QUADRIC_TEXTS[1:]
    monkeypatch.setattr(claims, "QUADRIC_TEXTS", altered)
    # the uncached construction, which the cached family is built by
    with pytest.raises(ConstructionError, match=message):
        geometry._verified_family.__wrapped__()
