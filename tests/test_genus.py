import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cgv.genus as genus_mod
from cgv import geometry
from cgv.genus import (RamificationError, _binary_form,
                       ci_genus, cubic_one_root_probe, distinct_points,
                       multiplicity_pattern, pencil_factorization, pencil_member,
                       pencil_on_line,
                       quintuple_family_coeffs, quintuple_root_condition,
                       quotient_feasibility, rh_relation,
                       three_two_family_coeffs, z4_witness_search)
from cgv.geometry import LINE_R, LINE_R_PRIME, build_cubics, eval_at_point, point_name
from cgv.reportlib import REFUTED
from cgv.suites import run_suite
from cgv.mpoly import MPoly
from cgv.nf import NFElem
from cgv.parsing import parse_poly
from cgv.upoly import UPoly

from conftest import mpoly_products, random_nfelem_nonzero, run_config, scale_form, swap_xy

M1 = NFElem(1)


def binary(text):
    """The coefficients of the binary form `text`, of the degree of its first term."""
    f = parse_poly(text)
    return _binary_form(f, sum(next(iter(f.terms))[:4]))


def on_line_r(text):
    """The coefficients of a quintic restricted to the fixed line r = {X + Z = Y + T = 0}."""
    return _binary_form(eval_at_point(parse_poly(text), LINE_R), 5)


def pencil_at(family, m):
    return pencil_on_line(family.at_m(m))


# -- numeric accounting -----------------------------------------------------------


def test_ci_genus_values():
    assert ci_genus(5, 5) == 76
    assert ci_genus(1, 1) == 0
    assert ci_genus(2, 2) == 1


def test_ci_genus_symmetric_and_guards():
    rng = random.Random(73)
    for _ in range(30):
        d1, d2 = rng.randint(1, 9), rng.randint(1, 9)
        assert ci_genus(d1, d2) == ci_genus(d2, d1)
    with pytest.raises(ValueError):
        ci_genus(0, 3)


def test_rh_relation_values():
    assert rh_relation(3, 1) == 4
    assert rh_relation(0, 0) == 2
    assert rh_relation(1, 1) == 0  # unramified double cover of elliptic by elliptic


def test_genus_and_ramification_degree_are_integral_and_even():
    # why ci_genus and rh_relation carry no parity check
    for d1 in range(1, 12):
        for d2 in range(1, 12):
            assert ci_genus(d1, d2) == Fraction(d1 * d2 * (d1 + d2 - 4), 2) + 1
    for p in range(12):
        for q in range(p):
            if 2 * p - 2 >= 2 * (2 * q - 2):
                assert rh_relation(p, q) % 2 == 0


def test_rh_relation_errors_name_the_constraint():
    with pytest.raises(RamificationError) as exc:
        rh_relation(1, 2)
    assert exc.value.value == -4
    assert exc.value.constraint == "nonnegative"
    with pytest.raises(RamificationError):
        rh_relation(0, 1)


def test_feasibility_r4_infeasible_by_divisibility():
    branch = quotient_feasibility(76, fibers=4, ram_deg=4)
    assert branch.status == "infeasible"
    assert "divisibility by 4" in branch.violated
    assert branch.delta_total == 75   # p_a - p_g with cover genus 1


def test_feasibility_r2_unresolved():
    branch = quotient_feasibility(76, fibers=4, ram_deg=2)
    assert branch.violated == ()
    assert branch.status == "arithmetically-feasible-unresolved"
    assert branch.s_q == 19
    assert branch.delta_total == 76


def test_feasibility_trivial_cover():
    branch = quotient_feasibility(0, fibers=0, ram_deg=2)
    assert branch.violated == ()
    assert branch.status == "arithmetically-feasible-unresolved"
    assert branch.s_q == 0


def test_feasibility_roundtrip():
    # substituting the solved budget back reproduces the cover data
    for ram in (2, 6, 10):
        branch = quotient_feasibility(76, fibers=4, ram_deg=ram)
        if branch.violated:
            continue
        p_g = 76 - 4 * branch.s_q
        assert p_g == 76 - branch.delta_total
        assert rh_relation(int(p_g), 0) == ram


def test_feasibility_matches_the_rational_route():
    # p_g = (deg R - 2)/2 and s_Q = delta_total/4, computed over Fraction
    for p_a in range(-3, 30):
        for ram in range(0, 24, 2):
            for fibers in (0, 1, 4):
                branch = quotient_feasibility(p_a, fibers=fibers, ram_deg=ram)
                p_g = Fraction(ram - 2, 2)
                s_q = Fraction(p_a - p_g, 4)
                assert branch.delta_total == p_a - p_g
                assert branch.s_q == (s_q if s_q.denominator == 1 else None)
                assert ("divisibility by 4" in branch.violated) == (s_q.denominator != 1)
                assert ("cover genus nonnegative" in branch.violated) == (p_g < 0)
                assert ("one unit of delta per fiber" in branch.violated) == (
                    s_q.denominator == 1 and s_q < fibers)
                assert type(branch.delta_total) is int


def test_scenario_validation():
    with pytest.raises(ValueError):
        quotient_feasibility(76, fibers=4, ram_deg=3)
    with pytest.raises(ValueError):
        quotient_feasibility(76, fibers=-1, ram_deg=2)


# -- restriction to the fixed line ---------------------------------------------------


def test_restrict_x5():
    assert on_line_r("X^5") == (NFElem(1),) + (NFElem(0),) * 5


def test_restrict_z5_sign():
    assert on_line_r("Z^5") == (NFElem(-1),) + (NFElem(0),) * 5


def test_restrict_rejects_inhomogeneous():
    with pytest.raises(ValueError, match="not homogeneous of degree 5"):
        on_line_r("X^5 + Y")


@pytest.mark.parametrize("text", ["X^4*Z", "X^4*T", "m*X^5"])
def test_binary_form_rejects_other_variables(text):
    with pytest.raises(ValueError, match=r"not a binary form in \(X, Y\) over Q\(r\)"):
        _binary_form(parse_poly(text), 5)


def test_restrict_generator_identity(family):
    # (XZ C0)|r = X^2 Y Qbar0 exactly, still symbolic in m
    first, second, qbar0, qbar1 = pencil_factorization(family)
    assert first and second
    x, y = MPoly.var("X"), MPoly.var("Y")
    a = x * MPoly.var("Z") * family.cubics[0]
    assert eval_at_point(a, LINE_R) == x * x * y * qbar0
    # frozen restricted cofactors
    assert qbar0 == parse_poly("(6*r^2-2*r-2)*X^2 + (3*r-2)*X*Y - (3*r-2)*m*Y^2")
    assert qbar1 == parse_poly("-(3*r-2)*m*X^2 - (3*r-2)*X*Y + (6*r^2-2*r-2)*Y^2")


# -- distinct point counting -----------------------------------------------------------


def test_distinct_points_examples():
    assert distinct_points(binary("X^5")) == 1
    assert distinct_points(binary("X*Y*(X^3 + Y^3)")) == 5
    assert distinct_points(binary("(X-Y)^2*(X+Y)^3")) == 2
    assert distinct_points(binary("Y^5")) == 1


def test_distinct_points_scaling_and_swap_invariance():
    rng = random.Random(79)
    forms = [binary("X^5"), binary("X*Y*(X^3+Y^3)"), binary("(X-Y)^2*(X+Y)^3"),
             binary("X^2*Y^3")]
    for form in forms:
        n = distinct_points(form)
        c = random_nfelem_nonzero(rng)
        assert distinct_points(scale_form(form, c)) == n
        assert distinct_points(swap_xy(form)) == n


def test_distinct_points_brute_force_agreement():
    rng = random.Random(83)
    for _ in range(25):
        roots = []
        f = MPoly.constant(1)
        for _ in range(5):
            a = rng.randint(-3, 3)
            b = rng.randint(-3, 3)
            if a == 0 and b == 0:
                a = 1
            f = f * parse_poly(f"({a})*X + ({b})*Y")
            roots.append((Fraction(-b), Fraction(a)) if a else (Fraction(1), Fraction(0)))
        # normalize projective root representatives, counted with multiplicity
        reps = Counter(("fin", p / q) if q else ("inf",) for p, q in roots)
        form = _binary_form(f, 5)
        assert distinct_points(form) == len(reps)
        # the pattern comes from a gcd chain of f and f', the count from a squarefree part
        pattern = multiplicity_pattern(form)
        assert pattern == tuple(sorted(reps.values(), reverse=True))
        assert len(pattern) == distinct_points(form)


def test_distinct_points_rejects_zero():
    with pytest.raises(ValueError):
        distinct_points((NFElem(0),) * 6)


def test_multiplicity_patterns():
    assert multiplicity_pattern(binary("(X-Y)^2*(X+Y)^3")) == (3, 2)
    assert multiplicity_pattern(binary("X^5")) == (5,)
    assert multiplicity_pattern(binary("X*Y*(X^3+Y^3)")) == (1, 1, 1, 1, 1)
    assert multiplicity_pattern(binary("X^2*Y^3")) == (3, 2)


# -- the witness pencil ------------------------------------------------------------------


def test_witness_analysis(family):
    assert distinct_points(pencil_member(pencil_at(family, M1), 1, 0)) == 4
    assert [point_name(p) for p in genus_mod.xy_factor_points()] == ["[1:0:-1:0]", "[0:1:0:-1]"]
    # the member (0:0) is the zero form, which has no root divisor
    with pytest.raises(ValueError):
        distinct_points(pencil_member(pencil_at(family, M1), 0, 0))


def test_xy_factor_points_are_computed_from_the_line(monkeypatch):
    def xy_check():
        checks = run_suite("pencil", run_config())
        return next(c for c in checks if c.check_id == "pencil/xy-factor-points")

    assert xy_check().computed == "[1:0:-1:0], [0:1:0:-1]"
    # on the line r' = {X - Z = Y - T = 0} the same parameters give other points
    monkeypatch.setattr(genus_mod, "LINE_R", LINE_R_PRIME)
    check = xy_check()
    assert check.computed == "[1:0:1:0], [0:1:0:1]"
    assert check.agreement == REFUTED


def test_z4_witness_search_frozen(family):
    found = z4_witness_search(pencil_at(family, M1), 5)
    assert found == (1, -5, 5)
    lam, mu, count = found
    assert distinct_points(pencil_member(pencil_at(family, M1), lam, mu)) == count >= 4


@pytest.mark.parametrize("count, outside", [
    (5, ("a count of 5 falls outside the printed dichotomy of 4 or 2",)), (4, ())],
    ids=["count-5", "count-4"])
def test_witness_note_follows_the_count(monkeypatch, count, outside):
    # the search returns the first member with at least 4 points, so 4 is possible:
    # a count the printed dichotomy allows gets no note
    monkeypatch.setattr(genus_mod, "z4_witness_search", lambda pencil, bound: (1, -5, count))
    check = next(c for c in run_suite("pencil", run_config(m_expr="1"))
                 if c.check_id == "pencil/witness-search")
    assert check.computed == "non-empty"
    assert check.notes == (f"witness (lambda:mu) = (1:-5) with {count} distinct points",) + outside


def test_z4_witness_search_not_found_contract(family, monkeypatch):
    # when nothing qualifies the scan returns None, never raises
    monkeypatch.setattr(genus_mod, "distinct_points", lambda form: 2)
    assert z4_witness_search(pencil_at(family, M1), 2) is None


def test_z4_search_guards(family):
    with pytest.raises(ValueError):
        z4_witness_search(pencil_at(family, M1), 0)


# -- root-pattern conditions ------------------------------------------------------------


def test_quintuple_condition_on_family():
    coeffs = quintuple_family_coeffs()
    assert quintuple_root_condition(coeffs)


def test_quintuple_condition_examples():
    x5 = binary("X^5")
    assert quintuple_root_condition(x5)
    x4y = binary("X^4*Y")
    # known insensitivity: the (4,1) pattern also zeroes both sides
    assert quintuple_root_condition(x4y)
    not_quintuple = binary("X^5 + X^3*Y^2 + X^2*Y^3")
    assert not quintuple_root_condition(not_quintuple)


def test_quintuple_condition_scaling_invariant():
    rng = random.Random(89)
    for bf_text in ("X^5", "X^4*Y", "X^5 + X^3*Y^2 + X^2*Y^3", "(X-2*Y)^5"):
        coeffs = binary(bf_text)
        c = random_nfelem_nonzero(rng)
        scaled = tuple(c * a for a in coeffs)
        assert quintuple_root_condition(coeffs) == quintuple_root_condition(scaled)


def test_quintuple_family_is_actually_quintuple():
    # (X - 2Y)^5 satisfies the relation with nonzero sides
    coeffs = binary("(X-2*Y)^5")
    assert quintuple_root_condition(coeffs)
    assert not coeffs[2].is_zero()


def test_three_two_printed_relation_fails_identically():
    a = three_two_family_coeffs()
    printed = 3 * a[5] * a[5] + 2 * a[0] * a[0] + a[1] * a[5]
    corrected = 3 * a[5] * a[5] + 2 * a[0] * a[0] - a[1] * a[5]
    assert corrected.is_zero()
    # frozen residual 4a^4 + 6a^6
    assert printed == UPoly((0, 0, 0, 0, 4, 0, 6))
    # as the pencil suite prints them
    check = next(c for c in run_suite("pencil", run_config())
                 if c.check_id == "pencil/three-two-condition")
    assert check.computed == "fails identically on the (3,2) family (residual 6*a^6 + 4*a^4)"
    assert check.notes[0].endswith("the residual is 0")


def test_cubic_probe_insufficiency_example():
    # X^3 - X Y^2: the printed condition 9da - bc vanishes, the pattern is (1,1,1)
    cubic = binary("X^3 - X*Y^2")
    a, b, c, d = cubic
    cond = NFElem(9) * d * a - b * c
    assert cond.is_zero()
    assert multiplicity_pattern(cubic) == (1, 1, 1)


def test_cubic_probe_triple_root():
    cubic = binary("(X-Y)^3")
    a, b, c, d = cubic
    assert (NFElem(9) * d * a - b * c).is_zero()
    assert multiplicity_pattern(cubic) == (3,)


def test_cubic_probe_on_pencil(family):
    probe = cubic_one_root_probe(pencil_at(family, M1), 1, 0)
    # frozen: 9da - bc = (3r-2)^2 at (1, 0)
    assert probe.condition_value == NFElem(-2, 3) * NFElem(-2, 3)
    assert probe.pattern == (1, 1, 1)
    assert probe.classifications_agree
    probe11 = cubic_one_root_probe(pencil_at(family, M1), 1, 1)
    assert probe11.pattern == (1, 1, 1)
    assert not probe11.condition_value.is_zero()
    assert probe11.classifications_agree


# -- the pencil on r, against a direct restriction ------------------------------------

PENCIL_M = (NFElem(0), NFElem(1), NFElem(0, 1), NFElem(7, 0, 0, 3))


@settings(max_examples=80, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6), st.sampled_from(PENCIL_M))
def test_pencil_member_matches_direct_restriction(family, lam, mu, m):
    fam = family.at_m(m)
    member = pencil_member(pencil_on_line(fam), lam, mu)
    x, y = MPoly.var("X"), MPoly.var("Y")
    direct = (MPoly.constant(NFElem(lam)) * x * MPoly.var("Z") * fam.cubics[0]
              + MPoly.constant(NFElem(mu)) * y * MPoly.var("T") * fam.cubics[1])
    assert member == _binary_form(eval_at_point(direct, LINE_R), 5)
    # the probe's cubic, the member's middle four coefficients, is lambda X Qbar0 - mu Y Qbar1
    qbar0, qbar1 = (eval_at_point(q, LINE_R) for q in fam.quadrics[:2])
    cubic = _binary_form(MPoly.constant(NFElem(lam)) * x * qbar0
                         - MPoly.constant(NFElem(mu)) * y * qbar1, 3)
    assert member == (NFElem(0),) + cubic + (NFElem(0),)
    a, b, c, d = cubic
    probe = cubic_one_root_probe(pencil_on_line(fam), lam, mu)
    assert probe.condition_value == 9 * d * a - b * c
    assert probe.pattern == (None if not any(cubic) else multiplicity_pattern(cubic))


SPECIAL_M = ("0", "1", "r", "-r", "2/3*r^2-5")


def restricted_after_fixing_m(family, value):
    """((XZ C0)|r, (YT C1)|r) with m := value put into the cubics first, then
    restricted to r by Z := -X, T := -Y."""
    x, y, z, t = (MPoly.var(v) for v in "XYZT")
    c0, c1 = (c.substitute({"m": value}) for c in family.cubics[:2])
    return tuple(_binary_form(g.substitute({"Z": -x, "T": -y}), 5) for g in (x * z * c0, y * t * c1))


@pytest.mark.parametrize("m_text", SPECIAL_M)
def test_pencil_on_line_specializes_m(family, m_text):
    value = parse_poly(m_text).as_nfelem()
    assert pencil_on_line(family.at_m(value)) == restricted_after_fixing_m(family, value)


@settings(max_examples=40, deadline=None)
@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 9))
def test_pencil_on_line_specializes_any_m(family, n0, n1, n2, d):
    value = NFElem(n0, n1, n2, d)
    assert pencil_on_line(family.at_m(value)) == restricted_after_fixing_m(family, value)


def test_the_pencil_on_r_is_restricted_once_per_process(monkeypatch):
    # from a cleared store, the symbolic family of the first run restricts the
    # generators and Qbar0, Qbar1 once; pencil_factorization reads them, and
    # a later run's families, symbolic or with m fixed, restrict nothing
    geometry._verified_family.cache_clear()
    runs = [build_cubics() for _ in range(2)]
    first = pencil_on_line(runs[0].at_m(M1))
    real = genus_mod.eval_at_point

    def factorization_restrictions(fam):
        restrictions = []
        monkeypatch.setattr(genus_mod, "eval_at_point", lambda f, pt: restrictions.append(pt) or real(f, pt))
        (holds0, holds1, _, _), products = mpoly_products(monkeypatch, lambda: pencil_factorization(fam))
        assert holds0 and holds1
        assert len(products) == 6             # X*X*Y*Qbar0 and X*Y*Y*Qbar1, in every run
        return restrictions

    assert factorization_restrictions(runs[0]) == [LINE_R, LINE_R]   # Qbar0 and Qbar1 only
    assert factorization_restrictions(runs[1]) == []
    again, products = mpoly_products(monkeypatch, lambda: pencil_on_line(runs[1].at_m(M1)))
    assert again == first and products == []


def test_cubic_probe_rejects_a_member_without_the_xy_factor():
    ends = (NFElem(1),) + (NFElem(0),) * 5
    with pytest.raises(ArithmeticError):
        cubic_one_root_probe((ends, ends), 1, 0)
