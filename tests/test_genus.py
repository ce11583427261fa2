import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cgv.genus as genus_mod
from cgv.genus import (AccountingScenario, BinaryForm, RamificationError,
                       ci_genus, cubic_one_root_probe, distinct_points,
                       multiplicity_pattern, pencil_factorization, pencil_member,
                       pencil_on_line,
                       quintuple_family_coeffs, quintuple_root_condition,
                       quotient_feasibility, rh_relation,
                       three_two_family_report,
                       witness_pencil_analysis, z4_witness_search)
from cgv.geometry import LINE_R, LINE_R_PRIME, point_name
from cgv.reportlib import REFUTED, RunConfig
from cgv.suites import run_suite
from cgv.mpoly import MPoly
from cgv.nf import NFElem
from cgv.parsing import parse_poly
from cgv.upoly import UPoly

from conftest import random_nfelem_nonzero, scale_form, swap_xy

M1 = NFElem(1)


def binary(text, degree=None):
    return BinaryForm.from_mpoly(parse_poly(text), degree)


def on_line_r(text):
    """A quintic restricted to the fixed line r = {X + Z = Y + T = 0}."""
    return BinaryForm.from_mpoly(LINE_R.restrict(parse_poly(text)), 5)


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


def test_rh_relation_errors_name_the_constraint():
    with pytest.raises(RamificationError) as exc:
        rh_relation(1, 2)
    assert exc.value.value == -4
    assert exc.value.constraint == "nonnegative"
    with pytest.raises(RamificationError):
        rh_relation(0, 1)


def test_feasibility_r4_infeasible_by_divisibility():
    branch = quotient_feasibility(AccountingScenario(p_a=76, fibers=4, ram_deg=4))
    assert branch.status == "infeasible"
    assert "divisibility by 4" in branch.violated
    assert branch.delta_total == 75   # p_a - p_g with cover genus 1


def test_feasibility_r2_unresolved():
    branch = quotient_feasibility(AccountingScenario(p_a=76, fibers=4, ram_deg=2))
    assert branch.violated == ()
    assert branch.status == "arithmetically-feasible-unresolved"
    assert branch.s_q == 19
    assert branch.delta_total == 76


def test_feasibility_trivial_cover():
    branch = quotient_feasibility(AccountingScenario(p_a=0, fibers=0, ram_deg=2))
    assert branch.violated == ()
    assert branch.status == "arithmetically-feasible-unresolved"
    assert branch.s_q == 0


def test_feasibility_roundtrip():
    # substituting the solved budget back reproduces the cover data
    for ram in (2, 6, 10):
        branch = quotient_feasibility(AccountingScenario(p_a=76, fibers=4, ram_deg=ram))
        if branch.violated:
            continue
        p_g = 76 - 4 * branch.s_q
        assert p_g == 76 - branch.delta_total
        assert rh_relation(int(p_g), 0) == ram


def test_scenario_validation():
    with pytest.raises(ValueError):
        AccountingScenario(ram_deg=3)
    with pytest.raises(ValueError):
        AccountingScenario(fibers=-1)


# -- restriction to the fixed line ---------------------------------------------------


def test_restrict_x5():
    bf = on_line_r("X^5")
    assert bf.coeffs == (NFElem(1),) + (NFElem(0),) * 5


def test_restrict_z5_sign():
    bf = on_line_r("Z^5")
    assert bf.coeffs == (NFElem(-1),) + (NFElem(0),) * 5


def test_restrict_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        on_line_r("X^5 + Y")


def test_restrict_generator_identity(family):
    # (XZ C0)|r = X^2 Y Qbar0 exactly, still symbolic in m
    first, second, qbar0, qbar1 = pencil_factorization(family)
    assert first and second
    x, y = MPoly.var("X"), MPoly.var("Y")
    a = x * MPoly.var("Z") * family.cubics[0]
    assert LINE_R.restrict(a) == x * x * y * qbar0
    # frozen restricted cofactors
    assert qbar0 == parse_poly("(6*r^2-2*r-2)*X^2 + (3*r-2)*X*Y - (3*r-2)*m*Y^2")
    assert qbar1 == parse_poly("-(3*r-2)*m*X^2 - (3*r-2)*X*Y + (6*r^2-2*r-2)*Y^2")


# -- distinct point counting -----------------------------------------------------------


def test_distinct_points_examples():
    assert distinct_points(binary("X^5")) == 1
    assert distinct_points(binary("X*Y*(X^3 + Y^3)")) == 5
    assert distinct_points(binary("(X-Y)^2*(X+Y)^3")) == 2
    assert distinct_points(binary("Y^5", 5)) == 1


def test_distinct_points_scaling_and_swap_invariance():
    rng = random.Random(79)
    forms = [binary("X^5"), binary("X*Y*(X^3+Y^3)"), binary("(X-Y)^2*(X+Y)^3"),
             binary("X^2*Y^3")]
    for bf in forms:
        n = distinct_points(bf)
        c = random_nfelem_nonzero(rng)
        assert distinct_points(scale_form(bf, c)) == n
        assert distinct_points(swap_xy(bf)) == n


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
        # normalize projective root representatives
        reps = set()
        for p, q in roots:
            if q:
                reps.add(("fin", p / q))
            else:
                reps.add(("inf",))
        bf = BinaryForm.from_mpoly(f, 5)
        assert distinct_points(bf) == len(reps)


def test_distinct_points_rejects_zero():
    with pytest.raises(ValueError):
        distinct_points(BinaryForm(5, (NFElem(0),) * 6))


def test_multiplicity_patterns():
    assert multiplicity_pattern(binary("(X-Y)^2*(X+Y)^3")) == (3, 2)
    assert multiplicity_pattern(binary("X^5")) == (5,)
    assert multiplicity_pattern(binary("X*Y*(X^3+Y^3)")) == (1, 1, 1, 1, 1)
    assert multiplicity_pattern(binary("X^2*Y^3")) == (3, 2)


# -- the witness pencil ------------------------------------------------------------------


def test_witness_analysis(family):
    assert witness_pencil_analysis(pencil_at(family, M1), 1, 0) == 4
    assert [point_name(p) for p in genus_mod.xy_factor_points()] == ["[1:0:-1:0]", "[0:1:0:-1]"]
    with pytest.raises(ValueError):
        witness_pencil_analysis(pencil_at(family, M1), 0, 0)


def test_xy_factor_points_are_computed_from_the_line(monkeypatch):
    def xy_check():
        checks = run_suite("pencil", RunConfig())
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
    assert witness_pencil_analysis(pencil_at(family, M1), lam, mu) == count >= 4


def test_z4_witness_search_not_found_contract(family, monkeypatch):
    # when nothing qualifies the scan returns None, never raises
    monkeypatch.setattr(genus_mod, "distinct_points", lambda bf: 2)
    assert z4_witness_search(pencil_at(family, M1), 2) is None


def test_z4_search_guards(family):
    with pytest.raises(ValueError):
        z4_witness_search(pencil_at(family, M1), 0)


# -- root-pattern conditions ------------------------------------------------------------


def test_quintuple_condition_on_family():
    coeffs = quintuple_family_coeffs()
    assert quintuple_root_condition(coeffs)


def test_quintuple_condition_examples():
    x5 = binary("X^5").coeffs
    assert quintuple_root_condition(x5)
    x4y = binary("X^4*Y").coeffs
    # known insensitivity: the (4,1) pattern also zeroes both sides
    assert quintuple_root_condition(x4y)
    not_quintuple = binary("X^5 + X^3*Y^2 + X^2*Y^3").coeffs
    assert not quintuple_root_condition(not_quintuple)


def test_quintuple_condition_scaling_invariant():
    rng = random.Random(89)
    for bf_text in ("X^5", "X^4*Y", "X^5 + X^3*Y^2 + X^2*Y^3", "(X-2*Y)^5"):
        coeffs = binary(bf_text).coeffs
        c = random_nfelem_nonzero(rng)
        scaled = tuple(c * a for a in coeffs)
        assert quintuple_root_condition(coeffs) == quintuple_root_condition(scaled)


def test_quintuple_family_is_actually_quintuple():
    # (X - 2Y)^5 satisfies the relation with nonzero sides
    coeffs = binary("(X-2*Y)^5").coeffs
    assert quintuple_root_condition(coeffs)
    assert not coeffs[2].is_zero()


def test_three_two_printed_relation_fails_identically():
    report = three_two_family_report()
    assert not report.printed_residual.is_zero()
    assert report.corrected_residual.is_zero()
    # frozen residual 4a^4 + 6a^6
    assert report.printed_residual == UPoly((0, 0, 0, 0, Fraction(4), 0, Fraction(6)))
    # as the pencil suite prints them
    assert report.printed_residual.to_str("a") == "6*a^6 + 4*a^4"
    assert report.corrected_residual.to_str("a") == "0"


def test_cubic_probe_insufficiency_example():
    # X^3 - X Y^2: the printed condition 9da - bc vanishes, the pattern is (1,1,1)
    bf = binary("X^3 - X*Y^2")
    a, b, c, d = bf.coeffs
    cond = NFElem(9) * d * a - b * c
    assert cond.is_zero()
    assert multiplicity_pattern(bf) == (1, 1, 1)


def test_cubic_probe_triple_root():
    bf = binary("(X-Y)^3")
    a, b, c, d = bf.coeffs
    assert (NFElem(9) * d * a - b * c).is_zero()
    assert multiplicity_pattern(bf) == (3,)


def test_cubic_probe_on_pencil(family):
    probe = cubic_one_root_probe(pencil_at(family, M1), 1, 0)
    # frozen: 9da - bc = (3r-2)^2 at (1, 0)
    assert probe.condition_value == NFElem(-2, 3) * NFElem(-2, 3)
    assert probe.pattern == (1, 1, 1)
    assert probe.classifications_agree
    probe11 = cubic_one_root_probe(pencil_at(family, M1), 1, 1)
    assert probe11.pattern == (1, 1, 1)
    assert not probe11.condition_says_one_root
    assert probe11.classifications_agree


# -- the pencil on r, against a direct restriction ------------------------------------

PENCIL_M = (NFElem(0), NFElem(1), NFElem(0, 1), NFElem(Fraction(7, 3)))


@settings(max_examples=80, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6), st.sampled_from(PENCIL_M))
def test_pencil_member_matches_direct_restriction(family, lam, mu, m):
    fam = family.at_m(m)
    member = pencil_member(pencil_on_line(fam), lam, mu)
    x, y = MPoly.var("X"), MPoly.var("Y")
    direct = (MPoly.constant(NFElem(lam)) * x * MPoly.var("Z") * fam.cubics[0]
              + MPoly.constant(NFElem(mu)) * y * MPoly.var("T") * fam.cubics[1])
    assert member == BinaryForm.from_mpoly(LINE_R.restrict(direct), 5)
    # the probe's cubic, the member's middle four coefficients, is lambda X Qbar0 - mu Y Qbar1
    qbar0, qbar1 = (LINE_R.restrict(q) for q in fam.quadrics[:2])
    cubic = BinaryForm.from_mpoly(MPoly.constant(NFElem(lam)) * x * qbar0
                                  - MPoly.constant(NFElem(mu)) * y * qbar1, 3)
    assert member.coeffs == (NFElem(0),) + cubic.coeffs + (NFElem(0),)
    a, b, c, d = cubic.coeffs
    probe = cubic_one_root_probe(pencil_on_line(fam), lam, mu)
    assert probe.condition_value == 9 * d * a - b * c
    assert probe.pattern == (None if cubic.is_zero() else multiplicity_pattern(cubic))


def test_cubic_probe_rejects_a_member_without_the_xy_factor():
    ends = (NFElem(1),) + (NFElem(0),) * 5
    with pytest.raises(ArithmeticError):
        cubic_one_root_probe((ends, ends), 1, 0)
