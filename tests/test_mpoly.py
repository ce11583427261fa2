import random
import tracemalloc
from fractions import Fraction

import pytest

from cgv import mpoly
from cgv.mpoly import MPoly, VARS
from cgv.nf import NF_ZERO, NFElem
from cgv.parsing import parse_poly
from cgv.upoly import UPoly

from conftest import count_calls, nf_products, random_nfelem


def random_mpoly(rng, nterms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        exp = tuple(rng.randint(0, max_exp) if rng.random() < 0.5 else 0 for _ in range(5))
        terms[exp] = random_nfelem(rng, span=8, den=4)
    return MPoly(terms)


X, Y, Z, T, m = (MPoly.var(v) for v in VARS)


def test_substitute_kill_variable():
    assert (X * Y).substitute({"X": 0}).is_zero()


def test_substitute_rejects_an_unknown_variable():
    for mapping in ({"x": 0}, {"W": 5, "X": 2}, {"r": 1}):
        with pytest.raises(KeyError, match="unknown variable"):
            (X * Y).substitute(mapping)


def test_substitute_zero_and_one_images_need_no_product(monkeypatch):
    # a zero image drops its terms and an image 1 only clears its exponent
    f = 3 * X ** 2 * Y + 5 * X * Z ** 2 * m + 7 * T ** 3
    mapping = {"X": 1, "Y": MPoly.constant(1), "Z": 0, "T": NFElem(0)}
    assert nf_products(monkeypatch, lambda: f.substitute(mapping)) == (MPoly.constant(3), [])


def test_substitute_merge():
    assert (X + Y).substitute({"X": Y}) == 2 * Y


def test_substitute_q3_stratum(family):
    # Q3 with T = X = Y = 0 vanishes identically in Z
    q3 = family.quadrics[3]
    assert q3.substitute({"T": 0, "X": 0, "Y": 0}).is_zero()


def test_substitute_is_ring_homomorphism():
    rng = random.Random(19)
    assignment = {"X": Y + Z, "Y": MPoly.constant(NFElem(0, 1)), "m": X * X, "T": 2 * T}
    for _ in range(60):
        f = random_mpoly(rng)
        g = random_mpoly(rng)
        sf = f.substitute(assignment)
        sg = g.substitute(assignment)
        assert (f + g).substitute(assignment) == sf + sg
        assert (f * g).substitute(assignment) == sf * sg


def test_partial_basics():
    assert (X * X * Y).partial("X") == 2 * X * Y
    assert MPoly.constant(7).partial("X").is_zero()


def test_partial_leibniz():
    rng = random.Random(23)
    for _ in range(60):
        f = random_mpoly(rng)
        g = random_mpoly(rng)
        for v in ("X", "m"):
            lhs = (f * g).partial(v)
            rhs = f * g.partial(v) + g * f.partial(v)
            assert lhs == rhs


def test_partial_of_cubic_matches_printed_bracket(family):
    # d(C0)/dX on the chart T = 1 equals the first printed tangent bracket
    g = family.cubics[0].partial("X").substitute({"T": 1})
    printed = parse_poly("(3*r-2)+(r+1)*(3*r-2)*Y+(-6*r^2+2*r+2)*Z")
    assert g == printed


def geom_degree(f):
    """Degree in X, Y, Z, T only (m is a parameter)."""
    return max(sum(e[:4]) for e in f.terms)


def test_degree_multiplicativity():
    rng = random.Random(29)
    checked = 0
    while checked < 40:
        f = random_mpoly(rng)
        g = random_mpoly(rng)
        if f.is_zero() or g.is_zero():
            continue
        assert geom_degree(f * g) == geom_degree(f) + geom_degree(g)
        checked += 1


def test_homogeneity(family):
    for c in family.cubics:
        assert c.is_homogeneous(3) and not c.is_homogeneous(2)
    assert not (X + X * Y).is_homogeneous(1) and not (X + X * Y).is_homogeneous(2)
    assert MPoly().is_homogeneous(3)
    # m does not count toward the geometric grading
    assert (m * X).is_homogeneous(1)


def test_no_zero_terms_stored():
    f = X + Y - X - Y
    assert f.is_zero()
    assert not f.terms


def test_div_by_var():
    f = X * X * Y + 3 * X * Z
    q, ok = f.div_by_var("X")
    assert ok and q == X * Y + 3 * Z
    _, ok = (X + Y).div_by_var("X")
    assert not ok


def test_coeff_of_geom_collects_m():
    f = parse_poly("(3*r-2)*m*Y*T^2 + X*T^2 + m^2*Y*T^2")
    c = f.coeff_of_geom((0, 1, 0, 2))
    assert c == parse_poly("(3*r-2)*m + m^2")


def test_canonical_print_order():
    f = m + T + Z + Y + X + X * X
    assert str(f) == "X^2 + X + Y + Z + T + m"


def test_as_nfelem_guard():
    with pytest.raises(ValueError):
        (X + Y).as_nfelem()
    assert MPoly.constant(NFElem(1, 2)).as_nfelem() == NFElem(1, 2)


def test_zero_scalars_are_the_shared_zero():
    assert MPoly().as_nfelem() is NF_ZERO
    assert (X + Y).coeff_of_geom((0, 0, 1, 0)).as_nfelem() is NF_ZERO


def test_m_upoly_roundtrip():
    f = parse_poly("3*m^2 + (r+1)*m - 2")
    up = f.m_upoly()
    assert up.degree() == 2
    assert up.coeffs[1] == NFElem(1, 1)
    with pytest.raises(ValueError):
        (X * m).m_upoly()


def test_pow_matches_repeated_multiplication():
    f = X + NFElem(0, 1) * Y
    assert f ** 0 == MPoly.constant(1)
    assert f ** 3 == f * f * f
    with pytest.raises(ValueError, match="negative exponent"):
        f ** -1


@pytest.mark.parametrize("exp", [
    (1, 0, 0, 0, 0, 7),    # a sixth entry, which a product used to drop
    (1, 0),                # too short; used to print as X
    (-1, 0, 0, 0, 0),      # used to print as X^-1, and times X gave 1
    (1.0, 0, 0, 0, 0),
    (True, 0, 0, 0, 0),
    "XYZTm",
    5,
])
def test_constructor_rejects_malformed_exponents(exp):
    with pytest.raises(ValueError):
        MPoly({exp: 1})


def test_constructor_accepts_any_sequence_of_five_exponents():
    f = MPoly({(2, 0, 0, 0, 1): NFElem(1, 0, 0, 2), range(5): 3})
    assert f == NFElem(1, 0, 0, 2) * X * X * m + 3 * Y * Z ** 2 * T ** 3 * m ** 4
    assert all(type(e) is tuple for e in f.terms)


@pytest.mark.parametrize("n", [2.0, Fraction(2), "2", None, True])
def test_pow_rejects_non_integer_exponents(n):
    # one check, in binary_power, for the three __pow__; a bool is not an int
    for base in (NFElem(2), X, UPoly((1, 1))):
        with pytest.raises(TypeError, match="exponent must be an integer"):
            base ** n


def test_product_normalises_each_output_monomial_once(monkeypatch):
    # two multi-term operands: each output coefficient is summed on the
    # integers and normalised once by _elem, with no NFElem product
    f = parse_poly("1/2*X - 2/3*r*Y + 3/4*m")
    g = parse_poly("X - 1/6*r^2*T + (1 + r)*Y + 5/7*m")
    expected = parse_poly("(1/2*X - 2/3*r*Y + 3/4*m)*(X - 1/6*r^2*T + (1 + r)*Y + 5/7*m)")
    elems = count_calls(monkeypatch, "_elem", mpoly)   # nf_products undoes this patch too
    h, products = nf_products(monkeypatch, lambda: f * g)
    assert products == []
    assert len(elems) == len(h.terms) == 9 < len(f.terms) * len(g.terms) == 12
    assert h == expected
    # a one-term operand, on either side: one NFElem product per term of the other
    c = parse_poly("-2/3*r*Y*m")
    for run in (lambda: c * g, lambda: g * c):
        h, products = nf_products(monkeypatch, run)
        assert products == ["mul"] * len(g.terms)
        assert h == parse_poly("(-2/3*r*Y*m)*(X - 1/6*r^2*T + (1 + r)*Y + 5/7*m)")


def test_constants_hash_like_their_coefficient():
    assert NFElem(1) in {MPoly.constant(1)}
    assert 0 in {MPoly()}
    assert MPoly.constant(NFElem(1, 0, 0, 2)) in {NFElem(1, 0, 0, 2)}
    assert MPoly.constant(NFElem(0, 1)) in {NFElem(0, 1)}
    assert hash(X * Y) == hash(Y * X)


@pytest.mark.parametrize("text,printed", [
    ("(-2+3*r)*Y*Z", "(-2 + 3*r)*Y*Z"),           # multi-term coefficient
    ("-X+Y", "-X + Y"),                            # leading -X
    ("1+r", "(1 + r)"),                            # non-trivial constant
    ("X+1+r", "X + (1 + r)"),
    ("-(1+r)", "(-1 - r)"),
    ("2/3*X - 1/5*Y*m", "-1/5*Y*m + 2/3*X"),       # rational coefficients
    ("-X^2*m + (1-r)*Y - 7/2", "-X^2*m + (1 - r)*Y - 7/2"),
    ("r^2*X*T - r*Y^2 + 3", "r^2*X*T - r*Y^2 + 3"),
    ("X - X", "0"),
])
def test_canonical_print_pins(text, printed):
    assert str(parse_poly(text)) == printed


def test_printing_costs_the_terms_not_the_degree():
    # a power string is built for each exponent that occurs, not for each
    # one up to the top degree
    p = MPoly.var("X") ** 100000 * MPoly.var("m")
    tracemalloc.start()
    try:
        text = str(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "X^100000*m"
    assert peak < 1 << 20
    assert str(parse_poly("X^10000000000*m - 2*Y^3 + m")) == "X^10000000000*m - 2*Y^3 + m"
