import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cgv.nf import NFElem, NF_ONE, NF_R, join_terms, nf_invert, nf_reduce, nf_str, term_str

from conftest import R_FLOAT, nf_to_float, random_nfelem, random_nfelem_nonzero


def test_reduce_cube():
    # r^3 = 1 - r^2
    assert nf_reduce([0, 0, 0, 1]) == NFElem(1, 0, -1)


def test_reduce_minimal_polynomial():
    assert nf_reduce([-1, 0, 1, 1]) == NFElem(0)


def test_reduce_printed_m_coefficient():
    # 9r^6 - 12r^5 + 4r^4 + 6r^3 + 11r^2 - 25r + 10 vanishes in Q(r)
    assert nf_reduce([10, -25, 11, 6, 4, -12, 9]).is_zero()


def test_reduce_m_free_determinant_part():
    # 30r^5 + 20r^4 - 20r^3 - 40r^2 + 10r + 10, the correctly expanded
    # constant part of the printed determinant; oracle value 0
    assert nf_reduce([10, 10, -40, -20, 20, 30]).is_zero()


def test_reduce_numeric_crosscheck():
    rng = random.Random(7)
    for _ in range(50):
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 9))]
        reduced = nf_reduce(coeffs)
        direct = sum(float(c) * R_FLOAT ** k for k, c in enumerate(coeffs))
        assert abs(nf_to_float(reduced) - direct) < 1e-9


def test_reduce_is_ring_homomorphism():
    rng = random.Random(11)
    for _ in range(100):
        p = [Fraction(rng.randint(-9, 9)) for _ in range(6)]
        q = [Fraction(rng.randint(-9, 9)) for _ in range(6)]
        s = [a + b for a, b in zip(p, q)]
        prod = [Fraction(0)] * 11
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                prod[i + j] += a * b
        assert nf_reduce(s) == nf_reduce(p) + nf_reduce(q)
        assert nf_reduce(prod) == nf_reduce(p) * nf_reduce(q)


def test_invert_one():
    assert nf_invert(NF_ONE) == NF_ONE


def test_invert_r():
    # r * (r^2 + r) = r^3 + r^2 = 1
    assert nf_invert(NF_R) == NFElem(0, 1, 1)


def test_invert_obstruction_element():
    # 3r^2 + 4r - 4 is a unit; frozen from the extended-Euclid oracle
    a = NFElem(-4, 4, 3)
    inv = nf_invert(a)
    assert inv == NFElem(Fraction(17, 35), Fraction(29, 35), Fraction(16, 35))
    assert a * inv == NF_ONE


def test_invert_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        nf_invert(NFElem(0))


def test_field_axioms_thousand_cases():
    rng = random.Random(2024)
    for _ in range(1000):
        a = random_nfelem(rng)
        b = random_nfelem(rng)
        c = random_nfelem(rng)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a
        if not a.is_zero():
            assert a * nf_invert(a) == NF_ONE


def test_pow_and_division():
    rng = random.Random(5)
    for _ in range(50):
        a = random_nfelem_nonzero(rng)
        assert a ** 3 == a * a * a
        assert a ** -1 == nf_invert(a)
        assert (a / a) == NF_ONE
        assert NF_ONE / a == nf_invert(a)
        # UPoly division reaches the inverse through Fraction(1) / lead
        assert Fraction(1) / a == nf_invert(a)


def test_canonical_printing():
    assert nf_str(NFElem(0)) == "0"
    assert nf_str(NF_R) == "r"
    assert nf_str(NFElem(-2, 1, 3)) == "-2 + r + 3*r^2"
    assert nf_str(NFElem(Fraction(1, 2), 0, Fraction(-3, 4))) == "1/2 - 3/4*r^2"
    assert nf_str(NFElem(0, -1)) == "-r"


def fraction_route_str(a: NFElem) -> str:
    """Reference printer over the Fraction coordinates."""
    return join_terms(term_str(str(c), (("r", k),)) for k, c in enumerate(a.coords()) if c)


# zero, integers (d = 1), small and large rationals of both signs
coordinates = st.one_of(
    st.just(0), st.integers(-50, 50), st.fractions(max_denominator=60),
    st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**9))


@settings(max_examples=300, deadline=None)
@given(coordinates, coordinates, coordinates)
@example(0, 0, 0)
@example(Fraction(-3, 4), 0, Fraction(5, 6))
@example(0, Fraction(-1, 2), 0)
def test_printer_matches_the_fraction_route(c0, c1, c2):
    # the element, its negative, its rational part and its pure-r part
    for a in (NFElem(c0, c1, c2), -NFElem(c0, c1, c2), NFElem(c0), NFElem(0, c1)):
        assert nf_str(a) == fraction_route_str(a)


def test_equality_and_hash_coercion():
    assert NFElem(3) == 3
    assert NFElem(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(NFElem(2, 0, 0)) == hash(NFElem(Fraction(2), 0, 0))
    assert NFElem(1, 1) != NFElem(1)


def test_integer_constructor_skips_the_rational_path(monkeypatch):
    # three plain ints already have denominator 1; a bool takes the general path
    import cgv.nf as nf
    calls = []
    real = nf.lcm
    monkeypatch.setattr(nf, "lcm", lambda *args: calls.append(args) or real(*args))
    for c in ((0, 0, 0), (2, -4, 6), (-7, 0, 1), (10**30, 3, -5)):
        assert NFElem(*c).coords() == tuple(Fraction(x) for x in c)
    assert calls == []
    assert NFElem(True, 0, 0) == NFElem(1)
    assert len(calls) == 1


def test_immutability():
    a = NFElem(1, 2, 3)
    with pytest.raises(AttributeError):
        a.c0 = Fraction(5)


def test_rational_elements_hash_like_fractions():
    assert 1 in {NFElem(1)}
    assert Fraction(1, 2) in {NFElem(Fraction(1, 2))}
    assert NFElem(-3) in {-3}
    assert hash(NFElem(Fraction(-4, 6))) == hash(Fraction(-2, 3))
    # an irrational element built two ways hashes alike
    assert hash(NFElem(0, 1) * NFElem(0, 1)) == hash(NFElem(0, 0, 1))
