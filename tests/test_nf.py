import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cgv.mpoly import MPoly
from cgv.nf import NFElem, NF_ONE, NF_R, join_terms, nf_invert, nf_str, term_str
from cgv.upoly import UPoly

from conftest import (R_FLOAT, count_calls, frac_elem, nf_reduce, nf_to_float, random_nfelem,
                      random_nfelem_nonzero, ref_nf_str)


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
    assert inv == NFElem(17, 29, 16, 35)
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


def test_canonical_printing():
    assert nf_str(NFElem(0)) == "0"
    assert nf_str(NF_R) == "r"
    assert nf_str(NFElem(-2, 1, 3)) == "-2 + r + 3*r^2"
    assert nf_str(NFElem(2, 0, -3, 4)) == "1/2 - 3/4*r^2"
    assert nf_str(NFElem(0, -1)) == "-r"


def test_term_formatter_and_sign_joiner():
    assert term_str("3/4", "") == "3/4"
    assert term_str("1 + r", "") == "(1 + r)"
    assert term_str("1", "X^2*m") == "X^2*m"
    assert term_str("-1", "r") == "-r"
    assert term_str("-1 - r", "Y") == "(-1 - r)*Y"
    assert term_str("-5/7", "T^12") == "-5/7*T^12"
    assert join_terms([]) == "0"
    assert join_terms(["-X"]) == "-X"
    assert join_terms(["-X", "-3/4*r", "(-1 - r)*Y", "2"]) == "-X - 3/4*r + (-1 - r)*Y + 2"


# zero, integers (d = 1), small and large rationals of both signs
coordinates = st.one_of(
    st.just(0), st.integers(-50, 50), st.fractions(max_denominator=60),
    st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**9))


@settings(max_examples=300, deadline=None)
@given(coordinates, coordinates, coordinates)
@example(0, 0, 0)
@example(Fraction(-3, 4), 0, Fraction(5, 6))
@example(0, Fraction(-1, 2), 0)
# the r and r^2 numerators reduce to 1 and -1 over d = 3: "2/3 + r - r^2"
@example(Fraction(2, 3), 1, -1)
# the same signs with d = 1: "1 - r + r^2"
@example(1, -1, 1)
def test_printer_matches_the_fraction_route(c0, c1, c2):
    # the element, its negative, its rational part and its pure-r part
    for a in (frac_elem(c0, c1, c2), -frac_elem(c0, c1, c2), frac_elem(c0), frac_elem(0, c1)):
        assert nf_str(a) == ref_nf_str(a)


def test_equality_and_hash_coercion():
    assert NFElem(3) == 3
    assert hash(NFElem(2, 0, 0)) == hash(NFElem(4, 0, 0, 2))
    assert NFElem(1, 1) != NFElem(1)
    # a rational is an NFElem, never a Fraction: the two are not coerced
    assert NFElem(1, 0, 0, 2) != Fraction(1, 2)


def test_immutability():
    a = NFElem(1, 2, 3)
    for name in ("_v", "n0", "d"):
        with pytest.raises(AttributeError):
            setattr(a, name, 5)


def test_integers_are_the_stored_form():
    assert NFElem(2, -4, 6).integers() == (2, -4, 6, 1)
    assert NFElem(6, 0, -9, 12).integers() == (2, 0, -3, 4)
    assert NFElem(1, 2, 3, -5).integers() == (-1, -2, -3, 5)
    assert NFElem(3, 6, 9, -1).integers() == (-3, -6, -9, 1)
    assert NFElem(0, 0, 0, -7).integers() == (0, 0, 0, 1)
    assert (NF_R / 3).integers() == (0, 1, 0, 3)
    # the repr prints the integers, and reads back through the constructor
    a = NFElem(10**30, 3, -5, 7)
    assert repr(a) == f"NFElem({10**30}, 3, -5, 7)"
    assert eval(repr(a)) == a


# four ints, the last nonzero; k scales the whole quadruple
quadruples = st.tuples(st.integers(-10**20, 10**20), st.integers(-50, 50), st.integers(-50, 50),
                       st.integers(-10**9, 10**9).filter(bool))


@settings(max_examples=300, deadline=None)
@given(quadruples, st.integers(-10**6, 10**6).filter(bool))
@example((0, 0, 0, 1), -1)
@example((3, 0, 0, 1), -2)
@example((1, 2, 3, 4), -6)
def test_a_common_factor_of_the_integers_cancels(v, k):
    a = NFElem(*v)
    b = NFElem(*(k * x for x in v))
    assert a == b
    assert hash(a) == hash(b)
    assert a.integers() == b.integers()
    assert a.integers()[3] > 0


def test_a_zero_denominator_is_refused():
    for v in ((1, 0, 0, 0), (0, 0, 0, 0), (1, 2, 3, 0)):
        with pytest.raises(ZeroDivisionError):
            NFElem(*v)


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(3), 0.5, 1.0, "1", "1/2", None], ids=repr)
def test_only_ints_are_taken(bad):
    for args in ((bad,), (0, bad), (0, 0, bad), (1, 0, 0, bad)):
        with pytest.raises(TypeError):
            NFElem(*args)
    with pytest.raises(TypeError):
        NFElem.coerce(bad)


@pytest.mark.parametrize("b", [True, False])
def test_a_bool_is_not_an_int_here(b):
    # as in the constructor, a bool is refused wherever an int is coerced
    with pytest.raises(TypeError):
        NFElem(b)
    with pytest.raises(TypeError):
        NFElem.coerce(b)
    with pytest.raises(TypeError):
        MPoly.constant(b)
    a = NFElem(2)
    for op in (lambda: a + b, lambda: b + a, lambda: a - b, lambda: b - a, lambda: a * b, lambda: b * a):
        with pytest.raises(TypeError):
            op()
    assert a.__rsub__(b) is NotImplemented
    # equality does not coerce it either
    assert NFElem(int(b)) != b and MPoly.constant(int(b)) != b


# each value type: a sample value, a scalar converted by hand, and its binary
# operators; + - * and / also have reflected forms
OPERAND_TYPES = {
    "NFElem": (NFElem(3, 1, 0, 2), NFElem.coerce,
               (operator.add, operator.sub, operator.mul, operator.truediv)),
    "UPoly": (UPoly((1, 2)), lambda c: UPoly((c,)),
              (operator.add, operator.sub, operator.mul, divmod, operator.mod)),
    "MPoly": (MPoly({(1, 0, 0, 0, 0): 1, (0, 0, 0, 0, 1): NF_R}), MPoly.constant,
              (operator.add, operator.sub, operator.mul)),
}
REFLECTED = (operator.add, operator.sub, operator.mul, operator.truediv)


@pytest.mark.parametrize("kind", OPERAND_TYPES)
def test_an_int_or_nfelem_operand_is_converted_as_by_hand(kind):
    value, convert, ops = OPERAND_TYPES[kind]
    for scalar in (2, -3, NFElem(1, 1), NFElem(5, 0, -1, 3)):
        by_hand = convert(scalar)
        assert by_hand == scalar and scalar == by_hand
        for op in ops:
            assert op(value, scalar) == op(value, by_hand)
            if op in REFLECTED:
                assert op(scalar, value) == op(by_hand, value)


@pytest.mark.parametrize("kind", OPERAND_TYPES)
def test_a_scalar_minus_a_value_negates_nothing(kind, monkeypatch):
    # 3 - x converts 3 once and subtracts, with no negated operand
    value, convert, _ = OPERAND_TYPES[kind]
    negations = count_calls(monkeypatch, "__neg__", type(value))
    for scalar in (3, NFElem(5, 0, -1, 3)):
        assert scalar - value == convert(scalar) - value
    assert negations == []


def test_a_upoly_divides_by_an_int():
    # the divisor is converted like any other operand
    assert divmod(UPoly((1, 2)), 2) == (UPoly((NFElem(1, 0, 0, 2), 1)), UPoly(()))
    assert UPoly((1, 2)) % 2 == UPoly(())
    # 1/r = r + r^2, since r^3 + r^2 = 1
    assert divmod(UPoly((1, 2)), NFElem(0, 1)) == (UPoly((NFElem(0, 1, 1), NFElem(0, 2, 2))), UPoly(()))


def test_an_int_divides_by_an_element():
    x = NFElem(0, 1)
    assert 2 / x == NFElem(2) * x.inverse() == NFElem(0, 2, 2)
    assert 0 / x == 0
    with pytest.raises(ZeroDivisionError):
        1 / NFElem(0)
    with pytest.raises(TypeError, match="unsupported operand type"):
        True / x


@pytest.mark.parametrize("kind", OPERAND_TYPES)
def test_a_foreign_operand_is_not_implemented(kind):
    value, _, ops = OPERAND_TYPES[kind]
    foreign = [object(), True, 0.5, Fraction(1, 2)]
    foreign += {"UPoly": [MPoly.var("X"), MPoly.constant(2)],
                "MPoly": [UPoly((0, 1)), UPoly((2,))]}.get(kind, [])
    for other in foreign:
        for op in ops:
            # Python's own error, after both operands' methods declined
            with pytest.raises(TypeError, match="unsupported operand type"):
                op(value, other)
            with pytest.raises(TypeError, match="unsupported operand type"):
                op(other, value)
        assert not (value == other) and not (other == value) and value != other


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**30, 10**30))
def test_equal_scalars_hash_alike(n):
    # an int and the equal NFElem, constant MPoly and constant UPoly; a
    # polynomial equals a scalar, and MPoly and UPoly are not compared
    scalars = (n, NFElem(n), NFElem(2 * n, 0, 0, 2))
    polys = (MPoly.constant(n), MPoly.constant(NFElem(n)), UPoly((n,)), UPoly((NFElem(-n, 0, 0, -1),)))
    assert all(a == b for a in scalars + polys for b in scalars)
    assert len({hash(a) for a in scalars + polys}) == 1
    # so does a rational or an irrational element
    for e in (NFElem(n, 0, 0, 7), NFElem(n, 1, 0, 3), NFElem(0, 0, 1)):
        assert MPoly.constant(e) == e == UPoly((e,))
        assert hash(e) == hash(MPoly.constant(e)) == hash(UPoly((e,)))
    # an irrational element built two ways hashes alike
    assert hash(NFElem(0, 1) * NFElem(0, 1)) == hash(NFElem(0, 0, 1))
