"""Dual route for the integer-backed Q(r) kernel.

NFElem stores (n0 + n1*r + n2*r^2)/d as integers.  The reference here works
on plain Fraction triples with the schoolbook product reduced by
r^3 = 1 - r^2, and shares no code with the kernel.  Hypothesis draws
coordinates of mixed signs and large bit lengths.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from cgv.nf import NFElem

from conftest import frac_elem

big = st.integers(min_value=-(2 ** 160), max_value=2 ** 160)
coords = st.builds(Fraction, big, st.integers(min_value=1, max_value=2 ** 96))
small = st.fractions(min_value=-5, max_value=5, max_denominator=4)
triples = st.tuples(st.one_of(coords, small), st.one_of(coords, small), st.one_of(coords, small))

ONE = (Fraction(1), Fraction(0), Fraction(0))


def ref_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ref_mul(a, b):
    prod = [Fraction(0)] * 5
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in (4, 3):
        # r^k = r^(k-3) - r^(k-1)
        prod[k - 3] += prod[k]
        prod[k - 1] -= prod[k]
    return tuple(prod[:3])


def ref_pow(a, n):
    out = ONE
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def as_fractions(a):
    """The coordinates of a on 1, r, r^2, as a Fraction triple."""
    *ns, d = a.integers()
    return tuple(Fraction(n, d) for n in ns)


def assert_canonical(a):
    n0, n1, n2, d = a.integers()
    assert d > 0
    assert gcd(n0, n1, n2, d) == 1
    if not (n0 or n1 or n2):
        assert d == 1


@settings(max_examples=200, deadline=None)
@given(triples, triples)
def test_add_mul_match_fraction_triples(p, q):
    a, b = frac_elem(*p), frac_elem(*q)
    assert_canonical(a)
    assert as_fractions(a) == p
    for got, want in ((a + b, ref_add(p, q)), (a - b, ref_add(p, tuple(-x for x in q))),
                      (a * b, ref_mul(p, q))):
        assert_canonical(got)
        assert as_fractions(got) == want


# four ints, the last nonzero, as NFElem(n0, n1, n2, d) takes them
quadruples = st.tuples(big, big, st.integers(-50, 50), st.integers(-10 ** 9, 10 ** 9).filter(bool))


@settings(max_examples=200, deadline=None)
@given(quadruples, quadruples, big)
@example((3, 6, 9, -1), (3, 6, 9, -1), 0)     # d = -1 is stored as (-3, -6, -9, 1)
@example((1, -2, 3, 1), (4, 5, -6, 1), 7)     # d = 1 on both sides
@example((1, 2, 3, 6), (5, -1, 2, 6), -1)     # equal denominators
@example((1, 2, 3, 6), (-5, 4, 3, 6), 1)      # equal denominators, a common factor left
@example((0, 0, 0, 5), (2, 0, 0, 4), 0)       # zero operands
def test_differences_and_negation_match_the_integer_sums(u, v, n):
    # the reference subtracts the Fraction coordinates read off integers()
    a, b = NFElem(*u), NFElem(*v)
    assert_canonical(a)
    assert as_fractions(a) == tuple(Fraction(x, u[3]) for x in u[:3])
    p, q = as_fractions(a), as_fractions(b)
    minus_p = tuple(-x for x in p)
    for got, want in ((a - b, ref_add(p, tuple(-x for x in q))), (a - a, (0, 0, 0)),
                      (n - a, ref_add((n, 0, 0), minus_p)), (a - n, ref_add(p, (-n, 0, 0))),
                      (-a, minus_p)):
        assert type(got) is NFElem
        assert_canonical(got)
        assert as_fractions(got) == want


@settings(max_examples=150, deadline=None)
@given(triples)
def test_inverse_matches_fraction_triples(p):
    a = frac_elem(*p)
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    inv = a.inverse()
    assert_canonical(inv)
    assert ref_mul(p, as_fractions(inv)) == ONE


@settings(max_examples=80, deadline=None)
@given(triples, st.integers(min_value=-5, max_value=5))
def test_pow_matches_fraction_triples(p, n):
    a = frac_elem(*p)
    if a.is_zero() and n < 0:
        return
    got = a ** n
    assert_canonical(got)
    if n >= 0:
        assert as_fractions(got) == ref_pow(p, n)
    else:
        assert ref_mul(as_fractions(got), ref_pow(p, -n)) == ONE


@given(triples)
def test_the_integers_are_read_only(p):
    a = frac_elem(*p)
    v = a.integers()
    for name in ("_v", "n0", "d"):
        with pytest.raises(AttributeError):
            setattr(a, name, 5)
    assert a.integers() == v


def test_zero_is_stored_canonically():
    for z in (NFElem(0), NFElem(0, 0, 0, 7), NFElem(0, 0, 0, -3), NFElem(1, 0, 0, 3) - NFElem(1, 0, 0, 3),
              NFElem(2, -5, 0, 5) * 0):
        assert_canonical(z)
        assert z.integers() == (0, 0, 0, 1)
