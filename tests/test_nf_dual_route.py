"""Dual route for the integer-backed Q(r) kernel.

NFElem stores (n0 + n1*r + n2*r^2)/d as integers.  The reference here works
on plain Fraction triples with the schoolbook product reduced by
r^3 = 1 - r^2, and shares no code with the kernel.  Hypothesis draws
coordinates of mixed signs and large bit lengths.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cgv.nf import NFElem

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


def assert_canonical(a):
    n0, n1, n2, d = a._v  # the stored form is what these invariants are about
    assert d > 0
    assert gcd(n0, n1, n2, d) == 1
    if not (n0 or n1 or n2):
        assert a._v == (0, 0, 0, 1)
    assert a.coords() == (Fraction(n0, d), Fraction(n1, d), Fraction(n2, d))


@settings(max_examples=200, deadline=None)
@given(triples, triples)
def test_add_mul_match_fraction_triples(p, q):
    a, b = NFElem(*p), NFElem(*q)
    assert_canonical(a)
    for got, want in ((a + b, ref_add(p, q)), (a - b, ref_add(p, tuple(-x for x in q))),
                      (a * b, ref_mul(p, q))):
        assert_canonical(got)
        assert got.coords() == want


@settings(max_examples=150, deadline=None)
@given(triples)
def test_inverse_matches_fraction_triples(p):
    a = NFElem(*p)
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    inv = a.inverse()
    assert_canonical(inv)
    assert ref_mul(p, inv.coords()) == ONE


@settings(max_examples=80, deadline=None)
@given(triples, st.integers(min_value=-5, max_value=5))
def test_pow_matches_fraction_triples(p, n):
    a = NFElem(*p)
    if a.is_zero() and n < 0:
        return
    got = a ** n
    assert_canonical(got)
    if n >= 0:
        assert got.coords() == ref_pow(p, n)
    else:
        assert ref_mul(got.coords(), ref_pow(p, -n)) == ONE


@given(triples)
def test_coordinates_are_read_only_fractions(p):
    a = NFElem(*p)
    assert all(type(c) is Fraction for c in (a.c0, a.c1, a.c2))
    assert (a.c0, a.c1, a.c2) == p
    for name in ("c0", "c1", "c2", "_v"):
        with pytest.raises(AttributeError):
            setattr(a, name, Fraction(5))


def test_zero_is_stored_canonically():
    for z in (NFElem(0), NFElem(Fraction(0, 7)), NFElem(Fraction(1, 3)) - NFElem(Fraction(1, 3)),
              NFElem(Fraction(2, 5), -1) * 0):
        assert_canonical(z)
        assert z._v == (0, 0, 0, 1)
