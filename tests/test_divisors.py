import random
from fractions import Fraction

import pytest

import cgv.divisors as lat
from cgv.divisors import DivisorClass, adjunction_genus, exceptional_multiplicity


def test_exceptional_self_intersection():
    for i in range(4):
        e = lat.exceptional(i)
        assert lat.pair(e, e) == -1


def test_hyperplane_pairings():
    h = lat.HYPERPLANE
    assert lat.pair(h, h) == 5
    for i in range(4):
        assert lat.pair(h, lat.exceptional(i)) == 0


def test_canonical_square_is_one():
    k = lat.CANONICAL
    assert k == lat.HYPERPLANE - lat.SUM_EXCEPTIONAL
    assert lat.pair(k, k) == 1


def test_exceptional_multiplicities():
    assert exceptional_multiplicity(1) == -1
    assert exceptional_multiplicity(2) == -2
    assert exceptional_multiplicity(3) == -3
    assert exceptional_multiplicity(5) == -5


def test_exceptional_multiplicity_guards_and_linearity():
    with pytest.raises(ValueError):
        exceptional_multiplicity(0)
    with pytest.raises(ValueError):
        exceptional_multiplicity(-2)
    rng = random.Random(67)
    for _ in range(20):
        n1, n2 = rng.randint(1, 50), rng.randint(1, 50)
        assert exceptional_multiplicity(n1 + n2) == exceptional_multiplicity(n1) + exceptional_multiplicity(n2)


def test_nk_two_constructions_agree():
    k = lat.CANONICAL
    for n in (1, 2, 3, 5):
        direct = n * k
        rebuilt = n * lat.HYPERPLANE + exceptional_multiplicity(n) * lat.SUM_EXCEPTIONAL
        assert direct == rebuilt
        assert lat.pair(direct, direct) == n * n


def test_adjunction_genus_values():
    assert adjunction_genus(lat.exceptional(0)) == 1
    assert adjunction_genus(lat.CANONICAL) == 2
    assert adjunction_genus(DivisorClass(0, (0,) * 4)) == 1
    # K - 2E has (K-2E)^2 = 1 - 4... exercised via the formula directly
    d = lat.CANONICAL - 2 * lat.exceptional(1)
    assert adjunction_genus(d) == Fraction(lat.pair(d, d) + lat.pair(lat.CANONICAL, d), 2) + 1


def test_adjunction_numerator_is_even():
    # D.D + K.D = 5h(h + 1) - sum(e_i(e_i - 1)), so the integer halving is exact
    rng = random.Random(56)
    for _ in range(500):
        d = DivisorClass(rng.randint(-9, 9), [rng.randint(-9, 9) for _ in range(4)])
        numerator = lat.pair(d, d) + lat.pair(lat.CANONICAL, d)
        assert numerator == 5 * d.h * (d.h + 1) - sum(e * (e - 1) for e in d.e)
        assert numerator % 2 == 0
        g = adjunction_genus(d)
        assert type(g) is int and g == Fraction(numerator, 2) + 1


def test_pair_symmetric_bilinear():
    rng = random.Random(71)
    for _ in range(60):
        d1 = DivisorClass(rng.randint(-5, 5), tuple(rng.randint(-5, 5) for _ in range(4)))
        d2 = DivisorClass(rng.randint(-5, 5), tuple(rng.randint(-5, 5) for _ in range(4)))
        d3 = DivisorClass(rng.randint(-5, 5), tuple(rng.randint(-5, 5) for _ in range(4)))
        n = rng.randint(-4, 4)
        assert lat.pair(d1, d2) == lat.pair(d2, d1)
        assert lat.pair(d1 + d3, d2) == lat.pair(d1, d2) + lat.pair(d3, d2)
        assert lat.pair(n * d1, d2) == n * lat.pair(d1, d2)


def test_divisor_arithmetic():
    d = DivisorClass(2, (1, 0, -1, 3))
    assert -d == DivisorClass(-2, (-1, 0, 1, -3))
    assert d - d == DivisorClass(0, (0, 0, 0, 0))
    assert lat.pair(d, d) == 5 * 4 - (1 + 0 + 1 + 9)
