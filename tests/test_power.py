"""Square-and-multiply in the three `__pow__`: exact values, few products."""

import pytest

from cgv.mpoly import MPoly
from cgv.nf import NFElem
from cgv.upoly import UPoly

BASES = [
    NFElem(-21, 14, 10, 14),  # -3/2 + r + 5/7*r^2
    MPoly.var("X") + NFElem(0, 1) * MPoly.var("m") + 2,
    UPoly((1, NFElem(-2, 0, 0, 3), 1)),
]


@pytest.mark.parametrize("base", BASES, ids=lambda b: type(b).__name__)
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 16])
def test_pow_product_count(base, n, monkeypatch):
    cls = type(base)
    mul = cls.__mul__
    calls = []

    def counting_mul(a, b):
        calls.append(1)
        return mul(a, b)

    expected = base
    for _ in range(n - 1):
        expected = expected * base
    monkeypatch.setattr(cls, "__mul__", counting_mul)
    got = base ** n
    assert len(calls) <= n.bit_length() - 1 + n.bit_count()
    monkeypatch.undo()
    assert got == expected


@pytest.mark.parametrize("base", BASES, ids=lambda b: type(b).__name__)
def test_pow_zero_is_one(base):
    assert base ** 0 == 1
