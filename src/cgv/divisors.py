"""Integer lattice arithmetic on span{H~, E_1..E_4} with H~.H~ = deg S = 5,
H~.E_i = 0 and E_i.E_j = -delta_ij.

The canonical class is H~ - sum(E_i); pluricanonical multiplicities come
from adjunction on the elliptic exceptional curves.
"""

from __future__ import annotations

from collections import namedtuple


class DivisorClass(namedtuple("DivisorClass", "h e")):
    """h H~ + sum(e_i E_i), with e a tuple of four ints."""

    __slots__ = ()

    def __new__(cls, h: int, e):
        return super().__new__(cls, h, tuple(int(c) for c in e))

    def __add__(self, other):
        return DivisorClass(self.h + other.h, tuple(a + b for a, b in zip(self.e, other.e)))

    def __sub__(self, other):
        return DivisorClass(self.h - other.h, tuple(a - b for a, b in zip(self.e, other.e)))

    def __neg__(self):
        return DivisorClass(-self.h, tuple(-a for a in self.e))

    def __rmul__(self, n: int):
        return DivisorClass(n * self.h, tuple(n * a for a in self.e))

    __mul__ = __rmul__


# the quintic S, with four exceptional curves
DEGREE = 5
HYPERPLANE = DivisorClass(1, (0, 0, 0, 0))
SUM_EXCEPTIONAL = DivisorClass(0, (1, 1, 1, 1))
CANONICAL = HYPERPLANE - SUM_EXCEPTIONAL


def exceptional(i: int) -> DivisorClass:
    return DivisorClass(0, tuple(int(k == i) for k in range(4)))


def pair(d1: DivisorClass, d2: DivisorClass) -> int:
    return DEGREE * d1.h * d2.h - sum(a * b for a, b in zip(d1.e, d2.e))


def adjunction_genus(d: DivisorClass) -> int:
    """(D.D + K.D)/2 + 1.  D.D + K.D = 5h(h + 1) - sum(e_i(e_i - 1)) is even, as
    h(h + 1) and each e_i(e_i - 1) are, so the halving is exact."""
    return (pair(d, d) + pair(CANONICAL, d)) // 2 + 1


def exceptional_multiplicity(n: int) -> int:
    """The coefficient n_i in nK = pull-back of the degree-n system + n_i * sum(E_i).

    The exceptional curves are elliptic, so adjunction gives
    0 = E_i^2 + K.E_i, hence K.E_i = 1 and nK.E_i = n; pairing the
    decomposition with E_i gives n_i * E_i^2 = n, so n_i = -n.
    """
    if n < 1:
        raise ValueError("the multiple n must be >= 1")
    e0 = exceptional(0)
    k_dot_e = pair(CANONICAL, e0)
    if pair(e0, e0) + k_dot_e != 0:
        raise ArithmeticError("the exceptional curve is not elliptic under this pairing")
    # nK.E_i = n*k_dot_e must equal n_i * E_i^2
    return (n * k_dot_e) // pair(e0, e0)
