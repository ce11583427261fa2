"""Integer lattice arithmetic on span{H~, E_1..E_4} with H~.H~ = deg S,
H~.E_i = 0 and E_i.E_j = -delta_ij.

The canonical class is H~ - sum(E_i); pluricanonical multiplicities come
from adjunction on the elliptic exceptional curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class DivisorClass:
    h: int
    e: tuple

    def __post_init__(self):
        object.__setattr__(self, "e", tuple(int(c) for c in self.e))

    def __add__(self, other):
        return DivisorClass(self.h + other.h, tuple(a + b for a, b in zip(self.e, other.e)))

    def __sub__(self, other):
        return DivisorClass(self.h - other.h, tuple(a - b for a, b in zip(self.e, other.e)))

    def __neg__(self):
        return DivisorClass(-self.h, tuple(-a for a in self.e))

    def __rmul__(self, n: int):
        return DivisorClass(n * self.h, tuple(n * a for a in self.e))

    __mul__ = __rmul__


class IntersectionLattice:
    """The pairing is determined by the hypersurface degree (5 for a quintic)."""

    def __init__(self, degree: int = 5, exceptional: int = 4):
        self.degree = degree
        self.n_exceptional = exceptional

    def zero(self):
        return DivisorClass(0, (0,) * self.n_exceptional)

    def hyperplane(self):
        return DivisorClass(1, (0,) * self.n_exceptional)

    def exceptional(self, i: int):
        e = [0] * self.n_exceptional
        e[i] = 1
        return DivisorClass(0, tuple(e))

    def sum_exceptional(self):
        return DivisorClass(0, (1,) * self.n_exceptional)

    def canonical(self):
        return DivisorClass(1, (-1,) * self.n_exceptional)

    def pair(self, d1: DivisorClass, d2: DivisorClass) -> int:
        return self.degree * d1.h * d2.h - sum(a * b for a, b in zip(d1.e, d2.e))

    def adjunction_genus(self, d: DivisorClass) -> Fraction:
        """(D.D + K.D)/2 + 1."""
        k = self.canonical()
        return Fraction(self.pair(d, d) + self.pair(k, d), 2) + 1

    def exceptional_multiplicity(self, n: int) -> int:
        """The coefficient n_i in nK = pull-back of the degree-n system + n_i * sum(E_i).

        The exceptional curves are elliptic, so adjunction gives
        0 = E_i^2 + K.E_i, hence K.E_i = 1 and nK.E_i = n; pairing the
        decomposition with E_i gives n_i * E_i^2 = n, so n_i = -n.
        """
        if n < 1:
            raise ValueError("the multiple n must be >= 1")
        k = self.canonical()
        e0 = self.exceptional(0)
        k_dot_e = self.pair(k, e0)
        if self.pair(e0, e0) + k_dot_e != 0:
            raise ArithmeticError("the exceptional curve is not elliptic under this pairing")
        # nK.E_i = n*k_dot_e must equal n_i * E_i^2
        return (n * k_dot_e) // self.pair(e0, e0)


DEFAULT_LATTICE = IntersectionLattice()

