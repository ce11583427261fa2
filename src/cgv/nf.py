"""Exact arithmetic in the cubic field Q(r), where r^3 + r^2 - 1 = 0.

An element (n0 + n1*r + n2*r^2)/d is stored on the power basis (1, r, r^2)
as three integer numerators over one denominator (Cohen, GTM 138, 4.2),
with d > 0 and gcd(n0, n1, n2, d) = 1.  That form is unique, so structural
equality coincides with equality in the field.  A product reduces with
r^3 = 1 - r^2 and r^4 = -1 + r + r^2, written in row form: row k of
the multiplication-by-a matrix times b.  A product, sum or difference runs
its one gcd only when its denominator is not 1, a negation runs none, and
a difference x - y is formed directly, with no negated operand.  An inverse is
the first column of the adjugate of the multiplication-by-a matrix over
its determinant, the norm.  The integers are the only form of an element:
`NFElem(n0, n1, n2, d)` builds one from them and `integers()` reads them
back.  `nf_str` prints from them directly: it writes each nonzero
numerator over d itself, with one gcd (none when d = 1), and joins only a
print of two or three components.  This module also holds the one term
formatter, `term_str`, which takes a printed coefficient and a ready
monomial string, and the one sign joiner, `join_terms`, which joins a list
of terms with one join; `MPoly.__str__` and `UPoly.to_str` print their
terms through both.  The single real root of x^3 + x^2 - 1 is r ~ 0.7548776662.
"""

from __future__ import annotations

from math import gcd


class NFElem:
    """The element (n0 + n1*r + n2*r^2)/d of Q(r), from ints with d != 0."""

    # _v = (n0, n1, n2, d), normalised: d > 0 and gcd(n0, n1, n2, d) = 1
    __slots__ = ("_v",)

    def __new__(cls, n0, n1=0, n2=0, d=1):
        if not (type(n0) is int and type(n1) is int and type(n2) is int and type(d) is int):
            raise TypeError(f"NFElem takes ints, not {(n0, n1, n2, d)!r}")
        if not d:
            raise ZeroDivisionError("NFElem denominator is 0")
        return _elem(n0, n1, n2, d)

    def __setattr__(self, name, value):
        raise AttributeError("NFElem is immutable")

    # -- coercion ------------------------------------------------------

    @staticmethod
    def coerce(v) -> "NFElem":
        if (out := _as_nfelem(v)) is None:
            raise TypeError(f"cannot coerce {v!r} to NFElem")
        return out

    def integers(self) -> tuple:
        """The stored (n0, n1, n2, d): d > 0 and gcd(n0, n1, n2, d) = 1."""
        return self._v

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        v = self._v
        return not (v[0] or v[1] or v[2])

    def __bool__(self):
        return not self.is_zero()

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        if type(other) is not NFElem and (other := _as_nfelem(other)) is None:
            return NotImplemented
        a0, a1, a2, ad = self._v
        b0, b1, b2, bd = other._v
        if ad == bd:
            return _elem(a0 + b0, a1 + b1, a2 + b2, ad)
        return _elem(a0 * bd + b0 * ad, a1 * bd + b1 * ad, a2 * bd + b2 * ad, ad * bd)

    __radd__ = __add__

    def __neg__(self):
        # negating the numerators keeps d > 0 and the gcd 1
        n0, n1, n2, d = self._v
        a = _new(NFElem)
        _set_v(a, (-n0, -n1, -n2, d))
        return a

    def __sub__(self, other):
        if type(other) is not NFElem and (other := _as_nfelem(other)) is None:
            return NotImplemented
        a0, a1, a2, ad = self._v
        b0, b1, b2, bd = other._v
        if ad == bd:
            return _elem(a0 - b0, a1 - b1, a2 - b2, ad)
        return _elem(a0 * bd - b0 * ad, a1 * bd - b1 * ad, a2 * bd - b2 * ad, ad * bd)

    def __rsub__(self, other):
        # other - self for an int other, converted once; an NFElem other took __sub__
        if (other := _as_nfelem(other)) is None:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other):
        if type(other) is not NFElem and (other := _as_nfelem(other)) is None:
            return NotImplemented
        a0, a1, a2, ad = self._v
        b0, b1, b2, bd = other._v
        # r^3 = 1 - r^2 and r^4 = -1 + r + r^2, in row form: row k of the
        # multiplication-by-a matrix times b (mpoly._mul_terms repeats this rule)
        a12 = a1 - a2
        return _elem(a0 * b0 + a2 * b1 + a12 * b2,
                     a1 * b0 + a0 * b1 + a2 * b2,
                     a2 * b0 + a12 * b1 + (a0 - a12) * b2, ad * bd)

    __rmul__ = __mul__

    def inverse(self) -> "NFElem":
        return nf_invert(self)

    def __truediv__(self, other):
        if type(other) is not NFElem and (other := _as_nfelem(other)) is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        # other / self for an int other; an NFElem other took __truediv__
        if (other := _as_nfelem(other)) is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int) -> "NFElem":
        # a negative power is a power of the inverse; binary_power checks n
        if type(n) is int and n < 0:
            return binary_power(self.inverse(), -n, NF_ONE)
        return binary_power(self, n, NF_ONE)

    # -- equality / hashing ---------------------------------------------

    def __eq__(self, other):
        if type(other) is not NFElem and (other := _as_nfelem(other)) is None:
            return NotImplemented
        return self._v == other._v

    def __hash__(self):
        # an integer element hashes like the equal int
        n0, n1, n2, d = self._v
        return hash(n0) if d == 1 and not (n1 or n2) else hash(self._v)

    # -- printing --------------------------------------------------------

    def __str__(self):
        return nf_str(self)

    def __repr__(self):
        return "NFElem({}, {}, {}, {})".format(*self._v)


_new = object.__new__
_set_v = NFElem._v.__set__


def _as_nfelem(v):
    """v as an NFElem: itself, or an int as in the constructor (a bool is
    refused); None for any other value."""
    if isinstance(v, NFElem):
        return v
    return _elem(v, 0, 0, 1) if type(v) is int else None


def _elem(n0, n1, n2, d) -> NFElem:
    """(n0 + n1*r + n2*r^2)/d, stored with d > 0 and no factor common to all four.
    With d = 1 that is already so, and no gcd is taken."""
    if d != 1:
        g = gcd(n0, n1, n2, d)
        if d < 0:
            g = -g
        if g != 1:
            n0, n1, n2, d = n0 // g, n1 // g, n2 // g, d // g
    a = _new(NFElem)
    _set_v(a, (n0, n1, n2, d))
    return a


def binary_power(base, n: int, one):
    """base**n for n >= 0 by square-and-multiply.

    Takes bit_length(n) - 1 squarings and popcount(n) - 1 other products;
    `one` is returned for n = 0.  n must be an int, not a bool (TypeError),
    and not negative (ValueError).
    """
    if type(n) is not int:
        raise TypeError("exponent must be an integer")
    if n < 0:
        raise ValueError("negative exponent")
    out = None
    while True:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if not n:
            return one if out is None else out
        base = base * base


NF_ZERO = NFElem(0)
NF_ONE = NFElem(1)
NF_R = NFElem(0, 1)
# the minimal polynomial x^3 + x^2 - 1 of r, coefficients ascending: the rule
# r^3 = 1 - r^2 that NFElem.__mul__ reduces with
R_MINIMAL_POLY = (-1, 0, 1, 1)


def nf_invert(a: NFElem) -> NFElem:
    """Multiplicative inverse in Q(r), from the norm and the adjugate.

    With a = (n0 + n1*r + n2*r^2)/d, the columns of M below are the
    coordinates of n*1, n*r and n*r^2.  n^-1 solves M x = e0, so it is the
    first column of adj(M) over det(M) = N(n), and a^-1 = d * n^-1.  An
    NFElem is read as it is; anything else goes through `NFElem.coerce`.
    """
    if type(a) is not NFElem:
        a = NFElem.coerce(a)
    n0, n1, n2, d = a._v
    if not (n0 or n1 or n2):
        raise ZeroDivisionError("cannot invert 0 in Q(r)")
    # M = [[n0, n2, n1 - n2], [n1, n0, n2], [n2, n1 - n2, n0 - n1 + n2]]
    m02, m22 = n1 - n2, n0 - n1 + n2
    x0 = n0 * m22 - n2 * m02
    x1 = n2 * n2 - n1 * m22
    x2 = n1 * m02 - n0 * n2
    norm = n0 * x0 + n2 * x1 + m02 * x2
    return _elem(d * x0, d * x1, d * x2, norm)


def term_str(coeff: str, mono: str) -> str:
    """One printed term: the printed coefficient times the printed monomial
    `mono` ("" for none); a coefficient that is a sum is parenthesized."""
    if not mono:
        return f"({coeff})" if " " in coeff else coeff
    if coeff == "1":
        return mono
    if coeff == "-1":
        return "-" + mono
    return f"({coeff})*{mono}" if " " in coeff else f"{coeff}*{mono}"


def join_terms(terms: list) -> str:
    """Join printed terms with explicit signs, "a + b - c"; "0" for no terms.

    A term never holds " + -": every sum inside one was joined here first,
    and a negative term starts with its sign.  So one join with " + " and one
    replace of " + -" write every sign."""
    return " + ".join(terms).replace(" + -", " - ") if terms else "0"


def nf_str(a: NFElem) -> str:
    """Canonical print: ascending powers of r, explicit signs, and each nonzero
    numerator over d in lowest terms, "n/d", or "n" where d divides it.

    Each component is written here, with one gcd (none when d = 1): "n" or
    "n/d", then "r", "-r", "n*r" or "n/d*r" (and the same for r^2); only a
    print of two or three components goes through `join_terms`."""
    n0, n1, n2, d = a._v
    terms = []
    if n0:
        if d == 1:
            terms.append(f"{n0}")
        else:
            g = gcd(n0, d)
            terms.append(f"{n0 // g}" if g == d else f"{n0 // g}/{d // g}")
    for n, mono in (n1, "r"), (n2, "r^2"):
        if n:
            if d != 1:
                g = gcd(n, d)
                if g != d:
                    terms.append(f"{n // g}/{d // g}*{mono}")
                    continue
                n //= g
            terms.append(mono if n == 1 else "-" + mono if n == -1 else f"{n}*{mono}")
    return terms[0] if len(terms) == 1 else join_terms(terms)
