"""Dense univariate polynomials over an exact field (Fraction or NFElem)."""

from __future__ import annotations

from fractions import Fraction

from .nf import NFElem, binary_power, join_terms, term_str


def _is_scalar(v):
    return isinstance(v, (int, Fraction, NFElem))


class UPoly:
    """Coefficients stored ascending; the zero polynomial is the empty tuple."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UPoly is immutable")

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        """Degree, with deg 0 = -1 by convention."""
        return len(self.coeffs) - 1

    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, UPoly):
            return self.coeffs == other.coeffs
        if _is_scalar(other):
            return self == UPoly((other,))
        return NotImplemented

    def __hash__(self):
        # degree <= 0 hashes like the scalar it equals: its coefficient, or 0
        return hash(self.coeffs[0] if len(self.coeffs) == 1 else self.coeffs or 0)

    def __add__(self, other):
        if _is_scalar(other):
            other = UPoly((other,))
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else 0
            b = other.coeffs[i] if i < len(other.coeffs) else 0
            out.append(a + b)
        return UPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return UPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if _is_scalar(other):
            other = UPoly((other,))
        return self + (-other)

    def __rsub__(self, other):
        return UPoly((other,)) - self

    def __mul__(self, other):
        if _is_scalar(other):
            if not other:
                return UPoly()
            return UPoly(tuple(c * other for c in self.coeffs))
        if not self.coeffs or not other.coeffs:
            return UPoly()
        out = [self.coeffs[0] * other.coeffs[0] * 0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative exponent")
        return binary_power(self, n, UPoly((1,)))

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dg = other.degree()
        lead_inv = Fraction(1) / other.lead()
        q = [self.coeffs[0] * 0 if self.coeffs else 0] * max(len(rem) - dg, 0)
        for k in range(len(rem) - 1, dg - 1, -1):
            if rem[k]:
                c = rem[k] * lead_inv
                q[k - dg] = c
                for j in range(dg + 1):
                    rem[k - dg + j] = rem[k - dg + j] - c * other.coeffs[j]
        return UPoly(q), UPoly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        return self * (Fraction(1) / self.lead())

    def derivative(self):
        return UPoly(tuple(c * k for k, c in enumerate(self.coeffs) if k >= 1))

    def __call__(self, v):
        out = None
        for c in reversed(self.coeffs):
            out = c if out is None else out * v + c
        return out if out is not None else v * 0

    def to_str(self, var: str = "x") -> str:
        return join_terms(term_str(str(c), ((var, k),))
                          for k, c in reversed(tuple(enumerate(self.coeffs))) if c)

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"UPoly({list(self.coeffs)!r})"


def upoly_gcd(f: UPoly, g: UPoly) -> UPoly:
    """Monic gcd; rejects gcd(0, 0)."""
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def squarefree_part(f: UPoly) -> UPoly:
    """f / gcd(f, f'), monic; the result has no repeated roots."""
    if f.is_zero():
        raise ValueError("squarefree part of 0 is undefined")
    if f.degree() == 0:
        return f.monic()
    g = upoly_gcd(f, f.derivative())
    q, rem = divmod(f, g)
    if not rem.is_zero():
        raise ArithmeticError("gcd does not divide its input")
    return q.monic()
