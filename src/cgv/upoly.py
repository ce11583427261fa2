"""Dense univariate polynomials over Q(r).

The public `UPoly(coeffs)` coerces each coefficient to NFElem; arithmetic
builds its results with the private `_upoly`, which only drops trailing
zeros.  A difference is formed coefficientwise, with no negated operand,
and a product, quotient or derivative multiplies or adds no zero coefficient.
"""

from __future__ import annotations

from .nf import NF_ONE, NF_ZERO, NFElem, binary_power, join_terms, term_str


def _as_upoly(v):
    """v itself, the constant polynomial v for an NFElem or an int (not a
    bool), or None for any other value."""
    if isinstance(v, UPoly):
        return v
    return UPoly((v,)) if isinstance(v, NFElem) or type(v) is int else None


class UPoly:
    """Coefficients in Q(r), stored ascending as NFElem (int coefficients
    are coerced); the zero polynomial is the empty tuple."""

    __slots__ = ("coeffs",)

    def __new__(cls, coeffs):
        return _upoly([NFElem.coerce(c) for c in coeffs])

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
        if (other := _as_upoly(other)) is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # degree <= 0 hashes like the scalar it equals: its coefficient, or 0
        return hash(self.coeffs[0] if len(self.coeffs) == 1 else self.coeffs or 0)

    def __add__(self, other):
        if (other := _as_upoly(other)) is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        n = min(len(a), len(b))
        return _upoly([x + y for x, y in zip(a, b)] + list(a[n:] + b[n:]))

    __radd__ = __add__

    def __neg__(self):
        return _upoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if (other := _as_upoly(other)) is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        n = min(len(a), len(b))
        return _upoly([x - y for x, y in zip(a, b)] + list(a[n:]) + [-y for y in b[n:]])

    def __rsub__(self, other):
        # other - self for an int or NFElem other, converted once
        if (other := _as_upoly(other)) is None:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other):
        if (other := _as_upoly(other)) is None:
            return NotImplemented
        # only nonzero coefficients are multiplied, and each output coefficient
        # starts at its first term product
        b_terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        out = {}
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in b_terms:
                    k, p = i + j, a * b
                    out[k] = out[k] + p if k in out else p
        return _upoly([out.get(k, NF_ZERO) for k in range(len(self.coeffs) + len(other.coeffs) - 1)])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        # binary_power refuses a negative or non-int n
        return binary_power(self, n, _upoly([NF_ONE]))

    def __divmod__(self, other):
        if (other := _as_upoly(other)) is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dg = other.degree()
        lead_inv = other.lead().inverse()
        # the lead term cancels by construction: only the nonzero coefficients
        # below it are subtracted, and the remainder is the low dg coefficients
        low = [(j, d) for j, d in enumerate(other.coeffs[:dg]) if d]
        q = [NF_ZERO] * max(len(rem) - dg, 0)
        for k in range(len(rem) - 1, dg - 1, -1):
            if rem[k]:
                c = rem[k] * lead_inv
                q[k - dg] = c
                for j, d in low:
                    rem[k - dg + j] = rem[k - dg + j] - c * d
        return _upoly(q), _upoly(rem[:dg])

    def __mod__(self, other):
        qr = self.__divmod__(other)
        return qr if qr is NotImplemented else qr[1]

    def monic(self):
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        # only the nonzero coefficients are scaled, with no UPoly product
        inv = self.lead().inverse()
        return _upoly([c * inv if c else c for c in self.coeffs])

    def derivative(self):
        return _upoly([c * k if c else c for k, c in enumerate(self.coeffs) if k])

    def to_str(self, var: str = "x") -> str:
        """Descending powers of `var`."""
        terms = [term_str(str(c), f"{var}^{k}" if k > 1 else var if k else "")
                 for k, c in enumerate(self.coeffs) if c]
        terms.reverse()
        return join_terms(terms)

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"UPoly({list(self.coeffs)!r})"


_set_coeffs = UPoly.coeffs.__set__


def _upoly(cs: list) -> UPoly:
    """A UPoly on a list of NFElem, trailing zeros dropped; nothing is coerced."""
    while cs and not cs[-1]:
        cs.pop()
    p = object.__new__(UPoly)
    _set_coeffs(p, tuple(cs))
    return p


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
    g = upoly_gcd(f, f.derivative())
    q, rem = divmod(f, g)
    if not rem.is_zero():
        raise ArithmeticError("gcd does not divide its input")
    return q.monic()
