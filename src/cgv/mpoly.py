"""Sparse polynomials over Q(r) in the variables X, Y, Z, T and the parameter m.

Terms map exponent 5-tuples to NFElem coefficients; zero coefficients are
never stored, so structural equality is ring equality.  The canonical
term order is graded lexicographic with X > Y > Z > T > m.

The public constructor `MPoly(terms)` validates: every exponent must be a
sequence of 5 non-negative ints (else ValueError), and every coefficient is
coerced to NFElem.  Every arithmetic result but a product is built by the
private `_mpoly`, the counterpart of `nf._elem`, which takes a dict that is
already of exponent tuples and NFElem coefficients and only drops the
zeros.  A product (`_mul_terms`) adds the unpacked exponent tuples.  With a
one-term operand it multiplies the coefficients with `NFElem.__mul__`;
otherwise it sums the term pairs of each output monomial on the integers,
reducing with the row-form rule that `NFElem.__mul__` also writes,
normalises each output coefficient once with `nf._elem` and deletes a sum
that cancelled to 0, so `MPoly.__mul__` wraps its dict as it is.  A
dual-route test ties the two copies of the rule together.  A difference
p - q subtracts the coefficients of q in one pass, with no negated operand;
a scalar minus p converts the scalar once and subtracts the same way.
`substitute` maps each term to one term under a one-term image, a scalar
or an identity entry among them, so restricting to a line such as
Z = -X, T = -Y takes no product of polynomials; only images of two or more
terms go through `_mul_terms`.
"""

from __future__ import annotations

from math import gcd

from .nf import NFElem, NF_ONE, NF_ZERO, _elem, binary_power, join_terms, nf_str, term_str
from .upoly import UPoly, _upoly

VARS = ("X", "Y", "Z", "T", "m")
VAR_INDEX = {v: i for i, v in enumerate(VARS)}
GEOM_VARS = VARS[:4]
NVARS = len(VARS)
ZERO_EXP = (0,) * NVARS
# the exponent tuple of each variable
_VAR_EXP = {v: tuple(int(w == v) for w in VARS) for v in VARS}


def _mul_terms(a, b):
    """Product of two term dicts, as a term dict with no zero coefficient.

    With a one-term operand no two term pairs share a monomial, so each
    coefficient is one `NFElem.__mul__`, never 0 since Q(r) has no zero
    divisors.  Otherwise each term pair's product is formed on the integers
    in the row form of `NFElem.__mul__` (r^3 = 1 - r^2, r^4 = -1 + r + r^2;
    the differences a1 - a2 and a0 - a1 + a2 are taken once per left term),
    over the denominator ad*bd, and added unnormalised into its monomial's
    (n0, n1, n2, d): an equal d adds the numerators, another d brings both
    sums to the lcm.  `_elem` then normalises each output coefficient once,
    in place, and a sum that cancelled to 0 is deleted (Johnson, "Sparse
    polynomial arithmetic", 1974).  The operands are not first cleared to a
    common denominator: that would widen every final gcd.  The reduction rule
    is written both here and in `NFElem.__mul__`; the dual-route product test
    (`test_product_matches_sympy`) ties the two together.
    """
    if len(a) != 1:
        a, b = b, a
    if len(a) == 1:
        ((x1, y1, z1, t1, m1), c1), = a.items()
        return {(x1 + x2, y1 + y2, z1 + z2, t1 + t2, m1 + m2): c1 * c2
                for (x2, y2, z2, t2, m2), c2 in b.items()}
    acc = {}
    get = acc.get
    b_items = [(e, c.integers()) for e, c in b.items()]
    for (x1, y1, z1, t1, m1), c1 in a.items():
        a0, a1, a2, ad = c1.integers()
        # the two differences of the row form, once per left term
        a12 = a1 - a2
        a012 = a0 - a12
        for (x2, y2, z2, t2, m2), (b0, b1, b2, bd) in b_items:
            e = (x1 + x2, y1 + y2, z1 + z2, t1 + t2, m1 + m2)
            n0 = a0 * b0 + a2 * b1 + a12 * b2
            n1 = a1 * b0 + a0 * b1 + a2 * b2
            n2 = a2 * b0 + a12 * b1 + a012 * b2
            d = ad * bd
            s = get(e)
            if s is None:
                acc[e] = (n0, n1, n2, d)
            else:
                s0, s1, s2, sd = s
                if sd == d:
                    acc[e] = (s0 + n0, s1 + n1, s2 + n2, d)
                else:
                    g = gcd(sd, d)
                    u, v = d // g, sd // g
                    acc[e] = (s0 * u + n0 * v, s1 * u + n1 * v, s2 * u + n2 * v, sd * u)
    # normalised in place: each sum is freed as its coefficient replaces it,
    # and a sum that cancelled to 0 is deleted
    cancelled = []
    for e, (n0, n1, n2, d) in acc.items():
        if n0 or n1 or n2:
            acc[e] = _elem(n0, n1, n2, d)
        else:
            cancelled.append(e)
    for e in cancelled:
        del acc[e]
    return acc


def _exponent(exp) -> tuple:
    """`exp` as an exponent tuple; ValueError unless it is 5 non-negative ints."""
    try:
        e = tuple(exp)
    except TypeError:
        e = ()
    if len(e) != NVARS or not all(type(k) is int and k >= 0 for k in e):
        raise ValueError(f"an exponent must be {NVARS} non-negative ints, not {exp!r}")
    return e


class MPoly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exp, c in terms.items():
                exp = _exponent(exp)
                c = NFElem.coerce(c)
                if not c.is_zero():
                    clean[exp] = c
        _set_terms(self, clean)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def constant(cls, c) -> "MPoly":
        return _mpoly({ZERO_EXP: NFElem.coerce(c)})

    @classmethod
    def var(cls, name: str) -> "MPoly":
        if (e := _VAR_EXP.get(name)) is None:
            raise KeyError(f"unknown variable {name!r}")
        return _mpoly({e: NF_ONE})

    @staticmethod
    def coerce(v) -> "MPoly":
        if (out := _as_mpoly(v)) is None:
            raise TypeError(f"cannot coerce {v!r} to MPoly")
        return out

    # -- structure -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return all(e == ZERO_EXP for e in self.terms)

    def as_nfelem(self) -> NFElem:
        if not self.terms:
            return NF_ZERO
        if not self.is_constant():
            raise ValueError(f"not a scalar: {self}")
        return self.terms[ZERO_EXP]

    def is_homogeneous(self, degree: int) -> bool:
        """Homogeneity of the given degree in the geometric variables X, Y, Z, T."""
        return all(sum(e[:4]) == degree for e in self.terms)

    def involves(self, name: str) -> bool:
        i = VAR_INDEX[name]
        return any(e[i] for e in self.terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if (other := _as_mpoly(other)) is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return _mpoly(out)

    __radd__ = __add__

    def __neg__(self):
        return _mpoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if (other := _as_mpoly(other)) is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            out[e] = -c if s is None else s - c
        return _mpoly(out)

    def __rsub__(self, other):
        # other - self for an int or NFElem other, converted once
        if (other := _as_mpoly(other)) is None:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other):
        if (other := _as_mpoly(other)) is None:
            return NotImplemented
        # _mul_terms drops its cancelled sums, so no second zero filter
        p = _new(MPoly)
        _set_terms(p, _mul_terms(self.terms, other.terms))
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int):
        # binary_power refuses a negative or non-int n
        return binary_power(self, n, MPoly.constant(1))

    def __eq__(self, other):
        if (other := _as_mpoly(other)) is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant hashes like its coefficient, so like an equal int
        if self.is_constant():
            return hash(self.terms.get(ZERO_EXP, 0))
        return hash(frozenset(self.terms.items()))

    # -- ring maps ---------------------------------------------------------

    def substitute(self, mapping) -> "MPoly":
        """Ring homomorphism sending each variable to its image.

        `mapping` takes variable names (a name outside VARS is a KeyError) to
        MPoly, NFElem or int; missing variables map to themselves.  A one-term
        image c*x^s maps each term to one term: the coefficient is multiplied
        by c^k, computed once per (variable, k) in a call, and the exponent is
        shifted by k*s.  A scalar is the case s = 0 and an identity entry the
        case c = 1, s = x, so they share that path; a coefficient c = 1 is
        never multiplied, and the image 1 leaves the term as it is.  A term
        with a positive exponent on a zero image is dropped before any
        product.  Only images of two or more terms multiply out, term by
        term, through `_mul_terms` and their MPoly powers.
        """
        for v in mapping:
            if v not in VAR_INDEX:
                raise KeyError(f"unknown variable {v!r}")
        zeros, monos, polys = [], [], []
        kept = [1] * NVARS   # 0 on each substituted variable
        for i, v in enumerate(VARS):
            img = mapping.get(v)
            if img is None:
                continue
            kept[i] = 0
            items = img.terms.items() if isinstance(img, MPoly) else ((ZERO_EXP, NFElem.coerce(img)),)
            if len(items) > 1:
                polys.append((i, img))
                continue
            (s, c), = items or ((ZERO_EXP, NF_ZERO),)   # the zero MPoly has no term
            if c.is_zero():
                zeros.append(i)
                continue
            # c*x^s as (i, c, s), with None for c = 1 and for s = 0
            c = None if c == NF_ONE else c
            s = None if s == ZERO_EXP else s
            if c is not None or s is not None:
                monos.append((i, c, s))
        k0, k1, k2, k3, k4 = kept
        powers = {}   # (variable index, k) -> c ** k, or a polynomial image ** k

        def power(i, img, k):
            p = powers.get((i, k))
            if p is None:
                p = powers[(i, k)] = img ** k
            return p

        terms = self.terms.items()
        for i in zeros:
            terms = [(e, c) for e, c in terms if not e[i]]
        out = {}
        get = out.get
        for e, c in terms:
            x, y, z, t, w = e
            x *= k0
            y *= k1
            z *= k2
            t *= k3
            w *= k4
            for i, a, s in monos:
                k = e[i]
                if k:
                    if a is not None:
                        c = c * power(i, a, k)
                    if s is not None:
                        sx, sy, sz, st, sw = s
                        x += k * sx
                        y += k * sy
                        z += k * sz
                        t += k * st
                        w += k * sw
            e0 = (x, y, z, t, w)
            if polys:
                acc = {e0: c}
                for i, img in polys:
                    k = e[i]
                    if k:
                        acc = _mul_terms(acc, power(i, img, k).terms)
                for en, cn in acc.items():
                    s = get(en)
                    out[en] = cn if s is None else s + cn
            else:
                s = get(e0)
                out[e0] = c if s is None else s + c
        return _mpoly(out)

    def partial(self, name: str) -> "MPoly":
        """Formal partial derivative."""
        i = VAR_INDEX[name]
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if not k:
                continue
            ne = list(e)
            ne[i] = k - 1
            out[tuple(ne)] = c * k
        return _mpoly(out)

    def coeff_of_geom(self, geom_exp) -> "MPoly":
        """Coefficient of the X,Y,Z,T-monomial, as a polynomial in m."""
        geom_exp = tuple(geom_exp)
        out = {}
        for e, c in self.terms.items():
            if e[:4] == geom_exp:
                out[(0, 0, 0, 0, e[4])] = c
        return _mpoly(out)

    def geom_support(self):
        """Sorted list of distinct X,Y,Z,T exponent vectors."""
        return sorted({e[:4] for e in self.terms}, reverse=True)

    def m_upoly(self) -> UPoly:
        """View a polynomial involving only m as a UPoly over NFElem."""
        cs = {}
        for e, c in self.terms.items():
            if any(e[:4]):
                raise ValueError("polynomial involves geometric variables")
            cs[e[4]] = c
        n = max(cs, default=-1) + 1
        return _upoly([cs.get(k, NF_ZERO) for k in range(n)])

    def div_by_var(self, name: str):
        """Exact division by a variable: (quotient, True) or (self, False)."""
        i = VAR_INDEX[name]
        out = {}
        for e, c in self.terms.items():
            if e[i] < 1:
                return self, False
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = c
        return _mpoly(out), True

    # -- printing ------------------------------------------------------------

    def __str__(self):
        """Graded lex, highest first, with X > Y > Z > T > m."""
        terms = self.terms
        order = sorted(terms, reverse=True)
        order.sort(key=sum, reverse=True)   # stable: lex order holds within a degree
        if not order:
            return "0"
        # "*v^k" for each variable v and each exponent k that occurs, so
        # printing costs O(terms) and not O(degree)
        px, py, pz, pt, pm = ({k: f"*{v}^{k}" if k > 1 else "*" + v if k else "" for k in set(ks)}
                              for v, ks in zip(VARS, zip(*order)))
        return join_terms([
            term_str(nf_str(terms[e]), (px[e[0]] + py[e[1]] + pz[e[2]] + pt[e[3]] + pm[e[4]])[1:])
            for e in order])

    def __repr__(self):
        return f"MPoly<{self}>"


_new = object.__new__
_set_terms = MPoly.terms.__set__


def _as_mpoly(v):
    """v itself, the constant polynomial v for an NFElem or an int (not a
    bool), or None for any other value."""
    if isinstance(v, MPoly):
        return v
    return MPoly.constant(v) if isinstance(v, NFElem) or type(v) is int else None


def _mpoly(terms) -> MPoly:
    """An MPoly on a dict of exponent tuples to NFElem, zero coefficients dropped;
    nothing is coerced or re-tupled."""
    p = _new(MPoly)
    _set_terms(p, {e: c for e, c in terms.items() if not c.is_zero()})
    return p
