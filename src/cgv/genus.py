"""Genus accounting for the quotient-curve argument, and the fixed-line
intersection analysis of the product pencil.

The accounting is rebuilt from first principles: geometric genus equals
arithmetic genus minus the total delta invariant, Riemann-Hurwitz relates
the normalizations of a double cover, each downstairs singular value Q
carries two upstairs points P, P' with delta_P = delta_P' = 2*delta_Q, and
the printed constants (76, 150, 75, 19) are echoed as anchors with
agreement flags rather than replayed line by line.
"""

from __future__ import annotations

from collections import namedtuple

from .nf import NFElem
from .upoly import UPoly, upoly_gcd, squarefree_part
from .mpoly import MPoly
from .geometry import LINE_R, eval_at_point


class RamificationError(ValueError):
    """A Riemann-Hurwitz constraint is violated; names the failing constraint."""

    def __init__(self, constraint: str, value):
        self.constraint = constraint
        self.value = value
        super().__init__(f"ramification constraint violated ({constraint}): deg(R) = {value}")


def ci_genus(d1: int, d2: int) -> int:
    """Arithmetic genus of a complete intersection of degrees (d1, d2) in P^3."""
    if d1 < 1 or d2 < 1:
        raise ValueError("degrees must be >= 1")
    # the numerator is even: d1 or d2 is even, or both are odd and d1 + d2 - 4 is even
    return d1 * d2 * (d1 + d2 - 4) // 2 + 1


def rh_relation(p_cover: int, p_quotient: int) -> int:
    """Degree of the ramification divisor of a double cover of smooth curves:
    2*p_cover - 2 = 2*(2*p_quotient - 2) + deg(R)."""
    deg_r = 2 * p_cover - 2 - 2 * (2 * p_quotient - 2)
    if deg_r < 0:
        raise RamificationError("nonnegative", deg_r)
    return deg_r


# delta_total: the sum of all upstairs delta invariants; s_q: the per-model
# downstairs total, None unless integral; violated: the names of the failing
# constraints; status: "infeasible" or "arithmetically-feasible-unresolved"
FeasibilityBranch = namedtuple("FeasibilityBranch", "delta_total s_q violated status")


def quotient_feasibility(p_a: int, fibers: int, ram_deg: int) -> FeasibilityBranch:
    """Can the normalized quotient be rational (genus 0), for a curve of
    arithmetic genus p_a with `fibers` singular fibers and a ramification
    divisor of degree ram_deg?

    With q = 0 the cover's geometric genus is (deg R - 2)/2; the delta budget
    is delta_total = p_a - p_g; the orbit model forces delta_total = 4 * s_Q
    with s_Q a nonnegative integer (each fiber of the two swapped orbits
    carries two points of delta 2*delta_Q each).
    """
    if fibers < 0:
        raise ValueError("fiber count must be >= 0")
    if ram_deg < 0 or ram_deg % 2:
        raise ValueError("deg(R) must be a nonnegative even integer")
    p_g = (ram_deg - 2) // 2   # exact: ram_deg is even
    delta_total = p_a - p_g
    violated = []
    if p_g < 0:
        violated.append("cover genus nonnegative")
    if delta_total < 0:
        violated.append("delta budget nonnegative")
    s_q, rest = divmod(delta_total, 4)
    if rest:
        violated.append("divisibility by 4")
    elif s_q < fibers:
        # every upstairs base point is singular, so each delta_Q is >= 1
        violated.append("one unit of delta per fiber")
    return FeasibilityBranch(
        delta_total=delta_total,
        s_q=None if rest else s_q,
        violated=tuple(violated),
        status="infeasible" if violated else "arithmetically-feasible-unresolved",
    )


# -- binary forms on the fixed line ---------------------------------------------
# A binary form of degree d in (X, Y) over Q(r) is its coefficient tuple
# a_0..a_d, a_i the coefficient of X^(d-i) Y^i; m is fixed before it is built.


def _xy_coefficients(f: MPoly, degree: int):
    """The coefficients of X^(degree-i) Y^i in f, i = 0..degree, as polynomials in m."""
    return tuple(f.coeff_of_geom((degree - i, i, 0, 0)) for i in range(degree + 1))


def _binary_form(f: MPoly, degree: int):
    """The coefficient tuple of f, which must be a binary form of `degree`."""
    if f.involves("Z") or f.involves("T") or f.involves("m"):
        raise ValueError("not a binary form in (X, Y) over Q(r)")
    if not f.is_homogeneous(degree):
        raise ValueError(f"not homogeneous of degree {degree}")
    return tuple(c.as_nfelem() for c in _xy_coefficients(f, degree))


def _dehomogenized(form) -> UPoly:
    """f(x, 1) with ascending coefficients, for a nonzero binary form f."""
    if not any(form):
        raise ValueError("the zero form has no root divisor")
    return UPoly(tuple(reversed(form)))


def distinct_points(form) -> int:
    """Number of distinct projective roots over the algebraic closure."""
    deh = _dehomogenized(form)
    finite = 0 if deh.degree() <= 0 else squarefree_part(deh).degree()
    at_infinity = 1 if form[0].is_zero() else 0
    return finite + at_infinity


def multiplicity_pattern(form):
    """Descending multiplicities of the projective roots."""
    deh = _dehomogenized(form)
    mults = []
    inf_mult = len(form) - 1 - deh.degree()
    if inf_mult:
        mults.append(inf_mult)
    # chain of gcds: deg f_j counts roots with multiplicity > j
    f = deh
    degs = []
    while f.degree() > 0:
        degs.append(f.degree())
        f = upoly_gcd(f, f.derivative())
    degs.append(0)
    for j in range(len(degs) - 1):
        exactly = (degs[j] - degs[j + 1]) - (degs[j + 1] - degs[j + 2] if j + 2 < len(degs) else 0)
        mults.extend([j + 1] * exactly)
    return tuple(sorted(mults, reverse=True))


# -- the witness pencil -----------------------------------------------------------


def _pencil_on_r(family):
    """((XZ C0)|r, (YT C1)|r), the generators of the witness pencil restricted
    to r, once per store (`CubicFamily.derive`); with m fixed, the symbolic
    family's pair with m := v."""
    def build(f):
        a = MPoly.var("X") * MPoly.var("Z") * f.cubics[0]
        b = MPoly.var("Y") * MPoly.var("T") * f.cubics[1]
        return eval_at_point(a, LINE_R), eval_at_point(b, LINE_R)
    return family.derive("pencil on r", build)


def pencil_factorization(family):
    """The exact identity (lambda XZ C0 + mu YT C1)|r
    = XY (lambda X Qbar0 - mu Y Qbar1), checked on the two generators;
    both sides are linear in (lambda, mu), so this is the symbolic identity.
    Q0 and Q1 are restricted to r once per store (`CubicFamily.derive`)."""
    a, b = _pencil_on_r(family)
    x, y = MPoly.var("X"), MPoly.var("Y")
    qbar0, qbar1 = family.derive("quadrics on r", lambda f: tuple(
        eval_at_point(q, LINE_R) for q in f.quadrics[:2]))
    first = a == x * x * y * qbar0
    second = b == -(x * y * y * qbar1)
    return first, second, qbar0, qbar1


def xy_factor_points():
    """The two points of the line r where the factor XY vanishes: its
    generic point at (X:Y) = (1:0) and (0:1)."""
    return tuple(tuple(f.substitute({"X": x, "Y": y}).as_nfelem() for f in LINE_R)
                 for x, y in ((1, 0), (0, 1)))


def pencil_on_line(family):
    """The pair (A, B) = ((XZ C0)|r, (YT C1)|r) for a family with m fixed, each
    the coefficient 6-tuple of a binary quintic in (X, Y).  The pencil member
    (lambda:mu) restricts to lambda*A + mu*B (`pencil_member`)."""
    return tuple(_binary_form(g, 5) for g in _pencil_on_r(family))


def pencil_member(pencil, lam, mu):
    """The member lambda XZ C0 + mu YT C1 of the pencil on r."""
    a, b = pencil
    return tuple(lam * ca + mu * cb for ca, cb in zip(a, b))


def z4_witness_search(pencil, bound: int):
    """First (lambda, mu) in the deterministic scan whose restriction to r has
    at least 4 distinct points; None when the bound is too small."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    for lam in range(1, bound + 1):
        for mu in range(-bound, bound + 1):
            member = pencil_member(pencil, lam, mu)
            if not any(member):
                continue
            count = distinct_points(member)
            if count >= 4:
                return lam, mu, count
    return None


# -- root-pattern conditions on binary quintics ------------------------------------


def quintuple_root_condition(coeffs) -> bool:
    """The printed quartic relation a2^2 a3^2 = 400 a0 a1 a4 a5.

    Works over any commutative coefficient ring (NFElem, UPoly, ...).
    """
    a0, a1, a2, a3, a4, a5 = coeffs
    return a2 * a2 * a3 * a3 == 400 * (a0 * a1 * a4 * a5)


def quintuple_family_coeffs():
    """Coefficients of (X - alpha Y)^5 as polynomials in alpha (the variable m)."""
    x, y, alpha = MPoly.var("X"), MPoly.var("Y"), MPoly.var("m")
    return tuple(c.m_upoly() for c in _xy_coefficients((x - alpha * y) ** 5, 5))


def three_two_family_coeffs():
    """Coefficients of (X - alpha Y)^3 (alpha X - Y)^2 as polynomials in alpha
    (the variable m).

    The family is the (3,2) root pattern {alpha, 1/alpha} scaled by alpha^2 to
    clear denominators; both printed relations are quadratic in the
    coefficients, hence scaling-invariant.
    """
    x, y, alpha = MPoly.var("X"), MPoly.var("Y"), MPoly.var("m")
    family = (x - alpha * y) ** 3 * (alpha * x - y) ** 2
    return tuple(c.m_upoly() for c in _xy_coefficients(family, 5))


# -- the cubic factor probe ----------------------------------------------------------


# condition_value: 9*d*a - b*c; pattern and classifications_agree are None for the zero cubic
CubicProbe = namedtuple("CubicProbe", "condition_value pattern classifications_agree")


def cubic_one_root_probe(pencil, lam, mu) -> CubicProbe:
    """Evaluate the printed one-root criterion 9da - bc = 0 on the cubic factor
    lambda X Qbar0 - mu Y Qbar1 of the pencil member on r, against the true
    multiplicity pattern.  The member is XY times that cubic, so the cubic's
    coefficients are the member's middle four."""
    member = pencil_member(pencil, lam, mu)
    if not (member[0].is_zero() and member[5].is_zero()):
        raise ArithmeticError("the pencil member on r is not divisible by XY")
    cubic = member[1:5]
    a, b, c, d = cubic
    cond = NFElem(9) * d * a - b * c
    if not any(cubic):
        return CubicProbe(cond, None, None)
    pattern = multiplicity_pattern(cubic)
    return CubicProbe(
        condition_value=cond,
        pattern=pattern,
        classifications_agree=(cond.is_zero() == (len(pattern) == 1)),
    )
