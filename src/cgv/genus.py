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

from dataclasses import dataclass
from fractions import Fraction

from .nf import NFElem
from .upoly import UPoly, upoly_gcd, squarefree_part
from .mpoly import MPoly
from .geometry import LINE_R


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
    num = d1 * d2 * (d1 + d2 - 4)
    if num % 2:
        raise ArithmeticError("genus formula did not produce an integer")
    return num // 2 + 1


def rh_relation(p_cover: int, p_quotient: int) -> int:
    """Degree of the ramification divisor of a double cover of smooth curves:
    2*p_cover - 2 = 2*(2*p_quotient - 2) + deg(R)."""
    deg_r = 2 * p_cover - 2 - 2 * (2 * p_quotient - 2)
    if deg_r < 0:
        raise RamificationError("nonnegative", deg_r)
    if deg_r % 2:
        raise RamificationError("even", deg_r)
    return deg_r


@dataclass(frozen=True)
class AccountingScenario:
    p_a: int = 76
    fibers: int = 4
    ram_deg: int = 2

    def __post_init__(self):
        if self.fibers < 0:
            raise ValueError("fiber count must be >= 0")
        if self.ram_deg < 0 or self.ram_deg % 2:
            raise ValueError("deg(R) must be a nonnegative even integer")


@dataclass(frozen=True)
class FeasibilityBranch:
    ram_deg: int
    p_g_cover: Fraction        # forced by a rational quotient
    delta_total: Fraction      # sum of all upstairs delta invariants
    s_q: Fraction | None       # per-model downstairs total, when integral
    feasible: bool
    violated: tuple            # names of failing constraints
    status: str                # "infeasible" or "arithmetically-feasible-unresolved"


def quotient_feasibility(scenario: AccountingScenario) -> FeasibilityBranch:
    """Can the normalized quotient be rational (genus 0) in this scenario?

    With q = 0 the cover's geometric genus is (deg R - 2)/2; the delta budget
    is delta_total = p_a - p_g; the orbit model forces delta_total = 4 * s_Q
    with s_Q a nonnegative integer (each fiber of the two swapped orbits
    carries two points of delta 2*delta_Q each).
    """
    r = scenario.ram_deg
    p_g = Fraction(r - 2, 2)
    delta_total = scenario.p_a - p_g
    violated = []
    if p_g < 0:
        violated.append("cover genus nonnegative")
    if delta_total < 0:
        violated.append("delta budget nonnegative")
    s_q = Fraction(delta_total, 4)
    if s_q.denominator != 1:
        violated.append("divisibility by 4")
    elif s_q < scenario.fibers:
        # every upstairs base point is singular, so each delta_Q is >= 1
        violated.append("one unit of delta per fiber")
    feasible = not violated
    return FeasibilityBranch(
        ram_deg=r,
        p_g_cover=p_g,
        delta_total=delta_total,
        s_q=s_q if s_q.denominator == 1 else None,
        feasible=feasible,
        violated=tuple(violated),
        status="arithmetically-feasible-unresolved" if feasible else "infeasible",
    )


# -- binary forms on the fixed line ---------------------------------------------


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous form in (X, Y) over Q(r); m is fixed before a form is built."""

    degree: int
    coeffs: tuple   # a_0..a_d in Q(r), a_i the coefficient of X^(d-i) Y^i

    @classmethod
    def from_mpoly(cls, f: MPoly, degree: int | None = None) -> "BinaryForm":
        if f.involves("Z") or f.involves("T") or f.involves("m"):
            raise ValueError("not a binary form in (X, Y) over Q(r)")
        d = f.geom_degree() if degree is None else degree
        if f.is_zero():
            if degree is None:
                raise ValueError("a zero form needs an explicit degree")
            return cls(degree, (NFElem(0),) * (degree + 1))
        if not f.is_homogeneous(d):
            raise ValueError(f"not homogeneous of degree {d}")
        coeffs = tuple(f.coeff_of_geom((d - i, i, 0, 0)).as_nfelem() for i in range(d + 1))
        return cls(d, coeffs)

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def dehomog(self) -> UPoly:
        """f(x, 1) with ascending coefficients over NFElem."""
        return UPoly(tuple(reversed(self.coeffs)))


def restrict_to_line(f: MPoly) -> BinaryForm:
    """A quintic restricted to the fixed line r = {X + Z = Y + T = 0}."""
    if not f.is_homogeneous(5):
        raise ValueError("input is not homogeneous of degree 5")
    return BinaryForm.from_mpoly(LINE_R.restrict(f), 5)


def distinct_points(bf: BinaryForm) -> int:
    """Number of distinct projective roots over the algebraic closure."""
    if bf.is_zero():
        raise ValueError("the zero form has no root divisor")
    deh = bf.dehomog()
    finite = 0 if deh.degree() <= 0 else squarefree_part(deh).degree()
    at_infinity = 1 if bf.coeffs[0].is_zero() else 0
    return finite + at_infinity


def multiplicity_pattern(bf: BinaryForm):
    """Descending multiplicities of the projective roots."""
    if bf.is_zero():
        raise ValueError("the zero form has no root divisor")
    deh = bf.dehomog()
    mults = []
    inf_mult = bf.degree - (deh.degree() if deh.degree() >= 0 else 0)
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


def _pencil_generators(family):
    a = MPoly.var("X") * MPoly.var("Z") * family.cubics[0]
    b = MPoly.var("Y") * MPoly.var("T") * family.cubics[1]
    return a, b


def pencil_factorization(family):
    """The exact identity (lambda XZ C0 + mu YT C1)|r
    = XY (lambda X Qbar0 - mu Y Qbar1), checked on the two generators;
    both sides are linear in (lambda, mu), so this is the symbolic identity."""
    a, b = _pencil_generators(family)
    x, y = MPoly.var("X"), MPoly.var("Y")
    qbar0 = LINE_R.restrict(family.quadrics[0])
    qbar1 = LINE_R.restrict(family.quadrics[1])
    first = LINE_R.restrict(a) == x * x * y * qbar0
    second = LINE_R.restrict(b) == -(x * y * y * qbar1)
    return first, second, qbar0, qbar1


XY_FACTOR_POINTS = (
    (NFElem(1), NFElem(0), NFElem(-1), NFElem(0)),
    (NFElem(0), NFElem(1), NFElem(0), NFElem(-1)),
)


def witness_pencil_analysis(family, lam, mu) -> int | None:
    """Distinct points of the pencil member lambda XZ C0 + mu YT C1 on the
    line r, for a family with m fixed; None when the member vanishes on it."""
    lam = NFElem.coerce(lam)
    mu = NFElem.coerce(mu)
    if lam.is_zero() and mu.is_zero():
        raise ValueError("(lambda, mu) must not both vanish")
    a, b = _pencil_generators(family)
    member = MPoly.constant(lam) * a + MPoly.constant(mu) * b
    bf = restrict_to_line(member)
    return None if bf.is_zero() else distinct_points(bf)


def z4_witness_search(family, bound: int):
    """First (lambda, mu) in the deterministic scan whose restriction to r has
    at least 4 distinct points, for a family with m fixed; None when the
    bound is too small."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    ar, br = (restrict_to_line(g) for g in _pencil_generators(family))
    for lam in range(1, bound + 1):
        for mu in range(-bound, bound + 1):
            bf = BinaryForm(5, tuple(lam * ca + mu * cb for ca, cb in zip(ar.coeffs, br.coeffs)))
            if bf.is_zero():
                continue
            count = distinct_points(bf)
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
    """Coefficients of (X - alpha Y)^5 as polynomials in alpha."""
    alpha = UPoly((Fraction(0), Fraction(1)))
    binom = (1, 5, 10, 10, 5, 1)
    return tuple(binom[i] * ((-alpha) ** i) for i in range(6))


def three_two_family_coeffs():
    """Coefficients of (X - alpha Y)^3 (alpha X - Y)^2 as polynomials in alpha.

    The family is the (3,2) root pattern {alpha, 1/alpha} scaled by alpha^2 to
    clear denominators; both printed relations are quadratic in the
    coefficients, hence scaling-invariant.
    """
    alpha = UPoly((Fraction(0), Fraction(1)))
    cubic = [UPoly((Fraction(1),)), -3 * alpha, 3 * alpha ** 2, -(alpha ** 3)]
    square = [alpha ** 2, -2 * alpha, UPoly((Fraction(1),))]
    out = [UPoly(()) for _ in range(6)]
    for i, ci in enumerate(cubic):
        for j, cj in enumerate(square):
            out[i + j] = out[i + j] + ci * cj
    return tuple(out)


@dataclass(frozen=True)
class ThreeTwoReport:
    printed_residual: UPoly     # 3 a5^2 + 2 a0^2 + a1 a5: zero iff printed relation holds
    corrected_residual: UPoly   # 3 a5^2 + 2 a0^2 - a1 a5
    printed_holds: bool
    corrected_holds: bool


def three_two_family_report() -> ThreeTwoReport:
    a = three_two_family_coeffs()
    printed = 3 * a[5] * a[5] + 2 * a[0] * a[0] + a[1] * a[5]
    corrected = 3 * a[5] * a[5] + 2 * a[0] * a[0] - a[1] * a[5]
    return ThreeTwoReport(
        printed_residual=printed,
        corrected_residual=corrected,
        printed_holds=printed.is_zero(),
        corrected_holds=corrected.is_zero(),
    )


def three_two_root_condition(coeffs) -> bool:
    """The printed quadric relation 3 a5^2 + 2 a0^2 = -a1 a5."""
    a0, a1, _, _, _, a5 = coeffs
    return 3 * a5 * a5 + 2 * a0 * a0 == -(a1 * a5)


# -- the cubic factor probe ----------------------------------------------------------


@dataclass(frozen=True)
class CubicProbe:
    lam: NFElem
    mu: NFElem
    coefficients: tuple        # (a, b, c, d)
    condition_value: NFElem    # 9*d*a - b*c
    degenerate: bool           # leading coefficient vanished
    pattern: tuple | None
    condition_says_one_root: bool
    pattern_is_one_root: bool | None
    classifications_agree: bool | None


def cubic_one_root_probe(family, lam, mu) -> CubicProbe:
    """Evaluate the printed one-root criterion 9da - bc = 0 on the cubic factor
    of the witness pencil on r, for a family with m fixed, against the true
    multiplicity pattern."""
    lam = NFElem.coerce(lam)
    mu = NFElem.coerce(mu)
    qbar0 = LINE_R.restrict(family.quadrics[0])
    qbar1 = LINE_R.restrict(family.quadrics[1])
    cubic = MPoly.constant(lam) * MPoly.var("X") * qbar0 - MPoly.constant(mu) * MPoly.var("Y") * qbar1
    bf = BinaryForm.from_mpoly(cubic, 3)
    a, b, c, d = bf.coeffs
    cond = NFElem(9) * d * a - b * c
    degenerate = a.is_zero()
    if bf.is_zero():
        return CubicProbe(lam, mu, (a, b, c, d), cond, True, None, cond.is_zero(), None, None)
    pattern = multiplicity_pattern(bf)
    one_root = len(pattern) == 1
    return CubicProbe(
        lam=lam, mu=mu,
        coefficients=(a, b, c, d),
        condition_value=cond,
        degenerate=degenerate,
        pattern=pattern,
        condition_says_one_root=cond.is_zero(),
        pattern_is_one_root=one_root,
        classifications_agree=(cond.is_zero() == one_root),
    )
