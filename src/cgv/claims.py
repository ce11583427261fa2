"""Registry of the published claims under verification.

Each entry pairs the claimed value (in this package's canonical printing)
with a verbatim quote fragment from the source text, used verbatim as the
citation string on check reports.  Values here are what the source asserts,
not what this package computes; disagreements surface as `refuted`.  The
printed displays that checks compare against are kept here too, as
expression text that `parse_display` parses once per process.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .mpoly import MPoly
from .parsing import parse_poly


@dataclass(frozen=True)
class Claim:
    value: str | None
    quote: str


CLAIMS = {
    "sigma-order": Claim("4", "it is of order $4$"),
    "sigma2-involution": Claim("2", r"therefore $\sigma^2$ is an involution"),
    "fixed-line-r": Claim("fixed pointwise", r"r:=\{X+Z=Y+T=0\}"),
    "fixed-line-r-prime": Claim("fixed pointwise", r"r':=\{X-Z=Y-T=0\}"),
    "cubic-display-c0": Claim("exact factorization",
                              r"C_0=T\{(3r-2)[X+mY+r^2Z]T+(r+1)XY]+(-6r^2+2r+2)XZ+(-2r^2-5r+5)YZ\}"),
    "cubic-display-c1": Claim("exact factorization",
                              r"C_1=X\{(3r-2)[Y+mZ+r^2T]X+(r+1)YZ]+(-6r^2+2r+2)YT+(-2r^2-5r+5)ZT\}"),
    "cubic-display-c2": Claim("exact factorization",
                              r"C_2=Y\{(3r-2)[Z+mT+r^2X]Y+(r+1)ZT]+(-6r^2+2r+2)ZX+(-2r^2-5r+5)TX\}"),
    "cubic-display-c3": Claim("exact factorization",
                              r"C_3=Z\{(3r-2)[T+mX+r^2Y]Z+(r+1)TX]+(-6r^2+2r+2)TY+(-2r^2-5r+5)XY\}"),
    "reference-base-points": Claim(
        "[1:0:0:0], [0:1:0:0], [0:0:1:0], [0:0:0:1]",
        r"has four reference points as four base points"),
    "stratum-quadruple-empty": Claim("empty", r"Definitely $T\cap X\cap Y\cap Z$ is empty"),
    "stratum-triple-TXY": Claim("[0:0:1:0]", r"this intersection is $[0:0:1:0]$"),
    "stratum-triple-others": Claim(
        None,  # usually filled per use
        r"we get $[1:0:0:0],[0:1:0:0],[0:0:0:1]$ as the point of intersection"),
    "stratum-double-TX": Claim("[0:1:0:0], [0:0:1:0]",
                               r"the intersection contains the points $[0:1:0:0]$ and $[0:0:1:0]$"),
    "stratum-double-monomial": Claim("(-2 + 3*r)*Y*Z", r"we get that $$YZ=0$$"),
    "stratum-double-others": Claim(
        None,  # usually filled per use
        r"we get the points $[1:0:0:0],[0:1:0:0],[0:0:1:0],[0:0:0:1]$ as points of intersection"),
    "single-system-matrix": Claim(
        "[1, (1 + r), m; (3 - 5*r^2), (-2 + 3*r), (2 + 2*r - 6*r^2); "
        "(5 - 5*r - 2*r^2), (3 - 5*r^2), (-2 + 3*r)*m]",
        r"which can be written in the matrix form"),
    "det-m-coefficient": Claim("0", r"m(9r^3+9r^2-9)=0"),
    "det-m-free-part": Claim("10 + 4*r - 20*r^2", r"the determinant is $-20r^2+4r+10$"),
    "det-claim-coprime": Claim("1", r"it is relatively prime to $r^3+r^2-1$"),
    "single-stratum-T-points": Claim(
        "[1:0:0:0], [0:1:0:0], [0:0:1:0]",
        r"the intersection of $T=0$ with $Q_1\cap Q_2\cap Q_3$ is $[0:1:0:0]$ and $[0:0:1:0]$ and $[1:0:0:0]$"),
    "single-stratum-other-points": Claim(
        None,  # usually filled per use
        r"the other intersections like $X\cap Q_0\cap Q_2\cap Q_3$ are one the reference points"),
    "circulant-entries": Claim(
        "a=(r+1)(3r-2), b=3r-2, c=r^2(3r-2), d=-2r^2-5r+5",
        r"a=(r+1)(3r-2),\quad b=3r-2,\quad c=r^2(3r-2),\quad d=-2r^2-5r+5"),
    "circulant-nonsingular": Claim("nonzero", r"it has four distinct eigenvalues"),
    "quadrics-independent": Claim("4", r"in the parameter space of all quadrics they are linearly independent"),
    "codim-2-step": Claim("cited assumption",
                          r"codimension of the base locus of $3K_V$ must be $2$"),
    "tangent-display-c0": Claim("3/3 components match",
                                r"[(3r-2)+(r+1)(3r-2)y+(-6r^2+2r+2)z](X-x)"),
    "tangent-display-c1": Claim("3/3 components match",
                                r"[(3r-2)(y+mz+r^2)(1+x)+(r+1)(3r-2)yz+(-6r^2+2r+2)y+(-2r^2-5r+5)z](X-x)"),
    "tangent-display-c2": Claim("3/3 components match",
                                r"[(3r-2)(z+m+r^2x)(1+y)+(3r-2)(r+1)z+(-6r^2+2r+2)zx+(-2r^2-5r+5)x](Y-y)"),
    "lambda-obstruction": Claim("nonzero", r"$$3r^2+4r-4=0$$ which is not true"),
    "tangent-pairwise": Claim("independent", r"we prove that the two rows we get are linearly independent"),
    "tangent-reference-point": Claim("X=Y=Z=0", r"we get that the equations are $X=Y=Z=0$"),
    "tangent-rank-generic": Claim(
        "rank 3 at every sampled point",
        r"$T_P(C_0)\cap T_P(C_1)\cap T_P(C_2)$ intersects only at one point by dimension counting"),
    "exceptional-multiplicity-1": Claim("-1", r"K_V=\pi^*(H)-\sum_i E_i"),
    "exceptional-multiplicity-2": Claim("-2", r"that is $n_i=-2$"),
    "exceptional-multiplicity-3": Claim("-3", r"we have $n_i=-3$"),
    "exceptional-multiplicity-5": Claim("-5", r"5K_V=\pi^*(\bcC.\bcQ)-5\sum_i E_i"),
    "exceptional-selfintersection": Claim("-1", r"$$E_i^2=-1\;.$$"),
    "godeaux-k-squared": Claim("1", r"falling under the numerical Godeaux class of such surfaces"),
    "elliptic-exceptional-genus": Claim("1", r"simple elliptic singularities of degree $1$"),
    "divisor-sign-convention": Claim("-1", r"which leads us to the fact that $$n_i=1\;.$$"),
    "arithmetic-genus-76": Claim("76", r"5.5(5+5-4)/2+1=76"),
    "rh-formula": Claim(None, r"2p_g(\wt{C})-2=2(2p_g(\wt{C/\tau})-2)+\deg (R)"),
    "delta-relation": Claim("2", r"This gives us that $\delta_P=2\delta_Q$"),
    "feasibility-R4": Claim("infeasible", r"Since $4$ does not divide $75$"),
    "feasibility-R2-open": Claim(None, r"We have to prove that this case does not occur."),
    "feasibility-anchor-19": Claim("19", r"19=(\sum_{P\in C}\delta_{P})"),
    "feasibility-anchor-150": Claim("150", r"150=2(2p_g(\wt{C/\tau})-2)-4\sum_i \delta_{Q_i}+2"),
    "orbit-structure": Claim("two 4-point orbits",
                             r"two set of singular points $A,B$ of $C$ each consisting $4$ points"),
    "pencil-factorization": Claim("holds", r"XY(\lambda XQ_0-\mu YQ_1)=0"),
    "pencil-xy-points": Claim("[1:0:-1:0], [0:1:0:-1]",
                              r"we obtain two points $[1:0:-1:0],[0:1:0:-1]$"),
    "z4-nonempty": Claim("non-empty", r"$Z_4$ is non-empty"),
    "cubic-one-root-condition": Claim(
        None, r"9d(\lambda,\mu)a(\lambda,\mu)-b(\lambda,\mu)c(\lambda,\mu)=0"),
    "quintuple-condition": Claim("holds identically", r"a_2^2a_3^2=400a_0a_1a_4a_5"),
    "quintuple-quartic": Claim("4", r"This defines a quartic hypersurface in $\PR^7$"),
    "three-two-condition": Claim("holds identically", r"3a_5^2+2a_0^2=-a_1a_5"),
}


# The printed h = T single-hyperplane matrix: rows Q1, Q2, Q3 over (XY, YZ, ZX).
PRINTED_SYSTEM_MATRIX = (
    ("1", "r+1", "m"),
    ("r^2*(3*r-2)", "3*r-2", "-6*r^2+2*r+2"),
    ("(-2*r^2-5*r+5)", "r^2*(3*r-2)", "(3*r-2)*m"),
)

# The displayed circulant entries a, b, c, d: the XY coefficients of Q0..Q3.
PRINTED_CIRCULANT_ENTRIES = ("(r+1)*(3*r-2)", "3*r-2", "r^2*(3*r-2)", "-2*r^2-5*r+5")

# The printed tangent displays of C0, C1, C2, written in chart coordinates (T = 1).
CLAIMED_TANGENT_ROWS = {
    0: ("(3*r-2)+(r+1)*(3*r-2)*Y+(-6*r^2+2*r+2)*Z",
        "(3*r-2)*m+(3*r-2)*(r+1)*X+(-2*r^2-5*r+5)*Z",
        "(3*r-2)*r^2+(-6*r^2+2*r+2)*X+(-2*r^2-5*r+5)*Y"),
    1: ("(3*r-2)*(Y+m*Z+r^2)*(1+X)+(r+1)*(3*r-2)*Y*Z+(-6*r^2+2*r+2)*Y+(-2*r^2-5*r+5)*Z",
        "(3*r-2)*X^2+(3*r-2)*(r+1)*X*Z+(-6*r^2+2*r+2)*X",
        "(3*r-2)*m*X^2+(r+1)*(3*r-2)*X*Y+(-2*r^2-5*r+5)*X"),
    2: ("(3*r-2)*r^2*Y^2+(-6*r^2+2*r+2)*Y*Z+(-2*r^2-5*r+5)*Y",
        "(3*r-2)*(Z+m+r^2*X)*(1+Y)+(3*r-2)*(r+1)*Z+(-6*r^2+2*r+2)*Z*X+(-2*r^2-5*r+5)*X",
        "(3*r-2)*Y^2+(3*r-2)*(r+1)*Y+(-6*r^2+2*r+2)*X*Y"),
}


@functools.cache
def parse_display(text: str) -> MPoly:
    """A printed display or claim value, parsed once per process.

    Keyed by the text, so an altered display is parsed anew.  The result is
    shared by every caller, so no caller may mutate its terms.
    """
    return parse_poly(text)


def claim(key: str, value: str | None = None) -> Claim:
    c = CLAIMS[key]
    return Claim(value, c.quote) if value is not None else c
