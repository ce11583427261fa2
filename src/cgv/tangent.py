"""Tangent-form machinery on the affine chart T = 1.

Chart coordinates are carried by the X, Y, Z variables themselves, so a
symbolic tangent row is a triple of polynomials in (X, Y, Z, m) over Q(r).
The printed tangent displays are replayed componentwise, the printed
lambda-elimination is reproduced down to its obstruction element, and a
deterministic integer-point survey measures the exact rank of the three
stacked rows.  The survey builds D, the determinant of the three symbolic
rows, once per call and evaluates it over the integers at each point; only
where D vanishes does it substitute the rows and eliminate.  The display,
lambda and pairwise checks take the rows `chart_gradient` built, indexed
by cubic, so a caller builds each row once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .nf import NFElem, nf_invert
from .linalg import matrix_det, matrix_rank
from .geometry import eval_at_point
from .claims import CLAIMED_TANGENT_ROWS, parse_display

CHART_VARS = ("X", "Y", "Z")


def chart_gradient(family, i: int):
    """Gradient row of C_i on the chart T = 1, symbolic in the coordinates."""
    c = family.cubics[i]
    return tuple(c.partial(v).substitute({"T": 1}) for v in CHART_VARS)


def projective_gradient(family, i: int, pt):
    """The 4-component gradient of C_i at a point of P^3 (m stays symbolic)."""
    out = []
    for v in ("X", "Y", "Z", "T"):
        out.append(eval_at_point(family.cubics[i].partial(v), pt))
    return tuple(out)


def display_agreement(rows, i: int):
    """Componentwise comparison of the computed gradient rows[i] with the
    printed row: (equality flags, computed minus printed)."""
    claimed = tuple(parse_display(t) for t in CLAIMED_TANGENT_ROWS[i])
    flags = tuple(c == p for c, p in zip(rows[i], claimed))
    diffs = tuple(c - p for c, p in zip(rows[i], claimed))
    return flags, diffs


@dataclass(frozen=True)
class LambdaReplay:
    obstruction: NFElem
    obstruction_inverse: NFElem
    steps: tuple


def lambda_replay(rows) -> LambdaReplay:
    """Replay the printed elimination: no polynomial lambda = a*x + b*z + c
    can carry the Y-partial of C_0 onto the Y-partial of C_1.

    Matching the x^2, z^2 and xz coefficients gives a = 1/(r+1), b = 0 and
    then demands (r+1)^2 (3r-2) = -2r^2-5r+5, which fails by the unit
    3r^2+4r-4; its inverse is the certificate.
    """
    e0, e1 = rows[0][1], rows[1][1]
    # e0 is linear in (x, z); e1 is quadratic
    cx = e0.coefficient((1, 0, 0, 0, 0))          # (3r-2)(r+1)
    cz = e0.coefficient((0, 0, 1, 0, 0))          # -2r^2-5r+5
    d_xx = e1.coefficient((2, 0, 0, 0, 0))        # 3r-2
    d_zz = e1.coefficient((0, 0, 2, 0, 0))        # 0
    d_xz = e1.coefficient((1, 0, 1, 0, 0))        # (3r-2)(r+1)
    a = d_xx / cx
    if not d_zz.is_zero() or cz.is_zero():
        raise ArithmeticError("z^2 matching does not force b = 0")
    b = NFElem(0)
    residual = b * cx + a * cz - d_xz
    # clear the unit denominator (r+1): obstruction = (r+1)^2(3r-2) - (-2r^2-5r+5)
    obstruction = -(residual * cx / d_xx)
    inv = nf_invert(obstruction)
    steps = (
        f"x^2 coefficients force a * ({cx}) = {d_xx}, so a = {a}",
        f"z^2 coefficients force b * ({cz}) = 0, so b = 0",
        f"x*z coefficients then demand a * ({cz}) = {d_xz}, off by the unit {obstruction}",
        f"certificate: ({obstruction}) * ({inv}) = 1",
    )
    return LambdaReplay(obstruction=obstruction, obstruction_inverse=inv, steps=steps)


def pairwise_independence(rows, i: int, j: int) -> bool:
    """Are the symbolic rows i and j independent over Q(r)(x, y, z, m), i.e.
    is some 2x2 minor of the stacked pair a nonzero polynomial?"""
    return matrix_rank((rows[i], rows[j]))[0] == 2


# -- deterministic sampling ---------------------------------------------------

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
LCG_MASK = (1 << 64) - 1


class SampleStream:
    """64-bit LCG; each draw advances the state, then maps to [-20, 20] \\ {0}."""

    def __init__(self, seed: int):
        self.state = seed & LCG_MASK

    def next_coordinate(self) -> int:
        while True:
            self.state = (LCG_MULTIPLIER * self.state + LCG_INCREMENT) & LCG_MASK
            v = (self.state % 41) - 20
            if v != 0:
                return v

    def next_point(self):
        return (self.next_coordinate(), self.next_coordinate(), self.next_coordinate())


@dataclass(frozen=True)
class SurveyResult:
    seed: int
    histogram: tuple   # ((rank, count), ...) sorted by rank
    skipped: int


def rank_survey(family, n: int, seed: int) -> SurveyResult:
    """Exact rank of the stacked C_0, C_1, C_2 tangent rows at n sampled points
    of a family with m fixed (`CubicFamily.at_m`).

    D, the determinant of the three symbolic rows, is built once and brought
    to integer terms (`_integer_terms`).  Over a field a nonzero D(p) proves
    rank 3 at p, and then no row is zero.  Only where D(p) vanishes
    (`_integer_value`) are the rows substituted, points on a degeneracy locus
    (a zero gradient row) skipped and the rest eliminated.  Sampled
    coordinates are never 0, so no sample is a reference point.  A family
    whose m is not fixed raises ValueError.
    """
    if n < 1:
        raise ValueError("survey size must be >= 1")
    rows_sym = [chart_gradient(family, i) for i in range(3)]
    det_terms = _integer_terms(matrix_det(rows_sym))
    stream = SampleStream(seed)
    hist = {}
    skipped = 0
    for _ in range(n):
        x, y, z = stream.next_point()
        if any(_integer_value(det_terms, x, y, z)):
            rank = 3
        else:
            sub = {"X": x, "Y": y, "Z": z}
            rows = [[g.substitute(sub).as_nfelem() for g in row] for row in rows_sym]
            if any(all(c.is_zero() for c in row) for row in rows):
                skipped += 1
                continue
            rank = matrix_rank(rows)[0]
        hist[rank] = hist.get(rank, 0) + 1
    return SurveyResult(seed=seed, histogram=tuple(sorted(hist.items())), skipped=skipped)


def _integer_terms(det):
    """The terms of a polynomial in X, Y, Z over one common denominator L > 0,
    as tuples (a, b, c, n0, n1, n2): the polynomial is
    sum (n0 + n1*r + n2*r^2) * X^a * Y^b * Z^c / L.  A polynomial that
    involves T or m raises ValueError.
    """
    if det.involves("T") or det.involves("m"):
        raise ValueError(f"the survey needs a polynomial in X, Y, Z with m fixed: {det}")
    coords = [(e, c.coords()) for e, c in det.terms.items()]
    den = lcm(*(q.denominator for _, qs in coords for q in qs))
    return tuple(
        (*e[:3], *(q.numerator * (den // q.denominator) for q in qs))
        for e, qs in coords
    )


def _integer_value(terms, x, y, z):
    """(s0, s1, s2) with L * p(x, y, z) = s0 + s1*r + s2*r^2 for the integer
    terms of p and integers x, y, z.  Since 1, r, r^2 are a basis of Q(r)
    and L > 0, p(x, y, z) is zero exactly when all three sums are.
    """
    s0 = s1 = s2 = 0
    for a, b, c, n0, n1, n2 in terms:
        t = x ** a * y ** b * z ** c
        s0 += n0 * t
        s1 += n1 * t
        s2 += n2 * t
    return s0, s1, s2


def reference_point_rows(family):
    """Projective gradient rows of C_1, C_2, C_3 at [0:0:0:1]."""
    pt = (NFElem(0), NFElem(0), NFElem(0), NFElem(1))
    return tuple(projective_gradient(family, i, pt) for i in (1, 2, 3))
