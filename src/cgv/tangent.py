"""Tangent-form machinery on the affine chart T = 1.

Chart coordinates are carried by the X, Y, Z variables themselves, so a
symbolic tangent row is a triple of polynomials in (X, Y, Z, m) over Q(r).
Each computed row is compared componentwise with the printed display that
the tangent suite parses, the printed lambda-elimination is reproduced
down to its obstruction element, and a deterministic integer-point survey
measures the exact rank of the three stacked rows.  The survey reads D,
the determinant of the three symbolic rows, with m fixed, and packs it
into one integer polynomial nested for Horner (`_packed_horner`), so that
each point costs one integer sum, zero exactly when D is; only where D
vanishes does it substitute the rows and eliminate.  The lambda and
pairwise checks take the rows `chart_gradient` built, indexed by cubic.
The symbolic rows and D are built once per process (`CubicFamily.derive`).
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm

from .nf import NFElem, nf_invert
from .linalg import matrix_det, matrix_rank

CHART_VARS = ("X", "Y", "Z")


def chart_gradient(family, i: int):
    """Gradient row of C_i on the chart T = 1, symbolic in the coordinates,
    once per store (`CubicFamily.derive`).  With m fixed it is the
    symbolic family's row with m := v."""
    return family.derive(("chart gradient", i), lambda f: tuple(
        f.cubics[i].partial(v).substitute({"T": 1}) for v in CHART_VARS))


def tangent_determinant(family):
    """D, the determinant of the chart-gradient rows of C_0, C_1, C_2, once
    per store (`CubicFamily.derive`).  With m fixed it is the symbolic D
    with m := v, one substitution into D and no elimination."""
    (det,) = family.derive("tangent determinant", lambda f: (
        matrix_det([chart_gradient(f, i) for i in range(3)]),))
    return det


def display_agreement(row, printed):
    """Componentwise comparison of a computed gradient row with its printed
    display: computed minus printed, zero where they agree."""
    return tuple(c - p for c, p in zip(row, printed))


LambdaReplay = namedtuple("LambdaReplay", "obstruction obstruction_inverse steps")


def lambda_replay(rows) -> LambdaReplay:
    """Replay the printed elimination: no polynomial lambda = a*x + b*z + c
    can carry the Y-partial of C_0 onto the Y-partial of C_1.

    Matching the x^2, z^2 and xz coefficients gives a = 1/(r+1), b = 0 and
    then demands (r+1)^2 (3r-2) = -2r^2-5r+5, which fails by the unit
    3r^2+4r-4; its inverse is the certificate.
    """
    e0, e1 = rows[0][1], rows[1][1]
    # e0 is linear in (x, z); e1 is quadratic
    cx = e0.coeff_of_geom((1, 0, 0, 0)).as_nfelem()       # (3r-2)(r+1)
    cz = e0.coeff_of_geom((0, 0, 1, 0)).as_nfelem()       # -2r^2-5r+5
    d_xx = e1.coeff_of_geom((2, 0, 0, 0)).as_nfelem()     # 3r-2
    d_zz = e1.coeff_of_geom((0, 0, 2, 0)).as_nfelem()     # 0
    d_xz = e1.coeff_of_geom((1, 0, 1, 0)).as_nfelem()     # (3r-2)(r+1)
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
    is some 2x2 minor of the stacked pair a nonzero polynomial?  The
    elimination stops at the first nonzero minor."""
    return matrix_rank((rows[i], rows[j]))[0] == 2


# -- deterministic sampling ---------------------------------------------------

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
LCG_MASK = (1 << 64) - 1
# the largest sampled coordinate, and so the bound of the survey's packed sums
SAMPLE_BOUND = 20


def sample_points(seed: int):
    """Endless points (x, y, z) from a 64-bit LCG: each draw advances the
    state, then maps to [-SAMPLE_BOUND, SAMPLE_BOUND]; a 0 is drawn again."""
    state = seed & LCG_MASK
    while True:
        point = []
        while len(point) < 3:
            state = (LCG_MULTIPLIER * state + LCG_INCREMENT) & LCG_MASK
            if v := state % (2 * SAMPLE_BOUND + 1) - SAMPLE_BOUND:
                point.append(v)
        yield tuple(point)


# histogram: ((rank, count), ...) sorted by rank
SurveyResult = namedtuple("SurveyResult", "histogram skipped")


def rank_survey(family, n: int, seed: int) -> SurveyResult:
    """Exact rank of the stacked C_0, C_1, C_2 tangent rows at n sampled points
    of a family with m fixed (`CubicFamily.at_m`).

    D is the stored symbolic D with m := v (`tangent_determinant`), packed
    for coordinates up to SAMPLE_BOUND (`_packed_horner`) once per call:
    each point costs one integer sum by Horner in X, Y and Z, zero exactly
    when D(p) is.  Over a field a nonzero D(p) proves rank 3 at p, and then
    no row is zero.  Only where D(p) vanishes are the rows with m := v built
    (`chart_gradient`) and substituted, points on a degeneracy locus (a zero
    gradient row) skipped and the rest eliminated.  Sampled coordinates are
    never 0, so no sample is a reference point.  A family whose m is not
    fixed raises ValueError.
    """
    if n < 1:
        raise ValueError("survey size must be >= 1")
    packed_det = _packed_horner(tangent_determinant(family), SAMPLE_BOUND)[1]
    points = sample_points(seed)
    hist = {}
    skipped = 0
    for _ in range(n):
        x, y, z = next(points)
        if packed_det(x, y, z):
            rank = 3
        else:
            sub = {"X": x, "Y": y, "Z": z}
            rows = [[g.substitute(sub).as_nfelem() for g in chart_gradient(family, i)] for i in range(3)]
            if any(all(c.is_zero() for c in row) for row in rows):
                skipped += 1
                continue
            rank = matrix_rank(rows)[0]
        hist[rank] = hist.get(rank, 0) + 1
    return SurveyResult(histogram=tuple(sorted(hist.items())), skipped=skipped)


def _packed_horner(poly, bound: int):
    """(k, packed) for a polynomial p in X, Y, Z over Q(r), read at integer
    points whose coordinates lie in [-bound, bound] (bound >= 1).

    Over one common denominator L > 0, L * p is the sum of
    (n0 + n1*r + n2*r^2) * X^a * Y^b * Z^c.  Each coefficient is packed into
    the integer n0 + n1*2^k + n2*2^(2k), and packed(x, y, z) sums the packed
    terms at (x, y, z) by Horner in X, then Y, then Z.  That sum is
    s0 + s1*2^k + s2*2^(2k), where L * p(x, y, z) = s0 + s1*r + s2*r^2.  With
    B = bound^deg(p) times the sum of every |n_i|, each |s_i| <= B, and k is
    the least width with 2^(k-1) > B; so the packed sum is a balanced base-2^k
    number whose digits are (s0, s1, s2), and since 1, r, r^2 are a basis of
    Q(r) it is zero exactly when p(x, y, z) is.  A polynomial that involves T
    or m, or a bound below 1, raises ValueError.
    """
    if poly.involves("T") or poly.involves("m"):
        raise ValueError(f"the survey needs a polynomial in X, Y, Z with m fixed: {poly}")
    if bound < 1:
        raise ValueError("the coordinate bound must be >= 1")
    terms = [(e[:3], c.integers()) for e, c in poly.terms.items()]
    den = lcm(*(v[3] for _, v in terms))
    terms = [(e, [n * (den // v[3]) for n in v[:3]]) for e, v in terms]
    deg = max((sum(e) for e, _ in terms), default=0)
    k = (sum(abs(n) for _, ns in terms for n in ns) * bound ** deg).bit_length() + 1
    nested = _horner_nest({e: n0 + (n1 << k) + (n2 << 2 * k) for e, (n0, n1, n2) in terms}, 3)

    def packed(x, y, z):
        sx = 0
        for ys in nested:
            sy = 0
            for zs in ys:
                sz = 0
                for c in zs:
                    sz = sz * z + c
                sy = sy * y + sz
            sx = sx * x + sy
        return sx

    return k, packed


def _horner_nest(terms, nvars: int):
    """The integer polynomial {exponent tuple: n} in nvars variables, nested
    for Horner: the coefficients of the first variable from its top degree
    down to 0, each nested the same way in the others; with no variable
    left, the constant n (0 for none)."""
    if not nvars:
        return terms.get((), 0)
    by_lead = {}
    for (a, *rest), n in terms.items():
        by_lead.setdefault(a, {})[tuple(rest)] = n
    return tuple(_horner_nest(by_lead.get(a, {}), nvars - 1)
                 for a in range(max(by_lead, default=-1), -1, -1))
