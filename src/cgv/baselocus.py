"""Verification of the 16-piece base-locus decomposition of the cubic system.

Each cubic splits as C_i = coord_i * Q_i with coords (T, X, Y, Z), so the
common zero set decomposes over subsets S of {0..3}: the coordinates with
index in S vanish and the remaining quadrics vanish.  No Q_j has a square
term, so Q_j restricted to a stratum is row j of the 4x6 mixed-monomial
matrix M (`CubicFamily.mixed_matrix`) on the stratum's columns, the
products of two free coordinates.  Every matrix the layer checks is read
off M by column monomial, the circulant of `quadric_independence` too: it
is M's m-free block on the cyclic columns XY, YZ, ZT, XT.
`classify_stratum`, the one entry point, classifies each stratum exactly:

  * 4 hyperplanes: no projective point.
  * 3 hyperplanes: no columns, so the quadric vanishes identically, leaving
    the single remaining reference point.
  * 2 hyperplanes: one column, which must be nonzero in both rows: each
    restriction is a multiple of the product of the two free coordinates.
  * 1 hyperplane: a 3x3 slice, linear in the three pairwise products of the
    free coordinates; its kernel is lifted (or shown unliftable) through
    the monomial consistency relations.
  * 0 hyperplanes: points with a zero coordinate fall into other strata; a
    point with all coordinates nonzero gives a kernel vector of all of M
    subject to (XY)(ZT) = (XZ)(YT) = (XT)(YZ), which reduces to a gcd of
    two binary quadratics.

Every classifier returns through `_result`, which checks each point a
classifier computes (a kernel lift, a zero-column sample, a torus point) by
exact substitution before it builds the result.  A reference point needs
no substitution: it lies on every Q_j because M exists.  The system of a
single-hyperplane stratum is M's slice as it stands, on the rows and
columns that `SLICES` fixes once per hyperplane.

M itself is kept once per process, in the store (`CubicFamily.mixed_matrix`).
M over Q(r), empty while m is a symbol, and per distinct slice its kernel,
the kernel's note and its all-nonzero vector are kept in the family's memo
(`CubicFamily.cached`), each built next to its one reader, so each costs
one computation per run; the suites keep `quadric_independence` there too.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .nf import NFElem, nf_str
from .upoly import UPoly, upoly_gcd
from .mpoly import GEOM_VARS
from .linalg import circulant_det_formula, matrix_det, matrix_rank, nf_kernel_basis
from .geometry import (COFACTOR_COORDS, MIXED_MONOMIALS, REFERENCE_POINTS, InternalCheckError,
                       eval_at_point, point_name)

EMPTY = "empty"
REFERENCE = "reference_points"
NON_REFERENCE = "non_reference_points"
INCONCLUSIVE = "inconclusive"


def points_str(points) -> str:
    return ", ".join(point_name(p) for p in points) if points else "(none)"


class Stratum(namedtuple("Stratum",
                         "taken quadrics hyperplane_names label reference_points points_str")):
    """`taken`: the indices i in cofactor order (T,X,Y,Z) whose coordinate
    vanishes; every other field is derived from it once, in `Stratum(taken)`.
    `reference_points` are the points e_v of the free coordinates v, in
    REFERENCE_POINTS order, and `points_str` their printed text."""

    __slots__ = ()

    def __new__(cls, taken):
        quadrics = tuple(j for j in range(4) if j not in taken)
        names = tuple(COFACTOR_COORDS[i] for i in taken)
        label = (".".join(names) or "-") + "|" + (".".join(f"Q{j}" for j in quadrics) or "-")
        points = tuple(pt for v, pt in zip(GEOM_VARS, REFERENCE_POINTS)
                       if COFACTOR_COORDS.index(v) in quadrics)
        return super().__new__(cls, taken, quadrics, names, label, points, points_str(points))


# the 16 strata in the displayed order: mask descending, T the top bit
ALL_STRATA = tuple(Stratum(tuple(i for i in range(4) if mask & (8 >> i)))
                   for mask in range(15, -1, -1))


# points: tuples of 4 NFElem, in X,Y,Z,T positions; notes: the printed
# symbolic facts backing the classification, then any remarks
StratumResult = namedtuple("StratumResult", "stratum kind points notes")


def _monomial(names):
    """The exponent vector of the product of the named coordinates."""
    return tuple(names.count(v) for v in GEOM_VARS)


def _slice_geometry(h):
    """(basis exponent vectors, row quadric indices, free cycle, M's columns)
    of the h = 0 slice; see `single_hyperplane_system`."""
    i, start = COFACTOR_COORDS.index(h), GEOM_VARS.index(h)
    cycle = tuple(GEOM_VARS[(start + n) % 4] for n in (1, 2, 3))
    basis = tuple(_monomial((cycle[n], cycle[(n + 1) % 3])) for n in range(3))
    return basis, tuple((i + k) % 4 for k in (1, 2, 3)), cycle, tuple(map(MIXED_MONOMIALS.index, basis))


# the slice geometry of each hyperplane, which no family changes
SLICES = {h: _slice_geometry(h) for h in COFACTOR_COORDS}


def _monomial_name(exp) -> str:
    """"X*Y" for the squarefree exponent vector of XY."""
    return "*".join(v for v, k in zip(GEOM_VARS, exp) if k)


def _result(family, stratum, kind, points, notes) -> StratumResult:
    """The result of `stratum`.  A REFERENCE result carries
    `stratum.reference_points`, which lie on the stratum's hyperplanes and,
    since M exists, on every Q_j.  The points of a NON_REFERENCE result are
    computed, so each is checked by exact substitution to kill every defining
    form of the stratum; InternalCheckError names the first that does not."""
    for pt in (points if kind == NON_REFERENCE else ()):
        if (any(not pt[GEOM_VARS.index(COFACTOR_COORDS[i])].is_zero() for i in stratum.taken)
                or not all(eval_at_point(family.quadrics[j], pt).is_zero() for j in stratum.quadrics)):
            raise InternalCheckError(f"{point_name(pt)} fails exact substitution on {stratum.label}")
    return StratumResult(stratum, kind, tuple(points), notes)


def _double_hyperplane(family, stratum) -> StratumResult:
    """Two coordinates vanish; both restricted quadrics, the stratum's one
    column of M, must be nonzero multiples of the product of the two free
    coordinates."""
    k = MIXED_MONOMIALS.index(_monomial([COFACTOR_COORDS[j] for j in stratum.quadrics]))
    identities = []
    notes = []
    for j in stratum.quadrics:
        coeff = family.mixed_matrix[j][k]
        if coeff.is_zero():
            return _result(family, stratum, INCONCLUSIVE, (), (
                f"Q{j} restricts to 0 on the stratum plane",
                "an identically zero restriction leaves the whole coordinate line in the locus",
            ))
        identities.append(f"Q{j} restricts to ({coeff}) * {_monomial_name(MIXED_MONOMIALS[k])}")
        if coeff.involves("m"):
            notes.append(
                f"the coefficient of the Q{j} restriction is ({coeff}): a unit for every m except m = 0"
            )
    # the product monomial vanishes where either free coordinate does
    return _result(family, stratum, REFERENCE, stratum.reference_points,
                   tuple(identities + notes))


# -- single-hyperplane strata -------------------------------------------------

def single_hyperplane_system(mixed, h: str):
    """The 3x3 coefficient matrix of the three non-cofactor quadrics on h = 0:
    the slice of `mixed`, M over Q(r)[m] or over Q(r), that `SLICES[h]` fixes.

    Rows are Q_{i+1}, Q_{i+2}, Q_{i+3} (cofactor order), columns the pairwise
    products of the free coordinates in cyclic order.  Every entry of the
    first row carries the unit (3r-2), which the source divides out when it
    prints the h = T matrix; the kernel does not depend on it.

    The free cycle (p, q, s), with basis (pq, qs, sp), is the three
    coordinates after h in (X, Y, Z, T) taken cyclically: (X, Y, Z) for
    h = T, and the rotation transports it to every other h.
    """
    _, row_quadrics, _, cols = SLICES[h]
    return tuple(tuple(mixed[j][k] for k in cols) for j in row_quadrics)


DetAnalysis = namedtuple("DetAnalysis", "det m_coefficient m_free_part")


def single_hyperplane_det_analysis(mat) -> DetAnalysis:
    """The determinant of a single-hyperplane system `mat` from `single_hyperplane_system`."""
    det = matrix_det(mat)
    coeffs = list(det.m_upoly().coeffs) + [NFElem(0)] * 2
    return DetAnalysis(det=det, m_coefficient=coeffs[1], m_free_part=coeffs[0])


def _all_nonzero_kernel_vector(basis):
    """A kernel vector with every entry nonzero, if the kernel is not contained
    in a coordinate hyperplane; None otherwise."""
    n = len(basis[0])
    for p in range(n):
        if all(v[p].is_zero() for v in basis):
            return None
    # complete for its callers: one vector has no zero entry here; two meet (1, t) for
    # t = 0..6, where each entry of b0 + t*b1 vanishes for at most one t, so some t
    # clears n <= 6 entries; three only span a zero slice, answered by its zero columns
    for coeffs in itertools.product(range(0, len(basis) * 3 + 1), repeat=len(basis)):
        if all(c == 0 for c in coeffs):
            continue
        vec = [NFElem(0)] * n
        for c, b in zip(coeffs, basis):
            if c:
                vec = [x + NFElem(c) * y for x, y in zip(vec, b)]
        if all(not x.is_zero() for x in vec):
            return tuple(vec)
    return None


def _slice_kernel(a):
    """The kernel of the slice `a`, its note, `a`'s first zero column (or None)
    and, if no column is zero, the kernel's `_all_nonzero_kernel_vector`."""
    kernel = tuple(nf_kernel_basis(a))
    if not kernel:
        return kernel, (), None, None
    kernel_strs = ["(" + ", ".join(nf_str(c) for c in v) + ")" for v in kernel]
    notes = (f"kernel dimension {len(kernel)}; basis " + "; ".join(kernel_strs),)
    zero = next((col for col in range(3) if all(row[col].is_zero() for row in a)), None)
    return kernel, notes, zero, None if zero is not None else _all_nonzero_kernel_vector(kernel)


def _single_hyperplane(family, stratum, nf_matrix) -> StratumResult:
    """Classify the stratum {h = 0} meet the three non-cofactor quadrics.

    A point of the plane h = 0 has monomial vector (pq, qs, sp) in the kernel
    of the system matrix.  The zero vector forces at least two free
    coordinates to vanish (the reference points).  A kernel vector with all
    entries nonzero lifts to the rational point p = uw, q = uv, s = vw; a
    vector with exactly one nonzero entry exists iff the matching matrix
    column vanishes (then a whole coordinate line lies in the stratum); a
    vector with exactly two nonzero entries never arises from a point.

    The kernel, its note, the zero column and the all-nonzero vector are
    found once per distinct slice of `nf_matrix`, M over Q(r)
    (`_slice_kernel`); the lift below uses this stratum's own basis and cycle.
    """
    (h,) = stratum.hyperplane_names
    basis, _, cycle, _ = SLICES[h]
    a = single_hyperplane_system(nf_matrix, h)

    def result(kind, points, identity, notes=()):
        return _result(family, stratum, kind, points, (
            "the zero monomial vector forces at least two free coordinates to vanish: reference points only",
            "a kernel vector with exactly two nonzero entries is never the monomial vector of a point",
            identity) + notes)

    kernel, notes, zero, vec = family.cached(("slice kernel", a), lambda _: _slice_kernel(a))
    if not kernel:
        return result(REFERENCE, stratum.reference_points, "the specialized system is nonsingular: kernel = 0")

    # one-nonzero-entry vectors come from zero columns
    if zero is not None:
        # the point with 1 at both coordinates of the column's monomial
        sample = tuple(NFElem(e) for e in basis[zero])
        return result(
            NON_REFERENCE, (sample,),
            f"matrix column for {_monomial_name(basis[zero])} vanishes: the whole line with the other coordinates 0 lies in the stratum",
            notes)

    if vec is not None:
        u, v, w = vec
        lifted = dict(zip(cycle, (u * w, u * v, v * w)))
        pt = tuple(lifted.get(name, NFElem(0)) for name in GEOM_VARS)
        return result(
            NON_REFERENCE, (pt,),
            "an all-nonzero kernel vector (u, v, w) lifts to the point (uw, uv, vw) on the free coordinates",
            notes + ("the lifted point is not a reference point",))

    confined = [col for col in range(3) if all(v[col].is_zero() for v in kernel)]
    mono_names = [_monomial_name(basis[c]) for c in confined]
    return result(
        REFERENCE, stratum.reference_points,
        f"every kernel vector has {', '.join(mono_names)} entry 0, and no matrix column vanishes: "
        "no monomial vector of a non-reference point lies in the kernel",
        notes)


# -- the no-hyperplane stratum -------------------------------------------------

def _consistency(u, w):
    """The torus relations (XY)(ZT) = (XZ)(YT) and (XY)(ZT) = (XT)(YZ) as two
    differences, bilinear in the mixed-monomial vectors u and w."""
    return tuple(u[0] * w[5] - u[k] * w[5 - k] for k in (1, 2))


def _torus(family, stratum, nf_matrix) -> StratumResult:
    """Points with all four coordinates nonzero on every quadric.

    The mixed-monomial vector of such a point is an all-nonzero kernel vector
    of the 4x6 system satisfying (XY)(ZT) = (XZ)(YT) = (XT)(YZ); conversely
    any such vector lifts to the rational point
    [pq : p*mu_YZ : q*mu_YZ : s*mu_YZ] with (p, q, s) = (mu_XY, mu_XZ, mu_XT).
    Points with a vanishing coordinate already lie in other strata.

    M's m-free block on the columns XY, YZ, ZT, XT is the one whose
    determinant `quadric_independence` takes and the suites check nonzero;
    so M has rank 4 and its kernel is a plane for every m.
    """
    kernel = nf_kernel_basis(nf_matrix)
    if len(kernel) != 2:
        raise InternalCheckError(f"the mixed-monomial kernel has dimension {len(kernel)}, not 2")
    all_ref = stratum.reference_points
    base_identities = (
        "a common zero with some coordinate 0 lies in a stratum with more hyperplanes",
        "torus points correspond to all-nonzero kernel vectors of the 4x6 mixed-monomial system "
        "satisfying (XY)(ZT) = (XZ)(YT) = (XT)(YZ)",
    )
    notes = (f"mixed-monomial kernel dimension {len(kernel)}",)

    def result(kind, points=(), identities=(), extra_notes=()):
        return _result(family, stratum, kind, points, base_identities + identities + notes + extra_notes)

    b0, b1 = kernel
    # on alpha*b0 + beta*b1 each relation is a binary quadratic in (alpha, beta)
    c_aa, c_bb = _consistency(b0, b0), _consistency(b1, b1)
    c_ab = [x + y for x, y in zip(_consistency(b0, b1), _consistency(b1, b0))]
    p1, p2 = (UPoly((c_bb[k], c_ab[k], c_aa[k])) for k in range(2))
    inf_common = c_aa[0].is_zero() and c_aa[1].is_zero()
    if p1.is_zero() and p2.is_zero():
        vec = _all_nonzero_kernel_vector(kernel)
        if vec is None:
            return result(REFERENCE, all_ref, ("every kernel vector has a fixed zero entry",))
        return result(NON_REFERENCE, (_torus_point(vec),))
    if p1.is_zero() or p2.is_zero():
        return result(INCONCLUSIVE, extra_notes=(
            "one consistency quadratic vanishes identically; root extraction over Q(r) not attempted",))
    g = upoly_gcd(p1, p2)
    if g.degree() <= 0 and not inf_common:
        return result(REFERENCE, all_ref, (
            "the two consistency quadratics have no common projective root "
            "(gcd 1, leading coefficients not both 0)",))
    candidates = []
    if g.degree() == 1:
        root = -g.coeffs[0] / g.coeffs[1]
        candidates.append((root, NFElem(1)))
    if inf_common:
        candidates.append((NFElem(1), NFElem(0)))
    found = []
    for alpha, beta in candidates:
        vec = tuple(alpha * x + beta * y for x, y in zip(b0, b1))
        if all(not c.is_zero() for c in vec):
            found.append(_torus_point(vec))
    if found:
        return result(NON_REFERENCE, tuple(found))
    if g.degree() == 2:
        return result(INCONCLUSIVE, extra_notes=(
            "the consistency gcd is quadratic; its roots were not extracted over Q(r)",))
    return result(REFERENCE, all_ref, ("every common root of the consistency relations has a zero entry",))


def _torus_point(v):
    """The point [pq : p*yz : q*yz : s*yz] of an all-nonzero mixed-monomial
    vector v = (XY, XZ, XT, YZ, ...) = (p, q, s, yz, ...); Q(r) has no zero
    divisors, so no coordinate is 0."""
    p, q, s, yz = v[0], v[1], v[2], v[3]
    return (p * q, p * yz, q * yz, s * yz)


# -- quadric independence -----------------------------------------------------

# the ten quadric monomials, lex descending
QUADRIC_BASIS = tuple(sorted(
    (tuple(e) for e in itertools.product(range(3), repeat=4) if sum(e) == 2),
    reverse=True,
))

# entries: (a, b, c, d); rank_witness: the pivot columns of the certifying maximal minor
IndependenceResult = namedtuple("IndependenceResult", "entries det_cofactor rank rank_witness")


def quadric_independence(family) -> IndependenceResult:
    """The determinant of M's m-free columns XY, YZ, ZT, XT, the transpose of
    the circulant of the XY column (a, b, c, d), by cofactors and checked
    against the circulant's eigenvalue formula; and the rank of Q_0..Q_3 over
    the ten quadric monomials, which is the rank of M since the four square
    columns are zero, with M's pivot columns given as QUADRIC_BASIS indices."""
    cols = [MIXED_MONOMIALS.index(_monomial(pair)) for pair in ("XY", "YZ", "ZT", "XT")]
    block = tuple(tuple(row[k].as_nfelem() for k in cols) for row in family.mixed_matrix)
    a, b, c, d = (row[0] for row in block)
    det_cof = matrix_det(block)
    if det_cof != circulant_det_formula(a, b, c, d):
        raise InternalCheckError("cofactor determinant disagrees with the eigenvalue-product formula")
    rank, pivots = matrix_rank(family.mixed_matrix)
    return IndependenceResult(entries=(a, b, c, d), det_cofactor=det_cof, rank=rank,
                              rank_witness=tuple(QUADRIC_BASIS.index(MIXED_MONOMIALS[k])
                                                 for k in pivots))


# -- stratum dispatch and aggregation ------------------------------------------

# what the 1- and 0-hyperplane strata report while m is a symbol:
# (identity, the analysis that needs m fixed)
_NEEDS_M = {
    1: ("the 3x3 system is singular for every m, so the kernel lift is required", "kernel lift"),
    0: ("the torus analysis solves a specialized linear system", "torus check"),
}


def _nf_matrix(family):
    """M over Q(r), or () while some entry of M involves m."""
    if any(e.involves("m") for row in family.mixed_matrix for e in row):
        return ()
    return tuple(tuple(e.as_nfelem() for e in row) for row in family.mixed_matrix)


def classify_stratum(family, stratum) -> StratumResult:
    """Classify one stratum of `family`; pass `family.at_m(value)` to fix m.
    Raises when a quadric has a square term, since M then does not exist."""
    # M is read first, so a square term raises on every stratum; m stays a
    # symbol unless `CubicFamily.at_m` fixed it
    nf_matrix = family.cached("M over Q(r)", _nf_matrix)
    k = len(stratum.taken)
    if k == 4:
        return _result(family, stratum, EMPTY, (), (
            "X = Y = Z = T = 0 has only the trivial common zero, which is not a projective point",))
    if k == 3:
        # no column: the surviving quadric vanishes identically
        (qj,) = stratum.quadrics
        return _result(family, stratum, REFERENCE, stratum.reference_points, (
            f"Q{qj} with the three coordinates set to 0 is identically 0 in {COFACTOR_COORDS[qj]}",))
    if k < 2 and not nf_matrix:
        identity, analysis = _NEEDS_M[k]
        return _result(family, stratum, INCONCLUSIVE, (),
                       (identity, f"m left symbolic; supply --m to run the {analysis}"))
    if k == 2:
        return _double_hyperplane(family, stratum)
    return (_single_hyperplane if k else _torus)(family, stratum, nf_matrix)


def aggregate(results):
    """(kind, union of points): confirmed only when every stratum is conclusive."""
    points = tuple(dict.fromkeys(pt for res in results if res.kind in (REFERENCE, NON_REFERENCE)
                                 for pt in res.points))
    if any(res.kind == NON_REFERENCE for res in results):
        return NON_REFERENCE, points
    if any(res.kind == INCONCLUSIVE for res in results):
        return INCONCLUSIVE, points
    if set(points) != set(REFERENCE_POINTS):
        raise InternalCheckError("conclusive strata do not union to the four reference points")
    return REFERENCE, REFERENCE_POINTS
