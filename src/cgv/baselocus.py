"""Verification of the 16-piece base-locus decomposition of the cubic system.

Each cubic splits as C_i = coord_i * Q_i with coords (T, X, Y, Z), so the
common zero set decomposes over subsets S of {0..3}: the coordinates with
index in S vanish and the remaining quadrics vanish.  Strata are classified
exactly:

  * 4 hyperplanes: no projective point.
  * 3 hyperplanes: the restricted quadric must vanish identically, leaving
    the single remaining reference point.
  * 2 hyperplanes: both restrictions must be nonzero multiples of the
    product of the two free coordinates.
  * 1 hyperplane: the three restricted quadrics are linear in the three
    pairwise products of the free coordinates; the 3x3 system's kernel is
    lifted (or shown unliftable) through the monomial consistency relations.
  * 0 hyperplanes: points with a zero coordinate fall into other strata; a
    point with all coordinates nonzero gives a kernel vector of the 4x6
    mixed-monomial system subject to (XY)(ZT) = (XZ)(YT) = (XT)(YZ), which
    reduces to a gcd of two binary quadratics.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .nf import NFElem, nf_str
from .upoly import UPoly, upoly_gcd
from .mpoly import MPoly, GEOM_VARS
from .linalg import (matrix_det, matrix_rank, nf_kernel_basis, circulant_det_formula,
                     circulant_matrix)
from .geometry import COFACTOR_COORDS, REFERENCE_POINTS, eval_at_point, point_name


class InternalCheckError(RuntimeError):
    """An invariant of the toolkit itself failed; never a verdict about a claim."""


EMPTY = "empty"
REFERENCE = "reference_points"
NON_REFERENCE = "non_reference_points"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Stratum:
    taken: tuple  # indices i in cofactor order (T,X,Y,Z) whose coordinate vanishes

    @property
    def quadrics(self):
        return tuple(j for j in range(4) if j not in self.taken)

    @property
    def hyperplane_names(self):
        return tuple(COFACTOR_COORDS[i] for i in self.taken)

    def label(self) -> str:
        hs = ".".join(self.hyperplane_names) or "-"
        qs = ".".join(f"Q{j}" for j in self.quadrics) or "-"
        return f"{hs}|{qs}"

    def reference_points(self):
        """The points e_v of the free coordinates v, in REFERENCE_POINTS order."""
        free = {COFACTOR_COORDS[j] for j in self.quadrics}
        return tuple(pt for v, pt in zip(GEOM_VARS, REFERENCE_POINTS) if v in free)


def all_strata():
    """The 16 strata in the displayed order: mask descending, T the top bit."""
    out = []
    for mask in range(15, -1, -1):
        taken = tuple(i for i in range(4) if mask & (8 >> i))
        out.append(Stratum(taken))
    return out


@dataclass(frozen=True)
class StratumResult:
    stratum: Stratum
    kind: str
    points: tuple          # tuples of 4 NFElem, in X,Y,Z,T positions
    identities: tuple      # printed symbolic facts backing the classification
    notes: tuple = ()


def _substitution_for(taken):
    return {COFACTOR_COORDS[i]: 0 for i in taken}


def _coord_position(name: str) -> int:
    return GEOM_VARS.index(name)


def _coefficient_row(q: MPoly, basis, name: str):
    """Coefficients of q over a basis of geometric monomials; q must lie in their span."""
    if not set(q.geom_support()) <= set(basis):
        raise InternalCheckError(f"{name} is not supported on the monomial basis")
    return tuple(q.coeff_of_geom(e) for e in basis)


def _m_symbolic(family) -> bool:
    """Is m still a symbol in the family, i.e. not fixed by `CubicFamily.at_m`?"""
    return any(q.involves("m") for q in family.quadrics)


def _verified(family, stratum, points):
    """`points`, each checked by exact substitution to kill every defining form
    of the stratum; InternalCheckError names the first that does not."""
    for pt in points:
        if (any(not pt[_coord_position(COFACTOR_COORDS[i])].is_zero() for i in stratum.taken)
                or not all(eval_at_point(family.quadrics[j], pt).is_zero() for j in stratum.quadrics)):
            raise InternalCheckError(f"{point_name(pt)} fails exact substitution on {stratum.label()}")
    return tuple(points)


def stratum_triple_hyperplane(family, stratum) -> StratumResult:
    """Three coordinates vanish; the surviving quadric must vanish identically."""
    if len(stratum.taken) != 3:
        raise ValueError("not a three-hyperplane stratum")
    (qj,) = stratum.quadrics
    free_name = COFACTOR_COORDS[qj]
    restricted = family.quadrics[qj].substitute(_substitution_for(stratum.taken))
    if restricted.is_zero():
        return StratumResult(
            stratum, REFERENCE, _verified(family, stratum, stratum.reference_points()),
            identities=(f"Q{qj} with the three coordinates set to 0 is identically 0 in {free_name}",),
        )
    # a nonzero restriction c * free^2 has no zero with free != 0
    return StratumResult(
        stratum, EMPTY, (),
        identities=(f"Q{qj} restricts to the nonzero form {restricted}",),
        notes=("the restriction has no projective zero on the remaining line",),
    )


def stratum_double_hyperplane(family, stratum) -> StratumResult:
    """Two coordinates vanish; both restricted quadrics must be nonzero
    multiples of the product of the two free coordinates."""
    if len(stratum.taken) != 2:
        raise ValueError("not a two-hyperplane stratum")
    sub = _substitution_for(stratum.taken)
    free = [COFACTOR_COORDS[j] for j in stratum.quadrics]
    expected_mono = tuple(
        1 if GEOM_VARS[k] in free else 0 for k in range(4)
    )
    identities = []
    notes = []
    coeffs = []
    for j in stratum.quadrics:
        restricted = family.quadrics[j].substitute(sub)
        if restricted.is_zero():
            return StratumResult(
                stratum, INCONCLUSIVE, (),
                identities=(f"Q{j} restricts to 0 on the stratum plane",),
                notes=("an identically zero restriction leaves the whole coordinate line in the locus",),
            )
        support = restricted.geom_support()
        if support != [expected_mono]:
            return StratumResult(
                stratum, INCONCLUSIVE, (),
                identities=(f"Q{j} restricts to {restricted}, not a single product monomial",),
            )
        coeff = restricted.coeff_of_geom(expected_mono)
        coeffs.append(coeff)
        mono_name = "*".join(v for v in GEOM_VARS if v in free)
        identities.append(f"Q{j} restricts to ({coeff}) * {mono_name}")
        if coeff.involves("m"):
            notes.append(
                f"the coefficient of the Q{j} restriction is ({coeff}): a unit for every m except m = 0"
            )
    # the product monomial vanishes where either free coordinate does
    return StratumResult(
        stratum, REFERENCE, _verified(family, stratum, stratum.reference_points()),
        identities=tuple(identities), notes=tuple(notes),
    )


# -- single-hyperplane strata -------------------------------------------------

def _free_cycle(h: str):
    """Ordered triple (p, q, s) of free coordinates with basis (pq, qs, sp).

    The h = T instance uses (X, Y, Z); the others are its transports under
    the coordinate rotation, which preserves the cyclic structure.
    """
    cycle = ("X", "Y", "Z")
    sub_names = {"X": "T", "Y": "X", "Z": "Y", "T": "Z"}
    hname = "T"
    while hname != h:
        cycle = tuple(sub_names[v] for v in cycle)
        hname = sub_names[hname]
    return cycle


def _pair_monomial(a: str, b: str):
    return tuple(1 if GEOM_VARS[k] in (a, b) else 0 for k in range(4))


def single_hyperplane_system(family, h: str):
    """The 3x3 coefficient matrix of the three non-cofactor quadrics on h = 0.

    Rows are Q_{i+1}, Q_{i+2}, Q_{i+3} (cofactor order), columns the pairwise
    products of the free coordinates in cyclic order.  The first row carries
    the display unit (3r-2) on every coefficient and is normalized by it, so
    the h = T matrix reproduces the printed one entry for entry.

    Returns (matrix, basis exponent vectors, row quadric indices, free cycle).
    """
    if h not in COFACTOR_COORDS:
        raise ValueError(f"unknown hyperplane {h!r}")
    i = COFACTOR_COORDS.index(h)
    cycle = _free_cycle(h)
    basis = [
        _pair_monomial(cycle[0], cycle[1]),
        _pair_monomial(cycle[1], cycle[2]),
        _pair_monomial(cycle[2], cycle[0]),
    ]
    row_quadrics = [(i + k) % 4 for k in (1, 2, 3)]
    unit = NFElem(-2, 3)  # 3r - 2
    unit_inv = unit.inverse()
    rows = []
    for pos, j in enumerate(row_quadrics):
        restricted = family.quadrics[j].substitute({h: 0})
        entries = _coefficient_row(restricted, basis, f"Q{j} restricted to {h}=0")
        if pos == 0:
            entries = tuple(c * unit_inv for c in entries)
        rows.append(entries)
    return tuple(rows), basis, tuple(row_quadrics), cycle


@dataclass(frozen=True)
class DetAnalysis:
    h: str
    matrix: tuple  # rows of MPoly entries in m
    det: MPoly
    m_coefficient: NFElem
    m_free_part: NFElem
    degree_in_m: int


def single_hyperplane_det_analysis(h: str, mat) -> DetAnalysis:
    """The determinant of the h = 0 system `mat` from `single_hyperplane_system`."""
    det = matrix_det(mat)
    up = det.m_upoly()
    coeffs = list(up.coeffs) + [NFElem(0)] * (2 - len(up.coeffs))
    return DetAnalysis(
        h=h, matrix=mat, det=det,
        m_coefficient=coeffs[1],
        m_free_part=coeffs[0],
        degree_in_m=up.degree(),
    )


def _all_nonzero_kernel_vector(basis):
    """A kernel vector with every entry nonzero, if the kernel is not contained
    in a coordinate hyperplane; None otherwise."""
    n = len(basis[0])
    for p in range(n):
        if all(v[p].is_zero() for v in basis):
            return None
    # a generic small combination avoids the coordinate hyperplanes
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


def monomial_kernel_lift(family, h: str) -> StratumResult:
    """Classify the stratum {h = 0} meet the three non-cofactor quadrics.

    A point of the plane h = 0 has monomial vector (pq, qs, sp) in the kernel
    of the system matrix.  The zero vector forces at least two free
    coordinates to vanish (the reference points).  A kernel vector with all
    entries nonzero lifts to the rational point p = uw, q = uv, s = vw; a
    vector with exactly one nonzero entry exists iff the matching matrix
    column vanishes (then a whole coordinate line lies in the stratum); a
    vector with exactly two nonzero entries never arises from a point.
    """
    if _m_symbolic(family):
        raise ValueError("kernel lift needs m specialized")
    stratum = Stratum((COFACTOR_COORDS.index(h),))
    mat, basis, row_quadrics, cycle = single_hyperplane_system(family, h)
    a = [[e.as_nfelem() for e in row] for row in mat]
    ref_points = _verified(family, stratum, stratum.reference_points())
    identities = [
        "the zero monomial vector forces at least two free coordinates to vanish: reference points only",
        "a kernel vector with exactly two nonzero entries is never the monomial vector of a point",
    ]

    kernel = nf_kernel_basis(a)
    if not kernel:
        return StratumResult(
            stratum, REFERENCE, ref_points,
            identities=tuple(identities) + ("the specialized system is nonsingular: kernel = 0",),
        )

    kernel_strs = ["(" + ", ".join(nf_str(c) for c in v) + ")" for v in kernel]
    notes = [f"kernel dimension {len(kernel)}; basis " + "; ".join(kernel_strs)]

    # one-nonzero-entry vectors come from zero columns
    for col in range(3):
        if all(row[col].is_zero() for row in a):
            line_vars = [GEOM_VARS[k] for k in range(4) if basis[col][k]]
            sample = [NFElem(0)] * 4
            for vname in line_vars:
                sample[_coord_position(vname)] = NFElem(1)
            sample = tuple(sample)
            return StratumResult(
                stratum, NON_REFERENCE, (sample,),
                identities=tuple(identities) + (
                    f"matrix column for {'*'.join(line_vars)} vanishes: the whole line with the other coordinates 0 lies in the stratum",),
                notes=tuple(notes),
            )

    vec = _all_nonzero_kernel_vector(kernel)
    if vec is not None:
        u, v, w = vec
        pt = [NFElem(0)] * 4
        pt[_coord_position(cycle[0])] = u * w
        pt[_coord_position(cycle[1])] = u * v
        pt[_coord_position(cycle[2])] = v * w
        return StratumResult(
            stratum, NON_REFERENCE, _verified(family, stratum, (tuple(pt),)),
            identities=tuple(identities) + (
                "an all-nonzero kernel vector (u, v, w) lifts to the point (uw, uv, vw) on the free coordinates",),
            notes=tuple(notes) + ("the lifted point is not a reference point",),
        )

    confined = [col for col in range(3) if all(v[col].is_zero() for v in kernel)]
    mono_names = ["*".join(GEOM_VARS[k] for k in range(4) if basis[c][k]) for c in confined]
    return StratumResult(
        stratum, REFERENCE, ref_points,
        identities=tuple(identities) + (
            f"every kernel vector has {', '.join(mono_names)} entry 0, and no matrix column vanishes: "
            "no monomial vector of a non-reference point lies in the kernel",),
        notes=tuple(notes),
    )


# -- the no-hyperplane stratum -------------------------------------------------

MIXED_MONOMIALS = (
    (1, 1, 0, 0),  # XY
    (1, 0, 1, 0),  # XZ
    (1, 0, 0, 1),  # XT
    (0, 1, 1, 0),  # YZ
    (0, 1, 0, 1),  # YT
    (0, 0, 1, 1),  # ZT
)


def mixed_monomial_matrix(family):
    """4x6 coefficients of Q_0..Q_3 over the mixed quadric monomials, as rows."""
    return tuple(_coefficient_row(q, MIXED_MONOMIALS, f"Q{j}")
                 for j, q in enumerate(family.quadrics))


def _binary_quadratic(vals):
    """(c_aa, c_ab, c_bb) -> UPoly in the dehomogenized parameter."""
    c_aa, c_ab, c_bb = vals
    return UPoly((c_bb, c_ab, c_aa))


def no_hyperplane_torus_check(family) -> StratumResult:
    """Points with all four coordinates nonzero on every quadric.

    The mixed-monomial vector of such a point is an all-nonzero kernel vector
    of the 4x6 system satisfying (XY)(ZT) = (XZ)(YT) = (XT)(YZ); conversely
    any such vector lifts to the rational point
    [pq : p*mu_YZ : q*mu_YZ : s*mu_YZ] with (p, q, s) = (mu_XY, mu_XZ, mu_XT).
    Points with a vanishing coordinate already lie in other strata.
    """
    if _m_symbolic(family):
        raise ValueError("the torus check needs m specialized")
    stratum = Stratum(())
    mat = mixed_monomial_matrix(family)
    kernel = nf_kernel_basis([[e.as_nfelem() for e in row] for row in mat])
    all_ref = stratum.reference_points()
    base_identities = (
        "a common zero with some coordinate 0 lies in a stratum with more hyperplanes",
        "torus points correspond to all-nonzero kernel vectors of the 4x6 mixed-monomial system "
        "satisfying (XY)(ZT) = (XZ)(YT) = (XT)(YZ)",
    )
    notes = [f"mixed-monomial kernel dimension {len(kernel)}"]
    if not kernel:
        return StratumResult(stratum, REFERENCE, all_ref,
                             identities=base_identities + ("the kernel is 0: no torus point",),
                             notes=tuple(notes))
    if len(kernel) == 1:
        v = kernel[0]
        p1 = v[0] * v[5] - v[1] * v[4]
        p2 = v[0] * v[5] - v[2] * v[3]
        if not p1.is_zero() or not p2.is_zero():
            return StratumResult(stratum, REFERENCE, all_ref,
                                 identities=base_identities + (
                                     "the kernel line violates the consistency relations",),
                                 notes=tuple(notes))
        if any(c.is_zero() for c in v):
            return StratumResult(stratum, REFERENCE, all_ref,
                                 identities=base_identities + (
                                     "the consistent kernel line has a zero entry, so it is not a torus monomial vector",),
                                 notes=tuple(notes))
        return StratumResult(stratum, NON_REFERENCE, (_torus_point(family, v),),
                             identities=base_identities,
                             notes=tuple(notes) + ("a consistent all-nonzero kernel vector lifts",))
    if len(kernel) == 2:
        b0, b1 = kernel
        quads = []
        for (i1, i2, j1, j2) in ((0, 5, 1, 4), (0, 5, 2, 3)):
            c_aa = b0[i1] * b0[i2] - b0[j1] * b0[j2]
            c_ab = (b0[i1] * b1[i2] + b1[i1] * b0[i2]) - (b0[j1] * b1[j2] + b1[j1] * b0[j2])
            c_bb = b1[i1] * b1[i2] - b1[j1] * b1[j2]
            quads.append((c_aa, c_ab, c_bb))
        p1, p2 = (_binary_quadratic(q) for q in quads)
        inf_common = quads[0][0].is_zero() and quads[1][0].is_zero()
        if p1.is_zero() and p2.is_zero():
            vec = _all_nonzero_kernel_vector(kernel)
            if vec is None:
                return StratumResult(stratum, REFERENCE, all_ref,
                                     identities=base_identities + (
                                         "every kernel vector has a fixed zero entry",),
                                     notes=tuple(notes))
            return StratumResult(stratum, NON_REFERENCE, (_torus_point(family, vec),),
                                 identities=base_identities, notes=tuple(notes))
        if p1.is_zero() or p2.is_zero():
            return StratumResult(stratum, INCONCLUSIVE, (),
                                 identities=base_identities,
                                 notes=tuple(notes) + ("one consistency quadratic vanishes identically; "
                                                       "root extraction over Q(r) not attempted",))
        g = upoly_gcd(p1, p2)
        if g.degree() <= 0 and not inf_common:
            return StratumResult(stratum, REFERENCE, all_ref,
                                 identities=base_identities + (
                                     "the two consistency quadratics have no common projective root "
                                     "(gcd 1, leading coefficients not both 0)",),
                                 notes=tuple(notes))
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
                found.append(_torus_point(family, vec))
        if found:
            return StratumResult(stratum, NON_REFERENCE, tuple(found),
                                 identities=base_identities, notes=tuple(notes))
        if g.degree() == 2:
            return StratumResult(stratum, INCONCLUSIVE, (),
                                 identities=base_identities,
                                 notes=tuple(notes) + ("the consistency gcd is quadratic; its roots were "
                                                       "not extracted over Q(r)",))
        return StratumResult(stratum, REFERENCE, all_ref,
                             identities=base_identities + (
                                 "every common root of the consistency relations has a zero entry",),
                             notes=tuple(notes))
    return StratumResult(stratum, INCONCLUSIVE, (),
                         identities=base_identities,
                         notes=tuple(notes) + ("kernel dimension above 2 not analyzed",))


def _torus_point(family, v):
    """The point [pq : p*yz : q*yz : s*yz] of an all-nonzero mixed-monomial
    vector v = (XY, XZ, XT, YZ, ...) = (p, q, s, yz, ...), verified."""
    p, q, s, yz = v[0], v[1], v[2], v[3]
    pt = (p * q, p * yz, q * yz, s * yz)
    if any(c.is_zero() for c in pt):
        raise InternalCheckError("lifted torus point has a zero coordinate")
    return _verified(family, Stratum(()), (pt,))[0]


# -- quadric independence -----------------------------------------------------

QUADRIC_BASIS = tuple(sorted(
    (tuple(e) for e in itertools.product(range(3), repeat=4) if sum(e) == 2),
    reverse=True,
))


@dataclass(frozen=True)
class IndependenceResult:
    entries: tuple            # (a, b, c, d)
    det_cofactor: NFElem
    det_formula: NFElem
    nonzero: bool
    rank: int
    rank_witness: tuple       # pivot columns: the certifying maximal minor


def circulant_entries(family):
    """(a, b, c, d): the coefficients of XY in Q_0..Q_3."""
    xy = (1, 1, 0, 0)
    out = []
    for q in family.quadrics:
        c = q.coeff_of_geom(xy)
        out.append(c.as_nfelem())
    return tuple(out)


@functools.lru_cache(maxsize=1)  # `check all` asks twice for the one family it builds
def quadric_independence(family) -> IndependenceResult:
    a, b, c, d = circulant_entries(family)
    mat = circulant_matrix(a, b, c, d)
    det_cof = matrix_det(mat)
    det_formula = circulant_det_formula(a, b, c, d)
    if det_cof != det_formula:
        raise InternalCheckError("cofactor determinant disagrees with the eigenvalue-product formula")
    coeff_rows = [_coefficient_row(q, QUADRIC_BASIS, f"Q{j}") for j, q in enumerate(family.quadrics)]
    rank, pivots = matrix_rank(coeff_rows)
    return IndependenceResult(
        entries=(a, b, c, d),
        det_cofactor=det_cof,
        det_formula=det_formula,
        nonzero=not det_cof.is_zero(),
        rank=rank,
        rank_witness=pivots,
    )


# -- stratum dispatch and aggregation ------------------------------------------

def classify_stratum(family, stratum) -> StratumResult:
    """Classify one stratum of `family`; pass `family.at_m(value)` to fix m."""
    k = len(stratum.taken)
    if k == 4:
        return StratumResult(
            stratum, EMPTY, (),
            identities=("X = Y = Z = T = 0 has only the trivial common zero, which is not a projective point",),
        )
    if k == 3:
        return stratum_triple_hyperplane(family, stratum)
    if k == 2:
        return stratum_double_hyperplane(family, stratum)
    if k == 1:
        h = COFACTOR_COORDS[stratum.taken[0]]
        if _m_symbolic(family):
            return StratumResult(
                stratum, INCONCLUSIVE, (),
                identities=("the 3x3 system is singular for every m, so the kernel lift is required",),
                notes=("m left symbolic; supply --m to run the kernel lift",),
            )
        return monomial_kernel_lift(family, h)
    if _m_symbolic(family):
        return StratumResult(
            stratum, INCONCLUSIVE, (),
            identities=("the torus analysis solves a specialized linear system",),
            notes=("m left symbolic; supply --m to run the torus check",),
        )
    return no_hyperplane_torus_check(family)


def aggregate(results):
    """(kind, union of points): confirmed only when every stratum is conclusive."""
    points = []
    seen = set()
    for res in results:
        for pt in res.points:
            if res.kind in (REFERENCE, NON_REFERENCE) and pt not in seen:
                seen.add(pt)
                points.append(pt)
    if any(res.kind == NON_REFERENCE for res in results):
        return NON_REFERENCE, tuple(points)
    if any(res.kind == INCONCLUSIVE for res in results):
        return INCONCLUSIVE, tuple(points)
    expected = set(REFERENCE_POINTS)
    if set(points) != expected:
        raise InternalCheckError("conclusive strata do not union to the four reference points")
    ordered = tuple(sorted(points, key=lambda p: REFERENCE_POINTS.index(p)))
    return REFERENCE, ordered


def points_str(points) -> str:
    return ", ".join(point_name(p) for p in points) if points else "(none)"
