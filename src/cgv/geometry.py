"""The order-4 coordinate rotation of P^3, its fixed lines, and the invariant
cubic family with quadric cofactors.

The four cubics are built from their printed displays, the quadric texts
in `claims`; the reading of the unbalanced bracket is (3r-2)[(linear)*coord
+ (r+1)*mon], the unique one consistent with the T = 0 restrictions used
downstream.  Construction checks each printed Q_i once (no term off the
mixed monomials, so Q_i is homogeneous of degree 2, and Q_i and
C_i = coord_i * Q_i vanish at the reference points), then closure under
the rotation.

What the printed quadrics alone determine is kept once per process, in
the verified family's store: M, read off by the construction check, and
the `derive` values, the chart-gradient rows and D (`tangent`), the pencil
on r and Q0, Q1 on r (`genus`).  A `CubicFamily` lasts one run; its memo,
`cached`, keeps what a layer computes once per run, next to its one
reader: `baselocus` M over Q(r) and, per distinct slice, its kernel with
the kernel's note and all-nonzero vector; `suites` the independence
analysis.  With m fixed, M and each `derive` value are the stored ones
with m fixed, kept for the run; the quadrics are substituted where read.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

from . import claims
from .nf import NFElem
from .mpoly import MPoly, GEOM_VARS


class ConstructionError(RuntimeError):
    pass


class InternalCheckError(RuntimeError):
    """An invariant of the toolkit itself failed; never a verdict about a claim."""


# (X, Y, Z, T) as a point: every polynomial takes itself as its value here
GENERIC_POINT = X, Y, Z, T = tuple(MPoly.var(v) for v in GEOM_VARS)

# the lines r = {X + Z = Y + T = 0} and r' = {X - Z = Y - T = 0}, by their
# generic points; restricting f to r is eval_at_point(f, LINE_R)
LINE_R = (X, Y, -X, -Y)
LINE_R_PRIME = (X, Y, X, Y)


class CoordMap(namedtuple("CoordMap", "images")):
    """A permutation of the coordinates (X, Y, Z, T).

    Coordinate k maps to coordinate `images[k]`.  It acts on points by
    `point_image`; it pulls a polynomial back by evaluating it at the image of
    the generic point.
    """

    __slots__ = ()

    def __new__(cls, images: tuple):
        if sorted(images) != [0, 1, 2, 3]:
            raise ValueError("images must permute the four coordinates")
        return super().__new__(cls, images)

    def point_image(self, point):
        """Apply the map to a 4-tuple of coordinates (scalars or polynomials)."""
        return tuple(point[i] for i in self.images)

    def compose(self, other: "CoordMap") -> "CoordMap":
        """self after other."""
        return CoordMap(tuple(other.images[i] for i in self.images))

    def order(self) -> int:
        """The least k >= 1 with self^k the identity; at most 4."""
        g, k = self, 1
        while g.images != (0, 1, 2, 3):
            g, k = g.compose(self), k + 1
        return k


# (X, Y, Z, T) -> (T, X, Y, Z)
SIGMA = CoordMap((3, 0, 1, 2))
SIGMA2 = SIGMA.compose(SIGMA)


def fixed_line_check(g: CoordMap, line):
    """Does g fix the line, given by its generic point, pointwise (projectively)?

    Returns (fixed, failing_pairs): the image tuple must be proportional to
    the original for all parameter values, i.e. all 2x2 cross products of
    the two tuples vanish identically.
    """
    img = g.point_image(line)
    failing = []
    for i in range(4):
        for j in range(i + 1, 4):
            cross = img[i] * line[j] - img[j] * line[i]
            if not cross.is_zero():
                failing.append((i, j))
    return (not failing), failing


# C_i = coord_i * Q_i with coords (T, X, Y, Z).
COFACTOR_COORDS = ("T", "X", "Y", "Z")

REFERENCE_POINTS = (
    (NFElem(1), NFElem(0), NFElem(0), NFElem(0)),
    (NFElem(0), NFElem(1), NFElem(0), NFElem(0)),
    (NFElem(0), NFElem(0), NFElem(1), NFElem(0)),
    (NFElem(0), NFElem(0), NFElem(0), NFElem(1)),
)


# XY, XZ, XT, YZ, YT, ZT: the quadric monomials that vanish at all four
# reference points; entries k and 5 - k are complementary pairs
MIXED_MONOMIALS = tuple(tuple(int(v in pair) for v in GEOM_VARS)
                        for pair in itertools.combinations(GEOM_VARS, 2))


@functools.lru_cache(maxsize=16)  # the reference points are named many times a run
def point_name(pt) -> str:
    return "[" + ":".join(str(c) for c in pt) + "]"


def eval_at_point(f: MPoly, pt):
    """f at the 4-tuple `pt` of scalars or polynomials; m (if present) stays
    symbolic.  This is evaluation, restriction to a line and pullback alike.
    A coordinate whose entry is its own GENERIC_POINT object is left as it
    is, so the identity entries of a line cost nothing.  At a reference point
    e_i the three zero entries drop every term but the pure powers of x_i
    before any product, and the entry 1 is never multiplied, so the value
    costs no Q(r) product or power."""
    return f.substitute({v: c for v, c, g in zip(GEOM_VARS, pt, GENERIC_POINT) if c is not g})


def _mixed_row(j: int, q: MPoly) -> tuple:
    """Row j of M, or a ConstructionError if Q_j has a term off MIXED_MONOMIALS."""
    if not set(q.geom_support()) <= set(MIXED_MONOMIALS):
        raise ConstructionError(f"Q{j} has a term off the mixed monomials")
    return tuple(q.coeff_of_geom(e) for e in MIXED_MONOMIALS)


class CubicFamily:
    """The four cubics C_0..C_3 and their quadric cofactors Q_0..Q_3.

    Compared by identity.  M (`mixed_matrix`) and the `derive` values are
    kept in a store: one per process, shared by every family `build_cubics`
    returns, and one of its own for a family built from other polynomials.
    The memo (`cached`) lasts one run; `at_m` substitutes nothing up front
    (see `_FamilyAtM`).
    """

    def __init__(self, cubics: tuple, quadrics: tuple, sigma_index_map: tuple):
        object.__setattr__(self, "cubics", cubics)
        object.__setattr__(self, "quadrics", quadrics)
        object.__setattr__(self, "sigma_index_map", sigma_index_map)
        object.__setattr__(self, "_store", {})
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("CubicFamily is immutable")

    def at_m(self, value) -> "CubicFamily":
        """The family with m fixed to `value`; the family itself for None."""
        return self if value is None else _FamilyAtM(self, value)

    def cached(self, key, build):
        """`build(self)`, computed once per family and key; `build` never
        returns None, which marks a key not yet built."""
        return _kept(self._memo, key, build, self)

    def derive(self, key, build):
        """`cached` in the store, for a tuple of polynomials whose `build`
        commutes with fixing m, so that a family with m fixed specialises it."""
        return _kept(self._store, key, build, self)

    @property
    def mixed_matrix(self):
        """M: the 4x6 coefficients of Q_0..Q_3 over MIXED_MONOMIALS, in Q(r)[m].

        Each Q_j vanishes at the reference points, so it has no square term;
        the restriction of Q_j to a base-locus stratum is row j of M on the
        stratum's columns.
        """
        return _kept(self._store, "M",
                     lambda f: tuple(_mixed_row(j, q) for j, q in enumerate(f.quadrics)), self)


def _kept(table, key, build, family):
    value = table.get(key)
    if value is None:
        value = table[key] = build(family)
    return value


class _FamilyAtM(CubicFamily):
    """The family `parent` with m fixed to a value v (`CubicFamily.at_m`).

    Fixing m is a ring map, so it commutes with reading M off the quadrics,
    with the partials, with T := 1, with products and with restriction to a
    line.  M is the parent's M with m := v, entry by entry, and so raises
    wherever the parent's does: a square term raises at every v, even at a
    v where its coefficient vanishes.  A `derive` value is likewise the
    parent's stored symbolic value with m := v in each entry, kept in this
    family's memo, so the parent's store holds no value at any v.  The
    cubics and quadrics are the parent's with m := v, substituted on first
    use, and every `cached` value is built on this family.
    """

    def __init__(self, parent: CubicFamily, value):
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "sigma_index_map", parent.sigma_index_map)
        object.__setattr__(self, "_m", {"m": value})
        object.__setattr__(self, "_memo", {})

    def _specialized(self, polys) -> tuple:
        return tuple(p.substitute(self._m) for p in polys)

    @functools.cached_property
    def mixed_matrix(self):
        # each entry of the parent's M is a polynomial in m alone
        power = functools.cache(self._m["m"].__pow__)

        def at_v(entry):
            if not entry.involves("m"):
                return entry
            values = [c * power(e[4]) if e[4] else c for e, c in entry.terms.items()]
            return MPoly.constant(sum(values[1:], values[0]))
        return tuple(tuple(map(at_v, row)) for row in self.parent.mixed_matrix)

    @functools.cached_property
    def cubics(self):
        return self._specialized(self.parent.cubics)

    @functools.cached_property
    def quadrics(self):
        return self._specialized(self.parent.quadrics)

    def derive(self, key, build):
        return self.cached(key, lambda _: self._specialized(self.parent.derive(key, build)))


@functools.cache
def _verified_family() -> CubicFamily:
    """Parse the printed quadrics and check the construction, once per process.

    Its store, which starts with M as the check reads it off, and its
    polynomials are shared by every family `build_cubics` returns, so no
    caller may mutate their terms.
    """
    quadrics = tuple(claims.parse_display(t) for t in claims.QUADRIC_TEXTS)
    mixed = tuple(_mixed_row(i, q) for i, q in enumerate(quadrics))
    cubics = tuple(MPoly.var(c) * q for c, q in zip(COFACTOR_COORDS, quadrics))

    # closure under the rotation: each C_i maps to some C_j
    index_map = []
    pullback = SIGMA.point_image(GENERIC_POINT)
    for i, c in enumerate(cubics):
        img = eval_at_point(c, pullback)
        matches = [j for j, d in enumerate(cubics) if img == d]
        if len(matches) != 1:
            raise ConstructionError(f"C{i} composed with the rotation is not in the family")
        index_map.append(matches[0])
    if sorted(index_map) != [0, 1, 2, 3]:
        raise ConstructionError("the rotation does not permute the family")

    family = CubicFamily(cubics, quadrics, tuple(index_map))
    family._store["M"] = mixed
    return family


def build_cubics() -> CubicFamily:
    """The verified family, as a fresh `CubicFamily` on every call.

    It shares the verified family's polynomials and store, which last the
    process, and has a memo of its own for one run (see `CubicFamily`).
    """
    family = object.__new__(CubicFamily)
    family.__dict__.update(vars(_verified_family()), _memo={})
    return family
