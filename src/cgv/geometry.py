"""The order-4 coordinate rotation of P^3, its fixed lines, and the invariant
cubic family with quadric cofactors.

The four cubics are built from their printed displays; the reading of the
unbalanced bracket is (3r-2)[(linear)*coord + (r+1)*mon], the unique one
consistent with the T = 0 restrictions used downstream.  Construction fails
loudly if any structural identity (homogeneity, cofactor split, vanishing at
the reference points, closure under the rotation) does not hold.
"""

from __future__ import annotations

import functools

from .nf import NFElem
from .mpoly import MPoly, GEOM_VARS
from .parsing import parse_poly


class ConstructionError(RuntimeError):
    pass


class CoordMap:
    """A signed permutation of the coordinates (X, Y, Z, T).

    `images[k]` is the image of coordinate k as (sign, index); the same data
    serves as a substitution on polynomials and as a point map.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple((s, i) for s, i in images)
        if sorted(i for _, i in images) != [0, 1, 2, 3]:
            raise ValueError("images must permute the four coordinates")
        if any(s not in (1, -1) for s, _ in images):
            raise ValueError("signs must be +1 or -1")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("CoordMap is immutable")

    @classmethod
    def identity(cls):
        return cls(((1, 0), (1, 1), (1, 2), (1, 3)))

    def substitution(self):
        out = {}
        for k, (s, i) in enumerate(self.images):
            img = MPoly.var(GEOM_VARS[i])
            out[GEOM_VARS[k]] = img if s == 1 else -img
        return out

    def point_image(self, point):
        """Apply the map to a 4-tuple of coordinates (scalars or polynomials)."""
        return tuple(
            point[i] if s == 1 else -point[i]
            for s, i in self.images
        )

    def compose(self, other: "CoordMap") -> "CoordMap":
        """self after other."""
        out = []
        for s, i in self.images:
            s2, i2 = other.images[i]
            out.append((s * s2, i2))
        return CoordMap(out)

    def order(self) -> int:
        ident = CoordMap.identity()
        g = self
        for k in range(1, 9):
            if g == ident:
                return k
            g = g.compose(self)
        raise ArithmeticError("order exceeds 8, not a signed coordinate permutation?")

    def __eq__(self, other):
        if not isinstance(other, CoordMap):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        names = []
        for s, i in self.images:
            names.append(("-" if s == -1 else "") + GEOM_VARS[i])
        return "CoordMap(X,Y,Z,T -> " + ",".join(names) + ")"


# (X, Y, Z, T) -> (T, X, Y, Z)
SIGMA = CoordMap(((1, 3), (1, 0), (1, 1), (1, 2)))
SIGMA2 = SIGMA.compose(SIGMA)


def apply_map(f: MPoly, g: CoordMap) -> MPoly:
    return f.substitute(g.substitution())


class LineSub:
    """A line given by eliminating two coordinates, e.g. Z -> -X, T -> -Y."""

    __slots__ = ("name", "sub")

    def __init__(self, name: str, sub):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "sub", dict(sub))

    def __setattr__(self, name, value):
        raise AttributeError("LineSub is immutable")

    def restrict(self, f: MPoly) -> MPoly:
        return f.substitute(self.sub)

    def parametrization(self):
        """The line as a 4-tuple of binary forms in the two free coordinates."""
        out = []
        for v in GEOM_VARS:
            out.append(self.sub[v] if v in self.sub else MPoly.var(v))
        return tuple(out)


LINE_R = LineSub("r", {"Z": -MPoly.var("X"), "T": -MPoly.var("Y")})
LINE_R_PRIME = LineSub("r'", {"Z": MPoly.var("X"), "T": MPoly.var("Y")})


def fixed_line_check(g: CoordMap, line: LineSub):
    """Does g fix the parametrized line pointwise (projectively)?

    Returns (fixed, failing_pairs): the image tuple must be proportional to
    the original for all parameter values, i.e. all 2x2 cross products of
    the two tuples vanish identically.
    """
    pt = line.parametrization()
    img = g.point_image(pt)
    failing = []
    for i in range(4):
        for j in range(i + 1, 4):
            cross = img[i] * pt[j] - img[j] * pt[i]
            if not cross.is_zero():
                failing.append((i, j))
    return (not failing), failing


# The printed quadric cofactors; C_i = coord_i * Q_i with coords (T, X, Y, Z).
COFACTOR_COORDS = ("T", "X", "Y", "Z")

QUADRIC_TEXTS = (
    "(3*r-2)*((X+m*Y+r^2*Z)*T+(r+1)*X*Y)+(-6*r^2+2*r+2)*X*Z+(-2*r^2-5*r+5)*Y*Z",
    "(3*r-2)*((Y+m*Z+r^2*T)*X+(r+1)*Y*Z)+(-6*r^2+2*r+2)*Y*T+(-2*r^2-5*r+5)*Z*T",
    "(3*r-2)*((Z+m*T+r^2*X)*Y+(r+1)*Z*T)+(-6*r^2+2*r+2)*Z*X+(-2*r^2-5*r+5)*T*X",
    "(3*r-2)*((T+m*X+r^2*Y)*Z+(r+1)*T*X)+(-6*r^2+2*r+2)*T*Y+(-2*r^2-5*r+5)*X*Y",
)

REFERENCE_POINTS = (
    (NFElem(1), NFElem(0), NFElem(0), NFElem(0)),
    (NFElem(0), NFElem(1), NFElem(0), NFElem(0)),
    (NFElem(0), NFElem(0), NFElem(1), NFElem(0)),
    (NFElem(0), NFElem(0), NFElem(0), NFElem(1)),
)


def point_name(pt) -> str:
    return "[" + ":".join(str(c) for c in pt) + "]"


def eval_at_point(f: MPoly, pt):
    """Evaluate in the geometric variables; m (if present) stays symbolic."""
    return f.substitute(dict(zip(GEOM_VARS, pt)))


class CubicFamily:
    """The four cubics C_0..C_3 and their quadric cofactors Q_0..Q_3."""

    __slots__ = ("cubics", "quadrics", "sigma_index_map")

    def __init__(self, cubics, quadrics, sigma_index_map):
        object.__setattr__(self, "cubics", tuple(cubics))
        object.__setattr__(self, "quadrics", tuple(quadrics))
        object.__setattr__(self, "sigma_index_map", tuple(sigma_index_map))

    def __setattr__(self, name, value):
        raise AttributeError("CubicFamily is immutable")

    def at_m(self, value) -> "CubicFamily":
        """The family with m fixed to `value`; the family itself for None."""
        if value is None:
            return self
        sub = {"m": value}
        return CubicFamily(
            (c.substitute(sub) for c in self.cubics),
            (q.substitute(sub) for q in self.quadrics),
            self.sigma_index_map,
        )


@functools.cache
def _verified_family():
    """Parse the printed quadrics and check the construction, once per process.

    Returns (cubics, quadrics, index_map).  The polynomials are shared by
    every family `build_cubics` returns, so no caller may mutate their terms.
    """
    quadrics = tuple(parse_poly(t) for t in QUADRIC_TEXTS)
    cubics = tuple(MPoly.var(c) * q for c, q in zip(COFACTOR_COORDS, quadrics))

    for i, (c, q) in enumerate(zip(cubics, quadrics)):
        if not c.is_homogeneous(3):
            raise ConstructionError(f"C{i} is not homogeneous of degree 3")
        if not q.is_homogeneous(2):
            raise ConstructionError(f"Q{i} is not homogeneous of degree 2")
        quotient, exact = c.div_by_var(COFACTOR_COORDS[i])
        if not exact or quotient != q:
            raise ConstructionError(f"C{i} does not factor as {COFACTOR_COORDS[i]}*Q{i}")
        for pt in REFERENCE_POINTS:
            if not eval_at_point(c, pt).is_zero():
                raise ConstructionError(f"C{i} does not vanish at {point_name(pt)}")

    # closure under the rotation: each C_i maps to some C_j
    index_map = []
    for i, c in enumerate(cubics):
        img = apply_map(c, SIGMA)
        matches = [j for j, d in enumerate(cubics) if img == d]
        if len(matches) != 1:
            raise ConstructionError(f"C{i} composed with the rotation is not in the family")
        index_map.append(matches[0])
    if sorted(index_map) != [0, 1, 2, 3]:
        raise ConstructionError("the rotation does not permute the family")

    return cubics, quadrics, tuple(index_map)


def build_cubics() -> CubicFamily:
    """The verified family, as a fresh `CubicFamily` on every call.

    The family is a new object each time because results cached on the
    family (`baselocus.quadric_independence`) are meant to last one run.
    """
    return CubicFamily(*_verified_family())
