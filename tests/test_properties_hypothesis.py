"""Structure-driven property tests over randomized inputs."""

from math import gcd

from hypothesis import example, given, settings, strategies as st

from cgv.geometry import LINE_R, LINE_R_PRIME, build_cubics, eval_at_point
from cgv.mpoly import GEOM_VARS, MPoly, VARS, ZERO_EXP
from cgv.nf import NFElem, nf_invert
from cgv.parsing import parse_poly
from cgv.upoly import UPoly, squarefree_part, upoly_gcd

from conftest import SYMS, frac_elem, red, ref_mpoly_str, ref_upoly_str, to_sympy

fractions = st.fractions(min_value=-30, max_value=30, max_denominator=12)
nf_elems = st.builds(frac_elem, fractions, fractions, fractions)
exponents = st.tuples(*(st.integers(min_value=0, max_value=3) for _ in range(5)))
mpolys = st.dictionaries(exponents, nf_elems, max_size=5).map(MPoly)


@settings(max_examples=150, deadline=None)
@given(nf_elems, nf_elems, nf_elems)
def test_nf_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b * c) == (a * b) * c
    assert a * (b + c) == a * b + a * c


@settings(max_examples=100, deadline=None)
@given(nf_elems)
def test_nf_inverse(a):
    if not a.is_zero():
        assert a * nf_invert(a) == NFElem(1)


@settings(max_examples=100, deadline=None)
@given(mpolys)
def test_print_parse_roundtrip(p):
    assert parse_poly(str(p)) == p


@settings(max_examples=80, deadline=None)
@given(mpolys, mpolys)
def test_partial_leibniz(f, g):
    for v in ("X", "T"):
        assert (f * g).partial(v) == f * g.partial(v) + g * f.partial(v)


upolys = st.lists(fractions.map(frac_elem), max_size=6).map(lambda cs: UPoly(tuple(cs)))


@settings(max_examples=100, deadline=None)
@given(upolys, upolys)
def test_gcd_divides(f, g):
    if f.is_zero() and g.is_zero():
        return
    h = upoly_gcd(f, g)
    for p in (f, g):
        if not p.is_zero():
            assert (p % h).is_zero()


@settings(max_examples=80, deadline=None)
@given(upolys)
def test_squarefree_has_no_repeated_roots(f):
    if f.is_zero():
        return
    s = squarefree_part(f)
    if s.degree() >= 1:
        assert upoly_gcd(s, s.derivative()).degree() == 0


# few geometric monomials, so that terms differing only in m are common
m_stacked = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.just(0), st.just(0), st.integers(0, 3)),
    nf_elems, max_size=8).map(MPoly)


def fold_m(f, v):
    """Reference for fixing m: each m^k moves into the coefficient as v^k."""
    out = MPoly()
    for e, c in f.terms.items():
        out = out + MPoly({e[:4] + (0,): c * v ** e[4]})
    return out


@settings(max_examples=100, deadline=None)
@given(st.one_of(mpolys, m_stacked), nf_elems)
def test_specialize_m_is_the_substitution_of_m(f, v):
    assert f.substitute({"m": v}) == fold_m(f, v)
    assert f.substitute({"m": MPoly.constant(v)}) == fold_m(f, v)


# images for `substitute`: scalars of every kind, variables (to themselves or
# to another, with a sign), and small polynomials
scalar_images = st.one_of(
    st.sampled_from([0, 1, -1, NFElem(0), MPoly(), MPoly.constant(1)]),
    fractions.map(frac_elem), nf_elems, nf_elems.map(MPoly.constant))
variable_images = st.tuples(st.sampled_from(VARS), st.sampled_from([1, -1])).map(
    lambda vs: vs[1] * MPoly.var(vs[0]))
small_exponents = st.tuples(*(st.integers(min_value=0, max_value=1) for _ in range(5)))
poly_images = st.dictionaries(small_exponents, nf_elems, min_size=1, max_size=2).map(MPoly)
images = st.one_of(scalar_images, variable_images, poly_images)
sources = st.dictionaries(
    st.tuples(*(st.integers(min_value=0, max_value=2) for _ in range(5))),
    nf_elems, max_size=4).map(MPoly)
# signed permutations of the geometric variables, as the coordinate rotation gives
signs = st.lists(st.sampled_from([1, -1]), min_size=4, max_size=4)
permutations = st.tuples(st.permutations(GEOM_VARS), signs).map(
    lambda ps: {v: s * MPoly.var(w) for v, w, s in zip(GEOM_VARS, *ps)})


# the restrictions of the cubics to r and to r'
ON_R, ON_R_PRIME = (dict(zip(GEOM_VARS, line)) for line in (LINE_R, LINE_R_PRIME))
CUBICS = build_cubics().cubics


@settings(max_examples=80, deadline=None)
@given(sources, st.one_of(st.dictionaries(st.sampled_from(VARS), images, max_size=5), permutations))
@example(CUBICS[0], ON_R)
@example(CUBICS[1], ON_R)
@example(CUBICS[2], ON_R)
@example(CUBICS[3], ON_R)
@example(CUBICS[0], ON_R_PRIME)
@example(CUBICS[1], ON_R_PRIME)
@example(CUBICS[2], ON_R_PRIME)
@example(CUBICS[3], ON_R_PRIME)
# images that mix 0, 1, r and a polynomial, as at a reference point or on a line
@example(parse_poly("X^2*Y + 2*X*Z*m + Z^2*T - 3*T*m^2 + r*Y^2"),
         {"X": 1, "Y": 0, "Z": NFElem(0, 1), "T": parse_poly("X - r*m")})
@example(parse_poly("X*Y*Z + Y^2*m^2 + T^2 + 1"),
         {"X": MPoly.constant(0), "Y": MPoly.constant(1), "T": NFElem(0, 1), "m": parse_poly("Y + Z")})
@example(parse_poly("X^2*m + Y^2 + Z*T*m + r"), {"X": NFElem(1), "Y": 0, "Z": 0, "T": 0, "m": 1})
@example(parse_poly("X*m^2 + Y*Z - T^2*m"), {"m": 0, "X": parse_poly("r*Y + 1"), "T": 1})
# scalar images only, where each term goes straight into the result; terms collide there
@example(parse_poly("X^2*m + Y^2*Z + Z*T*m^2 - r*X*Y + Z*T + 3"),
         {"X": 0, "Y": 1, "Z": MPoly.constant(NFElem(2, -1, 0, 3)), "m": NFElem(0, 1)})
@example(parse_poly("X*Y*m + Y^2*m^2 + Y^2*m + T^2*m - r"),
         {"X": MPoly.constant(0), "T": MPoly.constant(-1), "m": NFElem(1, 0, 2, 5)})
@example(parse_poly("X^2 + X*m + X*m^2 + m^3 + Y"), {"m": NFElem(0, 1, -1, 2)})
def test_substitute_matches_sympy(f, mapping):
    # dual route: simultaneous replacement of the symbols in sympy, reduced mod r^3 + r^2 - 1
    sym_images = {SYMS[v]: to_sympy(MPoly.coerce(img)) for v, img in mapping.items()}
    expected = red(to_sympy(f).xreplace(sym_images))
    assert red(to_sympy(f.substitute(mapping)) - expected) == 0


# one-term images c*x^s, with c = 1, -1 or a rational and x^s a variable or a
# monomial of degree 0 to 5, mixed with scalars, identity entries and images of
# two or more terms; "identity" stands for the variable's own image
one_term_images = st.builds(
    lambda c, s: MPoly({s: c}),
    st.one_of(st.sampled_from([NFElem(1), NFElem(-1)]), fractions.filter(bool).map(frac_elem)),
    small_exponents)
many_term_images = st.dictionaries(small_exponents, nf_elems, min_size=2, max_size=3).map(MPoly)
mixed_images = st.dictionaries(
    st.sampled_from(VARS),
    st.one_of(one_term_images, scalar_images, many_term_images, st.just("identity")),
    max_size=5).map(lambda d: {v: MPoly.var(v) if isinstance(img, str) else img for v, img in d.items()})


def multiplied_out(f, mapping):
    """Reference for `substitute`: the sum over the terms c*x^e of f of
    c * prod(image ** k), multiplied out with MPoly `*` and `**`."""
    images = [MPoly.coerce(mapping.get(v, MPoly.var(v))) for v in VARS]
    out = MPoly()
    for e, c in f.terms.items():
        term = MPoly.constant(c)
        for img, k in zip(images, e):
            term = term * img ** k
        out = out + term
    return out


@settings(max_examples=150, deadline=None)
@given(sources, st.one_of(mixed_images, permutations))
@example(CUBICS[0], ON_R)
@example(parse_poly("X^2*Y*m + 3*Z^2 - r*T*m^2"), {"X": parse_poly("-r*Y"), "Y": MPoly.var("Y"),
                                                   "Z": parse_poly("2/3*X*T"), "m": -1})
def test_one_term_substitution_matches_multiplying_out(f, mapping):
    assert f.substitute(mapping) == multiplied_out(f, mapping)


@settings(max_examples=80, deadline=None)
@given(sources)
def test_restriction_to_r_matches_sympy(f):
    # dual route: sympy's substitution Z -> -X, T -> -Y, reduced mod r^3 + r^2 - 1
    X, Y, Z, T = (SYMS[v] for v in GEOM_VARS)
    expected = red(to_sympy(f).subs({Z: -X, T: -Y}))
    assert red(to_sympy(eval_at_point(f, LINE_R)) - expected) == 0


def assert_canonical(p):
    """Every stored coefficient is nonzero, with d > 0 and no common factor."""
    for c in p.terms.values():
        n0, n1, n2, d = c.integers()
        assert (n0, n1, n2) != (0, 0, 0)
        assert d > 0 and gcd(n0, n1, n2, d) == 1


# three monomials with coefficients over mixed denominators, so that products
# collide and collisions cancel exactly
colliding = st.dictionaries(
    st.sampled_from([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 1)]),
    nf_elems, max_size=3).map(MPoly)


# the product kernel sums the term pairs of each output monomial on the
# integers, with the reduction rule of NFElem.__mul__, and normalises once;
# a one-term operand takes NFElem.__mul__ itself
@settings(max_examples=100, deadline=None)
@given(st.one_of(colliding, mpolys), st.one_of(colliding, mpolys))
@example(MPoly.var("X"), MPoly.var("Y"))
@example(MPoly({(1, 0, 0, 0, 0): NFElem(0, 1, 0), (0, 1, 0, 0, 0): NFElem(1, 0, 0)}),
         MPoly({(1, 0, 0, 0, 0): NFElem(0, 1, 0), (0, 1, 0, 0, 0): NFElem(-1, 0, 0)}))
# the two cross pairs of (X+Y)^2 land on one monomial
@example(parse_poly("X + Y"), parse_poly("X + Y"))
# no two pairs share a monomial
@example(parse_poly("X + Y"), parse_poly("Z + T"))
# the cross pairs cancel, and (X+Y)(X-Y) - (X^2 - Y^2) is 0
@example(parse_poly("X + Y"), parse_poly("X - Y"))
# colliding pairs over equal denominators (4 and 4), and over unequal ones (14 and 15)
@example(parse_poly("1/2*X + 1/2*r*Y"), parse_poly("1/2*r^2*X - 1/2*Y"))
@example(parse_poly("1/2*r*X + 1/3*r^2*Y + 1"), parse_poly("1/5*r^2*X + (1/7 - 1/7*r)*Y - 1/2"))
# the two XY pairs, over denominators 2 and 1, cancel through the lcm branch
# and their monomial is deleted
@example(parse_poly("1/2*X + Y"), parse_poly("X - 2*Y"))
# d = 1 throughout
@example(parse_poly("2*X + 3*r*Y + r^2*m"), parse_poly("X - Y + 5 - r*m"))
# a one-term operand on either side
@example(parse_poly("-2/3*r*X"), parse_poly("X + 1/2*Y - r^2"))
@example(parse_poly("X + 1/2*Y - r^2"), parse_poly("-2/3*r*X"))
def test_product_matches_sympy(f, g):
    # dual route: the product of the sympy images, reduced mod r^3 + r^2 - 1,
    # and every result stored with d > 0, gcd 1 and no zero coefficient
    products = (f * g, (f + g) * (f - g), f * f - g * g, f * (g - g), g * f)
    for p in products:
        assert_canonical(p)
    assert red(to_sympy(products[0]) - to_sympy(f) * to_sympy(g)) == 0
    assert products[4] == products[0]
    assert products[1] == products[2]
    assert not products[3].terms
    # a difference, taken in one pass, is the sum with the negation
    r = NFElem(0, 1)
    differences = (f - g, g - f, f - f, 1 - f, f - 1, r - f, f - r)
    for p in differences:
        assert_canonical(p)
    assert differences[0] == f + (-g) and differences[1] == g + (-f)
    assert not differences[2].terms
    assert differences[3:] == (-f + 1, f + (-1), -f + r, f + (-r))


# -- the printer against the reference printer in conftest ----------------------------

# d = 1 and d > 1, with +-1 and zero coordinates common
print_coords = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-12, 12),
                         st.fractions(min_value=-20, max_value=20, max_denominator=15))
print_coeffs = st.one_of(st.sampled_from([1, -1]).map(NFElem), st.builds(frac_elem, print_coords),
                         st.builds(frac_elem, print_coords, print_coords, print_coords))
# one- and two-digit exponents
print_exponents = st.tuples(*(st.one_of(st.integers(0, 3), st.integers(9, 12)) for _ in range(5)))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(print_exponents, print_coeffs, max_size=10).map(MPoly))
@example(MPoly())
@example(MPoly({ZERO_EXP: 1}))
@example(MPoly({ZERO_EXP: -1}))
@example(MPoly({ZERO_EXP: NFElem(-1, 1)}))
@example(MPoly({(1, 0, 0, 0, 0): -1, ZERO_EXP: NFElem(-1, 0, -1)}))
@example(MPoly({(0, 0, 0, 0, 1): 1, (0, 10, 0, 0, 11): NFElem(0, -1), (12, 0, 0, 0, 0): NFElem(2, -3)}))
@example(MPoly({(1, 1, 1, 1, 1): NFElem(-3, 2, 6, 6), (0, 0, 2, 0, 3): 7}))
@example(MPoly({(100000, 0, 0, 0, 1): NFElem(2, -3), (0, 3, 0, 0, 0): -1}))   # far past the term count
def test_mpoly_printer_matches_the_reference(p):
    assert str(p) == ref_mpoly_str(p)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.just(NFElem(0)), print_coeffs), max_size=14).map(UPoly),
       st.sampled_from(["x", "a", "m"]))
@example(UPoly(()), "x")
@example(UPoly((-1,)), "x")
@example(UPoly((NFElem(1, 1),)), "a")
@example(UPoly((NFElem(-1, -1), NFElem(-1, 1), 0, 0, 0, 0, 0, 0, 0, 0, -1)), "x")
def test_upoly_printer_matches_the_reference(f, var):
    assert f.to_str(var) == ref_upoly_str(f, var)
