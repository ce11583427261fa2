import contextlib
import io
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from cgv.cli import main
from cgv.genus import pencil_member, pencil_on_line
from cgv.nf import NF_ONE, NF_ZERO, NFElem
from cgv.upoly import UPoly, squarefree_part, upoly_gcd

from conftest import count_calls, frac_elem, nf_to_sympy, random_nfelem, red

F = Fraction


def poly(*coeffs):
    return UPoly(tuple(frac_elem(c) for c in coeffs))


def from_roots(*roots):
    out = poly(1)
    for r in roots:
        out = out * poly(-r, 1)
    return out


def test_gcd_printed_coprimality():
    # -20x^2 + 4x + 10 against the defining cubic x^3 + x^2 - 1
    f = poly(10, 4, -20)
    g = poly(-1, 0, 1, 1)
    assert upoly_gcd(f, g) == poly(1)


def test_gcd_with_zero_is_monic():
    f = poly(2, 4)
    assert upoly_gcd(f, UPoly(())) == poly(F(1, 2), 1)
    assert upoly_gcd(UPoly(()), f) == poly(F(1, 2), 1)


def test_gcd_shared_factor():
    # gcd((x-1)^2 (x+2), (x-1)(x+3)) = x - 1, by construction from factors
    f = from_roots(1, 1, -2)
    g = from_roots(1, -3)
    assert upoly_gcd(f, g) == poly(-1, 1)


def test_gcd_both_zero_rejected():
    with pytest.raises(ValueError):
        upoly_gcd(UPoly(()), UPoly(()))


def test_gcd_divides_both_exactly():
    rng = random.Random(31)
    for _ in range(60):
        f = UPoly(tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 6))))
        g = UPoly(tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 6))))
        if f.is_zero() and g.is_zero():
            continue
        h = upoly_gcd(f, g)
        for p in (f, g):
            if p.is_zero():
                continue
            q, rem = divmod(p, h)
            assert rem.is_zero()
            assert q * h == p


def test_gcd_over_number_field():
    rng = random.Random(13)
    for _ in range(20):
        shared = UPoly((random_nfelem(rng), NFElem(1)))
        f = shared * UPoly((random_nfelem(rng), NFElem(1)))
        g = shared * UPoly((random_nfelem(rng), random_nfelem(rng), NFElem(1)))
        h = upoly_gcd(f, g)
        _, rem = divmod(f, h)
        assert rem.is_zero()
        assert h.degree() >= 1


def test_squarefree_cube():
    assert squarefree_part(from_roots(1, 1, 1)) == poly(-1, 1)


def test_squarefree_already_squarefree():
    f = poly(1, 0, 1)
    assert squarefree_part(f) == f


def test_squarefree_mixed_multiplicities():
    # x^5 - 2x^4 + x^3 = x^3 (x-1)^2 -> monic x(x-1)
    f = poly(0, 0, 0, 1, -2, 1)
    assert squarefree_part(f) == poly(0, -1, 1)


def test_squarefree_nonzero_constant_is_one():
    # the gcd with the zero derivative is the constant made monic
    assert squarefree_part(poly(5)) == poly(1)


def test_squarefree_zero_rejected():
    with pytest.raises(ValueError):
        squarefree_part(UPoly(()))


def test_squarefree_contract():
    rng = random.Random(77)
    for _ in range(40):
        roots = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
        mults = [rng.randint(1, 3) for _ in roots]
        f = poly(rng.choice([1, 2, -3]))
        for r, m in zip(roots, mults):
            f = f * from_roots(*([r] * m))
        s = squarefree_part(f)
        g = upoly_gcd(s, s.derivative())
        assert g == poly(1)
        assert s.degree() == len(set(roots))


def test_divmod_contract():
    rng = random.Random(3)
    for _ in range(60):
        f = UPoly(tuple(rng.randint(-8, 8) for _ in range(rng.randint(0, 7))))
        g = UPoly(tuple(rng.randint(-8, 8) for _ in range(rng.randint(1, 5))))
        if g.is_zero():
            continue
        q, rem = divmod(f, g)
        assert q * g + rem == f
        assert rem.is_zero() or rem.degree() < g.degree()


def test_monic_and_lead():
    f = poly(2, 0, 4)
    assert f.monic() == poly(F(1, 2), 0, 1)
    with pytest.raises(ValueError):
        UPoly(()).monic()


def test_printing():
    assert poly(-1, 0, 1, 1).to_str() == "x^3 + x^2 - 1"
    assert UPoly(()).to_str() == "0"
    assert poly(0, -1).to_str() == "-x"
    assert poly(F(-1, 2), 0, F(3, 4), -1).to_str("a") == "-a^3 + 3/4*a^2 - 1/2"
    assert UPoly((NFElem(-1, 0, 0, 2),)).to_str("a") == "-1/2"
    field = UPoly((NFElem(1, 1), NFElem(0, -1), NFElem(-2), NFElem(0, 0, 1), NFElem(1)))
    assert field.to_str("a") == "a^4 + r^2*a^3 - 2*a^2 - r*a + (1 + r)"
    assert UPoly((NFElem(-1, -1), NFElem(-1, 1))).to_str() == "(-1 + r)*x + (-1 - r)"
    assert UPoly((NFElem(2), NFElem(0, 0, -3))).to_str() == "-3*r^2*x + 2"


@pytest.mark.parametrize("coeffs", [(3, 2), (NFElem(3, 0, 0, 5), NFElem(2)), (NFElem(3, 1), NFElem(0, 2))],
                         ids=["int", "rational", "NFElem"])
def test_zeroth_power_is_the_integer_one(coeffs):
    assert all(type(c) is NFElem for c in UPoly(coeffs).coeffs)
    (c,) = (UPoly(coeffs) ** 0).coeffs
    assert c is NF_ONE


def test_integer_polynomials_divide_exactly():
    assert UPoly((1, 3)).monic().coeffs == (NFElem(1, 0, 0, 3), 1)
    q, rem = divmod(UPoly((1, 0, 1)), UPoly((1, 2)))
    assert q * UPoly((1, 2)) + rem == UPoly((1, 0, 1))
    assert all(type(c) is NFElem for c in q.coeffs + rem.coeffs)


def test_constants_hash_like_their_coefficient():
    # equal values must hash alike: UPoly((3,)) == 3 and UPoly(()) == 0
    for const, scalar in ((UPoly((3,)), 3), (UPoly(()), 0), (poly(F(1, 2)), NFElem(1, 0, 0, 2)),
                          (UPoly((NFElem(0, 1),)), NFElem(0, 1)), (UPoly((NFElem(5),)), 5)):
        assert const == scalar
        assert hash(const) == hash(scalar)
        assert len({const, scalar}) == 1
    assert poly(1, 2) in {poly(1, 2)}
    assert UPoly((NFElem(1), NFElem(2))) == poly(1, 2)
    assert hash(UPoly((NFElem(1), NFElem(2)))) == hash(poly(1, 2))


@pytest.mark.parametrize("lam, mu", [(1, 0), (0, 1), (1, 1), (2, -3)])
def test_gcd_and_squarefree_part_build_no_coerced_or_negated_operand(family, monkeypatch, lam, mu):
    # on a quintic of the pencil on r, every coefficient is already an NFElem:
    # internal results are built as they are, a difference negates nothing and
    # monic scales the coefficients with no UPoly product
    pencil = pencil_on_line(family.at_m(NF_ONE))
    f = UPoly(tuple(reversed(pencil_member(pencil, lam, mu))))
    expected = (upoly_gcd(f, f.derivative()), squarefree_part(f))
    calls = (count_calls(monkeypatch, "coerce", NFElem),
             count_calls(monkeypatch, "__neg__", UPoly),
             count_calls(monkeypatch, "__mul__", UPoly))
    assert (upoly_gcd(f, f.derivative()), squarefree_part(f)) == expected
    assert calls == ([], [], [])


def test_products_divisions_and_derivatives_do_no_zero_work(monkeypatch):
    # over one pass of the fixed report set, every NFElem product and sum made
    # inside UPoly.__mul__, __divmod__ or derivative has two nonzero operands
    depth, seen, zero = [0], [], []

    def inside(f):
        def run(*args):
            depth[0] += 1
            try:
                return f(*args)
            finally:
                depth[0] -= 1
        return run

    def watched(name, f):
        def op(a, b):
            if depth[0]:
                seen.append(name)
                if not a or not b:
                    zero.append((name, a, b))
            return f(a, b)
        return op

    for name in ("__mul__", "__divmod__", "derivative"):
        monkeypatch.setattr(UPoly, name, inside(getattr(UPoly, name)))
    for name in ("__mul__", "__add__"):
        monkeypatch.setattr(NFElem, name, watched(name, getattr(NFElem, name)))
    for m in (None, "0", "1", "r"):
        for fmt in ("text", "json"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["check", "all", "--format", fmt] + ([f"--m={m}"] if m else [])) == 0
    assert seen and zero == []


# dual route: UPoly over Q(r) against sympy polynomials in x over Q[rr] mod r^3 + r^2 - 1
SX = sp.Symbol("x")
nf_coeffs = st.one_of(st.just(NF_ZERO), st.builds(NFElem, *[st.integers(-9, 9)] * 3, st.integers(1, 5)))
upolys = st.lists(nf_coeffs, max_size=6).map(UPoly)


def upoly_to_sympy(f):
    return sum((nf_to_sympy(c) * SX ** k for k, c in enumerate(f.coeffs)), sp.Integer(0))


def assert_canonical(f):
    assert all(type(c) is NFElem for c in f.coeffs)
    assert not f.coeffs or not f.coeffs[-1].is_zero()


@settings(max_examples=40, deadline=None)
@given(upolys, upolys)
def test_difference_and_derivative_match_sympy(f, g):
    for got, want in ((f - g, upoly_to_sympy(f) - upoly_to_sympy(g)),
                      (f.derivative(), sp.diff(upoly_to_sympy(f), SX))):
        assert_canonical(got)
        assert red(upoly_to_sympy(got) - want) == 0


@settings(max_examples=40, deadline=None)
@given(upolys, upolys)
def test_product_of_upolys_matches_sympy(f, g):
    got = f * g
    assert_canonical(got)
    assert red(upoly_to_sympy(got) - upoly_to_sympy(f) * upoly_to_sympy(g)) == 0


@settings(max_examples=40, deadline=None)
@given(upolys, upolys)
def test_monic_and_divmod_match_sympy(f, g):
    if not f.is_zero():
        h = f.monic()
        assert_canonical(h)
        assert h.lead() == NF_ONE and h.degree() == f.degree()
        assert red(upoly_to_sympy(h) * nf_to_sympy(f.lead()) - upoly_to_sympy(f)) == 0
    if not g.is_zero():
        # division with remainder is unique: f = q g + rem with deg rem < deg g
        q, rem = divmod(f, g)
        assert_canonical(q)
        assert_canonical(rem)
        assert rem.degree() < g.degree()
        assert red(upoly_to_sympy(q) * upoly_to_sympy(g) + upoly_to_sympy(rem) - upoly_to_sympy(f)) == 0
