import random
from fractions import Fraction
from math import lcm

import pytest
import sympy as sp

from cgv import geometry
from cgv.claims import DISPLAY_UNIT
from cgv.cli import _build_parser
from cgv.geometry import build_cubics
from cgv.mpoly import MPoly, VARS
from cgv.nf import NFElem
from cgv.parsing import parse_poly
from cgv.reportlib import RunConfig

# the real root of x^3 + x^2 - 1, for float cross-checks in tests only
R_FLOAT = 0.7548776662466928


@pytest.fixture(scope="session")
def family():
    return build_cubics()


@pytest.fixture(autouse=True)
def cleared_stores(family):
    """Empty every store after each test, so that no value a test's
    monkeypatch built (a patched `genus.LINE_R`, say) is read by another
    test: the session family's store, and the process's store, which goes
    with the verified family that `build_cubics` builds again."""
    yield
    family._store.clear()
    geometry._verified_family.cache_clear()


def over_display_unit(mat):
    """A single-hyperplane system with its first row divided by the printed
    display unit 3r-2 (`claims.DISPLAY_UNIT`), the form the source prints."""
    unit = parse_poly(DISPLAY_UNIT).as_nfelem()
    assert unit == NFElem(-2, 3)
    return (tuple(e * unit.inverse() for e in mat[0]),) + tuple(mat[1:])


def circulant_matrix(a, b, c, d):
    """The 4x4 circulant with first row (a, b, c, d), as NFElem rows."""
    first = tuple(NFElem.coerce(v) for v in (a, b, c, d))
    return tuple(first[-k:] + first[:-k] for k in range(4))


def run_config(**options) -> RunConfig:
    """The RunConfig of `cgv check` left at its defaults, with `options`
    (any of m_expr, seed, survey, bound) set instead."""
    args = vars(_build_parser()[0].parse_args(["check", "all"]))
    defaults = {k: args[k] for k in ("m_expr", "seed", "survey", "bound")}
    return RunConfig(**{**defaults, **options})


# sympy oracle: r is the symbol rr, reduced modulo its minimal polynomial
RR = sp.Symbol("rr")
MIN = RR**3 + RR**2 - 1
SYMS = {v: sp.Symbol(v) for v in VARS}


def red(expr):
    return sp.expand(sp.rem(sp.expand(expr), MIN, RR))


def nf_to_sympy(a: NFElem):
    n0, n1, n2, d = a.integers()
    return (n0 + n1 * RR + n2 * RR**2) / sp.Integer(d)


def to_sympy(p):
    out = 0
    for exp, c in p.terms.items():
        term = nf_to_sympy(c)
        for v, k in zip(VARS, exp):
            if k:
                term *= SYMS[v] ** k
        out += term
    return sp.expand(out)


def nf_to_float(a: NFElem) -> float:
    n0, n1, n2, d = a.integers()
    return (n0 + n1 * R_FLOAT + n2 * R_FLOAT ** 2) / d


def frac_elem(c0, c1=0, c2=0) -> NFElem:
    """The element c0 + c1*r + c2*r^2 of Q(r), for int or Fraction coordinates."""
    qs = [Fraction(c) for c in (c0, c1, c2)]
    d = lcm(*(q.denominator for q in qs))
    return NFElem(*(q.numerator * (d // q.denominator) for q in qs), d)


def nf_reduce(coeffs) -> NFElem:
    """Reduce a rational polynomial in r (ascending coefficients) mod r^3 + r^2 - 1."""
    cs = [Fraction(c) for c in coeffs] + [Fraction(0)] * 3
    for k in range(len(cs) - 1, 2, -1):
        # r^k = r^(k-3) - r^(k-1)
        cs[k - 3] += cs[k]
        cs[k - 1] -= cs[k]
    return frac_elem(*cs[:3])


def random_fraction(rng: random.Random, span: int = 30, den: int = 10) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def random_nfelem(rng: random.Random, span: int = 30, den: int = 10) -> NFElem:
    return frac_elem(*(random_fraction(rng, span, den) for _ in range(3)))


def random_nfelem_nonzero(rng: random.Random) -> NFElem:
    while True:
        a = random_nfelem(rng)
        if not a.is_zero():
            return a


def scale_form(form, c):
    """The binary form c * form, on coefficient tuples."""
    return tuple(c * a for a in form)


def swap_xy(form):
    """The binary form form(Y, X), on coefficient tuples."""
    return tuple(reversed(form))


def count_calls(monkeypatch, name, *modules):
    """Record the arguments of each call to the function `name`, patched in each module given."""
    calls = []
    real = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def mpoly_products(monkeypatch, run):
    """run() and the MPoly products it made, as operand pairs in order;
    undoes the monkeypatches of the test when done."""
    calls = []
    real = MPoly.__mul__
    monkeypatch.setattr(MPoly, "__mul__", lambda a, b: calls.append((a, b)) or real(a, b))
    try:
        return run(), calls
    finally:
        monkeypatch.undo()


def nf_products(monkeypatch, run):
    """run() and the names of the NFElem products and powers it made, in order;
    undoes the monkeypatches of the test when done."""
    calls = []
    real_mul, real_pow = NFElem.__mul__, NFElem.__pow__
    monkeypatch.setattr(NFElem, "__mul__", lambda a, b: calls.append("mul") or real_mul(a, b))
    monkeypatch.setattr(NFElem, "__pow__", lambda a, n: calls.append("pow") or real_pow(a, n))
    try:
        return run(), calls
    finally:
        monkeypatch.undo()


# reference printer: the term formatter and sign joiner as the package first
# wrote them, over Fraction coordinates, kept here so that the package's
# printer is compared with code it does not share


def ref_term_str(coeff, powers):
    """The printed coefficient times the monomial of the (name, exponent) pairs."""
    mono = "*".join([v if k == 1 else f"{v}^{k}" for v, k in powers if k])
    if not mono:
        return f"({coeff})" if " " in coeff else coeff
    if coeff == "1":
        return mono
    if coeff == "-1":
        return "-" + mono
    return f"({coeff})*{mono}" if " " in coeff else f"{coeff}*{mono}"


def ref_join_terms(terms):
    """Printed terms joined with explicit signs; "0" for none."""
    out = ""
    for t in terms:
        if not out:
            out = t
        elif t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    return out or "0"


def ref_nf_str(a: NFElem) -> str:
    """Ascending powers of r, each coordinate as str(Fraction) prints it."""
    *ns, d = a.integers()
    return ref_join_terms(ref_term_str(str(Fraction(n, d)), (("r", k),)) for k, n in enumerate(ns) if n)


def ref_mpoly_str(p) -> str:
    """Graded lex, highest first, with X > Y > Z > T > m."""
    order = sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    return ref_join_terms(ref_term_str(ref_nf_str(c), zip(VARS, e)) for e, c in order)


def ref_upoly_str(f, var: str) -> str:
    """Descending powers of var."""
    return ref_join_terms(ref_term_str(ref_nf_str(c), ((var, k),))
                          for k, c in reversed(list(enumerate(f.coeffs))) if c)
