"""The benchmark's three workloads: op lists made from a seed, and checks.

An op is one `cgv` command line.  Each workload builds its op list from
`--seed` alone; the program sees only the generated arguments.  Every op
carries a check that returns None for a correct output or a reason string.
See NOTES.md for why each workload exists and which layers it stresses.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from qr_eval import EvalError, evaluate

GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"

REPORT_SET_M = (None, "0", "1", "r")
STRATA_SUITES = ("sigma", "cubics", "base-locus", "quadric-independence",
                 "divisors", "genus", "pencil")
EXPAND_OPS = 100
# geometric ladder of per-op work, in MPoly term pairs (see _expand_cost)
EXPAND_PAIRS_LO = 20
EXPAND_PAIRS_HI = 4000
EXPAND_EXPONENTS = (1, 2, 3, 4, 5, 7, 8)
VARS = ("X", "Y", "Z", "T", "m")


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple
    check: Callable  # (exit code, stdout) -> None or a reason


def load_goldens():
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def m_flag(m):
    """--m=EXPR, so that a value starting with '-' is not read as an option."""
    return () if m is None else (f"--m={m}",)


# -- report-set ------------------------------------------------------------------


def report_set_argvs():
    """The fixed report set: check all, m in {symbolic, 0, 1, r} x {text, json}."""
    out = []
    for m in REPORT_SET_M:
        for fmt in ("text", "json"):
            name = f"all/m={m or '-'}/{fmt}"
            out.append((name, ("check", "all", "--format", fmt) + m_flag(m)))
    return out


def report_set_ops(seed, goldens):
    # the report set is fixed; the seed does not change it
    digests = goldens["report-set-sha256"]
    ops = []
    for name, argv in report_set_argvs():
        want = digests[name]

        def check(rc, out, want=want):
            if rc != 0:
                return f"exit code {rc}"
            got = hashlib.sha256(out.encode("utf-8")).hexdigest()
            return None if got == want else f"sha256 {got} differs from golden {want}"
        ops.append(Op(name, argv, check))
    return ops


# -- strata ----------------------------------------------------------------------


def _ratio(rng, num_hi=9, den_hi=7):
    """A non-integral positive rational p/q in lowest terms."""
    while True:
        p, q = rng.randint(1, num_hi), rng.randint(2, den_hi)
        if math.gcd(p, q) == 1:
            return f"{p}/{q}"


def strata_m_values(seed):
    """0, 1 and r, then twelve seeded values of fixed shapes.

    The shapes are fixed so that every seed mixes the same kinds of m
    (negative, non-integral, linear and quadratic in r); the seed draws the
    numbers.
    """
    rng = random.Random(f"strata:{seed}")

    def k():
        return rng.randint(2, 9)

    def q():
        return _ratio(rng)
    return (
        "0", "1", "r",
        f"-{k()}",
        f"{k()}",
        q(),
        f"-{q()}",
        f"-{q()}*r",
        f"{q()}*r^2",
        f"{k()}-{q()}*r",
        f"-{k()}+{q()}*r",
        f"-{q()}*r^2+{k()}",
        f"{q()}*r+{q()}*r^2",
        f"{q()}+{k()}*r-{q()}*r^2",
        f"-{q()}-{q()}*r-{k()}*r^2",
    )


def strata_argv(suite, m):
    return ("check", suite, "--format", "json") + m_flag(m)


def _strata_check(suite, m, want_ids):
    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        try:
            doc = json.loads(out)
        except ValueError as exc:
            return f"output is not JSON: {exc}"
        if doc.get("config", {}).get("m") != m:
            return f"report config m={doc.get('config', {}).get('m')!r}, expected {m!r}"
        if doc.get("summary", {}).get("errors") != "0":
            return f"errors={doc.get('summary', {}).get('errors')}"
        ids = [c.get("check-id") for c in doc.get("checks", [])]
        if ids != want_ids:
            return f"check ids {ids} differ from the committed list"
        return None
    return check


def strata_ops(seed, goldens):
    ids = goldens["strata-check-ids"]
    return [Op(f"{suite}/m={m}", strata_argv(suite, m), _strata_check(suite, m, ids[suite]))
            for m in strata_m_values(seed) for suite in STRATA_SUITES]


# -- expand ----------------------------------------------------------------------


# coefficient forms: a format and the kind of number in each slot
COEFFICIENT_FORMS = (
    ("{}", ("int",)),
    ("{}", ("frac",)),
    ("({}+{}*r)", ("frac", "int")),
    ("({}*r^2-{}*r+{})", ("int", "frac", "frac")),
)


def _coefficient_shape(rng):
    """A coefficient form and the bit lengths of its numbers."""
    form = rng.randrange(len(COEFFICIENT_FORMS))
    sizes = tuple((rng.randint(1, 4),) if slot == "int" else (rng.randint(1, 4), rng.randint(2, 3))
                  for slot in COEFFICIENT_FORMS[form][1])
    return form, sizes


def _int(rng, bits):
    return rng.randint(1 << (bits - 1), (1 << bits) - 1)


def _coefficient(rng, form, sizes):
    """A positive rational literal or a parenthesized Q(r) element whose
    numbers have the given bit lengths, so their cost does not vary by seed."""
    numbers = []
    for size in sizes:
        if len(size) == 1:
            numbers.append(str(_int(rng, size[0])))
            continue
        while True:
            p, q = _int(rng, size[0]), _int(rng, size[1])
            if math.gcd(p, q) == 1:
                numbers.append(f"{p}/{q}")
                break
    return COEFFICIENT_FORMS[form][0].format(*numbers)


def _monomial(rng, allow_constant):
    """An exponent vector of degree 0 to 2 over X, Y, Z, T, m."""
    degree = rng.choice((0, 1, 1, 2) if allow_constant else (1, 1, 2))
    exp = [0] * len(VARS)
    for _ in range(degree):
        exp[rng.randrange(len(VARS))] += 1
    return tuple(exp)


def _sum_shape(rng, n_terms):
    """n_terms distinct monomials, each with a coefficient shape (None: bare)."""
    support, coefs = [], []
    while len(support) < n_terms:
        exp = _monomial(rng, allow_constant=not any(e == (0,) * 5 for e in support))
        if exp in support:
            continue
        support.append(exp)
        coefs.append(_coefficient_shape(rng) if not any(exp) or rng.random() >= 0.2 else None)
    return tuple(support), tuple(coefs)


def _sumset(a, b):
    return frozenset(tuple(x + y for x, y in zip(e1, e2)) for e1 in a for e2 in b)


def _expand_cost(factors, cap):
    """Term pairs the parser's multiplications visit, or None above cap.

    Follows square-and-multiply as the program's `^` runs it, final squaring
    included, then the left-to-right product of the factors.  It only sizes
    the inputs; it never reads the program.
    """
    pairs = 0
    value = None
    for support, e in factors:
        out, base = frozenset({(0,) * 5}), frozenset(support)
        while e:
            if e & 1:
                pairs += len(out) * len(base)
                out = _sumset(out, base)
            e >>= 1
            pairs += len(base) ** 2
            if pairs > cap:
                return None
            if e:
                base = _sumset(base, base)
        if value is not None:
            pairs += len(value) * len(out)
            if pairs > cap:
                return None
            out = _sumset(value, out)
        value = out
    return pairs


def _expand_shape(rng, target):
    """Factors (support, coefficient shapes, exponent) whose cost is within
    25% of target, or the closest of 400 draws."""
    best = None
    for _ in range(400):
        shape = []
        for _ in range(rng.choice((1, 1, 2, 2, 3))):
            support, coefs = _sum_shape(rng, rng.randint(2, 6))
            shape.append((support, coefs, rng.choice(EXPAND_EXPONENTS)))
        cost = _expand_cost([(sup, e) for sup, _, e in shape], cap=int(target * 1.25))
        if cost is None:
            continue
        distance = abs(math.log(cost / target))
        if distance <= math.log(1.25):
            return shape
        if best is None or distance < best[0]:
            best = (distance, shape)
    return best[1]


def expand_shapes():
    """EXPAND_OPS expression shapes on a geometric ladder of cost.

    The shapes are the same for every seed, so each seed's pass does the
    same amount of polynomial work; the seed draws the names and numbers.
    """
    rng = random.Random("expand-shapes")
    ratio = (EXPAND_PAIRS_HI / EXPAND_PAIRS_LO) ** (1 / (EXPAND_OPS - 1))
    return [_expand_shape(rng, EXPAND_PAIRS_LO * ratio ** k) for k in range(EXPAND_OPS)]


def _render_sum(rng, support, coefs, names):
    pieces = []
    for exp, coef_shape in zip(support, coefs):
        mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(names, exp) if k)
        coef = None if coef_shape is None else _coefficient(rng, *coef_shape)
        body = "*".join(p for p in (coef, mono) if p)
        if pieces:
            pieces.append(("+" if rng.random() < 0.5 else "-") + body)
        elif coef is not None and rng.random() < 0.5:
            # a leading minus only ever precedes a literal or a parenthesis, so
            # -X^2 (read as -(X^2) by the program) never occurs in an input
            pieces.append("-" + body)
        else:
            pieces.append(body)
    return "".join(pieces)


def _point(rng):
    return {v: f"{rng.choice((-1, 1)) * rng.randint(1, 9)}/{rng.randint(1, 5)}" for v in VARS}


def expand_exprs(seed):
    """(expression, evaluation point) pairs, one per shape, in seeded order."""
    rng = random.Random(f"expand:{seed}")
    out = []
    for shape in expand_shapes():
        names = list(VARS)
        rng.shuffle(names)
        factors = []
        for support, coefs, e in shape:
            text = _render_sum(rng, support, coefs, names)
            factors.append(f"({text})" if e == 1 else f"({text})^{e}")
        out.append(("*".join(factors), _point(rng)))
    rng.shuffle(out)
    return out


def _expand_check(expr, point):
    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        try:
            got = evaluate(out.strip(), point)
        except EvalError as exc:
            return f"output does not parse: {exc}"
        want = evaluate(expr, point)
        if got != want:
            return f"output evaluates to {got} at {point}, input to {want}"
        return None
    return check


def expand_ops(seed, goldens):
    return [Op(f"eval#{i}", ("eval", expr), _expand_check(expr, point))
            for i, (expr, point) in enumerate(expand_exprs(seed))]


WORKLOADS = {
    "report-set": report_set_ops,
    "strata": strata_ops,
    "expand": expand_ops,
}


def build_ops(workload, seed):
    return WORKLOADS[workload](seed, load_goldens())
