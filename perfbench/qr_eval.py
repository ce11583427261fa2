"""Independent evaluator for the `cgv eval` grammar, used to check outputs.

A value of Q(r) is a triple of Fractions (c0, c1, c2) meaning
c0 + c1*r + c2*r^2, reduced with r^3 = 1 - r^2.  Expressions are evaluated
at a point that gives every variable a rational value, so an input and its
expansion must evaluate to the same triple.  Nothing here imports cgv.

Unary minus binds looser than "^" (-X^2 is -(X^2)), as in the program's
parser; that is the reading under which the program's printed output parses
back to itself.
"""

from __future__ import annotations

from fractions import Fraction

ONE = (Fraction(1), Fraction(0), Fraction(0))
R = (Fraction(0), Fraction(1), Fraction(0))


def q_add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def q_neg(a):
    return (-a[0], -a[1], -a[2])


def q_mul(a, b):
    a0, a1, a2 = a
    b0, b1, b2 = b
    if not (b1 or b2):
        return (a0 * b0, a1 * b0, a2 * b0)
    if not (a1 or a2):
        return (a0 * b0, a0 * b1, a0 * b2)
    c = [a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0,
         a1 * b2 + a2 * b1, a2 * b2]
    # r^4 = r * r^3 = r - r^3, then r^3 = 1 - r^2
    c[1] += c[4]
    c[3] -= c[4]
    c[0] += c[3]
    c[2] -= c[3]
    return (c[0], c[1], c[2])


def q_pow(a, n):
    out = ONE
    for _ in range(n):
        out = q_mul(out, a)
    return out


class EvalError(ValueError):
    pass


def _tokens(text):
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^/()":
            out.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(int(text[i:j]))
            i = j
        elif ch.isalpha():
            out.append(ch)
            i += 1
        else:
            raise EvalError(f"unexpected character {ch!r} at {i}")
    return out


def evaluate(text: str, point: dict):
    """Value of `text` in Q(r) with each variable replaced by point[name]."""
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        tok = peek()
        if tok is None:
            raise EvalError("unexpected end of input")
        pos += 1
        return tok

    def expr():
        value = term()
        while peek() in ("+", "-"):
            op = take()
            rhs = term()
            value = q_add(value, rhs if op == "+" else q_neg(rhs))
        return value

    def term():
        value = factor()
        while peek() == "*":
            take()
            value = q_mul(value, factor())
        return value

    def factor():
        if peek() == "-":
            take()
            return q_neg(factor())
        value = base()
        if peek() == "^":
            take()
            k = take()
            if not isinstance(k, int):
                raise EvalError(f"exponent expected, found {k!r}")
            value = q_pow(value, k)
        return value

    def base():
        tok = take()
        if tok == "(":
            value = expr()
            if take() != ")":
                raise EvalError("')' expected")
            return value
        if isinstance(tok, int):
            if peek() == "/":
                take()
                den = take()
                if not isinstance(den, int) or den == 0:
                    raise EvalError("nonzero denominator expected")
                return (Fraction(tok, den), Fraction(0), Fraction(0))
            return (Fraction(tok), Fraction(0), Fraction(0))
        if tok == "r":
            return R
        if tok in point:
            return (Fraction(point[tok]), Fraction(0), Fraction(0))
        raise EvalError(f"unexpected token {tok!r}")

    value = expr()
    if pos != len(toks):
        raise EvalError(f"trailing input at token {pos}")
    return value
