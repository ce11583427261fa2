import math
import random
import re
import sys
import unicodedata

import pytest
from hypothesis import given, settings, strategies as st

from cgv.mpoly import MPoly
from cgv.nf import NFElem
from cgv.parsing import ParseError, UnknownIdentifierError, _tokens, parse_poly

from conftest import random_nfelem


def test_simple_sum():
    assert parse_poly("X + 2*Y") == MPoly.var("X") + 2 * MPoly.var("Y")


def test_nf_coefficient():
    p = parse_poly("(3*r-2)*X^2")
    assert p == MPoly.constant(NFElem(-2, 3)) * MPoly.var("X") ** 2


def test_defining_relation_collapses():
    assert parse_poly("r^3 + r^2").as_nfelem() == NFElem(1)


def test_rational_literals():
    assert parse_poly("1/2 + 3/4").as_nfelem() == NFElem(5, 0, 0, 4)
    assert parse_poly("1 / 2").as_nfelem() == NFElem(1, 0, 0, 2)
    assert parse_poly("6/4").as_nfelem().integers() == (3, 0, 0, 2)
    with pytest.raises(ParseError):
        parse_poly("1/0")


def test_a_rational_literal_is_built_without_an_inverse(monkeypatch):
    import cgv.nf as nf
    calls = []
    real = nf.nf_invert
    monkeypatch.setattr(nf, "nf_invert", lambda a: calls.append(a) or real(a))
    p = parse_poly("1/2*X - 5/7*r*Y + 12/8 - 0/3")
    assert calls == []
    X, Y = MPoly.var("X"), MPoly.var("Y")
    assert p == NFElem(1, 0, 0, 2) * X - NFElem(0, 5, 0, 7) * Y + NFElem(3, 0, 0, 2)


def test_whitespace_insensitive():
    assert parse_poly(" X +  2*Y ") == parse_poly("X+2*Y")


def test_precedence_and_unary_minus():
    assert parse_poly("-X^2") == -(MPoly.var("X") ** 2)
    assert parse_poly("2*X^2") == 2 * MPoly.var("X") ** 2
    assert parse_poly("-(X + Y)") == -(MPoly.var("X") + MPoly.var("Y"))
    assert parse_poly("2 - 3 - 4").as_nfelem() == NFElem(-5)


def test_no_implicit_multiplication():
    with pytest.raises(ParseError) as exc:
        parse_poly("2 X")
    assert exc.value.offset == 2


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as exc:
        parse_poly("X + W")
    assert exc.value.offset == 4
    assert exc.value.name == "W"


def test_error_positions_and_expectations():
    with pytest.raises(ParseError) as exc:
        parse_poly("X + ")
    assert exc.value.offset == 4
    with pytest.raises(ParseError) as exc:
        parse_poly("X ^ Y")
    assert exc.value.expected == ("integer",)
    for text in ("X^-1", "2/-3"):
        with pytest.raises(ParseError, match="expected one of integer; found '-'"):
            parse_poly(text)
    with pytest.raises(ParseError):
        parse_poly("(X + Y")
    with pytest.raises(ParseError):
        parse_poly("")
    with pytest.raises(ParseError):
        parse_poly("X + $")


@pytest.mark.parametrize("text, message", [
    # after a factor that has its exponent, "^" is not accepted
    ("X^2^2", "at offset 3: expected one of *, +, -, end of input; found '^'"),
    # inside parentheses the operators are accepted as well as ")"
    ("(X Y", "at offset 3: expected one of ), *, +, -, ^; found 'Y'"),
    ("(X^2 Y", "at offset 5: expected one of ), *, +, -; found 'Y'"),
    ("(X", "at offset 2: expected one of ), *, +, -, ^; found 'end of input'"),
    # after an integer, "/" makes it a rational literal
    ("2 X", "at offset 2: expected one of *, +, -, /, ^, end of input; found 'X'"),
    ("2/3 X", "at offset 4: expected one of *, +, -, ^, end of input; found 'X'"),
    ("X Y", "at offset 2: expected one of *, +, -, ^, end of input; found 'Y'"),
    ("X * ", "at offset 4: expected one of (, -, identifier, integer; found 'end of input'"),
    # a character that starts no token is found where it stands, like any other token
    ("(X # Y)", "at offset 3: expected one of ), *, +, -, ^; found '#'"),
    ("X $", "at offset 2: expected one of *, +, -, ^, end of input; found '$'"),
    ("X + ²", "at offset 4: expected one of (, -, identifier, integer; found '²'"),
])
def test_error_lists_the_tokens_accepted_at_its_offset(text, message):
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert str(exc.value) == message


# a text that holds one token of each kind an error can list, "" for the end
_TOKEN_OF = {"+": "+", "-": "-", "*": "*", "^": "^", "/": "/", "(": "(", ")": ")",
             "integer": "1", "identifier": "X", "end of input": ""}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["X", "1", "2", "+", "-", "*", "^", "/", "(", ")", "#", "²"]),
                max_size=10))
def test_error_lists_exactly_the_tokens_the_grammar_accepts(tokens):
    # the parser reads left to right without looking back, so a token is
    # accepted where an error is exactly when the text cut there and ended
    # by that token parses, or fails after that token
    text = " ".join(tokens)
    try:
        parse_poly(text)
        return
    except ParseError as exc:
        off, expected = exc.offset, set(exc.expected)
    assert expected <= set(_TOKEN_OF)
    for kind, token in _TOKEN_OF.items():
        # a space keeps the token apart from an integer before it
        try:
            parse_poly(text[:off] + " " + token)
            accepted = True
        except ParseError as exc:
            accepted = exc.offset > off + 1
        assert accepted == (kind in expected), (text, kind)


def test_a_sum_of_n_terms_copies_n_log_n_terms(monkeypatch):
    # MPoly.__add__ and __sub__ copy the terms of their left operand and
    # insert those of their right one; a left fold would copy about n^2 / 2
    copied = 0
    for name in ("__add__", "__sub__"):
        def counting(a, b, real=getattr(MPoly, name)):
            nonlocal copied
            copied += len(a.terms) + len(b.terms)
            return real(a, b)
        monkeypatch.setattr(MPoly, name, counting)
    n = 2048
    p = parse_poly(" + ".join(f"X^{i}" for i in range(n)))
    assert len(p.terms) == n
    assert copied <= n * (math.log2(n) + 2)


_SIGNED_TERM = st.tuples(st.sampled_from("+-"), st.integers(-3, 3), st.integers(0, 2),
                         st.integers(0, 2), st.integers(0, 2))


@settings(max_examples=200, deadline=None)
@given(st.lists(_SIGNED_TERM, min_size=1, max_size=16))
def test_a_signed_sum_parses_to_its_left_fold(terms):
    # small exponents make terms collide and cancel; the first sign is not written
    X, Y, r = MPoly.var("X"), MPoly.var("Y"), MPoly.constant(NFElem(0, 1))
    values = [c * r ** k * X ** a * Y ** b for _, c, k, a, b in terms]
    fold = values[0]
    for (op, *_), v in zip(terms[1:], values[1:]):
        fold = fold + v if op == "+" else fold - v
    text = " ".join(f"{op} {c}*r^{k}*X^{a}*Y^{b}" for op, c, k, a, b in terms)[2:]
    assert parse_poly(text) == fold


def test_scalar_guard():
    with pytest.raises(ValueError):
        parse_poly("X + 1").as_nfelem()


def _random_mpoly(rng):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exp = tuple(rng.randint(0, 3) if rng.random() < 0.6 else 0 for _ in range(5))
        terms[exp] = random_nfelem(rng, span=12, den=6)
    return MPoly(terms)


def test_print_parse_roundtrip():
    rng = random.Random(101)
    for _ in range(200):
        p = _random_mpoly(rng)
        assert parse_poly(str(p)) == p


def test_roundtrip_specials():
    for text in ("0", "1", "-1", "r", "-r", "m", "X*Y*Z*T*m",
                 "(1/2 - 3*r + r^2)*X^3", "-X - Y - 1"):
        p = parse_poly(text)
        assert parse_poly(str(p)) == p


# reference scanner: the character loop the tokenizer replaced, kept here so
# that `_tokens` is compared with code it does not share


def reference_tokens(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^/()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in "0123456789":
            j = i
            while j < n and text[j] in "0123456789":
                j += 1
            tokens.append(("integer", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        tokens.append(("invalid", ch, i))
        return tokens
    tokens.append(("end", "", n))
    return tokens


def test_tokens_match_the_reference_scanner_on_every_code_point():
    # the pattern's \s, \w and \d are str.isspace, isalnum() or "_" and
    # isdecimal on every code point
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    for pattern, holds in ((r"\s", str.isspace), (r"\w", lambda c: c.isalnum() or c == "_"),
                           (r"\d", str.isdecimal)):
        assert re.findall(pattern, every) == [c for c in every if holds(c)], pattern
    # every assigned code point gives the same tokens alone and inside words
    # and integers ("²" is \w but not a letter, so it starts no word);
    # unassigned, private-use and surrogate code points are neither
    # alphanumeric nor space, so both scanners end with them as invalid tokens
    for ch in every:
        if unicodedata.category(ch) in ("Cn", "Co", "Cs"):
            assert not (ch.isalnum() or ch.isspace())
            continue
        for text in (ch, f"X{ch}", f"{ch}1", f"2{ch}m"):
            assert _tokens(text) == reference_tokens(text), (hex(ord(ch)), text)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="Xr m_1209+-*^/() \té²٣$", max_size=12))
def test_tokens_match_the_reference_scanner_on_strings(text):
    assert _tokens(text) == reference_tokens(text)
