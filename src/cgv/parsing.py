"""Recursive-descent parser for polynomial expressions.

Grammar (whitespace insensitive, no implicit multiplication):

    expr   := term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := base ("^" nonneg-int)?
    base   := ident | integer | integer "/" integer | "(" expr ")" | "-" base
    ident  := "X" | "Y" | "Z" | "T" | "r" | "m"
    integer := ("0" | "1" | ... | "9")+          ASCII digits only
"""

from __future__ import annotations

import re

from .nf import NF_R, NFElem
from .mpoly import MPoly, VAR_INDEX, VARS


class ParseError(ValueError):
    """Syntax error with position and the expected token set."""

    def __init__(self, offset: int, expected, found: str, message: str | None = None):
        self.offset = offset
        self.expected = tuple(sorted(expected))
        self.found = found
        msg = message or f"at offset {offset}: expected one of {', '.join(self.expected)}; found {found!r}"
        super().__init__(msg)


class UnknownIdentifierError(ParseError):
    def __init__(self, offset: int, name: str):
        self.name = name
        super().__init__(offset, VARS + ("r",), name,
                         f"at offset {offset}: unknown identifier {name!r}")


# an ASCII integer, a word (a letter, then letters, numerals and "_"), an
# operator, or any other non-space character, which is an error; whitespace
# between tokens is skipped.  [^\W\d_] also admits numerals such as "²",
# which are not letters: _tokens rejects them.
_TOKEN = re.compile(r"([0-9]+)|([^\W\d_]\w*)|([-+*^/()])|(\S)")


def _tokens(text: str) -> list:
    """(kind, text, offset) for each token of text, then ("end", "", len(text))."""
    tokens = []
    for match in _TOKEN.finditer(text):
        integer, word, op, _ = match.groups()
        off = match.start()
        if integer:
            tokens.append(("integer", integer, off))
        elif word and word[0].isalpha():
            tokens.append(("ident", word, off))
        elif op:
            tokens.append((op, op, off))
        else:
            raise ParseError(off, ("expression",), text[off])
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokens(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(tok[2], (kind,), tok[1] or "end of input")
        return self.advance()

    def parse(self) -> MPoly:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(tok[2], ("+", "-", "*", "^", "end of input"), tok[1])
        return value

    def expr(self) -> MPoly:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> MPoly:
        value = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            value = value * self.factor()
        return value

    def factor(self) -> MPoly:
        # unary minus binds looser than "^" so that -X^2 means -(X^2),
        # matching standard precedence and keeping printing round-trippable
        if self.peek()[0] == "-":
            self.advance()
            return -self.factor()
        value = self.base()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("integer")
            value = value ** int(tok[1])
        return value

    def base(self) -> MPoly:
        tok = self.peek()
        kind, text, off = tok
        if kind == "(":
            self.advance()
            value = self.expr()
            self.expect(")")
            return value
        if kind == "integer":
            self.advance()
            num = int(text)
            if self.peek()[0] == "/":
                self.advance()
                den_tok = self.expect("integer")
                den = int(den_tok[1])
                if den == 0:
                    raise ParseError(den_tok[2], ("nonzero integer",), den_tok[1])
                return MPoly.constant(NFElem(num, 0, 0, den))
            return MPoly.constant(num)
        if kind == "ident":
            self.advance()
            if text == "r":
                return MPoly.constant(NF_R)
            if text in VAR_INDEX:
                return MPoly.var(text)
            raise UnknownIdentifierError(off, text)
        raise ParseError(off, ("identifier", "integer", "(", "-"), text or "end of input")


def parse_poly(text: str) -> MPoly:
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        _, found, off = parser.peek()
        raise ParseError(off, (), found or "end of input",
                         f"at offset {off}: nesting too deep") from None
