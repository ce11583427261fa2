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
# operator, or any other non-space character, which no rule accepts; whitespace
# is skipped.  [^\W\d_] also admits numerals such as "²", which start no word.
_TOKEN = re.compile(r"([0-9]+)|([^\W\d_]\w*)|([-+*^/()])|(\S)")


def _tokens(text: str) -> list:
    """(kind, text, offset) per token, ending at ("end", "", len(text)) or at
    the first character that starts no token, as one "invalid" token."""
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
            return tokens + [("invalid", text[off], off)]
    tokens.append(("end", "", len(text)))
    return tokens


# the name of a token kind in the expected set of an error
_KIND_NAMES = {"ident": "identifier", "end": "end of input"}


def _pairwise_sum(values: list) -> MPoly:
    """The sum of a nonempty list, added in a balanced tree of `+`."""
    while len(values) > 1:
        values = [a + b for a, b in zip(values[::2], values[1::2])] + values[len(values) // 2 * 2:]
    return values[0]


class _Parser:
    """Each rule takes a token with `accept`; a token kind it tries and
    declines is noted as accepted at that offset, so an error there lists
    exactly the kinds the grammar accepts."""

    def __init__(self, text: str):
        self.tokens = _tokens(text)
        self.pos = 0
        # the token kinds tried and declined since the last token was taken
        self.tried = ()

    def accept(self, *kinds):
        """The next token, consumed, if its kind is one of `kinds`; else None."""
        tok = self.tokens[self.pos]
        if tok[0] in kinds:
            self.pos += 1
            self.tried = ()
            return tok
        self.tried += kinds
        return None

    def expect(self, *kinds):
        """`accept`, or a ParseError that lists every kind tried here."""
        tok = self.accept(*kinds)
        if tok is None:
            _, text, off = self.tokens[self.pos]
            raise ParseError(off, {_KIND_NAMES.get(k, k) for k in self.tried}, text or "end of input")
        return tok

    def expr(self) -> MPoly:
        value = self.term()
        if not (op := self.accept("+", "-")):
            return value
        # the added and the subtracted terms are each summed pairwise, so a
        # sum of n terms copies O(n log n) terms, not O(n^2)
        added, subtracted = [value], []
        while op:
            (added if op[0] == "+" else subtracted).append(self.term())
            op = self.accept("+", "-")
        value = _pairwise_sum(added)
        return value - _pairwise_sum(subtracted) if subtracted else value

    def term(self) -> MPoly:
        value = self.factor()
        while self.accept("*"):
            value = value * self.factor()
        return value

    def factor(self) -> MPoly:
        # unary minus binds looser than "^" so that -X^2 means -(X^2),
        # matching standard precedence and keeping printing round-trippable
        if self.accept("-"):
            return -self.factor()
        value = self.base()
        if self.accept("^"):
            value = value ** int(self.expect("integer")[1])
        return value

    def base(self) -> MPoly:
        if tok := self.accept("ident"):
            _, text, off = tok
            if text == "r":
                return MPoly.constant(NF_R)
            if text in VAR_INDEX:
                return MPoly.var(text)
            raise UnknownIdentifierError(off, text)
        if tok := self.accept("integer"):
            num = int(tok[1])
            if self.accept("/"):
                _, den, off = self.expect("integer")
                if int(den) == 0:
                    raise ParseError(off, ("nonzero integer",), den)
                return MPoly.constant(NFElem(num, 0, 0, int(den)))
            return MPoly.constant(num)
        self.expect("(")
        value = self.expr()
        self.expect(")")
        return value


def parse_poly(text: str) -> MPoly:
    parser = _Parser(text)
    try:
        value = parser.expr()
        parser.expect("end")
        return value
    except RecursionError:
        _, found, off = parser.tokens[parser.pos]
        raise ParseError(off, (), found or "end of input",
                         f"at offset {off}: nesting too deep") from None
