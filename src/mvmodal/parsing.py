"""Lexer and recursive-descent parser for the formula surface syntax.

Tokens, binding strengths and associativity come from syntax.CONNECTIVES.
The left-associative connectives are parsed by one precedence-climbing loop;
the right-associative implication and the non-chaining biconditional sit on
top of it. Constants are numerals (a label or an exact value) or canonical
c{index}; bare identifiers are declared propositions; identifiers applied to
arguments are modalities. Parentheses, modal applications and connectives
nest at most MAX_NESTING deep, so no input can exhaust the recursion of the
parser or of the structural functions downstream.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from .algebra import ResiduatedLattice
from .report import InputError
from .syntax import CONNECTIVES, CONST_INDEX, IDENT, IFF, NUMERAL, Bin, Const, Formula, Modal, Prop

__all__ = ["MAX_NESTING", "ParseError", "parse_formula", "tokenize"]

MAX_NESTING = 100

_IMP = CONNECTIVES["imp"]
_LEFT = {c.symbol: c for c in CONNECTIVES.values() if not c.right_assoc}
# longest symbol first, since the regex alternation takes the first that matches
_PUNCT = sorted([c.symbol for c in CONNECTIVES.values()] + [IFF, "(", ")", ","], key=len, reverse=True)
_TOKEN = re.compile(rf"(?P<numeral>{NUMERAL.pattern})|(?P<ident>{IDENT.pattern})"
                    rf"|(?P<punct>{'|'.join(map(re.escape, _PUNCT))})|\s+")


class ParseError(InputError):
    def __init__(self, message: str, text: str, pos: int):
        self.pos = pos
        snippet = text[pos : pos + 12] or "<end of input>"
        super().__init__(f"{message} at position {pos}: {snippet!r}")


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident' | 'numeral' | operator/punct literal
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", text, i)
        if m.lastgroup:  # None for whitespace
            tokens.append(Token(m[0] if m.lastgroup == "punct" else m.lastgroup, m[0], i))
        i = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, lattice: ResiduatedLattice,
                 propositions: Sequence[str], modalities: Mapping[str, int]):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.lattice = lattice
        self.props = set(propositions)
        self.modalities = dict(modalities)
        self.depth = 0  # groups, modal applications and implication operands open here

    def _peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> Token:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.text, len(self.text))
        self.i += 1
        return tok

    def _expect(self, kind: str) -> Token:
        tok = self._peek()
        if tok is None or tok.kind != kind:
            pos = tok.pos if tok else len(self.text)
            raise ParseError(f"expected {kind!r}", self.text, pos)
        return self._next()

    def _at(self, kind: str) -> bool:
        tok = self._peek()
        return tok is not None and tok.kind == kind

    def parse(self) -> Formula:
        phi = self.implication()
        if self._peek() is not None:
            raise ParseError("trailing input", self.text, self._peek().pos)
        if _height(phi) > MAX_NESTING:
            raise ParseError(f"connectives and modalities nest deeper than {MAX_NESTING}",
                             self.text, 0)
        return phi

    def _nested(self, parse, pos: int) -> Formula:
        """parse() one level deeper, refusing to go beyond MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"formula nests deeper than {MAX_NESTING}", self.text, pos)
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    def implication(self) -> Formula:
        left = self.binary(0)
        if self._at(_IMP.symbol):
            tok = self._next()
            return Bin("imp", left, self._nested(self.implication, tok.pos))
        if self._at(IFF):
            self._next()
            right = self.binary(0)
            return Bin("and", Bin("imp", left, right), Bin("imp", right, left))
        return left

    def binary(self, min_prec: int) -> Formula:
        """Left-associative connectives binding at least as tight as min_prec."""
        phi = self.atom()
        while (tok := self._peek()) and (c := _LEFT.get(tok.kind)) and c.prec >= min_prec:
            self._next()
            phi = Bin(c.tag, phi, self.binary(c.prec + 1))
        return phi

    def atom(self) -> Formula:
        tok = self._next()
        if tok.kind == "(":
            phi = self._nested(self.implication, tok.pos)
            self._expect(")")
            return phi
        if tok.kind == "numeral":
            idx = self.lattice.index_of_label(tok.text)
            if idx is None:
                raise ParseError(f"numeral {tok.text!r} names no carrier element of {self.lattice.name}",
                                 self.text, tok.pos)
            return Const(idx)
        if tok.kind == "ident":
            if self._at("("):  # modality application
                if tok.text not in self.modalities:
                    raise ParseError(f"unknown modality {tok.text!r}", self.text, tok.pos)
                self._next()
                args = self._nested(self._arguments, tok.pos)
                arity = self.modalities[tok.text]
                if len(args) != arity:
                    raise ParseError(f"modality {tok.text!r} takes {arity} argument(s), got {len(args)}",
                                     self.text, tok.pos)
                return Modal(tok.text, tuple(args))
            m = CONST_INDEX.fullmatch(tok.text)
            if m and tok.text not in self.props:
                idx = int(m.group(1))
                if idx >= self.lattice.size:
                    raise ParseError(f"constant index {idx} outside carrier 0..{self.lattice.size - 1}",
                                     self.text, tok.pos)
                return Const(idx)
            if tok.text in self.props:
                return Prop(tok.text)
            raise ParseError(f"undeclared proposition {tok.text!r}", self.text, tok.pos)
        raise ParseError(f"unexpected token {tok.text!r}", self.text, tok.pos)

    def _arguments(self) -> list[Formula]:
        args = [self.implication()]
        while self._at(","):
            self._next()
            args.append(self.implication())
        self._expect(")")
        return args


def _height(phi: Formula) -> int:
    """Longest chain of connectives and modalities, walked without recursion."""
    best, stack = 0, [(phi, 0)]
    while stack:
        f, h = stack.pop()
        best = max(best, h)
        if isinstance(f, Bin):
            stack += [(f.left, h + 1), (f.right, h + 1)]
        elif isinstance(f, Modal):
            stack += [(a, h + 1) for a in f.args]
    return best


def parse_formula(text: str, lattice: ResiduatedLattice,
                  propositions: Sequence[str] = (),
                  modalities: Mapping[str, int] | None = None) -> Formula:
    return _Parser(text, lattice, propositions, modalities or {}).parse()
