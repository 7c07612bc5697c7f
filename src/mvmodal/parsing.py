"""Lexer and recursive-descent parser for the formula surface syntax.

The lexer is one regex scan (``finditer``) of whitespace-prefixed tokens that
yields plain (kind, text, pos) tuples. A character that starts no token
matches a one-character catch-all group of the same scan, which locates the
first unlexable character without a second pass. The parser reads the list
of token kinds, which ends in a sentinel, by index. ``tokenize`` wraps the
same scan into ``Token`` named tuples.

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
from typing import Mapping, NamedTuple, Sequence

from .algebra import ResiduatedLattice
from .report import InputError
from .syntax import CONNECTIVES, CONST_INDEX, IDENT, IFF, NUMERAL, Bin, Const, Formula, Modal, Prop

__all__ = ["MAX_NESTING", "ParseError", "parse_formula", "tokenize"]

MAX_NESTING = 100

_IMP = CONNECTIVES["imp"]
_LEFT = {c.symbol: c for c in CONNECTIVES.values() if not c.right_assoc}
# longest symbol first, since the regex alternation takes the first that matches
_PUNCT = sorted([c.symbol for c in CONNECTIVES.values()] + [IFF, "(", ")", ","], key=len, reverse=True)
# one token after optional whitespace; a character that starts no token
# matches the last group alone
_SCAN = re.compile(rf"\s*(?:({NUMERAL.pattern})|({IDENT.pattern})"
                   rf"|({'|'.join(map(re.escape, _PUNCT))})|(\S))")
_UNLEXABLE = "unlexable"
_END = "end of input"  # the kind of the sentinel token after the last
_KINDS = (None, "numeral", "ident", None, _UNLEXABLE)  # by group; None: the text is the kind


class ParseError(InputError):
    def __init__(self, message: str, text: str, pos: int):
        self.pos = pos
        snippet = text[pos : pos + 12] or "<end of input>"
        super().__init__(f"{message} at position {pos}: {snippet!r}")


class Token(NamedTuple):
    kind: str  # 'ident' | 'numeral' | operator/punct literal
    text: str
    pos: int


def _lex(text: str) -> tuple[list[tuple], list[str]]:
    """The (kind, text, pos) tuple of each token and the list of their kinds,
    from one regex scan. Trailing whitespace is cut first: inside the text
    every whitespace run ends at a character the scan matches, so it never
    restarts within a run."""
    tokens = [(_KINDS[g := m.lastindex] or m[g], m[g], m.start(g))
              for m in _SCAN.finditer(text.rstrip())]
    kinds = [t[0] for t in tokens]
    if _UNLEXABLE in kinds:
        _, char, pos = tokens[kinds.index(_UNLEXABLE)]
        raise ParseError(f"unexpected character {char!r}", text, pos)
    return tokens, kinds


def tokenize(text: str) -> list[Token]:
    return [Token._make(t) for t in _lex(text)[0]]


class _Parser:
    def __init__(self, text: str, lattice: ResiduatedLattice,
                 propositions: Sequence[str], modalities: Mapping[str, int]):
        self.text = text
        self.tokens, self.kinds = _lex(text)
        self.tokens.append((_END, "", len(text)))
        self.kinds.append(_END)
        self.i = 0
        self.lattice = lattice
        self.props = set(propositions)
        self.modalities = modalities
        self.depth = 0  # groups, modal applications and implication operands open here

    def _expect(self, kind: str) -> None:
        if self.kinds[self.i] != kind:
            raise ParseError(f"expected {kind!r}", self.text, self.tokens[self.i][2])
        self.i += 1

    def parse(self) -> Formula:
        phi = self.implication()
        if self.kinds[self.i] is not _END:
            raise ParseError("trailing input", self.text, self.tokens[self.i][2])
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
        kind = self.kinds[self.i]
        if kind == _IMP.symbol:
            pos = self.tokens[self.i][2]
            self.i += 1
            return Bin("imp", left, self._nested(self.implication, pos))
        if kind == IFF:
            self.i += 1
            right = self.binary(0)
            return Bin("and", Bin("imp", left, right), Bin("imp", right, left))
        return left

    def binary(self, min_prec: int) -> Formula:
        """Left-associative connectives binding at least as tight as min_prec."""
        phi = self.atom()
        while (c := _LEFT.get(self.kinds[self.i])) and c.prec >= min_prec:
            self.i += 1
            phi = Bin(c.tag, phi, self.binary(c.prec + 1))
        return phi

    def atom(self) -> Formula:
        kind, text, pos = self.tokens[self.i]
        if kind is _END:
            raise ParseError("unexpected end of input", self.text, pos)
        self.i += 1
        if kind == "(":
            phi = self._nested(self.implication, pos)
            self._expect(")")
            return phi
        if kind == "numeral":
            idx = self.lattice.index_of_label(text)
            if idx is None:
                raise ParseError(f"numeral {text!r} names no carrier element of {self.lattice.name}",
                                 self.text, pos)
            return Const(idx)
        if kind == "ident":
            if self.kinds[self.i] == "(":  # modality application
                if text not in self.modalities:
                    raise ParseError(f"unknown modality {text!r}", self.text, pos)
                self.i += 1
                args = self._nested(self._arguments, pos)
                arity = self.modalities[text]
                if len(args) != arity:
                    raise ParseError(f"modality {text!r} takes {arity} argument(s), got {len(args)}",
                                     self.text, pos)
                return Modal(text, tuple(args))
            m = CONST_INDEX.fullmatch(text)
            if m and text not in self.props:
                idx = int(m.group(1))
                if idx >= self.lattice.size:
                    raise ParseError(f"constant index {idx} outside carrier 0..{self.lattice.size - 1}",
                                     self.text, pos)
                return Const(idx)
            if text in self.props:
                return Prop(text)
            raise ParseError(f"undeclared proposition {text!r}", self.text, pos)
        raise ParseError(f"unexpected token {text!r}", self.text, pos)

    def _arguments(self) -> list[Formula]:
        args = [self.implication()]
        while self.kinds[self.i] == ",":
            self.i += 1
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
