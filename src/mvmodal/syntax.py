"""Formula syntax: the concrete-syntax table, AST nodes, modal rank,
substitution, printing.

CONNECTIVES declares each connective's tag, symbol, binding strength,
associativity and lattice table for the lexer, the parser, the printer and
Session.tables. The biconditional IFF is surface syntax only: it desugars to
the meet of the two implications at parse time.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from typing import Mapping, Union

from .report import InputError

__all__ = [
    "BIN_OPS", "CONNECTIVES", "CONST_INDEX", "IDENT", "IFF", "NUMERAL", "Bin", "Connective",
    "Const", "Formula", "Modal", "Prop", "pretty", "propositions_of", "rank", "subformulas",
    "substitute",
]


@dataclass(frozen=True)
class Connective:
    tag: str
    symbol: str
    prec: int  # binding strength: a higher number binds tighter
    right_assoc: bool
    table: str  # the ResiduatedLattice table that evaluates it


CONNECTIVES = {c.tag: c for c in (
    Connective("or", "|", 1, False, "join"),
    Connective("and", "/\\", 2, False, "meet"),
    Connective("fuse", "&", 3, False, "mono"),
    Connective("imp", "->", 0, True, "impl"),
)}
BIN_OPS = tuple(CONNECTIVES)
IFF = "<->"
# a constant prints as its label only when NUMERAL matches all of the label
NUMERAL = re.compile(r"\d+(?:\.\d+|/\d+)?")
CONST_INDEX = re.compile(r"c(\d+)")  # c<index> names carrier element <index>
IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Node:
    """A formula node caches its hash, computed once from its fields, whose
    child nodes hash by their own cached values; equality stays the
    dataclass's fieldwise comparison. Pickling goes through the constructor,
    so an unpickled node hashes afresh."""

    def _cache_hash(self, *parts) -> None:
        object.__setattr__(self, "_hash", hash((type(self).__name__, *parts)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


@dataclass(frozen=True)
class Const(_Node):
    value: int  # carrier index
    _hash: int = field(init=False, repr=False, compare=False)
    __hash__ = _Node.__hash__  # a class's own __hash__ is one dataclass keeps

    def __post_init__(self):
        self._cache_hash(self.value)


@dataclass(frozen=True)
class Prop(_Node):
    name: str
    _hash: int = field(init=False, repr=False, compare=False)
    __hash__ = _Node.__hash__  # a class's own __hash__ is one dataclass keeps

    def __post_init__(self):
        self._cache_hash(self.name)


@dataclass(frozen=True)
class Bin(_Node):
    op: str
    left: "Formula"
    right: "Formula"
    _hash: int = field(init=False, repr=False, compare=False)
    __hash__ = _Node.__hash__  # a class's own __hash__ is one dataclass keeps

    def __post_init__(self):
        if self.op not in BIN_OPS:
            raise InputError(f"unknown connective {self.op!r}")
        self._cache_hash(self.op, self.left, self.right)


@dataclass(frozen=True)
class Modal(_Node):
    name: str
    args: tuple["Formula", ...]
    _hash: int = field(init=False, repr=False, compare=False)
    __hash__ = _Node.__hash__  # a class's own __hash__ is one dataclass keeps

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if not self.args:
            raise InputError("modal operators take at least one argument")
        self._cache_hash(self.name, self.args)


Formula = Union[Const, Prop, Bin, Modal]


def rank(phi: Formula) -> int:
    """Maximal modal nesting depth."""
    if isinstance(phi, (Const, Prop)):
        return 0
    if isinstance(phi, Bin):
        return max(rank(phi.left), rank(phi.right))
    return 1 + max(rank(a) for a in phi.args)


def subformulas(phi: Formula):
    """All subformulas, outermost first, duplicates included once each."""
    seen: dict[Formula, None] = {}

    def walk(f: Formula):
        if f in seen:
            return
        seen[f] = None
        if isinstance(f, Bin):
            walk(f.left)
            walk(f.right)
        elif isinstance(f, Modal):
            for a in f.args:
                walk(a)

    walk(phi)
    return list(seen)


def propositions_of(phi: Formula) -> set[str]:
    out: set[str] = set()
    for sub in subformulas(phi):
        if isinstance(sub, Prop):
            out.add(sub.name)
    return out


def substitute(phi: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Simultaneous replacement of propositions by formulas."""
    if isinstance(phi, Const):
        return phi
    if isinstance(phi, Prop):
        return mapping.get(phi.name, phi)
    if isinstance(phi, Bin):
        return Bin(phi.op, substitute(phi.left, mapping), substitute(phi.right, mapping))
    return Modal(phi.name, tuple(substitute(a, mapping) for a in phi.args))


# -- printing ------------------------------------------------------------------


def pretty(phi: Formula, lattice=None) -> str:
    """Concrete syntax; parses back to the same tree under the same session.

    Constants print as their label when it is a NUMERAL, else as c{index}.
    """

    def const_text(c: Const) -> str:
        label = lattice.label(c.value) if lattice is not None else ""
        return label if NUMERAL.fullmatch(label) else f"c{c.value}"

    def go(f: Formula, ctx: int) -> str:
        if isinstance(f, Const):
            return const_text(f)
        if isinstance(f, Prop):
            return f.name
        if isinstance(f, Modal):
            return f"{f.name}({', '.join(go(a, 0) for a in f.args)})"
        c = CONNECTIVES[f.op]
        left, right = (c.prec + 1, c.prec) if c.right_assoc else (c.prec, c.prec + 1)
        text = f"{go(f.left, left)} {c.symbol} {go(f.right, right)}"
        return f"({text})" if c.prec < ctx else text

    return go(phi, 0)
