"""Formula syntax: AST nodes, modal rank, substitution, printing.

Connective tags: "or" (lattice join), "and" (lattice meet), "fuse" (monoidal
product), "imp" (residuum). The biconditional is surface syntax only and
desugars to (a -> b) /\\ (b -> a) at parse time.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Union

from .report import InputError

__all__ = [
    "Formula",
    "Const",
    "Prop",
    "Bin",
    "Modal",
    "BIN_OPS",
    "rank",
    "subformulas",
    "propositions_of",
    "substitute",
    "pretty",
]

BIN_OPS = ("or", "and", "fuse", "imp")


@dataclass(frozen=True)
class Const:
    value: int  # carrier index


@dataclass(frozen=True)
class Prop:
    name: str


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Formula"
    right: "Formula"

    def __post_init__(self):
        if self.op not in BIN_OPS:
            raise InputError(f"unknown connective {self.op!r}")


@dataclass(frozen=True)
class Modal:
    name: str
    args: tuple["Formula", ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if not self.args:
            raise InputError("modal operators take at least one argument")


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

_PREC = {"imp": 0, "or": 1, "and": 2, "fuse": 3}
_SYMBOL = {"imp": "->", "or": "|", "and": "/\\", "fuse": "&"}
_NUMERAL_OK = re.compile(r"^\d+(\.\d+)?(/\d+)?$")


def pretty(phi: Formula, lattice=None) -> str:
    """Concrete syntax; parses back to the same tree under the same session.

    Constants print as their numeral label when the lattice provides one,
    else as c{index}.
    """

    def const_text(c: Const) -> str:
        if lattice is not None and _NUMERAL_OK.match(lattice.label(c.value)):
            return lattice.label(c.value)
        return f"c{c.value}"

    def go(f: Formula, ctx: int) -> str:
        if isinstance(f, Const):
            return const_text(f)
        if isinstance(f, Prop):
            return f.name
        if isinstance(f, Modal):
            return f"{f.name}({', '.join(go(a, 0) for a in f.args)})"
        prec = _PREC[f.op]
        if f.op == "imp":  # right-associative
            text = f"{go(f.left, prec + 1)} -> {go(f.right, prec)}"
        else:  # left-associative
            text = f"{go(f.left, prec)} {_SYMBOL[f.op]} {go(f.right, prec + 1)}"
        return f"({text})" if prec < ctx else text

    return go(phi, 0)
