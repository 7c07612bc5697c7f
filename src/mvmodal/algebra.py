"""Finite commutative integral residuated lattices over canonical index carriers.

Carrier elements are the indices 0..size-1. All four operation tables are
tuples of tuples of ints, read as ``table[a][b]``; the lattice order is derived
from the meet table (a <= b iff meet(a, b) == a, equivalently join(a, b) == b).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Iterable

from .report import InputError, ValidationReport, as_int, read_json

__all__ = [
    "ResiduatedLattice",
    "builtin_lattice",
    "load_algebra",
    "validate_lattice",
    "label_for_fraction",
]


def label_for_fraction(fr: Fraction) -> str:
    """Shortest exact numeral for a rational: decimal when finite, else n/d."""
    if fr.denominator == 1:
        return str(fr.numerator)
    d = fr.denominator
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{fr.numerator}/{fr.denominator}"
    digits = max(twos, fives)
    scaled = fr.numerator * 10**digits // fr.denominator
    text = str(scaled).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}" if digits else text


Table = tuple[tuple[int, ...], ...]


@dataclass(frozen=True, eq=False)
class ResiduatedLattice:
    """Operation tables plus the designated bounds.

    ``values`` optionally embeds the carrier into the rationals (builtin chains
    use i/(k-1)); the distribution modalities require it. ``labels`` drive
    constant printing; they default to the value numerals or c{i}.
    ``lawful`` marks tables known to satisfy every law of validate_lattice:
    builtin chains are built lawful, and a Session sets it once it has
    validated any other lattice.
    """

    name: str
    size: int
    join: Table
    meet: Table
    mono: Table
    impl: Table
    bot: int
    top: int
    labels: tuple[str, ...] = ()
    values: tuple[Fraction, ...] | None = None
    lawful: bool = field(init=False, default=False, repr=False, compare=False)
    _leq: tuple[tuple[bool, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = self.size
        for attr in ("join", "meet", "mono", "impl"):
            table = tuple(tuple(row) for row in getattr(self, attr))
            if len(table) != k or any(len(row) != k for row in table):
                raise InputError(f"{attr} table must be {k}x{k}")
            if not all(type(v) is int and 0 <= v < k for row in table for v in row):
                raise InputError(f"{attr} table must hold integers in 0..{k - 1}")
            object.__setattr__(self, attr, table)
        if not (0 <= self.bot < self.size and 0 <= self.top < self.size):
            raise InputError("bot/top outside carrier")
        if not self.labels:
            if self.values is not None:
                object.__setattr__(self, "labels", tuple(label_for_fraction(v) for v in self.values))
            else:
                object.__setattr__(self, "labels", tuple(f"c{i}" for i in range(self.size)))
        if len(self.labels) != self.size:
            raise InputError("label list length != size")
        if len(set(self.labels)) != self.size:  # a label must print back to its own constant
            raise InputError(f"labels must be distinct, got {list(self.labels)!r}")
        if self.values is not None and len(self.values) != self.size:
            raise InputError("values list length != size")
        leq = tuple(tuple(m == a for m in row) for a, row in enumerate(self.meet))
        object.__setattr__(self, "_leq", leq)

    # -- order ---------------------------------------------------------------

    def leq(self, a: int, b: int) -> bool:
        return self._leq[a][b]

    def meet_many(self, xs: Iterable[int]) -> int:
        out, meet = self.top, self.meet
        for x in xs:
            out = meet[out][x]
        return out

    def join_many(self, xs: Iterable[int]) -> int:
        out, join = self.bot, self.join
        for x in xs:
            out = join[out][x]
        return out

    def fuse(self, a: int, b: int) -> int:
        return self.mono[a][b]

    def residuum(self, a: int, b: int) -> int:
        return self.impl[a][b]

    # -- naming --------------------------------------------------------------

    def label(self, a: int) -> str:
        return self.labels[a]

    def index_of_label(self, text: str) -> int | None:
        """Resolve a numeral to a carrier index via label or exact value match."""
        if text in self.labels:
            return self.labels.index(text)
        try:
            fr = Fraction(text)
        except (ValueError, ZeroDivisionError):
            return None
        if self.values is not None and fr in self.values:
            return self.values.index(fr)
        return None

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "size": self.size,
            "join": [list(r) for r in self.join],
            "meet": [list(r) for r in self.meet],
            "mono": [list(r) for r in self.mono],
            "impl": [list(r) for r in self.impl],
            "bot": self.bot,
            "top": self.top,
            "labels": list(self.labels),
        }
        if self.values is not None:
            out["values"] = [str(v) for v in self.values]
        return out


@lru_cache(maxsize=32)
def builtin_lattice(kind: str, k: int = 2) -> ResiduatedLattice:
    """Standard chains on {0, 1/(k-1), ..., 1} encoded as indices 0..k-1.

    Built once per (kind, k) and shared: the lattice is frozen, holds no
    per-use state and is lawful from the start."""
    if k < 2:
        raise InputError("chain length must be >= 2")
    if kind == "boolean":
        if k != 2:
            raise InputError("boolean algebra is the 2-chain; use lukasiewicz/goedel for longer chains")
        name = "boolean"
    elif kind in ("lukasiewicz", "goedel"):
        name = f"{kind}-{k}"
    else:
        raise InputError(f"unknown builtin algebra kind {kind!r}")
    rng = range(k)
    join = tuple(tuple(max(a, b) for b in rng) for a in rng)
    meet = tuple(tuple(min(a, b) for b in rng) for a in rng)
    if kind == "goedel":
        mono = meet
        impl = tuple(tuple(k - 1 if a <= b else b for b in rng) for a in rng)
    else:
        mono = tuple(tuple(max(a + b - (k - 1), 0) for b in rng) for a in rng)
        impl = tuple(tuple(min(k - 1 - a + b, k - 1) for b in rng) for a in rng)
    values = tuple(Fraction(i, k - 1) for i in range(k))
    lat = ResiduatedLattice(name, k, join, meet, mono, impl, 0, k - 1, values=values)
    object.__setattr__(lat, "lawful", True)
    return lat


def load_algebra(source: str | Path | dict) -> ResiduatedLattice:
    """Read an algebra from a JSON file or an already-parsed object."""
    data = read_json(source)
    if not isinstance(data, dict):
        raise InputError(f"an algebra must be a JSON object, got {type(data).__name__}")
    missing = [key for key in ("name", "size", "join", "meet", "mono", "impl", "bot", "top") if key not in data]
    if missing:
        raise InputError(f"algebra file missing keys: {', '.join(missing)}")
    labels = data.get("labels", [])
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise InputError(f"labels must be a list of strings, got {labels!r}")
    values = None
    if "values" in data:
        if not isinstance(data["values"], list):
            raise InputError(f"values must be a list of numerals, got {data['values']!r}")
        try:
            values = tuple(Fraction(str(v)) for v in data["values"])
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad values entry: {exc}") from None
    try:
        return ResiduatedLattice(
            name=str(data["name"]),
            size=as_int(data["size"], "size"),
            join=data["join"],
            meet=data["meet"],
            mono=data["mono"],
            impl=data["impl"],
            bot=as_int(data["bot"], "bot"),
            top=as_int(data["top"], "top"),
            labels=tuple(labels),
            values=values,
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed algebra tables: {exc}") from None


# -- validation ---------------------------------------------------------------


def validate_lattice(lat: ResiduatedLattice) -> ValidationReport:
    """Exhaustively check every bounded-residuated-lattice law; list each
    violated law with its first witness tuple (carrier indices, row-major)."""
    report = ValidationReport(subject=f"algebra {lat.name}")
    k, bot, top = lat.size, lat.bot, lat.top
    J, M, T, I, leq = lat.join, lat.meet, lat.mono, lat.impl, lat._leq
    laws = (  # law, arity, predicate that holds at a violating tuple[, detail]
        ("join-commutative", 2, lambda a, b: J[a][b] != J[b][a]),
        ("meet-commutative", 2, lambda a, b: M[a][b] != M[b][a]),
        ("mono-commutative", 2, lambda a, b: T[a][b] != T[b][a]),
        ("join-idempotent", 1, lambda a: J[a][a] != a),
        ("meet-idempotent", 1, lambda a: M[a][a] != a),
        ("join-associative", 3, lambda a, b, c: J[J[a][b]][c] != J[a][J[b][c]]),
        ("meet-associative", 3, lambda a, b, c: M[M[a][b]][c] != M[a][M[b][c]]),
        ("mono-associative", 3, lambda a, b, c: T[T[a][b]][c] != T[a][T[b][c]]),
        ("absorption-join", 2, lambda a, b: J[a][M[a][b]] != a),
        ("absorption-meet", 2, lambda a, b: M[a][J[a][b]] != a),
        ("order-consistency", 2, lambda a, b: (M[a][b] == a) != (J[a][b] == b)),
        ("bot-join-identity", 1, lambda a: J[a][bot] != a),
        ("top-meet-identity", 1, lambda a: M[a][top] != a),
        ("bot-least", 1, lambda a: M[a][bot] != bot),
        ("integrality", 1, lambda a: J[a][top] != top),
        ("mono-unit-top", 1, lambda a: T[a][top] != a),
        ("residuation", 3, lambda a, b, c: leq[T[a][b]][c] != leq[b][I[a][c]],
         "mono(a,b)<=c iff b<=impl(a,c) fails at (a,b,c)"),
    )
    for law, arity, bad, *detail in laws:
        witness = next((w for w in product(range(k), repeat=arity) if bad(*w)), None)
        if witness is not None:
            report.fail(law, witness, *detail)

    report.checked = sum(k**arity for _, arity, *_ in laws)
    return report

