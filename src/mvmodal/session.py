"""Session = algebra + functor + proposition signature + registry + budgets."""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .algebra import ResiduatedLattice, Table, builtin_lattice, load_algebra, validate_lattice
from .functors import Functor, ValuationSet, make_functor
from .lifting import LiftingRegistry, standard_liftings
from .parsing import parse_formula
from .report import InputError, as_int, read_json
from .syntax import CONNECTIVES, CONST_INDEX, IDENT, Const, Formula, Modal, Prop, pretty, subformulas

__all__ = ["Session", "algebra_from_spec"]

_BUILTIN = re.compile(r"^(boolean|lukasiewicz|goedel)(?::(\d+))?$")
DEFAULT_BUDGET = 10**6


def algebra_from_spec(spec) -> ResiduatedLattice:
    """Accepts 'boolean', 'lukasiewicz:3', 'goedel:4', a JSON path, or a dict."""
    if isinstance(spec, ResiduatedLattice):
        return spec
    m = _BUILTIN.match(str(spec)) if isinstance(spec, (str, Path)) else None
    if m:
        return builtin_lattice(m.group(1), int(m.group(2) or 2))
    if isinstance(spec, (str, Path)) and not Path(spec).exists():
        raise InputError(f"algebra spec {spec!r} is neither a builtin name nor an existing file")
    return load_algebra(spec)


def _require_lawful(lat: ResiduatedLattice) -> None:
    """The deciders rest on naturality of the liftings, and the modal-vector
    closures on the lattice operations themselves, so a session's lattice
    must pass validate_lattice. A lattice marked lawful is not checked again."""
    if lat.lawful:
        return
    report = validate_lattice(lat)
    if not report.ok:
        v = report.violations[0]
        raise InputError(f"algebra {lat.name} is not a residuated lattice: law {v.law} fails "
                         f"at {v.witness} (mvmodal validate-algebra lists every broken law)")
    object.__setattr__(lat, "lawful", True)


@dataclass(eq=False)
class Session:
    lat: ResiduatedLattice
    functor: Functor
    propositions: tuple[str, ...]
    budget: int = DEFAULT_BUDGET
    threshold: Fraction = Fraction(1, 2)
    iota0: int | None = None  # id in T(stage 0) overriding the canonical section
    registry: LiftingRegistry = field(init=False)
    valuations: ValuationSet = field(init=False)
    tables: dict[str, Table] = field(init=False)  # connective -> lattice table

    def __post_init__(self):
        _require_lawful(self.lat)
        self.propositions = tuple(self.propositions)
        for p in self.propositions:
            if not IDENT.fullmatch(p):
                raise InputError(f"propositions must be identifiers the parser can read, got {p!r}")
            if CONST_INDEX.fullmatch(p):
                raise InputError(f"proposition name {p!r} collides with constant syntax")
        if len(set(self.propositions)) != len(self.propositions):
            raise InputError("duplicate proposition names")
        self.registry = standard_liftings(self.lat, self.functor, self.threshold)
        for p in self.propositions:
            if p in self.registry.liftings:
                raise InputError(f"proposition name {p!r} collides with a modality")
        self.valuations = ValuationSet(self.propositions, self.lat.size)
        self.tables = {op: getattr(self.lat, c.table) for op, c in CONNECTIVES.items()}
        if self.budget < 1:
            raise InputError("budget must be positive")

    # -- formulas -------------------------------------------------------------

    def parse(self, text: str) -> Formula:
        if not isinstance(text, str):
            raise InputError(f"a formula must be a string, got {text!r}")
        return parse_formula(text, self.lat, self.propositions, self.registry.arities())

    def pretty(self, phi: Formula) -> str:
        return pretty(phi, self.lat)

    def validate_formula(self, phi: Formula) -> Formula:
        for sub in subformulas(phi):
            if isinstance(sub, Prop) and sub.name not in self.propositions:
                raise InputError(f"formula uses undeclared proposition {sub.name!r}")
            if isinstance(sub, Const) and not 0 <= sub.value < self.lat.size:
                raise InputError(f"constant index {sub.value} outside carrier")
            if isinstance(sub, Modal):
                lf = self.registry.get(sub.name)
                if len(sub.args) != lf.arity:
                    raise InputError(f"modality {sub.name!r} expects {lf.arity} argument(s)")
        return phi

    # -- config ---------------------------------------------------------------

    @classmethod
    def from_config(cls, source) -> "Session":
        data = read_json(source)
        if not isinstance(data, dict):
            raise InputError("session config must be a JSON object")
        known = {"algebra", "functor", "propositions", "budget", "threshold", "iota0", "cache_dir"}
        unknown = set(data) - known
        if unknown:
            raise InputError(f"unknown session config keys: {sorted(unknown)}")
        lat = algebra_from_spec(data.get("algebra", "boolean"))
        functor = make_functor(data.get("functor", "powerset"), lat)
        raw = data.get("threshold")  # null, like an absent key, means 1/2
        try:
            threshold = Fraction(1, 2) if raw is None else Fraction(str(raw))
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad threshold {raw!r}") from None
        for key in ("budget", "iota0"):
            if data.get(key) is not None:
                as_int(data[key], key)
        props = data.get("propositions", ())
        if not isinstance(props, (list, tuple)) or not all(isinstance(p, str) for p in props):
            raise InputError(f"propositions must be a list of names, got {props!r}")
        cache_dir = data.get("cache_dir")  # accepted for old configs; nothing is read from it
        if cache_dir and not isinstance(cache_dir, (str, Path)):
            raise InputError(f"cache_dir must be a path, got {cache_dir!r}")
        return cls(
            lat=lat,
            functor=functor,
            propositions=tuple(props),
            budget=DEFAULT_BUDGET if data.get("budget") is None else data["budget"],
            threshold=threshold,
            iota0=data.get("iota0"),
        )
