"""Predicate liftings: modal operator semantics as natural transformations.

Each lifting turns argument predicates (carrier-valued maps on a base set)
into one predicate on the functor image, a map from whole predicates to whole
predicates. Each functor declares its liftings (``Functor.liftings``), whose
evaluators in functors.py are column kernels: given a sequence of delta forms
and one indexable value column per argument, a kernel returns the lifted
predicate's values at all of those forms in one call, so the same code serves
tiny concrete models, a model's stage images and whole stage carriers.
``PredicateLifting.column`` runs the kernel; ``value_at``, the value at one
form with the arguments given as callables, is the kernel on that one form.
This module registers, tabulates and checks liftings and reads no delta form.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import Callable, Iterable, Sequence

from .algebra import ResiduatedLattice
from .functors import Functor
from .report import BudgetError, InputError, ValidationReport

__all__ = [
    "PredicateLifting",
    "LiftingRegistry",
    "standard_liftings",
    "apply_lifting",
    "check_naturality",
    "check_alpha_preservation",
]


class _Calls:
    """An argument given as a callable, read as a column."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        self.fn = fn

    def __getitem__(self, x):
        return self.fn(x)


@dataclass(frozen=True, eq=False)
class PredicateLifting:
    """kernel(lat, forms, cols) gives the values at a sequence of delta forms
    with the arguments as indexable columns (see functors.py)."""

    name: str
    arity: int
    functor: Functor
    lat: ResiduatedLattice
    formula: str
    kernel: Callable

    def column(self, forms: Iterable, cols: Sequence[Sequence[int]]) -> list[int]:
        """The lifted predicate at each delta form of forms, in order, where
        cols[i][x] is argument i's value at base element x."""
        return self.kernel(self.lat, forms, cols)

    def value_at(self, delta, args: Sequence[Callable]) -> int:
        return self.kernel(self.lat, (delta,), [_Calls(a) for a in args])[0]


# -- registry ---------------------------------------------------------------------


@dataclass
class LiftingRegistry:
    liftings: dict[str, PredicateLifting] = field(default_factory=dict)

    def add(self, lifting: PredicateLifting) -> None:
        if lifting.name in self.liftings:
            raise InputError(f"duplicate modality name {lifting.name!r}")
        self.liftings[lifting.name] = lifting

    def get(self, name: str) -> PredicateLifting:
        if name not in self.liftings:
            raise InputError(f"unknown modality {name!r}; have {sorted(self.liftings)}")
        return self.liftings[name]

    def arities(self) -> dict[str, int]:
        return {name: lf.arity for name, lf in self.liftings.items()}

    def rows(self) -> list[dict]:
        return [
            {"name": lf.name, "arity": lf.arity, "functor": lf.functor.name, "formula": lf.formula}
            for lf in self.liftings.values()
        ]


def standard_liftings(lat: ResiduatedLattice, functor: Functor,
                      threshold: Fraction = Fraction(1, 2)) -> LiftingRegistry:
    reg = LiftingRegistry()
    for name, arity, formula, kernel in functor.liftings(threshold):
        reg.add(PredicateLifting(name, arity, functor, lat, formula, kernel))
    return reg


def apply_lifting(lifting: PredicateLifting, n: int, args: Sequence,
                  budget: int = 10**6) -> tuple[int, ...]:
    """Tabulate the lifted predicate over all of T(S) for |S| = n."""
    if len(args) != lifting.arity:
        raise InputError(f"{lifting.name} takes {lifting.arity} argument(s), got {len(args)}")
    tables = [tuple(a) for a in args]
    if any(len(t) != n or not all(type(v) is int and 0 <= v < lifting.lat.size for v in t)
           for t in tables):
        raise InputError(f"{lifting.name} arguments must be {n} carrier values below "
                         f"{lifting.lat.size} each")
    F = lifting.functor
    if F.fits(n, budget) is None:
        raise BudgetError(f"T-carrier for {lifting.name} over a {n}-element set", F.size_text(n), budget)
    return tuple(lifting.column(F.elements(n), tables))


# -- mechanical checks ------------------------------------------------------------


def check_naturality(lifting: PredicateLifting, bound: int = 2, budget: int = 10**6) -> ValidationReport:
    """Exhaustively compare both naturality routes for every map between
    carriers of size <= bound and every tuple of codomain predicates.

    Size pairs whose T-carrier exceeds the budget are reported as skipped.
    """
    if bound < 0:
        raise InputError(f"naturality bound must be >= 0, got {bound}")
    lat, F = lifting.lat, lifting.functor
    report = ValidationReport(subject=f"naturality: {lifting.name} over {F.name}/{lat.name}")
    for a in range(bound + 1):
        ta = F.fits(a, budget)
        if ta is None:
            report.skip(f"domains of size {a}: |T(S)|={F.size_text(a)} exceeds budget {budget}")
            continue
        deltas = list(F.elements(a))
        for b in range(bound + 1):
            for f in product(range(b), repeat=a):
                pushed = F.push_forms(deltas, f)
                for hs in product(product(range(lat.size), repeat=b), repeat=lifting.arity):
                    through_args = lifting.column(deltas, [[h[x] for x in f] for h in hs])
                    through_map = lifting.column(pushed, hs)
                    report.checked += ta
                    if through_args != through_map:
                        x = next(i for i in range(ta) if through_args[i] != through_map[i])
                        report.fail(
                            "naturality",
                            (a, b, f, hs, x),
                            f"lift-then-map {lat.label(through_map[x])} != "
                            f"map-args-then-lift {lat.label(through_args[x])} at element {x} of T({a})",
                        )
                        return report
    return report


def _intersection(full: int, cut: dict, family) -> int:
    """Bitmask meet of the cut sets of a family; the empty family gives full."""
    for fv in family:
        full &= cut[fv]
    return full


def check_alpha_preservation(lifting: PredicateLifting, alpha: int, set_bound: int = 2,
                             family_bound: int = 2, g_family_bound: int | None = None,
                             budget: int = 10**6) -> ValidationReport:
    """Bounded certificate that the lifting maps alpha-cut-ordered families to
    alpha-cut-ordered families (unary liftings only).

    F ranges over families of size 0..family_bound (the empty intersection is
    the full domain); G starts at size 1. Base sizes whose T-carrier, or whose
    number of family pairs, exceeds the budget are reported as skipped.
    """
    if lifting.arity != 1:
        raise InputError(f"alpha-preservation is defined for unary liftings; {lifting.name} is {lifting.arity}-ary")
    lat, F = lifting.lat, lifting.functor
    if not 0 <= alpha < lat.size:
        raise InputError(f"alpha {alpha} is outside the carrier 0..{lat.size - 1}")
    g_high = family_bound if g_family_bound is None else g_family_bound
    for what, value in (("set bound", set_bound), ("family bound", family_bound),
                        ("G family bound", g_high)):
        if value < 0:
            raise InputError(f"{what} must be >= 0, got {value}")
    report = ValidationReport(
        subject=f"alpha-preservation: {lifting.name} over {F.name}/{lat.name} at alpha={lat.label(alpha)}")

    for n in range(set_bound + 1):
        tn = F.fits(n, budget)
        if tn is None:
            report.skip(f"base size {n}: |T(S)|={F.size_text(n)} exceeds budget {budget}")
            continue
        m = lat.size ** n
        cases = sum(comb(m, i) for i in range(family_bound + 1)) * sum(
            comb(m, i) for i in range(1, g_high + 1))
        if cases > budget:
            report.skip(f"base size {n}: {cases} family pairs exceed budget {budget}")
            continue
        subsets = list(product(range(lat.size), repeat=n))
        dom_full, lift_full = (1 << n) - 1, (1 << tn) - 1
        dom_cut, lift_cut, forms = {}, {}, list(F.elements(n))
        for fv in subsets:
            dom_cut[fv] = sum(1 << i for i, v in enumerate(fv) if lat.leq(alpha, v))
            table = lifting.column(forms, [fv])
            lift_cut[fv] = sum(1 << t for t, v in enumerate(table) if lat.leq(alpha, v))

        for fsize in range(family_bound + 1):
            for fam_f in combinations(subsets, fsize):
                fi, li = _intersection(dom_full, dom_cut, fam_f), _intersection(lift_full, lift_cut, fam_f)
                for gsize in range(1, g_high + 1):
                    for fam_g in combinations(subsets, gsize):
                        gu = gl = 0
                        for gv in fam_g:
                            gu |= dom_cut[gv]
                            gl |= lift_cut[gv]
                        report.checked += 1
                        if fi & ~gu == 0 and li & ~gl != 0:
                            report.fail(
                                "alpha-preservation",
                                (n, fam_f, fam_g),
                                f"input families are cut-ordered at {lat.label(alpha)} but lifted families are not",
                            )
                            return report
    return report
