"""Consecutions, stratified derivation checking, and soundness certification.

The base oracle decides propositional-surrogate consequence by brute force
over the finite algebra, which soundness and completeness of the underlying
propositional calculus make extensionally correct. Derivations are finite
trees whose nodes cite that oracle, a rank-1 modal axiom under substitution,
or a one-premise-set modal lifting step; the checker replays every node,
optionally enforcing the stratum discipline. Step-n soundness of an axiom set
is certified semantically, one axiom at a time: once on stage 1 through the
realized-type decider, which covers every assignment of stage-(n-1) truth
functions to the axiom's propositions at every n >= 1 at once, and by
sweeping those assignments only for an axiom that fails the certificate.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .decision import consequence
from .lifting import check_alpha_preservation
from .report import BudgetError, InputError, ValidationReport, read_json
from .semantics import StageTower, local_nodes, refutation, stage_columns, tabulate
from .session import Session
from .syntax import BIN_OPS, Bin, Const, Formula, Modal, Prop, propositions_of, rank, substitute

__all__ = [
    "Consecution",
    "ModalAxiomSet",
    "load_axiom_set",
    "DerivationNode",
    "load_derivation",
    "decide_ax_a",
    "check_derivation",
    "check_step_n_soundness",
    "one_step_soundness_report",
]


@dataclass(frozen=True)
class Consecution:
    premises: tuple[Formula, ...]
    conclusion: Formula

    def formulas(self) -> tuple[Formula, ...]:
        return (*self.premises, self.conclusion)

    def pretty(self, session: Session) -> str:
        left = ", ".join(session.pretty(g) for g in self.premises)
        return f"{left} |- {session.pretty(self.conclusion)}"


@dataclass(frozen=True)
class ModalAxiomSet:
    """Named rank-1 consecutions acting as modal axiom schemes."""

    axioms: tuple[tuple[str, Consecution], ...]

    def __post_init__(self):
        names = [name for name, _ in self.axioms]
        if len(set(names)) != len(names):
            raise InputError("duplicate axiom names")
        for name, c in self.axioms:
            bad = [f for f in c.formulas() if rank(f) > 1]
            if bad:
                raise InputError(f"axiom {name!r} leaves the rank-1 fragment")

    def get(self, name: str) -> Consecution:
        for key, c in self.axioms:
            if key == name:
                return c
        raise InputError(f"unknown axiom {name!r}")


def _consecution(session: Session, entry, where: str) -> Consecution:
    """The premises (a list of formula strings, default none) and the
    conclusion (a formula string) of an axiom entry or derivation node."""
    if not isinstance(entry, dict):
        raise InputError(f"{where}: expected a JSON object")
    premises, conclusion = entry.get("premises", []), entry.get("conclusion")
    if not isinstance(premises, list) or not all(isinstance(t, str) for t in premises):
        raise InputError(f"{where}: premises must be a list of formula strings, got {premises!r}")
    if not isinstance(conclusion, str):
        raise InputError(f"{where}: conclusion must be a formula string, got {conclusion!r}")
    return Consecution(tuple(map(session.parse, premises)), session.parse(conclusion))


def _name(entry: dict, key: str, where: str) -> str:
    if not isinstance(entry.get(key), str):
        raise InputError(f"{where}: {key} must be a string, got {entry.get(key)!r}")
    return entry[key]


def load_axiom_set(session: Session, source) -> ModalAxiomSet:
    """JSON list of {"name", "premises": [formula], "conclusion": formula}."""
    data = read_json(source)
    if not isinstance(data, list):
        raise InputError("axiom set must be a JSON list")
    axioms = []
    for i, entry in enumerate(data):
        cons = _consecution(session, entry, f"axiom #{i}")
        axioms.append((_name(entry, "name", f"axiom #{i}"), cons))
    return ModalAxiomSet(tuple(axioms))


# -- the propositional-surrogate oracle ----------------------------------------------


_SLICE = 4096  # most surrogate assignments tabulated at once, which bounds memory
_REALIZE_CAP = 4096  # largest truth-table space the realizer catalog closes over


def decide_ax_a(session: Session, premises, conclusion: Formula) -> bool:
    """Brute-force consequence with propositions and maximal modal
    subformulas frozen into variables (the atoms). The assignments are
    tabulated in slices that fix the leading atoms and range over the rest."""
    premises = tuple(premises)
    roots = (*premises, conclusion)
    for f in roots:
        session.validate_formula(f)
    atoms = [f for f in local_nodes(roots) if isinstance(f, (Prop, Modal))]
    size = session.lat.size
    if len(atoms) and size ** len(atoms) > session.budget:
        raise BudgetError("surrogate assignment space", f"{size}^{len(atoms)}", session.budget)
    tail = 0
    while tail < len(atoms) and size ** (tail + 1) <= _SLICE:
        tail += 1
    lead = len(atoms) - tail
    rows = list(itertools.product(range(size), repeat=tail))
    trailing = {f: tuple(r[i] for r in rows) for i, f in enumerate(atoms[lead:])}
    for fixed in itertools.product(range(size), repeat=lead):
        col = tabulate(session, roots, len(rows), trailing.__getitem__,
                       {f: (v,) * len(rows) for f, v in zip(atoms, fixed)})
        if refutation(session, col, premises, conclusion) is not None:
            return False
    return True


# -- derivation trees -----------------------------------------------------------------


@dataclass(frozen=True)
class DerivationNode:
    rule: str  # "axa" | "axlambda" | "modal"
    consecution: Consecution
    axiom: str | None = None
    substitution: tuple[tuple[str, Formula], ...] = ()
    lifting: str | None = None
    child: "DerivationNode | None" = None


def load_derivation(session: Session, source) -> DerivationNode:
    """Nested JSON nodes: every node carries premises/conclusion plus its rule
    fields (axlambda: axiom + substitution; modal: lifting + child)."""

    def build(node, path: str) -> DerivationNode:
        cons = _consecution(session, node, path)
        rule = node.get("rule")
        if rule not in ("axa", "axlambda", "modal"):
            raise InputError(f"{path}: unknown rule {rule!r}")
        if rule == "axa":
            return DerivationNode("axa", cons)
        if rule == "axlambda":
            subst = node.get("substitution", {})
            if not isinstance(subst, dict) or not all(
                    isinstance(p, str) and isinstance(t, str) for p, t in subst.items()):
                raise InputError(f"{path}: substitution must map names to formula strings, "
                                 f"got {subst!r}")
            return DerivationNode("axlambda", cons, axiom=_name(node, "axiom", path),
                                  substitution=tuple(sorted((p, session.parse(t))
                                                            for p, t in subst.items())))
        if "child" not in node:
            raise InputError(f"{path}: modal node needs a child")
        return DerivationNode("modal", cons, lifting=_name(node, "lifting", path),
                              child=build(node["child"], path + ".child"))

    return build(read_json(source), "root")


def check_derivation(session: Session, tree: DerivationNode,
                     axioms: ModalAxiomSet | None = None,
                     n: int | None = None) -> ValidationReport:
    """Replay a derivation tree; with n given, enforce the stratum discipline
    (stratum 0 admits only base-oracle nodes, substitutions at stratum n are
    (n-1)-substitutions, lifting steps descend one stratum)."""
    if n is not None and n < 0:
        raise InputError(f"derivation stratum must be >= 0, got {n}")
    report = ValidationReport(subject="derivation" if n is None else f"derivation at stratum {n}")

    def visit(node: DerivationNode, path: str, stratum: int | None) -> None:
        report.checked += 1
        cons = node.consecution
        if stratum is not None:
            if stratum < 0:
                report.fail("stratum", path, "lifting step descends below stratum 0")
                return
            deep = [f for f in cons.formulas() if rank(f) > stratum]
            if deep:
                report.fail("stratum", path,
                            f"formula {session.pretty(deep[0])} has rank {rank(deep[0])} > {stratum}")
        if node.rule == "axa":
            if not decide_ax_a(session, cons.premises, cons.conclusion):
                report.fail("base-oracle", path,
                            f"not a surrogate-level consequence: {cons.pretty(session)}")
            return
        if stratum == 0:
            report.fail("stratum", path, f"rule {node.rule!r} is not available at stratum 0")
            return
        if node.rule == "axlambda":
            if axioms is None:
                report.fail("axiom-citation", path, "no axiom set supplied")
                return
            try:
                scheme = axioms.get(node.axiom)
            except InputError as exc:
                report.fail("axiom-citation", path, str(exc))
                return
            used = set().union(*map(propositions_of, scheme.formulas()))
            rho = {p: f for p, f in node.substitution if p in used}
            if stratum is not None:
                limit = stratum - 1
                deep = [(p, f) for p, f in sorted(rho.items(), key=lambda kv: kv[0])
                        if rank(f) > limit]
                if deep:
                    p, f = deep[0]
                    report.fail("substitution-rank", path,
                                f"image of {p} has rank {rank(f)} > {limit}")
            want = Consecution(tuple(substitute(g, rho) for g in scheme.premises),
                               substitute(scheme.conclusion, rho))
            if frozenset(want.premises) != frozenset(cons.premises) \
                    or want.conclusion != cons.conclusion:
                report.fail("instance-shape", path,
                            f"conclusion is not the {node.axiom!r} instance "
                            f"{want.pretty(session)}")
            return
        # modal lifting step
        try:
            lf = session.registry.get(node.lifting)
        except InputError as exc:
            report.fail("lifting-citation", path, str(exc))
            return
        if lf.arity != 1:
            report.fail("lifting-arity", path,
                        f"lifting step needs a unary lifting, {node.lifting!r} has arity {lf.arity}")
            return
        child = node.child
        want_prem = frozenset(Modal(node.lifting, (g,)) for g in child.consecution.premises)
        want_conc = Modal(node.lifting, (child.consecution.conclusion,))
        if frozenset(cons.premises) != want_prem or cons.conclusion != want_conc:
            report.fail("rule-shape", path,
                        "conclusion is not the lifted image of the child consecution")
        visit(child, path + ".child", None if stratum is None else stratum - 1)

    visit(tree, "root", n)
    return report


# -- step-n soundness --------------------------------------------------------------------


def _catalog(session: Session, level: int, tower: StageTower) -> dict | None:
    """All truth functions on stage `level` denotable by formulas, as a map
    table -> formula; None when the table space exceeds _REALIZE_CAP. The
    closure saturates, so absence from the catalog is absence of a realizer."""
    size = tower.size(level)
    if session.lat.size ** size > _REALIZE_CAP:
        return None
    catalog: dict[tuple[int, ...], Formula] = {}
    base = [Const(i) for i in range(session.lat.size)] + [Prop(p) for p in session.propositions]
    col = stage_columns(session, tower, base, level)
    for f in base:
        catalog.setdefault(col[f], f)
    if level >= 1:
        below = _catalog(session, level - 1, tower)
        if below is None:
            return None
        for name, arity in session.registry.arities().items():
            for combo in itertools.product(below.items(), repeat=arity):
                tab = tuple(tower.lift(level, name, [t for t, _ in combo]))
                if tab not in catalog:
                    catalog[tab] = Modal(name, tuple(f for _, f in combo))
    while True:
        snapshot = list(catalog.items())
        before = len(catalog)
        for (ta, fa), (tb, fb), op in itertools.product(snapshot, snapshot, BIN_OPS):
            table = session.tables[op]
            tab = tuple(table[a][b] for a, b in zip(ta, tb))
            if tab not in catalog:
                catalog[tab] = Bin(op, fa, fb)
        if len(catalog) == before:
            return catalog


def check_step_n_soundness(session: Session, axioms: ModalAxiomSet, n: int,
                           tower: StageTower | None = None) -> ValidationReport:
    """Step-n soundness: every assignment of stage-(n-1) truth functions to an
    axiom's propositions makes it a stage-n consequence.

    Each axiom is first certified on stage 1 by the realized-type decider. By
    naturality of the liftings, every formula of the axiom takes the same
    value at a stage-n element t under an assignment h as at the stage-1
    element whose valuation is h(gamma(t)) and whose T-component is T(h)
    applied to t's, so a stage-1 consequence holds under every assignment at
    every n >= 1. A certified axiom counts its (|A|^|stage n-1|)^k
    assignments as checked; when sweeping them would be over budget it counts
    the one certificate instead, and a note says it was not swept.

    An axiom that fails the certificate is swept: every assignment, in order,
    until the first at which the stage-n consequence fails. An assigned table
    is a proposition's column at level n-1 (inside a modality) and, composed
    with gamma_{n-1}, at level n. The failing assignment is reported as
    refuted when every assigned truth function is realized by an actual
    formula, since semantic assignments subsume denotations of syntactic
    substitutions, and as inconclusive otherwise. At n = 1 the propositions
    realize themselves, so a failed certificate whose sweep is over budget is
    reported as refuted under p -> p at the certificate's witness, which is
    the first failing stage-1 element under that assignment.
    """
    if n < 1:
        raise InputError("step-n soundness needs n >= 1")
    tower = tower or StageTower(session)
    report = ValidationReport(subject=f"step-{n} soundness")
    prev_size = tower.size(n - 1)
    stage_size = tower.size(n)
    gamma = None
    catalog: dict | None | bool = False  # False = not yet computed
    unswept = False

    for name, cons in axioms.axioms:
        props = sorted(set().union(*map(propositions_of, cons.formulas())))
        space = (session.lat.size ** prev_size) ** len(props)
        over = space * stage_size > session.budget
        try:
            verdict = consequence(session, cons.premises, cons.conclusion, 1, tower)
        except BudgetError:  # the sweep decides, or refuses
            verdict = None
        if verdict is not None and verdict.answer:
            report.checked += 1 if over else space
            if over:
                unswept = True
                report.notes.append(
                    f"axiom {name!r} certified on stage 1, not swept: its "
                    f"({session.lat.size}^{prev_size})^{len(props)} assignments are over budget")
            continue
        if over and n == 1 and verdict is not None:  # over budget, so props is not empty
            shown = {p: p for p in props}
            report.fail("step-n-consequence",
                        (name, tuple(sorted(shown.items())), verdict.witness["element"]),
                        f"refuted; axiom {name!r} fails at {verdict.witness['description']}"
                        f" under {shown}")
            continue
        if over:
            raise BudgetError(f"assignment sweep for axiom {name!r}",
                              f"({session.lat.size}^{prev_size})^{len(props)}*{stage_size}",
                              session.budget)
        tables = list(itertools.product(range(session.lat.size), repeat=prev_size)) if props else []
        for combo in itertools.product(tables, repeat=len(props)):
            assigned = dict(zip(props, combo))

            def prop(pname: str, k: int) -> Sequence[int]:
                nonlocal gamma
                if k < n:
                    return assigned[pname]
                if gamma is None:
                    gamma = tower.gamma_table(n - 1)
                return [assigned[pname][u] for u in gamma]

            col = stage_columns(session, tower, cons.formulas(), n, prop)
            t = refutation(session, col, cons.premises, cons.conclusion)
            if t is None:
                report.checked += 1
                continue
            if props and catalog is False:
                catalog = _catalog(session, n - 1, tower)
            realizers = {p: catalog.get(tab) for p, tab in assigned.items()} if catalog else {}
            if props and catalog is None:
                status = "inconclusive (realization search skipped: table space over cap)"
            elif None in realizers.values():
                status = "inconclusive (counterexample assignment is not formula-denotable)"
            else:
                status = "refuted"
            shown = {p: session.pretty(realizers[p]) if realizers.get(p) is not None
                     else "/".join(session.lat.label(v) for v in tab)
                     for p, tab in assigned.items()}
            report.fail(
                "step-n-consequence",
                (name, tuple(sorted(shown.items())), t),
                f"{status}; axiom {name!r} fails at {tower.describe(n, t)}"
                + (f" under {shown}" if shown else ""),
            )
            break  # first failing assignment per axiom is enough
    if report.ok:
        how = "checked, some by the stage-1 certificate alone" if unswept else "checked"
        report.notes.append(
            f"all stage-{n - 1} truth-function assignments {how}; semantic assignments "
            f"subsume syntactic substitutions, so the axiom set is step-{n} sound"
        )
    return report


def one_step_soundness_report(session: Session, axioms: ModalAxiomSet,
                              liftings_used, n: int,
                              tower: StageTower | None = None,
                              set_bound: int = 2, family_bound: int = 2) -> ValidationReport:
    """Premise check for transferring soundness up one stage: the axiom set is
    step-n sound and every used lifting preserves the top cut on singleton
    right-hand families."""
    report = ValidationReport(subject=f"one-step soundness premises at n={n}")
    report.merge(check_step_n_soundness(session, axioms, n, tower))
    for name in liftings_used:
        lf = session.registry.get(name)
        sub = check_alpha_preservation(lf, session.lat.top, set_bound=set_bound,
                                       family_bound=family_bound, g_family_bound=1,
                                       budget=session.budget)
        report.merge(sub)
    if report.ok:
        report.notes.append(
            "step-n soundness plus top-cut preservation of the used liftings "
            "transfers soundness from stage n-1 to stage n at the checked bounds"
        )
    return report
