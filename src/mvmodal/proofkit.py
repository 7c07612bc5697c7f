"""Consecutions, stratified derivation checking, and soundness certification.

The base oracle decides propositional-surrogate consequence by brute force
over the finite algebra, which soundness and completeness of the underlying
propositional calculus make extensionally correct. Derivations are finite
trees whose nodes cite that oracle, a rank-1 modal axiom under substitution,
or a one-premise-set modal lifting step; the checker replays every node,
optionally enforcing the stratum discipline. Step-n soundness of an axiom set
is decided semantically, one axiom at a time, by one call of the realized-type
decider on stage n. Naturality of the liftings carries a "yes" to every
assignment of stage-(n-1) truth functions to the axiom's propositions, and a
"no" is a refutation under the assignment p -> p, which every formula p
realizes, at the decider's witness.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .decision import consequence
from .lifting import check_alpha_preservation
from .report import BudgetError, InputError, ValidationReport, read_json
from .semantics import StageTower, local_nodes, refutation, tabulate
from .session import Session
from .syntax import Formula, Modal, Prop, propositions_of, rank, substitute

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


def check_step_n_soundness(session: Session, axioms: ModalAxiomSet, n: int,
                           tower: StageTower | None = None) -> ValidationReport:
    """Step-n soundness: every assignment of stage-(n-1) truth functions to an
    axiom's propositions makes it a stage-n consequence.

    Each axiom is decided once, as a plain stage-n consequence, by the
    realized-type decider; a rank-1 axiom has stage 1's realized types at
    every n >= 1. A yes holds under every assignment h: by naturality of the
    liftings, the axiom takes the same values at t as at the stage-1 element
    (h(gamma(t)), T(h) of t's T-component). It counts the (|A|^|stage n-1|)^k
    assignments, or, with a note, one case when sweeping them would be over
    budget. A no is a refutation under p -> p, which gives each proposition
    its own column and so the axiom its plain stage-n values, at the
    decider's witness: the first stage-n element where the axiom fails.
    """
    if n < 1:
        raise InputError("step-n soundness needs n >= 1")
    tower = tower or StageTower(session)
    report = ValidationReport(subject=f"step-{n} soundness")
    prev_size = tower.size(n - 1)
    stage_size = tower.size(n)

    for name, cons in axioms.axioms:
        props = sorted(set().union(*map(propositions_of, cons.formulas())))
        verdict = consequence(session, cons.premises, cons.conclusion, n, tower)
        if not verdict.answer:
            shown = {p: p for p in props}
            report.fail("step-n-consequence",
                        (name, tuple(shown.items()), verdict.witness["element"]),
                        f"refuted; axiom {name!r} fails at {verdict.witness['description']}"
                        + (f" under {shown}" if shown else ""))
            continue
        space = (session.lat.size ** prev_size) ** len(props)
        if space * stage_size > session.budget:  # such a count may be too long to print
            report.checked += 1
            report.notes.append(
                f"axiom {name!r} certified on stage 1, not swept: its "
                f"({session.lat.size}^{prev_size})^{len(props)} assignments are over budget")
        else:
            report.checked += space
    if report.ok:  # its only notes so far say which axioms were not swept
        how = "checked, some by the stage-1 certificate alone" if report.notes else "checked"
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
