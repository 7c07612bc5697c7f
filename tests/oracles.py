"""Exhaustive reference implementations that the fast paths are tested against.

Each oracle recomputes a library result the slow, obvious way, so a test can
compare the two on a shared pool and demand zero disagreements. They import
only public names, and the library's private helpers where the compared
result must share them (the realizer catalog), so that removing a fast path
from the library leaves its oracle standing.
"""
import itertools

from mvmodal import StageTower, StepEvaluator, ValidationReport
from mvmodal import proofkit
from mvmodal.semantics import refutation, stage_columns
from mvmodal.syntax import BIN_OPS, Bin, Const, Modal, Prop, propositions_of


# -- step-n soundness: the assignment sweep ----------------------------------------------


def _fail(report, session, tower, n, name, assigned, t, catalog):
    """Record the first failing assignment of axiom name, as the library does."""
    realizers = {p: catalog.get(tab) for p, tab in assigned.items()} if catalog else {}
    if assigned and catalog is None:
        status = "inconclusive (realization search skipped: table space over cap)"
    elif any(f is None for f in realizers.values()):
        status = "inconclusive (counterexample assignment is not formula-denotable)"
    else:
        status = "refuted"
    shown = {p: session.pretty(realizers[p]) if realizers.get(p) is not None
             else "/".join(session.lat.label(v) for v in tab) for p, tab in assigned.items()}
    report.fail("step-n-consequence", (name, tuple(sorted(shown.items())), t),
                f"{status}; axiom {name!r} fails at {tower.describe(n, t)}"
                + (f" under {shown}" if shown else ""))


def _sound_note(report, n):
    if report.ok:
        report.notes.append(
            f"all stage-{n - 1} truth-function assignments checked; semantic assignments "
            f"subsume syntactic substitutions, so the axiom set is step-{n} sound")
    return report


def first_failure(session, tower, cons, n, assigned):
    """The first stage-n element at which consecution cons fails when each
    proposition p reads the stage-(n-1) table assigned[p]: as its column at
    level n-1 and, composed with gamma_{n-1}, at level n. None if cons holds."""
    gamma = tower.gamma_table(n - 1)
    col = stage_columns(session, tower, cons.formulas(), n,
                        lambda p, k: assigned[p] if k < n else [assigned[p][u] for u in gamma])
    return refutation(session, col, cons.premises, cons.conclusion)


def sweep_soundness(session, axioms, n, tower=None):
    """check_step_n_soundness by sweeping every assignment of every axiom,
    with no stage-1 certificate and no budget check; callers keep it small."""
    tower = tower or StageTower(session)
    report = ValidationReport(subject=f"step-{n} soundness")
    tables = list(itertools.product(range(session.lat.size), repeat=tower.size(n - 1)))
    catalog = False
    for name, cons in axioms.axioms:
        props = sorted(set().union(*map(propositions_of, cons.formulas())))
        for combo in itertools.product(tables, repeat=len(props)):
            assigned = dict(zip(props, combo))
            t = first_failure(session, tower, cons, n, assigned)
            if t is None:
                report.checked += 1
                continue
            if props and catalog is False:
                catalog = proofkit._catalog(session, n - 1, tower)
            _fail(report, session, tower, n, name, assigned, t, catalog)
            break
    return _sound_note(report, n)


class AssignedEvaluator(StepEvaluator):
    """Propositions read their assigned stage-(n-1) tables through encode_full,
    composed with gamma_{n-1} on stage n."""

    def __init__(self, session, tower, n, assigned):
        super().__init__(session)
        self.tower, self.n, self.assigned = tower, n, assigned

    def value(self, phi, k, elem):
        if isinstance(phi, Prop):
            t = self.tower.encode_full(k, elem)
            if k == self.n:
                t = self.tower.gamma_table(self.n - 1)[t]
            return self.assigned[phi.name][t]
        return super().value(phi, k, elem)


def pointwise_catalog(session, level, tower):
    """Table -> first realizing formula on stage `level`: constants,
    propositions and modal formulas evaluated pointwise on the decoded
    elements, then closed under the connectives' tables."""
    size = tower.size(level)
    if session.lat.size ** size > proofkit._REALIZE_CAP:
        return None
    ev = StepEvaluator(session)
    elems = [tower.decode_full(level, t) for t in range(size)]
    catalog = {}

    def add(phi):
        catalog.setdefault(tuple(ev.value(phi, level, e) for e in elems), phi)

    for i in range(session.lat.size):
        add(Const(i))
    for p in session.propositions:
        add(Prop(p))
    if level >= 1:
        below = pointwise_catalog(session, level - 1, tower)
        if below is None:
            return None
        for name, arity in session.registry.arities().items():
            for combo in itertools.product(below.values(), repeat=arity):
                add(Modal(name, combo))
    while True:
        snapshot, before = list(catalog.items()), len(catalog)
        for (ta, fa), (tb, fb), op in itertools.product(snapshot, snapshot, BIN_OPS):
            table = session.tables[op]
            catalog.setdefault(tuple(table[a][b] for a, b in zip(ta, tb)), Bin(op, fa, fb))
        if len(catalog) == before:
            return catalog


def pointwise_soundness(session, axioms, n):
    """check_step_n_soundness element by element on decoded stage elements."""
    tower = StageTower(session)
    lat, top = session.lat, session.lat.top
    report = ValidationReport(subject=f"step-{n} soundness")
    tables = list(itertools.product(range(lat.size), repeat=tower.size(n - 1)))
    catalog = False
    for name, cons in axioms.axioms:
        props = sorted(set().union(*map(propositions_of, cons.formulas())))
        for combo in itertools.product(tables, repeat=len(props)):
            assigned = dict(zip(props, combo))
            ev = AssignedEvaluator(session, tower, n, assigned)
            refuted = [t for t in range(tower.size(n))
                       if all(ev.value(g, n, tower.decode_full(n, t)) == top for g in cons.premises)
                       and ev.value(cons.conclusion, n, tower.decode_full(n, t)) != top]
            if not refuted:
                report.checked += 1
                continue
            if props and catalog is False:
                catalog = pointwise_catalog(session, n - 1, tower)
            _fail(report, session, tower, n, name, assigned, refuted[0], catalog)
            break
    return _sound_note(report, n)
