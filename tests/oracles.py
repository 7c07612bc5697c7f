"""Exhaustive reference implementations that the fast paths are tested against.

Each oracle recomputes a library result the slow, obvious way, so a test can
compare the two on a shared pool and demand zero disagreements. They import
only public names, so that removing a fast path from the library leaves its
oracle standing. The distribution liftings' references compute in
``fractions.Fraction``, term by term as the definitions read, where the
library computes on integers scaled by the lcm of the value denominators.
"""
import itertools
from fractions import Fraction

from mvmodal import StageTower, StepEvaluator, ValidationReport, push_delta
from mvmodal.semantics import refutation, stage_columns
from mvmodal.syntax import Prop, propositions_of


# -- functor actions by unranking ---------------------------------------------------------


def generic_map_table(F, f_table, dom_n, cod_n):
    """T(f) as ids by decoding each element of T(dom_n), pushing it along f
    and encoding the image: the route every Functor.map_table shortcuts."""
    lookup = list(f_table).__getitem__
    return [F.encode(cod_n, push_delta(F.lat, F.decode(dom_n, x), lookup))
            for x in range(F.size(dom_n))]


def enumerated_modal_vectors(F, nodes, m):
    """The value vectors of nodes, (lifting, argument columns) pairs, at every
    element of T(m): the set each Functor.modal_vectors computes."""
    reads = [(lf, [col.__getitem__ for col in cols]) for lf, cols in nodes]
    return {tuple(lf.value_at(d, args) for lf, args in reads) for d in F.elements(m)}


# -- distribution liftings in Fraction arithmetic -----------------------------------------


def expected_truth(lat, delta, argfn) -> Fraction:
    """Exact expected truth value of the argument under a grid distribution."""
    _, pairs, q = delta
    total = Fraction(0)
    for e, c in pairs:
        total += lat.values[argfn(e)] * Fraction(c, q)
    return total


def floor_to_chain(lat, fr: Fraction) -> int:
    """Largest carrier element whose value is <= fr."""
    best = lat.bot
    for i, v in enumerate(lat.values):
        if v <= fr and v >= lat.values[best]:
            best = i
    return best


def prob(lat, delta, argfn) -> int:
    return floor_to_chain(lat, expected_truth(lat, delta, argfn))


def over(lat, threshold: Fraction, delta, argfn) -> int:
    """Join of every alpha whose cut {x : alpha <= f(x)} has mass > threshold."""
    _, pairs, q = delta
    out = lat.bot
    for alpha in range(lat.size):
        mass = Fraction(0)
        for e, c in pairs:
            if lat.leq(alpha, argfn(e)):
                mass += Fraction(c, q)
        if mass > threshold:
            out = lat.join[out][alpha]
    return out


# -- step-n soundness: the assignment sweep ----------------------------------------------


def _sweep(session, tower, axioms, n, first):
    """Every assignment of stage-(n-1) tables to every axiom, in order, with no
    budget check; callers keep it small. first(cons, assigned) is the first
    stage-n element at which cons fails under assigned, or None. A violation
    names the axiom, its first failing assignment and that element."""
    report = ValidationReport(subject=f"step-{n} soundness")
    tables = list(itertools.product(range(session.lat.size), repeat=tower.size(n - 1)))
    for name, cons in axioms.axioms:
        props = sorted(set().union(*map(propositions_of, cons.formulas())))
        for combo in itertools.product(tables, repeat=len(props)):
            assigned = dict(zip(props, combo))
            t = first(cons, assigned)
            if t is not None:
                report.fail("step-n-consequence", (name, tuple(assigned.items()), t),
                            f"axiom {name!r} fails")
                break
            report.checked += 1
    if report.ok:
        report.notes.append(
            f"all stage-{n - 1} truth-function assignments checked; semantic assignments "
            f"subsume syntactic substitutions, so the axiom set is step-{n} sound")
    return report


class AssignedTower:
    """tower, with each proposition p reading the stage-(n-1) table
    assigned[p]: as its column at level n-1 and, composed with gamma_{n-1},
    at level n."""

    def __init__(self, tower, n, assigned):
        self.tower, self.n, self.assigned = tower, n, assigned

    def __getattr__(self, name):
        return getattr(self.tower, name)

    def prop_column(self, k, p):
        if k < self.n:
            return self.assigned[p]
        return [self.assigned[p][u] for u in self.tower.gamma_table(self.n - 1)]


def first_failure(session, tower, cons, n, assigned):
    """The first stage-n element at which consecution cons fails under the
    assignment assigned (see AssignedTower); None if cons holds."""
    col = stage_columns(session, AssignedTower(tower, n, assigned), cons.formulas(), n)
    return refutation(session, col, cons.premises, cons.conclusion)


def sweep_soundness(session, axioms, n, tower=None):
    """Step-n soundness by sweeping the assignments over value columns."""
    tower = tower or StageTower(session)
    return _sweep(session, tower, axioms, n,
                  lambda cons, assigned: first_failure(session, tower, cons, n, assigned))


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


def pointwise_soundness(session, axioms, n):
    """Step-n soundness by sweeping the assignments element by element on
    decoded stage elements."""
    tower = StageTower(session)
    top = session.lat.top

    def first(cons, assigned):
        ev = AssignedEvaluator(session, tower, n, assigned)
        for t in range(tower.size(n)):
            elem = tower.decode_full(n, t)
            if all(ev.value(g, n, elem) == top for g in cons.premises) \
                    and ev.value(cons.conclusion, n, elem) != top:
                return t
        return None

    return _sweep(session, tower, axioms, n, first)
