"""Validity, satisfiability, and finite consequence on stage rank(phi).

A rank-n formula observes stage n only through the values of its own
subformulas, so the deciders compute the *realized types* of stage n (the
value vectors its elements give the formulas) level by level instead of
sweeping the stage. Level 0 types are read off the valuations. At level k,
propositions depend only on the valuation and modal nodes only on the
T-component; by naturality of the liftings, and because T preserves the
surjection from stage k-1 onto its realized types, the modal value vectors
over T(stage k-1) are exactly those over T(types at level k-1). Each pair of
a proposition vector and a modal vector is one point of the column step
(``semantics.tabulate``), which reads the connectives off the session's
tables. Every count is exact, and the enumeration of T(types) stops as soon
as every possible modal vector has appeared.

The answer comes from the top-level types alone, so affirmative validity and
consequence, and negative satisfiability, never touch stage n and are
decided even when stage n is over budget. A negative validity or
consequence, or a positive satisfiability, needs a witness: the first
element of stage n in id order that realizes the deciding type, found by
sweeping the stage, so an over-budget stage with such an answer is still
refused. A satisfiability witness is re-checked through the model evaluator
on the part of the canonical stage-n model it generates, so every "yes" comes
with a concrete finite model.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from itertools import product
from typing import Callable, Sequence

from .functors import push_delta
from .report import BudgetError, InputError
from .semantics import StageTower, StepEvaluator, TModel, eval_model, level_plan, tabulate
from .session import Session
from .syntax import Formula, Modal, Prop, rank, subformulas

__all__ = ["Verdict", "validity", "consequence", "satisfiable", "lemma2_model"]


@dataclass
class Verdict:
    """Decision outcome; the witness decodes the refuting/satisfying element."""

    answer: bool
    mode: str
    stage: int
    witness: dict | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _resolve_stage(formulas: Sequence[Formula], n: int | None) -> int:
    need = max((rank(f) for f in formulas), default=0)
    if n is None:
        return need
    if n < need:
        raise InputError(f"stage {n} is below the required rank {need}")
    return n


# -- realized types ----------------------------------------------------------------


def _modal_vectors(session: Session, modals: list[Modal], below: list[Formula],
                   types: list[tuple], k: int) -> list[tuple]:
    """Distinct value vectors of the level-k modal nodes over T(types at level k-1)."""
    F = session.functor
    m = len(types)
    size = F.fits(m, session.budget)
    if size is None:
        raise BudgetError(f"T(realized types at level {k - 1})", F.size_text(m), session.budget)
    column = {f: tuple(t[i] for t in types).__getitem__ for i, f in enumerate(below)}
    reads = [(session.registry.get(M.name), [column[a] for a in M.args]) for M in modals]
    every = session.lat.size ** len(modals)
    out: set[tuple] = set()
    for x in range(size):
        d = F.decode(m, x)
        out.add(tuple(lf.value_at(d, args) for lf, args in reads))
        if len(out) == every:
            break
    return sorted(out)


def _realized_types(session: Session, formulas: Sequence[Formula], n: int) -> set[tuple]:
    """The value vectors of `formulas` over the elements of stage n, exactly.

    Level n evaluates the formulas; level k-1 evaluates the arguments of the
    modal nodes that level k reaches without crossing a modality.
    """
    lat = session.lat
    levels = level_plan(formulas)
    bottom = n - len(levels) + 1  # >= 0, since n >= rank

    types: list[tuple] = []
    below: list[Formula] = []
    for k, (roots, nodes, modals) in enumerate(reversed(levels), start=bottom):
        props = sorted({f.name for f in nodes if isinstance(f, Prop)})
        # valuations range over all of Hom(P, A), so every prop vector occurs
        prop_vecs = list(product(range(lat.size), repeat=len(props)))
        modal_vecs = _modal_vectors(session, modals, below, types, k) if modals else [()]
        if len(prop_vecs) * len(modal_vecs) > session.budget:
            raise BudgetError(f"realized types at level {k}",
                              f"{len(prop_vecs)}*{len(modal_vecs)}", session.budget)
        pairs = [(pv, mv) for pv in prop_vecs for mv in modal_vecs]

        def leaf(f: Formula) -> list[int]:
            if isinstance(f, Prop):
                i = props.index(f.name)
                return [pv[i] for pv, _ in pairs]
            i = modals.index(f)
            return [mv[i] for _, mv in pairs]

        col = tabulate(session, roots, len(pairs), leaf)
        types = sorted(set(zip(*(col[f] for f in roots))))
        below = roots
    index = {f: i for i, f in enumerate(below)}
    return {tuple(t[index[f]] for f in formulas) for t in types}


# -- witnesses -----------------------------------------------------------------------


def _witness(session: Session, tower: StageTower, n: int, formulas: Sequence[Formula],
             holds: Callable[[Callable[[Formula], int]], bool]) -> dict | None:
    """The first element of stage n, in id order, on which holds(value) is
    true, decoded with the values of every subformula of formulas.

    None when no realized type satisfies holds; stage n is then never built.
    """
    types = _realized_types(session, formulas, n)
    if not any(holds(dict(zip(formulas, v)).__getitem__) for v in types):
        return None
    ev = StepEvaluator(session)
    for t in range(tower.size(n)):
        elem = tower.decode_full(n, t)
        if holds(lambda f: ev.value(f, n, elem)):
            values: dict[str, str] = {}
            for f in formulas:
                for sub in subformulas(f):
                    values[session.pretty(sub)] = session.lat.label(ev.value(sub, n, elem))
            return {
                "stage": n,
                "element": t,
                "description": tower.describe(n, t),
                "values": dict(sorted(values.items())),
            }
    raise RuntimeError(
        f"internal coherence failure: a realized type at stage {n} has no stage element"
    )


def validity(session: Session, phi: Formula, n: int | None = None,
             tower: StageTower | None = None) -> Verdict:
    """Top everywhere on stage rank(phi): consequence from no premises."""
    return replace(consequence(session, [], phi, n, tower), mode="valid")


def consequence(session: Session, premises: Sequence[Formula], phi: Formula,
                n: int | None = None, tower: StageTower | None = None) -> Verdict:
    """Every stage element making all premises top makes the conclusion top."""
    premises = list(premises)
    for f in (*premises, phi):
        session.validate_formula(f)
    n = _resolve_stage([*premises, phi], n)
    top = session.lat.top
    witness = _witness(session, tower or StageTower(session), n, [*premises, phi],
                       lambda val: all(val(g) == top for g in premises) and val(phi) != top)
    return Verdict(witness is None, "consequence", n, witness)


def _canonical_sigma(session: Session, tower: StageTower, n: int) -> Callable[[int], object]:
    """Transition of state t of the canonical stage-n model: the section into
    stage n+1 with leaves renamed to stage-n ids."""
    if n == 0:
        form0 = session.functor.decode(tower.size(0), tower.iota0_id())
        return lambda t: form0
    up = tower.iota_table(n - 1)
    return lambda t: push_delta(session.lat, tower.decode1(n, t)[1], up.__getitem__)


def lemma2_model(session: Session, n: int, tower: StageTower | None = None) -> TModel:
    """The canonical model on stage n: valuation reads the first component,
    transitions are the section into stage n+1 with leaves renamed to state ids.

    Function-table transitions keep their stage-level index domain, so these
    models evaluate fine but do not serialize through model_to_dict.
    """
    tower = tower or StageTower(session)
    size = tower.size(n)
    valuation = tuple(session.valuations.decode(tower.decode1(n, t)[0]) for t in range(size))
    sigma = _canonical_sigma(session, tower, n)
    return TModel(valuation, tuple(sigma(t) for t in range(size)))


def _generated_model(session: Session, tower: StageTower, n: int, root: int) -> TModel:
    """The sub-coalgebra of lemma2_model(n) generated by state root, renumbered
    in discovery order with root as state 0."""
    sigma_of = _canonical_sigma(session, tower, n)
    ids = {root: 0}
    order = [root]

    def rename(t: int) -> int:
        if t not in ids:
            ids[t] = len(order)
            order.append(t)
        return ids[t]

    sigma = []
    for t in order:  # grows while it is walked
        sigma.append(push_delta(session.lat, sigma_of(t), rename))
    valuation = tuple(session.valuations.decode(tower.decode1(n, t)[0]) for t in order)
    return TModel(valuation, tuple(sigma))


def satisfiable(session: Session, phi: Formula, n: int | None = None,
                tower: StageTower | None = None) -> Verdict:
    """Some element of stage rank(phi) gives top; the witness is a state of the
    canonical model, cross-checked through the model evaluator."""
    session.validate_formula(phi)
    n = _resolve_stage([phi], n)
    top = session.lat.top
    tower = tower or StageTower(session)
    witness = _witness(session, tower, n, [phi], lambda val: val(phi) == top)
    if witness is None:
        return Verdict(False, "satisfiable", n)
    t = witness["element"]
    model_val = eval_model(session, _generated_model(session, tower, n, t), phi)[0]
    if model_val != top:
        raise RuntimeError(
            f"internal coherence failure: stage witness {t} evaluates to "
            f"{session.lat.label(model_val)} on the canonical model"
        )
    return Verdict(True, "satisfiable", n, witness)
