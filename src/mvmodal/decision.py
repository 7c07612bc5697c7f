"""Validity, satisfiability, and finite consequence on stage rank(phi).

A rank-n formula observes stage n only through the values of its own
subformulas, so the deciders compute the *realized types* of stage n (the
value vectors its elements give the formulas) level by level instead of
sweeping the stage. Level 0 types are read off the valuations. At level k,
propositions depend only on the valuation and modal nodes only on the
T-component; by naturality of the liftings, and because T preserves the
surjection from stage k-1 onto its realized types, the modal value vectors
over T(stage k-1) are exactly those over T(types at level k-1). The functor
computes that set from its one-step structure (``Functor.modal_vectors``):
the closures fold the types in one at a time, so only the set of vectors,
never T(types), has to fit the budget. Each pair of a proposition vector and
a modal vector is one point of the column step (``semantics.tabulate``),
which reads the connectives off the session's tables. Every count is exact.

The answer comes from the top-level types alone, so affirmative validity and
consequence, and negative satisfiability, never touch stage n and are
decided even when stage n is over budget. A negative validity or
consequence, or a positive satisfiability, needs a witness: the first
element of stage n in id order that realizes a deciding type. Stage ids are
valuation-major, so that is the first valuation that starts such a type with
the first T-component over stage n-1 that completes it, read off the
stage-(n-1) columns of the modal arguments; stage n must still fit the
budget. A satisfiability witness is re-checked through the model evaluator
on the part of the canonical stage-n model it generates, so every "yes"
comes with a concrete finite model.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Callable, Sequence

from .report import BudgetError, InputError
from .semantics import StageTower, TModel, eval_model, level_plan, stage_columns, tabulate
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
        """dataclasses.asdict without its recursive deep copy: a witness holds
        ints, strings and a dict of strings, so copying its dicts suffices."""
        w = self.witness
        if w is not None:
            w = {k: dict(v) if isinstance(v, dict) else v for k, v in w.items()}
        return {"answer": self.answer, "mode": self.mode, "stage": self.stage, "witness": w}


def _resolve_stage(formulas: Sequence[Formula], n: int | None) -> int:
    need = max((rank(f) for f in formulas), default=0)
    if n is None:
        return need
    if n < need:
        raise InputError(f"stage {n} is below the required rank {need}")
    return n


# -- realized types ----------------------------------------------------------------


def _lifted(session: Session, modals: list[Modal], column: dict, m: int):
    """Each element of T(m), in id order, with the value vector of modals
    there; column[a] holds argument a's values over the m base elements."""
    nodes = [(session.registry.get(M.name).column, [column[a] for a in M.args]) for M in modals]
    for d in session.functor.elements(m):
        one = (d,)
        yield d, tuple(lift(one, cols)[0] for lift, cols in nodes)


def _modal_vectors(session: Session, modals: list[Modal], below: list[Formula],
                   types: list[tuple], k: int) -> list[tuple]:
    """Distinct value vectors of the level-k modal nodes over T(types at level k-1)."""
    column = {f: tuple(t[i] for t in types) for i, f in enumerate(below)}
    nodes = [(session.registry.get(M.name), [column[a] for a in M.args]) for M in modals]
    return sorted(session.functor.modal_vectors(nodes, len(types), session.budget, k))


def _realized_types(session: Session, formulas: Sequence[Formula], n: int
                    ) -> tuple[list[str], list[Modal], dict[tuple, tuple]]:
    """The realized types of stage n, exactly: the level-n proposition names
    and modal nodes, and each realized (proposition vector, modal vector) pair
    with the values of formulas there. Level n evaluates the formulas; level
    k-1 the arguments of the modal nodes that level k reaches directly."""
    levels = level_plan(formulas)
    bottom = n - len(levels) + 1  # >= 0, since n >= rank

    types: list[tuple] = []
    below: list[Formula] = []
    for k, (roots, nodes, modals) in enumerate(reversed(levels), start=bottom):
        props = sorted({f.name for f in nodes if isinstance(f, Prop)})
        # valuations range over all of Hom(P, A), so every prop vector occurs
        prop_vecs = list(product(range(session.lat.size), repeat=len(props)))
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
    return props, modals, dict(zip(pairs, zip(*(col[f] for f in formulas))))


# -- witnesses -----------------------------------------------------------------------


def _witness(session: Session, tower: StageTower, n: int, formulas: Sequence[Formula],
             holds: Callable[[Callable[[Formula], int]], bool]) -> dict | None:
    """The first element of stage n, in id order, on which holds(value) is
    true, with the values there of every subformula of formulas; None when
    no realized type satisfies holds, and stage n is then never sized."""
    props, modals, types = _realized_types(session, formulas, n)
    sat = {v for v in set(types.values()) if holds(dict(zip(formulas, v)).__getitem__)}
    good = {pair for pair, v in types.items() if v in sat}
    if not good:
        return None
    vals, pidx = session.valuations, {p: i for i, p in enumerate(session.propositions)}
    step = tower.size(n) // vals.size  # |T(stage n-1)|; 1 at stage 0
    subs = list(dict.fromkeys(g for f in formulas for g in subformulas(f)))
    args = [a for g in subs if isinstance(g, Modal) for a in g.args]
    below = stage_columns(session, tower, args, n - 1) if modals else {}
    lifted = _lifted(session, modals, below, tower.size(n - 1)) if modals else [(None, ())]
    starts = {pv for pv, _ in good}
    vecs = (tuple(vals.value(nu, pidx[p]) for p in props) for nu in range(vals.size))
    try:
        nu, pv = next((nu, pv) for nu, pv in enumerate(vecs) if pv in starts)
        x, d = next((x, d) for x, (d, mv) in enumerate(lifted) if (pv, mv) in good)
    except StopIteration:
        raise RuntimeError(f"internal coherence failure: a realized type at stage {n} "
                           "has no stage element") from None

    def leaf(f: Formula) -> list[int]:
        if isinstance(f, Prop):
            return [vals.value(nu, pidx[f.name])]
        return session.registry.get(f.name).column((d,), [below[a] for a in f.args])

    col = tabulate(session, subs, 1, leaf)
    t = nu * step + x
    values = sorted((session.pretty(f), session.lat.label(col[f][0])) for f in subs)
    return {"stage": n, "element": t, "description": tower.describe(n, t), "values": dict(values)}


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
    F, up = session.functor, tower.iota_table(n - 1)
    return lambda t: F.push_forms([tower.decode1(n, t)[1]], up)[0]


def lemma2_model(session: Session, n: int, tower: StageTower | None = None) -> TModel:
    """The canonical model on stage n: valuation reads the first component,
    transitions are the section into stage n+1 with leaves renamed to state ids.

    Function-table transitions keep their stage-level index domain, so these
    models evaluate fine but do not serialize through model_to_dict.
    """
    tower, vals = tower or StageTower(session), session.valuations
    step = tower.size(n) // vals.size  # state nu * step + d has T-component d
    valuation = tuple(vals.decode(nu) for nu in range(vals.size) for _ in range(step))
    if n == 0:
        sigma = [_canonical_sigma(session, tower, 0)(0)]
    else:
        F = session.functor
        sigma = F.push_forms(F.elements(tower.size(n - 1)), tower.iota_table(n - 1))
    return TModel(valuation, tuple(sigma) * vals.size)


class _Discovery(dict):
    """Renames states to 0, 1, ... in the order they are first looked up,
    starting with root; order lists the states so renamed."""

    def __init__(self, root: int):
        super().__init__({root: 0})
        self.order = [root]

    def __missing__(self, t: int) -> int:
        self[t] = len(self.order)
        self.order.append(t)
        return self[t]


def _generated_model(session: Session, tower: StageTower, n: int, root: int) -> TModel:
    """The sub-coalgebra of lemma2_model(n) generated by state root, renumbered
    in discovery order with root as state 0."""
    sigma_of, ids = _canonical_sigma(session, tower, n), _Discovery(root)
    sigma = []
    for t in ids.order:  # grows while it is walked
        sigma += session.functor.push_forms([sigma_of(t)], ids)
    valuation = tuple(session.valuations.decode(tower.decode1(n, t)[0]) for t in ids.order)
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
        raise RuntimeError(f"internal coherence failure: stage witness {t} evaluates to "
                           f"{session.lat.label(model_val)} on the canonical model")
    return Verdict(True, "satisfiable", n, witness)
