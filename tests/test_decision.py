import copy
import dataclasses
import itertools
import random

import pytest

from mvmodal import (Bin, BudgetError, Const, InputError, Modal, StageTower, StepEvaluator,
                     builtin_lattice, consequence, eval_model, eval_step, lemma2_model,
                     model_to_dict, rank, satisfiable, subformulas, validity)
from mvmodal.decision import _generated_model, _realized_types
from conftest import make_session, random_formula
from oracles import step_consequence
from modelsearch import (oracle_finds_satisfying, oracle_refutes_validity,
                         rank1_pool)


def test_tautology_decided_at_stage_zero(boolean_ps):
    v = validity(boolean_ps, boolean_ps.parse("p -> p"))
    assert v.answer and v.stage == 0 and v.witness is None


def test_boxed_tautology_valid(boolean_ps):
    v = validity(boolean_ps, boolean_ps.parse("box(p -> p)"))
    assert v.answer and v.stage == 1


def test_box_p_invalid_with_decoded_witness(boolean_ps):
    v = validity(boolean_ps, boolean_ps.parse("box(p)"))
    assert not v.answer
    assert v.witness["stage"] == 1
    assert v.witness["values"]["box(p)"] == "0"
    assert "{" in v.witness["description"]


def test_excluded_middle_fails_in_l3_at_half(luk3_ps):
    v = validity(luk3_ps, luk3_ps.parse("p | (p -> c0)"))
    assert not v.answer and v.stage == 0
    assert v.witness["values"]["p"] == "0.5"
    assert v.witness["values"]["p | (p -> 0)"] == "0.5"


def test_k_axiom_consequence(boolean_ps):
    s = boolean_ps
    v = consequence(s, [s.parse("box(p)"), s.parse("box(p -> q)")], s.parse("box(q)"))
    assert v.answer
    v = consequence(s, [s.parse("diamond(p)")], s.parse("box(p)"))
    assert not v.answer and v.witness is not None


def test_monotone_consequence_l3(luk3_ps):
    s = luk3_ps
    assert consequence(s, [s.parse("p")], s.parse("p | q")).answer
    assert not consequence(s, [s.parse("p | q")], s.parse("p")).answer


def test_explicit_stage_override(boolean_ps1):
    s = boolean_ps1
    v = validity(s, s.parse("box(p) -> box(p)"), n=2)
    assert v.answer and v.stage == 2
    with pytest.raises(InputError):
        validity(s, s.parse("box(p)"), n=0)


def test_sat_empty_successors_witness(boolean_ps1):
    v = satisfiable(boolean_ps1, boolean_ps1.parse("box(c0)"))
    assert v.answer
    assert v.witness["element"] == 0
    assert v.witness["description"] == "<p=0; {}>"


def test_unsat_contradiction(boolean_ps):
    v = satisfiable(boolean_ps, boolean_ps.parse("p /\\ (p -> c0)"))
    assert not v.answer and v.witness is None


def test_sat_rank_two(boolean_ps1):
    s = boolean_ps1
    v = satisfiable(s, s.parse("box(diamond(p)) /\\ diamond(box(p))"))
    assert v.answer and v.stage == 2
    v = satisfiable(s, s.parse("box(diamond(p)) /\\ diamond(box(p -> c0))"))
    assert not v.answer


def test_budget_error_propagates(boolean_ps):
    with pytest.raises(BudgetError):
        validity(boolean_ps, boolean_ps.parse("box(box(p))"))


def test_lemma2_model_realizes_stage(boolean_ps):
    s = boolean_ps
    m = lemma2_model(s, 1)
    assert m.n_states == 64
    from mvmodal import eval_step
    for text in ["box(p) -> diamond(p)", "box(p -> q)", "diamond(p | q)"]:
        phi = s.parse(text)
        assert eval_model(s, m, phi) == eval_step(s, phi, 1)


def test_lemma2_model_stage_zero(luk3_ps):
    m = lemma2_model(luk3_ps, 0)
    assert m.n_states == 9
    vals = eval_model(luk3_ps, m, luk3_ps.parse("p"))
    assert vals == tuple(luk3_ps.valuations.decode(t)[0] for t in range(9))


def test_lemma2_model_serializes_for_powerset(boolean_ps1):
    m = lemma2_model(boolean_ps1, 1)
    data = model_to_dict(boolean_ps1, m)
    assert data["states"] == 8


@pytest.mark.parametrize("functor,text", [("neighborhood", "box(p)"), ("selection", "cond(p, p)")])
def test_lemma2_model_neighborhood_evaluates_but_does_not_serialize(functor, text):
    s = make_session(functor=functor, propositions=("p",))
    m = lemma2_model(s, 1)
    assert eval_model(s, m, s.parse(text))  # evaluates fine
    with pytest.raises(InputError, match="indexed off the state set"):
        model_to_dict(s, m)


def test_empty_premises_equal_validity(boolean_ps):
    s = boolean_ps
    for text in ["box(p) | diamond(q)", "box(p | q) -> box(p)", "diamond(c1)",
                 "box(c0) | diamond(c1)"]:
        phi = s.parse(text)
        assert consequence(s, [], phi).answer == validity(s, phi).answer


def test_validity_matches_model_search_oracle(boolean_ps):
    s = boolean_ps
    pool = rank1_pool(s)[:60]
    for phi in pool:
        verdict = validity(s, phi)
        refutation = oracle_refutes_validity(s, phi, sweep_states=2)
        assert verdict.answer == (refutation is None), s.pretty(phi)


def test_satisfiable_matches_model_search_oracle(boolean_ps):
    s = boolean_ps
    pool = rank1_pool(s)[:60]
    for phi in pool:
        verdict = satisfiable(s, phi)
        found = oracle_finds_satisfying(s, phi, sweep_states=2)
        assert verdict.answer == (found is not None), s.pretty(phi)


def test_verdict_to_dict_shape(boolean_ps):
    v = validity(boolean_ps, boolean_ps.parse("box(p)"))
    d = v.to_dict()
    assert set(d) == {"answer", "mode", "stage", "witness"}
    assert d["mode"] == "valid" and d["witness"]["element"] >= 0


FUNCTORS = ("powerset", "fuzzyhom", "neighborhood", "selection", "distribution:2")


def differential_pool(s, tower, algebra, functor):
    """Seeded pairs (phi, psi) of rank <= 2 over the session, each with the
    least stage n that decides both, where stage n is in budget."""
    rng = random.Random(f"realized:{algebra}:{functor}")
    for _ in range(60):
        phi, psi = random_formula(s, rng, max_rank=2), random_formula(s, rng, max_rank=2)
        n = max(rank(phi), rank(psi))
        try:
            tower.size(n)
        except BudgetError:
            continue
        yield phi, psi, n


@pytest.mark.parametrize("functor", FUNCTORS)
@pytest.mark.parametrize("algebra", ["boolean", "lukasiewicz:3"])
def test_realized_types_agree_with_full_stage_sweep(algebra, functor):
    s = make_session(algebra=algebra, functor=functor, propositions=("p",))
    tower = StageTower(s)
    bot = Const(s.lat.bot)
    disagreements, compared = [], 0
    for phi, psi, n in differential_pool(s, tower, algebra, functor):
        compared += 1
        swept = set(zip(eval_step(s, phi, n, tower), eval_step(s, psi, n, tower)))
        if set(_realized_types(s, [phi, psi], n)[2].values()) != swept:
            disagreements.append((s.pretty(phi), s.pretty(psi)))
        for verdict, (holds, first) in (
                (validity(s, psi, n), step_consequence(s, [], psi, n, tower)),
                (consequence(s, [phi], psi, n), step_consequence(s, [phi], psi, n, tower)),
                (satisfiable(s, phi, n), step_consequence(s, [phi], bot, n, tower))):
            # the witness is the first refuting id, for sat the first one making phi top
            want = not holds if verdict.mode == "satisfiable" else holds
            element = verdict.witness and verdict.witness["element"]
            if verdict.answer != want or element != first:
                disagreements.append((verdict.mode, s.pretty(phi), s.pretty(psi)))
    assert compared >= 5
    assert disagreements == []


@pytest.mark.parametrize("functor,props", [("powerset", ("p", "q")), ("fuzzyhom", ("p",))])
def test_perturbed_algebras_are_refused_or_decided_like_the_sweep(functor, props):
    """A session over a Lukasiewicz table with one entry changed either
    refuses the algebra or decides like the stage-1 sweep. Before sessions
    checked the lattice laws, some such sessions ended in an internal
    coherence failure, and some answered VALID where the sweep refutes."""
    rng = random.Random(f"perturbed:{functor}")
    refused = decided = 0
    for _ in range(60):
        k = rng.choice((2, 3))
        data = builtin_lattice("lukasiewicz", k).to_dict()
        data[rng.choice(("join", "meet", "mono", "impl"))][rng.randrange(k)][rng.randrange(k)] = \
            rng.randrange(k)
        try:
            s = make_session(algebra=data, functor=functor, propositions=props)
        except InputError as exc:
            assert "is not a residuated lattice" in str(exc)
            refused += 1
            continue
        for _ in range(5):
            phi = random_formula(s, rng, max_rank=1)
            holds, first = step_consequence(s, [], phi, 1)
            v = validity(s, phi, 1)
            assert (v.answer, v.witness and v.witness["element"]) == (holds, first), s.pretty(phi)
            decided += 1
    assert refused > 0 and decided > 0


BOX_BOX_P = "box(box(p))"


@pytest.mark.parametrize("algebra,functor,props", [
    ("lukasiewicz:3", "powerset", ("p",)),
    ("boolean", "neighborhood", ("p",)),
    ("boolean", "powerset", ("p", "q")),
])
def test_lattice_laws_decided_over_budget_stage(algebra, functor, props):
    s = make_session(algebra=algebra, functor=functor, propositions=props)
    with pytest.raises(BudgetError):
        StageTower(s).size(2)
    v = validity(s, s.parse(f"{BOX_BOX_P} /\\ p -> {BOX_BOX_P}"))
    assert v.answer and v.stage == 2 and v.witness is None
    v = satisfiable(s, s.parse(f"{BOX_BOX_P} & ({BOX_BOX_P} -> c0)"))
    assert not v.answer and v.stage == 2 and v.witness is None
    v = consequence(s, [s.parse(BOX_BOX_P), s.parse(f"{BOX_BOX_P} -> box(p)")],
                    s.parse("box(p)"))
    assert v.answer and v.stage == 2 and v.witness is None


@pytest.mark.parametrize("functor", FUNCTORS)
def test_generated_model_keeps_the_root_value(functor):
    s = make_session(functor=functor, propositions=("p",))
    full = lemma2_model(s, 1)
    tower = StageTower(s)
    formulas = [s.parse(text) for text in ["p", "p -> p"] + [
        f"{name}({', '.join(['p'] * arity)})" for name, arity in s.registry.arities().items()]]
    full_values = [eval_model(s, full, phi) for phi in formulas]
    for t in range(0, full.n_states, max(1, full.n_states // 16)):
        sub = _generated_model(s, tower, 1, t)
        assert sub.n_states <= full.n_states
        assert [eval_model(s, sub, phi)[0] for phi in formulas] == [v[t] for v in full_values], t


def nested_witness(session, tower, n, formulas, holds):
    """The witness search that decision._witness replaced, kept as its oracle:
    sweep stage n in id order on nested elements (decode_full) and evaluate
    them pointwise (StepEvaluator)."""
    types = set(_realized_types(session, formulas, n)[2].values())
    if not any(holds(dict(zip(formulas, v)).__getitem__) for v in types):
        return None
    ev = StepEvaluator(session)
    for t in range(tower.size(n)):
        elem = tower.decode_full(n, t)
        if holds(lambda f: ev.value(f, n, elem)):
            values = {}
            for f in formulas:
                for sub in subformulas(f):
                    values[session.pretty(sub)] = session.lat.label(ev.value(sub, n, elem))
            return {"stage": n, "element": t, "description": tower.describe(n, t),
                    "values": dict(sorted(values.items()))}
    raise AssertionError(f"a realized type at stage {n} has no stage element")


def _raise(*args, **kwargs):
    raise AssertionError("the nested-element path was reached")


@pytest.mark.parametrize("functor", FUNCTORS)
@pytest.mark.parametrize("algebra", ["boolean", "lukasiewicz:3"])
def test_witnesses_match_nested_oracle_without_nested_elements(algebra, functor, monkeypatch):
    """Whole witness dicts of validity, consequence and satisfiability on the
    differential pool, at stage rank and one above it where that is small,
    against the nested oracle; the library half runs with decode_full,
    encode_full and StepEvaluator.value raising."""
    s = make_session(algebra=algebra, functor=functor, propositions=("p",))
    tower = StageTower(s)
    top = s.lat.top
    cases = []
    for phi, psi, n in differential_pool(s, tower, algebra, functor):
        stages = [n]
        try:
            if tower.size(n + 1) <= 2000:  # keeps the oracle's sweep short
                stages.append(n + 1)
        except BudgetError:
            pass
        for m in stages:
            cases += [
                (m, lambda m=m, psi=psi: validity(s, psi, m), [psi],
                 lambda val, psi=psi: val(psi) != top),
                (m, lambda m=m, phi=phi, psi=psi: consequence(s, [phi], psi, m), [phi, psi],
                 lambda val, phi=phi, psi=psi: val(phi) == top and val(psi) != top),
                (m, lambda m=m, phi=phi: satisfiable(s, phi, m), [phi],
                 lambda val, phi=phi: val(phi) == top),
            ]
    want = [nested_witness(s, tower, m, formulas, holds) for m, _, formulas, holds in cases]
    for name in ("decode_full", "encode_full"):
        monkeypatch.setattr(StageTower, name, _raise)
    monkeypatch.setattr(StepEvaluator, "value", _raise)
    got = [decide().witness for _, decide, _, _ in cases]
    assert got == want
    witnessed = [(m, formulas) for (m, _, formulas, _), w in zip(cases, want) if w]
    top_stage = max(case[0] for case in cases)
    assert any(m > max(map(rank, formulas)) for m, formulas in witnessed) or top_stage == 0
    # a modal subformula under a modality, wherever stage 2 is in budget
    assert top_stage < 2 or any(isinstance(g, Modal) and rank(g) > 1 for _, formulas in witnessed
                                for f in formulas for g in subformulas(f))


@pytest.mark.parametrize("algebra,functor", [
    ("lukasiewicz:3", "powerset"), ("lukasiewicz:3", "fuzzyhom"), ("boolean", "neighborhood"),
    ("boolean", "selection"), ("lukasiewicz:3", "distribution:2"),
])
def test_verdict_to_dict_is_asdict_without_sharing(algebra, functor):
    """to_dict builds the dict of dataclasses.asdict directly; mutating it
    leaves the verdict's witness as it was."""
    s = make_session(algebra=algebra, functor=functor, propositions=("p",))
    name, arity = next(iter(s.arities.items()))
    m = s.parse(f"{name}({', '.join(['p'] * arity)})")
    verdicts = [validity(s, Bin("imp", m, m)), validity(s, m), satisfiable(s, m),
                consequence(s, [m], Const(s.lat.bot)), satisfiable(s, Const(s.lat.bot))]
    assert sum(v.witness is not None for v in verdicts) >= 2
    assert sum(v.witness is None for v in verdicts) >= 2
    for v in verdicts:
        before = copy.deepcopy(v.witness)
        d = v.to_dict()
        assert d == dataclasses.asdict(v)
        if d["witness"] is not None:
            d["witness"]["values"]["p"] = "mutated"
            d["witness"]["element"] = -1
        assert v.witness == before
