import itertools
import random
from fractions import Fraction

import pytest

from mvmodal import proofkit
from mvmodal import (BudgetError, InputError, ModalAxiomSet, StageTower, check_derivation,
                     check_step_n_soundness, consequence, decide_ax_a, load_axiom_set,
                     load_derivation, one_step_soundness_report)
from mvmodal.semantics import local_nodes
from mvmodal.syntax import Bin, Const, Modal, Prop, propositions_of
from conftest import make_session, random_formula
from oracles import first_failure, pointwise_soundness, sweep_soundness


# -- an independent Lukasiewicz oracle for the surrogate consequence ---------------------


def fraction_oracle(session, premises, conclusion):
    """Re-decides the surrogate consequence with Fraction arithmetic."""
    k = session.lat.size
    vals = [Fraction(i, k - 1) for i in range(k)]

    def atoms_of(f, acc):
        if isinstance(f, (Prop, Modal)):
            acc.setdefault(f, len(acc))
        elif isinstance(f, Bin):
            atoms_of(f.left, acc)
            atoms_of(f.right, acc)
        return acc

    atoms = {}
    for f in (*premises, conclusion):
        atoms_of(f, atoms)

    def ev(f, env):
        if isinstance(f, Const):
            return vals[f.value]
        if isinstance(f, (Prop, Modal)):
            return env[f]
        a, b = ev(f.left, env), ev(f.right, env)
        if f.op == "or":
            return max(a, b)
        if f.op == "and":
            return min(a, b)
        if f.op == "fuse":
            return max(Fraction(0), a + b - 1)
        return min(Fraction(1), 1 - a + b)

    for combo in itertools.product(vals, repeat=len(atoms)):
        env = dict(zip(atoms, combo))
        if all(ev(g, env) == 1 for g in premises) and ev(conclusion, env) != 1:
            return False
    return True


L3_FACTS = [
    # (premises, conclusion, expected)
    ((), "p -> p", True),
    ((), "p | (p -> c0)", False),                      # excluded middle fails at 1/2
    ((), "(p -> c0) | ((p -> c0) -> c0)", False),
    ((), "p -> (q -> p)", True),
    ((), "(p -> q) -> ((q -> r) -> (p -> r))", True),
    ((), "((p -> q) -> q) -> ((q -> p) -> p)", True),  # Lukasiewicz axiom
    ((), "(p -> q) | (q -> p)", True),                 # prelinearity on a chain
    ((), "p -> (p & p)", False),                       # contraction fails at 1/2
    ((), "(p & q) -> p", True),                        # integrality
    ((), "(p & q) -> (q & p)", True),
    ((), "(p /\\ q) -> (p & q)", False),               # 1/2 /\ 1/2 = 1/2 > 1/2 & 1/2 = 0
    ((), "(p & q) -> (p /\\ q)", True),
    (("p",), "p | q", True),
    (("p", "p -> q"), "q", True),
    (("p -> q", "q -> r"), "p -> r", True),
    (("p | q",), "p", False),
    (("p & p",), "p", True),
    (("p /\\ (p -> c0)",), "c0", True),                # premise can never be top
    (("box(p)",), "box(p)", True),                     # surrogate identity
    (("box(p)",), "box(q)", False),                    # distinct surrogates
]


def test_twenty_l3_facts_against_fraction_oracle():
    s = make_session(algebra="lukasiewicz:3", propositions=("p", "q", "r"))
    assert len(L3_FACTS) == 20
    for prem_texts, conc_text, expected in L3_FACTS:
        premises = [s.parse(t) for t in prem_texts]
        conclusion = s.parse(conc_text)
        got = decide_ax_a(s, premises, conclusion)
        assert got == expected, (prem_texts, conc_text)
        assert fraction_oracle(s, premises, conclusion) == expected, (prem_texts, conc_text)


def test_decide_ax_a_budget_guard():
    s = make_session(algebra="lukasiewicz:3", propositions=("p", "q", "r"), budget=10)
    with pytest.raises(BudgetError):
        decide_ax_a(s, [], s.parse("p | q | r"))


# atoms beyond the first seven are fixed per slice: 3^8 and 3^9 assignments
# take 3 and 9 slices of 3^7
SLICE_ATOMS = ["p", "q", "r", "box(p /\\ q)", "diamond(p)", "box(q -> r)",
               "diamond(r & q)", "box(r)", "diamond(p | q)"]


def combine(rng, parts):
    parts = list(parts)
    while len(parts) > 1:
        a = parts.pop(rng.randrange(len(parts)))
        b = parts.pop(rng.randrange(len(parts)))
        op = rng.choice(["|", "/\\", "&", "->"])
        parts.append(f"({a} {op} {b})")
    return parts[0]


def test_decide_ax_a_across_slices_matches_fraction_oracle():
    s = make_session(algebra="lukasiewicz:3", propositions=("p", "q", "r"))
    assert 3 ** 8 > proofkit._SLICE
    rng = random.Random(4)
    cases = []
    for k in (8, 9, 8, 9):
        atoms = rng.sample(SLICE_ATOMS, k)
        cases.append(((), combine(rng, atoms)))
        premise = combine(rng, atoms[:4])
        cases.append(((premise,), f"{combine(rng, atoms[4:])} | {premise}"))
    tautology = combine(rng, SLICE_ATOMS[:8])
    cases.append(((), f"{tautology} -> {tautology}"))
    # the only counterexamples give p, the leading atom, the value 1: last slice
    cases.append((("p",), " | ".join(SLICE_ATOMS[1:8])))
    answers = []
    for prem_texts, conc_text in cases:
        premises = [s.parse(t) for t in prem_texts]
        conclusion = s.parse(conc_text)
        got = decide_ax_a(s, premises, conclusion)
        assert got == fraction_oracle(s, premises, conclusion), (prem_texts, conc_text)
        answers.append(got)
    assert answers[-2:] == [True, False] and True in answers[:-2] and False in answers[:-2]


def test_modal_arguments_are_opaque(boolean_ps):
    s = boolean_ps
    # box(p /\ q) -> box(p) is semantically fine for powerset-box but the
    # surrogate oracle must not look inside the boxes
    assert not decide_ax_a(s, [s.parse("box(p /\\ q)")], s.parse("box(p)"))


# -- axiom sets ----------------------------------------------------------------------


def test_axiom_set_rank_guard(boolean_ps):
    with pytest.raises(InputError):
        load_axiom_set(boolean_ps, [{"name": "deep", "premises": [],
                                     "conclusion": "box(box(p))"}])
    with pytest.raises(InputError):
        load_axiom_set(boolean_ps, [{"name": "a", "premises": [], "conclusion": "p"},
                                    {"name": "a", "premises": [], "conclusion": "q"}])


AXIOMS = [
    {"name": "boxtop", "premises": [], "conclusion": "box(c1)"},
    {"name": "K", "premises": ["box(p)", "box(p -> q)"], "conclusion": "box(q)"},
    {"name": "meetbox", "premises": ["box(p)", "box(q)"], "conclusion": "box(p /\\ q)"},
]


def valid_trees():
    return [
        {"rule": "axa", "premises": ["p"], "conclusion": "p"},
        {"rule": "axa", "premises": [], "conclusion": "p -> (q -> p)"},
        {"rule": "modal", "lifting": "box", "premises": ["box(p)"],
         "conclusion": "box(p)",
         "child": {"rule": "axa", "premises": ["p"], "conclusion": "p"}},
        {"rule": "axlambda", "axiom": "K",
         "substitution": {"p": "p /\\ q", "q": "q"},
         "premises": ["box(p /\\ q)", "box((p /\\ q) -> q)"], "conclusion": "box(q)"},
        {"rule": "modal", "lifting": "diamond", "premises": ["diamond(p & q)"],
         "conclusion": "diamond(q & p)",
         "child": {"rule": "axa", "premises": ["p & q"], "conclusion": "q & p"}},
    ]


# fifth planted violation: a binary lifting cannot drive the lifting rule
COND_TREE = {
    "rule": "modal", "lifting": "cond", "premises": ["cond(p, p)"],
    "conclusion": "cond(p, p)",
    "child": {"rule": "axa", "premises": ["p"], "conclusion": "p"},
}


def invalid_trees():
    return [
        # not a surrogate consequence
        {"rule": "axa", "premises": ["p | q"], "conclusion": "p"},
        # conclusion is not the cited instance
        {"rule": "axlambda", "axiom": "K", "substitution": {"p": "q", "q": "q"},
         "premises": ["box(q)", "box(q -> q)"], "conclusion": "box(p)"},
        # unknown axiom name
        {"rule": "axlambda", "axiom": "T", "substitution": {},
         "premises": ["box(p)"], "conclusion": "p"},
        # lifted premises do not match the child
        {"rule": "modal", "lifting": "box", "premises": ["box(q)"],
         "conclusion": "box(p)",
         "child": {"rule": "axa", "premises": ["p"], "conclusion": "p"}},
    ]


def test_five_valid_trees(boolean_ps):
    s = boolean_ps
    ax = load_axiom_set(s, AXIOMS)
    for tree in valid_trees():
        report = check_derivation(s, load_derivation(s, tree), ax)
        assert report.ok, report.summary()


def test_five_invalid_trees(boolean_ps):
    s = boolean_ps
    ax = load_axiom_set(s, AXIOMS)
    trees = invalid_trees()
    for tree in trees:
        report = check_derivation(s, load_derivation(s, tree), ax)
        assert not report.ok, tree
    sel = make_session(functor="selection", propositions=("p", "q"))
    tree = load_derivation(sel, COND_TREE)
    report = check_derivation(sel, tree, load_axiom_set(sel, []))
    assert not report.ok
    assert any(v.law == "lifting-arity" for v in report.violations)


def test_stratum_discipline(boolean_ps):
    s = boolean_ps
    ax = load_axiom_set(s, AXIOMS)
    lift = {"rule": "modal", "lifting": "box", "premises": ["box(p)"],
            "conclusion": "box(p)",
            "child": {"rule": "axa", "premises": ["p"], "conclusion": "p"}}
    tree = load_derivation(s, lift)
    assert check_derivation(s, tree, ax, n=1).ok
    assert check_derivation(s, tree, ax, n=2).ok      # monotone in the stratum
    assert check_derivation(s, tree, ax).ok           # unstratified
    report = check_derivation(s, tree, ax, n=0)
    assert not report.ok
    assert any(v.law == "stratum" for v in report.violations)


def test_substitution_stratum_bound(boolean_ps):
    s = boolean_ps
    ax = load_axiom_set(s, AXIOMS)
    inst = {"rule": "axlambda", "axiom": "K",
            "substitution": {"p": "box(p)", "q": "q"},
            "premises": ["box(box(p))", "box(box(p) -> q)"], "conclusion": "box(q)"}
    tree = load_derivation(s, inst)
    assert check_derivation(s, tree, ax).ok           # fine unstratified
    assert check_derivation(s, tree, ax, n=2).ok      # 1-substitution at stratum 2
    report = check_derivation(s, tree, ax, n=1)
    assert not report.ok


def test_derivation_without_axiom_set_fails_citations(boolean_ps):
    s = boolean_ps
    tree = load_derivation(s, valid_trees()[3])
    report = check_derivation(s, tree, axioms=None)
    assert not report.ok
    assert any(v.law == "axiom-citation" for v in report.violations)


# -- step-n soundness ------------------------------------------------------------------


def test_box_top_axiom_step1_sound(boolean_ps1):
    ax = load_axiom_set(boolean_ps1, [{"name": "boxtop", "premises": [],
                                       "conclusion": "box(c1)"}])
    report = check_step_n_soundness(boolean_ps1, ax, 1)
    assert report.ok and report.notes


def test_box_bot_axiom_refuted(boolean_ps1):
    ax = load_axiom_set(boolean_ps1, [{"name": "boxbot", "premises": [],
                                       "conclusion": "box(c0)"}])
    report = check_step_n_soundness(boolean_ps1, ax, 1)
    assert not report.ok
    assert "refuted" in report.violations[0].detail


def test_meet_box_axiom_step1_sound(boolean_ps):
    ax = load_axiom_set(boolean_ps, [AXIOMS[2]])
    report = check_step_n_soundness(boolean_ps, ax, 1)
    assert report.ok
    assert report.checked == (2 ** 4) ** 2


def test_unsound_axiom_with_props_refuted_by_realizer(boolean_ps1):
    s = boolean_ps1
    ax = load_axiom_set(s, [{"name": "collapse", "premises": ["diamond(p)"],
                             "conclusion": "box(p)"}])
    report = check_step_n_soundness(s, ax, 1)
    assert not report.ok
    v = report.violations[0]
    assert "refuted" in v.detail and "p" in dict(v.witness[1])


def test_step_soundness_needs_positive_stage(boolean_ps1):
    ax = load_axiom_set(boolean_ps1, [{"name": "t", "premises": [], "conclusion": "c1"}])
    with pytest.raises(InputError):
        check_step_n_soundness(boolean_ps1, ax, 0)


def test_one_step_report_combines(boolean_ps1):
    good = load_axiom_set(boolean_ps1, [{"name": "boxtop", "premises": [],
                                         "conclusion": "box(c1)"}])
    report = one_step_soundness_report(boolean_ps1, good, ["box"], 1)
    assert report.ok
    assert any("transfers soundness" in n for n in report.notes)
    bad = load_axiom_set(boolean_ps1, [{"name": "boxbot", "premises": [],
                                        "conclusion": "box(c0)"}])
    report = one_step_soundness_report(boolean_ps1, bad, ["box"], 1)
    assert not report.ok


def test_one_step_report_empty_axioms_reduces_to_preservation(boolean_ps1):
    from mvmodal import ModalAxiomSet

    empty = ModalAxiomSet(())
    report = one_step_soundness_report(boolean_ps1, empty, ["box"], 1)
    assert report.ok
    # no axioms means nothing to refute; all checks are preservation checks
    assert not report.violations

    # diamond is honestly not top-cut preserving: an empty premise family
    # covers the whole domain while diamond of the empty structure is bottom
    report = one_step_soundness_report(boolean_ps1, empty, ["diamond"], 1)
    assert not report.ok
    assert all(v.law == "alpha-preservation" for v in report.violations)
    n, fam_f, fam_g = report.violations[0].witness
    assert fam_f == ()


# -- the soundness sweep against the pointwise reference ------------------------------


def random_axioms(session, rng, count):
    """Rank-1 axioms whose propositions occur both inside and outside modalities."""
    out = []
    while len(out) < count:
        premises = [random_formula(session, rng, max_rank=1, size=4)
                    for _ in range(rng.randrange(2))]
        conclusion = random_formula(session, rng, max_rank=1, size=6)
        cons = proofkit.Consecution(tuple(premises), conclusion)
        nodes = local_nodes(cons.formulas())
        outside = [f for f in nodes if isinstance(f, Prop)]
        inside = [a for f in nodes if isinstance(f, Modal) for a in f.args if propositions_of(a)]
        if outside and inside:
            out.append((f"ax{len(out)}", cons))
    return ModalAxiomSet(tuple(out))


def assert_matches_sweep(s, name, cons, n, swept):
    """check_step_n_soundness on the one axiom against a sweep of all its
    assignments: the same verdict; when it holds, the same count and notes;
    when it fails, a refutation under p -> p at the first stage-n element
    where that assignment fails."""
    got = check_step_n_soundness(s, ModalAxiomSet(((name, cons),)), n)
    assert got.ok == swept.ok, cons.pretty(s)
    if got.ok:
        assert (got.checked, got.notes) == (swept.checked, swept.notes), cons.pretty(s)
        return
    tower = StageTower(s)
    props = sorted(set().union(*map(propositions_of, cons.formulas())))
    identity = {p: tower.prop_column(n - 1, p) for p in props}
    (v,) = got.violations
    assert got.checked == 0
    assert v.witness == (name, tuple((p, p) for p in props),
                         first_failure(s, tower, cons, n, identity)), cons.pretty(s)
    assert v.detail.startswith(f"refuted; axiom {name!r} fails at ")


@pytest.mark.parametrize("functor,props,n", [
    ("powerset", ("p", "q"), 1),
    ("fuzzyhom", ("p", "q"), 1),
    ("neighborhood", ("p",), 1),
    ("selection", ("p",), 1),
    ("distribution:2", ("p", "q"), 1),
    ("powerset", ("p",), 2),
])
def test_step_n_soundness_matches_pointwise_sweep(functor, props, n):
    s = make_session(functor=functor, propositions=props)
    rng = random.Random(f"soundness:{functor}:{n}")
    outcomes = set()
    for name, cons in random_axioms(s, rng, 8 if n == 1 else 3).axioms:
        swept = pointwise_soundness(s, ModalAxiomSet(((name, cons),)), n)
        assert_matches_sweep(s, name, cons, n, swept)
        outcomes.add(swept.ok)
    assert outcomes == {True, False}


# -- the realized-type decision against the sweep -----------------------------------------


@pytest.mark.parametrize("algebra", ["boolean", "lukasiewicz:3"])
@pytest.mark.parametrize("functor", ["powerset", "fuzzyhom", "neighborhood", "selection",
                                     "distribution:2"])
def test_stage1_certificate_agrees_with_step1_sweep(algebra, functor):
    """At n = 1 the realized-type decider and the sweep decide each axiom
    alike. Where stage 1 is over budget, both refuse."""
    s = make_session(algebra=algebra, functor=functor, propositions=("p",))
    axioms = random_axioms(s, random.Random(f"certificate:{algebra}:{functor}"), 12)
    try:
        StageTower(s).size(1)
    except BudgetError:
        with pytest.raises(BudgetError):
            check_step_n_soundness(s, axioms, 1)
        return
    outcomes = set()
    for name, cons in axioms.axioms:
        swept = sweep_soundness(s, ModalAxiomSet(((name, cons),)), 1)
        assert consequence(s, cons.premises, cons.conclusion, 1).answer == swept.ok, \
            cons.pretty(s)
        assert_matches_sweep(s, name, cons, 1, swept)
        outcomes.add(swept.ok)
    assert outcomes == {True, False}


def test_stage1_certificate_implies_step2_soundness():
    s = make_session(propositions=("p",))
    certified = 0
    for name, cons in random_axioms(s, random.Random("certificate:step2"), 12).axioms:
        if consequence(s, cons.premises, cons.conclusion, 1).answer:
            swept = sweep_soundness(s, ModalAxiomSet(((name, cons),)), 2)
            assert swept.ok, cons.pretty(s)
            assert_matches_sweep(s, name, cons, 2, swept)
            certified += 1
    assert certified >= 3


@pytest.mark.parametrize("functor", ["powerset", "fuzzyhom", "distribution:2"])
def test_step2_decision_matches_sweep_both_ways(functor):
    """A stage-2 consequence holds under every assignment of stage-1 tables,
    and one that fails is refuted under p -> p: zero disagreements with the
    sweep, either way."""
    s = make_session(functor=functor, propositions=("p",))
    outcomes = set()
    for name, cons in random_axioms(s, random.Random(f"converse:step2:{functor}"), 10).axioms:
        swept = sweep_soundness(s, ModalAxiomSet(((name, cons),)), 2)
        assert consequence(s, cons.premises, cons.conclusion, 2).answer == swept.ok, \
            cons.pretty(s)
        assert_matches_sweep(s, name, cons, 2, swept)
        outcomes.add(swept.ok)
    assert outcomes == {True, False}


K = {"name": "K", "premises": ["box(p)", "box(p -> q)"], "conclusion": "box(q)"}


def test_step1_refutation_over_budget_is_the_identity_assignment():
    """K fails the certificate on Lukasiewicz-3 fuzzy relations, and its
    (3^9)^2 assignments are over budget: the report refutes it under p -> p,
    q -> q at the first stage-1 element a sweep of that one assignment finds."""
    s = make_session(algebra="lukasiewicz:3", functor="fuzzyhom")
    report = check_step_n_soundness(s, load_axiom_set(s, [K]), 1)
    assert not report.ok and report.checked == 0
    (v,) = report.violations
    assert v.witness == ("K", (("p", "p"), ("q", "q")), 243)
    assert v.detail.startswith("refuted; axiom 'K' fails at ")
    tower = StageTower(s)
    identity = {p: tower.prop_column(0, p) for p in s.propositions}
    assert first_failure(s, tower, load_axiom_set(s, [K]).get("K"), 1, identity) == 243
