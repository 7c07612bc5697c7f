import random

import pytest

from mvmodal import (BudgetError, InputError, StageTower, StepEvaluator,
                     check_lemma1, check_stage_coherence, check_truth_lemma,
                     eval_model, eval_step, lemma2_model, load_model,
                     model_consequence, model_to_dict, sigma_k, sigma_states)
from mvmodal.functors import push_delta
from mvmodal.report import ValidationReport
from mvmodal.semantics import ModelImages, stage_columns
from mvmodal.syntax import Bin, Prop, rank
from conftest import make_session, random_formula, random_model
from oracles import step_consequence

FUNCTORS = ["powerset", "fuzzyhom", "neighborhood", "selection", "distribution:2"]


# -- concrete evaluation ----------------------------------------------------------------


def test_eval_model_powerset_hand_values(luk3_ps):
    s = luk3_ps
    m = load_model(s, {"states": 3, "valuation": [[2, 0], [1, 2], [0, 1]],
                       "sigma": [[1, 2], [], [0]]})
    assert eval_model(s, m, s.parse("box(p)")) == (0, 2, 2)
    assert eval_model(s, m, s.parse("diamond(p)")) == (1, 0, 2)
    assert eval_model(s, m, s.parse("p & q")) == (0, 1, 0)
    assert eval_model(s, m, s.parse("p -> q")) == (0, 2, 2)


def test_eval_model_distribution_hand_values():
    s = make_session(algebra="lukasiewicz:3", functor="distribution:2",
                     propositions=("p",))
    m = load_model(s, {"states": 2, "valuation": [[1], [2]],
                       "sigma": [[1, 1], [0, 2]]})
    # state 0: E(p) = (1/2)(1/2) + (1/2)(1) = 3/4 -> floor 1/2
    assert eval_model(s, m, s.parse("prob(p)")) == (1, 2)


def test_model_consequence_witness(boolean_ps):
    s = boolean_ps
    m = load_model(s, {"states": 2, "valuation": [[1, 0], [1, 1]],
                       "sigma": [[0], [1]]})
    ok, state = model_consequence(s, m, [s.parse("p")], s.parse("q"))
    assert not ok and state == 0
    ok, state = model_consequence(s, m, [s.parse("q")], s.parse("p"))
    assert ok and state is None


def test_model_json_round_trip_and_validation(boolean_ps):
    s = boolean_ps
    data = {"states": 2, "valuation": [[1, 0], [0, 1]], "sigma": [[0, 1], []]}
    m = load_model(s, data)
    assert model_to_dict(s, m) == data
    with pytest.raises(InputError):
        load_model(s, {"states": 0, "valuation": [], "sigma": []})
    with pytest.raises(InputError):
        load_model(s, {"states": 1, "valuation": [[1]], "sigma": [[0]]})
    with pytest.raises(InputError):
        load_model(s, {"states": 1, "valuation": [[1, 0]], "sigma": [[3]]})
    with pytest.raises(InputError):
        load_model(s, {"states": 1, "valuation": [[1, 2]], "sigma": [[0]]})


def test_distribution_model_counts_must_sum():
    s = make_session(functor="distribution:2", propositions=("p",))
    with pytest.raises(InputError):
        load_model(s, {"states": 2, "valuation": [[0], [0]], "sigma": [[1, 0], [1, 1]]})


# -- stage tower -------------------------------------------------------------------------


def test_stage_sizes_powerset(boolean_ps1):
    tower = StageTower(boolean_ps1)
    assert [tower.size(k) for k in range(3)] == [2, 8, 512]


def test_stage_budget_error_names_level(boolean_ps):
    tower = StageTower(boolean_ps)
    with pytest.raises(BudgetError) as err:
        tower.size(2)
    assert "stage 2" in str(err.value)


def test_stage_codecs_round_trip(boolean_ps1):
    tower = StageTower(boolean_ps1)
    for k in range(3):
        for t in range(tower.size(k)):
            assert tower.encode_full(k, tower.decode_full(k, t)) == t


def test_stage_describe_nested(boolean_ps1):
    tower = StageTower(boolean_ps1)
    assert tower.describe(0, 0) == "<p=0>"
    assert tower.describe(1, 0) == "<p=0; {}>"
    assert tower.describe(1, 7) == "<p=1; {<p=0>, <p=1>}>"


def test_iota_gamma_tables_retraction(boolean_ps1):
    tower = StageTower(boolean_ps1)
    for k in range(2):
        iota = tower.iota_table(k)
        gamma = tower.gamma_table(k)
        assert len(iota) == tower.size(k) and len(gamma) == tower.size(k + 1)
        for t in range(tower.size(k)):
            assert gamma[iota[t]] == t


def test_iota0_override_changes_section(boolean_ps1):
    plain = StageTower(boolean_ps1)
    s_over = make_session(propositions=("p",), iota0=3)  # T(stage0) id 3 = {0,1}
    over = StageTower(s_over)
    assert plain.iota_table(0) != over.iota_table(0)
    assert check_lemma1(s_over, 2).ok  # sections retract for any section choice


# -- step semantics -----------------------------------------------------------------------


def test_eval_step_stage_zero_is_propositional(luk3_ps):
    s = luk3_ps
    vals = eval_step(s, s.parse("p -> q"), 0)
    tower = StageTower(s)
    for t in range(9):
        pv, qv = s.valuations.decode(t)
        assert vals[t] == s.lat.residuum(pv, qv)


def test_eval_step_rejects_underranked_stage(boolean_ps):
    with pytest.raises(InputError):
        eval_step(boolean_ps, boolean_ps.parse("box(p)"), 0)


def test_step_consequence_witness(boolean_ps1):
    s = boolean_ps1
    ok, t = step_consequence(s, [s.parse("box(p)")], s.parse("diamond(p)"), 1)
    assert not ok
    assert StageTower(s).describe(1, t) == "<p=0; {}>"
    ok, t = step_consequence(s, [s.parse("box(p)"), s.parse("diamond(c1)")],
                             s.parse("diamond(p)"), 1)
    assert ok and t is None


@pytest.mark.parametrize("functor", FUNCTORS)
@pytest.mark.parametrize("algebra", ["boolean", "lukasiewicz:3"])
def test_eval_step_matches_pointwise_evaluator(algebra, functor):
    """The stage walk (columns over ids) and StepEvaluator (decoded elements)
    share no code; they agree on every element of every stage <= 2 in budget."""
    s = make_session(algebra=algebra, functor=functor, propositions=("p",))
    rng = random.Random(f"columns:{algebra}:{functor}")
    tower = StageTower(s)
    in_budget = []
    for n in range(3):
        try:
            in_budget.append(tower.size(n))
        except BudgetError:
            break
    ev = StepEvaluator(s)
    stages = set()
    for _ in range(25):
        phi = random_formula(s, rng, max_rank=2)
        for n in range(rank(phi), len(in_budget)):
            want = tuple(ev.value(phi, n, tower.decode_full(n, t)) for t in range(in_budget[n]))
            assert eval_step(s, phi, n, tower) == want, (s.pretty(phi), n)
            stages.add(n)
    assert stages == set(range(len(in_budget)))


def test_step_evaluator_memoizes_across_formulas(boolean_ps1):
    s = boolean_ps1
    ev = StepEvaluator(s)
    tower = StageTower(s)
    elem = tower.decode_full(1, 5)
    a = ev.value(s.parse("box(p)"), 1, elem)
    b = ev.value(s.parse("box(p) | box(p)"), 1, elem)
    assert b == a


# -- sigma tower and the truth lemma ------------------------------------------------------


def test_sigma_states_shapes(boolean_ps1):
    s = boolean_ps1
    m = load_model(s, {"states": 2, "valuation": [[1], [0]], "sigma": [[0, 1], []]})
    s0 = sigma_states(s, m, 0)
    assert s0 == [(1, None), (0, None)]
    ids = sigma_k(s, m, 1)
    tower = StageTower(s)
    assert tower.describe(1, ids[0]) == "<p=1; {<p=0>, <p=1>}>"
    assert tower.describe(1, ids[1]) == "<p=0; {}>"


def _assert_images_match_nested_oracle(s, m, formulas, top=3):
    """ModelImages against sigma_states and StepEvaluator, which share no code
    with it: at every level k <= top, image ids are equal exactly when the nested
    images are, and each state's stage value is the pointwise one."""
    images, ev = ModelImages(s, m, top), StepEvaluator(s)
    nested = [sigma_states(s, m, k) for k in range(top + 1)]
    for k in range(top + 1):
        ids = images.ids[k]
        assert sorted(set(ids)) == list(range(images.size(k)))
        assert len(set(zip(ids, nested[k]))) == len(set(ids)) == len(set(nested[k])), k
    for phi in formulas:
        for n in range(rank(phi), top + 1):
            col = stage_columns(s, images, [phi], n)[phi]
            want = [ev.value(phi, n, e) for e in nested[n]]
            assert [col[i] for i in images.ids[n]] == want, (s.pretty(phi), n)


@pytest.mark.parametrize("functor", FUNCTORS)
@pytest.mark.parametrize("algebra", ["boolean", "lukasiewicz:3"])
def test_model_images_match_nested_oracle(algebra, functor):
    s = make_session(algebra=algebra, functor=functor, propositions=("p", "q"))
    rng = random.Random(f"images:{algebra}:{functor}")
    for _ in range(6):
        m = random_model(s, rng.randrange(1, 5), rng)
        _assert_images_match_nested_oracle(s, m, [random_formula(s, rng, max_rank=3, size=8)
                                                  for _ in range(8)])


def test_model_images_match_nested_oracle_on_a_chain(boolean_ps1):
    """Image ids split differently at each level, so a modal node that read
    its arguments' columns at the wrong level would see other states."""
    s = boolean_ps1
    m = load_model(s, {"states": 6, "valuation": [[1], [0], [1], [0], [1], [1]],
                       "sigma": [[1], [2], [3], [4], [5], []]})
    formulas = [s.parse(f) for f in ("p -> box(p)", "diamond(p & box(p))",
                                     "box(diamond(p) | p) & p", "diamond(diamond(diamond(p)))")]
    _assert_images_match_nested_oracle(s, m, formulas)


def test_model_images_match_nested_oracle_dense_goedel4():
    s = make_session(algebra="goedel:4", functor="fuzzyhom", propositions=("p",))
    rng = random.Random("images:dense")
    m = load_model(s, {"states": 40, "valuation": [[rng.randrange(4)] for _ in range(40)],
                       "sigma": [[rng.randrange(4) for _ in range(40)] for _ in range(40)]})
    formulas = [s.parse(f) for f in ("box(diamond(box(p)))", "diamond(p) -> box(p & c2)",
                                     "p | box(box(p) & diamond(c1))", "p -> diamond(p & box(p))")]
    _assert_images_match_nested_oracle(s, m, formulas)


# transitions of boolean powerset models whose image partition stops
# refining at a given level when every state has the same valuation, and the
# number of levels ModelImages then computes: the last one repeats the level
# below it. The two states of the first are told apart at level 1; states 2
# and 3 of the second only at level 2; the chain splits one state off at
# every level up to 5
STOP_LEVEL_MODELS = {
    "stable-from-1": ([[], [0]], 3),
    "stable-from-2": ([[], [0], [1], [1]], 4),
    "chain": ([[1], [2], [3], [4], [5], []], 6),
}


@pytest.mark.parametrize("kind", STOP_LEVEL_MODELS)
def test_model_images_stop_at_the_fixed_point(boolean_ps1, kind):
    """Past the level where the image partition stops refining, ModelImages
    reuses that level's lists, and every level up to 5 still matches the
    nested images and the pointwise stage values."""
    s = boolean_ps1
    sigma, computed = STOP_LEVEL_MODELS[kind]
    n = len(sigma)
    formulas = [s.parse(f) for f in ("diamond(diamond(diamond(diamond(diamond(p)))))",
                                     "box(box(box(c0))) | diamond(box(diamond(p)))",
                                     "box(diamond(box(box(p)) -> p)) & diamond(c1)")]
    for valuation in ([[1]] * n, [[i % 2] for i in range(n)]):
        m = load_model(s, {"states": n, "valuation": valuation, "sigma": sigma})
        _assert_images_match_nested_oracle(s, m, formulas, top=5)
        images = ModelImages(s, m, 5)
        levels = len({id(ids) for ids in images.ids})
        assert images.ids[5] is images.ids[levels - 1]
        if valuation == [[1]] * n:
            assert levels == computed


@pytest.mark.parametrize("kind", STOP_LEVEL_MODELS)
def test_sigma_k_past_the_fixed_point_matches_nested_encoding(kind):
    """Without propositions, boolean powerset stage 4 has 65536 elements, so
    each level's ids encode even where the images stopped refining."""
    s = make_session(propositions=())
    sigma = STOP_LEVEL_MODELS[kind][0]
    m = load_model(s, {"states": len(sigma), "valuation": [[]] * len(sigma), "sigma": sigma})
    tower = StageTower(s)
    for k in range(5):
        assert sigma_k(s, m, k, StageTower(s)) == [tower.encode_full(k, e)
                                                   for e in sigma_states(s, m, k)], k


@pytest.mark.parametrize("functor", FUNCTORS)
def test_sigma_k_matches_nested_encoding(functor):
    s = make_session(functor=functor, propositions=("p",))
    rng = random.Random(f"sigma_k:{functor}")
    encoded = set()
    for _ in range(5):
        m = random_model(s, rng.randrange(1, 4), rng)
        for k in range(4):
            tower = StageTower(s)
            try:
                want = [tower.encode_full(k, e) for e in sigma_states(s, m, k)]
            except BudgetError as exc:
                with pytest.raises(BudgetError) as err:
                    sigma_k(s, m, k, StageTower(s))
                assert str(err.value) == str(exc)
                continue
            assert sigma_k(s, m, k, StageTower(s)) == want, k
            encoded.add(k)
    assert {0, 1} <= encoded


def test_sigma_k_refuses_negative_stage(boolean_ps1):
    m = lemma2_model(boolean_ps1, 0)
    with pytest.raises(InputError, match="negative"):
        sigma_k(boolean_ps1, m, -1)


def test_sigma_k_encode_is_capped_by_the_session_budget():
    """Encoding into neighborhood T(stage 0) walks Hom(stage 0, A), 7^7
    functions on goedel:7 over {p}: the session budget refuses it and is
    the cap the error names."""
    s = make_session(algebra="goedel:7", functor="neighborhood", propositions=("p",),
                     budget=10000)
    m = random_model(s, 1, random.Random("encode budget"))
    with pytest.raises(BudgetError, match=r"encoding into T\(stage 0\)") as err:
        sigma_k(s, m, 1)
    assert err.value.budget == 10000


@pytest.mark.parametrize("functor", FUNCTORS)
def test_truth_lemma_randomized(functor):
    rng = random.Random(hash(functor) % 10**6)
    s = make_session(algebra="lukasiewicz:3", functor=functor, propositions=("p", "q"))
    for _ in range(40):
        m = random_model(s, rng.randrange(1, 4), rng)
        phi = random_formula(s, rng, max_rank=2)
        report = check_truth_lemma(s, m, phi)
        assert report.ok, (functor, s.pretty(phi), report.summary())


def test_truth_lemma_rejects_an_undeclared_proposition_as_eval_model_does(boolean_ps1):
    s = boolean_ps1
    m = load_model(s, {"states": 1, "valuation": [[1]], "sigma": [[0]]})
    phi = Bin("imp", s.parse("box(p)"), Prop("r"))
    with pytest.raises(InputError, match="undeclared proposition 'r'") as want:
        eval_model(s, m, phi)
    with pytest.raises(InputError) as got:
        check_truth_lemma(s, m, phi)
    assert str(got.value) == str(want.value)


def test_truth_lemma_detects_broken_step_semantics(boolean_ps1, monkeypatch):
    s = boolean_ps1
    m = load_model(s, {"states": 1, "valuation": [[1]], "sigma": [[]]})
    import mvmodal.semantics as sem

    class WrongImage(sem.ModelImages):
        """State 0 reads the level-1 image <p=1; {<p=0>}> instead of <p=1; {}>."""

        def __init__(self, session, model, n):
            super().__init__(session, model, n)
            self.forms[0].append((0, None))
            self.forms[1].append((1, frozenset({len(self.forms[0]) - 1})))
            self.tforms[1].append(self.forms[1][-1][1])
            self.ids[1][0] = len(self.forms[1]) - 1

    monkeypatch.setattr(sem, "ModelImages", WrongImage)
    report = check_truth_lemma(s, m, s.parse("box(p)"))
    assert not report.ok
    assert report.violations[0].witness == (0,)


# -- tower section checks -------------------------------------------------------------------


@pytest.mark.parametrize("functor", FUNCTORS)
def test_lemma1_level_one_all_functors(functor):
    s = make_session(functor=functor, propositions=("p",))
    report = check_lemma1(s, 1)
    assert report.ok and report.checked > 0


def test_lemma1_level_two_powerset(boolean_ps1):
    report = check_lemma1(boolean_ps1, 2)
    assert report.ok
    assert report.checked == 512 * 5


def test_lemma1_detects_broken_projection(boolean_ps1, monkeypatch):
    real = StageTower.gamma_table

    def bad_gamma(self, k):
        if k == 0:
            return [1 - nu for nu in real(self, 0)]  # flips the valuation
        return real(self, k)

    monkeypatch.setattr(StageTower, "gamma_table", bad_gamma)
    report = check_lemma1(boolean_ps1, 1)
    assert not report.ok
    assert any(v.law == "projection-retracts-section" for v in report.violations)


def test_lemma1_detects_broken_section(boolean_ps1, monkeypatch):
    real = StageTower.iota_table

    def bad_iota(self, k):
        if k == 0:
            step = self.tsize(0)
            return [(1 - t // step) * step + t % step for t in real(self, 0)]  # flips the valuation
        return real(self, k)

    monkeypatch.setattr(StageTower, "iota_table", bad_iota)
    report = check_lemma1(boolean_ps1, 1)
    assert not report.ok
    assert any(v.law == "closed-form" for v in report.violations)


def _nested_lemma1(s, n, tower, section0=None):
    """The nested checker check_lemma1 replaced: decode_full every stage-n
    element, push it through decoded-level sections, projections and terminal
    maps, and encode_full each composite. section0, when given, is the stage-0
    section as an id table (so a table planted in a tower reaches this
    checker too); else it is nu -> (nu, iota0_id()), as in the tower."""
    report = ValidationReport(subject=f"tower sections at n={n}")
    size_n = tower.size(n)

    def bang(elem):
        return (elem[0], None)

    def pair_push(f):
        return lambda elem: (elem[0], push_delta(s.lat, elem[1], f))

    def iota_dec(k):
        if k:
            return pair_push(iota_dec(k - 1))
        base = push_delta(s.lat, s.functor.decode(tower.size(0), tower.iota0_id()),
                          lambda e: (e, None))
        if section0 is None:
            return lambda elem: (elem[0], base)
        return lambda elem: tower.decode_full(1, section0[elem[0]])

    def gamma_dec(k):
        return pair_push(gamma_dec(k - 1)) if k else bang

    iota_n, gamma_n = iota_dec(n), gamma_dec(n)
    inductive = [bang]
    for k in range(1, n + 1):
        inductive.append(lambda elem, inner=pair_push(inductive[k - 1]): inner(iota_n(elem)))
    closed = [bang]
    for k in range(1, n + 1):
        closed.append(pair_push(closed[k - 1]))
    for t in range(size_n):
        elem = tower.decode_full(n, t)
        for k in range(n + 1):
            a = tower.encode_full(k, inductive[k](elem))
            b = tower.encode_full(k, closed[k](elem))
            report.checked += 1
            if a != b:
                report.fail("closed-form", (n, k, t),
                            f"inductive composite lands at {a}, closed form at {b}")
        report.checked += 2
        if tower.encode_full(n, inductive[n](elem)) != t:
            report.fail("top-is-identity", (n, t), "level-n composite is not the identity")
        if tower.encode_full(n, gamma_n(iota_n(elem))) != t:
            report.fail("projection-retracts-section", (n, t), "gamma after iota moved the element")
    return report


def _outcome(check, *args):
    try:
        return check(*args).to_dict()
    except (BudgetError, InputError) as exc:
        return f"{type(exc).__name__}: {exc}"


class PlantedSection(StageTower):
    """A tower whose stage-k section table is the given id table."""

    def __init__(self, session, k, table):
        super().__init__(session)
        self.planted = k, table

    def iota_table(self, k):
        return self.planted[1] if k == self.planted[0] else super().iota_table(k)


@pytest.mark.parametrize("props", [("p",), ("p", "q")])
@pytest.mark.parametrize("functor", FUNCTORS)
@pytest.mark.parametrize("algebra", ["boolean", "lukasiewicz:3"])
def test_lemma1_matches_nested_checker(algebra, functor, props):
    """check_lemma1 (integer tables) against the nested checker, report for
    report and error for error, on the canonical tower and on one whose
    stage-0 section moves the valuation, so that the laws fail."""
    for iota0 in (None, 0, 1, 3):
        s = make_session(algebra=algebra, functor=functor, propositions=props, iota0=iota0,
                         budget=1000)
        for n in range(3):
            want = _outcome(_nested_lemma1, s, n, StageTower(s))
            assert _outcome(check_lemma1, s, n, StageTower(s)) == want, (iota0, n)
            if n == 0 or isinstance(want, str):
                continue
            V, step = s.valuations.size, StageTower(s).tsize(0)
            section0 = [(nu + 1) % V * step + (nu * 7 + 1) % step for nu in range(V)]
            want = _outcome(_nested_lemma1, s, n, StageTower(s), section0)
            assert not want["ok"]
            tower = PlantedSection(s, 0, section0)
            assert _outcome(check_lemma1, s, n, tower) == want, ("planted iota0", iota0, n)


def test_check_lemma1_refutes_wrong_section_table(boolean_ps1):
    """An in-range but wrong iota1 is read by the checker and refuted."""
    assert check_lemma1(boolean_ps1, 2).ok
    report = check_lemma1(boolean_ps1, 2, PlantedSection(boolean_ps1, 1, [0] * 8))
    assert not report.ok
    first = report.to_dict()["violations"][0]
    assert (first["law"], first["witness"]) == ("closed-form", [2, 2, 2])


def test_stage_coherence(boolean_ps1):
    s = boolean_ps1
    report = check_stage_coherence(s, s.parse("box(p)"), 2, 1)
    assert report.ok and report.checked == 512
    report = check_stage_coherence(s, s.parse("p"), 1, 0)
    assert report.ok
    with pytest.raises(InputError):
        check_stage_coherence(s, s.parse("box(p)"), 2, 0)
