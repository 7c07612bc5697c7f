"""Acceptance battery: one pass/fail line per criterion under ``pytest -v``.

Every comparison is exact lattice equality (integer carrier indices), so the
tolerance everywhere is zero. Tests that carry a wall-clock cap measure it
themselves and fail if exceeded.
"""
import json
import random
import time

from mvmodal import (Powerset, PredicateLifting, StageTower, builtin_lattice,
                     check_derivation, check_lemma1, check_naturality,
                     check_truth_lemma, decide_ax_a, eval_model, lemma2_model,
                     load_algebra, load_axiom_set, load_derivation,
                     model_consequence, one_step_soundness_report, satisfiable,
                     validate_lattice, validity)
from mvmodal.cli import main
from mvmodal.syntax import rank

from conftest import make_session, random_formula, random_model
from modelsearch import (oracle_finds_satisfying, oracle_refutes_validity,
                         rank1_pool)
from test_proofkit import (AXIOMS, COND_TREE, L3_FACTS, fraction_oracle,
                           invalid_trees, valid_trees)

CHAINS = [("boolean", 2), ("lukasiewicz", 3), ("lukasiewicz", 4),
          ("goedel", 3), ("goedel", 4)]

# (chain, size, table, cell, wrong value); each breaks at least one law
FAULTS = [
    ("boolean", 2, "join", (0, 1), 0),
    ("boolean", 2, "impl", (1, 0), 1),
    ("lukasiewicz", 3, "meet", (2, 1), 2),
    ("lukasiewicz", 3, "mono", (1, 1), 2),
    ("lukasiewicz", 4, "impl", (2, 1), 3),
    ("lukasiewicz", 4, "join", (1, 2), 1),
    ("goedel", 3, "mono", (0, 2), 1),
    ("goedel", 3, "meet", (1, 1), 0),
    ("goedel", 4, "impl", (3, 1), 3),
    ("goedel", 4, "join", (0, 0), 1),
]

# validator law order with each law's arity
LAWS = [("join-commutative", 2), ("meet-commutative", 2), ("mono-commutative", 2),
        ("join-idempotent", 1), ("meet-idempotent", 1), ("join-associative", 3),
        ("meet-associative", 3), ("mono-associative", 3), ("absorption-join", 2),
        ("absorption-meet", 2), ("order-consistency", 2), ("bot-join-identity", 1),
        ("top-meet-identity", 1), ("bot-least", 1), ("integrality", 1), ("mono-unit-top", 1),
        ("residuation", 3)]


def _violates(lat, law: str, w: tuple) -> bool:
    """Independent re-check that the reported witness falsifies the reported law."""
    J, M, T, I = lat.join, lat.meet, lat.mono, lat.impl

    def leq(x, y):
        return int(M[x][y]) == int(x)

    two = {
        "join-commutative": lambda a, b: J[a][b] == J[b][a],
        "meet-commutative": lambda a, b: M[a][b] == M[b][a],
        "mono-commutative": lambda a, b: T[a][b] == T[b][a],
        "absorption-join": lambda a, b: J[a][M[a][b]] == a,
        "absorption-meet": lambda a, b: M[a][J[a][b]] == a,
        "order-consistency": lambda a, b: (M[a][b] == a) == (J[a][b] == b),
    }
    one = {
        "join-idempotent": lambda a: J[a][a] == a,
        "meet-idempotent": lambda a: M[a][a] == a,
        "bot-join-identity": lambda a: J[a][lat.bot] == a,
        "top-meet-identity": lambda a: M[a][lat.top] == a,
        "bot-least": lambda a: M[a][lat.bot] == lat.bot,
        "integrality": lambda a: J[a][lat.top] == lat.top,
        "mono-unit-top": lambda a: T[a][lat.top] == a,
    }
    three = {
        "join-associative": lambda a, b, c: J[J[a][b]][c] == J[a][J[b][c]],
        "meet-associative": lambda a, b, c: M[M[a][b]][c] == M[a][M[b][c]],
        "mono-associative": lambda a, b, c: T[T[a][b]][c] == T[a][T[b][c]],
        "residuation": lambda a, b, c: leq(T[a][b], c) == leq(b, I[a][c]),
    }
    for table in (one, two, three):
        if law in table:
            return not table[law](*w)
    raise AssertionError(f"unknown law {law!r}")


def test_c01_algebra_laws_pass_and_faults_give_correct_witnesses():
    started = time.monotonic()
    for kind, k in CHAINS:
        lat = builtin_lattice(kind, k)
        report = validate_lattice(lat)
        assert report.ok and report.complete
        assert report.checked == sum(k**arity for _, arity in LAWS)
    for kind, k, table, cell, wrong in FAULTS:
        data = builtin_lattice(kind, k).to_dict()
        a, b = cell
        assert data[table][a][b] != wrong, "fault must actually change the table"
        data[table][a][b] = wrong
        bad = load_algebra(data)
        report = validate_lattice(bad)
        assert not report.ok, (kind, k, table, cell)
        first = report.violations[0]
        assert _violates(bad, first.law, first.witness), (kind, k, first)
    assert time.monotonic() - started < 1.0


def test_c02_truth_lemma_500_random_pairs_per_functor():
    started = time.monotonic()
    for functor in ("powerset", "fuzzyhom", "neighborhood", "distribution:2"):
        rng = random.Random(f"truth-{functor}")
        sessions = [make_session(algebra=alg, functor=functor, propositions=props)
                    for alg in ("boolean", "lukasiewicz:3")
                    for props in (("p",), ("p", "q"))]
        for i in range(500):
            s = sessions[i % len(sessions)]
            model = random_model(s, rng.randrange(1, 4), rng)
            phi = random_formula(s, rng, max_rank=2)
            report = check_truth_lemma(s, model, phi)
            assert report.ok and report.complete, (functor, i, report.summary())
    assert time.monotonic() - started < 60.0


def test_c03_tower_sections_exact_through_stage_512():
    started = time.monotonic()
    s = make_session(propositions=("p",))
    tower = StageTower(s)
    assert [tower.size(n) for n in range(3)] == [2, 8, 512]
    for n in range(3):
        report = check_lemma1(s, n, tower)
        assert report.ok and report.complete, report.summary()
    assert time.monotonic() - started < 10.0


_POOL = {}


def _pool_verdicts():
    """Shared by criteria 4-6: 200 rank <= 1 formulas with their validity verdicts."""
    if not _POOL:
        s = make_session()
        tower = StageTower(s)
        pool = rank1_pool(s)
        _POOL["s"], _POOL["tower"], _POOL["pool"] = s, tower, pool
        _POOL["valid"] = [validity(s, phi, tower=tower) for phi in pool]
    return _POOL


def test_c04_validity_agrees_with_model_search_oracle():
    started = time.monotonic()
    cache = _pool_verdicts()
    s, pool = cache["s"], cache["pool"]
    assert len(pool) == 200
    disagreements = []
    for phi, verdict in zip(pool, cache["valid"]):
        refutation = oracle_refutes_validity(s, phi, sweep_states=2)
        if verdict.answer != (refutation is None):
            disagreements.append(s.pretty(phi))
    assert not disagreements
    assert time.monotonic() - started < 300.0


def test_c05_stage_exhaustion_matches_canonical_model_evaluation():
    started = time.monotonic()
    cache = _pool_verdicts()
    s, tower, pool = cache["s"], cache["tower"], cache["pool"]
    canonical = {n: lemma2_model(s, n, tower) for n in (0, 1)}
    for phi, verdict in zip(pool, cache["valid"]):
        holds, _ = model_consequence(s, canonical[rank(phi)], [], phi)
        assert holds == verdict.answer, s.pretty(phi)
    assert time.monotonic() - started < 60.0


def test_c06_finite_model_witnesses_reevaluate_to_top():
    cache = _pool_verdicts()
    s, tower, pool = cache["s"], cache["tower"], cache["pool"]
    canonical = {n: lemma2_model(s, n, tower) for n in (0, 1)}
    top = s.lat.top
    n_sat = n_unsat = 0
    for phi in pool:
        verdict = satisfiable(s, phi, tower=tower)
        if verdict.answer:
            state = verdict.witness["element"]
            assert eval_model(s, canonical[verdict.stage], phi)[state] == top
            n_sat += 1
        else:
            assert oracle_finds_satisfying(s, phi, sweep_states=2) is None
            n_unsat += 1
    assert n_sat > 0 and n_unsat > 0


def test_c07_surrogate_oracle_and_derivation_trees():
    s3 = make_session(algebra="lukasiewicz:3", propositions=("p", "q", "r"))
    assert len(L3_FACTS) == 20
    for prem_texts, conc_text, expected in L3_FACTS:
        premises = [s3.parse(t) for t in prem_texts]
        conclusion = s3.parse(conc_text)
        assert decide_ax_a(s3, premises, conclusion) == expected, (prem_texts, conc_text)
        assert fraction_oracle(s3, premises, conclusion) == expected, (prem_texts, conc_text)

    s = make_session()
    ax = load_axiom_set(s, AXIOMS)
    good = valid_trees()
    assert len(good) == 5
    for tree in good:
        assert check_derivation(s, load_derivation(s, tree), ax).ok, tree
    bad = invalid_trees()
    for tree in bad:
        assert not check_derivation(s, load_derivation(s, tree), ax).ok, tree
    sel = make_session(functor="selection")
    report = check_derivation(sel, load_derivation(sel, COND_TREE),
                              load_axiom_set(sel, []))
    assert not report.ok
    assert len(bad) + 1 == 5


def test_c08_one_step_soundness_pipeline():
    started = time.monotonic()
    s = make_session(propositions=("p",))
    good = load_axiom_set(s, [{"name": "boxtop", "premises": [],
                               "conclusion": "box(c1)"}])
    report = one_step_soundness_report(s, good, ["box"], 1)
    assert report.ok and report.complete
    bad = load_axiom_set(s, [{"name": "boxbot", "premises": [],
                              "conclusion": "box(c0)"}])
    report = one_step_soundness_report(s, bad, ["box"], 1)
    assert not report.ok
    v = next(v for v in report.violations if v.law == "step-n-consequence")
    assert "refuted" in v.detail
    assert v.witness[0] == "boxbot" and isinstance(v.witness[2], int)
    assert time.monotonic() - started < 10.0


def test_c09_naturality_of_all_shipped_liftings_plus_fault_injection():
    for alg in ("boolean", "lukasiewicz:3"):
        for functor in ("powerset", "fuzzyhom", "neighborhood", "selection",
                        "distribution:2"):
            s = make_session(algebra=alg, functor=functor)
            for name in s.registry.arities():
                report = check_naturality(s.registry.get(name), bound=2, budget=10**5)
                assert report.ok, (alg, functor, name, report.summary())
                if not report.complete:
                    # only the selection functor over the 3-chain outgrows the budget
                    assert (alg, functor) == ("lukasiewicz:3", "selection")

    broken = PredicateLifting(
        name="card", arity=1, functor=Powerset(builtin_lattice("boolean")),
        lat=builtin_lattice("boolean"),
        formula="card(f)(X) = |X| mod 2",
        kernel=lambda lat, forms, cols: [len(d) % 2 for d in forms],
    )
    report = check_naturality(broken, bound=2)
    assert not report.ok
    a, b, f_table, h_tables, x = report.violations[0].witness
    assert isinstance(a, int) and isinstance(b, int)


def test_c10_json_battery_is_byte_identical_across_runs(capsys, tmp_path):
    cfg = tmp_path / "luk.json"
    cfg.write_text(json.dumps({"algebra": "lukasiewicz:3", "functor": "powerset",
                               "propositions": ["p"]}))
    battery = [
        ["--json", "valid", "box(p) -> box(p)"],
        ["--json", "valid", "box(p)"],
        ["--json", "sat", "box(c0)"],
        ["--json", "entails", "box(p)", "box(p -> q)", "box(q)"],
        ["--json", "stage", "1", "--dump"],
        ["--json", "rank", "box(box(p))"],
        ["--json", "liftings"],
        ["--json", "check", "lemma1", "1"],
        ["--json", "check", "naturality", "diamond"],
        ["--json", "check", "preservation", "box", "--alpha", "1",
         "--family-bound", "1"],
        ["--json", "--config", str(cfg), "valid", "p | (p -> c0)"],
        ["--json", "valid", "p -> "],  # error objects must be stable too
    ]
    runs = []
    for _ in range(2):
        chunks = []
        for argv in battery:
            main(argv)
            chunks.append(capsys.readouterr().out)
        runs.append(chunks)
    assert runs[0] == runs[1]
    for chunk in runs[0]:
        json.loads(chunk)
