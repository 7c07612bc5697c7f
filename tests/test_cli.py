"""End-to-end runs of the command line through in-process main()."""
import contextlib
import io
import json
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvmodal import InputError, Powerset, Session, builtin_lattice, load_algebra, validity
from mvmodal.cli import main

MODEL = {
    "states": 2,
    "valuation": [[1, 0], [0, 1]],
    "sigma": [[1], []],
}

AXIOM_BOXTOP = [{"name": "boxtop", "premises": [], "conclusion": "box(c1)"}]
AXIOM_BOXBOT = [{"name": "boxbot", "premises": [], "conclusion": "box(c0)"}]

TREE_OK = {
    "rule": "modal", "lifting": "box",
    "premises": ["box(p)"], "conclusion": "box(p /\\ p)",
    "child": {"rule": "axa", "premises": ["p"], "conclusion": "p /\\ p"},
}
TREE_BAD = {"rule": "axa", "premises": ["p | q"], "conclusion": "p"}


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_valid_tautology(capsys):
    code, out, err = invoke(capsys, "valid", "p -> p")
    assert code == 0
    assert out.startswith("VALID")
    assert err == ""


def test_valid_refuted_prints_witness(capsys):
    code, out, _ = invoke(capsys, "valid", "box(p)")
    assert code == 1
    assert out.startswith("INVALID")
    assert "witness: element" in out
    assert "box(p) = 0" in out


def test_sat_answers(capsys):
    code, out, _ = invoke(capsys, "sat", "box(p)")
    assert code == 0 and out.startswith("SATISFIABLE")
    code, out, _ = invoke(capsys, "sat", "p /\\ (p -> c0)")
    assert code == 1 and out.startswith("UNSATISFIABLE")


def test_entails_answers(capsys):
    code, out, _ = invoke(capsys, "entails", "p", "q", "p /\\ q")
    assert code == 0 and out.startswith("ENTAILED")
    code, out, _ = invoke(capsys, "entails", "p | q", "p")
    assert code == 1 and out.startswith("NOT ENTAILED")


def test_eval_model_lists_states(capsys, tmp_path):
    path = write_json(tmp_path, "model.json", MODEL)
    code, out, _ = invoke(capsys, "eval", "--model", path, "box(p)")
    assert code == 0
    assert out.splitlines() == ["0\t0", "1\t1"]


def test_stage_dump(capsys):
    code, out, _ = invoke(capsys, "stage", "0", "--dump")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "4 elements"
    assert len(lines) == 5
    assert lines[1].startswith("0\t")


def test_rank(capsys):
    code, out, _ = invoke(capsys, "rank", "box(box(p) | q)")
    assert code == 0
    assert out.strip() == "2"


def test_liftings_table(capsys):
    code, out, _ = invoke(capsys, "liftings")
    assert code == 0
    assert "box\tarity 1" in out
    assert "diamond\tarity 1" in out


POWERSET_ROWS = [("box", 1, "box(f)(X) = meet of f(x) over x in X"),
                 ("diamond", 1, "diamond(f)(X) = join of f(x) over x in X")]
FUZZYHOM_ROWS = [("box", 1, "box(f)(g) = meet over x of g(x) -> f(x)"),
                 ("diamond", 1, "diamond(f)(g) = join over x of g(x) * f(x)")]
PROB_ROW = ("prob", 1, "prob(f)(mu) = sum of f(x)*mu(x), floored onto the chain")


@pytest.mark.parametrize("functor, threshold, rows", [
    ("powerset", None, POWERSET_ROWS),
    ("fuzzyhom", None, FUZZYHOM_ROWS),
    ("neighborhood", None, [("box", 1, "box(f)(N) = N(f)")]),
    ("selection", None, [("cond", 2, "cond(f,g)(s) = meet over x of s(f)(x) -> g(x)")]),
    ("distribution:2", None,
     [PROB_ROW, ("over", 1, "over(f)(mu) = join of alpha with mu(f_alpha) > 1/2")]),
    ("distribution:2", "2/3",
     [PROB_ROW, ("over", 1, "over(f)(mu) = join of alpha with mu(f_alpha) > 2/3")]),
], ids=["powerset", "fuzzyhom", "neighborhood", "selection", "distribution",
        "distribution-threshold"])
def test_liftings_json_per_functor(capsys, tmp_path, functor, threshold, rows):
    cfg = {"algebra": "lukasiewicz:3", "functor": functor, "propositions": ["p"]}
    if threshold is not None:
        cfg["threshold"] = threshold
    code, out, _ = invoke(capsys, "--config", write_json(tmp_path, "cfg.json", cfg),
                          "--json", "liftings")
    assert code == 0
    name = functor.split(":")[0]
    assert json.loads(out) == {"liftings": [
        {"name": n, "arity": a, "functor": name, "formula": f} for n, a, f in rows]}


def test_validate_algebra_pass(capsys, tmp_path):
    path = write_json(tmp_path, "luk3.json", builtin_lattice("lukasiewicz", 3).to_dict())
    code, out, _ = invoke(capsys, "validate-algebra", path)
    assert code == 0
    assert "pass" in out


def test_validate_algebra_corrupted(capsys, tmp_path):
    data = builtin_lattice("lukasiewicz", 3).to_dict()
    data["impl"][1][2] = 0
    path = write_json(tmp_path, "bad.json", data)
    code, out, _ = invoke(capsys, "validate-algebra", path)
    assert code == 1
    assert "FAIL" in out
    assert "violation: residuation" in out


NOT_A_LATTICE = {"name": "bad", "size": 2, "bot": 0, "top": 1,
                 "join": [[0, 1], [1, 1]], "meet": [[0, 1], [0, 0]],
                 "mono": [[0, 0], [0, 1]], "impl": [[1, 1], [0, 1]]}


@pytest.mark.parametrize("argv", [
    ["valid", "box(p -> q) -> (box(p) -> box(q))"],
    ["sat", "box(p)"],
    ["entails", "box(p)", "box(p | q)"],
    ["eval", "--model", "{model}", "p"],
    ["stage", "1"],
    ["rank", "box(p)"],
    ["liftings"],
    ["check", "truth-lemma", "--model", "{model}", "box(p)"],
    ["check", "lemma1", "1"],
    ["check", "naturality", "box"],
    ["check", "preservation", "box", "--alpha", "1"],
    ["check", "axioms", "{axioms}", "--n", "1"],
    ["check", "derivation", "{derivation}"],
], ids=lambda argv: "-".join(argv[:2]))
def test_session_refuses_an_algebra_that_is_not_a_residuated_lattice(capsys, tmp_path, argv):
    """The deciders rest on the lattice laws; on this algebra `valid` ended in
    an internal coherence failure (exit 3) before sessions checked them."""
    files = {"model": write_json(tmp_path, "model.json", MODEL),
             "axioms": write_json(tmp_path, "ax.json", AXIOM_BOXTOP),
             "derivation": write_json(tmp_path, "tree.json", TREE_OK)}
    algebra = write_json(tmp_path, "bad.json", NOT_A_LATTICE)
    cfg = write_json(tmp_path, "cfg.json", {"algebra": algebra, "functor": "powerset",
                                            "propositions": ["p", "q"]})
    argv = [files[a[1:-1]] if a.startswith("{") else a for a in argv]
    code, out, _ = invoke(capsys, "--config", cfg, "--json", *argv)
    assert code == 2
    assert json.loads(out)["error"] == {
        "kind": "InputError",
        "message": "algebra bad is not a residuated lattice: law meet-commutative fails at "
                   "(0, 1) (mvmodal validate-algebra lists every broken law)"}
    code, out, _ = invoke(capsys, "validate-algebra", algebra)
    assert code == 1
    assert out.startswith("algebra bad: FAIL")
    assert out.count("\nviolation: ") == 8


def test_session_built_directly_checks_the_lattice_laws(tmp_path):
    """A Session built from a lattice object refuses it as from_config does;
    validity of K on this algebra used to end in an internal coherence
    failure. A lawful lattice is validated once, then marked."""
    lat = load_algebra(NOT_A_LATTICE)
    with pytest.raises(InputError) as direct:
        Session(lat=lat, functor=Powerset(lat), propositions=("p", "q"))
    algebra = write_json(tmp_path, "bad.json", NOT_A_LATTICE)
    with pytest.raises(InputError) as configured:
        Session.from_config({"algebra": algebra, "propositions": ["p", "q"]})
    assert str(direct.value) == str(configured.value)
    assert "is not a residuated lattice" in str(direct.value)
    assert builtin_lattice("lukasiewicz", 3).lawful
    lat = load_algebra(builtin_lattice("lukasiewicz", 3).to_dict())
    assert not lat.lawful
    s = Session(lat=lat, functor=Powerset(lat), propositions=("p", "q"))
    assert lat.lawful
    assert validity(s, s.parse("box(p -> q) -> (box(p) -> box(q))")).answer


@pytest.mark.parametrize("cfg,argv,verdict", [
    ({"algebra": "lukasiewicz:3", "functor": "powerset", "propositions": ["p", "q", "r"]},
     ["valid", "box(p) /\\ box(q) /\\ box(r) -> box(p /\\ q /\\ r)"], "valid"),
    ({"algebra": "lukasiewicz:3", "functor": "neighborhood", "propositions": ["p", "q"]},
     ["valid", "box(p /\\ q) -> box(q /\\ p)"], "valid"),
    ({"algebra": "lukasiewicz:3", "functor": "selection", "propositions": ["p"]},
     ["entails", "cond(p,p)", "cond(p, p /\\ p)"], "consequence"),
], ids=["powerset", "neighborhood", "selection"])
def test_answered_without_enumerating_types(capsys, tmp_path, cfg, argv, verdict):
    """Each was refused with exit 2 while the modal vectors were read off an
    enumeration of T(realized types): 2^27, 3^(3^3) and (3^3)^(3^3) elements."""
    code, out, _ = invoke(capsys, "--config", write_json(tmp_path, "cfg.json", cfg), "--json", *argv)
    assert code == 0
    assert json.loads(out) == {"answer": True, "mode": verdict, "stage": 1, "witness": None}


def test_modal_vectors_over_budget_are_refused(capsys, tmp_path):
    """Three distinct argument columns give 2^3 neighborhood vectors, over a
    budget of 4 that the level-0 types fit."""
    cfg = write_json(tmp_path, "cfg.json", {"algebra": "boolean", "functor": "neighborhood",
                                            "propositions": ["p", "q"], "budget": 4})
    code, out, _ = invoke(capsys, "--config", cfg, "--json", "valid",
                          "box(p) /\\ box(q) -> box(p /\\ q)")
    assert code == 2
    assert json.loads(out) == {"error": {
        "kind": "BudgetError",
        "message": "budget exceeded: modal vectors at level 1 has more than 4 elements (cap 4)"}}


@pytest.mark.parametrize("change", [
    {"size": 2.7}, {"top": True}, {"join": [[0, 1.9], [1, 1]]}, {"meet": [[0, True], [0, 1]]},
    {"labels": [0, 1]}, {"labels": "ab"}, {"values": 5}, {"values": "01"}, {"labels": ["0", "0"]},
], ids=["float-size", "bool-top", "float-entry", "bool-entry", "int-labels", "string-labels",
        "int-values", "string-values", "repeated-labels"])
def test_mistyped_algebra_file_is_input_error(capsys, tmp_path, change):
    path = write_json(tmp_path, "alg.json", {**builtin_lattice("boolean", 2).to_dict(), **change})
    code, out, _ = invoke(capsys, "--json", "validate-algebra", path)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "InputError"
    cfg = write_json(tmp_path, "cfg.json", {"algebra": path, "propositions": ["p"]})
    code, out, _ = invoke(capsys, "--config", cfg, "--json", "valid", "p | (p -> c0)")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "InputError"


def test_check_truth_lemma(capsys, tmp_path):
    path = write_json(tmp_path, "model.json", MODEL)
    code, out, _ = invoke(capsys, "check", "truth-lemma", "--model", path, "box(p) | q")
    assert code == 0
    assert "pass" in out


def test_check_lemma1(capsys):
    code, out, _ = invoke(capsys, "check", "lemma1", "1")
    assert code == 0
    assert "pass" in out


def test_cache_dir_is_accepted_and_ignored(capsys, tmp_path):
    cfg = write_json(tmp_path, "cfg.json", {"propositions": ["p"],
                                            "cache_dir": str(tmp_path / "cache")})
    code, out, _ = invoke(capsys, "--config", cfg, "check", "lemma1", "2")
    assert code == 0 and out.startswith("tower sections at n=2: pass, 2560 cases checked")
    assert invoke(capsys, "--config", cfg, "sat", "box(box(p)) & p")[0] == 0
    assert not (tmp_path / "cache").exists()


def test_check_naturality(capsys):
    code, out, _ = invoke(capsys, "check", "naturality", "box")
    assert code == 0
    code, _, err = invoke(capsys, "check", "naturality", "nosuch")
    assert code == 2
    assert err.startswith("ERROR InputError")


def test_check_preservation(capsys):
    code, out, _ = invoke(capsys, "check", "preservation", "box", "--alpha", "1",
                          "--family-bound", "1")
    assert code == 0
    # with two formulas on the right, box joins cuts it cannot reach
    code, out, _ = invoke(capsys, "check", "preservation", "box", "--alpha", "1")
    assert code == 1
    assert "violation: alpha-preservation" in out
    code, _, err = invoke(capsys, "check", "preservation", "box", "--alpha", "0.37")
    assert code == 2
    assert "names no carrier value" in err


def test_preservation_skips_family_counts_over_budget(capsys, tmp_path):
    """Base sizes whose number of family pairs exceeds the budget are skipped
    instead of enumerated; the sizes within budget are checked as before."""
    cfg = write_json(tmp_path, "cfg.json", {"budget": 1000})
    code, out, _ = invoke(capsys, "--config", cfg, "--json", "check", "preservation", "box",
                          "--alpha", "1", "--bound", "6", "--family-bound", "1")
    report = json.loads(out)
    assert code == 0 and report["ok"] and not report["complete"]
    assert report["checked"] == sum((1 + 2**n) * 2**n for n in range(5))
    assert report["skipped"] == ["base size 5: 1056 family pairs exceed budget 1000",
                                 "base size 6: 4160 family pairs exceed budget 1000"]


def test_check_axioms(capsys, tmp_path):
    path = write_json(tmp_path, "ax.json", AXIOM_BOXTOP)
    code, out, _ = invoke(capsys, "check", "axioms", path, "--n", "1")
    assert code == 0
    path = write_json(tmp_path, "ax2.json", AXIOM_BOXBOT)
    code, out, _ = invoke(capsys, "check", "axioms", path, "--n", "1")
    assert code == 1
    assert "refuted" in out


def check_axioms_json(capsys, tmp_path, cfg, axioms, n):
    code, out, _ = invoke(capsys, "--config", write_json(tmp_path, "cfg.json", cfg), "--json",
                          "check", "axioms", write_json(tmp_path, "ax.json", axioms),
                          "--n", str(n))
    return code, json.loads(out)


@pytest.mark.parametrize("conclusion,code", [("prob(c2)", 0), ("prob(c0)", 1)])
def test_check_axioms_without_propositions_over_a_large_stage(capsys, tmp_path,
                                                              conclusion, code):
    """Stage 1 has 18 elements, so there are 3^18 stage-1 truth functions; an
    axiom without propositions has one (empty) assignment and never lists them."""
    cfg = {"algebra": "lukasiewicz:3", "functor": "distribution:2", "propositions": ["p"]}
    got, report = check_axioms_json(capsys, tmp_path, cfg,
                                    [{"name": "ax", "conclusion": conclusion}], 2)
    assert got == code
    if code == 0:
        assert report["checked"] == 1
    else:
        (v,) = report["violations"]
        assert v["detail"].startswith("refuted; axiom 'ax' fails at ")


@pytest.mark.parametrize("functor,box", [("powerset", "box"), ("distribution:2", "prob")])
def test_check_axioms_certifies_over_budget_sweeps(capsys, tmp_path, functor, box):
    """K and monotonicity have (3^9)^2 stage-0 assignments on {p, q}, over the
    sweep budget; the stage-1 certificate passes them and says they were not swept."""
    cfg = {"algebra": "lukasiewicz:3", "functor": functor, "propositions": ["p", "q"]}
    axioms = [{"name": "K", "premises": [f"{box}(p)", f"{box}(p -> q)"],
               "conclusion": f"{box}(q)"},
              {"name": "M", "premises": [f"{box}(p /\\ q)"], "conclusion": f"{box}(p)"}]
    code, report = check_axioms_json(capsys, tmp_path, cfg, axioms, 1)
    assert code == 0 and report["ok"] and report["checked"] == 2
    assert report["notes"][:2] == [
        f"axiom {name!r} certified on stage 1, not swept: its (3^9)^2 assignments "
        "are over budget" for name in ("K", "M")]


def test_check_axioms_refutes_over_budget_sweep_at_stage_one(capsys, tmp_path):
    cfg = {"algebra": "lukasiewicz:3", "functor": "fuzzyhom", "propositions": ["p", "q"]}
    axioms = [{"name": "K", "premises": ["box(p)", "box(p -> q)"], "conclusion": "box(q)"}]
    code, report = check_axioms_json(capsys, tmp_path, cfg, axioms, 1)
    assert code == 1
    (v,) = report["violations"]
    assert v["witness"] == ["K", "(('p', 'p'), ('q', 'q'))", 243]
    assert v["detail"] == ("refuted; axiom 'K' fails at <p=0,q=0; fz{<p=0.5,q=0>:0.5}> "
                           "under {'p': 'p', 'q': 'q'}")


def test_check_axioms_refutes_under_the_identity_assignment(capsys, tmp_path):
    """The failing assignment reported is p -> p, which every formula p
    realizes, at the first stage-1 element where the axiom fails."""
    cfg = {"algebra": "goedel:3", "functor": "fuzzyhom", "propositions": ["p"]}
    axioms = [{"name": "collapse", "premises": ["diamond(p)"], "conclusion": "box(p)"}]
    code, report = check_axioms_json(capsys, tmp_path, cfg, axioms, 1)
    assert code == 1 and report["checked"] == 0
    (v,) = report["violations"]
    assert v["witness"] == ["collapse", "(('p', 'p'),)", 8]
    assert v["detail"] == ("refuted; axiom 'collapse' fails at <p=0; fz{<p=0.5>:1, <p=1>:1}> "
                           "under {'p': 'p'}")


@pytest.mark.parametrize("n,element,description", [
    (2, 15, "<p=0; ds{<p=1; ds{<p=0>:2/2}>:2/2}>"),
    (3, 672, "<p=0; ds{<p=1; ds{<p=0; ds{<p=0>:2/2}>:2/2}>:2/2}>"),
], ids=["n2", "n3"])
def test_check_axioms_refutes_at_deeper_stages(capsys, tmp_path, n, element, description):
    """At n = 3 the (2^42) stage-2 assignments are over budget, yet the axiom
    is refuted under p -> p all the same."""
    cfg = {"algebra": "boolean", "functor": "distribution:2", "propositions": ["p"]}
    axioms = [{"name": "probp", "premises": ["prob(p)"], "conclusion": "p"}]
    code, report = check_axioms_json(capsys, tmp_path, cfg, axioms, n)
    assert code == 1
    (v,) = report["violations"]
    assert v["witness"] == ["probp", "(('p', 'p'),)", element]
    assert v["detail"] == f"refuted; axiom 'probp' fails at {description} under {{'p': 'p'}}"


CONSTANT_TOWER = {"algebra": "lukasiewicz:3", "functor": "distribution:2", "propositions": []}


@pytest.mark.parametrize("argv,code,start", [
    (["check", "lemma1", "1000"], 0, "tower sections at n=1000: pass, 1003 cases checked"),
    (["stage", "200", "--dump"], 0, "1 elements\n0\t<-; ds{<-; ds{"),
    (["check", "axioms", "{axioms}", "--n", "400"], 1,
     "step-400 soundness: FAIL, 0 cases checked"),
], ids=["lemma1", "dump", "axioms"])
def test_deep_stages_of_a_constant_tower(capsys, tmp_path, argv, code, start):
    """Every stage has one element, so deep stages fit the budget; building
    their tables and descriptions must not recurse once per stage."""
    cfg = write_json(tmp_path, "cfg.json", CONSTANT_TOWER)
    axioms = write_json(tmp_path, "ax.json", [{"name": "bot", "conclusion": "prob(c0)"}])
    got, out, err = invoke(capsys, "--config", cfg,
                           *[a.replace("{axioms}", axioms) for a in argv])
    assert (got, err) == (code, "")
    assert out.startswith(start)


def test_stage_size_of_a_constant_tower_is_answered_at_once(capsys, tmp_path):
    """Sizing the stages one by one up to 10^12 would run for hours; the
    alarm ends such a run as an error after 10 s."""
    def late(*_):
        raise TimeoutError("stage sizes were walked one by one")

    cfg = write_json(tmp_path, "cfg.json", CONSTANT_TOWER)
    previous = signal.signal(signal.SIGALRM, late)
    signal.alarm(10)
    try:
        code, out, _ = invoke(capsys, "--config", cfg, "stage", "1000000000000")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out) == (0, "1 elements\n")


@pytest.mark.parametrize("cfg,n,checked", [
    ({"algebra": "lukasiewicz:3", "functor": "distribution:2", "propositions": ["p"]}, 3,
     2373138),
    ({"algebra": "boolean", "functor": "neighborhood", "propositions": ["p", "q"]}, 1,
     1048576),
], ids=["distribution", "neighborhood"])
def test_lemma1_at_the_largest_in_budget_stage(capsys, tmp_path, cfg, n, checked):
    """Building each T(f) table element by element through decode and encode
    took minutes on the first session (a binomial per position at 513
    points) and seconds on the second (65 536 tables re-encoded per map);
    the alarm ends a run that slow as an error after 60 s."""
    def late(*_):
        raise TimeoutError("T(f) tables were built element by element")

    path = write_json(tmp_path, "cfg.json", cfg)
    previous = signal.signal(signal.SIGALRM, late)
    signal.alarm(60)
    try:
        code, out, _ = invoke(capsys, "--config", path, "--json", "check", "lemma1", str(n))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    report = json.loads(out)
    assert (report["ok"], report["checked"]) == (True, checked)


def test_check_derivation(capsys, tmp_path):
    tree = write_json(tmp_path, "ok.json", TREE_OK)
    code, out, _ = invoke(capsys, "check", "derivation", tree)
    assert code == 0
    tree = write_json(tmp_path, "bad.json", TREE_BAD)
    code, out, _ = invoke(capsys, "check", "derivation", tree)
    assert code == 1
    assert "violation:" in out


TREE_AXLAMBDA = {"rule": "axlambda", "axiom": "boxtop", "substitution": {"p": "q"},
                 "premises": [], "conclusion": "box(c1)"}


@pytest.mark.parametrize("verb,contents,where", [
    ("derivation", {**TREE_AXLAMBDA, "substitution": [1, 2]}, "root: substitution must map"),
    ("derivation", {**TREE_AXLAMBDA, "substitution": "pq"}, "root: substitution must map"),
    ("derivation", {**TREE_AXLAMBDA, "substitution": {"p": 3}}, "root: substitution must map"),
    ("derivation", {**TREE_AXLAMBDA, "axiom": 5}, "root: axiom must be a string"),
    ("derivation", {**TREE_BAD, "conclusion": 5}, "root: conclusion must be a formula string"),
    ("derivation", {**TREE_BAD, "premises": "p"}, "root: premises must be a list"),
    ("derivation", {**TREE_OK, "lifting": ["box"]}, "root: lifting must be a string"),
    ("derivation", {**TREE_OK, "child": {**TREE_BAD, "premises": [["p"]]}},
     "root.child: premises must be a list"),
    ("axioms", [{**AXIOM_BOXTOP[0], "premises": "box(p)"}], "axiom #0: premises must be a list"),
    ("axioms", [{**AXIOM_BOXTOP[0], "conclusion": ["box(c1)"]}],
     "axiom #0: conclusion must be a formula string"),
    ("axioms", [AXIOM_BOXTOP[0], {**AXIOM_BOXBOT[0], "name": 5}],
     "axiom #1: name must be a string"),
    ("axioms", b"\xff\xfe[]", "unreadable JSON"),
    ("derivation", b"[" * 5000, "unreadable JSON"),
], ids=["list-substitution", "string-substitution", "int-image", "int-axiom", "int-conclusion",
        "string-premises", "list-lifting", "nested-premise", "axiom-string-premises",
        "axiom-list-conclusion", "int-name", "not-utf8", "nested-too-deeply"])
def test_malformed_proof_files_are_input_errors(capsys, tmp_path, verb, contents, where):
    """Axiom and derivation files read formulas only from strings, names only
    from strings, and substitutions only from objects of strings."""
    path = tmp_path / "file.json"
    path.write_bytes(contents if isinstance(contents, bytes) else json.dumps(contents).encode())
    axioms = write_json(tmp_path, "ax.json", AXIOM_BOXTOP)
    argv = ["check", "axioms", str(path), "--n", "1"] if verb == "axioms" else \
        ["check", "derivation", str(path), "--axioms", axioms]
    code, out, _ = invoke(capsys, "--json", *argv)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "InputError" and where in error["message"]


def test_json_output_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = invoke(capsys, "--json", "valid", "box(p) -> box(p)")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    payload = json.loads(runs[0])
    assert payload["answer"] is True
    assert payload["witness"] is None


def test_json_witness_payload(capsys):
    code, out, _ = invoke(capsys, "--json", "valid", "box(p)")
    assert code == 1
    payload = json.loads(out)
    assert payload["answer"] is False
    assert payload["witness"]["values"]["box(p)"] == "0"


def test_parse_error_text_goes_to_stderr(capsys):
    code, out, err = invoke(capsys, "valid", "p -> ")
    assert code == 2
    assert out == ""
    assert err.startswith("ERROR ParseError")


def test_parse_error_json_object(capsys):
    code, out, _ = invoke(capsys, "--json", "valid", "p -> ")
    assert code == 2
    payload = json.loads(out)
    assert payload["error"]["kind"] == "ParseError"


def test_missing_file_is_exit_two(capsys, tmp_path):
    code, _, err = invoke(capsys, "eval", "--model", str(tmp_path / "nope.json"), "p")
    assert code == 2
    assert err.startswith("ERROR")


def test_timing_goes_to_stderr(capsys):
    code, out, err = invoke(capsys, "--timing", "rank", "p")
    assert code == 0
    assert out.strip() == "0"
    assert "elapsed:" in err


def test_config_file_switches_algebra(capsys, tmp_path):
    cfg = write_json(tmp_path, "luk.json", {
        "algebra": "lukasiewicz:3",
        "functor": "powerset",
        "propositions": ["p"],
    })
    code, out, _ = invoke(capsys, "--config", cfg, "valid", "p | (p -> c0)")
    assert code == 1
    assert "0.5" in out
    code, out, _ = invoke(capsys, "--config", cfg, "valid", "(p & p) | ((p & p) -> c0)")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["stage", "-1"],
    ["check", "lemma1", "-1"],
    ["check", "naturality", "box", "--bound", "-1"],
    ["check", "preservation", "box", "--alpha", "1", "--bound", "-1"],
    ["check", "preservation", "box", "--alpha", "1", "--family-bound", "-1"],
])
def test_negative_sizes_are_input_errors(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("ERROR InputError")


def test_negative_derivation_stratum_is_input_error(capsys, tmp_path):
    tree = write_json(tmp_path, "ok.json", TREE_OK)
    code, _, err = invoke(capsys, "check", "derivation", tree, "--n", "-1")
    assert code == 2
    assert err.startswith("ERROR InputError")


@pytest.mark.parametrize("key,value", [
    ("budget", "x"), ("budget", 1.5), ("budget", True), ("iota0", "x"), ("iota0", 0.5),
])
def test_non_integer_config_values_are_input_errors(capsys, tmp_path, key, value):
    cfg = write_json(tmp_path, "cfg.json", {"propositions": ["p"], key: value})
    code, out, _ = invoke(capsys, "--config", cfg, "--json", "valid", "p -> p")
    assert code == 2
    payload = json.loads(out)
    assert payload["error"]["kind"] == "InputError"
    assert key in payload["error"]["message"]


def test_null_threshold_means_the_default(capsys, tmp_path):
    cfg = {"algebra": "lukasiewicz:3", "functor": "distribution:2", "propositions": ["p"]}
    runs = []
    for name, extra in (("absent.json", {}), ("null.json", {"threshold": None})):
        path = write_json(tmp_path, name, {**cfg, **extra})
        runs.append(invoke(capsys, "--config", path, "--json", "valid", "over(p) -> p"))
    assert runs[0] == runs[1]
    code, out, _ = runs[1]
    assert code == 1
    assert json.loads(out)["witness"]["element"] == 3


@pytest.mark.parametrize("depth,code", [(100, 0), (101, 2)])
def test_nesting_depth_guard(capsys, depth, code):
    for text in ["box(" * depth + "c1" + ")" * depth, "(" * depth + "c1" + ")" * depth]:
        got, out, err = invoke(capsys, "valid", text)
        assert got == code
        if code == 0:
            assert out.startswith("VALID")
        else:
            assert err.startswith("ERROR ParseError") and "deeper than 100" in err


def test_deep_connective_chain_is_input_error(capsys):
    code, _, err = invoke(capsys, "valid", " | ".join(["p"] * 3000))
    assert code == 2
    assert err.startswith("ERROR ParseError")


@pytest.mark.parametrize("key,value", [
    ("propositions", "pq"), ("propositions", 5), ("propositions", [1]),
    ("propositions", [""]), ("propositions", ["p q"]), ("propositions", ["1p"]),
    ("algebra", 5), ("cache_dir", 5),
])
def test_mistyped_config_values_are_input_errors(capsys, tmp_path, key, value):
    cfg = write_json(tmp_path, "cfg.json", {"propositions": ["p"], key: value})
    code, out, _ = invoke(capsys, "--config", cfg, "--json", "valid", "c1")
    assert code == 2
    payload = json.loads(out)
    assert payload["error"]["kind"] == "InputError"
    assert key in payload["error"]["message"]


@pytest.mark.parametrize("functor,change", [
    ("powerset", {"states": "x"}), ("powerset", {"valuation": 5}), ("powerset", {"sigma": 5}),
    ("powerset", {"valuation": [5, [0, 1]]}), ("powerset", {"valuation": [["x", 0], [0, 1]]}),
    ("powerset", {"sigma": ["1", []]}), ("fuzzyhom", {"sigma": [[7, 0], [0, 0]]}),
    ("neighborhood", {"sigma": [[9, 0, 0, 0], [0, 0, 0, 0]]}),
])
def test_mistyped_model_is_input_error(capsys, tmp_path, functor, change):
    cfg = write_json(tmp_path, "cfg.json", {"functor": functor, "propositions": ["p", "q"]})
    model = write_json(tmp_path, "model.json", {**MODEL, **change})
    code, out, _ = invoke(capsys, "--config", cfg, "--json", "eval", "--model", model, "p")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "InputError"


@pytest.mark.parametrize("functor,change,where", [
    ("powerset", {"states": 2.5}, "states"), ("powerset", {"states": "2"}, "states"),
    ("powerset", {"valuation": [[1.9, 0], [0, 1]]}, "valuation[0]: "),
    ("powerset", {"valuation": [[True, 0], [0, 1]]}, "valuation[0]: "),
    ("powerset", {"sigma": [[True], []]}, "sigma[0]: "),
    ("fuzzyhom", {"sigma": [[1.0, 0], [0, 0]]}, "sigma[0]: "),
    ("neighborhood", {"sigma": [[0, 0, 0, 0], [0, 1.5, 0, 0]]}, "sigma[1]: "),
    ("selection", {"sigma": [[0, 1, 2, True], [0, 0, 0, 0]]}, "sigma[0]: "),
    ("distribution:2", {"sigma": [[True, True], [0, 2]]}, "sigma[0]: "),
])
@pytest.mark.parametrize("argv", [["eval"], ["check", "truth-lemma"]])
def test_non_integer_model_values_are_input_errors(capsys, tmp_path, functor, change, where, argv):
    cfg = write_json(tmp_path, "cfg.json", {"functor": functor, "propositions": ["p", "q"]})
    model = write_json(tmp_path, "model.json", {**MODEL, **change})
    code, out, _ = invoke(capsys, "--config", cfg, "--json", *argv, "--model", model, "box(p)")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "InputError" and error["message"].startswith(where)
    assert "must be an integer" in error["message"]


def test_non_integer_distribution_grid_is_input_error(capsys, tmp_path):
    cfg = write_json(tmp_path, "cfg.json", {"functor": {"distribution": {"q": 2.5}}})
    code, out, _ = invoke(capsys, "--config", cfg, "--json", "valid", "c1")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "InputError"


def test_unexpected_exception_is_exit_three(capsys, monkeypatch):
    from mvmodal import cli

    def fault(*args, **kwargs):
        raise RuntimeError("planted fault")

    monkeypatch.setattr(cli, "validity", fault)
    code, out, err = invoke(capsys, "--json", "valid", "p")
    assert code == 3
    assert json.loads(out) == {"error": {"kind": "RuntimeError", "message": "planted fault"}}
    assert "Traceback" in err
    code, out, err = invoke(capsys, "valid", "p")
    assert code == 3 and out == ""
    assert err.rstrip().endswith("ERROR RuntimeError: planted fault")


FUZZ_MODALITIES = {"powerset": {"box": 1, "diamond": 1}, "fuzzyhom": {"box": 1, "diamond": 1},
                   "neighborhood": {"box": 1}, "selection": {"cond": 2},
                   "distribution:2": {"prob": 1, "over": 1}}
ODD_NAMES = ["x_1", "_a", "P", "c0", "c12", "box", "cond", "over", "", "p q", "1p", "p-q", "é"]


def _formulas(arities):
    """Mostly formulas from a small grammar over the session's modalities,
    sometimes random text."""
    def grow(inner):
        binary = st.tuples(inner, st.sampled_from(["&", "/\\", "|", "->", "<->"]), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})")
        modal = st.sampled_from(sorted(arities.items())).flatmap(
            lambda m: st.lists(inner, min_size=m[1], max_size=m[1]).map(
                lambda args: f"{m[0]}({', '.join(args)})"))
        return binary | modal
    atoms = st.sampled_from(["p", "q", "p", "q", "c0", "c1", "1", "0.5"])
    texts = st.text(alphabet="pqbox()&|-><\\/ ,c01.5", max_size=16) | st.text(max_size=8)
    grammar = st.recursive(atoms, grow, max_leaves=5)
    return st.integers(0, 3).flatmap(lambda kind: texts if kind == 0 else grammar)


@st.composite
def _fuzz_cases(draw):
    functor = draw(st.sampled_from(sorted(FUZZ_MODALITIES)))
    props = draw(st.sampled_from([[], ["p"], ["p"], ["p", "q"], ["p", "q", "r"], None]))
    if props is None:  # names the parser may not read, duplicates included
        props = draw(st.lists(st.sampled_from(ODD_NAMES + ["p"]) | st.text(max_size=3),
                              max_size=3))
    cfg = {"algebra": draw(st.sampled_from(["boolean", "lukasiewicz:3", "goedel:3", "goedel:4"])),
           "functor": functor, "propositions": props}
    for key, values in (("budget", st.integers(-3, 10**4)), ("iota0", st.integers(-2, 9))):
        if draw(st.booleans()):
            cfg[key] = draw(values)
    verb = draw(st.sampled_from(["valid", "sat", "entails", "stage", "rank"]))
    formulas = _formulas(FUZZ_MODALITIES[functor])
    if verb == "stage":
        args = [str(draw(st.integers(-2, 3)))]
    elif verb == "entails":
        args = draw(st.lists(formulas, min_size=1, max_size=3))
    else:
        args = [draw(formulas)]
    return cfg, [verb, "--", *args]  # "--": a formula may start with "-"


@settings(max_examples=400, deadline=None)
@given(case=_fuzz_cases(), as_json=st.booleans())
def test_fuzzed_configs_and_formulas_exit_0_1_or_2(tmp_path_factory, case, as_json):
    """Any config and formula gets an answer or a typed error: an exit of 3 is
    a fault of the program."""
    cfg, argv = case
    path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = ["--config", str(path), *(["--json"] if as_json else []), *argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (cfg, argv, err.getvalue()[-2000:])


@pytest.mark.parametrize("algebra,props,argv,code", [
    ("goedel:4", ["p", "q"], ["sat", "p"], 2),
    ("goedel:4", ["p", "q"], ["check", "lemma1", "0"], 2),
    ("goedel:7", ["p"], ["sat", "p"], 0),  # 7^7 table entries: within the budget
])
def test_stage0_section_choice_over_budget_is_budget_error(capsys, tmp_path, algebra, props,
                                                           argv, code):
    """The canonical stage-0 section of a table-valued functor is a table over
    Hom(stage 0, A); past the budget it is refused before it is built."""
    cfg = write_json(tmp_path, "cfg.json", {"algebra": algebra, "functor": "neighborhood",
                                            "propositions": props})
    got, out, err = invoke(capsys, "--config", cfg, *argv)
    assert got == code
    if code == 2:
        assert err.startswith("ERROR BudgetError") and "stage-0 section choice" in err
    else:
        assert out.startswith("SATISFIABLE")


# Small sessions for the file fuzzing: with this budget every enumeration an
# example can reach is refused or takes milliseconds.
FILE_SESSIONS = {
    "powerset": ("boolean", ["p", "q"], [[1], []]),
    "fuzzyhom": ("lukasiewicz:3", ["p"], [[0, 2], [1, 0]]),
    "neighborhood": ("boolean", ["p"], [[0, 1, 0, 1], [1, 1, 0, 0]]),
    "selection": ("boolean", ["p"], [[0, 1, 2, 3], [3, 3, 3, 3]]),
    "distribution:2": ("lukasiewicz:3", ["p"], [[1, 1], [2, 0]]),
}
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(-2, 9) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)


def _paths(value, path=()):
    yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, sub in items:
        yield from _paths(sub, path + (key,))


@st.composite
def _mutated(draw, core):
    """core with up to two parts replaced by junk, dropped or wrapped in a list."""
    value = json.loads(json.dumps(core))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        path = draw(st.sampled_from(list(_paths(value))))
        op = draw(st.sampled_from(["junk", "drop", "wrap"]))
        if not path:
            value = [value] if op == "wrap" else draw(JUNK)
            continue
        parent = value
        for key in path[:-1]:
            parent = parent[key]
        if op == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = [parent[path[-1]]] if op == "wrap" else draw(JUNK)
    return value


def _derivations(formulas, arities, depth=2):
    fields = {"premises": st.lists(formulas, max_size=2), "conclusion": formulas}
    axa = st.fixed_dictionaries({"rule": st.just("axa"), **fields})
    axlambda = st.fixed_dictionaries({
        "rule": st.just("axlambda"), **fields, "axiom": st.sampled_from(["ax0", "ax1", "nope"]),
        "substitution": st.dictionaries(st.sampled_from(["p", "q"]), formulas, max_size=2)})
    if not depth:
        return axa | axlambda
    modal = st.fixed_dictionaries({
        "rule": st.just("modal"), **fields, "lifting": st.sampled_from(sorted(arities)),
        "child": _derivations(formulas, arities, depth - 1)})
    return axa | axlambda | modal


def _numeral(low, high):
    """Mostly an integer in low..high, sometimes text argparse refuses."""
    return st.sampled_from([0, 0, 0, 1]).flatmap(
        lambda junk: st.sampled_from(["x", "1.5", ""]) if junk else st.integers(low, high).map(str))


@st.composite
def _file_cases(draw):
    """(config, {file name: contents}, argv) for one verb that reads a file or
    takes a size: a well-formed core, often mutated, sometimes not JSON at all."""
    functor = draw(st.sampled_from(sorted(FILE_SESSIONS)))
    algebra, props, sigma = FILE_SESSIONS[functor]
    arities = FUZZ_MODALITIES[functor]
    cfg = {"algebra": algebra, "functor": functor, "propositions": props, "budget": 5000}
    formulas = _formulas(arities).map(lambda text: text.replace("q", props[-1]))
    lifting = draw(st.sampled_from([*sorted(arities), "nope"]))
    kind = draw(st.sampled_from(["eval", "truth-lemma", "validate-algebra", "algebra-config",
                                 "axioms", "derivation", "lemma1", "naturality",
                                 "preservation"]))
    if kind in ("eval", "truth-lemma"):
        core = {"states": 2, "valuation": [[1] * len(props), [0] * len(props)], "sigma": sigma}
        argv = [*(["eval"] if kind == "eval" else ["check", "truth-lemma"]),
                "--model", "{file}", "--", draw(formulas)]
    elif kind in ("validate-algebra", "algebra-config"):
        core = builtin_lattice(*draw(st.sampled_from([("boolean", 2), ("lukasiewicz", 3)]))
                               ).to_dict()
        if kind == "algebra-config":
            cfg["algebra"] = "{file}"
        argv = ["validate-algebra", "{file}"] if kind == "validate-algebra" else \
            ["valid", "--", draw(formulas)]
    elif kind == "axioms":
        core = [{"name": f"ax{i}", "premises": draw(st.lists(formulas, max_size=2)),
                 "conclusion": draw(formulas)} for i in range(draw(st.integers(0, 2)))]
        argv = ["check", "axioms", "{file}", "--n", draw(_numeral(-1, 2))]
    elif kind == "derivation":
        core = draw(_derivations(formulas, arities))
        argv = ["check", "derivation", "{file}", "--axioms", "{axioms}"]
        if draw(st.booleans()):
            argv += ["--n", draw(_numeral(-1, 3))]
    else:
        core = None
        argv = {"lemma1": ["check", "lemma1", draw(_numeral(-2, 4))],
                "naturality": ["check", "naturality", lifting, "--bound", draw(_numeral(-2, 2))],
                "preservation": ["check", "preservation", lifting,
                                 "--alpha", draw(st.sampled_from(["0", "1", "0.5", "2", "x"])),
                                 "--bound", draw(_numeral(-2, 4)),
                                 "--family-bound", draw(_numeral(-2, 4))]}[kind]
    files = {}
    if core is not None:
        files["file"] = draw(st.binary(max_size=6)) if draw(st.integers(0, 9)) == 7 else \
            json.dumps(draw(_mutated(core))).encode()
        files["axioms"] = json.dumps([{"name": "ax0", "premises": [], "conclusion": "c1"},
                                      {"name": "ax1", "premises": ["p"],
                                       "conclusion": "p"}]).encode()
    return cfg, files, argv


@settings(max_examples=400, deadline=None)
@given(case=_file_cases(), as_json=st.booleans())
def test_fuzzed_files_and_sizes_exit_0_1_or_2(tmp_path_factory, case, as_json):
    """Every verb that reads a model, algebra, axiom or derivation file, or
    takes a size, ends in an answer or a typed error: an exit of 3 is a fault
    of the program."""
    cfg, files, argv = case
    where = tmp_path_factory.mktemp("fuzz")
    names = {key: str(where / f"{key}.json") for key in ("file", "axioms", "cfg")}
    for key, contents in files.items():
        (where / f"{key}.json").write_bytes(contents)
    cfg = {k: v.format(**names) if isinstance(v, str) else v for k, v in cfg.items()}
    (where / "cfg.json").write_text(json.dumps(cfg))
    argv = ["--config", names["cfg"], *(["--json"] if as_json else []),
            *(a.format(**names) if a in ("{file}", "{axioms}") else a for a in argv)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a malformed size
            code = exc.code
    assert code in (0, 1, 2), (cfg, files, argv, err.getvalue()[-2000:])
