"""The --json stdout and exit code of a fixed battery of CLI calls, compared
byte for byte with tests/golden/cli_json.txt, so that a change of output
shows against the committed tree and not only between two runs of one tree.

The battery is criterion c10's, one witness-bearing valid, sat and entails
per functor, one eval --model, check truth-lemma and check naturality per
functor, one check derivation, one check axioms, and one malformed formula
per ParseError message. Regenerate the golden file only for an
intended change of output:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/golden/cli_json.txt
"""
import contextlib
import io
import json
import shlex
import tempfile
from pathlib import Path

from mvmodal.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_json.txt"

LUK_P = {"algebra": "lukasiewicz:3", "functor": "powerset", "propositions": ["p"]}

C10 = [
    (None, ["valid", "box(p) -> box(p)"]),
    (None, ["valid", "box(p)"]),
    (None, ["sat", "box(c0)"]),
    (None, ["entails", "box(p)", "box(p -> q)", "box(q)"]),
    (None, ["stage", "1", "--dump"]),
    (None, ["rank", "box(box(p))"]),
    (None, ["liftings"]),
    (None, ["check", "lemma1", "1"]),
    (None, ["check", "naturality", "diamond"]),
    (None, ["check", "preservation", "box", "--alpha", "1", "--family-bound", "1"]),
    (LUK_P, ["valid", "p | (p -> c0)"]),
    (None, ["valid", "p -> "]),
]

# per functor: its session, a refuted validity, a satisfied formula and a
# refuted consequence; the witness stage must fit the default budget
PQ = ["p", "q"]
WITNESSED = {
    "powerset": ("lukasiewicz:3", PQ, "box(p) -> p", "diamond(p) & box(q)",
                 ["box(p)", "diamond(q)"]),
    "fuzzyhom": ("lukasiewicz:3", PQ, "box(p) -> p", "diamond(p) & box(q)",
                 ["box(p)", "diamond(q)"]),
    "neighborhood": ("boolean", PQ, "box(p) -> p", "box(p) & p", ["box(p)", "box(q)"]),
    "selection": ("boolean", ["p"], "cond(p, c0)", "cond(p, c0) & p",
                  ["cond(p, p)", "cond(c1, p)"]),
    "distribution:2": ("lukasiewicz:3", PQ, "prob(p) -> p", "prob(p) & over(q)",
                       ["prob(p)", "over(q)"]),
}


def _witnessed():
    for functor, (algebra, props, valid, sat, entails) in WITNESSED.items():
        cfg = {"algebra": algebra, "functor": functor, "propositions": props}
        yield cfg, ["valid", valid]
        yield cfg, ["sat", sat]
        yield cfg, ["entails", *entails]


# per functor: a model file over WITNESSED's session, a formula evaluated on
# it, a rank-2 formula for the truth lemma and a lifting checked for
# naturality; two states of each model share their stage-1 image, so the
# pushed transitions merge elements
MODELS = {
    "powerset": ({"states": 3, "valuation": [[2, 0], [1, 2], [1, 2]],
                  "sigma": [[1, 2], [0], [0]]},
                 "box(p) -> diamond(q)", "box(diamond(p) & q) -> diamond(box(q))", "box"),
    "fuzzyhom": ({"states": 3, "valuation": [[2, 0], [1, 2], [1, 2]],
                  "sigma": [[0, 2, 1], [1, 0, 0], [1, 0, 0]]},
                 "box(p) -> diamond(q)", "box(diamond(q)) -> p", "diamond"),
    "neighborhood": ({"states": 3, "valuation": [[1, 0], [0, 1], [0, 1]],
                      "sigma": [[0, 1, 1, 1, 0, 1, 1, 0], [1, 0, 0, 1, 1, 1, 0, 0],
                                [1, 0, 0, 1, 1, 1, 0, 0]]},
                     "box(p & q) -> p", "box(box(q) -> p) -> p", "box"),
    "selection": ({"states": 2, "valuation": [[1], [0]],
                   "sigma": [[0, 1, 2, 3], [3, 2, 1, 0]]},
                  "cond(p, c1) -> p", "cond(cond(p, c1), p) -> cond(p, p)", "cond"),
    "distribution:2": ({"states": 3, "valuation": [[2, 0], [1, 2], [1, 2]],
                        "sigma": [[1, 1, 0], [0, 0, 2], [0, 0, 2]]},
                       "prob(p) -> over(q)", "prob(over(p) -> q)", "over"),
}


def _models():
    for functor, (_, evaluated, lemma, lifting) in MODELS.items():
        algebra, props = WITNESSED[functor][:2]
        cfg = {"algebra": algebra, "functor": functor, "propositions": props}
        model = "{model_" + functor.split(":")[0] + "}"
        yield cfg, ["eval", "--model", model, evaluated]
        yield cfg, ["check", "truth-lemma", "--model", model, lemma]
        yield cfg, ["check", "naturality", lifting]


# rank-3 truth lemmas: states already distinct at level 0, so the image
# partition is stable from level 1; and a 6-state chain, whose partition
# refines at every level
LUK_PQ = {"algebra": "lukasiewicz:3", "functor": "powerset", "propositions": PQ}
BOOL_P = {"algebra": "boolean", "functor": "powerset", "propositions": ["p"]}
DEEP = [
    (LUK_PQ, ["check", "truth-lemma", "--model", "{model_stable}",
              "box(diamond(box(p))) -> diamond(q)"]),
    (BOOL_P, ["check", "truth-lemma", "--model", "{model_chain}",
              "diamond(diamond(diamond(p))) -> box(p)"]),
]

PROOFS = [
    (None, ["check", "derivation", "{derivation}"]),
    (None, ["check", "axioms", "{axioms}", "--n", "1"]),
]

FILES = {
    "derivation": {"rule": "modal", "lifting": "box",
                   "premises": ["box(p)"], "conclusion": "box(p /\\ p)",
                   "child": {"rule": "axa", "premises": ["p"], "conclusion": "p /\\ p"}},
    "axioms": [{"name": "K", "premises": [], "conclusion": "box(p -> q) -> (box(p) -> box(q))"},
               {"name": "boxbot", "premises": [], "conclusion": "box(c0)"}],
    **{"model_" + functor.split(":")[0]: model for functor, (model, *_) in MODELS.items()},
    "model_stable": {"states": 3, "valuation": [[2, 0], [1, 2], [0, 1]],
                     "sigma": [[1, 2], [0], []]},
    "model_chain": {"states": 6, "valuation": [[1], [0], [1], [0], [1], [1]],
                    "sigma": [[1], [2], [3], [4], [5], []]},
}

# one formula per ParseError message of mvmodal.parsing
MALFORMED = [
    "p $ q",                               # unexpected character
    "p -> ",                               # unexpected end of input
    "(p q",                                # expected ')'
    "p q",                                 # trailing input
    "foo(p)",                              # unknown modality
    "box(p, q)",                           # wrong arity
    "r",                                   # undeclared proposition
    "c5",                                  # constant out of range
    "0.3",                                 # numeral naming no carrier element
    "-> p",                                # unexpected token
    "(" * 101 + "p" + ")" * 101,           # formula nests too deep
    " & ".join(["p"] * 102),               # connectives nest too deep
]

CASES = C10 + list(_witnessed()) + list(_models()) + DEEP + PROOFS + [(None, ["valid", f]) for f in MALFORMED]


def render(workdir: Path) -> str:
    """Each case as its command line, its exit code and its --json stdout."""
    paths = {}
    for name, payload in FILES.items():
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    chunks = []
    for i, (cfg, argv) in enumerate(CASES):
        argv = [a.format(**paths) if a.startswith("{") else a for a in argv]
        shown = ["--json", *argv]
        if cfg is not None:
            path = workdir / f"cfg{i}.json"
            path.write_text(json.dumps(cfg))
            argv = ["--config", str(path), *argv]
            shown = ["--config", json.dumps(cfg, sort_keys=True), *shown]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["--json", *argv])
        shown = [a.replace(str(workdir), "$TMP") for a in shown]
        chunks.append(f"$ mvmodal {shlex.join(shown)}\nexit {code}\n{out.getvalue()}")
    return "".join(chunks)


def test_json_stdout_matches_the_golden_file(tmp_path):
    assert render(tmp_path) == GOLDEN.read_text()


def test_golden_battery_covers_every_parse_error_and_witness():
    golden = GOLDEN.read_text()
    assert golden.count("$ mvmodal ") == len(CASES)
    assert golden.count('"kind": "ParseError"') == len(MALFORMED) + 1  # + c10's last
    assert golden.count('"witness": {') == 3 * len(WITNESSED) + 3  # + c10's three


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(render(Path(tmp)), end="")
