"""The --help text of mvmodal, of `check` and of every verb and `check`
subverb, compared byte for byte with tests/golden/cli_help.txt, so that a
change of the CLI grammar shows in its help. Help is printed 80 columns
wide, as Python 3.11's argparse lays it out. Regenerate the golden file only
for an intended change of grammar:

    COLUMNS=80 PYTHONPATH=src python tests/test_cli_help.py > tests/golden/cli_help.txt
"""
import contextlib
import io
import os
from pathlib import Path

from mvmodal.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_help.txt"

VERBS = [[], ["valid"], ["sat"], ["entails"], ["eval"], ["stage"], ["rank"],
         ["liftings"], ["validate-algebra"], ["check"],
         *(["check", what] for what in ["truth-lemma", "lemma1", "naturality",
                                        "preservation", "axioms", "derivation"])]


def render() -> str:
    """Each verb path's --help as its command line, exit code and stdout."""
    chunks = []
    for path in VERBS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = main([*path, "--help"])
            except SystemExit as stop:
                code = stop.code
        chunks.append(f"$ mvmodal {' '.join([*path, '--help'])}\nexit {code}\n{out.getvalue()}")
    return "".join(chunks)


def test_help_matches_the_golden_file(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    print(render(), end="")
