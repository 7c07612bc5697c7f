"""Each narrative demo runs to completion as a script and prints exactly its
committed output, tests/golden/<demo>.out (the demos are seeded); the README's
Quick start snippet prints what the README says it prints."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_all_six_demos_found():
    assert len(DEMOS) == 6


def _run(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = _run(str(demo))
    assert proc.returncode == 0, proc.stderr


def test_every_demo_has_a_golden_output():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_golden_output(demo):
    proc = _run(str(demo))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{demo.stem}.out").read_text()


def test_readme_quick_start_prints_documented_output():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = _run("-c", snippet)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['1', '0.5']\nFalse\n"
