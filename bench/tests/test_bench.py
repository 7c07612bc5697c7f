"""The benchmark's own tests: seeded inputs, the reference evaluator, and a
smoke-sized pass of every workload.

    python3 -m pytest bench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import reference
from workloads import OK, REFUSED, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    assert gen.inputs_json(workload, 7) == gen.inputs_json(workload, 7)
    assert gen.inputs_json(workload, 7) != gen.inputs_json(workload, 8)


@pytest.mark.parametrize("workload, key", [("decide", "queries"), ("checks", "ops"),
                                           ("models", "formulas")])
def test_operation_count_is_seed_independent(workload, key):
    assert len({len(gen.make_inputs(workload, s)[key]) for s in (1, 2, 3)}) == 1


def test_budget_queries_do_not_depend_on_the_seed():
    pick = lambda s: [q for q in gen.decide_inputs(s)["queries"] if q["kind"] == "budget"]
    assert pick(1) == pick(2) and len(pick(1)) == 9


# hand-computed tables over the carrier indices 0..k-1, row a, column b
LUK3_FUSE = [[0, 0, 0], [0, 0, 1], [0, 1, 2]]
LUK3_IMP = [[2, 2, 2], [1, 2, 2], [0, 1, 2]]
GOEDEL3_FUSE = [[0, 0, 0], [0, 1, 1], [0, 1, 2]]
GOEDEL3_IMP = [[2, 2, 2], [0, 2, 2], [0, 1, 2]]
LUK4_FUSE = [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 2], [0, 1, 2, 3]]
LUK4_IMP = [[3, 3, 3, 3], [2, 3, 3, 3], [1, 2, 3, 3], [0, 1, 2, 3]]
GOEDEL4_IMP = [[3, 3, 3, 3], [0, 3, 3, 3], [0, 1, 3, 3], [0, 1, 2, 3]]


@pytest.mark.parametrize("algebra, op, table", [
    ("lukasiewicz:3", "fuse", LUK3_FUSE), ("lukasiewicz:3", "imp", LUK3_IMP),
    ("goedel:3", "fuse", GOEDEL3_FUSE), ("goedel:3", "imp", GOEDEL3_IMP),
    ("lukasiewicz:4", "fuse", LUK4_FUSE), ("lukasiewicz:4", "imp", LUK4_IMP),
    ("goedel:4", "imp", GOEDEL4_IMP),
])
def test_reference_chain_matches_hand_tables(algebra, op, table):
    ch = reference.Chain(algebra)
    got = [[ch.index(ch.op(op, a, b)) for b in ch.values] for a in ch.values]
    assert got == table


def test_reference_model_evaluation_by_hand():
    p = gen.prop("p")
    model = {"states": 2, "valuation": [[1], [2]], "sigma": [[0, 1], []]}
    ev = lambda f: reference.eval_model("lukasiewicz:3", "powerset", ["p"], model, f)
    assert ev(gen.mod("box", p)) == [1, 2]        # min(1/2, 1); empty meet is top
    assert ev(gen.mod("diamond", p)) == [2, 0]    # max(1/2, 1); empty join is bottom
    assert ev(gen.fuse(p, p)) == [0, 2]           # 1/2 * 1/2 = 0 in Lukasiewicz
    fz = {"states": 2, "valuation": [[1], [2]], "sigma": [[2, 1], [0, 0]]}
    # box(p)(state 0) = (1 -> 1/2) /\ (1/2 -> 1) = 1/2
    assert reference.eval_model("goedel:3", "fuzzyhom", ["p"], fz, gen.mod("box", p)) == [1, 2]
    ds = {"states": 2, "valuation": [[0], [2]], "sigma": [[1, 1], [0, 2]]}
    # expected truth 1/2 on state 0, 1 on state 1
    assert reference.eval_model("lukasiewicz:3", "distribution:2", ["p"], ds,
                                gen.mod("prob", p)) == [1, 2]


def test_reference_decisions_by_hand():
    p, q = gen.prop("p"), gen.prop("q")
    excluded_middle = gen.join(p, gen.imp(p, gen.const(0)))
    assert reference.decide(gen.session_config("boolean", "powerset", ["p"]),
                            "valid", [excluded_middle])
    assert not reference.decide(gen.session_config("lukasiewicz:3", "powerset", ["p"]),
                                "valid", [excluded_middle])
    K = gen.imp(gen.mod("box", gen.imp(p, q)), gen.imp(gen.mod("box", p), gen.mod("box", q)))
    assert reference.decide(gen.session_config("lukasiewicz:3", "powerset", ["p", "q"]),
                            "valid", [K])
    box_bot = gen.mod("box", gen.const(0))
    cfg = gen.session_config("boolean", "powerset", ["p"])
    assert reference.decide(cfg, "sat", [box_bot])              # the empty successor set
    assert not reference.step1_sound(cfg, (), box_bot)


def test_closed_form_stage_sizes():
    assert gen.stage_size(gen.session_config("lukasiewicz:3", "powerset", ["p", "q"]), 1) == 4608
    assert gen.stage_size(gen.session_config("lukasiewicz:4", "distribution:3", ["p"]), 2) == 354240
    assert gen.stage_size(gen.session_config("boolean", "selection", ["p"]), 1) == 512


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_sized_workload_has_no_unexpected_failure(workload, tmp_path):
    inputs = gen.make_inputs(workload, 3)
    w = WORKLOADS[workload](inputs, tmp_path)
    w.setup()
    w.before_pass()
    ops = w.ops()
    for op in ops[::9] + [op for op in ops if "b-nb-p2" in op.label]:
        status = op.check(op.call())
        assert status == OK or status == REFUSED and "b-nb-p2" in op.label, (op.label, status)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_entry_point_prints_the_contract_line(trace, kind):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "models", "--seed", "1",
                           "--seconds", "0", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 272
    assert {n: m["unit"] for n, m in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[kind]}
    if trace:  # 136 eval_model operations, and one call in each truth-lemma check
        assert line["metrics"]["semantics.eval_model.calls"]["value"] == 272
        assert line["metrics"]["decision.validity.s"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_entry_point_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "decide", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and not proc.stdout.strip()
