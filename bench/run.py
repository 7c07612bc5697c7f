"""mvmodal benchmark: one closed-loop, single-process workload per run.

    python3 bench/run.py --workload decide|checks|models --seed N --seconds S --trace 0|1

Run from the root of a source checkout; mvmodal is imported from its src/.
Inputs are generated from the seed before anything is timed. One caller
issues the operations back to back, and whole passes over the fixed
operation list repeat until S seconds have gone by. Every output is checked
after its pass. The last stdout line is one JSON object: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with --trace 1,
both named and with units as in BENCHMARK.json. Details go to bench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from workloads import OK, REFUSED, WORKLOADS  # noqa: E402

SETUP_PROBES = 4  # extra set-ups timed in fresh interpreters


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _probe_setup(args) -> float:
    """Set-up time of the same workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _fingerprint(result) -> str:
    return repr(result.to_dict()) if hasattr(result, "to_dict") else repr(result)


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mvmodal" / "__init__.py").is_file():
        print(f"bench: no mvmodal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # input files are named relative to the checkout
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("MVMODAL_CACHE", None)  # decide and models run without a disk cache
    spec = _load_spec()

    inputs = gen.make_inputs(args.workload, args.seed)
    workdir = OUT.relative_to(ROOT) / f"work-{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](inputs, workdir)
        t0 = time.perf_counter()
        workload.setup()
        setups = [time.perf_counter() - t0]
        if args.setup_probe:
            print(repr(setups[0]))
            return 0
        setups += [_probe_setup(args) for _ in range(SETUP_PROBES)]
        ops = workload.ops()
        return _measure(args, spec, workload, ops, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, spec, workload, ops, setups) -> int:
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    latencies = [[] for _ in ops]
    checked: dict[int, tuple[str, str]] = {}
    pass_times, layer_passes = [], []
    attempted = failed = 0
    mismatches: dict[int, str] = {}
    started = time.perf_counter()
    while True:
        workload.before_pass()
        if tracer:
            tracer.reset()
        results = []
        p0 = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer:
                tracer.begin(i)
            t0 = time.perf_counter()
            try:
                res = op.call()
            except Exception as exc:  # an operation that crashes is a failed one
                res = exc
                if i not in mismatches:
                    traceback.print_exc(file=sys.stderr)
            latencies[i].append(time.perf_counter() - t0)
            if tracer:
                tracer.end()
            results.append(res)
        pass_times.append(time.perf_counter() - p0)
        if tracer:
            layer_passes.append(tracer.metrics())
        for i, res in enumerate(results):
            key = _fingerprint(res)
            if checked.get(i, ("",))[0] != key:
                status = f"raised {res!r}" if isinstance(res, Exception) else ops[i].check(res)
                checked[i] = (key, status)
            status = checked[i][1]
            attempted += 1
            if status != OK:
                failed += 1
            if status not in (OK, REFUSED) and i not in mismatches:
                mismatches[i] = status
                print(f"MISMATCH [{ops[i].label}] {ops[i].detail}: {status}", file=sys.stderr)
        if time.perf_counter() - started >= args.seconds:
            break
    if tracer:
        tracer.uninstall()

    # Each operation's median over the passes, so that a slow spell of the
    # machine during one pass moves no figure.
    per_op = [statistics.median(v) for v in latencies]
    passes = len(pass_times)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    detail = {"workload": args.workload, "seed": args.seed, "passes": passes,
              "ops_per_pass": len(ops), "pass_s": pass_times, "setup_s": setups,
              "op_median_ms": {op.label: 1000 * m for op, m in zip(ops, per_op)},
              "mismatches": {ops[i].label: s for i, s in mismatches.items()}}
    if tracer:
        names = [m["name"] for m in spec["per_layer"]]
        values = {n: statistics.median(p[n] for p in layer_passes) for n in names}
        detail["layers"] = layer_passes
        tracer.write(OUT / f"trace-{tag}.json")
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(per_op),
            "op_ms_p50": 1000 * statistics.median(per_op),
            "op_ms_p95": 1000 * statistics.quantiles(per_op, n=20)[18],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{args.workload}: {passes} passes x {len(ops)} ops, median pass "
          f"{statistics.median(pass_times):.3f} s, {failed} of {attempted} failed",
          file=sys.stderr)
    print(json.dumps({"correct": not mismatches, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": values[n], "unit": units[n]} for n in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
