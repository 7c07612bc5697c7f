"""Command-line front end.

Exit codes: 0 affirmative/pass, 1 negative or failed check (with witness),
2 configuration, input, or budget errors, 3 any other (internal) error. With
--json all results, errors included, go to stdout as sorted-key JSON, so
identical configs give byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

from .algebra import load_algebra, validate_lattice
from .decision import consequence, satisfiable, validity
from .lifting import check_alpha_preservation, check_naturality
from .proofkit import (check_derivation, check_step_n_soundness, load_axiom_set,
                       load_derivation)
from .report import BudgetError, InputError, ValidationReport
from .semantics import (StageTower, check_lemma1, check_truth_lemma, eval_model,
                        load_model)
from .session import Session
from .syntax import rank

__all__ = ["main", "run"]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mvmodal",
        description="many-valued coalgebraic modal logic workbench",
    )
    ap.add_argument("--config", metavar="FILE", help="JSON session config")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    ap.add_argument("--timing", action="store_true", help="elapsed time on stderr")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("valid", help="decide validity at stage rank(formula)")
    p.add_argument("formula")
    p = sub.add_parser("sat", help="decide satisfiability with a finite-model witness")
    p.add_argument("formula")
    p = sub.add_parser("entails", help="finite-premise consequence")
    p.add_argument("formulas", nargs="+", metavar="formula",
                   help="premises then the conclusion")
    p = sub.add_parser("eval", help="evaluate on a model file")
    p.add_argument("--model", required=True, metavar="FILE")
    p.add_argument("formula")
    p = sub.add_parser("stage", help="terminal-sequence stage cardinality")
    p.add_argument("n", type=int)
    p.add_argument("--dump", action="store_true", help="list decoded elements")
    p = sub.add_parser("rank", help="modal nesting depth")
    p.add_argument("formula")
    p = sub.add_parser("liftings", help="list the session's predicate liftings")
    p = sub.add_parser("validate-algebra", help="check residuated-lattice laws")
    p.add_argument("file")

    chk = sub.add_parser("check", help="meta-theoretic checkers").add_subparsers(
        dest="what", required=True)
    p = chk.add_parser("truth-lemma", help="model semantics vs stage semantics")
    p.add_argument("--model", required=True, metavar="FILE")
    p.add_argument("formula")
    p = chk.add_parser("lemma1", help="section and projection tables in use against "
                                      "their closed form")
    p.add_argument("n", type=int)
    p = chk.add_parser("naturality", help="lifting naturality on small carriers")
    p.add_argument("lifting")
    p.add_argument("--bound", type=int, default=2)
    p = chk.add_parser("preservation", help="cut preservation of a unary lifting")
    p.add_argument("lifting")
    p.add_argument("--alpha", required=True, help="carrier value label")
    p.add_argument("--bound", type=int, default=2)
    p.add_argument("--family-bound", type=int, default=2)
    p = chk.add_parser("axioms", help="step-n soundness of an axiom set")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p = chk.add_parser("derivation", help="replay a derivation tree")
    p.add_argument("file")
    p.add_argument("--axioms", metavar="FILE")
    p.add_argument("--n", type=int, default=None)
    return ap


def _session(args) -> Session:
    if args.config:
        return Session.from_config(args.config)
    return Session.from_config({"algebra": "boolean", "functor": "powerset",
                                "propositions": ["p", "q"]})


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _witness_lines(witness: dict | None) -> list[str]:
    if witness is None:
        return []
    lines = [f"witness: element {witness['element']} of stage {witness['stage']}",
             f"  {witness['description']}"]
    for k, v in witness["values"].items():
        lines.append(f"  {k} = {v}")
    return lines


def _verdict_exit(args, verdict, yes: str, no: str) -> int:
    lines = [yes if verdict.answer else no]
    lines += _witness_lines(verdict.witness)
    _emit(args, verdict.to_dict(), lines)
    return 0 if verdict.answer else 1


def _report_exit(args, report: ValidationReport) -> int:
    lines = [report.summary()]
    for v in report.violations:
        lines.append(f"violation: {v.law} at {v.witness} [{v.detail}]")
    lines += [f"note: {n}" for n in report.notes]
    _emit(args, report.to_dict(), lines)
    return 0 if report.ok else 1


def run(args) -> int:
    if args.verb == "validate-algebra":
        lat = load_algebra(args.file)
        return _report_exit(args, validate_lattice(lat))

    session = _session(args)

    if args.verb == "valid":
        return _verdict_exit(args, validity(session, session.parse(args.formula)),
                             "VALID", "INVALID")
    if args.verb == "sat":
        return _verdict_exit(args, satisfiable(session, session.parse(args.formula)),
                             "SATISFIABLE", "UNSATISFIABLE")
    if args.verb == "entails":
        *prem_text, conc_text = args.formulas
        verdict = consequence(session, [session.parse(t) for t in prem_text],
                              session.parse(conc_text))
        return _verdict_exit(args, verdict, "ENTAILED", "NOT ENTAILED")
    if args.verb == "eval":
        model = load_model(session, args.model)
        phi = session.parse(args.formula)
        labels = [session.lat.label(v) for v in eval_model(session, model, phi)]
        payload = {"formula": session.pretty(phi), "values": labels}
        _emit(args, payload, [f"{s}\t{lab}" for s, lab in enumerate(labels)])
        return 0
    if args.verb == "stage":
        tower = StageTower(session)
        size = tower.size(args.n)
        payload: dict = {"stage": args.n, "size": size}
        lines = [f"{size} elements"]
        if args.dump:
            payload["elements"] = [tower.describe(args.n, t) for t in range(size)]
            lines += [f"{t}\t{desc}" for t, desc in enumerate(payload["elements"])]
        _emit(args, payload, lines)
        return 0
    if args.verb == "rank":
        phi = session.parse(args.formula)
        _emit(args, {"formula": session.pretty(phi), "rank": rank(phi)}, [str(rank(phi))])
        return 0
    if args.verb == "liftings":
        rows = session.registry.rows()
        lines = [f"{r['name']}\tarity {r['arity']}\t{r['functor']}\t{r['formula']}" for r in rows]
        _emit(args, {"liftings": rows}, lines)
        return 0

    # check subcommands
    if args.what == "truth-lemma":
        model = load_model(session, args.model)
        report = check_truth_lemma(session, model, session.parse(args.formula))
        return _report_exit(args, report)
    if args.what == "lemma1":
        return _report_exit(args, check_lemma1(session, args.n))
    if args.what == "naturality":
        lf = session.registry.get(args.lifting)
        return _report_exit(args, check_naturality(lf, bound=args.bound,
                                                   budget=session.budget))
    if args.what == "preservation":
        lf = session.registry.get(args.lifting)
        alpha = session.lat.index_of_label(args.alpha)
        if alpha is None:
            raise InputError(f"--alpha {args.alpha!r} names no carrier value")
        report = check_alpha_preservation(lf, alpha, set_bound=args.bound,
                                          family_bound=args.family_bound,
                                          budget=session.budget)
        return _report_exit(args, report)
    if args.what == "axioms":
        ax = load_axiom_set(session, args.file)
        return _report_exit(args, check_step_n_soundness(session, ax, args.n))
    if args.what == "derivation":
        ax = load_axiom_set(session, args.axioms) if args.axioms else None
        tree = load_derivation(session, args.file)
        return _report_exit(args, check_derivation(session, tree, ax, args.n))
    raise InputError(f"unhandled verb {args.verb!r}")  # pragma: no cover


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    started = time.monotonic()
    try:
        code = run(args)
    except Exception as exc:
        expected = isinstance(exc, (InputError, BudgetError, OSError, json.JSONDecodeError))
        if not expected:  # a fault of the program, not of its input
            traceback.print_exc()
        kind = type(exc).__name__
        if args.json:
            print(json.dumps({"error": {"kind": kind, "message": str(exc)}},
                             sort_keys=True, indent=2))
        else:
            print(f"ERROR {kind}: {exc}", file=sys.stderr)
        code = 2 if expected else 3
    if args.timing:
        print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
