"""Command-line front end.

Exit codes: 0 affirmative/pass, 1 negative or failed check (with witness),
2 configuration, input, or budget errors, 3 any other (internal) error. With
--json all results, errors included, go to stdout as sorted-key JSON, so
identical configs give byte-identical output.

The grammar is declared once, in GRAMMAR. build_parser builds the argparse
parser from it, which prints --help and usage and words every error.
_match reads the same table and returns argparse's Namespace for well-formed
argvs without running argparse. It declines, and main falls back to the
parser, wherever argparse could read the argv otherwise or refuse it: a
token that starts with "-" and is neither an option of its level nor spaced
text (so "--", "-h", abbreviations, "--x=y" and negative numbers), a
repeated option, a missing required option or positional, a surplus
positional, an unknown verb, or a value that int() refuses.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from json.encoder import encode_basestring_ascii

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

# verb path -> (help text, dest of its subverb or None, arguments). An
# argument is its name, with a leading "--" for an option, and the keywords
# argparse's add_argument takes; _match reads action="store_true", nargs None
# or "+", type, default and required. A path with a subverb has no
# positionals. The root's help text is the program's description.
GRAMMAR = {
    (): ("many-valued coalgebraic modal logic workbench", "verb", [
        ("--config", {"metavar": "FILE", "help": "JSON session config"}),
        ("--json", {"action": "store_true", "help": "machine-readable output"}),
        ("--timing", {"action": "store_true", "help": "elapsed time on stderr"})]),
    ("valid",): ("decide validity at stage rank(formula)", None, [("formula", {})]),
    ("sat",): ("decide satisfiability with a finite-model witness", None,
               [("formula", {})]),
    ("entails",): ("finite-premise consequence", None, [
        ("formulas", {"nargs": "+", "metavar": "formula",
                      "help": "premises then the conclusion"})]),
    ("eval",): ("evaluate on a model file", None, [
        ("--model", {"required": True, "metavar": "FILE"}), ("formula", {})]),
    ("stage",): ("terminal-sequence stage cardinality", None, [
        ("n", {"type": int}),
        ("--dump", {"action": "store_true", "help": "list decoded elements"})]),
    ("rank",): ("modal nesting depth", None, [("formula", {})]),
    ("liftings",): ("list the session's predicate liftings", None, []),
    ("validate-algebra",): ("check residuated-lattice laws", None, [("file", {})]),
    ("check",): ("meta-theoretic checkers", "what", []),
    ("check", "truth-lemma"): ("model semantics vs stage semantics", None, [
        ("--model", {"required": True, "metavar": "FILE"}), ("formula", {})]),
    ("check", "lemma1"): ("section and projection tables in use against their "
                          "closed form", None, [("n", {"type": int})]),
    ("check", "naturality"): ("lifting naturality on small carriers", None, [
        ("lifting", {}), ("--bound", {"type": int, "default": 2})]),
    ("check", "preservation"): ("cut preservation of a unary lifting", None, [
        ("lifting", {}), ("--alpha", {"required": True, "help": "carrier value label"}),
        ("--bound", {"type": int, "default": 2}),
        ("--family-bound", {"type": int, "default": 2})]),
    ("check", "axioms"): ("step-n soundness of an axiom set", None, [
        ("file", {}), ("--n", {"type": int, "required": True})]),
    ("check", "derivation"): ("replay a derivation tree", None, [
        ("file", {}), ("--axioms", {"metavar": "FILE"}),
        ("--n", {"type": int, "default": None})]),
}
_HELP = ("-h", "--help")  # added by argparse to every level


def build_parser() -> argparse.ArgumentParser:
    subverbs = {}
    for path, (text, subdest, arguments) in GRAMMAR.items():
        if path:
            p = subverbs[path[:-1]].add_parser(path[-1], help=text)
        else:
            p = root = argparse.ArgumentParser(prog="mvmodal", description=text)
        for name, kw in arguments:
            p.add_argument(name, **kw)
        if subdest:
            subverbs[path] = p.add_subparsers(dest=subdest, required=True)
    return root


def _level(subdest, arguments):
    """One path of GRAMMAR as the matcher reads it: (subverb dest, defaults,
    option string -> (dest, type or None, store_true), required dests,
    positionals as (dest, nargs, type or None), every option string)."""
    defaults, options, required, positionals = {}, {}, set(), []
    for name, kw in arguments:
        if name.startswith("-"):
            dest = name.lstrip("-").replace("-", "_")
            flag = kw.get("action") == "store_true"
            defaults[dest] = kw.get("default", False if flag else None)
            options[name] = (dest, kw.get("type"), flag)
            if kw.get("required"):
                required.add(dest)
        else:
            positionals.append((name, kw.get("nargs"), kw.get("type")))
    return subdest, defaults, options, required, positionals, set(options) | set(_HELP)


_LEVELS = {path: _level(subdest, arguments)
           for path, (_, subdest, arguments) in GRAMMAR.items()}


def _is_option(token: str, strings) -> bool:
    """Whether argparse may read token as an option string at a level with
    these option strings; a "-" token with a space and no "=" is text unless
    its first two characters name a short option."""
    return token[:1] == "-" and (" " not in token or "=" in token or token[:2] in strings)


def _take(run: list, positionals: list, values: dict) -> bool:
    """Assign one run of positional tokens as argparse does: as many
    positionals as there are tokens, one token each, the first nargs="+"
    among them taking the surplus. False if a surplus is left over."""
    taken, positionals[:] = positionals[:len(run)], positionals[len(run):]
    surplus = len(run) - len(taken)
    for dest, nargs, typ in taken:
        k = 1 + surplus if nargs == "+" else 1
        surplus -= k - 1
        vals, run = run[:k], run[k:]
        if typ:
            vals = [typ(v) for v in vals]
        values[dest] = vals if nargs == "+" else vals[0]
    return surplus == 0


def _match(argv) -> argparse.Namespace | None:
    """argparse's Namespace for argv, or None where argparse may read argv
    otherwise or refuse it."""
    values, path, i, n = {}, (), 0, len(argv)
    while True:
        subdest, defaults, options, required, positionals, strings = _LEVELS[path]
        values.update(defaults)
        positionals, seen, run = list(positionals), set(), []
        try:
            while i < n:
                token = argv[i]
                if token in options:
                    if run and not _take(run, positionals, values):
                        return None
                    run = []
                    dest, typ, flag = options[token]
                    if dest in seen:
                        return None
                    seen.add(dest)
                    if flag:
                        values[dest] = True
                        i += 1
                    elif i + 1 < n and not _is_option(argv[i + 1], strings):
                        values[dest] = typ(argv[i + 1]) if typ else argv[i + 1]
                        i += 2
                    else:
                        return None
                elif _is_option(token, strings):
                    return None
                elif subdest:
                    break
                else:
                    run.append(token)
                    i += 1
            if run and not _take(run, positionals, values):
                return None
        except ValueError:  # int() refused a value
            return None
        if positionals or not required <= seen:
            return None
        if not subdest:
            return argparse.Namespace(**values)
        if i == n or (*path, argv[i]) not in _LEVELS:
            return None
        values[subdest] = argv[i]
        path, i = (*path, argv[i]), i + 1


def _session(args) -> Session:
    if args.config:
        return Session.from_config(args.config)
    return Session.from_config({"algebra": "boolean", "functor": "powerset",
                                "propositions": ["p", "q"]})


def _dumps(payload) -> str:
    """json.dumps(payload, sort_keys=True, indent=2), byte for byte."""
    try:
        return _encode(payload, "\n")
    except TypeError:  # a value or key _encode does not write
        return json.dumps(payload, sort_keys=True, indent=2)


def _encode(obj, newline: str) -> str:
    """obj as indented JSON, its nested lines starting with newline plus two
    spaces; TypeError for anything but dict, list, tuple, str, int, bool and
    None, or a key that is not a str."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if kind is int:
        return int.__repr__(obj)
    if kind is dict:
        if not obj:
            return "{}"
        inner = newline + "  "
        items = []
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(key)
            items.append(f"{encode_basestring_ascii(key)}: {_encode(obj[key], inner)}")
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([_encode(v, inner) for v in obj]) \
            + newline + "]"
    raise TypeError(obj)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(_dumps(payload))
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
    if argv is None:
        argv = sys.argv[1:]
    args = _match(argv)
    if args is None:
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
            print(_dumps({"error": {"kind": kind, "message": str(exc)}}))
        else:
            print(f"ERROR {kind}: {exc}", file=sys.stderr)
        code = 2 if expected else 3
    if args.timing:
        print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
