"""The three workloads: set-up, operation lists, and output checks.

An operation is one call of a public entry point of mvmodal: a CLI verb run
in-process through ``mvmodal.cli.main([... "--json" ...])`` with stdout
captured, or a library function where no verb fits. ``Op.call`` is the timed
part; ``Op.check`` runs afterwards, untimed, and returns OK, REFUSED (a
budget-refused query the program cannot decide today: a failed operation
whose output is as expected) or a message describing the mismatch.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
from pathlib import Path

import gen
import reference

OK, REFUSED = "ok", "refused"
DEFAULT_BUDGET = 10**6  # the session budget when a config names none


class Op:
    """``label`` names the operation; ``detail`` adds input files' contents."""

    __slots__ = ("label", "call", "check", "detail")

    def __init__(self, label: str, call, check, detail: str = ""):
        self.label, self.call, self.check, self.detail = label, call, check, detail


def run_cli(argv):
    """One in-process CLI invocation; returns (exit code, stdout)."""
    from mvmodal import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return code, out.getvalue()


def _write_json(path: Path, obj) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True))
    return str(path)


def _cli_payload(result):
    code, out = result
    try:
        return code, json.loads(out)
    except ValueError:
        return code, {"error": {"kind": "unparsable stdout", "message": out[:200]}}


def _top(cfg) -> int:
    return gen.chain_size(cfg["algebra"]) - 1


# -- decide ----------------------------------------------------------------------------


class Decide:
    """CLI valid / sat / entails over seeded formula pools, fresh tower per call."""

    def __init__(self, inputs: dict, workdir: Path):
        self.inputs = inputs
        self.cfg_files = {key: _write_json(workdir / "cfg" / f"{key}.json", cfg)
                          for key, cfg in inputs["sessions"].items()}
        self._sessions: dict = {}
        self._canonical: dict = {}

    def setup(self) -> None:
        import mvmodal  # noqa: F401
        import mvmodal.cli  # noqa: F401

    def before_pass(self) -> None:
        pass

    def ops(self) -> list:
        out = []
        for q in self.inputs["queries"]:
            argv = ["--config", self.cfg_files[q["session"]], "--json", q["verb"],
                    *(gen.render(f) for f in q["formulas"])]
            ref = None
            if q["kind"] != "budget" and max(gen.rank(f) for f in q["formulas"]) <= 1:
                ref = reference.decide(self.inputs["sessions"][q["session"]], q["verb"],
                                       q["formulas"])
            label = f"{q['session']} mvmodal {' '.join(argv[2:])}"
            out.append(Op(label, lambda argv=argv: run_cli(argv),
                          lambda res, q=q, ref=ref: self.check(q, ref, res)))
        return out

    def _session(self, key):
        from mvmodal import Session

        if key not in self._sessions:
            self._sessions[key] = Session.from_config(self.inputs["sessions"][key])
        return self._sessions[key]

    def _canonical_values(self, key, stage, texts):
        """Values of the formulas on every state of the canonical stage model."""
        from mvmodal import eval_model, lemma2_model

        session = self._session(key)
        if (key, stage) not in self._canonical:
            self._canonical[(key, stage)] = lemma2_model(session, stage)
        model = self._canonical[(key, stage)]
        return [eval_model(session, model, session.parse(t)) for t in texts]

    def check(self, q, ref, result):
        code, data = _cli_payload(result)
        if "error" in data:
            if q["kind"] == "budget" and code == 2 and data["error"]["kind"] == "BudgetError":
                return REFUSED
            return f"exit {code}: {data['error']}"
        answer = data.get("answer")
        if code != (0 if answer else 1):
            return f"exit code {code} does not match answer {answer}"
        stage = max(gen.rank(f) for f in q["formulas"])
        if data.get("stage") != stage:
            return f"swept stage {data.get('stage')}, want {stage}"
        for name, want in (("forced by the lattice laws", q["expected"]), ("reference", ref)):
            if want is not None and answer != want:
                return f"answer {answer}, {name} says {want}"
        cfg = self.inputs["sessions"][q["session"]]
        top = _top(cfg)
        texts = [gen.render(f) for f in q["formulas"]]
        witnessed = answer if q["verb"] == "sat" else not answer
        if witnessed != (data.get("witness") is not None):
            return f"witness presence does not match answer {answer}"
        if witnessed:
            w = data["witness"]
            if w["stage"] != stage:
                return f"witness on stage {w['stage']}, want {stage}"
            vals = [v[w["element"]] for v in self._canonical_values(q["session"], stage, texts)]
            if q["verb"] == "sat":
                good = vals[0] == top
            elif q["verb"] == "valid":
                good = vals[0] != top
            else:
                good = all(v == top for v in vals[:-1]) and vals[-1] != top
            if not good:
                return f"witness {w['element']} replays to values {vals} on lemma2_model"
            return OK
        # an affirmative valid / entails or a negative sat holds on every model
        for model in self.inputs["probe_models"][q["session"]]:
            vals = [reference.eval_model(cfg["algebra"], cfg["functor"], cfg["propositions"],
                                         model, f) for f in q["formulas"]]
            for s in range(model["states"]):
                at = [v[s] for v in vals]
                if q["verb"] == "sat" and at[0] == top or \
                        q["verb"] != "sat" and all(v == top for v in at[:-1]) and at[-1] != top:
                    return f"answer {answer} contradicted at state {s} of probe model {model}"
        return OK


# -- checks ------------------------------------------------------------------------------


def _report(result):
    code, data = _cli_payload(result)
    if "error" in data:
        return code, None, f"exit {code}: {data['error']}"
    if code != (0 if data["ok"] else 1):
        return code, None, f"exit code {code} does not match ok={data['ok']}"
    return code, data, None


class Checks:
    """The meta-checkers over a disk cache that each pass starts empty."""

    def __init__(self, inputs: dict, workdir: Path):
        self.inputs = inputs
        self.cache = workdir / "cache"
        self.cfgs = {key: {**cfg, "cache_dir": str(self.cache)}
                     for key, cfg in inputs["sessions"].items()}
        self.cfg_files = {key: _write_json(workdir / "cfg" / f"{key}.json", cfg)
                          for key, cfg in self.cfgs.items()}
        self.files = []
        for i, op in enumerate(inputs["ops"]):
            files = {}
            if op["op"] == "axioms":
                files["axioms"] = _write_json(workdir / "ax" / f"{i}.json", [
                    {"name": name, "premises": [gen.render(f) for f in prem],
                     "conclusion": gen.render(conc)} for name, prem, conc in op["axioms"]])
            elif op["op"] == "derivation":
                files["tree"] = _write_json(workdir / "tree" / f"{i}.json", op["tree"])
                files["axioms"] = _write_json(workdir / "ax" / f"d{i}.json", op.get("axioms", []))
            self.files.append(files)
        self.sessions: dict = {}
        self.formulas: dict = {}

    def setup(self) -> None:
        import mvmodal.cli  # noqa: F401
        from mvmodal import Session

        for i, op in enumerate(self.inputs["ops"]):
            if op["op"] == "coherence":
                key = op["session"]
                if key not in self.sessions:
                    self.sessions[key] = Session.from_config(self.cfgs[key])
                self.formulas[i] = self.sessions[key].parse(gen.render(op["formula"]))

    def before_pass(self) -> None:
        shutil.rmtree(self.cache, ignore_errors=True)

    def ops(self) -> list:
        import mvmodal

        out = []
        for i, op in enumerate(self.inputs["ops"]):
            key, kind = op["session"], op["op"]
            cfg = self.inputs["sessions"][key]
            base = ["--config", self.cfg_files[key], "--json", "check"]
            if kind == "coherence":
                session, phi = self.sessions[key], self.formulas[i]
                call = (lambda s=session, f=phi, n=op["n"], m=op["m"]:
                        mvmodal.check_stage_coherence(s, f, n, m))
                label = (f"{key} check_stage_coherence({gen.render(op['formula'])}, "
                         f"{op['n']}, {op['m']})")
                out.append(Op(label, call, lambda rep, n=op["n"], cfg=cfg:
                              self.check_coherence(rep, cfg, n)))
                continue
            if kind == "lemma1":
                argv = base + ["lemma1", str(op["n"])]
                check = lambda res, n=op["n"], cfg=cfg: self.check_lemma1(res, cfg, n)
            elif kind == "axioms":
                argv = base + ["axioms", self.files[i]["axioms"], "--n", str(op["n"])]
                sound = {name: reference.step1_sound(cfg, prem, conc)
                         for name, prem, conc in op["axioms"]}
                check = lambda res, op=op, cfg=cfg, sound=sound: \
                    self.check_axioms(res, cfg, op, sound)
            elif kind == "derivation":
                argv = base + ["derivation", self.files[i]["tree"], "--axioms",
                               self.files[i]["axioms"], "--n", str(op["n"])]
                laws = op["laws"]
                if laws is None:
                    prem, conc = op["axa"]
                    laws = [] if reference.surrogate_consequence(cfg["algebra"], prem, conc) \
                        else ["base-oracle"]
                check = lambda res, op=op, laws=laws: self.check_derivation(res, op, laws)
            elif kind == "naturality":
                argv = base + ["naturality", op["lifting"], "--bound", str(op["bound"])]
                arity = dict(gen.MODALITIES[gen.functor_kind(cfg["functor"])])[op["lifting"]]
                want = reference.naturality_cases(cfg, arity, op["bound"], DEFAULT_BUDGET)
                check = lambda res, want=want: self.check_naturality(res, want)
            else:
                k = gen.chain_size(cfg["algebra"])
                argv = base + ["preservation", op["lifting"], "--alpha",
                               f"{op['alpha']}/{k - 1}", "--bound", str(op["bound"]),
                               "--family-bound", str(op["family_bound"])]
                want = reference.alpha_preservation(cfg, op["lifting"], op["alpha"],
                                                    op["bound"], op["family_bound"])
                check = lambda res, want=want: self.check_preservation(res, want)
            detail = json.dumps({name: json.loads(Path(path).read_text())
                                 for name, path in self.files[i].items()})
            shown = [Path(a).name if a.endswith(".json") else a for a in argv[2:]]
            out.append(Op(f"{key} mvmodal {' '.join(shown)}",
                          lambda argv=argv: run_cli(argv), check, detail))
        return out

    @staticmethod
    def check_coherence(rep, cfg, n):
        want = gen.stage_size(cfg, n)
        if not rep.ok or rep.checked != want:
            return f"stage coherence: ok={rep.ok} checked={rep.checked}, want ok with {want}"
        return OK

    @staticmethod
    def check_lemma1(result, cfg, n):
        code, data, err = _report(result)
        if err:
            return err
        want = (n + 3) * gen.stage_size(cfg, n)
        if not (data["ok"] and data["complete"] and data["checked"] == want):
            return f"lemma1: ok={data['ok']} checked={data['checked']}, want ok with {want}"
        return OK

    @staticmethod
    def check_axioms(result, cfg, op, sound):
        code, data, err = _report(result)
        if err:
            return err
        unsound = {name for name, ok in sound.items() if not ok}
        if data["ok"] != (not unsound):
            return f"axioms: ok={data['ok']}, reference finds unsound {sorted(unsound)}"
        got = {v["witness"][0] for v in data["violations"]}
        if got != unsound or any(v["law"] != "step-n-consequence" for v in data["violations"]):
            return f"axioms: violations name {sorted(got)}, reference finds {sorted(unsound)}"
        k = gen.chain_size(cfg["algebra"])
        for name, prem, conc in op["axioms"]:
            used = set().union(*(gen.props_of(f) for f in (*prem, conc)))
            if name in unsound and (k == 2 or not used):
                detail = next(v["detail"] for v in data["violations"] if v["witness"][0] == name)
                if not detail.startswith("refuted"):
                    return f"axioms: {name} should be refuted by a realized assignment: {detail}"
        if not unsound:
            stage0 = k ** len(cfg["propositions"])
            want = sum((k**stage0) ** len(set().union(*(gen.props_of(f) for f in (*prem, conc))))
                       for _, prem, conc in op["axioms"])
            if data["checked"] != want:
                return f"axioms: checked {data['checked']} assignments, want {want}"
        return OK

    @staticmethod
    def check_derivation(result, op, laws):
        code, data, err = _report(result)
        if err:
            return err
        got = sorted({v["law"] for v in data["violations"]})
        if got != sorted(laws):
            return f"derivation: violations {got}, want {sorted(laws)}"
        if not laws and data["checked"] != op["nodes"]:
            return f"derivation: checked {data['checked']} nodes, want {op['nodes']}"
        return OK

    @staticmethod
    def check_naturality(result, want):
        code, data, err = _report(result)
        if err:
            return err
        cases, complete = want
        if not data["ok"] or data["checked"] != cases or data["complete"] != complete:
            return (f"naturality: ok={data['ok']} checked={data['checked']} "
                    f"complete={data['complete']}, want ok with {cases} complete={complete}")
        return OK

    @staticmethod
    def check_preservation(result, want):
        code, data, err = _report(result)
        if err:
            return err
        holds, cases = want
        if data["ok"] != holds or data["checked"] != cases:
            return (f"preservation: ok={data['ok']} checked={data['checked']}, "
                    f"reference ok={holds} after {cases} cases")
        return OK


# -- models ------------------------------------------------------------------------------


class Models:
    """eval_model and check_truth_lemma on seeded models loaded once."""

    def __init__(self, inputs: dict, workdir: Path):
        self.inputs = inputs
        self.sessions: dict = {}
        self.models: dict = {}
        self.formulas: list = []

    def setup(self) -> None:
        from mvmodal import Session, load_model

        for key, spec in self.inputs["models"].items():
            self.sessions[key] = Session.from_config(spec["config"])
            self.models[key] = load_model(self.sessions[key], spec["model"])
        self.formulas = [self.sessions[f["model"]].parse(gen.render(f["formula"]))
                         for f in self.inputs["formulas"]]

    def before_pass(self) -> None:
        pass

    def ops(self) -> list:
        import mvmodal

        out = []
        for item, phi in zip(self.inputs["formulas"], self.formulas):
            key = item["model"]
            spec = self.inputs["models"][key]
            cfg, model = spec["config"], spec["model"]
            s, m = self.sessions[key], self.models[key]
            want = reference.eval_model(cfg["algebra"], cfg["functor"], cfg["propositions"],
                                        model, item["formula"])
            text = gen.render(item["formula"])
            out.append(Op(f"{key} eval_model({text})",
                          lambda s=s, m=m, phi=phi: mvmodal.eval_model(s, m, phi),
                          lambda res, want=want: OK if list(res) == want
                          else f"eval_model {list(res)}, reference {want}"))
            out.append(Op(f"{key} check_truth_lemma({text})",
                          lambda s=s, m=m, phi=phi: mvmodal.check_truth_lemma(s, m, phi),
                          lambda rep, n=model["states"]: OK if rep.ok and rep.checked == n
                          else f"truth lemma: ok={rep.ok} checked={rep.checked}, want ok with {n}"))
        return out


WORKLOADS = {"decide": Decide, "checks": Checks, "models": Models}
