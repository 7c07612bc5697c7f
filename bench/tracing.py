"""Per-layer tracing from outside the program.

``Tracer.install`` rebinds the public functions and methods listed in
TARGETS to timing wrappers, in every loaded mvmodal module that holds them
(names imported by value, such as ``semantics.push_delta`` next to
``functors.push_delta``, are rebound too). Wrappers record only while an
operation is running.

Each call becomes a frame on one stack: its duration is added to the
parent's child time, so self time is a span minus its children. Coarse
layers also keep a span (operation, name, start, end, parent span) in
memory, written out when the run ends; the hot inner functions (HOT) are
only aggregated, which keeps memory flat.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

# (layer.function, module, attribute); "Class.method" for methods and
# "*.method" for that method on every Functor subclass
TARGETS = (
    ("cli.main", "mvmodal.cli", "main"),
    ("session.from_config", "mvmodal.session", "Session.from_config"),
    ("session.parse", "mvmodal.session", "Session.parse"),
    ("decision.validity", "mvmodal.decision", "validity"),
    ("decision.consequence", "mvmodal.decision", "consequence"),
    ("decision.satisfiable", "mvmodal.decision", "satisfiable"),
    ("decision.lemma2_model", "mvmodal.decision", "lemma2_model"),
    ("semantics.decode_full", "mvmodal.semantics", "StageTower.decode_full"),
    ("semantics.encode_full", "mvmodal.semantics", "StageTower.encode_full"),
    ("semantics.iota_table", "mvmodal.semantics", "StageTower.iota_table"),
    ("semantics.gamma_table", "mvmodal.semantics", "StageTower.gamma_table"),
    ("semantics.step_value", "mvmodal.semantics", "StepEvaluator.value"),
    ("semantics.eval_model", "mvmodal.semantics", "eval_model"),
    ("semantics.sigma_states", "mvmodal.semantics", "sigma_states"),
    ("semantics.check_truth_lemma", "mvmodal.semantics", "check_truth_lemma"),
    ("semantics.check_lemma1", "mvmodal.semantics", "check_lemma1"),
    ("semantics.check_stage_coherence", "mvmodal.semantics", "check_stage_coherence"),
    ("functors.push_delta", "mvmodal.functors", "push_delta"),
    ("functors.sort_key", "mvmodal.functors", "sort_key"),
    ("functors.decode", "mvmodal.functors", "*.decode"),
    ("functors.encode", "mvmodal.functors", "*.encode"),
    ("lifting.value_at", "mvmodal.lifting", "PredicateLifting.value_at"),
    ("lifting.check_naturality", "mvmodal.lifting", "check_naturality"),
    ("lifting.check_alpha_preservation", "mvmodal.lifting", "check_alpha_preservation"),
    ("proofkit.check_step_n_soundness", "mvmodal.proofkit", "check_step_n_soundness"),
    ("proofkit.check_derivation", "mvmodal.proofkit", "check_derivation"),
    ("proofkit.decide_ax_a", "mvmodal.proofkit", "decide_ax_a"),
    ("algebra.meet_many", "mvmodal.algebra", "ResiduatedLattice.meet_many"),
    ("algebra.join_many", "mvmodal.algebra", "ResiduatedLattice.join_many"),
)

HOT = frozenset({
    "semantics.decode_full", "semantics.encode_full", "semantics.step_value",
    "functors.push_delta", "functors.sort_key", "functors.decode", "functors.encode",
    "lifting.value_at", "algebra.meet_many", "algebra.join_many", "proofkit.decide_ax_a",
})

# layers whose .calls count outermost calls only, like their .s
OUTERMOST = frozenset({"semantics.step_value"})

SWEEPS = frozenset({"decision.validity", "decision.consequence", "decision.satisfiable"})


class Tracer:
    def __init__(self):
        self.active = False
        self._restore: list = []
        self.spans: list = []
        self._op = -1
        self._stack: list = []
        self._depth: dict = {}
        self.reset()

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        for name, module, attr in TARGETS:
            mod = importlib.import_module(module)
            owner_name, _, meth = attr.rpartition(".")
            if owner_name == "*":
                owners = [c for c in vars(mod).values()
                          if isinstance(c, type) and issubclass(c, mod.Functor)
                          and meth in vars(c)]
            elif owner_name:
                owners = [getattr(mod, owner_name)]
            else:
                self._rebind_function(name, getattr(mod, meth))
                continue
            for owner in owners:
                raw = vars(owner)[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                setattr(owner, meth, wrapped)
                self._restore.append((owner, meth, raw))

    def _rebind_function(self, name: str, fn) -> None:
        wrapped = self._wrap(name, fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "mvmodal" and not modname.startswith("mvmodal."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapped)
                    self._restore.append((mod, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        hook = _HOOKS.get(name)
        keep_span = name not in HOT
        outermost_only = name in OUTERMOST

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1]
            post = hook(tracer, parent[0], args) if hook else None
            depth = tracer._depth.get(name, 0)
            tracer._depth[name] = depth + 1
            span_id = len(tracer.spans) if keep_span else parent[2]
            if keep_span:
                tracer.spans.append(None)
            frame = [name, 0.0, span_id]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer._depth[name] = depth
                dur = t1 - t0
                parent[1] += dur
                st = tracer.stats.setdefault(name, [0, 0.0, 0.0])
                if depth == 0:
                    st[0] += 1
                    st[1] += dur
                elif not outermost_only:
                    st[0] += 1
                st[2] += dur - frame[1]
                if keep_span:
                    tracer.spans[span_id] = (tracer._op, name, t0, t1, parent[2])
                if post is not None:
                    post()

        return wrapper

    # -- recording ----------------------------------------------------------------

    def reset(self) -> None:
        """Start a new pass: per-layer totals restart, spans are kept."""
        self.stats: dict = {}
        self.counters = {"decision.elements_swept": 0, "semantics.cache.hits": 0,
                         "semantics.cache.writes": 0}

    def begin(self, op: int) -> None:
        self._op = op
        self._stack = [["op", 0.0, None]]
        self._depth = {}
        self.active = True

    def end(self) -> None:
        self.active = False

    def metrics(self) -> dict:
        """Per-layer figures of the current pass: calls (every call, or the
        outermost ones for OUTERMOST), seconds (outermost calls, children
        included), and the named counters."""
        out = dict(self.counters)
        for name, _, _ in TARGETS:
            calls, total, _ = self.stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
        out["cli.overhead.s"] = self.stats.get("cli.main", (0, 0.0, 0.0))[2]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"columns": ["op", "name", "start", "end", "parent"],
                       "spans": [s for s in self.spans if s is not None]}, fh)


def _count_sweep(tracer: Tracer, parent: str, args):
    if parent in SWEEPS:
        tracer.counters["decision.elements_swept"] += 1
    return None


def _count_cache(kind: str):
    """A table call hits when its cache file is present before the call and
    writes when the call creates it."""
    def hook(tracer: Tracer, parent: str, args):
        tower, k = args[0], args[1]
        path_of = getattr(tower, "_cache_path", None)
        path = path_of(f"{kind}{k}") if path_of else None
        if path is None:
            return None
        present = path.exists()

        def post():
            if present:
                tracer.counters["semantics.cache.hits"] += 1
            elif path.exists():
                tracer.counters["semantics.cache.writes"] += 1
        return post
    return hook


_HOOKS = {
    "semantics.decode_full": _count_sweep,
    "semantics.iota_table": _count_cache("iota"),
    "semantics.gamma_table": _count_cache("gamma"),
}
