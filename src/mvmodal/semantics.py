"""Coalgebraic models, the terminal sequence, and the two evaluators.

``tabulate`` evaluates constants and connectives column-wise from the
session's tables, given the columns of the propositions and modal nodes. Its
callers differ only in where those leaf columns come from: the model
evaluator (over a model's states), the level walk ``stage_columns`` (over the
ids of a stage, behind ``eval_step``, ``check_stage_coherence``, the proof
kit and the deciders' witnesses, or over a model's hash-consed stage images
``ModelImages``, behind ``check_truth_lemma``), the realized-type deciders
and the surrogate oracle. ``refutation`` reads local consequence off such
columns for ``model_consequence``, the surrogate oracle ``decide_ax_a`` and
the step-n soundness sweep. Both evaluators return a value column as a plain
tuple. ``StepEvaluator``, which reads the same semantics pointwise on nested
stage elements (``decode_full``), has no library caller; it is kept as a test
reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .functors import push_delta
from .report import BudgetError, InputError, ValidationReport, as_int, read_json
from .session import Session
from .syntax import Bin, Const, Formula, Modal, Prop, rank

__all__ = [
    "TModel",
    "load_model",
    "model_to_dict",
    "local_nodes",
    "level_plan",
    "tabulate",
    "eval_model",
    "refutation",
    "model_consequence",
    "StageTower",
    "StepEvaluator",
    "stage_columns",
    "eval_step",
    "sigma_states",
    "ModelImages",
    "sigma_k",
    "check_truth_lemma",
    "check_lemma1",
    "check_stage_coherence",
]


# -- models ----------------------------------------------------------------------


@dataclass(eq=False)
class TModel:
    """Finite coalgebra with a valuation; sigma holds canonical delta forms
    whose base elements are state ids."""

    valuation: tuple[tuple[int, ...], ...]
    sigma: tuple

    @property
    def n_states(self) -> int:
        return len(self.valuation)

    def nu(self, session: Session, s: int) -> int:
        return session.valuations.encode(self.valuation[s])


def load_model(session: Session, source) -> TModel:
    """states/valuation/sigma JSON layout; sigma entries are functor-shaped
    (state-id lists, value rows, tables over Hom(S,A) ids, count vectors)."""
    data = read_json(source)
    try:
        n = as_int(data["states"], "states")
        valuation_rows = data["valuation"]
        sigma_rows = data["sigma"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"model file needs states/valuation/sigma: {exc}") from None
    if n < 1:
        raise InputError("model needs at least one state")
    if not isinstance(valuation_rows, list) or not isinstance(sigma_rows, list):
        raise InputError("model valuation and sigma must be lists")
    if len(valuation_rows) != n or len(sigma_rows) != n:
        raise InputError("valuation/sigma length != states")
    valuation = []
    for s, row in enumerate(valuation_rows):
        if not isinstance(row, list) or len(row) != len(session.propositions):
            raise InputError(f"valuation[{s}] must list {len(session.propositions)} values")
        valuation.append(tuple(as_int(v, f"valuation[{s}]: value") for v in row))
        if any(not 0 <= v < session.lat.size for v in valuation[s]):
            raise InputError(f"valuation[{s}]: carrier index outside 0..{session.lat.size - 1}")
    sigma = []
    for s, entry in enumerate(sigma_rows):
        if not isinstance(entry, list):
            raise InputError(f"sigma[{s}]: expected a list")
        try:
            sigma.append(session.functor.sigma_from_json(n, [as_int(v) for v in entry]))
        except (InputError, TypeError, ValueError) as exc:
            raise InputError(f"sigma[{s}]: {exc}") from None
    return TModel(tuple(valuation), tuple(sigma))


def model_to_dict(session: Session, model: TModel) -> dict:
    n = model.n_states
    return {
        "states": n,
        "valuation": [list(r) for r in model.valuation],
        "sigma": [session.functor.sigma_to_json(n, delta) for delta in model.sigma],
    }


def local_nodes(roots: Sequence[Formula]) -> list[Formula]:
    """Subformulas reached from roots without crossing a modality, children first."""
    seen: dict[Formula, None] = {}

    def walk(f: Formula) -> None:
        if f in seen:
            return
        if isinstance(f, Bin):
            walk(f.left)
            walk(f.right)
        seen[f] = None

    for f in roots:
        walk(f)
    return list(seen)


def level_plan(roots: Sequence[Formula]) -> list[tuple[list, list, list]]:
    """Top down from roots, (roots, local nodes, modal nodes) per level; the
    modal nodes' arguments are the next level's roots."""
    levels = []
    roots = list(dict.fromkeys(roots))
    while True:
        nodes = local_nodes(roots)
        modals = [f for f in nodes if isinstance(f, Modal)]
        levels.append((roots, nodes, modals))
        if not modals:
            return levels
        roots = list(dict.fromkeys(a for M in modals for a in M.args))


def tabulate(session: Session, roots: Sequence[Formula], width: int,
             leaf: Callable[[Formula], Sequence[int]],
             col: dict | None = None) -> dict[Formula, tuple[int, ...]]:
    """Adds to col (a fresh dict when None) and returns the value columns, of
    length width, of roots and their local nodes; leaf(f) gives the column of
    each proposition or modal node f not already in col."""
    col = {} if col is None else col
    for f in local_nodes(roots):
        if f in col:
            continue
        if isinstance(f, Const):
            col[f] = (f.value,) * width
        elif isinstance(f, Bin):
            table = session.tables[f.op]
            col[f] = tuple(table[a][b] for a, b in zip(col[f.left], col[f.right]))
        else:
            col[f] = tuple(leaf(f))
    return col


def eval_model(session: Session, model: TModel, phi: Formula) -> tuple[int, ...]:
    """Semantics on a concrete model, one column over its states per subformula."""
    session.validate_formula(phi)
    n = model.n_states
    pidx = {p: i for i, p in enumerate(session.propositions)}
    col: dict[Formula, tuple[int, ...]] = {}

    def leaf(f: Formula) -> list[int]:
        if isinstance(f, Prop):
            i = pidx[f.name]
            return [row[i] for row in model.valuation]
        tabulate(session, f.args, n, leaf, col)
        return session.registry.get(f.name).column(model.sigma, [col[a] for a in f.args])

    return tabulate(session, [phi], n, leaf, col)[phi]


def refutation(session: Session, col, premises: Sequence[Formula], phi: Formula) -> int | None:
    """The first index at which every premise column of col is top and phi's
    column is not: the local consequence premises |- phi fails there. None
    when there is no such index."""
    top = session.lat.top
    prem = [col[g] for g in premises]
    return next((i for i, v in enumerate(col[phi])
                 if v != top and all(p[i] == top for p in prem)), None)


def model_consequence(session: Session, model: TModel, premises: Sequence[Formula],
                      phi: Formula) -> tuple[bool, int | None]:
    """Local consequence on one model; returns the first refuting state if any."""
    col = {f: eval_model(session, model, f) for f in (*premises, phi)}
    s = refutation(session, col, premises, phi)
    return s is None, s


# -- the terminal sequence ---------------------------------------------------------


class StageTower:
    """Enumerated stage carriers with the section/projection tables.

    Stage 0 is the valuation set; stage k+1 pairs a valuation with a T-image
    of stage k (valuation-major ids). The section and projection tables are
    built on first use and kept for the life of the tower.
    """

    # encode() for table-valued functors walks Hom(stage, A); refuse beyond this
    ENC_CAP = 1 << 16

    def __init__(self, session: Session):
        self.s = session
        self._sizes: list[int] = [session.valuations.size]
        self._decode_full: dict[tuple[int, int], tuple] = {}
        self._encode_full: dict[tuple[int, object], int] = {}
        self._iota: dict[int, list[int]] = {}
        self._gamma: dict[int, list[int]] = {}
        self._forms: dict[int, list] = {}  # stage k -> its T-components (delta forms)
        self._describe: dict[tuple[int, int], str] = {}

    # sizes -----------------------------------------------------------------

    def size(self, k: int) -> int:
        if k < 0:
            raise InputError(f"stage index {k} is negative")
        while len(self._sizes) <= k:
            m = len(self._sizes) - 1
            if m and self._sizes[m] == self._sizes[m - 1]:
                return self._sizes[m]  # a fixed point, as stage m+1's size is a function of m's
            t = self.s.functor.fits(self._sizes[m], self.s.budget)
            if t is None or t * self.s.valuations.size > self.s.budget:
                text = f"{self.s.valuations.size}*{self.s.functor.size_text(self._sizes[m])}"
                raise BudgetError(f"stage {m + 1} carrier", text, self.s.budget)
            self._sizes.append(self.s.valuations.size * t)
        return self._sizes[k]

    def tsize(self, k: int) -> int:
        """|T(stage k)| (stage k+1 ids are nu * tsize(k) + delta)."""
        return self.size(k + 1) // self.s.valuations.size

    # codecs ------------------------------------------------------------------

    def decode1(self, k: int, t: int) -> tuple:
        """One-level decode: delta form over stage-(k-1) ids."""
        if k == 0:
            return (t, None)
        nu, d = divmod(t, self.tsize(k - 1))
        return (nu, self.s.functor.decode(self.size(k - 1), d))

    def decode_full(self, k: int, t: int) -> tuple:
        """Recursive decode: delta leaves are decoded lower-stage elements."""
        key = (k, t)
        if key not in self._decode_full:
            if k == 0:
                self._decode_full[key] = (t, None)
            else:
                nu, form = self.decode1(k, t)
                self._decode_full[key] = (nu, push_delta(self.s.lat, form, lambda e: self.decode_full(k - 1, e)))
        return self._decode_full[key]

    def _guard_encode(self, k: int) -> None:
        if self.s.functor.table_valued:
            h = self.s.lat.size ** self.size(k)
            if h > self.ENC_CAP:
                raise BudgetError(f"encoding into T(stage {k}) (function table domain)",
                                  f"{self.s.lat.size}^{self.size(k)}", self.ENC_CAP)

    def encode_full(self, k: int, elem: tuple) -> int:
        key = (k, elem)
        if key not in self._encode_full:
            if k == 0:
                self._encode_full[key] = elem[0]
            else:
                self._guard_encode(k - 1)
                nu, form = elem
                ids = push_delta(self.s.lat, form, lambda e: self.encode_full(k - 1, e))
                self._encode_full[key] = nu * self.tsize(k - 1) + self.s.functor.encode(self.size(k - 1), ids)
        return self._encode_full[key]

    def lift(self, k: int, name: str, args: Sequence[Sequence[int]]) -> list[int]:
        """Column over stage k >= 1 of modality name on the level-(k-1)
        columns args. Id nu * tsize(k-1) + d has T-component d, so the column
        repeats once per valuation."""
        if k not in self._forms:
            self._forms[k] = list(self.s.functor.elements(self.size(k - 1)))
        return self.s.registry.get(name).column(self._forms[k], args) * self.s.valuations.size

    def prop_column(self, k: int, name: str) -> list[int]:
        """Column over stage k of proposition name; id t has valuation t // tsize(k-1)."""
        vals = self.s.valuations
        i, reps = self.s.propositions.index(name), self.size(k) // vals.size
        col: list[int] = []
        for nu in range(vals.size):
            col += [vals.value(nu, i)] * reps
        return col

    def describe(self, k: int, t: int) -> str:
        """<valuation; T-component> of element t of stage k, the T-component's
        leaves described at stage k-1. The undescribed elements it reads are
        gathered top down and described bottom up, so depth costs no recursion."""
        pending = []  # (level, {id: one-level decode}) of undescribed elements, top down
        level, ids = k, {t}
        while ids:
            forms = {u: self.decode1(level, u) for u in ids if (level, u) not in self._describe}
            pending.append((level, forms))
            ids = set()
            if level > 0:
                for _, form in forms.values():
                    self.s.functor.describe(form, lambda e: ids.add(e) or "")
            level -= 1
        for level, forms in reversed(pending):
            for u, (nu, form) in forms.items():
                body = "" if level == 0 else "; " + self.s.functor.describe(
                    form, lambda e: self._describe[level - 1, e])
                self._describe[level, u] = f"<{self.s.valuations.describe(nu, self.s.lat)}{body}>"
        return self._describe[k, t]

    # section / projection tables ----------------------------------------------

    def iota0_id(self) -> int:
        F, m = self.s.functor, self.size(0)
        if F.table_valued and self.s.lat.size ** m > self.s.budget:
            # base_elem would build a table over all of Hom(stage 0, A)
            raise BudgetError("stage-0 section choice (function table domain)",
                              f"{self.s.lat.size}^{m}", self.s.budget)
        base = F.encode(m, F.base_elem(m))
        if self.s.iota0 is None:
            return base
        if not 0 <= self.s.iota0 < self.tsize(0):
            raise InputError(f"iota0 override {self.s.iota0} outside T(stage 0)")
        return self.s.iota0

    def up(self, f: Sequence[int], m: int, k: int) -> list[int]:
        """(nu, d) -> (nu, T(f)(d)) as ids over stage m >= 1, for an id table f
        from stage m-1 into stage k-1. The step |T(stage k-1)| is sized
        directly, as stage k itself may be over budget (iota_table)."""
        F = self.s.functor
        pushed = F.map_table(f, self.size(m - 1), self.size(k - 1))
        step = F.size(self.size(k - 1))
        return [nu * step + x for nu in range(self.s.valuations.size) for x in pushed]

    def iota_table(self, k: int) -> list[int]:
        """Section stage k -> stage k+1 as ids (codomain ids may be bigints):
        (nu, d) goes to (nu, T(iota_{k-1})(d)). The missing levels are
        guarded top down, then built bottom up from the level below, which is
        built by then, so depth costs no recursion."""
        top, todo = k, []
        while k not in self._iota:
            if k == 0:
                self._iota[k] = [nu * self.tsize(0) + self.iota0_id()
                                 for nu in range(self.s.valuations.size)]
                break
            self._guard_encode(k)
            todo.append(k)
            k -= 1
        for k in reversed(todo):
            self._iota[k] = self.up(self.iota_table(k - 1), k, k + 1)
        return self._iota[top]

    def gamma_table(self, k: int) -> list[int]:
        """Projection stage k+1 -> stage k as ids (stage k+1 must be in budget):
        (nu, d) goes to nu at k = 0 and to (nu, T(gamma_{k-1})(d)) above,
        built as iota_table is."""
        top, todo = k, []
        while k not in self._gamma:
            self.size(k + 1)  # refuse an over-budget domain before building over it
            if k == 0:
                self._gamma[k] = [nu for nu in range(self.s.valuations.size)
                                  for _ in range(self.tsize(0))]
                break
            self._guard_encode(k - 1)
            todo.append(k)
            k -= 1
        for k in reversed(todo):
            self._gamma[k] = self.up(self.gamma_table(k - 1), k + 1, k)
        return self._gamma[top]


# -- step semantics ------------------------------------------------------------------


class StepEvaluator:
    """Stage-indexed semantics on nested stage elements (decode_full),
    evaluated lazily and memoised per (formula, level, element). No library
    code calls it; tests use it as a pointwise reference for the columns."""

    def __init__(self, session: Session):
        self.s = session
        self._pidx = {p: i for i, p in enumerate(session.propositions)}
        self._memo: dict = {}

    def value(self, phi: Formula, k: int, elem: tuple) -> int:
        key = (phi, k, elem)
        if key in self._memo:
            return self._memo[key]
        if isinstance(phi, Const):
            out = phi.value
        elif isinstance(phi, Prop):
            out = self.s.valuations.value(elem[0], self._pidx[phi.name])
        elif isinstance(phi, Bin):
            out = self.s.tables[phi.op][self.value(phi.left, k, elem)][self.value(phi.right, k, elem)]
        else:
            if k == 0:
                raise InputError("modal formula needs stage >= 1 (rank exceeds stage 0)")
            args = [lambda e, a=a: self.value(a, k - 1, e) for a in phi.args]
            out = self.s.registry.get(phi.name).value_at(elem[1], args)
        self._memo[key] = out
        return out


def stage_columns(session: Session, tower: StageTower | ModelImages, roots: Sequence[Formula],
                  n: int) -> dict[Formula, tuple[int, ...]]:
    """Value columns of roots and their local nodes over the level-n ids of
    tower (stage elements of a StageTower, or a model's distinct ModelImages),
    built bottom up along level_plan(roots). At level k a proposition's column
    is tower.prop_column(k, name), a modal node lifts the level-(k-1) columns
    of its arguments, and tabulate does the rest."""
    plan = level_plan(roots)
    bottom = n - len(plan) + 1
    if bottom < 0:
        raise InputError(f"formula has rank {len(plan) - 1} > stage {n}")
    col: dict[Formula, tuple[int, ...]] = {}
    for k, (level_roots, _, _) in enumerate(reversed(plan), start=bottom):
        below, col = col, {}

        def leaf(f: Formula) -> Sequence[int]:
            if not isinstance(f, Prop):
                return tower.lift(k, f.name, [below[a] for a in f.args])
            return tower.prop_column(k, f.name)

        tabulate(session, level_roots, tower.size(k), leaf, col)
    return col


def eval_step(session: Session, phi: Formula, n: int,
              tower: StageTower | None = None) -> tuple[int, ...]:
    """Tabulate stage-n semantics over the whole stage carrier."""
    session.validate_formula(phi)
    return stage_columns(session, tower or StageTower(session), [phi], n)[phi]


# -- approximation maps out of a model -------------------------------------------------


def sigma_states(session: Session, model: TModel, k: int) -> list[tuple]:
    """Decoded stage-k images of the model states under the approximation tower."""
    out = [(model.nu(session, s), None) for s in range(model.n_states)]
    for _ in range(k):
        prev = out
        out = [(model.nu(session, s), push_delta(session.lat, model.sigma[s], lambda e: prev[e]))
               for s in range(model.n_states)]
    return out


class ModelImages:
    """A model's images in stages 0..n, hash-consed: ids[k][s] is the id of
    state s's stage-k image, forms[k][i] the (nu, form) of image i over level-(k-1)
    image ids and tforms[k][i] its T-component form alone. Ids are equal
    exactly when the nested images of sigma_states are, and are numbered in
    order of the first state with each image.

    Level k pushes all transitions along the level-(k-1) ids at once. A state's
    level-k image determines its level-(k-1) image, so each level's partition
    of the states refines the one below. Once two consecutive levels have
    equal ids, every higher level has the same keys, so the levels from there
    to n are not recomputed: they share the last computed level's ids, forms
    and tforms lists (the same list objects, not copies)."""

    def __init__(self, session: Session, model: TModel, n: int):
        self.s = session
        nus = list(map(session.valuations.encode, model.valuation))
        keys = [(nu, None) for nu in nus]
        self.ids: list[list[int]] = []
        self.forms: list[list[tuple]] = []
        self.tforms: list[list] = []
        for k in range(n + 1):
            if k:
                if k > 1 and self.ids[-1] == self.ids[-2]:
                    break  # a fixed point: level k repeats level k-1
                keys = zip(nus, session.functor.push_forms(model.sigma, self.ids[-1]))
            index: dict[tuple, int] = {}
            self.ids.append([index.setdefault(key, len(index)) for key in keys])
            self.forms.append(list(index))
            self.tforms.append([form for _, form in index])
        for levels in (self.ids, self.forms, self.tforms):
            levels += [levels[-1]] * (n + 1 - len(levels))

    def size(self, k: int) -> int:
        return len(self.forms[k])

    def prop_column(self, k: int, name: str) -> list[int]:
        i = self.s.propositions.index(name)
        return [self.s.valuations.value(nu, i) for nu, _ in self.forms[k]]

    def lift(self, k: int, name: str, args: Sequence[Sequence[int]]) -> list[int]:
        return self.s.registry.get(name).column(self.tforms[k], args)


def sigma_k(session: Session, model: TModel, k: int, tower: StageTower | None = None) -> list[int]:
    """Stage-k approximation map as ids (stage k must be encodable), one
    encode per distinct image."""
    if k < 0:
        raise InputError(f"stage index {k} is negative")
    tower, F, images = tower or StageTower(session), session.functor, ModelImages(session, model, k)
    for j in range(k - 1, -1, -1):  # refuse in encode_full's order
        tower._guard_encode(j)
    stage = [nu for nu, _ in images.forms[0]]
    for j in range(1, k + 1):
        m, step = tower.size(j - 1), tower.tsize(j - 1)
        pushed = F.push_forms(images.tforms[j], stage)
        stage = [nu * step + F.encode(m, form) for (nu, _), form in zip(images.forms[j], pushed)]
    return [stage[i] for i in images.ids[k]]


# -- meta-theoretic checkers -----------------------------------------------------------


def check_truth_lemma(session: Session, model: TModel, phi: Formula) -> ValidationReport:
    """Model semantics == stage-rank semantics composed with the approximation map,
    state by state, exactly."""
    model_vals = eval_model(session, model, phi)  # validates phi first
    n = rank(phi)
    report = ValidationReport(subject=f"truth lemma at rank {n}")
    images = ModelImages(session, model, n)
    step = stage_columns(session, images, [phi], n)[phi]
    for s, i in enumerate(images.ids[n]):
        report.checked += 1
        if step[i] != model_vals[s]:
            report.fail("truth-lemma", (s,), f"model value {session.lat.label(model_vals[s])} "
                        f"!= stage value {session.lat.label(step[i])}")
    return report


def check_lemma1(session: Session, n: int, tower: StageTower | None = None) -> ValidationReport:
    """Lemma 1 on every element of stage n, exactly: the inductive composites
    I(k) = (id x T(I(k-1))) . iota_n agree with their closed form C(n, k), the
    k-fold T-image of the terminal map; I(n) is the identity; gamma_n retracts
    iota_n. Each map is an id table over stage n, so this checks the section
    and projection tables in use (iota_table, gamma_table)."""
    tower = tower or StageTower(session)
    report = ValidationReport(subject=f"tower sections at n={n}")
    size_n = tower.size(n)
    tower.iota0_id()  # a bad section choice is an input error at every n
    report.checked = (n + 3) * size_n
    if n == 0:
        return report  # every composite out of stage 0 is the identity
    for j in range(n):  # refuse in the order encodes into stages 1..n would
        tower._guard_encode(j)
    closed = [list(range(tower.size(0)))]  # C(m, k) for k <= m, for m = 0..n
    for m in range(1, n + 1):
        tm = tower.tsize(m - 1)
        closed = [[t // tm for t in range(tower.size(m))]] + [
            tower.up(closed[k - 1], m, k) for k in range(1, m + 1)]
    iota, gamma = tower.iota_table(n - 1), tower.gamma_table(n - 1)
    inductive = closed[:1]
    for k in range(1, n + 1):
        inductive.append(tower.up([inductive[k - 1][x] for x in iota], n, k))
    retract = tower.up([gamma[x] for x in iota], n, n)
    if inductive == closed and inductive[n] == retract == list(range(size_n)):
        return report
    for t in range(size_n):
        for k in range(n + 1):
            if inductive[k][t] != closed[k][t]:
                report.fail("closed-form", (n, k, t), f"inductive composite lands at "
                            f"{inductive[k][t]}, closed form at {closed[k][t]}")
        if inductive[n][t] != t:
            report.fail("top-is-identity", (n, t), "level-n composite is not the identity")
        if retract[t] != t:
            report.fail("projection-retracts-section", (n, t), "gamma after iota moved the element")
    return report


def check_stage_coherence(session: Session, phi: Formula, n: int, m: int,
                          tower: StageTower | None = None) -> ValidationReport:
    """Stage-n values of a rank<=m formula factor through the projections."""
    if not 0 <= m <= n:
        raise InputError("need 0 <= m <= n")
    if rank(phi) > m:
        raise InputError(f"formula has rank {rank(phi)} > {m}")
    tower = tower or StageTower(session)
    report = ValidationReport(subject=f"stage coherence {n}->{m}")
    vals_n = eval_step(session, phi, n, tower)
    vals_m = eval_step(session, phi, m, tower)
    down = list(range(tower.size(n)))
    for k in range(n - 1, m - 1, -1):
        g = tower.gamma_table(k)
        down = [g[t] for t in down]
    for t in range(tower.size(n)):
        report.checked += 1
        if vals_n[t] != vals_m[down[t]]:
            report.fail("stage-coherence", (t,),
                        f"stage-{n} value {session.lat.label(vals_n[t])} != "
                        f"projected stage-{m} value {session.lat.label(vals_m[down[t]])}")
            break
    return report
