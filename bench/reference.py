"""Exact reference semantics with Fraction arithmetic, independent of mvmodal.

Truth values are the rationals i/(k-1) of the standard chains ``boolean``,
``lukasiewicz:k`` and ``goedel:k``. Every functor enumerates T(S) for a base
set S = {0, ..., n-1} in its own representation, and its liftings evaluate
there:

    powerset      tuple of members
    fuzzyhom      tuple of values, one per element
    neighborhood  dict: argument function (tuple of values) -> value
    selection     dict: argument function -> function
    distribution  tuple of counts summing to q

Formulas are the tuples of ``gen``. Model JSON is read in the documented
file layout (tables over functions number element 0 as the most significant
digit).
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from gen import chain_size, functor_kind, props_of, rank, t_size

ZERO, ONE, HALF = Fraction(0), Fraction(1), Fraction(1, 2)


class Chain:
    def __init__(self, algebra: str):
        self.k = chain_size(algebra)
        self.goedel = algebra.startswith("goedel")
        self.values = tuple(Fraction(i, self.k - 1) for i in range(self.k))

    def index(self, v: Fraction) -> int:
        return int(v * (self.k - 1))

    def op(self, op: str, a: Fraction, b: Fraction) -> Fraction:
        if op == "or":
            return max(a, b)
        if op == "and":
            return min(a, b)
        if op == "fuse":
            return min(a, b) if self.goedel else max(ZERO, a + b - 1)
        if self.goedel:
            return ONE if a <= b else b
        return min(ONE, 1 - a + b)

    def floor(self, x: Fraction) -> Fraction:
        return max(v for v in self.values if v <= x)


def _funcs(chain: Chain, n: int):
    """All functions {0..n-1} -> chain, element 0 most significant."""
    return list(product(chain.values, repeat=n))


class RefFunctor:
    def __init__(self, functor: str, chain: Chain, threshold: Fraction = HALF):
        self.kind = functor_kind(functor)
        self.q = int(functor.split(":", 1)[1]) if self.kind == "distribution" else None
        self.chain = chain
        self.threshold = threshold

    def elements(self, n: int):
        """Every element of T({0..n-1}), each exactly once."""
        ch = self.chain
        if self.kind == "powerset":
            for r in range(n + 1):
                yield from combinations(range(n), r)
        elif self.kind == "fuzzyhom":
            yield from product(ch.values, repeat=n)
        elif self.kind == "neighborhood":
            fs = _funcs(ch, n)
            for vals in product(ch.values, repeat=len(fs)):
                yield dict(zip(fs, vals))
        elif self.kind == "selection":
            fs = _funcs(ch, n)
            for outs in product(fs, repeat=len(fs)):
                yield dict(zip(fs, outs))
        else:
            yield from _compositions(self.q, n)

    def lift(self, name: str, d, n: int, args) -> Fraction:
        """Lifting ``name`` at d in T({0..n-1}); args are value callables on the base."""
        ch = self.chain
        if self.kind == "powerset":
            vals = [args[0](x) for x in d]
            if name == "box":
                return min(vals, default=ONE)
            return max(vals, default=ZERO)
        if self.kind == "fuzzyhom":
            if name == "box":
                return min((ch.op("imp", g, args[0](x)) for x, g in enumerate(d)), default=ONE)
            return max((ch.op("fuse", g, args[0](x)) for x, g in enumerate(d)), default=ZERO)
        if self.kind == "neighborhood":
            return d[tuple(args[0](x) for x in range(n))]
        if self.kind == "selection":
            picked = d[tuple(args[0](x) for x in range(n))]
            return min((ch.op("imp", picked[x], args[1](x)) for x in range(n)), default=ONE)
        mass = lambda pred: sum((Fraction(c, self.q) for x, c in enumerate(d) if pred(x)), ZERO)
        if name == "prob":
            return ch.floor(sum((args[0](x) * Fraction(c, self.q) for x, c in enumerate(d)), ZERO))
        return max(a for a in ch.values if mass(lambda x: args[0](x) >= a) > self.threshold)

    def from_json(self, entry, n: int):
        ch = self.chain
        if self.kind == "powerset":
            return tuple(sorted(set(int(x) for x in entry)))
        if self.kind == "fuzzyhom":
            return tuple(ch.values[int(v)] for v in entry)
        if self.kind == "neighborhood":
            return dict(zip(_funcs(ch, n), (ch.values[int(v)] for v in entry)))
        if self.kind == "selection":
            fs = _funcs(ch, n)
            return dict(zip(fs, (fs[int(v)] for v in entry)))
        return tuple(int(c) for c in entry)


def _compositions(q: int, n: int):
    if n == 0:
        if q == 0:
            yield ()
        return
    for c in range(q, -1, -1):
        for rest in _compositions(q - c, n - 1):
            yield (c,) + rest


# -- formulas ----------------------------------------------------------------------


def modal_atoms(formulas) -> list:
    """Outermost modal subformulas, first occurrence order."""
    out: list = []

    def walk(f):
        if f[0] == "mod":
            if f not in out:
                out.append(f)
        elif f[0] not in ("prop", "const"):
            walk(f[1])
            walk(f[2])

    for f in formulas:
        walk(f)
    return out


def evaluate(chain: Chain, f, prop_value, modal_value) -> Fraction:
    """Connective-level evaluation; props and outermost modal subformulas
    come from the two callables."""
    tag = f[0]
    if tag == "const":
        return chain.values[f[1]]
    if tag == "prop":
        return prop_value(f[1])
    if tag == "mod":
        return modal_value(f)
    return chain.op(tag, evaluate(chain, f[1], prop_value, modal_value),
                    evaluate(chain, f[2], prop_value, modal_value))


def eval_model(algebra: str, functor: str, props, model: dict, phi) -> list:
    """Values of phi at every state of a model given as JSON, as carrier indices."""
    chain = Chain(algebra)
    F = RefFunctor(functor, chain)
    n = int(model["states"])
    pidx = {p: i for i, p in enumerate(props)}
    sigma = [F.from_json(entry, n) for entry in model["sigma"]]
    memo: dict = {}

    def at(f, s):
        key = (f, s)
        if key not in memo:
            memo[key] = evaluate(
                chain, f,
                lambda p: chain.values[int(model["valuation"][s][pidx[p]])],
                lambda m: F.lift(m[1], sigma[s], n,
                                 [(lambda x, a=a: at(a, x)) for a in m[2]]))
        return memo[key]

    return [chain.index(at(phi, s)) for s in range(n)]


# -- stage-1 decisions ---------------------------------------------------------------


def _stage_points(chain: Chain, F: RefFunctor, props, formulas, assign=None):
    """Values of the formulas at every point of stage max-rank (<= 1), one
    point per valuation and distinct vector of modal-atom values.

    The base of T is the valuation set V; an argument of a modal atom is a
    rank-0 formula evaluated at each v in V. ``assign`` optionally maps a
    proposition to a function on V (step soundness), read at the base and at
    the valuation component alike.
    """
    V = list(product(chain.values, repeat=len(props)))
    pidx = {p: i for i, p in enumerate(props)}

    def pv(p, i):
        if assign is not None and p in assign:
            return assign[p][i]
        return V[i][pidx[p]]

    atoms = modal_atoms(formulas)
    if any(rank(arg) for m in atoms for arg in m[2]):
        raise ValueError("the reference decides rank <= 1 only")
    tables = [[tuple(evaluate(chain, arg, lambda p, i=i: pv(p, i), None) for i in range(len(V)))
               for arg in m[2]] for m in atoms]
    realized = {()}
    if atoms:
        realized = {tuple(F.lift(m[1], d, len(V), [t.__getitem__ for t in tabs])
                          for m, tabs in zip(atoms, tables))
                    for d in F.elements(len(V))}
    for i in range(len(V)):
        for r in realized:
            env = dict(zip(atoms, r))
            yield [evaluate(chain, f, lambda p: pv(p, i), env.__getitem__) for f in formulas]


def decide(cfg: dict, verb: str, formulas) -> bool:
    """Validity / satisfiability / consequence of rank <= 1 formulas on stage
    max-rank, by enumerating T(valuations)."""
    chain = Chain(cfg["algebra"])
    F = RefFunctor(cfg["functor"], chain)
    points = _stage_points(chain, F, cfg["propositions"], formulas)
    if verb == "valid":
        return all(vals[0] == ONE for vals in points)
    if verb == "sat":
        return any(vals[0] == ONE for vals in points)
    return all(vals[-1] == ONE for vals in points if all(v == ONE for v in vals[:-1]))


def step1_sound(cfg: dict, premises, conclusion) -> bool:
    """Every assignment of stage-0 truth functions to the consecution's
    propositions keeps it top-preserving on stage 1."""
    chain = Chain(cfg["algebra"])
    F = RefFunctor(cfg["functor"], chain)
    props = cfg["propositions"]
    formulas = (*premises, conclusion)
    used = sorted(set().union(*(props_of(f) for f in formulas)))
    n_v = chain.k ** len(props)
    for tables in product(product(chain.values, repeat=n_v), repeat=len(used)):
        assign = dict(zip(used, tables))
        for vals in _stage_points(chain, F, props, formulas, assign):
            if all(v == ONE for v in vals[:-1]) and vals[-1] != ONE:
                return False
    return True


def surrogate_consequence(algebra: str, premises, conclusion) -> bool:
    """Propositional consequence with propositions and outermost modal
    subformulas read as independent atoms."""
    chain = Chain(algebra)
    atoms: list = []

    def walk(f):
        if f[0] in ("prop", "mod"):
            if f not in atoms:
                atoms.append(f)
        elif f[0] != "const":
            walk(f[1])
            walk(f[2])

    for f in (*premises, conclusion):
        walk(f)
    for combo in product(chain.values, repeat=len(atoms)):
        env = dict(zip(atoms, combo))
        val = lambda f: evaluate(chain, f, lambda p: env[("prop", p)], env.__getitem__)
        if all(val(g) == ONE for g in premises) and val(conclusion) != ONE:
            return False
    return True


# -- lifting checks ------------------------------------------------------------------


def naturality_cases(cfg: dict, arity: int, bound: int, budget: int) -> tuple[int, bool]:
    """Closed-form case count of the naturality checker and whether it is complete."""
    k, total, complete = chain_size(cfg["algebra"]), 0, True
    for a in range(bound + 1):
        ta = t_size(cfg["functor"], k, a)
        if ta > budget:
            complete = False
            continue
        total += ta * sum(b**a * k ** (b * arity) for b in range(bound + 1))
    return total, complete


def alpha_preservation(cfg: dict, name: str, alpha: int, set_bound: int,
                       family_bound: int) -> tuple[bool, int]:
    """Cut-family order preservation of a unary lifting, F-families of size
    0..family_bound and G-families of size 1..family_bound; returns
    (holds, cases checked when it holds)."""
    chain = Chain(cfg["algebra"])
    F = RefFunctor(cfg["functor"], chain)
    a = chain.values[alpha]
    cases = 0
    for n in range(set_bound + 1):
        elems = list(F.elements(n))
        preds = list(product(chain.values, repeat=n))
        cut = {f: frozenset(x for x in range(n) if f[x] >= a) for f in preds}
        lcut = {f: frozenset(i for i, d in enumerate(elems)
                             if F.lift(name, d, n, [f.__getitem__]) >= a) for f in preds}
        full, lfull = frozenset(range(n)), frozenset(range(len(elems)))
        for fs in range(family_bound + 1):
            for fam_f in combinations(preds, fs):
                fi = full.intersection(*(cut[f] for f in fam_f))
                li = lfull.intersection(*(lcut[f] for f in fam_f))
                for gs in range(1, family_bound + 1):
                    for fam_g in combinations(preds, gs):
                        cases += 1
                        gu = frozenset().union(*(cut[g] for g in fam_g))
                        gl = frozenset().union(*(lcut[g] for g in fam_g))
                        if fi <= gu and not li <= gl:
                            return False, cases
    return True, cases
