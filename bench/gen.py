"""Seeded input generation for the three workloads.

Pure Python with no import of mvmodal: inputs are made before the set-up
clock starts, and the same (workload, seed) pair always gives byte-identical
inputs (see ``inputs_json``). Formulas are small tuples rendered to the CLI
surface syntax, so the reference evaluator reads the same trees the program
parses from text:

    ("prop", name)  ("const", index)  (op, left, right)  ("mod", name, args)

with op one of "or", "and", "fuse", "imp".
"""
from __future__ import annotations

import json
import random
from math import comb

BIN_OPS = ("or", "and", "fuse", "imp")
_SYMBOL = {"or": "|", "and": "/\\", "fuse": "&", "imp": "->"}

# modality names and arities per functor kind
MODALITIES = {
    "powerset": (("box", 1), ("diamond", 1)),
    "fuzzyhom": (("box", 1), ("diamond", 1)),
    "neighborhood": (("box", 1),),
    "selection": (("cond", 2),),
    "distribution": (("prob", 1), ("over", 1)),
}


# -- formulas ---------------------------------------------------------------------


def prop(name):
    return ("prop", name)


def const(i):
    return ("const", i)


def mod(name, *args):
    return ("mod", name, tuple(args))


def imp(a, b):
    return ("imp", a, b)


def meet(a, b):
    return ("and", a, b)


def join(a, b):
    return ("or", a, b)


def fuse(a, b):
    return ("fuse", a, b)


def render(f) -> str:
    tag = f[0]
    if tag == "prop":
        return f[1]
    if tag == "const":
        return f"c{f[1]}"
    if tag == "mod":
        return f"{f[1]}({', '.join(render(a) for a in f[2])})"
    return f"({render(f[1])} {_SYMBOL[tag]} {render(f[2])})"


def rank(f) -> int:
    tag = f[0]
    if tag in ("prop", "const"):
        return 0
    if tag == "mod":
        return 1 + max(rank(a) for a in f[2])
    return max(rank(f[1]), rank(f[2]))


def props_of(f) -> set:
    tag = f[0]
    if tag == "prop":
        return {f[1]}
    if tag == "const":
        return set()
    if tag == "mod":
        return set().union(*(props_of(a) for a in f[2]))
    return props_of(f[1]) | props_of(f[2])


def functor_kind(functor: str) -> str:
    return functor.split(":", 1)[0]


def chain_size(algebra: str) -> int:
    return int(algebra.split(":", 1)[1]) if ":" in algebra else 2


def random_formula(rng: random.Random, props, k: int, functor: str, rank_: int,
                   size: int):
    """A formula of modal rank exactly ``rank_`` with ``size`` nodes (fewer
    only where no formula of that size and rank exists). Fixed sizes keep the
    work per operation, and so the figures, steady from seed to seed."""
    mods = MODALITIES[functor_kind(functor)]
    arity = max(a for _, a in mods)

    def least(depth: int) -> int:  # fewest nodes reaching modal depth ``depth``
        return 1 + depth * arity

    def leaf():
        if props and rng.random() < 0.7:
            return prop(rng.choice(props))
        return const(rng.randrange(k))

    def go(n: int, depth: int, need: bool):
        # need: this subtree must reach modal depth ``depth``
        floor = least(depth) if need else 1
        can_mod = depth > 0 and n - 1 >= (least(depth - 1) if need else 1) + arity - 1
        can_bin = n - 1 >= floor + 1
        if not (can_mod or can_bin):
            return leaf()
        if can_mod and (not can_bin or rng.random() < 0.5):
            name, ar = rng.choice([m for m in mods if m[1] == arity])
            deep = rng.randrange(ar)
            sizes = _split(rng, n - 1, [least(depth - 1) if need and i == deep else 1
                                        for i in range(ar)])
            return mod(name, *(go(m, depth - 1, need and i == deep)
                               for i, m in enumerate(sizes)))
        deep = rng.randrange(2)
        left, right = _split(rng, n - 1, [floor if i == deep else 1 for i in range(2)])
        return (rng.choice(BIN_OPS), go(left, depth, need and deep == 0),
                go(right, depth, need and deep == 1))

    return go(max(size, least(rank_)), rank_, True)


def _split(rng: random.Random, total: int, lows: list) -> list:
    """Random parts of ``total``, part i at least lows[i]."""
    parts = list(lows)
    for _ in range(total - sum(lows)):
        parts[rng.randrange(len(parts))] += 1
    return parts


# -- closed-form carrier sizes ------------------------------------------------------------


def t_size(functor: str, k: int, m: int) -> int:
    """|T(S)| for |S| = m over a k-element chain."""
    kind = functor_kind(functor)
    if kind == "powerset":
        return 2**m
    if kind == "fuzzyhom":
        return k**m
    if kind == "neighborhood":
        return k ** (k**m)
    if kind == "selection":
        return (k**m) ** (k**m)
    q = int(functor.split(":", 1)[1])
    return comb(q + m - 1, m - 1) if m else int(q == 0)


def stage_size(cfg: dict, n: int) -> int:
    """|stage n| = |A|^|P| * |T(stage n-1)|, stage 0 = |A|^|P|."""
    k = chain_size(cfg["algebra"])
    base = k ** len(cfg["propositions"])
    size = base
    for _ in range(n):
        size = base * t_size(cfg["functor"], k, size)
    return size


def session_config(algebra: str, functor: str, props) -> dict:
    return {"algebra": algebra, "functor": functor, "propositions": list(props)}


# -- models ----------------------------------------------------------------------------


def random_model(rng: random.Random, cfg: dict, n_states: int) -> dict:
    """Model JSON in the layout ``load_model`` reads, shaped by the functor."""
    k = chain_size(cfg["algebra"])
    kind = functor_kind(cfg["functor"])
    valuation = [[rng.randrange(k) for _ in cfg["propositions"]] for _ in range(n_states)]
    sigma = []
    for _ in range(n_states):
        if kind == "powerset":
            sigma.append([i for i in range(n_states) if rng.random() < 0.3])
        elif kind == "fuzzyhom":
            sigma.append([rng.randrange(k) if rng.random() < 0.5 else 0
                          for _ in range(n_states)])
        elif kind == "neighborhood":
            sigma.append([rng.randrange(k) for _ in range(k**n_states)])
        elif kind == "selection":
            h = k**n_states
            sigma.append([rng.randrange(h) for _ in range(h)])
        else:
            counts = [0] * n_states
            for _ in range(int(cfg["functor"].split(":", 1)[1])):
                counts[rng.randrange(n_states)] += 1
            sigma.append(counts)
    return {"states": n_states, "valuation": valuation, "sigma": sigma}


# -- decide ------------------------------------------------------------------------------

# (key, algebra, functor, propositions, rank, schema queries, random queries)
# Stages of a few thousand elements get schema queries only: a random query
# there costs anything from one element to a full sweep, which would make the
# figures depend on the seed more than on the program.
DECIDE_SESSIONS = (
    ("b-ps-pq", "boolean", "powerset", ("p", "q"), 1, 10, 30),
    ("l3-ps-pq", "lukasiewicz:3", "powerset", ("p", "q"), 1, 3, 0),
    ("b-ps-pqr", "boolean", "powerset", ("p", "q", "r"), 1, 3, 0),
    ("g4-fz-p", "goedel:4", "fuzzyhom", ("p",), 1, 3, 0),
    ("l3-fz-p", "lukasiewicz:3", "fuzzyhom", ("p",), 1, 8, 18),
    ("b-nb-p", "boolean", "neighborhood", ("p",), 1, 10, 22),
    ("b-sel-p", "boolean", "selection", ("p",), 1, 5, 10),
    ("g3-ds2-pq", "goedel:3", "distribution:2", ("p", "q"), 1, 5, 10),
    ("b-ps-p", "boolean", "powerset", ("p",), 2, 7, 14),
    ("b-fz-p", "boolean", "fuzzyhom", ("p",), 2, 6, 12),
    ("l3-ds2-p", "lukasiewicz:3", "distribution:2", ("p",), 2, 5, 10),
    ("b-ds3-p", "boolean", "distribution:3", ("p",), 2, 6, 14),
)

# Rank-2 queries whose stage the program refuses today (BudgetError, exit 2),
# although each answer is forced by the lattice laws. They do not depend on
# the seed, so they fail in every pass of every run until a later change
# decides them; then their forced answers are checked like any other.
_BB = mod("box", mod("box", prop("p")))
BUDGET_SESSIONS = (
    ("l3-ps-p", "lukasiewicz:3", "powerset", ("p",)),
    ("b-nb-p2", "boolean", "neighborhood", ("p",)),
    ("b-ps-pq2", "boolean", "powerset", ("p", "q")),
)
BUDGET_QUERIES = (
    ("valid", (imp(meet(_BB, prop("p")), _BB),), True),
    ("sat", (fuse(_BB, imp(_BB, const(0))),), False),
    ("entails", (_BB, imp(_BB, mod("box", prop("p"))), mod("box", prop("p"))), True),
)


# Queries whose answers the residuated-lattice laws force on any stage, per
# verb; the affirmative valid / entails and the negative sat sweep the whole
# stage.
SCHEMAS = {
    "valid": (
        (lambda a, b, c: (imp(meet(a, b), a),), True),          # meet is below its arguments
        (lambda a, b, c: (imp(fuse(a, b), a),), True),          # integrality
        (lambda a, b, c: (imp(fuse(a, imp(a, b)), b),), True),  # residuation (modus ponens)
        (lambda a, b, c: (imp(fuse(imp(a, b), imp(b, c)), imp(a, c)),), True),
        (lambda a, b, c: (meet(a, const(0)),), False),          # bottom is never top
    ),
    "sat": (
        (lambda a, b, c: (fuse(a, imp(a, const(0))),), False),  # a * not-a is bottom
        (lambda a, b, c: (imp(meet(a, b), a),), True),          # valid, hence satisfiable
        (lambda a, b, c: (meet(a, const(0)),), False),
    ),
    "entails": (
        (lambda a, b, c: (a, imp(a, b), b), True),
        (lambda a, b, c: (meet(a, b), a), True),
        (lambda a, b, c: (a, b, fuse(a, b)), True),
        (lambda a, b, c: (a, join(a, b)), True),
        (lambda a, b, c: (meet(a, const(0)), b), True),         # premise never top
    ),
}
VERBS = ("valid", "sat", "entails")


def decide_inputs(seed: int) -> dict:
    rng = random.Random(f"decide:{seed}")
    sessions, queries = {}, []
    for key, alg, fun, props, rk, n_schema, n_random in DECIDE_SESSIONS:
        cfg = session_config(alg, fun, props)
        sessions[key] = cfg
        k = chain_size(alg)
        for i in range(n_schema + n_random):
            verb = VERBS[i % 3]
            if i < n_schema:
                a = random_formula(rng, props, k, fun, rk, 5)
                b, c = (random_formula(rng, props, k, fun, j % (rk + 1), 3) for j in (i, i + 1))
                make, expected = SCHEMAS[verb][(i // 3) % len(SCHEMAS[verb])]
                formulas, kind = make(a, b, c), "schema"
            else:
                n_f = 1 if verb != "entails" else 2 + i % 2
                formulas = tuple(random_formula(rng, props, k, fun, 1 + (i + j) % rk, 3 + (i + j) % 5)
                                 for j in range(n_f))
                expected, kind = None, "random"
            queries.append({"session": key, "verb": verb, "formulas": formulas,
                            "kind": kind, "expected": expected})
    for key, alg, fun, props in BUDGET_SESSIONS:
        sessions[key] = session_config(alg, fun, props)
        for verb, formulas, expected in BUDGET_QUERIES:
            queries.append({"session": key, "verb": verb, "formulas": formulas,
                            "kind": "budget", "expected": expected})
    # seeded random models on which affirmative answers must hold
    probe_models = {key: [random_model(rng, cfg, 2 + j % 3) for j in range(4)]
                    for key, cfg in sessions.items()}
    return {"sessions": sessions, "queries": queries, "probe_models": probe_models}


# -- checks ------------------------------------------------------------------------------

# (key, algebra, functor, propositions)
CHECK_SESSIONS = (
    ("b-ps-p", "boolean", "powerset", ("p",)),
    ("b-ps-pq", "boolean", "powerset", ("p", "q")),
    ("l3-ps-p", "lukasiewicz:3", "powerset", ("p",)),
    ("b-fz-p", "boolean", "fuzzyhom", ("p",)),
    ("g3-fz-p", "goedel:3", "fuzzyhom", ("p",)),
    ("b-nb-p", "boolean", "neighborhood", ("p",)),
    ("b-sel-p", "boolean", "selection", ("p",)),
    ("l3-ds2-p", "lukasiewicz:3", "distribution:2", ("p",)),
    ("b-ds3-p", "boolean", "distribution:3", ("p",)),
)

# lemma1 levels per session: stage n stays within a few hundred elements
LEMMA1_LEVELS = {"b-ps-p": (1, 2), "b-ps-pq": (1,), "l3-ps-p": (1,), "b-fz-p": (1,),
                 "g3-fz-p": (1,), "b-nb-p": (1,), "b-sel-p": (1,), "l3-ds2-p": (1,),
                 "b-ds3-p": (1, 2)}

# stage-coherence triples (n, m, formula rank) per session
COHERENCE = {"b-ps-p": ((2, 1, 1), (2, 0, 0), (1, 0, 0), (2, 2, 2)),
             "b-fz-p": ((2, 1, 1), (2, 2, 2)),
             "l3-ds2-p": ((2, 1, 1), (2, 0, 0)),
             "b-ds3-p": ((2, 1, 1), (2, 2, 2)),
             "l3-ps-p": ((1, 0, 0), (1, 1, 1)),
             "g3-fz-p": ((1, 0, 0), (1, 1, 1))}


def _axiom_pool(kind: str, props):
    """Rank-1 consecutions, sound and unsound; the reference decides which."""
    p = prop(props[0])
    q = prop(props[-1])
    if kind in ("powerset", "fuzzyhom"):
        B = lambda x: mod("box", x)
        D = lambda x: mod("diamond", x)
        return (
            ("boxtop", (), B(const(1))),
            ("boxbot", (), B(const(0))),
            ("K", (B(p), B(imp(p, q))), B(q)),
            ("meetbox", (B(p), B(q)), B(meet(p, q))),
            ("mono", (B(meet(p, q)),), B(p)),
            ("T", (B(p),), p),
            ("collapse", (D(p),), B(p)),
            ("diabot", (D(const(0)),), const(0)),
        )
    if kind == "neighborhood":
        B = lambda x: mod("box", x)
        return (
            ("cong", (B(meet(p, p)),), B(p)),
            ("refl", (B(p),), B(join(p, p))),
            ("boxtop", (), B(const(1))),
            ("mono", (B(meet(p, q)),), B(p)),
            ("T", (B(p),), p),
        )
    if kind == "selection":
        C = lambda x, y: mod("cond", x, y)
        return (
            ("condtop", (), C(p, const(1))),
            ("weaken", (C(p, q),), C(p, join(q, p))),
            ("condid", (), C(p, p)),
            ("condbot", (), C(p, const(0))),
        )
    P = lambda x: mod("prob", x)
    O = lambda x: mod("over", x)
    return (
        ("probtop", (), P(const(1))),
        ("overtop", (), O(const(1))),
        ("probover", (P(p),), O(p)),
        ("overprob", (O(p),), P(p)),
        ("probbot", (), P(const(0))),
    )


def checks_inputs(seed: int) -> dict:
    rng = random.Random(f"checks:{seed}")
    sessions, ops = {}, []
    for key, alg, fun, props in CHECK_SESSIONS:
        cfg = session_config(alg, fun, props)
        sessions[key] = cfg
        k = chain_size(alg)
        kind = functor_kind(fun)
        for n in LEMMA1_LEVELS[key]:
            ops.append({"op": "lemma1", "session": key, "n": n})
        # two fixed sets share the pool out: their cost would swing the tail
        # of the figures if the seed chose them
        pool = _axiom_pool(kind, props)
        for part in (pool[0::2], pool[1::2]):
            ops.append({"op": "axioms", "session": key, "n": 1, "axioms": list(part)})
        for name, arity in MODALITIES[kind]:
            ops.append({"op": "naturality", "session": key, "lifting": name,
                        "bound": 1 if kind in ("neighborhood", "selection") else 2})
            if arity == 1:
                for alpha in sorted(rng.sample(range(1, k), min(2, k - 1))):
                    ops.append({"op": "preservation", "session": key, "lifting": name,
                                "alpha": alpha, "bound": 1 if kind == "neighborhood" else 2,
                                "family_bound": 2})
        for n, m, rk in COHERENCE.get(key, ()):
            for _ in range(2):
                ops.append({"op": "coherence", "session": key, "n": n, "m": m,
                            "formula": random_formula(rng, props, k, fun, rk, 5)})
        for _ in range(14):
            ops.append({"op": "derivation", "session": key,
                        **_derivation(rng, kind, props, k, fun)})
    return {"sessions": sessions, "ops": ops}


def _derivation(rng, kind: str, props, k: int, fun: str) -> dict:
    """A derivation tree with the stratum it is replayed at and the
    violation laws it must produce ("axa" trees are decided by the reference)."""
    unary = [name for name, ar in MODALITIES[kind] if ar == 1]
    rf = lambda rk: random_formula(rng, props, k, fun, rk, 3)
    a0, b0 = rf(0), rf(0)
    shape = rng.choice(("axa-mp", "axa-random", "modal", "modal2", "instance",
                        "bad-subst", "bad-shape", "bad-instance"))

    def axa(prem, conc):
        return {"rule": "axa", "premises": [render(f) for f in prem], "conclusion": render(conc)}

    def lift(name, child, prem, conc):
        return {"rule": "modal", "lifting": name, "premises": [render(mod(name, f)) for f in prem],
                "conclusion": render(mod(name, conc)), "child": child}

    if shape == "axa-mp":
        a = rf(1)
        return {"tree": axa((a, imp(a, b0)), b0), "n": 1, "laws": [], "nodes": 1}
    if shape == "axa-random" or not unary:
        prem = rf(rng.randrange(2))
        conc = rng.choice((join(prem, b0), meet(prem, b0), prem, b0))
        return {"tree": axa((prem,), conc), "n": 1, "laws": None, "nodes": 1,
                "axa": [[prem], conc]}
    name = rng.choice(unary)
    if shape in ("modal", "modal2"):
        prem, conc = (a0, imp(a0, b0)), b0
        tree = lift(name, axa(prem, conc), prem, conc)
        if shape == "modal2":
            once = tuple(mod(name, f) for f in prem)
            return {"tree": lift(name, tree, once, mod(name, conc)), "n": 2, "laws": [],
                    "nodes": 3}
        return {"tree": tree, "n": 1, "laws": [], "nodes": 2}
    if shape == "bad-shape":
        # the lifted premise is not the image of the child's premise
        tree = lift(name, axa((a0,), a0), (join(a0, b0),), a0)
        return {"tree": tree, "n": 1, "laws": ["rule-shape"], "nodes": 2}
    # instances of the axiom p, p -> q |- q; at stratum 1 it takes 0-substitutions
    p, q = prop(props[0]), prop(props[-1])
    mp_prem, mp_conc = (p, imp(p, q)), q
    axioms = [{"name": "mp", "premises": [render(f) for f in mp_prem],
               "conclusion": render(mp_conc)}]
    image = {name_: rf(1 if shape == "bad-subst" and i == 0 else 0)
             for i, name_ in enumerate(props)}
    conc = _substitute(mp_conc, image)
    if shape == "bad-instance":
        conc = join(conc, const(0))
    tree = {"rule": "axlambda", "axiom": "mp",
            "substitution": {name_: render(f) for name_, f in image.items()},
            "premises": [render(_substitute(f, image)) for f in mp_prem],
            "conclusion": render(conc)}
    laws = {"instance": [], "bad-subst": ["substitution-rank"],
            "bad-instance": ["instance-shape"]}[shape]
    return {"tree": tree, "n": 1, "laws": laws, "nodes": 1, "axioms": axioms}


def _substitute(f, image: dict):
    tag = f[0]
    if tag == "prop":
        return image.get(f[1], f)
    if tag == "const":
        return f
    if tag == "mod":
        return mod(f[1], *(_substitute(a, image) for a in f[2]))
    return (tag, _substitute(f[1], image), _substitute(f[2], image))


# -- models ----------------------------------------------------------------------------

# (key, algebra, functor, propositions, states, formulas)
MODEL_SPECS = (
    ("b-ps", "boolean", "powerset", ("p", "q"), 80, 14),
    ("l4-ps", "lukasiewicz:4", "powerset", ("p", "q"), 60, 14),
    ("g3-ps", "goedel:3", "powerset", ("p",), 40, 12),
    ("l3-fz", "lukasiewicz:3", "fuzzyhom", ("p", "q"), 24, 12),
    ("g4-fz", "goedel:4", "fuzzyhom", ("p",), 32, 12),
    ("b-fz", "boolean", "fuzzyhom", ("p", "q"), 30, 10),
    ("l3-ds2", "lukasiewicz:3", "distribution:2", ("p",), 40, 12),
    ("b-ds3", "boolean", "distribution:3", ("p", "q"), 40, 10),
    ("b-nb", "boolean", "neighborhood", ("p", "q"), 4, 10),
    ("l3-nb", "lukasiewicz:3", "neighborhood", ("p",), 3, 10),
    ("b-sel", "boolean", "selection", ("p",), 4, 10),
    ("l3-sel", "lukasiewicz:3", "selection", ("p",), 3, 10),
)


def models_inputs(seed: int) -> dict:
    rng = random.Random(f"models:{seed}")
    models, formulas = {}, []
    for key, alg, fun, props, n_states, n_formulas in MODEL_SPECS:
        cfg = session_config(alg, fun, props)
        models[key] = {"config": cfg, "model": random_model(rng, cfg, n_states)}
        k = chain_size(alg)
        for i in range(n_formulas):
            formulas.append({"model": key,
                             "formula": random_formula(rng, props, k, fun, 1 + i % 3, 5 + i % 4)})
    return {"models": models, "formulas": formulas}


MAKERS = {"decide": decide_inputs, "checks": checks_inputs, "models": models_inputs}


def make_inputs(workload: str, seed: int) -> dict:
    return MAKERS[workload](seed)


def inputs_json(workload: str, seed: int) -> bytes:
    """Canonical bytes of a workload's generated inputs."""
    return json.dumps(make_inputs(workload, seed), sort_keys=True).encode()
