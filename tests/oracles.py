"""Exhaustive reference implementations that the fast paths are tested against.

Each oracle recomputes a library result the slow, obvious way, so a test can
compare the two on a shared pool and demand zero disagreements. They import
only public names, so that removing a fast path from the library leaves its
oracle standing. The distribution liftings' references compute in
``fractions.Fraction``, term by term as the definitions read, where the
library computes on integers scaled by the lcm of the value denominators.
The formula parser's reference lexes one token at a time in a character loop
and reads the tokens through peek/next calls. ``step_consequence`` decides
stage-n consequence by sweeping every element of the stage, which the
realized-type deciders avoid. The predicate liftings' reference evaluates one
delta form at a time, with the arguments as callables, as every lifting did
before each got a column kernel.
"""
import itertools
import math
import re
from fractions import Fraction

from mvmodal import ParseError, StageTower, StepEvaluator, ValidationReport, push_delta
from mvmodal.functors import digits_of, undigits
from mvmodal.parsing import MAX_NESTING
from mvmodal.semantics import refutation, stage_columns
from mvmodal.syntax import (CONNECTIVES, CONST_INDEX, IDENT, IFF, NUMERAL, Bin, Const, Modal,
                            Prop, propositions_of)


# -- functor actions by unranking ---------------------------------------------------------


def generic_map_table(F, f_table, dom_n, cod_n):
    """T(f) as ids by decoding each element of T(dom_n), pushing it along f
    and encoding the image: the route every Functor.map_table shortcuts."""
    lookup = list(f_table).__getitem__
    return [F.encode(cod_n, push_delta(F.lat, F.decode(dom_n, x), lookup))
            for x in range(F.size(dom_n))]


def enumerated_modal_vectors(F, nodes, m):
    """The value vectors of nodes, (lifting, argument columns) pairs, at every
    element of T(m): the set each Functor.modal_vectors computes."""
    reads = [(lf, [col.__getitem__ for col in cols]) for lf, cols in nodes]
    return {tuple(lf.value_at(d, args) for lf, args in reads) for d in F.elements(m)}


# -- predicate liftings, one delta form at a time ------------------------------------------


def box_powerset(lat, delta, args):
    return lat.meet_many(map(args[0], delta))


def diamond_powerset(lat, delta, args):
    return lat.join_many(map(args[0], delta))


def box_fuzzyhom(lat, delta, args):
    # meet over the whole base of delta(y) -> f(y); absent points give top
    return lat.meet_many(lat.impl[v][args[0](e)] for e, v in delta[1])


def diamond_fuzzyhom(lat, delta, args):
    return lat.join_many(lat.mono[v][args[0](e)] for e, v in delta[1])


def box_neighborhood(lat, delta, args):
    _, base, mapping = delta
    code = 0
    for e in mapping:
        code = code * lat.size + args[0](e)
    return base[code]


def cond_selection(lat, delta, args):
    # s(f) included in g, inclusion graded by meet of pointwise residua; s(f)
    # is a row over the mapping's domain, joined over each fibre of the mapping
    _, table, m, mapping = delta
    row = digits_of(lat.size, m, table[undigits(lat.size, [args[0](e) for e in mapping])])
    acc = {}
    for x, y in enumerate(mapping):
        acc[y] = lat.join[acc[y]][row[x]] if y in acc else row[x]
    return lat.meet_many(lat.impl[v][args[1](y)] for y, v in acc.items())


def distribution_pointwise(lat, threshold: Fraction) -> dict:
    """prob and over on integers scaled by D, the lcm of the value
    denominators, as Distribution.liftings defined them pointwise."""
    scale = math.lcm(*(v.denominator for v in lat.values))
    num = [v.numerator * (scale // v.denominator) for v in lat.values]  # values * D
    up = [[a for a in range(lat.size) if lat.leq(a, b)] for b in range(lat.size)]
    tn, td = threshold.numerator, threshold.denominator

    def prob(lat, delta, args):
        # the largest value <= total/(D*q), scanning from bot
        _, pairs, q = delta
        f, total = args[0], 0
        for e, c in pairs:
            total += num[f(e)] * c
        best = lat.bot
        for i, v in enumerate(num):
            if v * q <= total and v >= num[best]:
                best = i
        return best

    def over(lat, delta, args):
        # mass[alpha] / q is mu of the cut {x : alpha <= f(x)}
        _, pairs, q = delta
        f, mass = args[0], [0] * lat.size
        for e, c in pairs:
            for a in up[f(e)]:
                mass[a] += c
        out = lat.bot
        for alpha, m in enumerate(mass):
            if m * td > tn * q:
                out = lat.join[out][alpha]
        return out

    return {"prob": prob, "over": over}


def pointwise_liftings(F, threshold: Fraction) -> dict:
    """name -> fn(lat, delta, args) for every standard lifting of F."""
    if F.name == "distribution":
        return distribution_pointwise(F.lat, threshold)
    return {"powerset": {"box": box_powerset, "diamond": diamond_powerset},
            "fuzzyhom": {"box": box_fuzzyhom, "diamond": diamond_fuzzyhom},
            "neighborhood": {"box": box_neighborhood},
            "selection": {"cond": cond_selection}}[F.name]


# -- distribution liftings in Fraction arithmetic -----------------------------------------


def expected_truth(lat, delta, argfn) -> Fraction:
    """Exact expected truth value of the argument under a grid distribution."""
    _, pairs, q = delta
    total = Fraction(0)
    for e, c in pairs:
        total += lat.values[argfn(e)] * Fraction(c, q)
    return total


def floor_to_chain(lat, fr: Fraction) -> int:
    """Largest carrier element whose value is <= fr."""
    best = lat.bot
    for i, v in enumerate(lat.values):
        if v <= fr and v >= lat.values[best]:
            best = i
    return best


def prob(lat, delta, argfn) -> int:
    return floor_to_chain(lat, expected_truth(lat, delta, argfn))


def over(lat, threshold: Fraction, delta, argfn) -> int:
    """Join of every alpha whose cut {x : alpha <= f(x)} has mass > threshold."""
    _, pairs, q = delta
    out = lat.bot
    for alpha in range(lat.size):
        mass = Fraction(0)
        for e, c in pairs:
            if lat.leq(alpha, argfn(e)):
                mass += Fraction(c, q)
        if mass > threshold:
            out = lat.join[out][alpha]
    return out


# -- stage-n consequence: the whole-stage sweep ---------------------------------------------


def step_consequence(session, premises, phi, n, tower=None):
    """Stage-n consequence; returns the first refuting stage element id."""
    for f in (*premises, phi):
        session.validate_formula(f)
    col = stage_columns(session, tower or StageTower(session), [*premises, phi], n)
    t = refutation(session, col, premises, phi)
    return t is None, t


# -- step-n soundness: the assignment sweep ----------------------------------------------


def _sweep(session, tower, axioms, n, first):
    """Every assignment of stage-(n-1) tables to every axiom, in order, with no
    budget check; callers keep it small. first(cons, assigned) is the first
    stage-n element at which cons fails under assigned, or None. A violation
    names the axiom, its first failing assignment and that element."""
    report = ValidationReport(subject=f"step-{n} soundness")
    tables = list(itertools.product(range(session.lat.size), repeat=tower.size(n - 1)))
    for name, cons in axioms.axioms:
        props = sorted(set().union(*map(propositions_of, cons.formulas())))
        for combo in itertools.product(tables, repeat=len(props)):
            assigned = dict(zip(props, combo))
            t = first(cons, assigned)
            if t is not None:
                report.fail("step-n-consequence", (name, tuple(assigned.items()), t),
                            f"axiom {name!r} fails")
                break
            report.checked += 1
    if report.ok:
        report.notes.append(
            f"all stage-{n - 1} truth-function assignments checked; semantic assignments "
            f"subsume syntactic substitutions, so the axiom set is step-{n} sound")
    return report


class AssignedTower:
    """tower, with each proposition p reading the stage-(n-1) table
    assigned[p]: as its column at level n-1 and, composed with gamma_{n-1},
    at level n."""

    def __init__(self, tower, n, assigned):
        self.tower, self.n, self.assigned = tower, n, assigned

    def __getattr__(self, name):
        return getattr(self.tower, name)

    def prop_column(self, k, p):
        if k < self.n:
            return self.assigned[p]
        return [self.assigned[p][u] for u in self.tower.gamma_table(self.n - 1)]


def first_failure(session, tower, cons, n, assigned):
    """The first stage-n element at which consecution cons fails under the
    assignment assigned (see AssignedTower); None if cons holds."""
    col = stage_columns(session, AssignedTower(tower, n, assigned), cons.formulas(), n)
    return refutation(session, col, cons.premises, cons.conclusion)


def sweep_soundness(session, axioms, n, tower=None):
    """Step-n soundness by sweeping the assignments over value columns."""
    tower = tower or StageTower(session)
    return _sweep(session, tower, axioms, n,
                  lambda cons, assigned: first_failure(session, tower, cons, n, assigned))


class AssignedEvaluator(StepEvaluator):
    """Propositions read their assigned stage-(n-1) tables through encode_full,
    composed with gamma_{n-1} on stage n."""

    def __init__(self, session, tower, n, assigned):
        super().__init__(session)
        self.tower, self.n, self.assigned = tower, n, assigned

    def value(self, phi, k, elem):
        if isinstance(phi, Prop):
            t = self.tower.encode_full(k, elem)
            if k == self.n:
                t = self.tower.gamma_table(self.n - 1)[t]
            return self.assigned[phi.name][t]
        return super().value(phi, k, elem)


def pointwise_soundness(session, axioms, n):
    """Step-n soundness by sweeping the assignments element by element on
    decoded stage elements."""
    tower = StageTower(session)
    top = session.lat.top

    def first(cons, assigned):
        ev = AssignedEvaluator(session, tower, n, assigned)
        for t in range(tower.size(n)):
            elem = tower.decode_full(n, t)
            if all(ev.value(g, n, elem) == top for g in cons.premises) \
                    and ev.value(cons.conclusion, n, elem) != top:
                return t
        return None

    return _sweep(session, tower, axioms, n, first)


# -- formula parsing: a character loop and a method-based recursive descent ---------------

_PUNCT = sorted([c.symbol for c in CONNECTIVES.values()] + [IFF, "(", ")", ","],
                key=len, reverse=True)
_TOKEN = re.compile(rf"(?P<numeral>{NUMERAL.pattern})|(?P<ident>{IDENT.pattern})"
                    rf"|(?P<punct>{'|'.join(map(re.escape, _PUNCT))})|\s+")
_LEFT = {c.symbol: c for c in CONNECTIVES.values() if not c.right_assoc}


def reference_tokenize(text):
    """(kind, text, pos) of each token, matched one at a time from the left."""
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", text, i)
        if m.lastgroup:  # None for whitespace
            tokens.append((m[0] if m.lastgroup == "punct" else m.lastgroup, m[0], i))
        i = m.end()
    return tokens


def _height(phi):
    best, stack = 0, [(phi, 0)]
    while stack:
        f, h = stack.pop()
        best = max(best, h)
        if isinstance(f, Bin):
            stack += [(f.left, h + 1), (f.right, h + 1)]
        elif isinstance(f, Modal):
            stack += [(a, h + 1) for a in f.args]
    return best


class ReferenceParser:
    """The grammar of mvmodal.parsing, read through peek/next/at calls on
    the token list; the same ParseError messages and positions."""

    def __init__(self, text, lattice, propositions, modalities):
        self.text = text
        self.tokens = reference_tokenize(text)
        self.i = 0
        self.lattice = lattice
        self.props = set(propositions)
        self.modalities = dict(modalities)
        self.depth = 0

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.text, len(self.text))
        self.i += 1
        return tok

    def _expect(self, kind):
        tok = self._peek()
        if tok is None or tok[0] != kind:
            raise ParseError(f"expected {kind!r}", self.text, tok[2] if tok else len(self.text))
        return self._next()

    def _at(self, kind):
        tok = self._peek()
        return tok is not None and tok[0] == kind

    def parse(self):
        phi = self.implication()
        if self._peek() is not None:
            raise ParseError("trailing input", self.text, self._peek()[2])
        if _height(phi) > MAX_NESTING:
            raise ParseError(f"connectives and modalities nest deeper than {MAX_NESTING}",
                             self.text, 0)
        return phi

    def _nested(self, parse, pos):
        if self.depth == MAX_NESTING:
            raise ParseError(f"formula nests deeper than {MAX_NESTING}", self.text, pos)
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    def implication(self):
        left = self.binary(0)
        if self._at("->"):
            tok = self._next()
            return Bin("imp", left, self._nested(self.implication, tok[2]))
        if self._at(IFF):
            self._next()
            right = self.binary(0)
            return Bin("and", Bin("imp", left, right), Bin("imp", right, left))
        return left

    def binary(self, min_prec):
        phi = self.atom()
        while (tok := self._peek()) and (c := _LEFT.get(tok[0])) and c.prec >= min_prec:
            self._next()
            phi = Bin(c.tag, phi, self.binary(c.prec + 1))
        return phi

    def atom(self):
        kind, text, pos = self._next()
        if kind == "(":
            phi = self._nested(self.implication, pos)
            self._expect(")")
            return phi
        if kind == "numeral":
            idx = self.lattice.index_of_label(text)
            if idx is None:
                raise ParseError(f"numeral {text!r} names no carrier element of "
                                 f"{self.lattice.name}", self.text, pos)
            return Const(idx)
        if kind == "ident":
            if self._at("("):
                if text not in self.modalities:
                    raise ParseError(f"unknown modality {text!r}", self.text, pos)
                self._next()
                args = self._nested(self._arguments, pos)
                arity = self.modalities[text]
                if len(args) != arity:
                    raise ParseError(f"modality {text!r} takes {arity} argument(s), "
                                     f"got {len(args)}", self.text, pos)
                return Modal(text, tuple(args))
            m = CONST_INDEX.fullmatch(text)
            if m and text not in self.props:
                idx = int(m.group(1))
                if idx >= self.lattice.size:
                    raise ParseError(f"constant index {idx} outside carrier "
                                     f"0..{self.lattice.size - 1}", self.text, pos)
                return Const(idx)
            if text in self.props:
                return Prop(text)
            raise ParseError(f"undeclared proposition {text!r}", self.text, pos)
        raise ParseError(f"unexpected token {text!r}", self.text, pos)

    def _arguments(self):
        args = [self.implication()]
        while self._at(","):
            self._next()
            args.append(self.implication())
        self._expect(")")
        return args


def reference_parse(text, lattice, propositions=(), modalities=None):
    return ReferenceParser(text, lattice, propositions, modalities or {}).parse()
