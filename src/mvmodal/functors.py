"""Finite set endofunctors with canonical element ids, decoded forms and
their standard modalities.

Every functor assigns each finite carrier size n a canonically enumerated set
T(n) (ids 0..|T(n)|-1) together with decode/encode between ids and structured
"delta forms", and declares its predicate liftings, whose evaluators read
those forms; no other module reads a delta form. Each lifting has one
evaluator, a column kernel ``(lat, functor, forms, cols) -> list[int]``: it
walks a sequence of delta forms and reads argument i as ``cols[i][x]`` from an
indexable column over base elements, with the lattice tables held in locals,
so a whole column costs no call per element. Delta forms are small
hashable trees whose leaves are base-set elements; crucially they also
represent elements of T(X) for *non-enumerable* X (pushforwards keep the
structure small), which is what lets stage maps be computed without
materializing astronomically large carriers:

    frozenset({...})                powerset: the subset itself
    ("fz", ((elem, value), ...))    fuzzy subset, sparse, default bot
    ("nb", base, mapping)           neighborhood: N(g) = base[enc(g on mapping)]
    ("sel", table, m, mapping)      selection: table over Hom(m, A), relabelled
    ("ds", ((elem, count), ...), q) distribution on the 1/q grid

Enumeration conventions (stable, documented for the file formats): functions
into the carrier are numerals with element 0 as the most significant digit;
subsets are bitmasks with bit i = element i; grid distributions enumerate in
descending-lex count order, e.g. q=2, n=2 gives (2,0), (1,1), (0,2).

Besides the one-element codecs, every functor computes its action on whole
finite carriers in closed form, which is all the exhaustive checkers need:
``elements(n)`` yields the delta forms of T(n) in id order without unranking,
equal to ``[decode(n, x) for x in range(size(n))]``, and ``map_table(f, dom_n,
cod_n)`` is the id table of T(f), equal to encoding ``push_delta`` of each
decoded element along f, with the work all elements share done once per map.
``push_forms(forms, f)`` applies T(f) to a list of delta forms along an
indexable id table f, which is how the approximation maps, the canonical
models and the naturality check push transitions: it equals ``[push_delta(lat,
d, f.__getitem__) for d in forms]``, each functor folding its own leaves and
ordering int leaves with plain ``sorted``. ``push_delta`` is the callable route
along any base-element map, kept for the nested stage elements
(``StageTower.decode_full``/``encode_full``, ``sigma_states``), whose leaves
are trees ordered by ``sort_key``.

``modal_vectors(nodes, m, budget, level)`` is the one-step structure the
deciders read: the exact set of value vectors that the named liftings take
over T(m), where ``nodes`` holds one (lifting, argument columns) pair per modal
node and each column lists an argument's values at the m points. It equals
the set of the nodes' value vectors over ``elements(m)``, but every
functor except the distributions computes it from its own structure without
enumerating T(m): each closure folds one point at a time, where one option
at every point is the identity, so the running set only grows, and it raises
a BudgetError naming the modal vectors at ``level`` as soon as that set
exceeds ``budget``. The distributions run their kernels over T(m), whose
size grows only polynomially in m, behind the ``fits`` guard. The closures
rest on the lattice laws, which every Session checks.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, islice, product
from operator import getitem
from typing import Callable, Iterable, Iterator, Sequence

from .algebra import ResiduatedLattice
from .report import BudgetError, InputError, ValidationReport, as_int

__all__ = [
    "ValuationSet",
    "Functor",
    "Powerset",
    "FuzzyHom",
    "Neighborhood",
    "Selection",
    "Distribution",
    "make_functor",
    "push_delta",
    "sort_key",
    "digits_of",
    "undigits",
    "check_functor_laws",
]


# -- positional numeral helpers (element 0 = most significant digit) -----------


def digits_of(base: int, length: int, x: int) -> tuple[int, ...]:
    out = [0] * length
    for i in range(length - 1, -1, -1):
        x, d = divmod(x, base)
        out[i] = d
    return tuple(out)


def undigits(base: int, seq: Sequence[int]) -> int:
    x = 0
    for v in seq:
        x = x * base + v
    return x


def sort_key(e):
    """Total deterministic order on delta-form trees (for canonical sparse forms)."""
    if isinstance(e, bool) or e is None:
        return (0, repr(e))
    if isinstance(e, int):
        return (1, e)
    if isinstance(e, str):
        return (2, e)
    if isinstance(e, tuple):
        return (3, tuple(sort_key(x) for x in e))
    if isinstance(e, frozenset):
        return (4, tuple(sorted((sort_key(x) for x in e))))
    return (5, repr(e))


def _canon_pairs(acc: dict) -> tuple:
    return tuple(sorted(acc.items(), key=lambda kv: sort_key(kv[0])))


def push_delta(lat: ResiduatedLattice, delta, f: Callable):
    """Apply the functorial action along an arbitrary base-element map f.

    Works uniformly on all delta forms; f maps base elements to base elements
    of the codomain (ids or decoded stage elements alike).
    """
    if isinstance(delta, frozenset):
        return frozenset(map(f, delta))
    tag = delta[0]
    if tag == "fz":
        # direct image with joins: (Hf g)(y) = join of g over the fibre of y
        acc: dict = {}
        for e, v in delta[1]:
            k = f(e)
            acc[k] = lat.join[acc[k]][v] if k in acc else v
        return ("fz", _canon_pairs(acc))
    if tag == "nb":
        _, base, mapping = delta
        return ("nb", base, tuple(f(e) for e in mapping))
    if tag == "sel":
        _, table, m, mapping = delta
        return ("sel", table, m, tuple(f(e) for e in mapping))
    if tag == "ds":
        _, pairs, q = delta
        acc = {}
        for e, c in pairs:
            k = f(e)
            acc[k] = acc.get(k, 0) + c
        return ("ds", _canon_pairs(acc), q)
    raise InputError(f"unknown delta form {delta!r}")


# -- valuations -----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ValuationSet:
    """Hom(P, A): all assignments of carrier values to the proposition list,
    enumerated lexicographically with the first proposition most significant."""

    props: tuple[str, ...]
    asize: int

    @property
    def size(self) -> int:
        return self.asize ** len(self.props)

    def decode(self, v: int) -> tuple[int, ...]:
        return digits_of(self.asize, len(self.props), v)

    def encode(self, vals: Sequence[int]) -> int:
        return undigits(self.asize, vals)

    def value(self, v: int, prop_index: int) -> int:
        return (v // self.asize ** (len(self.props) - 1 - prop_index)) % self.asize

    def describe(self, v: int, lat: ResiduatedLattice) -> str:
        if not self.props:
            return "-"
        vals = self.decode(v)
        return ",".join(f"{p}={lat.label(x)}" for p, x in zip(self.props, vals))


# -- the functors ---------------------------------------------------------------


class Functor:
    """Object action on canonical finite carriers plus decoded-form codecs."""

    name: str = "?"
    table_valued = False  # elements are tables over Hom(n, A), so encode walks that domain

    def __init__(self, lat: ResiduatedLattice):
        self.lat = lat

    # exact |T(n)|; may be astronomically large for some functors, so callers
    # gate on fits() before enumerating
    def size(self, n: int) -> int:
        raise NotImplementedError

    def log2_size(self, n: int) -> float:
        return math.log2(max(self.size(n), 1))

    def size_text(self, n: int) -> str:
        return str(self.size(n))

    def fits(self, n: int, cap: int) -> int | None:
        """|T(n)| when it is <= cap, else None; never builds huge powers."""
        try:
            if self.log2_size(n) > cap.bit_length() + 1:
                return None
        except OverflowError:  # the logarithm itself is beyond float range
            return None
        v = self.size(n)
        return v if v <= cap else None

    def decode(self, n: int, x: int):
        raise NotImplementedError

    def encode(self, n: int, delta) -> int:
        raise NotImplementedError

    def base_elem(self, n: int):
        """Canonical element of T(n) used as the default section choice."""
        raise NotImplementedError

    def describe(self, delta, elem_text: Callable[[object], str]) -> str:
        raise NotImplementedError

    def sigma_from_json(self, n: int, entry):
        """Delta form over states 0..n-1 from a model file's sigma entry, a
        list of ints."""
        raise NotImplementedError

    def sigma_to_json(self, n: int, delta) -> list[int]:
        """The model file's sigma entry of a delta form over states 0..n-1."""
        raise NotImplementedError

    def liftings(self, threshold: Fraction) -> list[tuple]:
        """The standard predicate liftings as (name, arity, formula, kernel)
        rows; kernel(lat, functor, forms, cols) is the list of the lifted
        predicate's values at the delta forms in forms, with argument i given
        as an indexable column cols[i] over base elements."""
        raise InputError(f"no standard liftings for functor {self.name!r}")

    def elements(self, n: int) -> Iterator:
        """The delta forms of T(n) in id order, without unranking each id:
        equal to [decode(n, x) for x in range(size(n))]."""
        raise NotImplementedError

    def map_table(self, f_table: Sequence[int], dom_n: int, cod_n: int) -> list[int]:
        """T(f) as ids, for f an id table from dom_n into cod_n elements: entry
        x is encode(cod_n, push_delta(lat, decode(dom_n, x), f)). Both
        carriers must be enumerable."""
        raise NotImplementedError

    def push_forms(self, forms: Iterable, f) -> list:
        """T(f) on each delta form of forms, for f indexable by their leaves
        and holding ints: [push_delta(lat, d, f.__getitem__) for d in forms].
        Leaves first reach f in push_delta's order, so a dict whose
        __missing__ numbers new keys renumbers them as push_delta would."""
        raise NotImplementedError

    def modal_vectors(self, nodes: Sequence[tuple], m: int, budget: int, level: int) -> set[tuple]:
        """The distinct value vectors of nodes, (lifting, argument columns)
        pairs, over T(m); see the module docstring."""
        raise NotImplementedError


def _over_budget(budget: int, level: int) -> BudgetError:
    return BudgetError(f"modal vectors at level {level}", f"more than {budget}", budget)


def _graded_fold(lat: ResiduatedLattice, box: Sequence[bool], columns, grades, budget: int,
                 level: int) -> set[tuple]:
    """The vectors over every choice of a grade g(x) in grades or bot at each
    point x: coordinate i is the meet over x of g(x) -> columns[i][x] if
    box[i], else the join over x of g(x) * columns[i][x]. The points are
    folded in one at a time, and the set only grows, since folding in bot
    changes nothing. A point is folded in once however often it repeats,
    because the lattice operations are idempotent."""
    seen = {tuple(lat.top if b else lat.bot for b in box)}
    every = lat.size ** len(box)
    for point in set(zip(*columns)):
        # step: one meet or join row per coordinate, for each grade
        steps = {tuple(lat.meet[lat.impl[g][a]] if b else lat.join[lat.mono[g][a]]
                       for b, a in zip(box, point)) for g in grades}
        seen |= {tuple(map(getitem, step, v)) for v in seen for step in steps}
        if len(seen) > budget:
            raise _over_budget(budget, level)
        if len(seen) == every:
            break
    return seen


def _join_image(join, f: Sequence[int], pairs, out: list[int]) -> list[int]:
    """out with each (x, v) of pairs folded into out[f[x]] by join, in order,
    as push_delta folds a fibre: the first value to reach a position
    replaces what out held there."""
    seen = set()
    for x, v in pairs:
        y = f[x]
        out[y] = join[out[y]][v] if y in seen else v
        seen.add(y)
    return out


def _pullbacks(a: int, f: Sequence[int], cod_n: int) -> list[int]:
    """pre[g]: the id in Hom(dom, A) of g . f, for every g in Hom(cod_n, A)."""
    return [undigits(a, [g[y] for y in f]) for g in product(range(a), repeat=cod_n)]


def _box_powerset(lat, F, forms, cols):
    meet, top, f = lat.meet, lat.top, cols[0]
    out = []
    for subset in forms:
        v = top
        for x in subset:
            v = meet[v][f[x]]
        out.append(v)
    return out


def _diamond_powerset(lat, F, forms, cols):
    join, bot, f = lat.join, lat.bot, cols[0]
    out = []
    for subset in forms:
        v = bot
        for x in subset:
            v = join[v][f[x]]
        out.append(v)
    return out


class Powerset(Functor):
    name = "powerset"

    def size(self, n: int) -> int:
        return 1 << n

    def log2_size(self, n: int) -> float:
        return float(n)

    def size_text(self, n: int) -> str:
        return f"2^{n}"

    def decode(self, n: int, x: int):
        return frozenset(i for i in range(n) if (x >> i) & 1)

    def encode(self, n: int, delta) -> int:
        return sum(1 << e for e in delta)

    def elements(self, n: int) -> Iterator:
        # product varies its last slot fastest, and bit 0 varies fastest
        down = range(n - 1, -1, -1)
        return (frozenset(compress(down, bits)) for bits in product((0, 1), repeat=n))

    def map_table(self, f_table: Sequence[int], dom_n: int, cod_n: int) -> list[int]:
        # the image of x is the union of the images of its bits; the ids whose
        # highest bit is i are those below 1 << i with bit i added
        out = [0]
        for y in f_table:
            bit = 1 << y
            out += [v | bit for v in out]
        return out

    def push_forms(self, forms, f):
        get = f.__getitem__
        return [frozenset(map(get, d)) for d in forms]

    def base_elem(self, n: int):
        return frozenset()

    def describe(self, delta, elem_text) -> str:
        inner = ", ".join(elem_text(e) for e in sorted(delta))
        return "{" + inner + "}"

    def sigma_from_json(self, n: int, ids):
        if any(not 0 <= x < n for x in ids):
            raise InputError(f"state id outside 0..{n - 1}")
        return frozenset(ids)

    def sigma_to_json(self, n: int, delta) -> list[int]:
        return sorted(delta)

    def liftings(self, threshold: Fraction) -> list[tuple]:
        return [("box", 1, "box(f)(X) = meet of f(x) over x in X", _box_powerset),
                ("diamond", 1, "diamond(f)(X) = join of f(x) over x in X", _diamond_powerset)]

    def modal_vectors(self, nodes, m, budget, level):
        # a subset is a choice of grade top or bot at each point: box folds
        # in the points' values by meet, diamond by join
        box = [lf.name == "box" for lf, _ in nodes]
        return _graded_fold(self.lat, box, [cols[0] for _, cols in nodes], (self.lat.top,),
                            budget, level)


def _box_fuzzyhom(lat, F, forms, cols):
    # meet over the whole base of g(x) -> f(x); absent points give top
    meet, impl, top, f = lat.meet, lat.impl, lat.top, cols[0]
    out = []
    for _, pairs in forms:
        v = top
        for x, g in pairs:
            v = meet[v][impl[g][f[x]]]
        out.append(v)
    return out


def _diamond_fuzzyhom(lat, F, forms, cols):
    join, mono, bot, f = lat.join, lat.mono, lat.bot, cols[0]
    out = []
    for _, pairs in forms:
        v = bot
        for x, g in pairs:
            v = join[v][mono[g][f[x]]]
        out.append(v)
    return out


class FuzzyHom(Functor):
    """T(S) = Hom(S, A); covariant action = join-based direct image."""

    name = "fuzzyhom"

    def size(self, n: int) -> int:
        return self.lat.size ** n

    def log2_size(self, n: int) -> float:
        return n * math.log2(self.lat.size)

    def size_text(self, n: int) -> str:
        return f"{self.lat.size}^{n}"

    def decode(self, n: int, x: int):
        vals = digits_of(self.lat.size, n, x)
        return ("fz", tuple((i, v) for i, v in enumerate(vals) if v != self.lat.bot))

    def encode(self, n: int, delta) -> int:
        return undigits(self.lat.size, self.sigma_to_json(n, delta))

    def elements(self, n: int) -> Iterator:
        bot, pos = self.lat.bot, range(n)
        return (("fz", tuple(compress(zip(pos, vals), map(bot.__ne__, vals))))
                for vals in product(range(self.lat.size), repeat=n))

    def map_table(self, f_table: Sequence[int], dom_n: int, cod_n: int) -> list[int]:
        a, join, fill = self.lat.size, self.lat.join, [self.lat.bot] * cod_n
        return [undigits(a, _join_image(join, f_table, pairs, fill[:]))
                for _, pairs in self.elements(dom_n)]

    def push_forms(self, forms, f):
        # direct image with joins: (Hf g)(y) = join of g over the fibre of y
        join, out = self.lat.join, []
        for _, pairs in forms:
            acc: dict = {}
            for e, v in pairs:
                y = f[e]
                acc[y] = join[acc[y]][v] if y in acc else v
            out.append(("fz", tuple(sorted(acc.items()))))
        return out

    def base_elem(self, n: int):
        return ("fz", ())

    def describe(self, delta, elem_text) -> str:
        inner = ", ".join(f"{elem_text(e)}:{self.lat.label(v)}" for e, v in delta[1])
        return "fz{" + inner + "}"

    def sigma_from_json(self, n: int, vals):
        if len(vals) != n or any(not 0 <= v < self.lat.size for v in vals):
            raise InputError(f"expected {n} values below {self.lat.size}")
        return ("fz", tuple((i, v) for i, v in enumerate(vals) if v != self.lat.bot))

    def sigma_to_json(self, n: int, delta) -> list[int]:
        vals = [self.lat.bot] * n
        for e, v in delta[1]:
            vals[e] = v
        return vals

    def liftings(self, threshold: Fraction) -> list[tuple]:
        return [("box", 1, "box(f)(g) = meet over x of g(x) -> f(x)", _box_fuzzyhom),
                ("diamond", 1, "diamond(f)(g) = join over x of g(x) * f(x)", _diamond_fuzzyhom)]

    def modal_vectors(self, nodes, m, budget, level):
        box = [lf.name == "box" for lf, _ in nodes]
        return _graded_fold(self.lat, box, [cols[0] for _, cols in nodes], range(self.lat.size),
                            budget, level)


def _code(a: int, f, mapping) -> int:
    """The id in Hom(len(mapping), A) of the function x -> f[mapping[x]]."""
    code = 0
    for e in mapping:
        code = code * a + f[e]
    return code


def _box_neighborhood(lat, F, forms, cols):
    # N(f) reads N's table at f on its mapping; forms of one T(n) share theirs
    a, f, last, code = lat.size, cols[0], None, 0
    out = []
    for _, base, mapping in forms:
        if mapping is not last:
            last, code = mapping, _code(a, f, mapping)
        out.append(base[code])
    return out


class Neighborhood(Functor):
    """T(S) = Hom(Hom(S, A), A); doubly contravariant, hence covariant."""

    name = "neighborhood"
    table_valued = True

    def _homsize(self, n: int) -> int:
        return self.lat.size ** n

    def size(self, n: int) -> int:
        return self.lat.size ** self._homsize(n)

    def log2_size(self, n: int) -> float:
        return self._homsize(n) * math.log2(self.lat.size)

    def size_text(self, n: int) -> str:
        return f"{self.lat.size}^({self.lat.size}^{n})"

    def decode(self, n: int, x: int):
        base = digits_of(self.lat.size, self._homsize(n), x)
        return ("nb", base, tuple(range(n)))

    def elements(self, n: int) -> Iterator:
        mapping, a = tuple(range(n)), self.lat.size
        return (("nb", base, mapping) for base in product(range(a), repeat=self._homsize(n)))

    def map_table(self, f_table: Sequence[int], dom_n: int, cod_n: int) -> list[int]:
        # T(f)(N)(g) = N(g . f)
        a, pre = self.lat.size, _pullbacks(self.lat.size, f_table, cod_n)
        return [undigits(a, [base[i] for i in pre])
                for base in product(range(a), repeat=self._homsize(dom_n))]

    def push_forms(self, forms, f):
        # forms sharing a mapping object get one pushed mapping object, which
        # the kernels read once per distinct object
        get, last, pushed, out = f.__getitem__, None, (), []
        for _, base, mapping in forms:
            if mapping is not last:
                last, pushed = mapping, tuple(map(get, mapping))
            out.append(("nb", base, pushed))
        return out

    def encode(self, n: int, delta) -> int:
        # N read through the pullback of every g in Hom(n, A), as map_table does
        _, base, mapping = delta
        a = self.lat.size
        return undigits(a, [base[i] for i in _pullbacks(a, mapping, n)])

    def base_elem(self, n: int):
        return ("nb", (self.lat.bot,) * self._homsize(n), tuple(range(n)))

    def describe(self, delta, elem_text) -> str:
        _, base, mapping = delta
        labels = ",".join(self.lat.label(v) for v in base)
        over = ",".join(elem_text(e) for e in mapping)
        return f"nb[{labels} over ({over})]"

    def sigma_from_json(self, n: int, vals):
        if len(vals) != self._homsize(n) or any(not 0 <= v < self.lat.size for v in vals):
            raise InputError(f"expected {self._homsize(n)} table entries below {self.lat.size}")
        return ("nb", tuple(vals), tuple(range(n)))

    def sigma_to_json(self, n: int, delta) -> list[int]:
        return _table_row(n, delta[1], delta[2])

    def liftings(self, threshold: Fraction) -> list[tuple]:
        return [("box", 1, "box(f)(N) = N(f)", _box_neighborhood)]

    def modal_vectors(self, nodes, m, budget, level):
        # N takes any value at each distinct argument column, independently
        classes: dict = {}
        slot = [classes.setdefault(cols[0], len(classes)) for _, cols in nodes]
        a = self.lat.size
        if a ** len(classes) > budget:
            raise _over_budget(budget, level)
        return {tuple(vals[i] for i in slot) for vals in product(range(a), repeat=len(classes))}


def _cond_selection(lat, F: Selection, forms, cols):
    # s(f) included in g, inclusion graded by the meet of pointwise residua.
    # Per mapping, the code of f on it and one (g(y), first x, other xs)
    # entry per fibre of y, in the order _join_image joins a row's values
    a, meet, join, impl, top = lat.size, lat.meet, lat.join, lat.impl, lat.top
    f, g = cols
    last, code, fibres, rows = None, 0, (), defaultdict(dict)
    out = []
    for _, table, m, mapping in forms:
        if mapping is not last:
            last, code = mapping, _code(a, f, mapping)
            fibre: dict = {}
            for x, y in enumerate(mapping):
                fibre.setdefault(y, []).append(x)
            fibres = [(g[y], xs[0], xs[1:]) for y, xs in fibre.items()]
        h, known = table[code], rows[m]
        row = known.get(h)
        if row is None:
            row = known[h] = digits_of(a, m, h)
        v = top
        for gy, x, rest in fibres:
            w = row[x]
            for x in rest:
                w = join[w][row[x]]
            v = meet[v][impl[w][gy]]
        out.append(v)
    return out


class Selection(Functor):
    """T(S) = Hom(Hom(S, A), Hom(S, A)) with join-direct-image relabelling."""

    name = "selection"
    table_valued = True

    def _homsize(self, n: int) -> int:
        return self.lat.size ** n

    def size(self, n: int) -> int:
        h = self._homsize(n)
        return h ** h

    def log2_size(self, n: int) -> float:
        h = self._homsize(n)
        return h * math.log2(max(h, 1)) if h else 0.0

    def size_text(self, n: int) -> str:
        return f"({self.lat.size}^{n})^({self.lat.size}^{n})"

    def decode(self, n: int, x: int):
        h = self._homsize(n)
        return ("sel", digits_of(h, h, x), n, tuple(range(n)))

    def elements(self, n: int) -> Iterator:
        h, mapping = self._homsize(n), tuple(range(n))
        return (("sel", table, n, mapping) for table in product(range(h), repeat=h))

    def map_table(self, f_table: Sequence[int], dom_n: int, cod_n: int) -> list[int]:
        # T(f)(s)(g) = the join-image along f of s(g . f); push[j] is the
        # join-image of dom-function j
        lat, h_dom, h_cod = self.lat, self._homsize(dom_n), self._homsize(cod_n)
        a, fill = lat.size, [lat.bot] * cod_n
        pre = _pullbacks(a, f_table, cod_n)
        push = [undigits(a, _join_image(lat.join, f_table, enumerate(row), fill[:]))
                for row in product(range(a), repeat=dom_n)]
        return [undigits(h_cod, [push[table[i]] for i in pre])
                for table in product(range(h_dom), repeat=h_dom)]

    def push_forms(self, forms, f):
        get, last, pushed, out = f.__getitem__, None, (), []
        for _, table, m, mapping in forms:
            if mapping is not last:
                last, pushed = mapping, tuple(map(get, mapping))
            out.append(("sel", table, m, pushed))
        return out

    def encode(self, n: int, delta) -> int:
        # the join-image along mapping of s(g . mapping), for every g in Hom(n, A)
        _, table, m, mapping = delta
        a, join, fill = self.lat.size, self.lat.join, [self.lat.bot] * n
        rows = (enumerate(digits_of(a, m, table[i])) for i in _pullbacks(a, mapping, n))
        return undigits(self._homsize(n), [undigits(a, _join_image(join, mapping, row, fill[:]))
                                           for row in rows])

    def base_elem(self, n: int):
        h = self._homsize(n)
        return ("sel", tuple(range(h)), n, tuple(range(n)))

    def describe(self, delta, elem_text) -> str:
        _, table, m, mapping = delta
        over = ",".join(elem_text(e) for e in mapping)
        return f"sel[{','.join(map(str, table))} over ({over})]"

    def sigma_from_json(self, n: int, vals):
        h = self._homsize(n)
        if len(vals) != h or any(not 0 <= v < h for v in vals):
            raise InputError(f"expected {h} function ids below {h}")
        return ("sel", tuple(vals), n, tuple(range(n)))

    def sigma_to_json(self, n: int, delta) -> list[int]:
        return _table_row(n, delta[1], delta[3])

    def liftings(self, threshold: Fraction) -> list[tuple]:
        return [("cond", 2, "cond(f,g)(s) = meet over x of s(f)(x) -> g(x)", _cond_selection)]

    def modal_vectors(self, nodes, m, budget, level):
        # s(f) is a free h in Hom(m, A) for each distinct first argument f, so
        # the nodes sharing f fold like fuzzyhom's box with the grades h(x),
        # and the groups combine as a product
        groups: dict = {}
        for i, (_, (f, g)) in enumerate(nodes):
            groups.setdefault(f, []).append((i, g))
        parts, size = [], 1
        for group in groups.values():
            parts.append(_graded_fold(self.lat, [True] * len(group), [g for _, g in group],
                                      range(self.lat.size), budget, level))
            size *= len(parts[-1])
            if size > budget:
                raise _over_budget(budget, level)
        # node i sits at where[i] in the groups' concatenated vectors
        order = [i for group in groups.values() for i, _ in group]
        where = sorted(range(len(order)), key=order.__getitem__)
        return {tuple(flat[j] for j in where) for flat in (sum(c, ()) for c in product(*parts))}


class Distribution(Functor):
    """Probability distributions restricted to the 1/q grid."""

    name = "distribution"

    def __init__(self, lat: ResiduatedLattice, q: int):
        super().__init__(lat)
        if q < 1:
            raise InputError("distribution grid denominator q must be >= 1")
        self.q = q

    def _count(self, q: int, n: int) -> int:
        if n == 0:
            return 1 if q == 0 else 0
        return math.comb(q + n - 1, n - 1)

    def size(self, n: int) -> int:
        return self._count(self.q, n)

    def decode(self, n: int, x: int):
        q, counts = self.q, []
        left = self.q
        for i in range(n):
            for c in range(left, -1, -1):
                block = self._count(left - c, n - i - 1)
                if x < block:
                    counts.append(c)
                    left -= c
                    break
                x -= block
        return ("ds", tuple((i, c) for i, c in enumerate(counts) if c), q)

    def encode(self, n: int, delta) -> int:
        x, left = 0, delta[2]
        for i, c in enumerate(self.sigma_to_json(n, delta)):
            for d in range(left, c, -1):
                x += self._count(left - d, n - i - 1)
            left -= c
        return x

    def elements(self, n: int) -> Iterator:
        def spread(start: int, left: int):
            # sparse count vectors on positions start..n-1 summing to left,
            # descending-lex: by first nonzero position, then its count
            if not left:
                yield ()
                return
            for i in range(start, n):
                for c in range(left, 0, -1):
                    for rest in spread(i + 1, left - c):
                        yield ((i, c), *rest)

        q = self.q
        return (("ds", pairs, q) for pairs in spread(0, q))

    def map_table(self, f_table: Sequence[int], dom_n: int, cod_n: int) -> list[int]:
        # encode adds block[i][left - c] at position i, where left is the mass
        # not yet placed: block[i][m] = sum over r < m of count(r, cod_n-i-1).
        # run[left][i] sums block[j][left] over j < i, so a stretch of zero
        # counts costs one subtraction and an encode O(nonzero entries).
        q = self.q
        block = [list(accumulate((self._count(r, cod_n - i - 1) for r in range(q)), initial=0))
                 for i in range(cod_n)]
        run = [list(accumulate((b[left] for b in block), initial=0)) for left in range(q + 1)]
        out = []
        for _, pairs, _ in self.elements(dom_n):
            acc: dict = {}
            for e, c in pairs:
                y = f_table[e]
                acc[y] = acc.get(y, 0) + c
            x, left, prev = 0, q, 0
            for i, c in sorted(acc.items()):
                x += run[left][i] - run[left][prev] + block[i][left - c]
                left, prev = left - c, i + 1
            out.append(x)
        return out

    def push_forms(self, forms, f):
        out = []
        for _, pairs, q in forms:
            acc: dict = {}
            for e, c in pairs:
                y = f[e]
                acc[y] = acc.get(y, 0) + c
            out.append(("ds", tuple(sorted(acc.items())), q))
        return out

    def base_elem(self, n: int):
        if n < 1:
            raise InputError("no distributions on the empty carrier")
        return ("ds", ((0, self.q),), self.q)

    def describe(self, delta, elem_text) -> str:
        _, pairs, q = delta
        inner = ", ".join(f"{elem_text(e)}:{c}/{q}" for e, c in pairs)
        return "ds{" + inner + "}"

    def sigma_from_json(self, n: int, counts):
        if len(counts) != n or sum(counts) != self.q or any(c < 0 for c in counts):
            raise InputError(f"expected {n} nonnegative counts summing to {self.q}")
        return ("ds", tuple((i, c) for i, c in enumerate(counts) if c), self.q)

    def sigma_to_json(self, n: int, delta) -> list[int]:
        counts = [0] * n
        for e, c in delta[1]:
            counts[e] = c
        return counts

    def liftings(self, threshold: Fraction) -> list[tuple]:
        """prob(f)(mu) floors the expectation of f under mu onto the chain;
        over(f)(mu) joins each alpha whose cut {x : alpha <= f(x)} has mass
        above the threshold. Both run exactly on integers: the values are
        scaled by D, the lcm of their denominators, so every comparison is the
        rational one multiplied through by D*q or q*denominator(threshold)."""
        lat = self.lat
        if lat.values is None:
            raise InputError("distribution modalities needs a rational embedding: "
                             f"algebra {lat.name} has no values table")
        if any(lat.values[i] >= lat.values[i + 1] for i in range(lat.size - 1)):
            raise InputError("distribution modalities needs a chain with increasing values; "
                             f"{lat.name} is not")

        scale = math.lcm(*(v.denominator for v in lat.values))
        num = [v.numerator * (scale // v.denominator) for v in lat.values]  # values * D
        up = [[a for a in range(lat.size) if lat.leq(a, b)] for b in range(lat.size)]
        tn, td = threshold.numerator, threshold.denominator

        def prob(lat, F, forms, cols):
            # the largest value <= total/(D*q), and bot when bot is larger; as
            # num increases, num[i] * q <= total exactly when num[i] <= total // q
            f, bot, out = cols[0], lat.bot, []
            for _, pairs, q in forms:
                total = 0
                for x, c in pairs:
                    total += num[f[x]] * c
                out.append(max(bisect_right(num, total // q) - 1, bot))
            return out

        def over(lat, F, forms, cols):
            # mass[alpha] / q is mu of the cut {x : alpha <= f(x)}
            f, join, bot, size, out = cols[0], lat.join, lat.bot, lat.size, []
            for _, pairs, q in forms:
                mass, least = [0] * size, tn * q
                for x, c in pairs:
                    for a in up[f[x]]:
                        mass[a] += c
                v = bot
                for alpha, m in enumerate(mass):
                    if m * td > least:
                        v = join[v][alpha]
                out.append(v)
            return out

        return [("prob", 1, "prob(f)(mu) = sum of f(x)*mu(x), floored onto the chain", prob),
                ("over", 1, f"over(f)(mu) = join of alpha with mu(f_alpha) > {threshold}", over)]

    def modal_vectors(self, nodes, m, budget, level):
        # |T(m)| grows only polynomially in m, so enumerate it, stopping once
        # every possible vector has appeared
        if self.fits(m, budget) is None:
            raise BudgetError(f"T(realized types at level {level - 1})", self.size_text(m), budget)
        every, out, forms = self.lat.size ** len(nodes), set(), self.elements(m)
        while chunk := list(islice(forms, 512)):
            out.update(zip(*(lf.column(chunk, cols) for lf, cols in nodes)))
            if len(out) == every:
                break
        return out


def _table_row(n: int, table, mapping) -> list[int]:
    """A function-table transition as a model-file row; only a table indexed
    by the state set itself has one."""
    if tuple(mapping) != tuple(range(n)):
        raise InputError("transition tables are indexed off the state set; "
                         "this model evaluates but does not serialize")
    return list(table)


_KINDS = {f.name: f for f in (Powerset, FuzzyHom, Neighborhood, Selection)}


def make_functor(spec, lat: ResiduatedLattice) -> Functor:
    """Build from a config value: a name string, "distribution:N", or
    {"distribution": {"q": N}}."""
    if isinstance(spec, str):
        if spec in _KINDS:
            return _KINDS[spec](lat)
        if spec.startswith("distribution:"):
            try:
                return Distribution(lat, int(spec.split(":", 1)[1]))
            except ValueError:
                raise InputError(f"bad distribution size in {spec!r}") from None
        raise InputError(f"unknown functor {spec!r}")
    if isinstance(spec, dict) and set(spec) == {"distribution"}:
        try:
            return Distribution(lat, as_int(spec["distribution"]["q"], "distribution q"))
        except (KeyError, TypeError, ValueError):
            raise InputError('distribution functor config must be {"distribution": {"q": N}}') from None
    raise InputError(f"bad functor config {spec!r}")


# -- the law checker -------------------------------------------------------------


def check_functor_laws(F: Functor, bound: int = 2, budget: int = 10**6) -> ValidationReport:
    """Exhaustive identity/composition checks for all carriers of size <= bound.

    Carrier sizes whose T-image exceeds the budget are listed as skipped, so
    the result is a bounded certificate over the in-budget fragment.
    """
    if bound < 0:
        raise InputError(f"functor-law bound must be >= 0, got {bound}")
    report = ValidationReport(subject=f"functor laws: {F.name}")
    tsize: dict[int, int | None] = {n: F.fits(n, budget) for n in range(bound + 1)}

    for n in range(bound + 1):
        if tsize[n] is None:
            report.skip(f"identity at |S|={n}: |T(S)|={F.size_text(n)} exceeds budget {budget}")
            continue
        table = F.map_table(tuple(range(n)), n, n)
        report.checked += len(table)
        if table != list(range(tsize[n])):
            bad = next(x for x, y in enumerate(table) if x != y)
            report.fail("identity", (n, bad), f"T(id) moves element {bad} at |S|={n}")

    for a, b, c in product(range(bound + 1), repeat=3):
        if tsize[a] is None or tsize[b] is None:
            report.skip(f"composition at sizes ({a},{b},{c}): T-carrier over budget {budget}")
            continue
        tgs = [(g, F.map_table(g, b, c)) for g in product(range(c), repeat=b)]
        for f in product(range(b), repeat=a):
            tf = F.map_table(f, a, b)
            for g, tg in tgs:
                tg_of_tf = [tg[y] for y in tf]
                tgf = F.map_table(tuple(g[f[x]] for x in range(a)), a, c)
                report.checked += len(tgf)
                if tgf != tg_of_tf:
                    bad = next(x for x in range(len(tgf)) if tgf[x] != tg_of_tf[x])
                    report.fail("composition", (a, b, c, f, g, bad),
                                "T(g.f) != T(g).T(f) at the named element")
                    return report
    return report
