import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvmodal import (BudgetError, Distribution, FuzzyHom, InputError, Neighborhood,
                     Powerset, Selection, ValuationSet, builtin_lattice,
                     check_functor_laws, make_functor, push_delta, standard_liftings)
from mvmodal.functors import digits_of, undigits
from conftest import make_session, random_model
from oracles import enumerated_modal_vectors, generic_map_table

BOOL = builtin_lattice("boolean", 2)
L3 = builtin_lattice("lukasiewicz", 3)


# -- canonical ids ----------------------------------------------------------------


def test_powerset_bitmask_ids():
    F = Powerset(BOOL)
    assert F.size(3) == 8
    assert F.decode(3, 0) == frozenset()
    assert F.decode(3, 5) == frozenset({0, 2})
    assert F.encode(3, frozenset({0, 2})) == 5
    # enumeration order for two elements: {}, {0}, {1}, {0,1}
    assert [sorted(F.decode(2, i)) for i in range(4)] == [[], [0], [1], [0, 1]]


def test_fuzzyhom_big_endian_ids():
    F = FuzzyHom(L3)
    assert F.size(2) == 9
    # element 0 is the most significant digit
    assert F.decode(2, 5) == ("fz", ((0, 1), (1, 2)))
    assert F.encode(2, ("fz", ((0, 1), (1, 2)))) == 5
    assert F.decode(2, 0) == ("fz", ())  # bottom entries are dropped
    assert F.encode(2, ("fz", ())) == 0


def test_neighborhood_ids_round_trip():
    F = Neighborhood(BOOL)
    assert F.size(2) == 2 ** (2 ** 2)
    for x in range(F.size(2)):
        assert F.encode(2, F.decode(2, x)) == x


def test_selection_ids_round_trip():
    F = Selection(BOOL)
    assert F.size(2) == 4 ** 4
    for x in (0, 1, 37, 255):
        assert F.encode(2, F.decode(2, x)) == x


def test_distribution_descending_lex_order():
    F = Distribution(L3, 2)
    assert F.size(2) == 3
    forms = [F.decode(2, i) for i in range(3)]
    assert forms == [("ds", ((0, 2),), 2),
                     ("ds", ((0, 1), (1, 1)), 2),
                     ("ds", ((1, 2),), 2)]
    for i, f in enumerate(forms):
        assert F.encode(2, f) == i
    assert F.size(3) == 6  # compositions of 2 into 3 parts


def test_distribution_empty_carrier_rejected():
    F = Distribution(BOOL, 2)
    with pytest.raises(InputError):
        F.base_elem(0)


# -- functorial action --------------------------------------------------------------


def test_push_powerset_direct_image():
    assert push_delta(BOOL, frozenset({0, 1, 2}), lambda x: x % 2) == frozenset({0, 1})


def test_push_fuzzyhom_joins_collisions():
    delta = ("fz", ((0, 1), (1, 2)))
    assert push_delta(L3, delta, lambda x: 0) == ("fz", ((0, 2),))
    assert push_delta(L3, delta, lambda x: x + 1) == ("fz", ((1, 1), (2, 2)))


def test_push_distribution_accumulates_mass():
    delta = ("ds", ((0, 1), (1, 1)), 2)
    assert push_delta(BOOL, delta, lambda x: 7) == ("ds", ((7, 2),), 2)


def test_push_neighborhood_relabels_mapping():
    F = Neighborhood(BOOL)
    delta = F.decode(2, 11)
    pushed = push_delta(BOOL, delta, lambda x: x + 10)
    assert pushed == ("nb", delta[1], (10, 11))


PUSH_SPECS = ["powerset", "fuzzyhom", "neighborhood", "selection",
              "distribution:1", "distribution:2", "distribution:3"]


def _push_cases(s, rng):
    """(m, forms over m points) pairs: all of T(m) for m <= 3 where it is
    small, and the transitions of seeded m-state models."""
    F = s.functor
    cases = [(m, list(F.elements(m))) for m in range(4) if F.fits(m, 4096) is not None]
    return cases + [(m, list(random_model(s, m, rng).sigma)) for m in (1, 2, 3) for _ in range(3)]


@pytest.mark.parametrize("spec", PUSH_SPECS)
@pytest.mark.parametrize("algebra", ["boolean", "lukasiewicz:3", "goedel:4"])
def test_push_forms_matches_push_delta(algebra, spec):
    """Along the identity, a constant map and seeded id tables into 1..m+1
    points, push_forms gives push_delta's form for every form."""
    s = make_session(algebra=algebra, functor=spec, propositions=("p",))
    rng = random.Random(f"push_forms:{algebra}:{spec}")
    compared = disagreements = merging = 0
    for m, forms in _push_cases(s, rng):
        maps = [tuple(range(m)), (0,) * m]
        maps += [tuple(rng.randrange(cod) for _ in range(m)) for cod in range(1, m + 2)]
        for f in maps:
            want = [push_delta(s.lat, d, f.__getitem__) for d in forms]
            got = s.functor.push_forms(forms, f)
            compared += len(want)
            disagreements += len(got) != len(want) or sum(a != b for a, b in zip(got, want))
            merging += len(set(f)) < m
    assert disagreements == 0
    assert compared > 100 and merging > 5


@pytest.mark.parametrize("spec", PUSH_SPECS[:5])
def test_push_forms_renames_leaves_in_push_delta_order(spec):
    """A dict whose __missing__ numbers unseen leaves numbers them as a
    renaming callable passed to push_delta does."""

    class Numbering(dict):
        def __missing__(self, key):
            self[key] = len(self)
            return self[key]

    s = make_session(algebra="lukasiewicz:3", functor=spec, propositions=("p",))
    rng = random.Random(f"renaming:{spec}")
    for m, forms in _push_cases(s, rng):
        forms = forms[::-1]  # leaves reach the numbering out of id order
        ids, seen = Numbering(), {}
        want = [push_delta(s.lat, d, lambda t: seen.setdefault(t, len(seen))) for d in forms]
        assert s.functor.push_forms(forms, ids) == want, m
        assert list(ids) == list(seen)


def test_functor_laws_all_functors_boolean():
    for F in (Powerset(BOOL), FuzzyHom(BOOL), Neighborhood(BOOL),
              Selection(BOOL), Distribution(BOOL, 2)):
        report = check_functor_laws(F, bound=2)
        assert report.ok, (F.name, report.summary())
        assert report.checked > 0


def test_functor_laws_l3_with_budget_skips():
    for F in (Powerset(L3), FuzzyHom(L3), Distribution(L3, 3)):
        report = check_functor_laws(F, bound=2)
        assert report.ok and report.checked > 0
    report = check_functor_laws(Selection(L3), bound=2, budget=10**6)
    assert report.ok
    assert report.skipped  # Hom(HS,HS) for |S|=2 over three values is out of budget


def test_functor_laws_refuse_negative_bound():
    with pytest.raises(InputError, match="bound must be >= 0"):
        check_functor_laws(Powerset(BOOL), bound=-1)  # would pass with 0 cases checked


# -- size guards ---------------------------------------------------------------------


def test_size_text_symbolic_for_huge_carriers():
    F = Neighborhood(BOOL)
    assert F.fits(64, 10**6) is None
    assert "^" in F.size_text(64)
    S = Selection(BOOL)
    assert S.fits(32, 10**6) is None


def test_map_table_matches_pointwise_push():
    F = Powerset(BOOL)
    f_table = [1, 0, 1]
    table = F.map_table(f_table, 3, 2)
    for x in range(F.size(3)):
        expect = F.encode(2, push_delta(BOOL, F.decode(3, x), lambda e: f_table[e]))
        assert table[x] == expect


# -- whole-carrier actions against the unranking route ----------------------------------


G4 = builtin_lattice("goedel", 4)


def _functors(lat):
    return [Powerset(lat), FuzzyHom(lat), Neighborhood(lat), Selection(lat),
            *(Distribution(lat, q) for q in (1, 2, 3, 4))]


@pytest.mark.parametrize("lat", [BOOL, L3, G4], ids=lambda lat: lat.name)
def test_elements_enumerate_decode_order(lat):
    """elements(n) is T(n) in id order, for every in-budget n <= 4."""
    cases = 0
    for F in _functors(lat):
        for n in range(5):
            size = F.fits(n, 10**6)
            if size is None:
                continue
            assert list(F.elements(n)) == [F.decode(n, x) for x in range(size)], (F.name, n)
            cases += size
    assert cases > 0


def _seeded_maps(F, rng, count):
    """(f, dom_n, cod_n) with T(dom_n) enumerable and the generic encode into
    cod_n cheap: cod_n <= 4, and Hom(cod_n, A) small for table-valued F."""
    maps = []
    while len(maps) < count:
        dom_n, cod_n = rng.randrange(5), rng.randrange(1, 5)
        if F.fits(dom_n, 5000) is None or (F.table_valued and F.lat.size ** cod_n > 64):
            continue
        maps.append(([rng.randrange(cod_n) for _ in range(dom_n)], dom_n, cod_n))
    return maps


@pytest.mark.parametrize("lat", [BOOL, L3, G4], ids=lambda lat: lat.name)
def test_map_table_matches_generic_route(lat):
    rng = random.Random(f"map_table:{lat.name}")
    for F in _functors(lat):
        for f, dom_n, cod_n in [([], 0, 1), (list(range(3)), 3, 3)] + _seeded_maps(F, rng, 25):
            if F.fits(dom_n, 5000) is None:
                continue
            assert F.map_table(f, dom_n, cod_n) == generic_map_table(F, f, dom_n, cod_n), \
                (F.name, f, dom_n, cod_n)


@pytest.mark.parametrize("q,dom_n", [(1, 40), (2, 20), (3, 9), (4, 6)])
def test_distribution_map_table_into_513_points(q, dom_n):
    """Encoding at n = 513 pays a binomial per position on the generic route;
    the native table reads precomputed block sums instead."""
    F = Distribution(L3, q)
    rng = random.Random(f"distribution:{q}")
    spread = [rng.randrange(513) for _ in range(dom_n)]
    merging = [rng.choice((0, 256, 512)) for _ in range(dom_n)]
    for f in (spread, merging, sorted(spread, reverse=True)):
        assert F.map_table(f, dom_n, 513) == generic_map_table(F, f, dom_n, 513)


# -- modal vectors ----------------------------------------------------------------------


def _seeded_nodes(lifts, m, rng, count):
    """count (lifting, argument columns) nodes over m points, whose columns
    come from a pool of at most three, so that columns repeat."""
    pool = [tuple(rng.randrange(lifts[0].lat.size) for _ in range(m))
            for _ in range(rng.randint(1, 3))]
    return [(lf, [rng.choice(pool) for _ in range(lf.arity)])
            for lf in (rng.choice(lifts) for _ in range(count))]


@pytest.mark.parametrize("functor", ["powerset", "fuzzyhom", "neighborhood", "selection",
                                     "distribution:2"])
@pytest.mark.parametrize("lat", [BOOL, L3, G4], ids=lambda lat: lat.name)
def test_modal_vectors_match_enumeration(lat, functor):
    """modal_vectors is the set of lifted vectors over T(m), for every m <= 5
    where T(m) can be enumerated, with 1-4 nodes and repeated columns."""
    F = make_functor(functor, lat)
    lifts = list(standard_liftings(lat, F).liftings.values())
    rng = random.Random(f"modal_vectors:{lat.name}:{functor}")
    cases = 0
    for m in range(6):
        if F.fits(m, 20000) is None:
            continue
        for count in range(1, 5):
            for _ in range(8):
                nodes = _seeded_nodes(lifts, m, rng, count)
                want = enumerated_modal_vectors(F, nodes, m)
                assert F.modal_vectors(nodes, m, 10**6, 1) == want, (m, nodes)
                cases += 1
    assert cases >= 64


def test_modal_vectors_refuse_a_set_over_budget():
    F = Neighborhood(L3)
    box = standard_liftings(L3, F).get("box")
    nodes = [(box, [(0, 1)]), (box, [(2, 2)]), (box, [(0, 1)])]
    assert len(F.modal_vectors(nodes, 2, 9, 1)) == 9
    with pytest.raises(BudgetError, match=r"modal vectors at level 4 has more than 8 elements"):
        F.modal_vectors(nodes, 2, 8, 4)


# -- valuation sets -------------------------------------------------------------------


def test_valuation_set_big_endian():
    vs = ValuationSet(("p", "q"), 3)
    assert vs.size == 9
    assert vs.decode(5) == (1, 2)   # p is the most significant position
    assert vs.encode((1, 2)) == 5
    assert vs.value(5, 0) == 1 and vs.value(5, 1) == 2
    assert vs.describe(5, L3) == "p=0.5,q=1"
    empty = ValuationSet((), 3)
    assert empty.size == 1 and empty.describe(0, L3) == "-"


# -- digit helpers --------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 7), st.integers(0, 6), st.data())
def test_digits_round_trip(base, length, data):
    x = data.draw(st.integers(0, base**length - 1))
    ds = digits_of(base, length, x)
    assert len(ds) == length
    assert undigits(base, ds) == x


def test_make_functor_specs():
    assert make_functor("powerset", BOOL).name == "powerset"
    assert make_functor("distribution:3", BOOL).q == 3
    assert make_functor({"distribution": {"q": 2}}, BOOL).q == 2
    with pytest.raises(InputError):
        make_functor("markov", BOOL)
    with pytest.raises(InputError):
        make_functor("distribution:x", BOOL)
