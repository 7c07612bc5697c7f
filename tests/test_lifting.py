import random
from fractions import Fraction
from itertools import product

import pytest

import oracles
from mvmodal import (Distribution, Functor, FuzzyHom, InputError, Neighborhood,
                     Powerset, PredicateLifting, Selection, apply_lifting,
                     builtin_lattice, check_alpha_preservation, check_naturality,
                     load_algebra, push_delta, standard_liftings)
from oracles import expected_truth, floor_to_chain, pointwise_liftings

BOOL = builtin_lattice("boolean", 2)
L3 = builtin_lattice("lukasiewicz", 3)


def get(lat, functor, name):
    return standard_liftings(lat, functor).get(name)


# -- pointwise values against hand arithmetic ----------------------------------------


def test_powerset_box_diamond_tables():
    box = get(BOOL, Powerset(BOOL), "box")
    dia = get(BOOL, Powerset(BOOL), "diamond")
    f = (0, 1)
    # subsets of {0,1} in id order: {}, {0}, {1}, {0,1}
    assert apply_lifting(box, 2, [f]) == (1, 0, 1, 0)
    assert apply_lifting(dia, 2, [f]) == (0, 0, 1, 1)


@pytest.mark.parametrize("arg", [(1,), (0, 5), (1, 0, 1), (0.9, 1)],
                         ids=["too-short", "outside-carrier", "too-long", "not-an-integer"])
def test_apply_lifting_rejects_malformed_predicates(arg):
    box = get(BOOL, Powerset(BOOL), "box")
    with pytest.raises(InputError, match="2 carrier values below 2"):
        apply_lifting(box, 2, [arg])


def test_fuzzyhom_box_diamond_l3():
    F = FuzzyHom(L3)
    box = get(L3, F, "box")
    dia = get(L3, F, "diamond")
    g = ("fz", ((0, 1), (1, 2)))  # g(0)=1/2, g(1)=1
    f = [2, 0]                    # f(0)=1, f(1)=0
    # box: meet(g0 -> f0, g1 -> f1) = meet(1/2 -> 1, 1 -> 0) = meet(1, 0) = 0
    assert box.value_at(g, [f.__getitem__]) == 0
    # diamond: join(g0 * f0, g1 * f1) = join(1/2, 0) = 1/2
    assert dia.value_at(g, [f.__getitem__]) == 1
    # off-support element contributes bot -> x = top to box, bot * x = bot to diamond
    sparse = ("fz", ((1, 1),))
    assert box.value_at(sparse, [f.__getitem__]) == L3.residuum(1, 0)
    assert dia.value_at(sparse, [f.__getitem__]) == 0


def test_neighborhood_box_reads_table():
    F = Neighborhood(BOOL)
    box = get(BOOL, F, "box")
    # N assigns 1 exactly to the predicate (1,0), whose big-endian code is 2
    base = tuple(1 if i == 2 else 0 for i in range(4))
    delta = ("nb", base, (0, 1))
    assert box.value_at(delta, [(1, 0).__getitem__]) == 1
    assert box.value_at(delta, [(0, 1).__getitem__]) == 0
    assert box.value_at(delta, [(1, 1).__getitem__]) == 0


def test_selection_cond_l3():
    F = Selection(L3)
    cond = get(L3, F, "cond")
    # s maps every h to the constant-top row; cond(f,g) = meet over x of top -> g(x)
    h = L3.size ** 2
    top_row = 2 * 3 + 2  # big-endian digits (2,2)
    delta = ("sel", tuple(top_row for _ in range(h)), 2, (0, 1))
    g = [2, 1]
    assert cond.value_at(delta, [[0, 0].__getitem__, g.__getitem__]) == 1  # meet(2->2, 2->1)=1
    id_row0 = 0 * 3 + 0
    delta0 = ("sel", tuple(id_row0 for _ in range(h)), 2, (0, 1))
    assert cond.value_at(delta0, [[0, 0].__getitem__, g.__getitem__]) == 2  # bot -> anything


def test_distribution_prob_exact_expectation():
    F = Distribution(L3, 2)
    prob = get(L3, F, "prob")
    mu = ("ds", ((0, 1), (1, 1)), 2)  # half mass on each state
    f = [1, 2]                        # values 1/2 and 1
    # E = 1/2 * 1/2 + 1/2 * 1 = 3/4, floored onto {0, 1/2, 1} gives 1/2
    assert expected_truth(L3, mu, f.__getitem__) == Fraction(3, 4)
    assert floor_to_chain(L3, Fraction(3, 4)) == 1
    assert prob.value_at(mu, [f.__getitem__]) == 1
    point = ("ds", ((1, 2),), 2)
    assert prob.value_at(point, [f.__getitem__]) == 2


def test_distribution_over_threshold():
    F = Distribution(L3, 2)
    over = get(L3, F, "over")
    mu = ("ds", ((0, 1), (1, 1)), 2)
    f = [1, 2]
    # cut at 1: both states qualify, mass 1 > 1/2; cut at 2: state 1 only, mass 1/2 not > 1/2
    assert over.value_at(mu, [f.__getitem__]) == 1
    point = ("ds", ((1, 2),), 2)
    assert over.value_at(point, [f.__getitem__]) == 2


def _uneven_chain():
    """goedel:4 (its operations read only the order) with values 0, 1/3, 1/2, 1."""
    data = builtin_lattice("goedel", 4).to_dict()
    data.update(name="uneven4", labels=[], values=["0", "1/3", "1/2", "1"])
    return load_algebra(data)


DIFF_CHAINS = [builtin_lattice("boolean", 2)] + [
    builtin_lattice("lukasiewicz", k) for k in (3, 4, 5)] + [
    builtin_lattice("goedel", k) for k in (3, 4)] + [_uneven_chain()]
DIFF_THRESHOLDS = [Fraction(t) for t in ("0", "1/3", "1/2", "2/3", "1", "-1/2", "7/5")]


@pytest.mark.parametrize("q", [1, 2, 3, 5])
def test_distribution_kernels_match_fraction_definitions(q):
    """The integer prob and over kernels agree with the Fraction definitions on
    every element of T(n), n <= 2, and every argument table."""
    cases, disagreements = 0, []
    for lat in DIFF_CHAINS:
        F = Distribution(lat, q)
        for threshold in DIFF_THRESHOLDS:
            reg = standard_liftings(lat, F, threshold)
            prob, over = reg.get("prob"), reg.get("over")
            for n in range(3):
                for x, f in product(range(F.size(n)), product(range(lat.size), repeat=n)):
                    mu, arg = F.decode(n, x), f.__getitem__
                    got = (prob.value_at(mu, [arg]), over.value_at(mu, [arg]))
                    want = (oracles.prob(lat, mu, arg), oracles.over(lat, threshold, mu, arg))
                    cases += 1
                    if got != want:
                        disagreements.append((lat.name, str(threshold), mu, f, got, want))
    assert cases > 0
    assert disagreements == []


def test_distribution_liftings_need_chain_values():
    tables = builtin_lattice("lukasiewicz", 3).to_dict()
    del tables["values"]
    from mvmodal import load_algebra

    bare = load_algebra(tables)
    with pytest.raises(InputError):
        standard_liftings(bare, Distribution(bare, 2))


def test_functor_without_liftings_has_no_standard_liftings():
    class Bare(Functor):
        name = "bare"

    with pytest.raises(InputError, match="no standard liftings for functor 'bare'"):
        standard_liftings(BOOL, Bare(BOOL))


# -- naturality ------------------------------------------------------------------------


@pytest.mark.parametrize("lat", [BOOL, L3])
def test_standard_liftings_natural(lat):
    functors = [Powerset(lat), FuzzyHom(lat), Neighborhood(lat),
                Selection(lat), Distribution(lat, 2)]
    for F in functors:
        reg = standard_liftings(lat, F)
        for name in reg.arities():
            report = check_naturality(reg.get(name), bound=2, budget=10**5)
            assert report.ok, (lat.name, F.name, name, report.summary())
            assert report.checked > 0


# -- column kernels against the pointwise reference ---------------------------------------


G4 = builtin_lattice("goedel", 4)
SAMPLE = 200  # forms drawn from T(m), by seeded ids, when it has more


def _kernel_grid():
    for lat in (BOOL, L3, G4):
        for F in (Powerset(lat), FuzzyHom(lat), Neighborhood(lat), Selection(lat)):
            yield pytest.param(F, Fraction(1, 2), id=f"{F.name}-{lat.name}")
        for q in (1, 2, 3):
            for threshold in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
                yield pytest.param(Distribution(lat, q), threshold,
                                   id=f"distribution:{q}-{lat.name}-{threshold}")


def _sample(F, m, rng):
    size = F.size(m)
    if size <= SAMPLE:
        return list(F.elements(m))
    return [F.decode(m, rng.randrange(size)) for _ in range(SAMPLE)]


def _reshaped(F, before, after, n) -> bool:
    """Whether pushing merged points (subsets, fuzzy and grid pairs) or left
    a mapping that is not the identity on range(n) (tables)."""
    if F.name == "powerset":
        return len(after) < len(before)
    if F.name in ("fuzzyhom", "distribution"):
        return len(after[1]) < len(before[1])
    return after[-1] != tuple(range(n))


def _differs(lat, F, forms, cols, lf, ref):
    """How many forms the kernel, and value_at, read differently from ref."""
    reads = [c.__getitem__ for c in cols]
    want = [ref(lat, F, d, reads) for d in forms]
    got = lf.column(forms, cols)
    one = [lf.value_at(d, reads) for d in forms]
    return sum(g != w for g, w in zip(got, want)) + sum(o != w for o, w in zip(one, want)) \
        + abs(len(got) - len(want))


@pytest.mark.parametrize("F,threshold", list(_kernel_grid()))
def test_column_kernels_match_the_pointwise_reference(F, threshold):
    """Every shipped lifting's column equals the reference on seeded columns
    over T(m), m <= 3, and over those forms pushed along seeded maps into
    smaller sets, where mappings stop being identities and pairs merge."""
    lat, rng = F.lat, random.Random(f"kernels:{F.name}:{F.lat.name}:{threshold}")
    refs = pointwise_liftings(F, threshold)
    compared = reshaped = 0
    for name, lf in standard_liftings(lat, F, threshold).liftings.items():
        ref = refs[name]
        for m in range(4):
            forms = _sample(F, m, rng)
            cases = [(forms, m)]
            for n in range(1, m + 1):
                f = [rng.randrange(n) for _ in range(m)]
                pushed = [push_delta(lat, d, f.__getitem__) for d in forms]
                reshaped += sum(_reshaped(F, d, p, n) for d, p in zip(forms, pushed))
                cases.append((pushed, n))
            for case, n in cases:
                for _ in range(3):
                    cols = [tuple(rng.randrange(lat.size) for _ in range(n))
                            for _ in range(lf.arity)]
                    assert _differs(lat, F, case, cols, lf, ref) == 0, (name, m, n, cols)
                    compared += len(case)
    assert compared > 100
    assert reshaped > 0 or getattr(F, "q", None) == 1  # one grid point never merges


def test_fault_injected_lifting_fails_naturality():
    F = Powerset(BOOL)
    # reads the raw size of the subset, which no relabeling-invariant map may do
    broken = PredicateLifting(
        name="card", arity=1, functor=F, lat=BOOL,
        formula="card(f)(X) = |X| mod 2",
        kernel=lambda lat, forms, cols: [len(d) % 2 for d in forms],
    )
    report = check_naturality(broken, bound=2)
    assert not report.ok
    a, b, f_table, h_tables, x = report.violations[0].witness
    assert isinstance(a, int) and isinstance(b, int) and len(h_tables) == 1


# -- cut preservation --------------------------------------------------------------------


def test_box_preserves_top_cut_on_singletons():
    box = get(BOOL, Powerset(BOOL), "box")
    report = check_alpha_preservation(box, BOOL.top, set_bound=2, family_bound=2,
                                      g_family_bound=1)
    assert report.ok and report.checked > 0


def test_box_fails_top_cut_with_two_goals():
    box = get(BOOL, Powerset(BOOL), "box")
    report = check_alpha_preservation(box, BOOL.top, set_bound=2, family_bound=2)
    assert not report.ok
    n, fam_f, fam_g = report.violations[0].witness
    assert len(fam_g) == 2


def test_preservation_rejects_non_unary():
    cond = get(L3, Selection(L3), "cond")
    with pytest.raises(InputError):
        check_alpha_preservation(cond, L3.top)


def test_preservation_refuses_alpha_outside_carrier():
    box = get(BOOL, Powerset(BOOL), "box")
    for alpha in (7, BOOL.size, -1):
        with pytest.raises(InputError, match="outside the carrier"):
            check_alpha_preservation(box, alpha)


def test_diamond_preserves_bot_cut():
    dia = get(L3, Powerset(L3), "diamond")
    report = check_alpha_preservation(dia, L3.bot, set_bound=2, family_bound=1)
    assert report.ok  # every cut at bot is the full carrier
