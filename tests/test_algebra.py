import json
import random
from fractions import Fraction
from itertools import product

import pytest

from mvmodal import InputError, Session, builtin_lattice, load_algebra, validate_lattice
from mvmodal.algebra import label_for_fraction

from test_acceptance import LAWS, _violates


def frozen_tables(kind, k):
    """Independent oracle: chain operations computed with Fraction arithmetic."""
    vals = [Fraction(i, k - 1) for i in range(k)]

    def idx(fr):
        return vals.index(fr)

    mono = [[0] * k for _ in range(k)]
    impl = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            if kind == "lukasiewicz":
                mono[a][b] = idx(max(Fraction(0), vals[a] + vals[b] - 1))
                impl[a][b] = idx(min(Fraction(1), 1 - vals[a] + vals[b]))
            else:
                mono[a][b] = min(a, b)
                impl[a][b] = k - 1 if a <= b else b
    return mono, impl


@pytest.mark.parametrize("kind,k", [("lukasiewicz", 3), ("lukasiewicz", 4),
                                    ("goedel", 3), ("goedel", 5)])
def test_builtin_chain_tables_match_fraction_oracle(kind, k):
    lat = builtin_lattice(kind, k)
    mono, impl = frozen_tables(kind, k)
    assert [list(r) for r in lat.mono] == mono
    assert [list(r) for r in lat.impl] == impl
    assert [list(r) for r in lat.join] == [[max(a, b) for b in range(k)] for a in range(k)]
    assert [list(r) for r in lat.meet] == [[min(a, b) for b in range(k)] for a in range(k)]


def test_lukasiewicz3_frozen_cells():
    lat = builtin_lattice("lukasiewicz", 3)
    # 1/2 * 1/2 = 0, 1/2 -> 0 = 1/2, 1 -> 1/2 = 1/2, 0 -> x = 1
    assert lat.fuse(1, 1) == 0
    assert lat.residuum(1, 0) == 1
    assert lat.residuum(2, 1) == 1
    assert all(lat.residuum(0, b) == 2 for b in range(3))


def test_builtin_chains_are_built_once_and_shared():
    specs = [("boolean", 2), ("lukasiewicz", 2), ("goedel", 2), ("lukasiewicz", 3),
             ("goedel", 3), ("lukasiewicz", 7)]
    for kind, k in specs:
        assert builtin_lattice(kind, k) is builtin_lattice(kind, k)
    assert len({id(builtin_lattice(kind, k)) for kind, k in specs}) == len(specs)
    sessions = [Session.from_config({"algebra": "lukasiewicz:3"}) for _ in range(2)]
    assert sessions[0].lat is sessions[1].lat is builtin_lattice("lukasiewicz", 3)


def test_loaded_lattices_are_not_shared_and_each_is_checked():
    data = builtin_lattice("lukasiewicz", 3).to_dict()
    first, second = (Session.from_config({"algebra": data}).lat for _ in range(2))
    assert first is not second
    assert builtin_lattice("lukasiewicz", 3) not in (first, second)
    broken = {**data, "impl": [[2, 2, 2], [1, 2, 2], [0, 0, 2]]}  # 1 -> 1/2 read as 0
    for _ in range(2):  # a refusal is not remembered as a pass
        with pytest.raises(InputError, match="law residuation fails"):
            Session.from_config({"algebra": broken})


@pytest.mark.parametrize("kind,k", [("boolean", 2), ("lukasiewicz", 3),
                                    ("lukasiewicz", 4), ("goedel", 3), ("goedel", 4)])
def test_builtin_lattices_validate(kind, k):
    report = validate_lattice(builtin_lattice(kind, k))
    assert report.ok, report.summary()
    assert report.checked > 0


def test_residuation_exhaustive_l5():
    lat = builtin_lattice("lukasiewicz", 5)
    for a in range(5):
        for b in range(5):
            for c in range(5):
                assert lat.leq(lat.fuse(a, b), c) == lat.leq(b, lat.residuum(a, c))


def test_chain_order_and_bounds():
    lat = builtin_lattice("goedel", 4)
    assert lat.bot == 0 and lat.top == 3
    assert lat.meet_many([]) == lat.top
    assert lat.join_many([]) == lat.bot
    assert lat.meet_many([1, 3, 2]) == 1
    assert lat.join_many([1, 3, 2]) == 3


def test_corrupted_residuation_yields_first_witness():
    lat = builtin_lattice("lukasiewicz", 3)
    tables = lat.to_dict()
    tables["impl"][1][0] = 2  # claim 1/2 -> 0 = 1
    bad = load_algebra(tables)
    report = validate_lattice(bad)
    assert not report.ok
    first = report.violations[0]
    assert first.law == "residuation"
    assert first.witness == (1, 2, 0)


def test_corrupted_commutativity_detected():
    lat = builtin_lattice("goedel", 3)
    tables = lat.to_dict()
    tables["mono"][0][2] = 2
    report = validate_lattice(load_algebra(tables))
    assert not report.ok
    assert any(v.law in ("mono-commutative", "mono-associative", "residuation",
                         "mono-unit-top", "integrality")
               for v in report.violations)


BUILTINS = [("boolean", 2)] + [(kind, k) for kind in ("lukasiewicz", "goedel") for k in range(2, 7)]


def brute_force_violations(lat):
    """Each violated law with its first violating tuple in row-major order."""
    out = []
    for law, arity in LAWS:
        first = next((w for w in product(range(lat.size), repeat=arity) if _violates(lat, law, w)), None)
        if first is not None:
            out.append((law, first))
    return out


@pytest.mark.parametrize("kind,k", BUILTINS)
def test_validator_matches_brute_force_on_seeded_corruptions(kind, k):
    rng = random.Random(f"corrupt-{kind}-{k}")
    lat = builtin_lattice(kind, k)
    assert brute_force_violations(lat) == []
    for _ in range(40):
        data = lat.to_dict()
        for _ in range(rng.randint(1, 3)):
            data[rng.choice(["join", "meet", "mono", "impl"])][rng.randrange(k)][rng.randrange(k)] = \
                rng.randrange(k)
        if rng.random() < 0.1:
            data["bot"], data["top"] = rng.randrange(k), rng.randrange(k)
        bad = load_algebra(data)
        report = validate_lattice(bad)
        assert [(v.law, v.witness) for v in report.violations] == brute_force_violations(bad)
        assert report.ok == (not report.violations)
        assert report.checked == sum(k**arity for _, arity in LAWS)


def test_boolean_only_size_two():
    with pytest.raises(InputError):
        builtin_lattice("boolean", 3)


def test_load_algebra_roundtrip(tmp_path):
    lat = builtin_lattice("lukasiewicz", 4)
    path = tmp_path / "l4.json"
    path.write_text(json.dumps(lat.to_dict()))
    again = load_algebra(path)
    assert again.impl == lat.impl
    assert again.labels == lat.labels
    assert validate_lattice(again).ok


def test_load_algebra_rejects_bad_shapes():
    lat = builtin_lattice("boolean", 2)
    tables = lat.to_dict()
    tables["join"] = [[0, 1]]
    with pytest.raises(InputError):
        load_algebra(tables)
    tables = lat.to_dict()
    del tables["meet"]
    with pytest.raises(InputError):
        load_algebra(tables)
    tables = lat.to_dict()
    tables["mono"][0][0] = 7
    with pytest.raises(InputError):
        load_algebra(tables)


def test_labels_exact_decimal_or_fraction():
    assert label_for_fraction(Fraction(1, 2)) == "0.5"
    assert label_for_fraction(Fraction(1, 4)) == "0.25"
    assert label_for_fraction(Fraction(1, 3)) == "1/3"
    assert label_for_fraction(Fraction(2, 3)) == "2/3"
    assert label_for_fraction(Fraction(0)) == "0"
    lat = builtin_lattice("lukasiewicz", 3)
    assert [lat.label(i) for i in range(3)] == ["0", "0.5", "1"]
    assert lat.index_of_label("0.5") == 1
    assert lat.index_of_label("1/2") == 1
    assert lat.index_of_label("0.7") is None
    assert lat.index_of_label("junk") is None
