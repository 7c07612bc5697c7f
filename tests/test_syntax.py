import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvmodal import (Bin, Const, Modal, ParseError, Prop, builtin_lattice,
                     parse_formula, pretty, propositions_of, rank, subformulas,
                     substitute, tokenize)

LAT = builtin_lattice("lukasiewicz", 3)
PROPS = ("p", "q", "r")
MODS = {"box": 1, "diamond": 1, "cond": 2}


def parse(text):
    return parse_formula(text, LAT, PROPS, MODS)


# -- parsing ---------------------------------------------------------------------


def test_precedence_tightest_to_loosest():
    # fuse binds tighter than meet, meet tighter than join, join tighter than imp
    phi = parse("p & q /\\ r | p -> q")
    assert phi == Bin("imp",
                      Bin("or", Bin("and", Bin("fuse", Prop("p"), Prop("q")), Prop("r")),
                          Prop("p")),
                      Prop("q"))


def test_implication_right_associative():
    assert parse("p -> q -> r") == Bin("imp", Prop("p"), Bin("imp", Prop("q"), Prop("r")))


def test_left_associative_lattice_ops():
    assert parse("p | q | r") == Bin("or", Bin("or", Prop("p"), Prop("q")), Prop("r"))
    assert parse("p & q & r") == Bin("fuse", Bin("fuse", Prop("p"), Prop("q")), Prop("r"))


def test_iff_desugars_to_meet_of_implications():
    phi = parse("p <-> q")
    assert phi == Bin("and", Bin("imp", Prop("p"), Prop("q")),
                      Bin("imp", Prop("q"), Prop("p")))


def test_numerals_resolve_to_carrier_indices():
    assert parse("c0") == Const(0)
    assert parse("0") == Const(0)
    assert parse("0.5") == Const(1)
    assert parse("1/2") == Const(1)
    assert parse("1") == Const(2)


def test_numeral_slash_does_not_eat_meet():
    # "1/\p" is the numeral 1 followed by the meet symbol
    assert parse("1/\\p") == Bin("and", Const(2), Prop("p"))
    assert parse("1/2/\\p") == Bin("and", Const(1), Prop("p"))


def test_modalities_and_arity_checking():
    assert parse("box(p)") == Modal("box", (Prop("p"),))
    assert parse("cond(p, q)") == Modal("cond", (Prop("p"), Prop("q")))
    with pytest.raises(ParseError):
        parse("box(p, q)")
    with pytest.raises(ParseError):
        parse("cond(p)")
    with pytest.raises(ParseError):
        parse("waffle(p)")


def test_undeclared_proposition_rejected():
    with pytest.raises(ParseError) as err:
        parse("p /\\ s")
    assert "undeclared" in str(err.value)


def test_out_of_range_constant_rejected():
    with pytest.raises(ParseError):
        parse("c7")
    with pytest.raises(ParseError):
        parse("0.7")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("p -> )")
    assert "position 5" in str(err.value)


def test_tokenize_snapshot():
    kinds = [(t.kind, t.text) for t in tokenize("box(p) <-> 1/2")]
    assert kinds == [("ident", "box"), ("(", "("), ("ident", "p"),
                     (")", ")"), ("<->", "<->"), ("numeral", "1/2")]


# -- structure functions ------------------------------------------------------------


def test_rank_counts_modal_nesting():
    assert rank(parse("p -> q")) == 0
    assert rank(parse("box(p)")) == 1
    assert rank(parse("box(diamond(p)) | diamond(q)")) == 2
    assert rank(parse("cond(box(p), q)")) == 2


def test_subformulas_outermost_first_no_duplicates():
    phi = parse("box(p) -> box(p)")
    subs = subformulas(phi)
    assert subs[0] == phi
    assert len(subs) == len(set(subs)) == 3  # whole, box(p), p


def test_substitute_simultaneous():
    phi = parse("p -> q")
    rho = {"p": parse("q"), "q": parse("p")}
    assert substitute(phi, rho) == parse("q -> p")


def test_propositions_of():
    assert propositions_of(parse("box(p) -> cond(q, 0.5)")) == {"p", "q"}


# -- pretty / parse round trip -------------------------------------------------------


def formula_strategy():
    atoms = st.one_of(
        st.sampled_from([Prop(p) for p in PROPS]),
        st.builds(Const, st.integers(0, LAT.size - 1)),
    )

    def extend(children):
        return st.one_of(
            st.builds(Bin, st.sampled_from(("or", "and", "fuse", "imp")),
                      children, children),
            st.builds(lambda a: Modal("box", (a,)), children),
            st.builds(lambda a: Modal("diamond", (a,)), children),
            st.builds(lambda a, b: Modal("cond", (a, b)), children, children),
        )

    return st.recursive(atoms, extend, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(formula_strategy())
def test_pretty_parse_round_trip(phi):
    assert parse(pretty(phi, LAT)) == phi


@settings(max_examples=150, deadline=None)
@given(formula_strategy(), formula_strategy())
def test_substitution_rank_bound(phi, image):
    rho = {"p": image}
    assert rank(substitute(phi, rho)) <= rank(phi) + rank(image)


def test_pretty_minimal_parentheses():
    assert pretty(parse("(p -> q) -> r"), LAT) == "(p -> q) -> r"
    assert pretty(parse("p -> (q -> r)"), LAT) == "p -> q -> r"
    assert pretty(parse("(p | q) /\\ r"), LAT) == "(p | q) /\\ r"
    assert pretty(parse("p | (q /\\ r)"), LAT) == "p | q /\\ r"
    assert pretty(parse("box(0.5 & p)"), LAT) == "box(0.5 & p)"
