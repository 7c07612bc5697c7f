import json
import os
import pickle
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvmodal
from mvmodal import (Bin, Const, Modal, ParseError, Prop, Session, builtin_lattice,
                     parse_formula, pretty, propositions_of, rank, subformulas,
                     substitute, tokenize)
from mvmodal.parsing import MAX_NESTING
from conftest import make_session, random_formula
from oracles import reference_parse, reference_tokenize

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
    toks = tokenize(" cond(p_1, 0.5)|c12/\\7 & q\t-> 03 ")
    assert [(t.kind, t.text, t.pos) for t in toks] == [
        ("ident", "cond", 1), ("(", "(", 5), ("ident", "p_1", 6), (",", ",", 9),
        ("numeral", "0.5", 11), (")", ")", 14), ("|", "|", 15), ("ident", "c12", 16),
        ("/\\", "/\\", 19), ("numeral", "7", 21), ("&", "&", 23), ("ident", "q", 25),
        ("->", "->", 27), ("numeral", "03", 30)]
    assert tokenize("") == tokenize(" \n\t") == []


def test_tokenize_numeral_slash_splits():
    # a slash continues a numeral only before a digit; "1.5/3" is not one numeral
    assert [t.text for t in tokenize("1/\\p")] == ["1", "/\\", "p"]
    assert [t.text for t in tokenize("1/2/\\p")] == ["1/2", "/\\", "p"]
    with pytest.raises(ParseError, match="unexpected character '/' at position 3"):
        tokenize("1/2/3")
    with pytest.raises(ParseError, match="unexpected character '/' at position 3"):
        tokenize("1.5/3")


@pytest.mark.parametrize("text, char, pos", [
    ("p -> q $ r", "$", 7), ("p - q", "-", 2), ("p < q", "<", 2), ("p\\q", "\\", 1),
    ("1.", ".", 1), ("p ²", "²", 2), ("²", "²", 0), ("1²", "²", 1),
])
def test_tokenize_reports_unlexable_character_and_position(text, char, pos):
    # "²" passes str.isdigit() but is no decimal digit, so it starts no numeral
    with pytest.raises(ParseError) as err:
        tokenize(text)
    assert str(err.value).startswith(f"unexpected character {char!r} at position {pos}:")
    assert err.value.pos == pos


# -- differential: the one-scan lexer and indexed parser against the reference -----------

FUNCTORS = ("powerset", "fuzzyhom", "neighborhood", "selection", "distribution:2")
EDITS = ("$", "-", "<", "\\", ".", "/", "²", "(", ")", ",", "1/2/3", " c9 ")


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return "ParseError", str(exc), exc.pos


def _edited(rng, text):
    """text with one inserted, one deleted and one replaced character."""
    i = rng.randrange(len(text) + 1)
    j = rng.randrange(max(len(text), 1))
    return [text[:i] + rng.choice(EDITS) + text[i:], text[:j] + text[j + 1:],
            text[:j] + rng.choice(EDITS) + text[j + 1:]]


def _nested(depth):
    return ["(" * depth + "p" + ")" * depth, "box(" * depth + "p" + ")" * depth,
            "p -> " * depth + "p", " | ".join(["p"] * (depth + 1)),
            "(" * depth + "p"]


def _differential_pool(session, rng, count):
    pool = []
    for _ in range(count):
        text = pretty(random_formula(session, rng, max_rank=3, size=rng.randint(1, 12)),
                      session.lat)
        if rng.random() < 0.3:
            text = text.replace(" ", rng.choice(["", "  ", "\t", "\n "]))
        pool += [text, *_edited(rng, text)]
    return pool


def test_parser_matches_the_reference_parser():
    """ASTs, or ParseError messages and positions, agree on every string of a
    seeded pool over all five functors' modalities."""
    rng = random.Random(24)
    checked = 0
    for functor in FUNCTORS:
        session = make_session(algebra="lukasiewicz:3", functor=functor)
        pool = _differential_pool(session, rng, 300) + ["", " ", " \t\n "]
        pool += [t for d in (MAX_NESTING, MAX_NESTING + 1) for t in _nested(d)]
        for text in pool:
            want = _outcome(lambda t: reference_parse(t, session.lat, session.propositions,
                                                      session.arities), text)
            assert _outcome(session.parse, text) == want, text
            assert _outcome(tokenize, text) == _outcome(reference_tokenize, text), text
            checked += 1
    assert checked >= 5000


@pytest.mark.parametrize("text,outcome", [
    (" ".join(["p_1", "23", "q", "4.5", "1/2"] * 11_000).ljust(200_000) + "$",
     ("ParseError", "unexpected character '$' at position 200000: '$'", 200_000)),
    ("p".ljust(200_000) + "$",
     ("ParseError", "unexpected character '$' at position 200000: '$'", 200_000)),
    ("p".ljust(200_000), Prop("p")),
], ids=["tokens-then-bad", "spaces-then-bad", "trailing-spaces"])
def test_long_inputs_lex_in_linear_time(text, outcome):
    """200 000 characters of identifiers, numerals and spaces: the outcome
    comes within a second, so no scan backtracks over the text; the alarm ends
    a quadratic scan (about 20 s for 20 000 trailing spaces) after 10 s."""
    def late(*_):
        raise TimeoutError("the lexer backtracked")

    previous = signal.signal(signal.SIGALRM, late)
    signal.alarm(10)
    try:
        started = time.perf_counter()
        got = _outcome(parse, text)
        elapsed = time.perf_counter() - started
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert got == outcome
    assert elapsed < 1.0


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


def test_formula_hash_is_cached_and_field_based():
    phi = parse("box(p /\\ q) -> cond(p, 0.5)")
    again = parse("box(p /\\ q) -> cond(p, 0.5)")
    assert phi == again and hash(phi) == hash(again) and phi is not again
    assert {phi: 1}[again] == 1
    assert parse("p /\\ q") != parse("q /\\ p")
    assert repr(Modal("box", [Prop("p")])) == "Modal(name='box', args=(Prop(name='p'),))"
    assert Const(1) != Prop("p") and Bin("and", Const(1), Prop("p")) == Bin("and", Const(1), Prop("p"))


def test_pickled_formula_rehashes_through_the_constructor():
    """A formula unpickled under another hash seed hashes like one built
    there, so its cached hash is not carried over."""
    phi = parse("box(p /\\ q) -> diamond(cond(p, r)) | c1")
    assert pickle.loads(pickle.dumps(phi)) == phi
    script = ("import pickle, sys\n"
              "from mvmodal import builtin_lattice, parse_formula\n"
              "phi = pickle.loads(sys.stdin.buffer.read())\n"
              "fresh = parse_formula(sys.argv[1], builtin_lattice('lukasiewicz', 3), "
              "('p', 'q', 'r'), {'box': 1, 'diamond': 1, 'cond': 2})\n"
              "assert phi == fresh and hash(phi) == hash(fresh), 'stale hash'\n")
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(mvmodal.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, pretty(phi, LAT)], input=pickle.dumps(phi),
                          env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()


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


def _session_with_labels(tmp_path, kind, k, labels, values=None):
    data = builtin_lattice(kind, k).to_dict()
    data["labels"] = labels
    if values is not None:
        data["values"] = values
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data))
    return Session.from_config({"algebra": str(path), "propositions": ["p", "q"]})


def _formula_pool(session, rng, count=300):
    def gen(depth):
        r = rng.random()
        if depth == 0 or r < 0.3:
            return rng.choice([Prop("p"), Prop("q"), Const(rng.randrange(session.lat.size))])
        if r < 0.8:
            return Bin(rng.choice(("or", "and", "fuse", "imp")), gen(depth - 1), gen(depth - 1))
        return Modal(rng.choice(("box", "diamond")), (gen(depth - 1),))

    return [gen(rng.randint(0, 4)) for _ in range(count)]


@pytest.mark.parametrize("kind, k, labels, values, printed", [
    # a label that looks numeral-like but is no numeral prints as c<i>
    ("lukasiewicz", 3, ["0", "1.5/3", "1"], None, ["0", "c1", "1"]),
    # leading zeros are a numeral, resolved by label before value
    ("goedel", 4, ["0", "05", "2/3", "1"], None, ["0", "05", "2/3", "1"]),
    # labels permuted against the values: the label wins
    ("lukasiewicz", 3, ["1", "0", "1/2"], ["0", "1/2", "1"], ["1", "0", "1/2"]),
])
def test_pretty_parse_round_trip_with_numeral_shaped_labels(tmp_path, kind, k, labels, values,
                                                             printed):
    session = _session_with_labels(tmp_path, kind, k, labels, values)
    assert [session.pretty(Const(i)) for i in range(session.lat.size)] == printed
    consts = [Const(i) for i in range(session.lat.size)]
    for phi in consts + [Bin("imp", c, Prop("p")) for c in consts] + _formula_pool(
            session, random.Random(14)):
        assert session.parse(session.pretty(phi)) == phi, session.pretty(phi)


def test_pretty_minimal_parentheses():
    assert pretty(parse("(p -> q) -> r"), LAT) == "(p -> q) -> r"
    assert pretty(parse("p -> (q -> r)"), LAT) == "p -> q -> r"
    assert pretty(parse("(p | q) /\\ r"), LAT) == "(p | q) /\\ r"
    assert pretty(parse("p | (q /\\ r)"), LAT) == "p | q /\\ r"
    assert pretty(parse("box(0.5 & p)"), LAT) == "box(0.5 & p)"
