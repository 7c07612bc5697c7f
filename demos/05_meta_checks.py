"""
Mechanical meta-theory: naturality, cut preservation, tower coherence
=====================================================================

The checkers that back the package's own correctness story, run standalone.
Each returns a report with the exact number of cases checked and, on
failure, the smallest witness found.
"""
from mvmodal import (Powerset, PredicateLifting, Session, builtin_lattice,
                     check_alpha_preservation, check_lemma1, check_naturality,
                     check_stage_coherence)

session = Session.from_config({"algebra": "boolean", "functor": "powerset",
                               "propositions": ["p"]})
box = session.registry.get("box")
diamond = session.registry.get("diamond")

# naturality: relabeling states commutes with applying the lifting
print(check_naturality(box, bound=2).summary())
print(check_naturality(diamond, bound=2).summary())

# a deliberately unnatural "lifting" reads the raw subset size
broken = PredicateLifting(
    name="card", arity=1, functor=Powerset(builtin_lattice("boolean")),
    lat=builtin_lattice("boolean"),
    formula="card(f)(X) = |X| mod 2",
    kernel=lambda lat, forms, cols: [len(d) % 2 for d in forms],
)
report = check_naturality(broken, bound=2)
print(report.summary())

# top-cut preservation drives soundness transfer: box passes against a
# single conclusion, fails against two, and diamond fails on empty premises
top = session.lat.top
print()
print(check_alpha_preservation(box, top, g_family_bound=1).summary())
print(check_alpha_preservation(box, top).summary())
print(check_alpha_preservation(diamond, top, g_family_bound=1).summary())

# tower sections: inductive construction equals the closed form, the top
# section is the identity, and the projection undoes the section
print()
print(check_lemma1(session, 2).summary())

# restriction coherence: stage-1 values of a rank-1 formula project from
# stage 2 along the connecting maps
print(check_stage_coherence(session, session.parse("box(p) | p"), 2, 1).summary())
