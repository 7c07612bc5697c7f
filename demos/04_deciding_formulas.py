"""
Validity, satisfiability, and consequence
=========================================

A rank-n formula is valid exactly when it is top everywhere on stage n. The
deciders read the answer off the finite set of subformula value vectors that
stage n realizes, and every negative answer carries a finite countermodel.
"""
from mvmodal import Session, consequence, satisfiable, validity


def show(verdict, pretty):
    print(f"{pretty}: {'yes' if verdict.answer else 'no'} (stage {verdict.stage})")
    if verdict.witness:
        w = verdict.witness
        print(f"  witness element {w['element']}: {w['description']}")
        for sub, val in w["values"].items():
            print(f"    {sub} = {val}")


boolean = Session.from_config({"algebra": "boolean", "functor": "powerset",
                               "propositions": ["p", "q"]})

# boxed tautologies are valid; box(p) is refuted by a dead-end state
show(validity(boolean, boolean.parse("box(p -> p)")), "valid box(p -> p)")
show(validity(boolean, boolean.parse("box(p)")), "valid box(p)")

# the K rule as a consequence between rank-1 formulas
v = consequence(boolean, [boolean.parse("box(p)"), boolean.parse("box(p -> q)")],
                boolean.parse("box(q)"))
show(v, "box(p), box(p -> q) entail box(q)")

# over the 3-chain the excluded middle already fails at stage 0
luk3 = Session.from_config({"algebra": "lukasiewicz:3", "functor": "powerset",
                            "propositions": ["p"]})
show(validity(luk3, luk3.parse("p | (p -> c0)")), "valid p | ~p in L3")

# ...but its fused square is valid: 1/2 (+) 1/2 = 1 in Lukasiewicz
show(validity(luk3, luk3.parse("(p & p) | ((p & p) -> c0)")),
     "valid (p&p) | ~(p&p) in L3")

# satisfiability produces a concrete state of the canonical model
v = satisfiable(boolean, boolean.parse("box(c0) /\\ p"))
show(v, "sat box(c0) /\\ p")
v = satisfiable(boolean, boolean.parse("p /\\ (p -> c0)"))
show(v, "sat p /\\ ~p")
