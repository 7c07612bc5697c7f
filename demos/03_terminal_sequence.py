"""
The stage tower and step-indexed semantics
==========================================

Rank-n formulas are decided on stage n of a finite tower of approximants.
This walks the tower, shows its connecting maps, and checks that model
evaluation factors through it.
"""
import random

from mvmodal import (Session, StageTower, check_truth_lemma, eval_step,
                     load_model, sigma_k)

session = Session.from_config({
    "algebra": "boolean",
    "functor": "powerset",
    "propositions": ["p"],
})
tower = StageTower(session)

# stage 0 holds the valuations; stage n+1 pairs a valuation with a structure
# over stage n, so sizes grow as 2, 2*2^2, 2*2^8
print("stage sizes:", [tower.size(n) for n in range(3)])

print("\nstage 1 elements:")
for t in range(tower.size(1)):
    print(f"  {t}: {tower.describe(1, t)}")

# the projection gamma undoes the section iota level by level
iota, gamma = tower.iota_table(1), tower.gamma_table(1)
print("\niota(stage 1 -> stage 2), first four ids:", iota[:4])
print("gamma after iota is the identity:",
      all(gamma[iota[t]] == t for t in range(tower.size(1))))

# step semantics: a formula of rank k is a carrier value at each stage-k id
phi = session.parse("box(p) | p")
print(f"\n{session.pretty(phi)} over stage 1:",
      [session.lat.label(v) for v in eval_step(session, phi, 1)])

# every model maps into the tower; evaluation commutes with that map
model = load_model(session, {
    "states": 3,
    "valuation": [[1], [0], [1]],
    "sigma": [[1, 2], [0], []],
})
images = sigma_k(session, model, 1, tower)
values = eval_step(session, phi, 1, tower)
print("\nper state: the state's stage-1 image and the step value there")
for s in range(3):
    print(f"  state {s}: image {images[s]}, value {values[images[s]]}")

report = check_truth_lemma(session, model, session.parse("box(box(p) | p)"))
print(f"\n{report.summary()}")

# the factorization is not luck: it holds for random models too
rng = random.Random(7)
valuation = [[rng.randrange(2)] for _ in range(3)]
sigma = [[i for i in range(3) if rng.random() < 0.5] for _ in range(3)]
rnd = load_model(session, {"states": 3, "valuation": valuation, "sigma": sigma})
print(check_truth_lemma(session, rnd, session.parse("diamond(diamond(p))")).summary())
