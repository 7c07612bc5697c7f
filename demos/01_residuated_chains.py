"""
Finite truth-value chains and their laws
========================================

Builds the standard chains, prints their operation tables, and shows the
law checker pinpointing an injected fault.
"""
from mvmodal import builtin_lattice, load_algebra, validate_lattice

# the three builtin families: boolean is the 2-chain, the others take a size
for spec in [("boolean", 2), ("lukasiewicz", 3), ("goedel", 4)]:
    lat = builtin_lattice(*spec)
    print(f"{lat.name}: carrier {list(lat.labels)}")

# Lukasiewicz-3 fuses by max(0, a+b-1) on the underlying fractions
l3 = builtin_lattice("lukasiewicz", 3)
# tables are tuples of rows of carrier indices: table[a][b]
print("\nfusion table (rows/cols in carrier order):")
for row in l3.mono:
    print(" ".join(map(str, row)))
print("residuum table:")
for row in l3.impl:
    print(" ".join(map(str, row)))

# every report is exhaustive: all lattice, monoid, and residuation laws
report = validate_lattice(l3)
print(f"\n{report.summary()}")

# corrupt one implication entry and validate again; the checker names the
# broken law and the smallest witness triple
data = l3.to_dict()
data["impl"][1][2] = 0
bad = load_algebra(data)
report = validate_lattice(bad)
print(report.summary())
for v in report.violations:
    print(f"  {v.law} at {v.witness}: {v.detail}")
