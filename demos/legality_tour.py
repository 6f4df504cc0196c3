"""Tour of theory-relative truth and the layered syntax rule.

Run: python demos/legality_tour.py
"""

from nafl import Theory, parse_formula

print("=" * 64)
print("1. Truth is provability, not valuation")
print("=" * 64)

t0 = Theory("T0", {"P", "Q"}, ())
print(f"\nTheory {t0.name}: no axioms over vocabulary {sorted(t0.vocabulary)}")
for text in ("P", "~P", "P & Q"):
    phi = parse_formula(text)
    print(f"  {text!s:8} -> {t0.classify(phi).value}")
print("Nothing is provable or refutable yet, so nothing is true or false.")

print()
print("=" * 64)
print("2. The layered syntax rule")
print("=" * 64)
print("""
A formula is a legal object of study when it is undecided, or when every
atom in it is already decided. Decided formulas over undecided atoms are
excluded: they would smuggle in information about atoms that have none.
""")

for text in ("P", "P -> Q", "P | Q", "P | ~P", "P & ~P", "(P & (P -> Q)) -> Q"):
    phi = parse_formula(text)
    state = "legal" if t0.is_legal(phi) else "ILLEGAL"
    print(f"  {text!s:22} {state:8} ({t0.classify(phi).value})")

print("""
Note the classical tautology P | ~P and the classical contradiction
P & ~P are both excluded while P is undecided. Either would assert a
fact about P's truth value, and P has no truth value yet.
""")

print("=" * 64)
print("3. Declaring an axiom moves the line")
print("=" * 64)

qm = Theory("QM", {"P", "Q"}, (parse_formula("Q -> P"),))
print(f"\n{qm.name} adds the bridge Q -> P. Still everything undecided:")
print(f"  P: {qm.atom_status('P').value}, Q: {qm.atom_status('Q').value}")
print(f"  is the bridge itself legal in {qm.name}? {qm.is_legal(parse_formula('Q -> P'))}")
print("  (it is provable there, and its atoms are undecided: excluded.")
print("   Axiom lists are checked incrementally, each against the theory")
print("   built from the axioms before it, so declaring it was fine.)")

qmq = qm.extend([parse_formula("Q")])
print(f"\n{qmq.name} declares Q. Now:")
for text in ("P", "Q", "P | ~P", "P & ~P"):
    phi = parse_formula(text)
    state = "legal" if qmq.is_legal(phi) else "ILLEGAL"
    print(f"  {text!s:10} {state:8} ({qmq.classify(phi).value})")
