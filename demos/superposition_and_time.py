"""Superposed models and time-indexed truth, told with the boxed cat.

Run: python demos/superposition_and_time.py
"""

from nafl import (
    Timeline,
    build_nonclassical,
    builtin_scenario,
    classical_models,
    nc_eval,
    parse_formula,
    run_scenario,
)

print("=" * 64)
print("1. The superposed model")
print("=" * 64)

scenario = builtin_scenario("schrodinger_cat")
print(f"\nScenario {scenario.name!r} declares:")
for name, gloss in scenario.atoms:
    print(f"  {name}: {gloss}")

base = scenario.base_theory()
model = build_nonclassical(base)
print(f"\nBefore the box opens every atom is undecided; the theory's")
print(f"classical models superpose into one nonclassical model with")
print(f"{len(classical_models(base))} components.")

alive = parse_formula("P")
both = parse_formula("P & ~P")
print(f"\n  nc_eval(P)      = {nc_eval(model, alive)}   (not refuted, so it holds)")
print(f"  nc_eval(~P)     = {nc_eval(model, parse_formula('~P'))}   (not proved, so that holds too)")
print(f"  nc_eval(P & ~P) = {nc_eval(model, both)}   (the superposition in one formula)")
print("""
No classical valuation satisfies P & ~P. The superposed model does,
and nothing explodes: the theory still proves nothing about P.
""")

print("=" * 64)
print("2. The same story on a timeline")
print("=" * 64)

tl = Timeline.begin(base, 0.0)
tl = tl.declare(2.0, [parse_formula("V")])
print("\nDeclaring V (the trigger atom) at t = 2 closes the superposition:")
for t in (0.0, 1.0, 2.0):
    value = tl.truth_at(t, alive)
    kind = "superposed" if tl.theory_at(t).undecided_atoms() else "classical"
    print(f"  t = {t:.0f}: P is {value.value:8} ({kind} model)")

print("\nAsking for P | ~P mid-superposition is not false, it is rejected:")
try:
    tl.truth_at(1.0, parse_formula("P | ~P"))
except Exception as exc:
    print(f"  {type(exc).__name__}: {exc}")

print()
print("=" * 64)
print("3. Retroactive assertion, scoped to its proof")
print("=" * 64)

report = run_scenario(scenario)
print()
print(report.truth_table_text())
print("""
The retro row records that U ('alive throughout the sealed interval')
held over [0, 2), but the record itself only exists from t = 2, when
the declared observation V made it provable. Queried at t < 2 the
assertion answers '-': before the box was opened there was no fact of
the matter to report.
""")
print(report.duality.render())
