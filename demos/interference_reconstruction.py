"""Monte Carlo photons against a wire grid: the quantitative side.

Three runs with the same grid geometry:
  quantum      arrivals follow envelope * cos^2 (coherent pattern)
  classical    arrivals follow the envelope alone (incoherent sum)
  single-slit  envelope shape again, every photon labeled U

The wires sit on the coherent pattern's minima, so they block next to
nothing of the quantum flux but a full w/period of the classical flux.
The chi-square reconstruction then recovers which distribution the
detected arrivals actually followed.

Run: python demos/interference_reconstruction.py
"""

import numpy as np

from nafl import (
    SimConfig,
    analytic_blocked_fraction,
    calibration_preset,
    reconstruct,
    simulate,
)

PHOTONS = 400_000
SEED = 1905

print(f"{PHOTONS} photons per run, seed {SEED}, wire width 6.6% of the period\n")

print(f"{'mode':<12} {'blocked':>8} {'fraction':>12} {'quadrature':>12}")
results = {}
for mode in ("quantum", "classical", "single-slit"):
    cfg = calibration_preset(photons=PHOTONS, seed=SEED, mode=mode)
    # the quantum run keeps its photons for the profile below; the others
    # keep only their counts and 100-bin histogram
    res = simulate(cfg, workers=4, keep_photons=mode == "quantum")
    oracle = analytic_blocked_fraction(mode, cfg)
    results[mode] = res
    print(
        f"{mode:<12} {res.blocked_count:>8} {res.blocked_fraction:>12.3e} "
        f"{oracle:>12.3e}"
    )

print("""
The grid eats ~6.6% of envelope-shaped flux and ~0.05% of the coherent
flux: the same hardware is nearly opaque to one distribution and nearly
invisible to the other. That factor of ~140 is the measurable content
of 'the wires sit in the dark fringes'.
""")

print("ASCII profile of the detected quantum arrivals near the center")
print("(8 bins per period; minima at the half-integers carry the wires):")
res = results["quantum"]
counts, edges = np.histogram(res.detected_x, bins=36, range=(-2.25, 2.25))
peak = counts.max()
for count, left in zip(counts, edges):
    bar = "#" * int(48 * count / peak)
    print(f"  {left:7.3f} {bar}")

print("\nChi-square reconstruction against the coherent pattern (100 bins):")
for mode in ("quantum", "classical"):
    report = reconstruct(results[mode], bins=100)
    aligned = "aligned" if report.minima_aligned else "misaligned"
    print(
        f"  {mode:<12} chi2 = {report.chi2:9.1f}  dof = {report.dof}  "
        f"p = {report.p_value:.3g}  minima {aligned}"
    )

print("""
The quantum run is statistically indistinguishable from the coherent
pattern and its empirical minima land within half a bin of every wire
center; the classical run is rejected outright. Determinism check:
""")

cfg = SimConfig(photons=65_536 * 2, seed=7)
one = simulate(cfg, workers=1, keep_photons=True)
eight = simulate(cfg, workers=8, keep_photons=True)
print(f"  1 worker == 8 workers, bit for bit: {one == eight}")
print("  (chunked streams are derived from (seed, chunk index) alone)")
