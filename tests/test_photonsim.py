"""Monte Carlo simulator: densities, grid geometry, sampling, reconstruction.

scipy is not a dependency of nafl; here it is an independent oracle for the
closed forms, the Gauss-Legendre masses and the chi-square tail.

Frozen oracle values below were computed by direct quadrature of the
normalized densities over the wire intervals (flat envelope, period 1,
half extent 10):

    quantum,  w = 0.050: 2.0536323782e-04
    quantum,  w = 0.066: 4.7189643296e-04
    classical, any w:    w / period exactly

The closed form for the quantum fraction with a flat envelope is
w - sin(pi w)/pi (period units), whose cubic leading term is
(pi^2/6) (w)^3.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, stats

from nafl import photonsim
from nafl.errors import NaflError, TooFewSamplesError
from nafl.photonsim import (
    CHUNK_SIZE,
    SimConfig,
    analytic_blocked_fraction,
    calibration_preset,
    classical_pdf,
    make_grid,
    quantum_pdf,
    reconstruct,
    simulate,
    wire_centers,
)

QUANTUM_BLOCKED_W050 = 2.0536323782e-04
QUANTUM_BLOCKED_W066 = 4.7189643296e-04


def small(**overrides):
    settings = dict(photons=1000, seed=7)
    settings.update(overrides)
    return SimConfig(**settings)


# -- configuration ------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        small(photons=0)
    with pytest.raises(ValueError):
        small(period=-1.0)
    with pytest.raises(ValueError):
        small(wire_width=0.5)  # must stay below period/2
    with pytest.raises(ValueError):
        small(wire_width=0.0)
    with pytest.raises(ValueError):
        small(half_extent=0)
    with pytest.raises(ValueError):
        small(mode="warp")
    with pytest.raises(ValueError):
        small(envelope="cosh")
    with pytest.raises(ValueError):
        small(envelope="gaussian")  # width required
    with pytest.raises(ValueError):
        small(envelope_width=3.0)  # width without gaussian
    assert small(envelope="gaussian", envelope_width=3.0).extent == 10.0


def test_calibration_preset_blocks_six_point_six_percent_classically():
    cfg = calibration_preset(photons=10, seed=0)
    assert cfg.wire_width == 0.066
    assert math.isclose(
        analytic_blocked_fraction("classical", cfg), 0.066, rel_tol=1e-12
    )


# -- densities ----------------------------------------------------------------


def test_pdfs_normalize():
    for cfg in (
        small(),
        small(envelope="gaussian", envelope_width=4.0),
        small(half_extent=3),
    ):
        for pdf in (quantum_pdf, classical_pdf):
            mass, _ = integrate.quad(
                lambda x: pdf(x, cfg), -cfg.extent, cfg.extent, limit=400
            )
            assert math.isclose(mass, 1.0, rel_tol=1e-9)


def test_quantum_pdf_shape():
    cfg = small()
    assert quantum_pdf(0.5, cfg) == pytest.approx(0.0, abs=1e-12)  # a minimum
    assert quantum_pdf(1.0, cfg) == pytest.approx(quantum_pdf(0.0, cfg))
    assert quantum_pdf(cfg.extent + 1.0, cfg) == 0.0
    assert quantum_pdf(-cfg.extent - 0.1, cfg) == 0.0
    xs = np.array([0.0, 0.25, 0.5])
    values = quantum_pdf(xs, cfg)
    assert values.shape == (3,)
    assert values[1] == pytest.approx(values[0] / 2)


def test_classical_pdf_is_flat_inside():
    cfg = small()
    assert classical_pdf(0.0, cfg) == pytest.approx(1.0 / 20.0)
    assert classical_pdf(9.9, cfg) == pytest.approx(1.0 / 20.0)
    assert classical_pdf(10.1, cfg) == 0.0


def _quad(f, lo, hi):
    value, _ = integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=1000)
    return value


def _gaussian_fringes(width):
    return lambda x: math.exp(-0.5 * (x / width) ** 2) * math.cos(math.pi * x) ** 2


def _gaussian(width):
    return lambda x: math.exp(-0.5 * (x / width) ** 2)


@pytest.mark.parametrize("width", [0.3, 3.0, 100.0])
def test_gaussian_norms_match_adaptive_quadrature(width):
    cfg = small(envelope="gaussian", envelope_width=width)
    pairs = ((quantum_pdf, _gaussian_fringes(width)), (classical_pdf, _gaussian(width)))
    for pdf, raw in pairs:
        norm = _quad(raw, -cfg.extent, cfg.extent)
        assert pdf(0.0, cfg) == pytest.approx(1.0 / norm, rel=1e-12)


@pytest.mark.parametrize("width", [0.3, 3.0, 100.0])
def test_gaussian_bin_masses_match_adaptive_quadrature(width):
    cfg = small(envelope="gaussian", envelope_width=width)
    edges = np.linspace(-cfg.extent, cfg.extent, 101)
    masses = photonsim._masses("quantum", edges, photonsim._shape(cfg))
    raw = _gaussian_fringes(width)
    expected = [_quad(raw, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    np.testing.assert_allclose(masses, expected, rtol=1e-12, atol=0.0)


def test_flat_bin_masses_match_adaptive_quadrature():
    cfg = small()
    edges = np.linspace(-cfg.extent, cfg.extent, 101)
    masses = photonsim._masses("quantum", edges, photonsim._shape(cfg))
    expected = [
        _quad(lambda x: math.cos(math.pi * x) ** 2, lo, hi)
        for lo, hi in zip(edges[:-1], edges[1:])
    ]
    np.testing.assert_allclose(masses, expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("width", [0.3, 3.0, 100.0])
def test_gaussian_blocked_fractions_match_adaptive_quadrature(width):
    cfg = small(envelope="gaussian", envelope_width=width)
    pairs = (("quantum", _gaussian_fringes(width)), ("classical", _gaussian(width)))
    for mode, raw in pairs:
        blocked = sum(_quad(raw, lo, hi) for lo, hi in make_grid(cfg))
        expected = blocked / _quad(raw, -cfg.extent, cfg.extent)
        fraction = analytic_blocked_fraction(mode, cfg)
        assert fraction == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("dof", [9, 49, 99, 199])
def test_chi_square_tail_matches_scipy(dof):
    # both sides of the series / continued-fraction switch at chi2 = dof + 2
    switch = [dof + 1.5, dof + 2.0, dof + 2.5]
    points = np.concatenate([np.linspace(1.0, 600.0, 300), switch])
    for chi2 in points:
        assert photonsim._chi2_sf(float(chi2), dof) == pytest.approx(
            stats.chi2.sf(chi2, dof), rel=1e-10
        )
    assert photonsim._chi2_sf(0.0, dof) == 1.0


def test_importing_nafl_leaves_scipy_out(run_python):
    script = "import sys, nafl, nafl.cli; print('scipy' in sys.modules)"
    assert run_python(script).strip() == "False"


# -- grid geometry --------------------------------------------------------------


def test_grid_sits_on_the_minima():
    cfg = small()
    wires = make_grid(cfg)
    assert len(wires) == 2 * cfg.half_extent
    for lo, hi in wires:
        center = (lo + hi) / 2
        assert hi - lo == pytest.approx(cfg.wire_width)
        # centers at half-integer multiples of the period
        assert (center / cfg.period) % 1.0 == pytest.approx(0.5)
        assert quantum_pdf(center, cfg) == pytest.approx(0.0, abs=1e-12)
        assert -cfg.extent < lo < hi < cfg.extent
    flat = [edge for wire in wires for edge in wire]
    assert flat == sorted(flat)  # disjoint and ordered


# -- the analytic oracle -----------------------------------------------------------


def test_analytic_fraction_matches_the_closed_form():
    for width in (0.02, 0.05, 0.066, 0.2):
        cfg = small(wire_width=width)
        closed = width - math.sin(math.pi * width) / math.pi
        assert analytic_blocked_fraction("quantum", cfg) == pytest.approx(
            closed, abs=1e-9
        )
        assert analytic_blocked_fraction("classical", cfg) == pytest.approx(
            width, abs=1e-12
        )


def test_frozen_oracle_values():
    assert analytic_blocked_fraction("quantum", small(wire_width=0.05)) == (
        pytest.approx(QUANTUM_BLOCKED_W050, rel=1e-9)
    )
    assert analytic_blocked_fraction("quantum", small(wire_width=0.066)) == (
        pytest.approx(QUANTUM_BLOCKED_W066, rel=1e-9)
    )
    assert analytic_blocked_fraction("classical", small(wire_width=0.05)) == (
        pytest.approx(5.0e-2, rel=1e-12)
    )


def test_cubic_law_for_narrow_wires():
    # the quantum fraction falls off as the cube of the wire width
    for width in (0.02, 0.05):
        cfg = small(wire_width=width)
        cubic = (math.pi**2 / 6) * width**3
        assert analytic_blocked_fraction("quantum", cfg) == pytest.approx(
            cubic, rel=5e-3
        )


def test_quantum_fraction_is_far_below_classical():
    cfg = calibration_preset(photons=10, seed=0)
    quantum = analytic_blocked_fraction("quantum", cfg)
    classic = analytic_blocked_fraction("classical", cfg)
    assert quantum < classic / 100


# -- simulation ------------------------------------------------------------------


def test_result_shapes_and_bookkeeping():
    cfg = small(photons=5000)
    res = simulate(cfg)
    assert res.photons == 5000
    assert res.x.shape == (5000,)
    assert res.slits.shape == (5000,)
    assert res.blocked.shape == (5000,)
    assert set(np.unique(res.slits)) <= {"U", "L"}
    assert res.blocked_count == int(res.blocked.sum())
    assert res.histogram_counts.sum() == 5000 - res.blocked_count
    assert np.all(np.abs(res.x) <= cfg.extent)
    assert res.seed == cfg.seed


def test_slit_labels_are_a_fair_coin_independent_of_position():
    res = simulate(small(photons=200_000, seed=5))
    upper = res.slits == "U"
    assert abs(upper.mean() - 0.5) < 0.005
    # position distribution conditional on the label stays the same pattern
    assert abs(res.x[upper].mean() - res.x[~upper].mean()) < 0.1


def test_single_slit_labels_every_photon_upper():
    res = simulate(small(photons=4000, mode="single-slit"))
    assert set(np.unique(res.slits)) == {"U"}


def test_blocked_photons_lie_inside_wires_and_only_those():
    cfg = small(photons=100_000, seed=2, mode="classical")
    res = simulate(cfg)
    wires = make_grid(cfg)

    def in_a_wire(value):
        return any(lo <= value <= hi for lo, hi in wires)

    blocked_x = res.x[res.blocked]
    passed_x = res.x[~res.blocked]
    assert all(in_a_wire(v) for v in blocked_x[:500])
    assert not any(in_a_wire(v) for v in passed_x[:500])


def test_no_grid_blocks_nothing():
    res = simulate(small(photons=3000, grid=False))
    assert res.blocked_count == 0


def test_same_seed_reproduces_and_different_seed_does_not():
    cfg = small(photons=40_000, seed=11)
    assert simulate(cfg) == simulate(cfg)
    other = simulate(small(photons=40_000, seed=12))
    assert not np.array_equal(simulate(cfg).x, other.x)


def test_worker_count_never_changes_the_result():
    cfg = small(photons=3 * CHUNK_SIZE + 17, seed=21)
    baseline = simulate(cfg, workers=1)
    assert simulate(cfg, workers=2) == baseline
    assert simulate(cfg, workers=8) == baseline
    with pytest.raises(ValueError):
        simulate(cfg, workers=0)


def test_seed_sweep_reuses_the_sampling_table_and_norms():
    # a geometry no other test uses, so the first run is a miss
    cfg = small(photons=500, period=0.75, wire_width=0.07)
    simulate(cfg)
    tables = photonsim._cumulative_table.cache_info().hits
    norms = photonsim._norm.cache_info().hits
    for seed in range(1, 6):
        swept = dataclasses.replace(cfg, seed=seed, photons=500 + seed)
        simulate(swept)
        analytic_blocked_fraction("quantum", swept)
        assert simulate(swept, workers=2) == simulate(swept, workers=1)
    assert photonsim._cumulative_table.cache_info().hits >= tables + 15
    assert photonsim._norm.cache_info().hits >= norms + 5


def test_chunk_streams_depend_only_on_seed_and_index():
    # a longer run extends a shorter one photon for photon
    short = simulate(small(photons=CHUNK_SIZE, seed=3))
    long = simulate(small(photons=CHUNK_SIZE + 999, seed=3))
    assert np.array_equal(long.x[:CHUNK_SIZE], short.x)
    assert np.array_equal(long.slits[:CHUNK_SIZE], short.slits)


def test_monte_carlo_agrees_with_quadrature():
    photons = 400_000
    cfg = small(photons=photons, seed=1)
    res = simulate(cfg)
    oracle = analytic_blocked_fraction("quantum", cfg)
    sigma = math.sqrt(oracle * (1 - oracle) / photons)
    assert abs(res.blocked_fraction - oracle) < 3 * sigma

    classical_cfg = small(photons=photons, seed=1, mode="classical")
    classical_res = simulate(classical_cfg)
    classical_oracle = analytic_blocked_fraction("classical", classical_cfg)
    sigma = math.sqrt(classical_oracle * (1 - classical_oracle) / photons)
    assert abs(classical_res.blocked_fraction - classical_oracle) < 3 * sigma


def test_gaussian_envelope_simulates_and_matches_its_oracle():
    cfg = small(
        photons=300_000, seed=8, envelope="gaussian", envelope_width=3.0,
        mode="classical",
    )
    res = simulate(cfg)
    oracle = analytic_blocked_fraction("classical", cfg)
    sigma = math.sqrt(oracle * (1 - oracle) / cfg.photons)
    assert abs(res.blocked_fraction - oracle) < 3 * sigma


# -- reconstruction ----------------------------------------------------------------


def test_reconstruction_accepts_the_quantum_pattern():
    res = simulate(small(photons=300_000, seed=4))
    report = reconstruct(res, bins=100)
    assert report.dof == 99
    assert report.p_value > 0.01
    assert report.minima_aligned
    assert len(report.minima) == len(wire_centers(res.config))
    assert report.expected.sum() == pytest.approx(res.detected_x.size, rel=1e-6)


def test_reconstruction_rejects_an_envelope_shaped_pattern():
    res = simulate(small(photons=300_000, seed=4, mode="classical"))
    report = reconstruct(res, bins=100)
    assert report.p_value < 1e-6

    single = simulate(small(photons=300_000, seed=4, mode="single-slit"))
    assert reconstruct(single, bins=100).p_value < 1e-6


def test_reconstruction_needs_enough_samples_per_bin():
    res = simulate(small(photons=2000, seed=4))
    with pytest.raises(TooFewSamplesError):
        reconstruct(res, bins=100)


@pytest.mark.parametrize("bins", [-3, 0, 1, 8, 9, 19])
def test_reconstruction_rejects_an_unusable_bin_count(bins):
    res = simulate(calibration_preset(20_000, 4))
    with pytest.raises(NaflError):
        reconstruct(res, bins)
