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
import decimal
import hashlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from nafl import photonsim
from nafl.errors import ConfigError, NaflError, TooFewSamplesError
from nafl.photonsim import (
    CHUNK_SIZE,
    MAX_HALF_EXTENT,
    MAX_PANELS,
    MODES,
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

BAD_FIELDS = [
    dict(photons=0),
    dict(period=-1.0),
    dict(wire_width=0.5),  # must stay below period/2
    dict(wire_width=0.0),
    dict(half_extent=0),
    dict(mode="warp"),
    dict(envelope="cosh"),
    dict(envelope="gaussian"),  # width required
    dict(envelope_width=3.0),  # width without gaussian
]

OUT_OF_RANGE = [dict(seed=-1), dict(seed=2**64), dict(period=math.inf), dict(period=math.nan)]

# These configurations would ask for gigabytes or hours; they are only ever
# handed to the validation that rejects them, never simulated.
UNBOUNDED_WORK = [
    dict(envelope="gaussian", envelope_width=1e-9),
    dict(envelope="gaussian", envelope_width=1e-6),
    dict(envelope="gaussian", envelope_width=0.99 * 20.0 / MAX_PANELS),
    dict(envelope="gaussian", envelope_width=math.nan),
    dict(half_extent=MAX_HALF_EXTENT + 1),
    dict(half_extent=10**9),
    dict(period=1e307, wire_width=0.1),
]

# the reciprocal of the quantum norm (about 1e-319) overflows
UNNORMALIZABLE = dict(period=1e-320, wire_width=1e-321)


def test_config_validation():
    for overrides in BAD_FIELDS:
        with pytest.raises(ValueError):
            small(**overrides)
    assert small(envelope="gaussian", envelope_width=3.0).extent == 10.0


@pytest.mark.parametrize("overrides", OUT_OF_RANGE)
def test_config_rejects_out_of_range_seeds_and_periods(overrides):
    with pytest.raises(ValueError):
        small(**overrides)


@pytest.mark.parametrize("overrides", UNBOUNDED_WORK)
def test_config_rejects_unbounded_work(overrides):
    with pytest.raises(ValueError):
        small(**overrides)


@pytest.mark.parametrize(
    "overrides", [*BAD_FIELDS, *OUT_OF_RANGE, *UNBOUNDED_WORK, UNNORMALIZABLE]
)
def test_every_rejected_config_is_a_nafl_error_and_a_value_error(overrides):
    with pytest.raises(NaflError) as info:
        small(**overrides)
    assert isinstance(info.value, ConfigError)
    assert isinstance(info.value, ValueError)


def test_a_bad_worker_count_or_oracle_mode_is_a_config_error():
    with pytest.raises(ConfigError):
        simulate(small(), workers=0)
    with pytest.raises(ConfigError):
        analytic_blocked_fraction("warp", small())


def test_a_gaussian_envelope_takes_any_wire_width():
    # wires narrower than 64 / 65536 of the window, which a gaussian config
    # could not have while it was sampled from a 65537-knot table
    configs = [
        small(envelope="gaussian", envelope_width=300.0, half_extent=MAX_HALF_EXTENT,
              wire_width=0.066),
        small(envelope="gaussian", envelope_width=3.0, wire_width=0.999 * 20.0 / 1024),
        small(envelope="gaussian", envelope_width=3000.0, half_extent=MAX_HALF_EXTENT,
              wire_width=1e-6),
        small(half_extent=MAX_HALF_EXTENT, wire_width=1e-6),
    ]
    for cfg in configs:
        res = simulate(dataclasses.replace(cfg, photons=CHUNK_SIZE + 5))
        assert res.counts.sum() + res.blocked_count == res.photons


def test_config_accepts_the_bounds_themselves():
    assert small(envelope="gaussian", envelope_width=20.0 / MAX_PANELS).extent == 10.0
    assert small(half_extent=MAX_HALF_EXTENT).extent == MAX_HALF_EXTENT


def test_config_rejects_a_window_mass_that_cannot_be_normalized():
    with pytest.raises(ValueError, match="cannot be normalized"):
        small(**UNNORMALIZABLE)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("envelope_width", [None, 1e307])
def test_a_window_near_the_float_limit_simulates_without_warnings(mode, envelope_width):
    # 2 pi times an edge of this window overflows, while the window itself and
    # every phase taken in periods stay finite.
    envelope = "flat" if envelope_width is None else "gaussian"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = small(photons=1000, period=3e307, half_extent=1, mode=mode,
                    envelope=envelope, envelope_width=envelope_width)
        res = simulate(cfg)
        fraction = analytic_blocked_fraction(mode, cfg)
    assert res.counts.sum() + res.blocked_count == res.photons
    assert 0.0 <= fraction < 1e-300


def test_the_largest_seed_simulates():
    assert simulate(small(photons=100, seed=2**64 - 1), keep_photons=True).x.shape == (100,)


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
    masses = photonsim._masses("quantum", edges, cfg)
    raw = _gaussian_fringes(width)
    expected = [_quad(raw, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    np.testing.assert_allclose(masses, expected, rtol=1e-12, atol=0.0)


def test_flat_bin_masses_match_adaptive_quadrature():
    cfg = small()
    edges = np.linspace(-cfg.extent, cfg.extent, 101)
    masses = photonsim._masses("quantum", edges, cfg)
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


PI = decimal.Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def _flat_quantum_fraction(width: float, period: float) -> float:
    """(x - sin x) / pi with x = pi w / p, summed as a 60-digit series."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x = PI * decimal.Decimal(width) / decimal.Decimal(period)
        term = total = x**3 / 6
        k = 1
        while abs(term) > total * decimal.Decimal("1e-50"):
            term = -term * x * x / ((2 * k + 2) * (2 * k + 3))
            total += term
            k += 1
        return float(total / PI)


@pytest.mark.parametrize(
    "width, period",
    [
        (0.3184, 1.0),  # just above the series' cut-off at pi w / p = 1
        (0.3183, 1.0),  # just below it
        (0.066, 1.0),
        (0.05, 1.0),
        (1e-3, 1.0),
        (1e-6, 1.0),
        (1e-30, 1.0),
        (1e-103, 1.0),  # the fraction itself is subnormal
        (5e-324, 1.0),  # the smallest subnormal w/p
        (0.05, 3e307),  # a subnormal w/p in a window near the float limit
    ],
)
def test_narrow_wire_fraction_keeps_its_relative_precision(width, period):
    cfg = small(wire_width=width, period=period, half_extent=1)
    got = analytic_blocked_fraction("quantum", cfg)
    want = _flat_quantum_fraction(width, period)
    assert math.copysign(1.0, got) == 1.0
    # relative error 1e-14, or two subnormal spacings where the value underflows
    assert abs(got - want) <= 1e-14 * want + 1e-323


def test_quantum_fraction_is_far_below_classical():
    cfg = calibration_preset(photons=10, seed=0)
    quantum = analytic_blocked_fraction("quantum", cfg)
    classic = analytic_blocked_fraction("classical", cfg)
    assert quantum < classic / 100


# -- simulation ------------------------------------------------------------------


def test_result_shapes_and_bookkeeping():
    cfg = small(photons=5000)
    res = simulate(cfg, bins=20, keep_photons=True)
    assert res.photons == 5000
    assert res.x.shape == (5000,)
    assert res.upper.shape == (5000,)
    assert res.blocked.shape == (5000,)
    assert res.upper.dtype == bool
    assert res.blocked_count == int(res.blocked.sum())
    assert res.upper_count == int(res.upper.sum())
    assert res.counts.shape == (20,)
    assert res.counts.sum() == 5000 - res.blocked_count
    assert reconstruct(res).counts.sum() == 5000 - res.blocked_count
    assert np.all(np.abs(res.x) <= cfg.extent)


def test_a_result_holds_ten_bytes_per_photon():
    res = simulate(small(photons=5000), keep_photons=True)
    assert res.x.nbytes + res.blocked.nbytes + res.upper.nbytes == 10 * res.photons


def test_a_streamed_result_holds_only_its_histogram_and_counts():
    res = simulate(small(photons=5000), bins=40)
    assert res.upper is None and res.x is None and res.blocked is None
    assert res.counts.nbytes == 40 * res.counts.itemsize
    assert not res.counts.flags.writeable
    with pytest.raises(NaflError, match="keep_photons=True"):
        res.detected_x


def test_slit_labels_are_a_fair_coin_independent_of_position():
    res = simulate(small(photons=200_000, seed=5), keep_photons=True)
    upper = res.upper
    assert abs(res.upper_count / res.photons - 0.5) < 0.005
    # position distribution conditional on the label stays the same pattern
    assert abs(res.x[upper].mean() - res.x[~upper].mean()) < 0.1


def test_single_slit_labels_every_photon_upper():
    res = simulate(small(photons=4000, mode="single-slit"))
    assert res.upper_count == res.photons
    assert simulate(res.config, keep_photons=True).upper.all()


def test_blocked_photons_lie_inside_wires_and_only_those():
    configs = [small(photons=100_000, seed=2, mode=mode) for mode in MODES]
    # an envelope at most half the window wide, and a wider one
    configs += [
        small(photons=100_000, seed=2, envelope="gaussian", envelope_width=width, mode=mode)
        for width in (3.0, 8.0) for mode in ("quantum", "classical")
    ]
    for cfg in configs:
        res = simulate(cfg, keep_photons=True)
        edges = np.ravel(make_grid(cfg))
        # inside a closed interval [lo, hi]: an odd number of edges lies
        # below the photon, or an odd number lies at or below it
        in_a_wire = (np.searchsorted(edges, res.x, side="left") % 2 == 1) | (
            np.searchsorted(edges, res.x, side="right") % 2 == 1
        )
        assert res.blocked_count > 0
        assert np.array_equal(res.blocked, in_a_wire), cfg


def test_no_grid_blocks_nothing():
    res = simulate(small(photons=3000, grid=False))
    assert res.blocked_count == 0


def test_same_seed_reproduces_and_different_seed_does_not():
    cfg = small(photons=40_000, seed=11)
    assert simulate(cfg) == simulate(cfg)
    other = simulate(small(photons=40_000, seed=12), keep_photons=True)
    assert not np.array_equal(simulate(cfg, keep_photons=True).x, other.x)


def test_worker_count_never_changes_the_result():
    cfg = small(photons=3 * CHUNK_SIZE + 17, seed=21)
    baseline = simulate(cfg, workers=1)
    assert simulate(cfg, workers=2) == baseline
    assert simulate(cfg, workers=8) == baseline
    kept = simulate(cfg, workers=1, keep_photons=True)
    assert kept.x is not None
    assert simulate(cfg, workers=2, keep_photons=True) == kept
    assert simulate(cfg, workers=8, keep_photons=True) == kept
    with pytest.raises(ValueError):
        simulate(cfg, workers=0)


def test_a_configs_norms_are_computed_once():
    # a geometry no other test uses, so its norms are not cached yet
    misses = photonsim._norm.cache_info().misses
    cfg = small(photons=500, period=0.75, wire_width=0.07,
                envelope="gaussian", envelope_width=2.5)
    simulate(cfg)
    analytic_blocked_fraction("quantum", cfg)
    analytic_blocked_fraction("classical", cfg)
    quantum_pdf(0.0, cfg)
    classical_pdf(0.0, cfg)
    assert simulate(cfg, workers=2) == simulate(cfg, workers=1)
    # one per density, both computed while constructing the config
    assert photonsim._norm.cache_info().misses == misses + 2


def _plain_flat_chunk(cfg, rng, count):
    """(labels, x, blocked): the half-period transform, written out plainly."""
    pick = rng.integers(0, 8 * cfg.half_extent, count)
    d0, d1 = rng.random((count, 2)).T
    h = pick >> 1
    if cfg.mode == "quantum":
        # sin(pi d1 / 2) in its tangent half-angle form, in the sampler's order
        tau = np.tan(np.pi * d1 / 4)
        t = np.arcsin(2 * (np.sqrt(d0) * tau) / (tau * tau + 1)) / np.pi
    else:
        t = d0 / 2
    x = cfg.period * (((h + 1) >> 1) - cfg.half_extent + (-1) ** h * t)
    blocked = t > 1 / 2 - cfg.wire_width / (2 * cfg.period)
    return pick & 1 == 1, x, blocked


def _plain_gaussian_chunk(cfg, rng, count):
    """(labels, x, blocked): thinned proposals, redrawn until count are kept."""
    sigma = cfg.envelope_width
    x = np.empty(0)
    while x.size < count:
        need = count - x.size
        if 2 * sigma <= cfg.extent:
            y = sigma * rng.standard_normal(need)
            keep = np.abs(y) <= cfg.extent
            if cfg.mode == "quantum":
                # cos^2 as 1 / (1 + tan^2), in the sampler's order
                u = rng.random(need)
                keep &= u * (1 + np.tan(y * (np.pi / cfg.period)) ** 2) < 1
        else:
            y = _plain_flat_chunk(cfg, rng, need)[1]
            keep = rng.random(need) < np.exp(-0.5 * (y / sigma) ** 2)
        x = np.concatenate([x, y[keep]])
    offset = np.abs(x / cfg.period - np.rint(x / cfg.period))
    blocked = offset > 1 / 2 - cfg.wire_width / (2 * cfg.period)
    return rng.random(count) < 0.5, x, blocked


@pytest.mark.parametrize("envelope", ["flat", "gaussian", "gaussian-wide"])
@pytest.mark.parametrize("mode", MODES)
def test_sampler_matches_the_plain_inverse_transform(mode, envelope):
    # a period other than 1 and an odd half extent, so that neither the
    # scaling nor the half-period indexing hides behind a default
    geometry = dict(period=0.75, half_extent=7, wire_width=0.06)
    if envelope == "flat":
        plain = _plain_flat_chunk
    else:
        # an envelope at most half the window wide, and a wider one
        width = 2.0 if envelope == "gaussian" else 4.0
        geometry.update(envelope="gaussian", envelope_width=width)
        plain = _plain_gaussian_chunk
    cfg = small(photons=2 * CHUNK_SIZE + 1234, seed=17, mode=mode, **geometry)
    upper, x, blocked = [], [], []
    for index, start in enumerate(range(0, cfg.photons, CHUNK_SIZE)):
        count = min(CHUNK_SIZE, cfg.photons - start)
        stream = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(index,))
        labels, arrivals, absorbed = plain(cfg, np.random.default_rng(stream), count)
        x.append(arrivals)
        blocked.append(absorbed)
        upper.append(np.full(count, True) if mode == "single-slit" else labels)
    for workers in (1, 2):
        res = simulate(cfg, workers=workers, keep_photons=True)
        assert np.array_equal(res.x, np.concatenate(x))
        assert np.array_equal(res.blocked, np.concatenate(blocked))
        assert np.array_equal(res.upper, np.concatenate(upper))


def test_the_half_angle_sine_is_the_sine_and_never_exceeds_one():
    # 2**20 uniforms, the 2**17 largest draws, where tau nears 1 and s <= 1
    # is tight, and the smallest ones. sqrt(d0) rounds to 1 at the largest
    # d0, so a numerator of 2 tau is what the sampler can meet.
    d1 = np.concatenate([
        np.random.default_rng(33).random(1 << 20),
        1 - np.arange(1, 1 << 17) * 2.0**-53,
        np.arange(1 << 10) * 2.0**-53,
    ])
    with np.errstate(invalid="raise"):
        tau = np.tan(np.pi * d1 / 4)
        sine = 2 * tau / (tau * tau + 1)
        reference = np.sin(np.pi * d1 / 2)
        assert np.all(np.abs(sine - reference) <= 4 * np.spacing(reference))
        assert sine.max() <= 1.0
        assert np.all(np.isfinite(np.arcsin(sine)))


class _FixedDraws:
    """A generator that picks half-period 0 and draws the given (d0, d1) rows."""

    def __init__(self, rows):
        self.rows = np.asarray(rows)

    def integers(self, low, high, size, dtype):
        return np.zeros(size, dtype=dtype)

    def random(self, out):
        out[...] = self.rows


def test_the_coherent_sampler_stays_finite_at_the_extreme_uniforms():
    rows = list(itertools.product((0.0, 2.0**-53, 0.5, 1 - 2.0**-53), repeat=2))
    cfg = small(photons=len(rows))
    space = photonsim._Workspace(np.linspace(-cfg.extent, cfg.extent, 101))
    x = np.empty(len(rows))
    with np.errstate(invalid="raise"):
        photonsim._flat_chunk(cfg, _FixedDraws(rows), space,
                              np.empty(len(rows), dtype=bool), x,
                              np.empty(len(rows), dtype=bool))
    t = space.t[:len(rows)]
    assert np.all(np.isfinite(x))
    assert np.all((0.0 <= t) & (t <= 0.5))
    # half-period 0 runs unflipped from the window's left edge
    assert np.array_equal(x, cfg.period * (t - cfg.half_extent))
    d0, d1 = np.array(rows).T
    # arcsin's slope is unbounded at 1, so an ulp of s moves t by up to 1e-8
    assert np.allclose(t, np.arcsin(np.sqrt(d0) * np.sin(np.pi * d1 / 2)) / np.pi,
                       rtol=0.0, atol=1e-7)


# The 1M-photon calibration preset in quantum mode: blocked count, upper-slit
# count, detected total and the SHA-256 of the counts as little-endian int64.
# Frozen from the sampler that computed its sine with np.sin; the half-angle
# form moved kept arrivals by ulps and none of these. A change to the kernel
# keeps them or says why they moved.
FROZEN_PRESET_RUNS = {
    0: (441, 499312, 999559,
        "c87eb17ddad9864fa30c5d88acce0e683691d8b455c3869d0984dae58946a920"),
    1: (469, 500292, 999531,
        "d73df261268b9e805adaa7801caa8981dcfe07b50d6e9b34444b853345930954"),
}


@pytest.mark.parametrize("seed", sorted(FROZEN_PRESET_RUNS))
def test_the_preset_run_keeps_its_frozen_counts(seed):
    res = simulate(calibration_preset(1_000_000, seed))
    digest = hashlib.sha256(np.asarray(res.counts, dtype="<i8").tobytes()).hexdigest()
    assert (res.blocked_count, res.upper_count, int(res.counts.sum()), digest) == (
        FROZEN_PRESET_RUNS[seed]
    )


def test_the_flat_sampler_calls_no_scalar_trig(monkeypatch):
    # numpy runs float64 sin and cos as scalar loops, several times slower
    # than its vector tan. The configs are built first: their norms use sin.
    configs = [small(photons=CHUNK_SIZE + 5, mode=mode) for mode in MODES]

    def refuse(*args, **kwargs):
        raise AssertionError("the flat sampler called np.sin or np.cos")

    monkeypatch.setattr(photonsim.np, "sin", refuse)
    monkeypatch.setattr(photonsim.np, "cos", refuse)
    for cfg in configs:
        for keep_photons in (False, True):
            res = simulate(cfg, keep_photons=keep_photons)
            assert res.counts.sum() + res.blocked_count == cfg.photons


def test_chunk_streams_depend_only_on_seed_and_index():
    # a longer run extends a shorter one of whole chunks photon for photon
    short = simulate(small(photons=CHUNK_SIZE, seed=3), keep_photons=True)
    long = simulate(small(photons=CHUNK_SIZE + 999, seed=3), keep_photons=True)
    assert np.array_equal(long.x[:CHUNK_SIZE], short.x)
    assert np.array_equal(long.upper[:CHUNK_SIZE], short.upper)


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


@pytest.mark.parametrize("half_extent, wire_width, envelope_width", [
    pytest.param(10, 0.066, None, id="10"),
    pytest.param(MAX_HALF_EXTENT, 0.066, None, id="1000"),
    # gaussian envelopes at most half the window wide, and wider ones
    pytest.param(10, 0.066, 0.3, id="10-gaussian-0.3"),
    pytest.param(10, 0.066, 3.0, id="10-gaussian-3"),
    pytest.param(10, 0.066, 8.0, id="10-gaussian-8"),
    pytest.param(MAX_HALF_EXTENT, 0.02, 300.0, id="1000-gaussian-300"),
    pytest.param(MAX_HALF_EXTENT, 0.066, 3000.0, id="1000-gaussian-3000"),
])
def test_blocked_fraction_is_unbiased_across_the_window_sizes(
    half_extent, wire_width, envelope_width,
):
    # about 940 photons blocked in expectation at w = 0.066; a sampler whose
    # density fills in the dark fringes shows as a surplus of many sigma
    envelope = "flat" if envelope_width is None else "gaussian"
    cfg = small(photons=2_000_000, seed=9, half_extent=half_extent, wire_width=wire_width,
                envelope=envelope, envelope_width=envelope_width)
    oracle = analytic_blocked_fraction("quantum", cfg)
    sigma = math.sqrt(oracle * (1 - oracle) / cfg.photons)
    assert abs(simulate(cfg).blocked_fraction - oracle) < 4 * sigma


def test_no_config_sorts_anything(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a run sorted its photons")

    monkeypatch.setattr(np, "argsort", refuse)
    for width, mode in itertools.product((None, 3.0, 8.0), MODES):
        envelope = "flat" if width is None else "gaussian"
        cfg = small(photons=CHUNK_SIZE + 5, mode=mode, envelope=envelope, envelope_width=width)
        for keep_photons in (False, True):
            res = simulate(cfg, workers=2, keep_photons=keep_photons)
            assert res.counts.sum() + res.blocked_count == cfg.photons


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
    assert report.expected.sum() == pytest.approx(res.photons - res.blocked_count, rel=1e-6)


@pytest.mark.parametrize("grid", [True, False])
def test_expected_counts_are_the_detected_share_of_the_pattern(grid):
    cfg = small(photons=200_000, seed=4, half_extent=3, wire_width=0.2, grid=grid)
    res = simulate(cfg, bins=9)
    report = reconstruct(res)
    detected = res.photons - res.blocked_count
    # the coherent pattern's mass in each bin outside the wires, by quadrature
    wires = make_grid(cfg) if grid else ()
    masses = []
    for lo, hi in zip(report.bin_edges[:-1], report.bin_edges[1:]):
        mass = _quad(lambda x: math.cos(math.pi * x) ** 2, lo, hi)
        for wire_lo, wire_hi in wires:
            if wire_hi > lo and wire_lo < hi:
                mass -= _quad(lambda x: math.cos(math.pi * x) ** 2,
                              max(lo, wire_lo), min(hi, wire_hi))
        masses.append(mass)
    masses = np.array(masses)
    np.testing.assert_allclose(report.expected, detected * masses / masses.sum(), rtol=1e-12)
    assert report.expected.sum() == pytest.approx(detected, rel=1e-12)


def test_reconstruction_p_values_are_uniform_over_seeds():
    # the preset's wires absorb 4.7e-4 of the pattern; expected counts that
    # still held that mass skewed these p-values low (KS p 1.5e-4 here). A
    # gaussian sampler with the wrong envelope shape, whose blocked fraction
    # could still be right, skews them too: one envelope at most half the
    # window wide and one wider, for the sampler's two proposal branches.
    def gaussian(width):
        return lambda seed: SimConfig(photons=1_000_000, seed=seed, wire_width=0.066,
                                      envelope="gaussian", envelope_width=width)

    for make in (lambda seed: calibration_preset(1_000_000, seed), gaussian(3.0), gaussian(8.0)):
        p_values = [reconstruct(simulate(make(seed)), 100).p_value for seed in range(20)]
        assert stats.kstest(p_values, "uniform").pvalue > 0.01


@pytest.mark.parametrize("mode", ["quantum", "classical"])
def test_detected_histogram_equals_the_histogram_of_the_detected_arrivals(mode):
    res = simulate(small(photons=100_000, seed=6, mode=mode), keep_photons=True)
    expected_counts, expected_edges = np.histogram(
        res.detected_x, bins=100, range=(-res.config.extent, res.config.extent)
    )
    assert res.counts.dtype == expected_counts.dtype
    assert np.array_equal(res.counts, expected_counts)
    assert np.array_equal(res.bin_edges, expected_edges)
    assert np.array_equal(reconstruct(res).bin_edges, expected_edges)


@pytest.mark.parametrize("bins", [2, 7, 100, photonsim.MAX_BINS])
def test_the_bin_index_is_numpys_at_every_edge(bins):
    # every bin edge, one ulp either side of it, and both window ends; a
    # window of 0.75 * 7 puts most linspace edges off the scaled grid
    for cfg in (small(), small(period=0.75, half_extent=7, wire_width=0.06)):
        window = (-cfg.extent, cfg.extent)
        edges = np.linspace(*window, bins + 1)
        x = np.concatenate(
            [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
        )
        x = x[np.abs(x) <= cfg.extent]
        assert x.min() == -cfg.extent and x.max() == cfg.extent
        blocked = np.arange(x.size) % 3 == 0
        upper = np.arange(x.size) % 2 == 0
        # bins are [left, right), the last one closed: the bin np.histogram
        # documents for its own edges
        right_closed = np.minimum(np.searchsorted(edges, x, side="right") - 1, bins - 1)
        space = photonsim._Workspace(edges)
        for start in range(0, x.size, CHUNK_SIZE):
            chunk = slice(start, start + CHUNK_SIZE)
            free = np.zeros(x[chunk].size, dtype=bool)
            space.add(upper[chunk], x[chunk], free)
            assert np.array_equal(space.index[:free.size], right_closed[chunk])
        space = photonsim._Workspace(edges)
        for start in range(0, x.size, CHUNK_SIZE):
            chunk = slice(start, start + CHUNK_SIZE)
            space.add(upper[chunk], x[chunk], blocked[chunk])
        expected = np.histogram(x[~blocked], bins=bins, range=window)[0]
        assert np.array_equal(space.counts[:bins], expected)
        assert space.counts[bins] == np.count_nonzero(blocked)
        assert space.upper_count == np.count_nonzero(upper)


@pytest.mark.parametrize("grid", [True, False])
@pytest.mark.parametrize("envelope", ["flat", "gaussian", "gaussian-wide"])
@pytest.mark.parametrize("mode", MODES)
def test_streamed_counts_equal_those_of_the_kept_photons(mode, envelope, grid):
    width = {"flat": None, "gaussian": 3.0, "gaussian-wide": 8.0}[envelope]
    cfg = small(photons=2 * CHUNK_SIZE + 777, seed=13, mode=mode, grid=grid,
                envelope=envelope.removesuffix("-wide"), envelope_width=width)
    kept = simulate(cfg, bins=37, keep_photons=True)
    counts = np.histogram(kept.detected_x, bins=37, range=(-cfg.extent, cfg.extent))[0]
    assert np.array_equal(kept.counts, counts)
    for workers in (1, 2, 8):
        res = simulate(cfg, workers=workers, bins=37)
        assert res.x is None
        assert np.array_equal(res.counts, counts)
        assert res.blocked_count == np.count_nonzero(kept.blocked)
        assert res.upper_count == np.count_nonzero(kept.upper)


@pytest.mark.parametrize("envelope", ["flat", "gaussian"])
def test_a_grid_off_run_after_a_grid_on_run_blocks_nothing(envelope):
    # the workspace's buffers may reuse the memory the last run freed, so
    # every chunk must write every flag
    width = 3.0 if envelope == "gaussian" else None
    for workers in (1, 2):
        on = small(photons=3 * CHUNK_SIZE, seed=2, envelope=envelope,
                   envelope_width=width, mode="classical")
        assert simulate(on, workers=workers).blocked_count > 0
        res = simulate(dataclasses.replace(on, grid=False), workers=workers)
        assert res.blocked_count == 0
        assert res.counts.sum() == res.photons


def test_a_streamed_run_peaks_below_4_mb():
    # the 1M-photon arrays alone would take 10 MB
    tracemalloc.start()
    try:
        res = simulate(calibration_preset(1_000_000, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.photons == 1_000_000
    assert peak < 4_000_000


def test_reconstruct_never_copies_the_detected_photons():
    res = simulate(calibration_preset(1_000_000, 3), keep_photons=True)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        reconstruct(res, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # it reads the result's 100-bin histogram, never the photon arrays
    assert peak - held < res.x.nbytes / 20


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


@pytest.mark.parametrize("bins", [-3, 0, 1, 8, 9, 19, photonsim.MAX_BINS + 1, 10**12])
def test_reconstruction_rejects_an_unusable_bin_count(bins):
    with pytest.raises(NaflError):
        reconstruct(simulate(calibration_preset(20_000, 4), bins=bins))
    # the bin count is fixed when simulating
    with pytest.raises(NaflError, match="holds a 100-bin histogram"):
        reconstruct(simulate(calibration_preset(20_000, 4)), bins)


@pytest.mark.parametrize("with_wire_edges", [False, True])
@pytest.mark.parametrize(
    "cfg",
    [calibration_preset(1000, 0), small(envelope="gaussian", envelope_width=3.0), small(grid=False)],
    ids=["preset", "gaussian", "no-grid"],
)
def test_detected_masses_merge_the_edges_as_union1d_does(cfg, with_wire_edges):
    # the masses over np.union1d's merge, written out; bin edges that are
    # also wire edges make repeats for the merge to drop
    edges = np.linspace(-cfg.extent, cfg.extent, 101)
    grid = np.ravel(make_grid(cfg))
    wires = grid if cfg.grid else np.empty(0)
    if with_wire_edges:
        edges = np.sort(np.concatenate([edges, grid[:3]]))
    merged = np.union1d(edges, wires)
    middles = 0.5 * (merged[:-1] + merged[1:])
    free = np.searchsorted(wires, middles) % 2 == 0
    bins = np.searchsorted(edges, middles) - 1
    expected = np.bincount(
        bins[free], weights=photonsim._masses("quantum", merged, cfg)[free],
        minlength=edges.size - 1,
    )
    assert np.array_equal(photonsim._detected_masses(cfg, edges), expected)


def test_reconstruct_takes_its_bin_count_from_the_result():
    res = simulate(calibration_preset(20_000, 4), bins=40)
    assert reconstruct(res, 40).dof == reconstruct(res).dof == 39


def test_reconstruction_accepts_the_largest_bin_count():
    centers, windows = photonsim._wire_windows(calibration_preset(1000, 4), photonsim.MAX_BINS)
    assert centers.size == photonsim.MAX_BINS
    assert len(windows) == 20
