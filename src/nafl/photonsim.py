"""Monte Carlo single-photon runs through a two-slit apparatus.

Everything is expressed in fringe coordinates: the interference pattern has
period ``period`` and the detection window spans an integer number of
periods each side of center, so its edges land on intensity maxima. Three
arrival distributions are supported:

* quantum      - envelope(x) * cos^2(pi x / period), the coherent pattern;
* classical    - envelope(x) alone, the incoherent fringe-averaged sum;
* single-slit  - envelope(x) with the lower slit closed (all labels U).

A wire grid occupies the pattern minima at (k + 1/2) * period. The quantum
distribution puts only O((w/period)^3) of its mass under wires of width w,
while any envelope-shaped distribution puts about w/period there, which is
what makes the dark-grid observation quantitatively sharp.

Each photon record carries a metalogical slit label, sampled as a fair coin
independent of the arrival coordinate, an arrival coordinate, and a blocked
flag. Sampling is inverse-transform from a precomputed cumulative table;
photons are processed in fixed-size chunks whose random streams depend only
on (seed, chunk index), so results are bit-identical whatever the worker
count.

Density masses are exact where a closed form exists (the flat envelope) and
composite Gauss-Legendre quadrature otherwise (the gaussian envelope).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NaflError, TooFewSamplesError

MODES = ("quantum", "classical", "single-slit")
ENVELOPES = ("flat", "gaussian")

# Cumulative-table resolution. At 2^16 + 1 knots the piecewise-linear
# sampler's density error near a fringe minimum is ~0.1% relative, far
# inside the statistical bands the tests budget for.
TABLE_KNOTS = 65537

# Photons per deterministic chunk (independent of worker count).
CHUNK_SIZE = 32768

DEFAULT_BINS = 100

_MASK64 = (1 << 64) - 1

# Relative tolerance and underflow guard of the chi-square tail expansions.
_EPS = 1e-16
_TINY = 1e-300


@dataclass(frozen=True)
class SimConfig:
    photons: int
    seed: int
    period: float = 1.0
    half_extent: int = 10
    wire_width: float = 0.05
    envelope: str = "flat"
    envelope_width: float | None = None
    mode: str = "quantum"
    grid: bool = True

    def __post_init__(self) -> None:
        if self.photons < 1:
            raise ValueError("photons must be at least 1")
        if self.period <= 0:
            raise ValueError("period must be positive")
        if not 0 < self.wire_width < self.period / 2:
            raise ValueError(
                f"wire width must lie in (0, period/2); got {self.wire_width} "
                f"with period {self.period}"
            )
        if self.half_extent < 1:
            raise ValueError("half_extent must be at least 1 period")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}; got {self.mode!r}")
        if self.envelope not in ENVELOPES:
            raise ValueError(
                f"envelope must be one of {ENVELOPES}; got {self.envelope!r}"
            )
        if self.envelope == "gaussian":
            if self.envelope_width is None or self.envelope_width <= 0:
                raise ValueError("gaussian envelope needs a positive envelope_width")
        elif self.envelope_width is not None:
            raise ValueError("envelope_width only applies to the gaussian envelope")

    @property
    def extent(self) -> float:
        """Half-width of the detection window."""
        return self.half_extent * self.period


def calibration_preset(photons: int, seed: int, mode: str = "quantum") -> SimConfig:
    """Wire geometry sized so the classical model blocks about 6.6 percent.

    With a flat envelope the classical blocked fraction equals w/period
    exactly, so w/period = 0.066 pins it; the quantum fraction for the same
    grid stays below a tenth of a percent.
    """
    return SimConfig(
        photons=photons, seed=seed, period=1.0, wire_width=0.066, mode=mode
    )


# --------------------------------------------------------------------------
# Densities
# --------------------------------------------------------------------------


class _Shape(NamedTuple):
    """The part of a SimConfig that the arrival densities depend on.

    Norms and sampling tables are cached on this rather than on the whole
    config, so a sweep over seeds or photon counts reuses them.
    """

    period: float
    half_extent: int
    envelope: str
    envelope_width: float | None

    @property
    def extent(self) -> float:
        return self.half_extent * self.period


def _shape(cfg: SimConfig) -> _Shape:
    return _Shape(cfg.period, cfg.half_extent, cfg.envelope, cfg.envelope_width)


def _envelope_values(x: np.ndarray, shape: _Shape) -> np.ndarray:
    if shape.envelope == "flat":
        return np.ones_like(x)
    width = float(shape.envelope_width)  # type: ignore[arg-type]
    return np.exp(-0.5 * (x / width) ** 2)


def _raw_density(mode: str, x: np.ndarray, shape: _Shape) -> np.ndarray:
    """Unnormalized density: the envelope, times the fringes if coherent."""
    if mode == "quantum":
        return _envelope_values(x, shape) * np.cos(np.pi * x / shape.period) ** 2
    return _envelope_values(x, shape)


@lru_cache(maxsize=1)
def _gauss_legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(20)


def _masses(mode: str, edges: np.ndarray, shape: _Shape) -> np.ndarray:
    """Unnormalized density mass between each pair of consecutive edges.

    Flat envelope: closed forms, with the fringe antiderivative
    x/2 + p sin(2 pi x/p)/(4 pi). Gaussian envelope: 20-point
    Gauss-Legendre on panels no wider than half a period or the envelope
    width, which agrees with adaptive quadrature to about 1e-15 relative.
    """
    edges = np.asarray(edges, dtype=float)
    if shape.envelope == "flat":
        if mode != "quantum":
            return np.diff(edges)
        p = shape.period
        antiderivative = edges / 2.0 + p * np.sin(2.0 * np.pi * edges / p) / (4.0 * np.pi)
        return np.diff(antiderivative)
    nodes, weights = _gauss_legendre_rule()
    lo, hi = edges[:-1], edges[1:]
    widest = float(np.max(hi - lo))
    width = float(shape.envelope_width)  # type: ignore[arg-type]
    panel = min(shape.period / 2.0, width)
    panels = max(1, math.ceil(widest / panel))
    cuts = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, panels + 1)
    half = 0.5 * np.diff(cuts, axis=1)
    mid = 0.5 * (cuts[:, 1:] + cuts[:, :-1])
    x = mid[..., None] + half[..., None] * nodes  # (intervals, panels, nodes)
    return np.sum(half * (_raw_density(mode, x, shape) @ weights), axis=1)


@lru_cache(maxsize=64)
def _norm(mode: str, shape: _Shape) -> float:
    return float(_masses(mode, np.array([-shape.extent, shape.extent]), shape)[0])


def _pdf(mode: str, x, shape: _Shape):
    arr = np.asarray(x, dtype=float)
    inside = np.abs(arr) <= shape.extent
    values = np.where(inside, _raw_density(mode, arr, shape) / _norm(mode, shape), 0.0)
    return float(values) if np.isscalar(x) else values


def quantum_pdf(x, cfg: SimConfig):
    """Normalized coherent-pattern density; zero outside the extent."""
    return _pdf("quantum", x, _shape(cfg))


def classical_pdf(x, cfg: SimConfig):
    """Normalized envelope density (uniform for a flat envelope)."""
    return _pdf("classical", x, _shape(cfg))


# --------------------------------------------------------------------------
# Wire grid
# --------------------------------------------------------------------------


def make_grid(cfg: SimConfig) -> tuple[tuple[float, float], ...]:
    """Disjoint wire intervals centered on every minimum inside the extent."""
    half = cfg.wire_width / 2.0
    wires = []
    for k in range(-cfg.half_extent, cfg.half_extent):
        center = (k + 0.5) * cfg.period
        wires.append((center - half, center + half))
    return tuple(wires)


def wire_centers(cfg: SimConfig) -> tuple[float, ...]:
    return tuple((lo + hi) / 2.0 for lo, hi in make_grid(cfg))


# --------------------------------------------------------------------------
# Sampling
# --------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _cumulative_table(mode: str, shape: _Shape) -> tuple[np.ndarray, np.ndarray]:
    """(cdf knots, x knots) for inverse-transform sampling of a mode."""
    xs = np.linspace(-shape.extent, shape.extent, TABLE_KNOTS)
    density = _pdf(mode, xs, shape)
    steps = 0.5 * (density[1:] + density[:-1]) * np.diff(xs)
    cdf = np.concatenate(([0.0], np.cumsum(steps)))
    cdf /= cdf[-1]
    # Every run with this shape shares the arrays.
    cdf.flags.writeable = False
    xs.flags.writeable = False
    return cdf, xs


def _chunk_bounds(photons: int) -> list[tuple[int, int]]:
    return [
        (start, min(start + CHUNK_SIZE, photons))
        for start in range(0, photons, CHUNK_SIZE)
    ]


def _run_chunk(
    cfg: SimConfig, index: int, count: int, cdf: np.ndarray, xs: np.ndarray,
    edges: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    seed_seq = np.random.SeedSequence(entropy=cfg.seed & _MASK64, spawn_key=(index,))
    rng = np.random.default_rng(seed_seq)
    draws = rng.random((count, 2))
    x = np.interp(draws[:, 1], cdf, xs)
    if cfg.mode == "single-slit":
        slits = np.full(count, "U", dtype="<U1")
    else:
        slits = np.where(draws[:, 0] < 0.5, "U", "L")
    if edges is None:
        blocked = np.zeros(count, dtype=bool)
    else:
        blocked = (np.searchsorted(edges, x, side="right") % 2) == 1
    return slits, x, blocked


@dataclass(frozen=True, eq=False)
class SimResult:
    config: SimConfig
    seed: int
    slits: np.ndarray          # '<U1' labels, one per photon
    x: np.ndarray              # arrival coordinates
    blocked: np.ndarray        # bool, photon absorbed by a wire
    histogram_edges: np.ndarray
    histogram_counts: np.ndarray

    @property
    def photons(self) -> int:
        return int(self.x.size)

    @property
    def blocked_count(self) -> int:
        return int(np.count_nonzero(self.blocked))

    @property
    def blocked_fraction(self) -> float:
        return self.blocked_count / self.photons

    @property
    def detected_x(self) -> np.ndarray:
        return self.x[~self.blocked]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimResult):
            return NotImplemented
        return (
            self.config == other.config
            and self.seed == other.seed
            and np.array_equal(self.slits, other.slits)
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.blocked, other.blocked)
            and np.array_equal(self.histogram_edges, other.histogram_edges)
            and np.array_equal(self.histogram_counts, other.histogram_counts)
        )


def simulate(cfg: SimConfig, workers: int = 1) -> SimResult:
    """Run the full photon count; deterministic in cfg alone.

    ``workers`` sets thread-pool width only. Photons are partitioned into
    fixed 32768-photon chunks whose streams are derived from (seed, chunk
    index), so any worker count yields the identical result.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    cdf, xs = _cumulative_table(cfg.mode, _shape(cfg))
    edges: np.ndarray | None = None
    if cfg.grid:
        edges = np.asarray([e for interval in make_grid(cfg) for e in interval])
    bounds = _chunk_bounds(cfg.photons)

    def job(args: tuple[int, tuple[int, int]]):
        index, (start, stop) = args
        return _run_chunk(cfg, index, stop - start, cdf, xs, edges)

    if workers == 1:
        pieces = [job(item) for item in enumerate(bounds)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pieces = list(pool.map(job, enumerate(bounds)))

    slits = np.concatenate([p[0] for p in pieces])
    x = np.concatenate([p[1] for p in pieces])
    blocked = np.concatenate([p[2] for p in pieces])
    counts, hist_edges = np.histogram(
        x[~blocked], bins=DEFAULT_BINS, range=(-cfg.extent, cfg.extent)
    )
    return SimResult(cfg, cfg.seed, slits, x, blocked, hist_edges, counts)


# --------------------------------------------------------------------------
# Independent oracle and reconstruction
# --------------------------------------------------------------------------


def analytic_blocked_fraction(mode: str, cfg: SimConfig) -> float:
    """Mass of the mode's density over the wire intervals.

    Computed from the grid geometry alone, whether or not cfg.grid is set;
    absolute error stays below 1e-12.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}; got {mode!r}")
    shape = _shape(cfg)
    wires = make_grid(cfg)
    if mode == "quantum" and shape.envelope == "flat":
        # Each wire is centred on a minimum, where the fringe integral is
        # (w - p sin(pi w/p)/pi)/2; unlike a difference of antiderivatives,
        # this form does not cancel for narrow wires.
        w, p = cfg.wire_width, cfg.period
        raw = len(wires) * (w - p * math.sin(math.pi * w / p) / math.pi) / 2.0
    else:
        raw = float(np.sum(_masses(mode, np.ravel(wires), shape)[::2]))
    return raw / _norm(mode, shape)


def _chi2_sf(chi2: float, dof: int) -> float:
    """Chi-square survival function, the regularized gamma Q(dof/2, chi2/2).

    A series for P = 1 - Q when x < a + 1, otherwise a continued fraction for
    Q by the modified Lentz method (Press et al., Numerical Recipes, 6.2).
    """
    a, x = dof / 2.0, chi2 / 2.0
    if x <= 0.0:
        return 1.0
    # Both expansions need O(sqrt(a)) terms near x = a.
    max_terms = 100 + int(20.0 * math.sqrt(a))
    prefactor = math.exp(-x + a * math.log(x) - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        denominator = a
        for _ in range(max_terms):
            denominator += 1.0
            term *= x / denominator
            total += term
            if abs(term) < abs(total) * _EPS:
                return 1.0 - total * prefactor
    else:
        b = x + 1.0 - a
        c = 1.0 / _TINY
        d = 1.0 / b
        h = d
        for i in range(1, max_terms):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            d = _TINY if abs(d) < _TINY else d
            c = b + an / c
            c = _TINY if abs(c) < _TINY else c
            d = 1.0 / d
            step = d * c
            h *= step
            if abs(step - 1.0) < _EPS:
                return h * prefactor
    raise ArithmeticError(
        f"chi-square tail did not converge for chi2={chi2}, dof={dof}"
    )


@dataclass(frozen=True)
class ReconstructionReport:
    bin_edges: np.ndarray
    counts: np.ndarray
    expected: np.ndarray
    chi2: float
    dof: int
    p_value: float
    minima: tuple[tuple[float, float, bool], ...]  # (wire center, matched bin center, ok)

    @property
    def minima_aligned(self) -> bool:
        return all(ok for _, _, ok in self.minima)


def _wire_windows(cfg: SimConfig, bins: int) -> tuple[np.ndarray, list]:
    """Bin centres, and per wire (its centre, the bins whose centre lies
    within half a period of it).

    Raises NaflError for fewer than 2 bins (no degree of freedom is left) or
    when some wire's window holds no bin centre to search for its minimum.
    """
    if bins < 2:
        raise NaflError(f"the histogram needs at least 2 bins; got {bins}")
    edges = np.linspace(-cfg.extent, cfg.extent, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    windows = []
    for center in wire_centers(cfg):
        window = np.nonzero(np.abs(centers - center) <= cfg.period / 2.0)[0]
        if window.size == 0:
            raise NaflError(
                f"with {bins} bins no bin centre lies within half a period of "
                f"the wire at {center:g}; {2 * cfg.half_extent} or more bins "
                "always work"
            )
        windows.append((center, window))
    return centers, windows


def reconstruct(res: SimResult, bins: int) -> ReconstructionReport:
    """Chi-square the detected arrivals against the coherent pattern.

    Expected bin masses are integrals of quantum_pdf over the bins, so a
    classical or single-slit run fails loudly. Also checks that each
    empirical fringe minimum falls within half a bin of its wire center.
    """
    cfg = res.config
    bin_centers, windows = _wire_windows(cfg, bins)
    extent = cfg.extent
    detected = res.detected_x
    counts, edges = np.histogram(detected, bins=bins, range=(-extent, extent))
    shape = _shape(cfg)
    masses = _masses("quantum", edges, shape) / _norm("quantum", shape)
    expected = masses * detected.size
    if np.any(expected < 5.0):
        raise TooFewSamplesError(
            f"smallest expected bin count is {expected.min():.3g}; "
            "need at least 5 in every bin"
        )
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    dof = bins - 1
    p_value = _chi2_sf(chi2, dof)

    bin_width = edges[1] - edges[0]
    minima = []
    for center, indices in windows:
        local = indices[np.argmin(counts[indices])]
        matched = float(bin_centers[local])
        ok = abs(matched - center) <= bin_width / 2.0 + 1e-9
        minima.append((float(center), matched, ok))
    return ReconstructionReport(
        edges, counts, expected, chi2, dof, p_value, tuple(minima)
    )
