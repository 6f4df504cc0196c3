"""Monte Carlo single-photon runs through a two-slit apparatus.

Everything is expressed in fringe coordinates: the interference pattern has
period ``period`` and the detection window spans an integer number of
periods each side of center, so its edges land on intensity maxima. Three
arrival distributions are supported:

* quantum      - envelope(x) * cos^2(pi x / period), the coherent pattern;
* classical    - envelope(x) alone, the incoherent fringe-averaged sum;
* single-slit  - envelope(x) with the lower slit closed (every photon upper).

A wire grid occupies the pattern minima at (k + 1/2) * period. The quantum
distribution puts only O((w/period)^3) of its mass under wires of width w,
while any envelope-shaped distribution puts about w/period there, which is
what makes the dark-grid observation quantitatively sharp.

Each photon record carries a metalogical slit label, an arrival coordinate
and a blocked flag: 10 bytes a photon. The label is a bool, ``upper``, True
for the upper slit (U) and False for the lower (L), sampled as a fair coin
independent of the arrival coordinate. Photons are processed in fixed-size
chunks whose random streams depend only on (seed, chunk index), and each
chunk fills its own slice of the result, so results are bit-identical
whatever the worker count.

A flat envelope is sampled exactly, with no table: the window runs from
maximum to maximum, so its 4 * half_extent half-periods (maximum to next
minimum) hold equal mass. One integer draw picks the half-period and the
slit label; within the half-period the offset from the maximum is a closed
form of two uniforms, and the blocked flag is a comparison of that offset
with the wire's half-width. A gaussian envelope is sampled by inverse
transform from a window-wide cumulative table: sort the chunk's uniforms,
interpolate the sorted array in the table, find the wire edges among the
sorted coordinates, and scatter the coordinates and blocked flags back to
the uniforms' original order. Interpolation and the edge test are
elementwise, so sorting changes speed only, never a value. Reconstruction
histograms all arrivals and subtracts the blocked ones, so it never copies
the detected photons.

Configurations are bounded: at most MAX_HALF_EXTENT periods each side, a
gaussian envelope no narrower than the MAX_PANELS quadrature panels across
the window allow, and, with a gaussian envelope, wires at least 64 table
knot spacings wide.

Density masses are exact where a closed form exists (the flat envelope) and
composite Gauss-Legendre quadrature otherwise (the gaussian envelope).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NaflError, TooFewSamplesError
from .simchoices import ENVELOPES, MODES

# Knots of the window-wide cumulative table that samples a gaussian envelope.
# Between knots the sampled density is flat, so under a wire of width w it
# fills in the dark fringe: with knot spacing h the blocked probability is
# about 1 + 4(h/w)^2 times the true one. SimConfig requires w >= 64 h, which
# keeps that within 0.1%.
TABLE_KNOTS = 65537

# Photons per deterministic chunk (independent of worker count).
CHUNK_SIZE = 32768

# Widest detection window, in periods each side of center; the per-wire loops
# stay short. The flat envelope's sampler is exact at any width. A gaussian
# one's table has 32768 / half_extent knots per period, so its wire-width
# bound leaves no accepted wire (w < period / 2) beyond 255 periods.
MAX_HALF_EXTENT = 1000

# Most Gauss-Legendre panels the gaussian norm may span, i.e. the bound on
# 2 * extent / min(period / 2, envelope_width); its nodes take about 10 MB.
MAX_PANELS = 1 << 16

# Most histogram bins reconstruct accepts: every wire's window search scans
# all bin centres, and a gaussian envelope's bin masses take 20 quadrature
# nodes per bin, about 10 MB per temporary array at this bound.
MAX_BINS = 1 << 16

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
            raise ConfigError("photons must be at least 1")
        if not 0 <= self.seed < 1 << 64:
            raise ConfigError(f"seed must lie in [0, 2**64); got {self.seed}")
        if not math.isfinite(self.period):
            raise ConfigError(f"period must be finite; got {self.period}")
        if self.period <= 0:
            raise ConfigError("period must be positive")
        if not 0 < self.wire_width < self.period / 2:
            raise ConfigError(
                f"wire width must lie in (0, period/2); got {self.wire_width} "
                f"with period {self.period}"
            )
        if not 1 <= self.half_extent <= MAX_HALF_EXTENT:
            raise ConfigError(
                f"half_extent must lie in [1, {MAX_HALF_EXTENT}] periods; "
                f"got {self.half_extent}"
            )
        if not math.isfinite(2.0 * self.extent):
            raise ConfigError(
                f"the window of {self.half_extent} periods of {self.period:g} "
                "is too wide to represent"
            )
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}; got {self.mode!r}")
        if self.envelope not in ENVELOPES:
            raise ConfigError(
                f"envelope must be one of {ENVELOPES}; got {self.envelope!r}"
            )
        shape = _shape(self)
        if self.envelope == "gaussian":
            if self.envelope_width is None or not self.envelope_width > 0:
                raise ConfigError("gaussian envelope needs a positive envelope_width")
            panels = 2.0 * self.extent / shape.panel
            if not panels <= MAX_PANELS:
                raise ConfigError(
                    f"envelope_width {self.envelope_width:g} needs {panels:.3g} "
                    f"quadrature panels across the window, more than {MAX_PANELS}; "
                    f"it must be at least {2.0 * self.extent / MAX_PANELS:.3g}"
                )
            # w >= 64 h, with h the table's knot spacing; see TABLE_KNOTS.
            smallest = 64.0 * 2.0 * self.extent / (TABLE_KNOTS - 1)
            if self.wire_width < smallest:
                raise ConfigError(
                    f"a gaussian envelope over {self.half_extent} periods of "
                    f"{self.period:g} needs wire_width at least {smallest:.6g}; "
                    f"got {self.wire_width:g}"
                )
        elif self.envelope_width is not None:
            raise ConfigError("envelope_width only applies to the gaussian envelope")
        for density in ("quantum", "classical"):
            _norm(density, shape)

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

    @property
    def panel(self) -> float:
        """Widest Gauss-Legendre panel of a gaussian-envelope quadrature."""
        return min(self.period / 2.0, float(self.envelope_width))  # type: ignore[arg-type]


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
    panels = max(1, math.ceil(widest / shape.panel))
    cuts = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, panels + 1)
    half = 0.5 * np.diff(cuts, axis=1)
    mid = 0.5 * (cuts[:, 1:] + cuts[:, :-1])
    x = mid[..., None] + half[..., None] * nodes  # (intervals, panels, nodes)
    return np.sum(half * (_raw_density(mode, x, shape) @ weights), axis=1)


@lru_cache(maxsize=64)
def _norm(mode: str, shape: _Shape) -> float:
    """Mass of the mode's density over the window; ConfigError unless it and
    its reciprocal are positive and finite."""
    norm = float(_masses(mode, np.array([-shape.extent, shape.extent]), shape)[0])
    if not (0.0 < norm < math.inf and 1.0 / norm < math.inf):
        raise ConfigError(
            f"the {mode} density's mass over the window is {norm!r}, which "
            "cannot be normalized; rescale period and widths"
        )
    return norm


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


def _flat_chunk(
    cfg: SimConfig, rng: np.random.Generator,
    upper: np.ndarray, x: np.ndarray, blocked: np.ndarray,
) -> None:
    """Fill one chunk of a flat-envelope run by composition over half-periods.

    A half-period runs from a fringe maximum to the next minimum, so all
    4 * half_extent of them hold equal mass. The low bit of ``pick`` is the
    slit label and ``h = pick >> 1`` the half-period. Within it the offset
    ``t`` in [0, 1/2] from the maximum is uniform for an envelope-shaped run;
    for the coherent pattern it is arcsin(s) / pi, where
    s = sqrt(d0) * sin(pi d1 / 2), the absolute abscissa of a point uniform
    in the unit disk, follows the semicircle law, so t has density
    4 cos^2(pi t). Then x = period * (((h + 1) >> 1) - half_extent
    + (-1)**h * t), and a photon is blocked when it lies more than
    (period - w) / 2 from its maximum, that is when t > 1/2 - w / (2 period).
    """
    # int32 draws the same values as the default int64, in half the memory.
    pick = rng.integers(0, 8 * cfg.half_extent, x.size, dtype=np.int32)
    draws = rng.random((x.size, 2))
    if cfg.mode == "quantum":
        t = np.sqrt(draws[:, 0])
        sine = draws[:, 1]
        sine *= np.pi / 2.0
        np.sin(sine, out=sine)
        t *= sine
        np.arcsin(t, out=t)
        t /= np.pi
    else:
        t = draws[:, 0] / 2.0
    if cfg.grid:
        np.greater(t, 0.5 - cfg.wire_width / (2.0 * cfg.period), out=blocked)
    if cfg.mode == "single-slit":
        upper[:] = True
    else:
        upper[:] = pick & 1
    # (-1)**h is 1 - (bit 1 of pick), and (h + 1) >> 1 is (pick + 2) >> 2.
    t *= 1 - (pick & 2)
    pick += 2
    pick >>= 2
    pick -= cfg.half_extent
    np.add(pick, t, out=x)
    x *= cfg.period


def _table_chunk(
    cfg: SimConfig, cdf: np.ndarray, xs: np.ndarray, edges: np.ndarray | None,
    rng: np.random.Generator, upper: np.ndarray, x: np.ndarray, blocked: np.ndarray,
) -> None:
    """Fill one chunk of a gaussian-envelope run from the cumulative table.

    The arrival uniforms are sorted first, so np.interp walks its table in
    order instead of missing the cache on every photon, and the wire edges
    are searched in the sorted coordinates rather than each photon in the
    edges. Both steps are elementwise, so scattering their results back
    through the permutation gives exactly the arrays the unsorted uniforms
    would.
    """
    draws = rng.random((x.size, 2))
    uniforms = draws[:, 1]
    order = np.argsort(uniforms)
    x_sorted = np.interp(uniforms[order], cdf, xs)
    x[order] = x_sorted
    if cfg.mode == "single-slit":
        upper[:] = True
    else:
        np.less(draws[:, 0], 0.5, out=upper)
    if edges is not None:
        # A photon is blocked when an odd number of edges lie at or below it.
        # On sorted coordinates that splits the chunk into runs between the
        # edges' insertion points, alternately free and blocked.
        runs = np.diff(np.searchsorted(x_sorted, edges), prepend=0, append=x.size)
        blocked[order] = np.repeat(np.arange(runs.size) % 2 == 1, runs)


@dataclass(frozen=True, eq=False)
class SimResult:
    config: SimConfig
    upper: np.ndarray          # bool slit label, True for U (upper), False for L
    x: np.ndarray              # arrival coordinates
    blocked: np.ndarray        # bool, photon absorbed by a wire

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
            and np.array_equal(self.upper, other.upper)
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.blocked, other.blocked)
        )


def simulate(cfg: SimConfig, workers: int = 1) -> SimResult:
    """Run the full photon count; deterministic in cfg alone.

    ``workers`` sets thread-pool width only. Photons are partitioned into
    fixed 32768-photon chunks whose streams are derived from (seed, chunk
    index), and each chunk writes its own slice of the result, so any worker
    count yields the identical result.
    """
    if workers < 1:
        raise ConfigError("workers must be at least 1")
    if cfg.envelope == "flat":
        fill = partial(_flat_chunk, cfg)
    else:
        edges = np.ravel(make_grid(cfg)) if cfg.grid else None
        fill = partial(_table_chunk, cfg, *_cumulative_table(cfg.mode, _shape(cfg)), edges)
    upper = np.empty(cfg.photons, dtype=bool)
    x = np.empty(cfg.photons)
    blocked = np.zeros(cfg.photons, dtype=bool)

    def job(index: int) -> None:
        chunk = slice(index * CHUNK_SIZE, (index + 1) * CHUNK_SIZE)
        seed_seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(index,))
        fill(np.random.default_rng(seed_seq), upper[chunk], x[chunk], blocked[chunk])

    chunks = range(math.ceil(cfg.photons / CHUNK_SIZE))
    if workers == 1:
        for index in chunks:
            job(index)
    else:
        # nafl registers this module lazily, and the first attribute read
        # of the lazy module, which executes it, takes no lock. Reaching
        # simulate was such a read, in the calling thread, so the module is
        # fully loaded before any worker starts.
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(job, chunks))
    return SimResult(cfg, upper, x, blocked)


# --------------------------------------------------------------------------
# Independent oracle and reconstruction
# --------------------------------------------------------------------------


def analytic_blocked_fraction(mode: str, cfg: SimConfig) -> float:
    """Mass of the mode's density over the wire intervals.

    Computed from the grid geometry alone, whether or not cfg.grid is set;
    absolute error stays below 1e-12.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}; got {mode!r}")
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

    Raises NaflError for fewer than 2 bins (no degree of freedom is left),
    more than MAX_BINS, or when some wire's window holds no bin centre to
    search for its minimum. The count is checked before anything is allocated.
    """
    if bins < 2:
        raise NaflError(f"the histogram needs at least 2 bins; got {bins}")
    if bins > MAX_BINS:
        raise NaflError(f"the histogram takes at most {MAX_BINS} bins; got {bins}")
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


def _detected_histogram(res: SimResult, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """(counts, edges) of the detected arrivals in equal bins over the window.

    Histograms every arrival and subtracts the histogram of the blocked ones,
    so the detected coordinates are never copied. Each arrival's bin depends
    on its coordinate alone, so the counts equal those of a histogram of
    ``res.detected_x``.
    """
    window = (-res.config.extent, res.config.extent)
    counts, edges = np.histogram(res.x, bins=bins, range=window)
    counts -= np.histogram(res.x[res.blocked], bins=bins, range=window)[0]
    return counts, edges


def _detected_masses(cfg: SimConfig, edges: np.ndarray) -> np.ndarray:
    """Unnormalized coherent-pattern mass of each bin outside the wires.

    The bin and wire edges are merged, and each merged interval's mass counts
    toward its bin unless the interval lies inside a wire. Without a grid
    nothing is inside a wire, so each bin keeps its whole mass.
    """
    wires = np.ravel(make_grid(cfg)) if cfg.grid else np.empty(0)
    merged = np.union1d(edges, wires)
    middles = 0.5 * (merged[:-1] + merged[1:])
    free = np.searchsorted(wires, middles) % 2 == 0
    bins = np.searchsorted(edges, middles) - 1
    return np.bincount(
        bins[free], weights=_masses("quantum", merged, _shape(cfg))[free],
        minlength=edges.size - 1,
    )


def reconstruct(res: SimResult, bins: int) -> ReconstructionReport:
    """Chi-square the detected arrivals against the coherent pattern.

    Expected bin counts are the detected count times the coherent pattern's
    mass over each bin outside the wires, as a share of its mass outside
    them, so a classical or single-slit run fails loudly. Also checks that
    each empirical fringe minimum falls within half a bin of its wire center.
    """
    cfg = res.config
    bin_centers, windows = _wire_windows(cfg, bins)
    counts, edges = _detected_histogram(res, bins)
    masses = _detected_masses(cfg, edges)
    expected = masses * ((res.photons - res.blocked_count) / masses.sum())
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
