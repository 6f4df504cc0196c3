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

Each photon carries a metalogical slit label, an arrival coordinate and a
blocked flag. The label is a bool, ``upper``, True for the upper slit (U)
and False for the lower (L), sampled as a fair coin independent of the
arrival coordinate. Photons are processed in fixed-size chunks whose random
streams depend only on (seed, chunk index).

A run keeps no per-photon record unless asked to. Each chunk is binned as
soon as it is drawn: its detected arrivals go into a histogram of ``bins``
equal bins over the window, and its blocked and upper-slit photons into two
counts, so a result takes O(bins) memory at any photon count. Each worker
thread owns one chunk workspace, allocated once per run, that holds the
flat path's chunk temporaries: a fresh temporary of 128 KB or more would be mapped and
unmapped by the allocator on every chunk. Integer totals add up the same in
any order, so results are identical whatever the worker count. With
``keep_photons=True`` the same loop writes each chunk into its slice of
three per-photon arrays (10 bytes a photon) instead of the workspace.

A flat envelope is sampled exactly, with no table: the window runs from
maximum to maximum, so its 4 * half_extent half-periods (maximum to next
minimum) hold equal mass. One integer draw picks the half-period and the
slit label; within the half-period the offset from the maximum is a closed
form of two uniforms, and the blocked flag is a comparison of that offset
with the wire's half-width. The coherent pattern's closed form needs a sine,
which is computed from ``tan`` by the half-angle identity: numpy runs
float64 ``tan`` as a vector loop and ``sin`` as a scalar one. A gaussian
envelope is sampled exactly too, by thinning exact proposals: a normal
draw, thinned by the fringes in quantum mode, when the envelope is at most
half the window wide, and otherwise the flat path's draw, thinned by the
envelope. Rejected proposals are redrawn from the chunk's own stream, so
results stay identical for any worker count.

Configurations are bounded: at most MAX_HALF_EXTENT periods each side, and
a gaussian envelope no narrower than the MAX_PANELS quadrature panels
across the window allow.

Density masses are exact where a closed form exists (the flat envelope) and
composite Gauss-Legendre quadrature otherwise (the gaussian envelope).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import ConfigError, NaflError, TooFewSamplesError
from .simchoices import ENVELOPES, MODES

# Photons per deterministic chunk (independent of worker count).
CHUNK_SIZE = 32768

# Widest detection window, in periods each side of center; the per-wire loops
# stay short. Both envelopes' samplers are exact at any width.
MAX_HALF_EXTENT = 1000

# Most Gauss-Legendre panels the gaussian norm may span, i.e. the bound on
# 2 * extent / min(period / 2, envelope_width); its nodes take about 10 MB.
MAX_PANELS = 1 << 16

# Most histogram bins simulate and reconstruct accept: every wire's window
# search scans all bin centres, and a gaussian envelope's bin masses take 20
# quadrature nodes per bin, about 10 MB per temporary array at this bound.
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
        if self.envelope == "gaussian":
            if self.envelope_width is None or not self.envelope_width > 0:
                raise ConfigError("gaussian envelope needs a positive envelope_width")
            panels = 2.0 * self.extent / self.panel
            if not panels <= MAX_PANELS:
                raise ConfigError(
                    f"envelope_width {self.envelope_width:g} needs {panels:.3g} "
                    f"quadrature panels across the window, more than {MAX_PANELS}; "
                    f"it must be at least {2.0 * self.extent / MAX_PANELS:.3g}"
                )
        elif self.envelope_width is not None:
            raise ConfigError("envelope_width only applies to the gaussian envelope")
        for density in ("quantum", "classical"):
            _norm(density, self)

    @property
    def extent(self) -> float:
        """Half-width of the detection window."""
        return self.half_extent * self.period

    @property
    def panel(self) -> float:
        """Widest Gauss-Legendre panel of a gaussian-envelope quadrature."""
        return min(self.period / 2.0, float(self.envelope_width))  # type: ignore[arg-type]


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


def _envelope_values(x: np.ndarray, cfg: SimConfig) -> np.ndarray:
    if cfg.envelope == "flat":
        return np.ones_like(x)
    width = float(cfg.envelope_width)  # type: ignore[arg-type]
    return np.exp(-0.5 * (x / width) ** 2)


def _raw_density(mode: str, x: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """Unnormalized density: the envelope, times the fringes if coherent."""
    if mode == "quantum":
        return _envelope_values(x, cfg) * np.cos(np.pi * (x / cfg.period)) ** 2
    return _envelope_values(x, cfg)


@lru_cache(maxsize=1)
def _gauss_legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(20)


def _masses(mode: str, edges: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """Unnormalized density mass between each pair of consecutive edges.

    Flat envelope: closed forms, with the fringe antiderivative
    x/2 + p sin(2 pi x/p)/(4 pi). Gaussian envelope: 20-point
    Gauss-Legendre on panels no wider than half a period or the envelope
    width, which agrees with adaptive quadrature to about 1e-15 relative.
    """
    edges = np.asarray(edges, dtype=float)
    if cfg.envelope == "flat":
        if mode != "quantum":
            return np.diff(edges)
        p = cfg.period
        # the phase in periods first: 2 pi times an edge can overflow
        antiderivative = edges / 2.0 + p * np.sin(2.0 * np.pi * (edges / p)) / (4.0 * np.pi)
        return np.diff(antiderivative)
    nodes, weights = _gauss_legendre_rule()
    lo, hi = edges[:-1], edges[1:]
    widest = float(np.max(hi - lo))
    panels = max(1, math.ceil(widest / cfg.panel))
    cuts = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, panels + 1)
    half = 0.5 * np.diff(cuts, axis=1)
    mid = 0.5 * (cuts[:, 1:] + cuts[:, :-1])
    x = mid[..., None] + half[..., None] * nodes  # (intervals, panels, nodes)
    return np.sum(half * (_raw_density(mode, x, cfg) @ weights), axis=1)


@lru_cache(maxsize=64)
def _norm(mode: str, cfg: SimConfig) -> float:
    """Mass of the mode's density over the window; ConfigError unless it and
    its reciprocal are positive and finite.

    Cached per config, so its construction, its oracle and its densities
    compute each norm once.
    """
    norm = float(_masses(mode, np.array([-cfg.extent, cfg.extent]), cfg)[0])
    if not (0.0 < norm < math.inf and 1.0 / norm < math.inf):
        raise ConfigError(
            f"the {mode} density's mass over the window is {norm!r}, which "
            "cannot be normalized; rescale period and widths"
        )
    return norm


def _pdf(mode: str, x, cfg: SimConfig):
    arr = np.asarray(x, dtype=float)
    inside = np.abs(arr) <= cfg.extent
    values = np.where(inside, _raw_density(mode, arr, cfg) / _norm(mode, cfg), 0.0)
    return float(values) if np.isscalar(x) else values


def quantum_pdf(x, cfg: SimConfig):
    """Normalized coherent-pattern density; zero outside the extent."""
    return _pdf("quantum", x, cfg)


def classical_pdf(x, cfg: SimConfig):
    """Normalized envelope density (uniform for a flat envelope)."""
    return _pdf("classical", x, cfg)


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


class _Workspace:
    """One worker's chunk buffers and running totals.

    Allocated once per simulate call and reused for every chunk the worker
    draws; see the module docstring. ``counts`` has one bin past the
    window's, which collects the blocked photons.
    """

    def __init__(self, edges: np.ndarray) -> None:
        self.left = edges[:-1]
        # The last bin includes the window's right end; the others do not.
        self.right = np.append(edges[1:-1], np.inf)
        self.lo = edges[0]
        self.span = edges[-1] - edges[0]
        self.draws = np.empty((CHUNK_SIZE, 2))
        self.t = np.empty(CHUNK_SIZE)
        self.sign = np.empty(CHUNK_SIZE, dtype=np.int32)
        self.upper = np.empty(CHUNK_SIZE, dtype=bool)
        self.x = np.empty(CHUNK_SIZE)
        self.blocked = np.empty(CHUNK_SIZE, dtype=bool)
        self.index = np.empty(CHUNK_SIZE, dtype=np.intp)
        self.edge = np.empty(CHUNK_SIZE)
        self.past = np.empty(CHUNK_SIZE, dtype=bool)
        self.counts = np.zeros(edges.size, dtype=np.intp)
        self.upper_count = 0

    def add(self, upper: np.ndarray, x: np.ndarray, blocked: np.ndarray) -> None:
        """Bin one chunk's arrivals and count its upper-slit labels.

        The bin index is np.histogram's rule for equal bins (numpy's
        ``lib/_histograms_impl.py``): scale the offset into the window,
        truncate, clamp the right end into the last bin, then step once down
        or up where the scaled index missed a ``linspace`` edge by an ulp.
        Every arrival lies in the window, so none is dropped.
        """
        bins = self.left.size
        index, edge, past = self.index[:x.size], self.edge[:x.size], self.past[:x.size]
        np.subtract(x, self.lo, out=edge)
        edge /= self.span
        edge *= bins
        np.copyto(index, edge, casting="unsafe")
        np.minimum(index, bins - 1, out=index)
        # mode="clip" lets take write into out without a buffer; every index
        # is already in range.
        np.take(self.left, index, out=edge, mode="clip")
        np.less(x, edge, out=past)
        index -= past
        np.take(self.right, index, out=edge, mode="clip")
        np.greater_equal(x, edge, out=past)
        index += past
        np.putmask(index, blocked, bins)
        self.counts += np.bincount(index, minlength=bins + 1)
        self.upper_count += int(np.count_nonzero(upper))


def _flat_chunk(
    cfg: SimConfig, rng: np.random.Generator, space: _Workspace,
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
    Every temporary but ``pick`` lives in ``space``.

    The sine is computed in its tangent half-angle form,
    sin(pi d1 / 2) = 2 tau / (1 + tau^2) with tau = tan(pi d1 / 4), because
    numpy runs float64 ``tan`` as a vector loop and ``sin`` as a scalar one,
    about four times slower. The form never gives s > 1, where arcsin is
    NaN: for tau >= 1/2, 2 tau - 1 is a double no greater than tau^2, so
    rounding keeps 1 + tau^2 >= 2 tau, while sqrt(d0) <= 1 keeps the
    numerator at most 2 tau; below 1/2 the quotient is at most 0.8.
    """
    # int32 draws the same values as the default int64, in half the memory.
    pick = rng.integers(0, 8 * cfg.half_extent, x.size, dtype=np.int32)
    draws, t, sign = space.draws[:x.size], space.t[:x.size], space.sign[:x.size]
    rng.random(out=draws)
    if cfg.mode == "quantum":
        # tau lives in x, which is written last: tan's vector loop wants a
        # contiguous buffer, and a fresh one per chunk would be mapped anew.
        tau = x
        np.multiply(draws[:, 1], np.pi / 4.0, out=tau)
        np.tan(tau, out=tau)
        np.sqrt(draws[:, 0], out=t)
        t *= tau
        t += t
        tau *= tau
        tau += 1.0
        t /= tau
        np.arcsin(t, out=t)
        t /= np.pi
    else:
        np.divide(draws[:, 0], 2.0, out=t)
    if cfg.grid:
        np.greater(t, 0.5 - cfg.wire_width / (2.0 * cfg.period), out=blocked)
    else:
        blocked[:] = False
    if cfg.mode == "single-slit":
        upper[:] = True
    else:
        np.bitwise_and(pick, 1, out=sign)
        upper[:] = sign
    # (-1)**h is 1 - (bit 1 of pick), and (h + 1) >> 1 is (pick + 2) >> 2.
    np.bitwise_and(pick, 2, out=sign)
    np.subtract(1, sign, out=sign)
    t *= sign
    pick += 2
    pick >>= 2
    pick -= cfg.half_extent
    np.add(pick, t, out=x)
    x *= cfg.period


def _gaussian_chunk(
    cfg: SimConfig, rng: np.random.Generator, space: _Workspace,
    upper: np.ndarray, x: np.ndarray, blocked: np.ndarray,
) -> None:
    """Fill one chunk of a gaussian-envelope run by thinning exact proposals.

    Proposals are drawn into the unfilled tail of ``x``, the kept ones moved
    up behind those kept before, and the rest redrawn until the chunk is full
    (Devroye, Non-Uniform Random Variate Generation, 1986, II.3). They never
    go to the front of ``space.x``: a streamed run's ``x`` is that buffer,
    so proposals there would overwrite the photons kept so far. An envelope
    no wider than half the window proposes sigma times a normal, rejects it
    outside the window and, in quantum mode, keeps it with probability
    cos^2(pi x / period), tested as u (1 + tan^2) < 1 since numpy runs
    float64 ``cos`` as a scalar loop. A wider one proposes from
    ``_flat_chunk`` in the same mode and keeps with probability
    exp(-x^2 / (2 sigma^2)). Both keep at least about 45% of proposals. The
    slit label is a fair coin, and a photon is blocked by the flat path's
    rule on its offset t = |x/period - rint(x/period)| from the nearest
    maximum.
    """
    sigma = float(cfg.envelope_width)  # type: ignore[arg-type]
    t = space.t[:x.size]
    filled = 0
    while filled < x.size:
        rest, u = x[filled:], t[:x.size - filled]
        if 2.0 * sigma <= cfg.extent:
            rng.standard_normal(out=rest)
            rest *= sigma
            keep = np.abs(rest) <= cfg.extent
            if cfg.mode == "quantum":
                rng.random(out=u)
                tan = np.tan(rest * (np.pi / cfg.period))
                keep &= u * (1.0 + tan * tan) < 1.0
        else:
            _flat_chunk(cfg, rng, space, upper[filled:], rest, blocked[filled:])
            rng.random(out=u)
            keep = u < np.exp(-0.5 * (rest / sigma) ** 2)
        kept = rest[keep]
        x[filled:filled + kept.size] = kept
        filled += kept.size
    if cfg.mode == "single-slit":
        upper[:] = True
    else:
        rng.random(out=t)
        np.less(t, 0.5, out=upper)
    if cfg.grid:
        np.divide(x, cfg.period, out=t)
        t -= np.rint(t)
        np.greater(np.abs(t), 0.5 - cfg.wire_width / (2.0 * cfg.period), out=blocked)
    else:
        blocked[:] = False


@dataclass(frozen=True, eq=False)
class SimResult:
    """A run's detected histogram and counts.

    The per-photon arrays are kept only by ``simulate(..., keep_photons=True)``
    and are None otherwise.
    """

    config: SimConfig
    counts: np.ndarray         # detected arrivals in equal bins over the window
    blocked_count: int         # photons absorbed by a wire
    upper_count: int           # photons labeled U, blocked ones included
    upper: np.ndarray | None = None    # bool slit label, True for U (upper), False for L
    x: np.ndarray | None = None        # arrival coordinates
    blocked: np.ndarray | None = None  # bool, photon absorbed by a wire

    @property
    def photons(self) -> int:
        return self.config.photons

    @property
    def bins(self) -> int:
        return int(self.counts.size)

    @property
    def bin_edges(self) -> np.ndarray:
        """The ``bins + 1`` edges of ``counts``, as np.histogram makes them."""
        return np.linspace(-self.config.extent, self.config.extent, self.bins + 1)

    @property
    def blocked_fraction(self) -> float:
        return self.blocked_count / self.photons

    @property
    def detected_x(self) -> np.ndarray:
        if self.x is None:
            raise NaflError("this result kept no photons; simulate with keep_photons=True")
        return self.x[~self.blocked]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimResult):
            return NotImplemented
        return (
            self.config == other.config
            and self.blocked_count == other.blocked_count
            and self.upper_count == other.upper_count
            and np.array_equal(self.counts, other.counts)
            # np.array_equal(None, None) is True: two streamed results
            and np.array_equal(self.upper, other.upper)
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.blocked, other.blocked)
        )


def _check_run(bins: int, workers: int = 1) -> None:
    """ConfigError unless a run may use ``workers`` threads and a histogram
    of ``bins`` bins: at least one thread, and 2 to MAX_BINS bins."""
    if workers < 1:
        raise ConfigError("workers must be at least 1")
    if bins < 2:
        raise ConfigError(f"the histogram needs at least 2 bins; got {bins}")
    if bins > MAX_BINS:
        raise ConfigError(f"the histogram takes at most {MAX_BINS} bins; got {bins}")


def simulate(
    cfg: SimConfig, workers: int = 1, bins: int = 100, keep_photons: bool = False,
) -> SimResult:
    """Run the full photon count; deterministic in cfg alone.

    Photons are partitioned into fixed 32768-photon chunks whose streams are
    derived from (seed, chunk index), and each chunk is binned into ``bins``
    equal bins over the window as soon as it is drawn. ``workers`` sets the
    number of threads only: each takes every ``workers``-th chunk into its
    own workspace and totals, and the totals are summed, so any worker
    count yields the identical result. With ``keep_photons`` each chunk is
    drawn into its slice of the result's per-photon arrays instead.
    """
    _check_run(bins, workers)
    fill = partial(_flat_chunk if cfg.envelope == "flat" else _gaussian_chunk, cfg)
    edges = np.linspace(-cfg.extent, cfg.extent, bins + 1)
    kept = None
    if keep_photons:
        kept = (
            np.empty(cfg.photons, dtype=bool),
            np.empty(cfg.photons),
            np.empty(cfg.photons, dtype=bool),
        )
    chunks = math.ceil(cfg.photons / CHUNK_SIZE)
    threads = min(workers, chunks)

    def work(first: int) -> _Workspace:
        space = _Workspace(edges)
        for index in range(first, chunks, threads):
            start = index * CHUNK_SIZE
            size = min(CHUNK_SIZE, cfg.photons - start)
            if kept is None:
                out = (space.upper[:size], space.x[:size], space.blocked[:size])
            else:
                out = tuple(array[start:start + size] for array in kept)
            seed_seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(index,))
            fill(np.random.default_rng(seed_seq), space, *out)
            space.add(*out)
        return space

    if threads == 1:
        spaces = [work(0)]
    else:
        # nafl registers this module lazily, and the first attribute read
        # of the lazy module, which executes it, takes no lock. Reaching
        # simulate was such a read, in the calling thread, so the module is
        # fully loaded before any worker starts. Only a run of more than
        # one thread loads concurrent.futures.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            spaces = list(pool.map(work, range(threads)))
    totals = np.sum([space.counts for space in spaces], axis=0)
    counts = totals[:bins]
    counts.flags.writeable = False
    upper_count = sum(space.upper_count for space in spaces)
    return SimResult(cfg, counts, int(totals[bins]), upper_count, *(kept or ()))


# --------------------------------------------------------------------------
# Independent oracle and reconstruction
# --------------------------------------------------------------------------


# x - sin x = x^3 (1/3! - x^2/5! + x^4/7! - ...): below x = 1, where the
# difference loses digits to cancellation, nine terms reach double precision.
_SINE_TAIL = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(9))


def _x_minus_sin(x: float) -> float:
    """x - sin x for x >= 0, to a few ulps; +0.0 where it underflows."""
    if x >= 1.0:
        return x - math.sin(x)
    y = x * x
    total = 0.0
    for coefficient in reversed(_SINE_TAIL):
        total = total * y + coefficient
    return total * x * y


def analytic_blocked_fraction(mode: str, cfg: SimConfig) -> float:
    """Mass of the mode's density over the wire intervals.

    Computed from the grid geometry alone, whether or not cfg.grid is set;
    absolute error stays below 1e-12, and for the flat quantum pattern the
    relative error stays near double precision however narrow the wires.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}; got {mode!r}")
    wires = make_grid(cfg)
    if mode == "quantum" and cfg.envelope == "flat":
        # Each wire is centred on a minimum, where the fringe integral is
        # p (x - sin x) / (2 pi) with x = pi w / p.
        p = cfg.period
        scale = len(wires) * (p / _norm(mode, cfg)) / (2.0 * math.pi)
        return scale * _x_minus_sin(math.pi * (cfg.wire_width / p))
    return float(np.sum(_masses(mode, np.ravel(wires), cfg)[::2])) / _norm(mode, cfg)


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
    _check_run(bins)
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


def _detected_masses(cfg: SimConfig, edges: np.ndarray) -> np.ndarray:
    """Unnormalized coherent-pattern mass of each bin outside the wires.

    The bin and wire edges are merged, and each merged interval's mass counts
    toward its bin unless the interval lies inside a wire. Without a grid
    nothing is inside a wire, so each bin keeps its whole mass. The merge is
    np.union1d's, sort then drop repeats, written out: union1d loads numpy.ma.
    """
    wires = np.ravel(make_grid(cfg)) if cfg.grid else np.empty(0)
    merged = np.sort(np.concatenate([edges, wires]))
    merged = merged[np.append(True, merged[1:] != merged[:-1])]
    middles = 0.5 * (merged[:-1] + merged[1:])
    free = np.searchsorted(wires, middles) % 2 == 0
    bins = np.searchsorted(edges, middles) - 1
    return np.bincount(
        bins[free], weights=_masses("quantum", merged, cfg)[free],
        minlength=edges.size - 1,
    )


def reconstruct(res: SimResult, bins: int | None = None) -> ReconstructionReport:
    """Chi-square the detected arrivals against the coherent pattern.

    Works on the result's histogram, so ``bins``, if given, must equal
    ``res.bins``: the bin count is chosen when simulating. Expected bin
    counts are the detected count times the coherent pattern's mass over
    each bin outside the wires, as a share of its mass outside them, so a
    classical or single-slit run fails loudly. Also checks that each
    empirical fringe minimum falls within half a bin of its wire center.
    """
    cfg = res.config
    if bins is not None and bins != res.bins:
        raise NaflError(
            f"the result holds a {res.bins}-bin histogram, not {bins} bins; "
            "pass bins to simulate"
        )
    bin_centers, windows = _wire_windows(cfg, res.bins)
    counts, edges = res.counts, res.bin_edges
    masses = _detected_masses(cfg, edges)
    expected = masses * ((res.photons - res.blocked_count) / masses.sum())
    if np.any(expected < 5.0):
        raise TooFewSamplesError(
            f"smallest expected bin count is {expected.min():.3g}; "
            "need at least 5 in every bin"
        )
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    dof = res.bins - 1
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
