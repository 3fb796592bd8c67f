"""Kernel density estimation over chain samples and uniform-deviation rates.

The quantity measured everywhere is the deviation of the estimator from its
smoothed stationary target x -> E_pi[K_h(x - Y)], i.e. the fluctuation part;
smoothing bias is out of scope.  The supremum over space is taken over a grid
with spacing at most h/4, whose adequacy is covered by a refinement-stability
test rather than an analytic modulus argument.

Samples are one-dimensional.  A kernel's base profile is compactly supported on
[-1, 1], where it is a polynomial; a ``Kernel`` holds it as its power-basis
coefficients alone.  The estimator relies on both: each query's window, the
samples within h of it, is one contiguous slice of the sample sorted once, and
its kernel sum is a combination of window moments sum ((X_i - o)/h)^j.  The
sorted sample is cut into blocks of width h, each centred at its own first
value o and scaled by 1/h, so a window meets at most four blocks and every
centred value lies in [0, 1] up to rounding.  The moments come from segment
sums of the centred sample between the windows' ends, so a whole grid costs
O(n + q log n) and no (query x sample) array is ever built.  The result agrees
with the dense sum over every sample to the rounding bound given in
``kde_evaluate``, which depends on n and h but not on where the sample lies;
for the box kernel, whose sum is a count, it is bit-identical.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .chains import ChainModel, simulate
from .parallel import ELEMENT_BUDGET, fit_loglog_slope, mean_se, replicate, strict_json, write_csv

QUAD_TOL = 1e-8
# Widening and narrowing of each query's window, relative to h + |x|.  It
# exceeds the rounding of both x -+ h and (x - X_i)/h, so every sample with a
# computed |(x - X_i)/h| <= 1 lies inside the widened window and every sample
# inside the narrowed one passes that test.
_WINDOW_MARGIN = 2.0 ** -30


def _box_k0_cdf(t):
    t = np.asarray(t, dtype=float)
    return np.clip((t + 1.0) / 2.0, 0.0, 1.0)


def _epanechnikov_k0_cdf(t):
    t = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
    return 0.25 * (2.0 + 3.0 * t - t ** 3)


@dataclass(frozen=True)
class Kernel:
    """A base profile k0 on [-1, 1]: K_h(x - X) = k0((x - X)/h) / h.

    ``coeffs`` are the power-basis coefficients (a_0, a_1, ...) of k0 on
    [-1, 1], outside of which it is 0; ``kde_evaluate`` sums the kernel over
    a window from them.  ``k0_sup`` is sup|k0| and ``k0_cdf`` the profile's
    CDF, which gives the smoothed target in closed form.  The profile must
    integrate to one, sum_{k even} 2 a_k / (k + 1) = 1.
    """

    name: str
    k0_sup: float
    k0_cdf: Callable
    coeffs: tuple

    def __post_init__(self):
        mass = sum(2.0 * a / (k + 1) for k, a in enumerate(self.coeffs) if k % 2 == 0)
        if abs(mass - 1.0) > QUAD_TOL:
            raise ValueError(f"base profile integrates to {mass:.10g}, not 1")

    def k0(self, t):
        """The base profile at t: sum_k a_k t^k where |t| <= 1, else 0."""
        t = np.asarray(t, dtype=float)
        inside = np.clip(t, -1.0, 1.0)
        return np.where(np.abs(t) <= 1.0,
                        sum(a * inside ** k for k, a in enumerate(self.coeffs)), 0.0)


def box_kernel() -> Kernel:
    return Kernel(name="box", k0_sup=0.5, k0_cdf=_box_k0_cdf, coeffs=(0.5,))


def epanechnikov_kernel() -> Kernel:
    return Kernel(name="epanechnikov", k0_sup=0.75, k0_cdf=_epanechnikov_k0_cdf,
                  coeffs=(0.75, 0.0, -0.75))


KERNELS = {"box": box_kernel, "epanechnikov": epanechnikov_kernel}


# ---------------------------------------------------------------------------
# Evaluation and deviation
# ---------------------------------------------------------------------------


def _first_failing(keys, x, lo, hi, holds):
    """Per query, the first index in [lo, hi) where ``holds(x, keys[i])`` is false, else hi.

    ``holds`` must be true on a prefix of each range; the search bisects,
    in place in ``lo`` and ``hi``, only the queries whose range is not yet
    empty, usually none.
    """
    live = np.flatnonzero(lo < hi)
    while len(live):
        mid = (lo[live] + hi[live]) // 2
        ok = holds(x[live], keys[mid])
        lo[live[ok]] = mid[ok] + 1
        hi[live[~ok]] = mid[~ok]
        live = live[lo[live] < hi[live]]
    return lo


def kde_evaluate(sample, kernel: Kernel, h: float, x):
    """The density estimate n^-1 sum_i k0((x - X_i)/h) / h at query points x.

    A scalar query returns a float; an array of queries returns an array.
    The sample must be one-dimensional (shape (n,) or (n, 1)); moment sums
    exist only in one dimension.

    Window: the samples with |fl((x - X_i)/h)| <= 1, the dense sum's own
    support test.  That test is monotone in X_i, so in the sample sorted
    once the window is one slice.  ``searchsorted`` at x -+ h widened, and
    narrowed, by a relative margin brackets each end of the slice; the few
    samples between the two brackets, usually none, are settled by bisecting
    with the test itself, so the window is exactly the dense sum's.

    Centring: the sorted sample is cut into blocks of equal
    floor((X_i - min X)/h), and each block is centred in place at its first
    value o and scaled by 1/h, so v_i = (X_i - o)/h lies in [0, 1] up to
    rounding.  A window's samples span less than three cells, so it meets at
    most four blocks and splits into at most four pieces, one per block.

    Moments: for each power j up to the profile's degree d,
    ``np.add.reduceat`` sums v^j over the segments between consecutive piece
    ends, and prefix sums over those segments give every piece's
    S_j = sum v_i^j as a difference.  With k0(t) = sum_k a_k t^k and
    u = (x - o)/h, a piece's kernel sum is
    sum_k a_k sum_j C(k, j) u^(k-j) (-1)^j S_j, and a window's is the sum
    over its pieces.

    Error: with eps = 2^-52, R = max X - min X and m = 3 + 8 eps (1 + R/h),
    which bounds |u| + max_i |v_i| on every piece, the result differs from
    the dense sum by at most
    8 (sqrt(n) + log2(n) + d + 16) eps / h * sum_k |a_k| m^k.
    Each prefix value sums at most n terms v^j, pairwise within segments and
    in about 2 sqrt(n) steps across them (``_prefix_sums``); the combination
    and the dense sum's own mean add smaller terms of the same shape.  The
    bound does not depend on where the sample lies, and on its range only
    through eps R / h.  For the Epanechnikov kernel (sum_k |a_k| 3^k = 7.5)
    it is 7e-7 at n = 2^20 and h = 2e-5, and for a sample of range 1 it
    stays below 1 % of the rate sqrt(log(1/h) / (n h)) for every n <= 2^29
    and 1e-7 <= h <= 0.99.  For the box kernel (d = 0) the sum is 0.5 times
    the window's count, so the result is bit-identical to the dense sum.
    """
    if not 0 < h < math.inf:
        raise ValueError("bandwidth h must be positive")
    s = np.asarray(sample, dtype=float)
    if s.ndim > 2 or (s.ndim == 2 and s.shape[1] != 1):
        raise ValueError(f"kde_evaluate takes a one-dimensional sample, got shape {s.shape}")
    srt = np.sort(s.ravel())
    n = len(srt)
    if n == 0:
        raise ValueError("empty sample")
    if not (np.isfinite(srt[0]) and np.isfinite(srt[-1])):
        raise ValueError("sample has non-finite values")
    xq = np.asarray(x, dtype=float)
    if xq.ndim > 2 or (xq.ndim == 2 and xq.shape[1] != 1):
        raise ValueError(f"query points have shape {xq.shape}; the sample has one coordinate")
    q = xq.ravel()
    # a query has at most four pieces, so a chunk has at most ELEMENT_BUDGET pieces
    width = ELEMENT_BUDGET // 4
    chunks = [slice(lo, lo + width) for lo in range(0, len(q), width)]
    start, stop = np.empty((2, len(q)), dtype=np.intp)
    for sl in chunks:
        start[sl], stop[sl] = _window_ends(srt, q[sl], h)
    bounds, origins = _centre_in_blocks(srt, h)
    out = np.zeros(len(q))
    for sl in chunks:
        live = np.flatnonzero(stop[sl] > start[sl]) + sl.start
        if len(live):
            out[live] = _window_kernel_sums(srt, bounds, origins, start[live], stop[live],
                                            q[live], h, kernel.coeffs) / n / h
    return float(out[0]) if xq.ndim == 0 else out


def _window_ends(keys, q, h):
    """Each query's window keys[start:stop], the samples with |fl((x - X_i)/h)| <= 1."""
    slack = _WINDOW_MARGIN * (h + np.abs(q))
    outer, inner = h + slack, h - slack
    start = _first_failing(keys, q, np.searchsorted(keys, q - outer, side="left"),
                           np.searchsorted(keys, q - inner, side="left"),
                           lambda xs, xi: (xs - xi) / h > 1.0)
    stop = _first_failing(keys, q, np.searchsorted(keys, q + inner, side="right"),
                          np.searchsorted(keys, q + outer, side="right"),
                          lambda xs, xi: (xs - xi) / h >= -1.0)
    return start, stop


def _centre_in_blocks(v, h):
    """Cut the sorted v into blocks of equal floor((v - v[0])/h); map each v to (v - o)/h.

    o is the first value of v's block, and the mapping is in place.  Returns
    the blocks' first indices followed by len(v), and their values o.
    """
    cells = v - v[0]
    cells /= h
    np.floor(cells, out=cells)
    first = np.flatnonzero(np.concatenate(([True], cells[1:] != cells[:-1])))
    del cells
    origins = v[first]
    bounds = np.append(first, len(v))
    v -= np.repeat(origins, np.diff(bounds))
    v /= h
    return bounds, origins


def _prefix_sums(g):
    """[0, g_0, g_0 + g_1, ...], summed in rows of about sqrt(len(g)) terms, then across rows.

    Each prefix is rounded in at most 2 sqrt(len(g)) + 2 additions, where a
    plain cumsum takes up to len(g).
    """
    width = math.isqrt(len(g)) + 1
    rows = np.zeros((-(-len(g) // width), width))
    rows.ravel()[:len(g)] = g
    np.cumsum(rows, axis=1, out=rows)
    rows[1:] += np.cumsum(rows[:-1, -1])[:, None]
    return np.concatenate(([0.0], rows.ravel()[:len(g)]))


def _window_kernel_sums(v, bounds, origins, start, stop, x, h, coeffs):
    """sum_i k0((x - X_i)/h) over each non-empty window v[start:stop] of a block-centred sample.

    Each window is split at the block bounds into pieces; a piece in the
    block with first value o has moments S_j = sum v_i^j, from one segment
    sum of v^j between consecutive piece ends and prefix sums over those
    segments, and kernel sum sum_k a_k sum_j C(k, j) u^(k-j) (-1)^j S_j
    with u = (x - o)/h.
    """
    first = np.searchsorted(bounds, start, side="right") - 1
    last = np.searchsorted(bounds, stop, side="left") - 1
    pieces = []
    i = np.arange(len(start))
    while len(i):
        b = first[i] + len(pieces)
        pieces.append((i, b, np.maximum(start[i], bounds[b]), np.minimum(stop[i], bounds[b + 1])))
        i = i[b < last[i]]
    which, block, lo, hi = (np.concatenate(p) for p in zip(*pieces))
    base = np.min(lo)
    is_end = np.zeros(np.max(hi) - base + 1, dtype=bool)
    is_end[lo - base] = is_end[hi - base] = True
    ends = np.flatnonzero(is_end) + base
    at_lo, at_hi = np.searchsorted(ends, lo), np.searchsorted(ends, hi)
    seg = v[ends[0]:ends[-1]]
    moments = [(hi - lo).astype(float)]
    power = None
    for _ in coeffs[1:]:
        power = seg if power is None else power * seg
        prefix = _prefix_sums(np.add.reduceat(power, ends[:-1] - ends[0]))
        moments.append(prefix[at_hi] - prefix[at_lo])
    u = (x[which] - origins[block]) / h
    total = np.zeros(len(u))
    for k, a in enumerate(coeffs):
        if a != 0.0:
            total += a * sum(math.comb(k, j) * (-1) ** j * u ** (k - j) * moments[j]
                             for j in range(k + 1))
    return np.bincount(which, weights=total, minlength=len(x))


def uniform_smoothed_target(kernel: Kernel, h: float, grid) -> np.ndarray:
    """E_pi[K_h(x - Y)] for Y uniform on [0, 1], in closed form (d = 1)."""
    grid = np.asarray(grid, dtype=float)
    return kernel.k0_cdf(grid / h) - kernel.k0_cdf((grid - 1.0) / h)


def uniform_deviation(sample, kernel: Kernel, h: float, grid, target_values) -> float:
    """Max over the grid of |estimate - smoothed target|."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("evaluation grid is empty")
    est = kde_evaluate(sample, kernel, h, grid)
    return float(np.max(np.abs(est - np.asarray(target_values, dtype=float))))


def deviation_grid(h: float, spacing_factor: float = 4.0) -> np.ndarray:
    """Evaluation grid with spacing h/spacing_factor over [0, 1], padded by h on each side."""
    step = h / spacing_factor
    return np.arange(-h, 1.0 + h + step / 2, step)


# ---------------------------------------------------------------------------
# Rate experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KDEConfig:
    """Bandwidth rule h_n = scale * n^(-beta) on the Uniform(0, 1) stationary law."""

    beta: float
    scale: float = 1.0

    def bandwidth(self, n: int) -> float:
        return self.scale * float(n) ** (-self.beta)

    def smoothed_target(self, kernel: Kernel, h: float, grid) -> np.ndarray:
        return uniform_smoothed_target(kernel, h, grid)


@dataclass
class RateReport:
    rows: list          # dicts: n, h, mean_dev, std_err, theory_rate
    slope: float
    slope_se: float
    theory_slope: float

    def slope_within(self, tol: float) -> bool:
        return abs(self.slope - self.theory_slope) <= tol

    def to_json(self) -> str:
        return strict_json({"slope": self.slope, "slope_se": self.slope_se,
                            "theory_slope": self.theory_slope, "rows": self.rows})

    def to_csv(self, path):
        keys = ("n", "h", "mean_dev", "std_err", "theory_rate")
        write_csv(path, ",".join(keys), [[r[k] for k in keys] for r in self.rows])


def _rate_one(model, kernel, config, sample_fn, n, task_seed):
    h = config.bandwidth(n)
    grid = deviation_grid(h)
    target = config.smoothed_target(kernel, h, grid)
    states = simulate(model, n, task_seed).states if sample_fn is None else sample_fn(n, task_seed)
    return uniform_deviation(states, kernel, h, grid, target)


def rate_experiment(model: ChainModel, kernel: Kernel, config: KDEConfig, n_grid,
                    replications: int, seed: int,
                    sample_fn: Optional[Callable] = None, jobs: int = 1) -> RateReport:
    """Mean uniform deviation per n and the fitted log-log slope.

    Samples come from ``simulate(model, n, .)`` unless ``sample_fn(n, seed)``
    overrides the source (e.g. an i.i.d. oracle); either must be
    one-dimensional.  Replication (i, r) runs on its own derived seed, so
    jobs > 1 changes nothing but wall time.  The theoretical rate reported is
    sqrt(log(1/h) / (n h)) and the slope -(1 - beta)/2, log factors ignored.
    """
    if len(n_grid) < 3:
        raise ValueError("need at least 3 grid points to fit a rate")
    ns = [int(n) for n in n_grid]
    groups = replicate(partial(_rate_one, model, kernel, config, sample_fn), ns,
                       replications, seed, jobs)
    rows = []
    for n, devs in zip(ns, groups):
        h = config.bandwidth(n)
        mean_dev, std_err = mean_se(devs)
        rows.append({"n": float(n), "h": h, "mean_dev": mean_dev, "std_err": std_err,
                     "theory_rate": math.sqrt(math.log(1.0 / h) / (n * h))})
    slope, slope_se = fit_loglog_slope([r["n"] for r in rows], [r["mean_dev"] for r in rows])
    theory = -(1.0 - config.beta) / 2.0
    return RateReport(rows=rows, slope=slope, slope_se=slope_se, theory_slope=theory)

