"""Kernel density estimation over chain samples and uniform-deviation rates.

The quantity measured everywhere is the deviation of the estimator from its
smoothed stationary target x -> E_pi[K_h(x - Y)], i.e. the fluctuation part;
smoothing bias is out of scope.  The supremum over space is taken over a grid
with spacing at most h/4, whose adequacy is covered by a refinement-stability
test rather than an analytic modulus argument.

Kernels are products of a base profile compactly supported on [-1, 1], and
``Kernel`` rejects a profile that is non-zero just outside it.  The estimator
relies on that: each query point is evaluated only over the window of samples
within h of it in the first coordinate, which is one contiguous slice of the
sample sorted once, taken in pieces of at most ``ELEMENT_BUDGET`` samples.  The
estimate is still bit-identical to summing over every sample, because samples
outside the window contribute exact zeros and the row sums are taken over all
samples in their original order.
"""

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from .chains import ChainModel, _ConstantState, simulate
from .parallel import ELEMENT_BUDGET, fit_loglog_slope, mean_se, replicate, strict_json, write_csv
from .regeneration import simulate_split_retrospective

QUAD_TOL = 1e-8
# Widening of each query's window, relative to h + |x|.  It exceeds the
# rounding of both x -+ h and (x - X_i)/h, so every sample with a computed
# |(x - X_i)/h| <= 1 lies inside the window.
_WINDOW_MARGIN = 2.0 ** -30
# Points just outside [-1, 1] where a base profile must be exactly zero.
_OUTSIDE_SUPPORT = np.array([1.0 + 2.0 ** -52, 1.0 + 1e-9, 1.001, 1.1, 1.5, 2.0, 10.0])
# Gauss-Legendre rule on [-1, 1], exact for polynomials of degree below 64.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _box_k0(t):
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) <= 1.0, 0.5, 0.0)


def _box_k0_cdf(t):
    t = np.asarray(t, dtype=float)
    return np.clip((t + 1.0) / 2.0, 0.0, 1.0)


def _epanechnikov_k0(t):
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) <= 1.0, 0.75 * (1.0 - t ** 2), 0.0)


def _epanechnikov_k0_cdf(t):
    t = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
    return 0.25 * (2.0 + 3.0 * t - t ** 3)


def _profile_mass(k0: Callable) -> float:
    """Integral of the base profile ``k0`` over [-1, 1] by the Gauss-Legendre rule."""
    return float(np.asarray(k0(_GL_NODES), dtype=float) @ _GL_WEIGHTS)


@dataclass(frozen=True)
class Kernel:
    """The product kernel K(x) = prod_k k0(x_k) of a base profile k0 on [-1, 1].

    ``k0_sup`` is sup|k0| and ``k0_cdf`` the profile's CDF, which gives the
    smoothed target in closed form.  The base profile must integrate to one
    (checked by Gauss-Legendre quadrature, exact for polynomial profiles such
    as the box and Epanechnikov ones) and vanish outside [-1, 1] (checked at
    points just outside), because ``kde_evaluate`` only evaluates samples
    inside that support.
    """

    name: str
    k0: Callable
    k0_sup: float
    k0_cdf: Callable

    def __post_init__(self):
        mass = _profile_mass(self.k0)
        if abs(mass - 1.0) > QUAD_TOL:
            raise ValueError(f"base profile integrates to {mass:.10g}, not 1")
        ts = np.concatenate((-_OUTSIDE_SUPPORT, _OUTSIDE_SUPPORT))
        vals = np.asarray(self.k0(ts), dtype=float)
        for t, v in zip(ts.tolist(), vals.tolist()):
            if v != 0.0:
                raise ValueError(f"base profile is {v:.6g} at t = {t!r}, outside its support [-1, 1]")

    def evaluate(self, u: np.ndarray) -> np.ndarray:
        """K at each row of u, shape (m, d) -> (m,)."""
        u = np.asarray(u, dtype=float)
        if u.ndim == 1:
            u = u[:, None]
        return np.prod(np.asarray(self.k0(u), dtype=float), axis=1)


def box_kernel() -> Kernel:
    return Kernel(name="box", k0=_box_k0, k0_sup=0.5, k0_cdf=_box_k0_cdf)


def epanechnikov_kernel() -> Kernel:
    return Kernel(name="epanechnikov", k0=_epanechnikov_k0, k0_sup=0.75,
                  k0_cdf=_epanechnikov_k0_cdf)


KERNELS = {"box": box_kernel, "epanechnikov": epanechnikov_kernel}


# ---------------------------------------------------------------------------
# Evaluation and deviation
# ---------------------------------------------------------------------------


def kde_evaluate(sample, kernel: Kernel, h: float, x):
    """The density estimate n^-1 sum_i K((x - X_i)/h) / h^d at query points x.

    A scalar query (or a single d-vector for d > 1) returns a float; an array
    of queries returns an array.

    Only the window of each query is evaluated: the samples whose first
    coordinate lies within h of the query's.  In the sample sorted once by
    that coordinate the window is one contiguous slice, bounded by
    ``searchsorted``, so the kernel runs on views of the sorted sample and of
    the sort order, in pieces of at most ``ELEMENT_BUDGET`` samples.  This
    rests on the kernel's support being [-1, 1] per coordinate, which
    ``Kernel`` checks.  The window is widened by a relative margin, because a
    sample just outside fl(x -+ h) can still give a computed |(x - X_i)/h| = 1;
    the extra samples evaluate to exact zeros.

    The result is bit-identical to evaluating every (query, sample) pair: the
    kernel is elementwise, so a piece's values equal the dense ones; they go
    into a zeroed row at the samples' original indices, and the row mean then
    adds the same operands in the same order, since every sample outside the
    window contributes an exact zero.  Only the touched cells are re-zeroed.
    """
    if not 0 < h < math.inf:
        raise ValueError("bandwidth h must be positive")
    s = np.asarray(sample, dtype=float)
    if s.ndim == 1:
        s = s[:, None]
    n, d = s.shape
    if n == 0:
        raise ValueError("empty sample")
    xq = np.asarray(x, dtype=float)
    if xq.ndim == 0:
        q, scalar_in = xq.reshape(1, 1), True
    elif xq.ndim == 1:
        q, scalar_in = (xq[:, None], False) if d == 1 else (xq[None, :], True)
    else:
        q, scalar_in = xq, False
    if q.shape[1] != d:
        raise ValueError(f"query points have {q.shape[1]} coordinates, the sample has {d}")
    order = np.argsort(s[:, 0])
    srt = s[order]
    keys = srt[:, 0]
    reach = h + _WINDOW_MARGIN * (h + np.abs(q[:, 0]))
    starts = np.searchsorted(keys, q[:, 0] - reach, side="left")
    stops = np.searchsorted(keys, q[:, 0] + reach, side="right")
    step = max(ELEMENT_BUDGET // n, 1)
    buf = np.zeros((min(step, len(q)), n))
    out = np.empty(len(q))
    for lo in range(0, len(q), step):
        hi = min(lo + step, len(q))
        for j in range(lo, hi):
            for a in range(starts[j], stops[j], ELEMENT_BUDGET):
                b = min(a + ELEMENT_BUDGET, stops[j])
                buf[j - lo, order[a:b]] = kernel.evaluate((q[j] - srt[a:b]) / h)
        out[lo:hi] = buf[:hi - lo].mean(axis=1) / h ** d
        for j in range(lo, hi):
            buf[j - lo, order[starts[j]:stops[j]]] = 0.0
    return float(out[0]) if scalar_in else out


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
    d = 1 if np.asarray(states).ndim == 1 else np.asarray(states).shape[1]
    return uniform_deviation(states, kernel, h, grid, target), d


def rate_experiment(model: ChainModel, kernel: Kernel, config: KDEConfig, n_grid,
                    replications: int, seed: int,
                    sample_fn: Optional[Callable] = None, jobs: int = 1) -> RateReport:
    """Mean uniform deviation per n and the fitted log-log slope.

    Samples come from ``simulate(model, n, .)`` unless ``sample_fn(n, seed)``
    overrides the source (e.g. an i.i.d. oracle).  Replication (i, r) runs on
    its own derived seed, so jobs > 1 changes nothing but wall time.  The
    theoretical slope reported is -(1 - beta d)/2, log factors ignored.
    """
    if len(n_grid) < 3:
        raise ValueError("need at least 3 grid points to fit a rate")
    ns = [int(n) for n in n_grid]
    groups = replicate(partial(_rate_one, model, kernel, config, sample_fn), ns,
                       replications, seed, jobs)
    d = groups[0][0][1]
    rows = []
    for n, results in zip(ns, groups):
        h = config.bandwidth(n)
        mean_dev, std_err = mean_se([dev for (dev, _) in results])
        rows.append({"n": float(n), "h": h, "mean_dev": mean_dev, "std_err": std_err,
                     "theory_rate": math.sqrt(math.log(1.0 / h) / (n * h ** d))})
    slope, slope_se = fit_loglog_slope([r["n"] for r in rows], [r["mean_dev"] for r in rows])
    theory = -(1.0 - config.beta * d) / 2.0
    return RateReport(rows=rows, slope=slope, slope_se=slope_se, theory_slope=theory)


def _first_regeneration(model, horizon, x, task_seed):
    started = replace(model, initial_sample=_ConstantState(np.array([x])))
    flags = np.flatnonzero(simulate_split_retrospective(started, horizon, task_seed).regen_flags)
    return float(flags[0] + 1) if len(flags) else float(horizon)


def occupancy_moment_premise_check(model: ChainModel, p: float, x_grid, horizon: int,
                                   replications: int, seed: int,
                                   stationary_density: Callable) -> float:
    """Sup over a state grid of pi(x) * E_x[tau^p], estimated by simulation.

    Restarts the split chain at each grid point and averages the p-th power of
    the first regeneration time over replications; finiteness and stability of
    the returned sup support the same-rate regime for the deviation bound.
    """
    xs = np.asarray(x_grid, dtype=float)
    groups = replicate(partial(_first_regeneration, model, horizon), xs, replications, seed)
    sup_val = 0.0
    for x, taus in zip(xs, groups):
        sup_val = max(sup_val, stationary_density(float(x)) * float(np.mean(np.asarray(taus) ** p)))
    return sup_val
