"""Random-walk Metropolis-Hastings on bounded convex supports.

Includes construction and grid validation of the uniform minorization
certificate for the sampler (small ball around a chosen center, minorizing
measure proportional to the target there), regeneration-instrumented
sampling, and quantile / credible-interval error experiments.

The marginal CDFs and quantiles need the standard normal CDF and a bracketed
root finder.  ``ndtr`` and ``brentq`` below are scalar ports of SciPy's
(cephes ``ndtr`` and ``brentq.c``), so the runtime needs numpy alone; the tests
pin both to SciPy's results bit for bit.
"""

import hashlib
import json
import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .chains import REJECTION_CAP, ChainModel, SamplingError, Trajectory
from .parallel import (ELEMENT_BUDGET, fit_loglog_slope, mean_se, replicate, strict_json,
                       write_csv)
from .regeneration import simulate_split_retrospective
from .rng import stream

CERT_TOL = 1e-9
# Validation-grid points per axis of the small ball (d = 1); d > 1 uses its d-th root.
CERT_GRID = 41
# Largest dimension of a target or proposal.  build_minorization's grid pairs
# peak at 46.6 MB (tracemalloc, trunc_gauss with uniform steps a = 0.25) at
# d = 6 and grow about 6x per dimension, about 10 GB at d = 9.
MAX_DIM = 6
# Random pairs check_ball_chaining_geometry draws, from stream (CHAINING_SEED, 0).
CHAINING_TRIALS = 10_000
CHAINING_SEED = 0
_SQRT2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Standard normal CDF and root finding, ported from SciPy
# ---------------------------------------------------------------------------

# cephes ndtr.c: erfc(x) = exp(-x^2) P(x)/Q(x) for 1 <= x < 8, R(x)/S(x) for
# x >= 8, and erf(x) = x T(x^2)/U(x^2) for |x| < 1.  Q, S and U have an
# implicit leading coefficient 1.
_NDTR_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_NDTR_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_NDTR_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_NDTR_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_NDTR_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
           7.00332514112805075473E3, 5.55923013010394962768E4)
_NDTR_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
           2.26290000613890934246E4, 4.92673942608635921086E4)
_MAXLOG = 7.09782712893383996843E2      # log(2^1024)
_SQRT1_2 = 0.70710678118654752440

# Root finding for the marginal quantiles: the absolute tolerance they ask
# for, and SciPy's default relative tolerance and iteration cap.
BRENT_XTOL = 1e-13
BRENT_RTOL = 4 * 2.0 ** -52
BRENT_ITER = 100


def _polevl(x: float, coef) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef) -> float:
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    """cephes erf for |x| < 1, the only arguments ``ndtr`` gives it."""
    if x < 0.0:
        return -_erf(-x)
    z = x * x
    return x * _polevl(z, _NDTR_T) / _p1evl(z, _NDTR_U)


def _erfc(x: float) -> float:
    """cephes erfc for x >= 1, the only arguments ``ndtr`` gives it."""
    z = -x * x
    if z < -_MAXLOG:
        return 0.0
    z = math.exp(z)
    if x < 8.0:
        p, q = _polevl(x, _NDTR_P), _p1evl(x, _NDTR_Q)
    else:
        p, q = _polevl(x, _NDTR_R), _p1evl(x, _NDTR_S)
    return (z * p) / q


def ndtr(a: float) -> float:
    """Standard normal CDF at a, bit for bit as cephes computes it (SciPy's special.ndtr)."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < 1.0:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


def brentq(f, xa: float, xb: float) -> float:
    """A root of f in [xa, xb] by Brent's method: SciPy's brentq.c, step for step.

    Stops when the bracket's half-width drops below
    (BRENT_XTOL + BRENT_RTOL |x|) / 2.  Raises ValueError if f(xa) and f(xb)
    have the same sign, and RuntimeError after BRENT_ITER iterations.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError(f"f(a) and f(b) must have different signs: a={xa!r}, b={xb!r}, "
                         f"f(a)={fpre!r}, f(b)={fcur!r}")
    for _ in range(BRENT_ITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (BRENT_XTOL + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                try:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                except ZeroDivisionError:   # inf or nan in C: the test below bisects
                    stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"brentq failed to converge after {BRENT_ITER} iterations; "
                       f"the last iterate is {xcur!r}")


# ---------------------------------------------------------------------------
# Supports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Axis-aligned box; the bounded convex support used by the built-ins."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape:
            raise ValueError(f"box bounds differ in shape: lo {lo.shape}, hi {hi.shape}")
        bad = np.flatnonzero(~(lo < hi))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"box needs lo < hi componentwise; coordinate {i} has "
                             f"(lo, hi) = ({float(lo.flat[i])!r}, {float(hi.flat[i])!r})")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.all((x >= self.lo) & (x <= self.hi), axis=1)

    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

    def centroid(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0

    def uniform_sample(self, rng) -> np.ndarray:
        return self.lo + rng.random(self.dim) * (self.hi - self.lo)


# ---------------------------------------------------------------------------
# Coordinate densities and product targets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformCoord:
    lo: float
    hi: float

    @property
    def sup(self) -> float:
        return 1.0 / (self.hi - self.lo)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.where((t >= self.lo) & (t <= self.hi), 1.0 / (self.hi - self.lo), 0.0)

    def cdf(self, t: float) -> float:
        return min(max((t - self.lo) / (self.hi - self.lo), 0.0), 1.0)

    def pdf_scalar(self, t: float) -> float:
        return 1.0 / (self.hi - self.lo) if self.lo <= t <= self.hi else 0.0


@dataclass(frozen=True)
class TruncGaussCoord:
    lo: float
    hi: float
    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma!r}")
        a = ndtr((self.lo - self.mu) / self.sigma)
        z = ndtr((self.hi - self.mu) / self.sigma) - a
        if not z > 0:
            raise ValueError(f"mu={self.mu!r}, sigma={self.sigma!r} put no mass on "
                             f"[{self.lo!r}, {self.hi!r}]")
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_z", z)
        object.__setattr__(self, "_norm", self.sigma * _SQRT2PI * self._z)

    @property
    def sup(self) -> float:
        peak = min(max(self.mu, self.lo), self.hi)
        return self.pdf_scalar(peak)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        raw = np.exp(-0.5 * ((t - self.mu) / self.sigma) ** 2) / self._norm
        return np.where((t >= self.lo) & (t <= self.hi), raw, 0.0)

    def cdf(self, t: float) -> float:
        t = min(max(t, self.lo), self.hi)
        return (ndtr((t - self.mu) / self.sigma) - self._a) / self._z

    def pdf_scalar(self, t: float) -> float:
        if not self.lo <= t <= self.hi:
            return 0.0
        u = (t - self.mu) / self.sigma
        return math.exp(-0.5 * u * u) / self._norm


@dataclass(frozen=True)
class BimodalCoord:
    lo: float
    hi: float
    mu1: float
    s1: float
    mu2: float
    s2: float
    w1: float

    def __post_init__(self):
        if not (self.s1 > 0 and self.s2 > 0):
            raise ValueError(f"s1 and s2 must be positive, got {self.s1!r} and {self.s2!r}")
        if not 0.0 <= self.w1 <= 1.0:
            raise ValueError(f"w1 must lie in [0, 1], got {self.w1!r}")
        a1 = ndtr((self.lo - self.mu1) / self.s1)
        a2 = ndtr((self.lo - self.mu2) / self.s2)
        z1 = ndtr((self.hi - self.mu1) / self.s1) - a1
        z2 = ndtr((self.hi - self.mu2) / self.s2) - a2
        object.__setattr__(self, "_a1", a1)
        object.__setattr__(self, "_a2", a2)
        object.__setattr__(self, "_w2", 1.0 - self.w1)
        object.__setattr__(self, "_z", self.w1 * z1 + self._w2 * z2)
        if not self._z > 0:
            raise ValueError(f"the mixture puts no mass on [{self.lo!r}, {self.hi!r}]")
        object.__setattr__(self, "_n1", self.s1 * _SQRT2PI)
        object.__setattr__(self, "_n2", self.s2 * _SQRT2PI)

    @property
    def sup(self) -> float:
        # each component never exceeds its unconstrained mode, so this is certified
        return (self.w1 / self._n1 + self._w2 / self._n2) / self._z

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        raw = (self.w1 * np.exp(-0.5 * ((t - self.mu1) / self.s1) ** 2) / self._n1
               + self._w2 * np.exp(-0.5 * ((t - self.mu2) / self.s2) ** 2) / self._n2)
        return np.where((t >= self.lo) & (t <= self.hi), raw / self._z, 0.0)

    def cdf(self, t: float) -> float:
        t = min(max(t, self.lo), self.hi)
        c1 = ndtr((t - self.mu1) / self.s1) - self._a1
        c2 = ndtr((t - self.mu2) / self.s2) - self._a2
        return (self.w1 * c1 + self._w2 * c2) / self._z

    def pdf_scalar(self, t: float) -> float:
        if not self.lo <= t <= self.hi:
            return 0.0
        u1 = (t - self.mu1) / self.s1
        u2 = (t - self.mu2) / self.s2
        return (self.w1 * math.exp(-0.5 * u1 * u1) / self._n1
                + self._w2 * math.exp(-0.5 * u2 * u2) / self._n2) / self._z


@dataclass(frozen=True)
class Target:
    """A normalized product density on a box with exact coordinate marginals.

    Product structure keeps marginal CDFs, quantiles, interval masses and the
    certified sup norm exact, which the credible-interval experiments rely on.
    """

    name: str
    support: Box
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "sup_density", float(np.prod([c.sup for c in self.coords])))

    @property
    def dim(self) -> int:
        return self.support.dim

    def pdf(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        vals = np.ones(len(x))
        for k, c in enumerate(self.coords):
            vals = vals * c.pdf(x[:, k])
        return vals

    def pdf_point(self, x) -> float:
        val = 1.0
        for k, c in enumerate(self.coords):
            val *= c.pdf_scalar(float(x[k]))
            if val == 0.0:
                return 0.0
        return val

    def marginal_quantile(self, k: int, u: float) -> float:
        if not 0.0 < u < 1.0:
            raise ValueError(f"u must lie in (0, 1), got {u!r}")
        u = float(u)
        lo, hi = float(self.support.lo[k]), float(self.support.hi[k])
        cdf = self.coords[k].cdf
        return brentq(lambda t: cdf(t) - u, lo, hi)

    def interval_mass(self, k: int, a: float, b: float) -> float:
        lo, hi = float(self.support.lo[k]), float(self.support.hi[k])
        a, b = max(float(a), lo), min(float(b), hi)
        if a >= b:
            return 0.0
        return self.coords[k].cdf(b) - self.coords[k].cdf(a)

    def ball_mass(self, z, r: float) -> float:
        """Target mass of B(z, r) intersected with the support (exact for d = 1)."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        if self.dim == 1:
            return self.interval_mass(0, z[0] - r, z[0] + r)
        # midpoint-grid quadrature over the bounding box of the ball
        m = max(8, int(math.ceil(400 ** (1.0 / self.dim))))
        axes = [np.linspace(z[k] - r, z[k] + r, m + 1) for k in range(self.dim)]
        mids = [0.5 * (a[1:] + a[:-1]) for a in axes]
        grid = np.stack(np.meshgrid(*mids, indexing="ij"), axis=-1).reshape(-1, self.dim)
        cell = float(np.prod([a[1] - a[0] for a in axes]))
        inside = np.linalg.norm(grid - z, axis=1) <= r
        return float(np.sum(self.pdf(grid[inside])) * cell)


def _check_dim(d: int):
    if d < 1:
        raise ValueError(f"dimension d must be >= 1, got {d!r}")
    if d > MAX_DIM:
        raise ValueError(f"dimension d must be at most MAX_DIM = {MAX_DIM}, got {d!r}")


def _cube(lo, hi, d: int) -> Box:
    """The support [lo, hi]^d of a built-in target."""
    _check_dim(d)
    if not lo < hi:
        raise ValueError(f"lo must be below hi, got {lo!r} >= {hi!r}")
    return Box(np.full(d, float(lo)), np.full(d, float(hi)))


def uniform_target(lo=0.0, hi=1.0, d: int = 1) -> Target:
    support = _cube(lo, hi, d)
    return Target("uniform", support, tuple(UniformCoord(float(lo), float(hi)) for _ in range(d)))


def truncated_gaussian_target(lo=0.0, hi=1.0, mu=0.5, sigma=0.25, d: int = 1) -> Target:
    support = _cube(lo, hi, d)
    return Target("trunc_gauss", support,
                  tuple(TruncGaussCoord(float(lo), float(hi), float(mu), float(sigma))
                        for _ in range(d)))


def bimodal_target(lo=0.0, hi=1.0, mu1=0.3, s1=0.1, mu2=0.75, s2=0.08, w1=0.5,
                   d: int = 1) -> Target:
    support = _cube(lo, hi, d)
    return Target("bimodal", support,
                  tuple(BimodalCoord(float(lo), float(hi), mu1, s1, mu2, s2, w1)
                        for _ in range(d)))


TARGETS = {"uniform": uniform_target, "trunc_gauss": truncated_gaussian_target,
           "bimodal": bimodal_target}


# ---------------------------------------------------------------------------
# Proposals
# ---------------------------------------------------------------------------


def _certify_floor(proposal, params: str):
    """Check a proposal's dimension and its certified ball floor at construction.

    ``floor_b`` must be positive and finite, and density(z) >= floor_b must
    hold whenever |z| <= floor_eps: that is checked on a deterministic grid
    of 10^3 interior points plus 10^3 points on the ball's boundary.
    """
    _check_dim(proposal.d)
    try:
        b = proposal.floor_b
    except ArithmeticError:             # an overflow, or a variance that underflows to 0
        b = math.nan
    if not 0 < b < math.inf:
        raise ValueError(f"{params} gives no positive finite density floor in "
                         f"{proposal.d} dimensions")
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((1000, proposal.d))
    pts /= np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1e-12)
    radii = np.linspace(0.0, 1.0, 1000)[:, None]
    grid = np.vstack([pts * radii * proposal.floor_eps, pts * proposal.floor_eps])
    if np.any(proposal.density(grid) < b - 1e-12):
        raise ValueError("proposal density violates its certified ball floor")


@dataclass(frozen=True)
class UniformStep:
    """Even random-walk increments uniform on [-a, a]^d; floor (2a)^-d on the ball of radius a."""

    a: float
    d: int = 1

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError(f"step half-width a must be positive, got {self.a!r}")
        _certify_floor(self, f"a={self.a!r}")

    @property
    def name(self) -> str:
        return f"uniform_step(a={self.a:g})"

    @property
    def floor_b(self) -> float:
        return (2.0 * self.a) ** (-self.d)

    @property
    def floor_eps(self) -> float:
        return self.a

    def sample_increments(self, rng, n: int) -> np.ndarray:
        return rng.uniform(-self.a, self.a, (n, self.d))

    def density(self, z) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=float))
        return np.where(np.all(np.abs(z) <= self.a, axis=1), self.floor_b, 0.0)


@dataclass(frozen=True)
class GaussianStep:
    """Even random-walk increments N(0, s^2 I); the floor is the density at radius eps."""

    s: float
    eps: float
    d: int = 1

    def __post_init__(self):
        if not self.s > 0:
            raise ValueError(f"step scale s must be positive, got {self.s!r}")
        if not self.eps > 0:
            raise ValueError(f"floor radius eps must be positive, got {self.eps!r}")
        _certify_floor(self, f"s={self.s!r}, eps={self.eps!r}")

    @property
    def name(self) -> str:
        return f"gaussian_step(s={self.s:g})"

    @property
    def floor_b(self) -> float:
        return (math.exp(-0.5 * self.eps ** 2 / self.s ** 2)
                / (2 * math.pi * self.s ** 2) ** (self.d / 2))

    @property
    def floor_eps(self) -> float:
        return self.eps

    def sample_increments(self, rng, n: int) -> np.ndarray:
        return rng.normal(0.0, self.s, (n, self.d))

    def density(self, z) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=float))
        return (np.exp(-0.5 * (z ** 2).sum(axis=1) / self.s ** 2)
                / (2 * math.pi * self.s ** 2) ** (self.d / 2))


Proposal = UniformStep | GaussianStep


# ---------------------------------------------------------------------------
# The sampler
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MHKernel:
    """The random-walk MH transition kernel of ``target`` with ``proposal`` increments.

    From x the move proposes y = x + z and accepts it with probability
    min(1, pi(y)/pi(x)), which is 1 by convention when pi(x) vanishes.
    Proposals outside the support have zero target density, hence zero
    acceptance.
    """

    target: Target
    proposal: Proposal

    def sample_path(self, x0, n, rng):
        """n states from x0: n - 1 increments, then n - 1 acceptance uniforms, then the walk.

        ``_walk_floats`` walks the chain, a one-dimensional one on Python
        floats and a longer one on its coordinate rows.
        """
        incs = self.proposal.sample_increments(rng, n - 1)
        u_acc = rng.random(n - 1)
        states = np.empty((n, self.target.dim))
        states[0] = np.asarray(x0, dtype=float)
        if self.target.dim == 1:
            _walk_floats(self.target.coords[0].pdf_scalar, states[:, 0], incs[:, 0], u_acc)
        else:
            _walk_floats(self.target.pdf_point, states, incs, u_acc)
        return states

    def density(self, xs, ys):
        """p(x, y) = q(y - x) min(1, pi(y)/pi(x)) for a move, inf where y == x.

        A rejection is an atom of P(x, .) on which Psi, having a density, puts
        no mass, so a rejected step gets flag probability 0.  The recomputed
        increment fl(fl(x + z) - x) can exceed |z| by up to 2^-51 (|x| + |y|),
        so q is read that far closer to 0: an accepted move keeps a positive
        density at the edge of the proposal's support.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        z = ys - xs
        z = np.copysign(np.maximum(np.abs(z) - 2.0 ** -51 * (np.abs(xs) + np.abs(ys)), 0.0), z)
        px, py = self.target.pdf(xs), self.target.pdf(ys)
        with np.errstate(invalid="ignore", divide="ignore"):
            rho = np.where(px > 0, np.minimum(1.0, py / px), 1.0)
        p = self.proposal.density(z) * rho
        return np.where(np.all(xs == ys, axis=1), np.inf, p)


def _walk_floats(pdf, path, incs, u_acc):
    """Fill path[1:] with the accept/reject walk from path[0].

    A path of shape (n,) walks on Python floats, which take the same IEEE
    steps as 1-element arrays, so its path is bit-identical to an array
    walk; it reads its draws through memoryviews and writes each state back
    through one, so it builds no list of the chain.  One of shape (n, d)
    walks on its coordinate rows, with its draws taken in slices of
    ELEMENT_BUDGET / (8 d) steps: a boxed float and its list slot take 32
    bytes where an array element takes 8, so a slice's objects take about
    as much memory as ELEMENT_BUDGET array elements.  ``pdf`` reads what
    the walk steps on.  The two loops write the accept rule out each, so
    that neither pays a function call a step; the two copies must stay the
    same, and the tests that compare both walks with the per-step
    reference check that they are.
    """
    if path.ndim == 1:
        x = float(path[0])
        px = pdf(x)
        out = memoryview(path)
        for i, (z, u) in enumerate(zip(memoryview(incs), memoryview(u_acc)), 1):
            y = x + z
            py = pdf(y)
            if px == 0.0 or py >= px or u * px < py:    # the accept rule, as below
                x, px = y, py
            out[i] = x
        return
    x = path[0]
    px = pdf(x)
    step = max(1, ELEMENT_BUDGET // (8 * path[0].size))
    for lo in range(0, len(u_acc), step):
        hi = min(lo + step, len(u_acc))
        walked = []
        for z, u in zip(incs[lo:hi], u_acc[lo:hi].tolist()):
            y = x + z
            py = pdf(y)
            if px == 0.0 or py >= px or u * px < py:    # the accept rule, as above
                x, px = y, py
            walked.append(x)
        path[lo + 1:hi + 1] = walked


def run_mh(target: Target, proposal: Proposal, n: int, seed: int) -> np.ndarray:
    """Plain MH path of n states from the support centroid."""
    start = target.support.centroid()
    return MHKernel(target, proposal).sample_path(start, n + 1, stream(seed, 0))[:n]


# ---------------------------------------------------------------------------
# Minorization certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MHMinorization:
    """Small ball S = B(center, radius) cap support, with delta and Psi = pi|S.

    delta = floor_b * pi(S) / sup_density and Psi has density pi(y) / pi(S) on
    S.  ``grid_hash`` fingerprints the validation grid the certificate passed
    at construction.
    """

    target: Target
    proposal: Proposal
    center: np.ndarray
    radius: float
    delta: float
    psi_mass: float
    grid_hash: str

    def small_set(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        near = np.linalg.norm(x - self.center, axis=1) <= self.radius
        return near & self.target.support.contains(x)

    def psi_density(self, y) -> np.ndarray:
        y = np.atleast_2d(np.asarray(y, dtype=float))
        return np.where(self.small_set(y), self.target.pdf(y) / self.psi_mass, 0.0)

    def psi_sample(self, rng) -> np.ndarray:
        lo = np.maximum(self.center - self.radius, self.target.support.lo)
        hi = np.minimum(self.center + self.radius, self.target.support.hi)
        for _ in range(REJECTION_CAP):
            y = lo + rng.random(self.target.dim) * (hi - lo)
            if float(np.linalg.norm(y - self.center)) > self.radius:
                continue
            if rng.random() * self.target.sup_density < self.target.pdf_point(y):
                return y
        raise SamplingError(f"Psi rejection sampler exceeded {REJECTION_CAP} proposals")

    def to_json(self) -> str:
        return json.dumps({
            "target": self.target.name, "proposal": self.proposal.name,
            "center": [float(c) for c in self.center], "radius": self.radius,
            "delta": self.delta, "psi_mass": self.psi_mass,
            "validation_grid_hash": self.grid_hash,
        }, indent=2)


def build_minorization(target: Target, proposal: Proposal,
                       center=None) -> MHMinorization:
    """Construct and grid-validate the small-ball certificate.

    The small set is the ball of radius floor_eps/2 around ``center`` (the
    support centroid by default) intersected with the support.  Every pair
    (x, y) on a deterministic grid over the small set must satisfy
    q(y - x) rho(x, y) >= delta psi(y) within 1e-9, else construction fails
    with the witness pair.  A delta >= 1 is rejected as degenerate.
    """
    z = np.atleast_1d(np.asarray(center, dtype=float)) if center is not None \
        else target.support.centroid()
    if not bool(target.support.contains(z[None, :])[0]):
        raise ValueError("certificate center must lie inside the support")
    radius = proposal.floor_eps / 2.0
    psi_mass = target.ball_mass(z, radius)
    if psi_mass <= 0:
        raise ValueError("small ball carries no target mass")
    delta = proposal.floor_b * psi_mass / target.sup_density
    if delta >= 1.0:
        raise ValueError(f"degenerate certificate: delta = {delta:.6g} >= 1")
    d = target.dim
    per_axis = CERT_GRID if d == 1 else max(5, int(round(CERT_GRID ** (1.0 / d))))
    lo = np.maximum(z - radius, target.support.lo)
    hi = np.minimum(z + radius, target.support.hi)
    axes = [np.linspace(lo[k], hi[k], per_axis) for k in range(d)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    pts = pts[np.linalg.norm(pts - z, axis=1) <= radius]
    xs = np.repeat(pts, len(pts), axis=0)
    ys = np.tile(pts, (len(pts), 1))
    q = proposal.density(ys - xs)
    px, py = target.pdf(xs), target.pdf(ys)
    with np.errstate(invalid="ignore"):
        rho = np.where(px > 0, np.minimum(1.0, py / np.where(px > 0, px, 1.0)), 1.0)
    lhs = q * rho
    rhs = delta * py / psi_mass
    bad = lhs < rhs - CERT_TOL
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"minorization validation failed at x={xs[i]}, y={ys[i]}: "
            f"p={lhs[i]:.6g} < delta*psi={rhs[i]:.6g}")
    grid_hash = hashlib.sha256(pts.tobytes()).hexdigest()[:16]
    return MHMinorization(target=target, proposal=proposal, center=z, radius=radius,
                          delta=delta, psi_mass=psi_mass, grid_hash=grid_hash)


def mh_chain_regen(target: Target, proposal: Proposal, cert: MHMinorization,
                   n: int, seed: int) -> Trajectory:
    """MH path with retrospective regeneration flags from the certificate.

    The sampler is split like any other chain, by
    :func:`regenmc.regeneration.simulate_split_retrospective` on
    :class:`MHKernel`.  Only a step that starts in the small set and accepts a
    move can regenerate, with probability delta psi(y) / (q(y - x) rho(x, y)),
    which is checked to never exceed 1 + 1e-9; the X-marginal is that of the
    plain sampler.  It starts at a Psi draw, a regeneration.
    """
    model = ChainModel(MHKernel(target, proposal), cert.psi_sample, cert,
                       f"mh({target.name},{proposal.name})")
    return simulate_split_retrospective(model, n, seed)


# ---------------------------------------------------------------------------
# Quantiles and credible intervals
# ---------------------------------------------------------------------------


def empirical_quantiles(values, us) -> np.ndarray:
    """The smallest sample value whose empirical CDF reaches u, for each u in ``us``.

    Every u must lie in (0, 1); the first that does not is named in the error.
    """
    us = np.asarray(us, dtype=float)
    bad = us[~((us > 0.0) & (us < 1.0))]
    if bad.size:
        raise ValueError(f"u must lie in (0, 1), got {float(bad[0])!r}")
    values = np.sort(np.asarray(values, dtype=float).ravel())
    idx = np.maximum(np.ceil(len(values) * us).astype(int) - 1, 0)
    return values[idx]


@dataclass
class QuantileReport:
    """Reference vs empirical quantiles for one coordinate at one sample size."""

    n: int
    u_grid: np.ndarray
    empirical: np.ndarray     # mean over replications of Q-hat(u)
    reference: np.ndarray
    sup_error: float          # mean over replications of sup_u |Q-hat - Q|
    sup_error_se: float
    monotone: bool            # Q-hat nondecreasing on every replication


@dataclass
class QuantileSeries:
    reports: list
    slope: float
    slope_se: float
    gamma: float
    density_floor: float      # inf of the marginal density between the gamma quantiles
    rate_checked: bool

    def to_json(self) -> str:
        return strict_json({
            "gamma": self.gamma, "slope": self.slope, "slope_se": self.slope_se,
            "density_floor": self.density_floor, "rate_checked": self.rate_checked,
            "sup_errors": [{"n": r.n, "sup_err": r.sup_error, "se": r.sup_error_se,
                            "monotone": r.monotone} for r in self.reports],
        })

    def to_csv(self, path):
        write_csv(path, "n,u,qhat,qref,err",
                  [(rep.n, u, qh, qr, abs(qh - qr)) for rep in self.reports
                   for u, qh, qr in zip(rep.u_grid, rep.empirical, rep.reference)])


def _credible_one(target, proposal, cert, k, us, q_ref, n, task_seed):
    traj = mh_chain_regen(target, proposal, cert, n, task_seed)
    qh = empirical_quantiles(traj.states[:, k], us)
    mono = bool(np.all(np.diff(qh) >= 0))
    return float(np.max(np.abs(qh - q_ref))), qh, mono


def credible_interval_experiment(target: Target, proposal: Proposal,
                                 cert: MHMinorization, k: int, gamma: float,
                                 n_grid, replications: int, seed: int, *,
                                 n_u: int, jobs: int = 1) -> QuantileSeries:
    """Sup quantile error over u in [2 gamma, 1 - 2 gamma] per chain length.

    For each n the sup error is averaged over replications and the log-log
    slope across n is fitted (the reference exponent is -1/2).  If the
    marginal density floor between the gamma quantiles is not positive, the
    rate check is skipped with a warning.  Replications run on independent
    derived seeds, so jobs > 1 only changes wall time.
    """
    if not 0.0 < gamma < 0.25:
        raise ValueError("gamma must lie in (0, 0.25)")
    us = np.linspace(2 * gamma, 1 - 2 * gamma, n_u)
    q_ref = np.array([target.marginal_quantile(k, u) for u in us])
    floor_us = np.linspace(gamma, 1 - gamma, 4 * n_u)
    density_floor = float(min(float(target.coords[k].pdf(target.marginal_quantile(k, u)))
                              for u in floor_us))
    rate_checked = density_floor > 0
    if not rate_checked:
        warnings.warn("marginal density floor is not positive; rate check skipped", stacklevel=2)
    ns = [int(n) for n in n_grid]
    groups = replicate(partial(_credible_one, target, proposal, cert, k, us, q_ref), ns,
                       replications, seed, jobs)
    reports = []
    for n, chunk in zip(ns, groups):
        sup_error, sup_error_se = mean_se([c[0] for c in chunk])
        reports.append(QuantileReport(
            n=n, u_grid=us, empirical=np.mean([c[1] for c in chunk], axis=0), reference=q_ref,
            sup_error=sup_error, sup_error_se=sup_error_se, monotone=all(c[2] for c in chunk)))
    if rate_checked:
        slope, slope_se = fit_loglog_slope([r.n for r in reports],
                                           [r.sup_error for r in reports])
    else:
        slope, slope_se = float("nan"), float("nan")
    return QuantileSeries(reports=reports, slope=slope, slope_se=slope_se, gamma=gamma,
                          density_floor=density_floor, rate_checked=rate_checked)


# ---------------------------------------------------------------------------
# Ball-chaining coverage of the support
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainingCheck:
    ok: bool
    min_steps: int
    trials: int
    failures: int


def check_ball_chaining_geometry(support: Box, eps: float) -> ChainingCheck:
    """Geometric backbone of the uniform-minorization argument.

    Computes the minimal k with eps (1 + k/4) > diameter(support), and
    spot-checks on CHAINING_TRIALS random pairs (x, y) and nesting levels that
    the prescribed segment point m satisfies B(m, gamma/4) inside
    B(x, eta) cap B(y, gamma) whenever |x - y| <= eta + gamma/4.
    """
    diam = support.diameter()
    min_steps = max(int(math.floor(4.0 * (diam / eps - 1.0))) + 1, 1)
    while eps * (1 + min_steps / 4.0) <= diam:  # guard against float edge cases
        min_steps += 1
    rng = stream(CHAINING_SEED, 0)
    failures = 0
    for _ in range(CHAINING_TRIALS):
        level = int(rng.integers(0, min_steps + 1))
        eta = eps * (1 + level / 4.0)
        gam = eps
        x = support.uniform_sample(rng)
        direction = rng.standard_normal(support.dim)
        direction /= max(float(np.linalg.norm(direction)), 1e-12)
        y = np.clip(x + direction * rng.random() * (eta + gam / 4.0), support.lo, support.hi)
        dist = float(np.linalg.norm(x - y))
        if dist > eta + gam / 4.0 or dist == 0.0:
            continue
        t = max(0.0, 1.0 - (eta - gam / 4.0) / dist)
        m = y + t * (x - y)
        ok = (np.linalg.norm(m - x) <= eta - gam / 4.0 + 1e-12
              and np.linalg.norm(m - y) <= 0.75 * gam + 1e-12)
        if not ok:
            failures += 1
    return ChainingCheck(ok=failures == 0, min_steps=min_steps, trials=CHAINING_TRIALS,
                         failures=failures)
