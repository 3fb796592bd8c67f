"""Markov chain models: kernels, built-in test chains, exact stationary laws.

States are either integer labels (finite chains, reference measure = counting
measure) or points of R^d stored as float arrays of shape (n, d) (reference
measure = Lebesgue).  Every transition density in this package is taken with
respect to the reference measure of its chain.

All model objects are immutable after construction; the only mutable state is
the RNG, which is owned per simulation call.  Simulations with independent
streams are safe to run concurrently.
"""

import bisect
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from numpy.typing import ArrayLike

from .rng import stream

# Proposals per draw of a Psi rejection sampler before a hard error, so that
# a mis-specified certificate fails loudly instead of hanging.
REJECTION_CAP = 10**6

ROW_SUM_TOL = 1e-12
STATIONARY_RESIDUAL_TOL = 1e-10


class SamplingError(RuntimeError):
    """A rejection sampler exceeded ``REJECTION_CAP`` proposals."""


def _check_delta(delta):
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta!r}")


# ---------------------------------------------------------------------------
# Transition kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteKernel:
    """Row-stochastic transition matrix on the label space {0, ..., k-1}."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"transition matrix must be square, got shape {m.shape}")
        bad = np.argwhere(~np.isfinite(m) | (m < 0))
        if len(bad):
            i, j = bad[0]
            raise ValueError(f"transition matrix entry ({i}, {j}) must be a finite number >= 0, "
                             f"got {float(m[i, j])!r}")
        err = np.max(np.abs(m.sum(axis=1) - 1.0))
        if err > ROW_SUM_TOL:
            raise ValueError(f"matrix rows must sum to 1 within {ROW_SUM_TOL} (max error {err:.3e})")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_cum_rows", [row.tolist() for row in np.cumsum(m, axis=1)])

    @property
    def n_states(self) -> int:
        return self.matrix.shape[0]

    def sample_path(self, x0, n, rng):
        us = rng.random(max(n - 1, 0)).tolist()
        rows = self._cum_rows
        out = np.empty(n, dtype=np.int64)
        out[0] = x = int(x0)
        for i, u in enumerate(us):
            x = bisect.bisect_right(rows[x], u)
            out[i + 1] = x
        return out

    def density(self, x, y):
        """Transition density w.r.t. counting measure; vectorized over pairs."""
        return self.matrix[np.asarray(x, dtype=int), np.asarray(y, dtype=int)]


def _circ_dist(x, y):
    d = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    return np.minimum(d, 1.0 - d)


@dataclass(frozen=True)
class WrappedMixtureKernel:
    """Uniformly minorized kernel on the unit circle [0, 1).

    Each step draws a fresh Uniform(0, 1) point with probability ``delta`` and
    otherwise adds a wrapped uniform increment from [-width, width].  The full
    transition density w.r.t. Lebesgue on [0, 1) is

        p(x, y) = delta + (1 - delta) * 1{circ_dist(x, y) <= width} / (2 width)

    so p(x, y) >= delta everywhere: the whole space is a small set with
    minorizing measure Uniform(0, 1), and the chain is uniformly ergodic with
    uniform stationary law.
    """

    delta: float
    width: float

    def __post_init__(self):
        _check_delta(self.delta)
        if not 0.0 < self.width <= 0.5:
            raise ValueError(f"width must lie in (0, 0.5], got {self.width!r}")

    def density(self, x, y):
        x = np.ravel(np.asarray(x, dtype=float))
        y = np.ravel(np.asarray(y, dtype=float))
        near = _circ_dist(x, y) <= self.width + 1e-15
        return self.delta + (1.0 - self.delta) * near / (2.0 * self.width)

    def sample_path(self, x0, n, rng):
        x0 = float(np.ravel(x0)[0])
        m = n - 1
        fresh = rng.random(m) < self.delta
        # Step i lands at (psi[a] + csum[i]) - csum[a] for its last fresh
        # step a.  Slot 0 of psi and csum holds x0 and 0.0, the a of every
        # step before the first fresh one.  inc, spent once summed, holds the
        # gathered csum[a] and then floor(v).
        psi = np.empty(n)
        psi[0] = x0
        rng.random(m, out=psi[1:])
        inc = rng.uniform(-self.width, self.width, m)
        csum = np.empty(n)
        csum[0] = 0.0
        np.cumsum(inc, out=csum[1:])
        anchor = np.arange(1, n) * fresh
        np.maximum.accumulate(anchor, out=anchor)
        out = psi[anchor]
        out += csum[1:]
        out -= np.take(csum, anchor, out=inc)
        # v - floor(v) equals v % 1.0 bit for bit: the exact fraction for
        # v >= 0, one rounding of the same real 1 - f for v < 0, +0.0 for a
        # zero result.  It skips np.remainder's sign and divmod handling.
        # For v in [-2^-54, 0) that rounding gives 1.0, the point 0 of the
        # circle.
        out -= np.floor(out, out=inc)
        out[out == 1.0] = 0.0
        psi[1:] = out
        return psi.reshape(n, 1)


# ---------------------------------------------------------------------------
# Chain models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteMinorization:
    """Certificate that P(x, .) >= delta * psi(.) for every label x with ``small[x]`` true.

    A certificate is any object with four members: ``delta``; ``small_set``
    and ``psi_density`` over a batch of states, which with ``delta`` are all
    the splitter reads; and ``psi_sample(rng)``, a draw from Psi that starts a
    chain at a regeneration.
    """

    delta: float
    psi: np.ndarray
    small: np.ndarray

    def __post_init__(self):
        _check_delta(self.delta)
        object.__setattr__(self, "_psi_cum", np.cumsum(self.psi).tolist())

    def small_set(self, x) -> np.ndarray:
        return self.small[np.asarray(x, dtype=int)]

    def psi_density(self, y) -> np.ndarray:
        return self.psi[np.asarray(y, dtype=int)]

    def psi_sample(self, rng) -> int:
        return bisect.bisect_right(self._psi_cum, rng.random())


@dataclass(frozen=True)
class CircleMinorization:
    """Certificate of :class:`WrappedMixtureKernel`: the whole circle is small and Psi is
    Uniform(0, 1)."""

    delta: float

    def __post_init__(self):
        _check_delta(self.delta)

    def small_set(self, x) -> np.ndarray:
        x = np.asarray(x)
        return np.ones(x.shape[0] if x.ndim > 0 else 1, dtype=bool)

    def psi_density(self, y) -> np.ndarray:
        y = np.ravel(np.asarray(y, dtype=float))
        return ((y >= 0.0) & (y < 1.0)).astype(float)

    def psi_sample(self, rng) -> np.ndarray:
        return np.array([rng.random()])


@dataclass(frozen=True)
class ChainModel:
    """A simulatable chain: kernel, initial law, and minorization certificate."""

    kernel: object
    initial_sample: Callable
    minorization: object
    model_id: str

    @property
    def finite(self) -> bool:
        return isinstance(self.kernel, FiniteKernel)


@dataclass(frozen=True)
class Trajectory:
    """A realized chain path with optional per-step regeneration flags."""

    states: np.ndarray
    regen_flags: Optional[np.ndarray]
    seed: int
    model_id: str

    def __post_init__(self):
        if self.regen_flags is not None and len(self.regen_flags) != len(self.states):
            raise ValueError("regen_flags must have one entry per state")

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        """0 for finite label states, d for vector states."""
        return 0 if self.states.ndim == 1 and np.issubdtype(self.states.dtype, np.integer) else self.states.shape[1]

    def to_csv(self, path):
        d = self.dim
        with open(path, "w") as fh:
            fh.write("n,d,seed,model\n")
            fh.write(f"{self.n},{d},{self.seed},{self.model_id}\n")
            cols = ["state"] if d == 0 else [f"x{k}" for k in range(d)]
            fh.write(",".join(cols + ["regen"]) + "\n")
            flags = self.regen_flags
            for i in range(self.n):
                if d == 0:
                    row = [str(int(self.states[i]))]
                else:
                    row = [format(v, ".17g") for v in self.states[i]]
                row.append("" if flags is None else str(int(flags[i])))
                fh.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def sample_path(kernel, x0, n, rng):
    """n states starting at x0, drawn by the kernel's ``sample_path``.

    Every walk of a kernel in the package goes through this function, so it
    is the one place a kernel's steps can be counted or timed from outside.
    """
    return kernel.sample_path(x0, n, rng)


def simulate(model: ChainModel, n: int, seed: int) -> Trajectory:
    """Simulate n steps of the chain: X0 from the initial law, then the kernel.

    Deterministic given (model, n, seed).  The trajectory carries no
    regeneration flags; see :mod:`regenmc.regeneration` for split simulation.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = stream(seed, 0)
    x0 = model.initial_sample(rng)
    states = sample_path(model.kernel, x0, n, rng)
    return Trajectory(states=states, regen_flags=None, seed=seed, model_id=model.model_id)


# ---------------------------------------------------------------------------
# Exact stationary law for finite chains
# ---------------------------------------------------------------------------


def _depths(adj: np.ndarray) -> np.ndarray:
    """Breadth-first depth of each node from node 0 along ``adj``; -1 where unreached."""
    dist = np.full(adj.shape[0], -1)
    dist[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.flatnonzero(adj[u]):
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def exact_stationary(kernel) -> np.ndarray:
    """Stationary law of an irreducible aperiodic finite chain, by linear algebra.

    Solves pi P = pi, sum(pi) = 1 and checks the residual is below
    ``STATIONARY_RESIDUAL_TOL``.  Raises ``ValueError`` naming the violated
    property for reducible or periodic matrices.
    """
    m = kernel.matrix if isinstance(kernel, FiniteKernel) else FiniteKernel(np.asarray(kernel)).matrix
    k = m.shape[0]
    adj = m > 0
    dist = _depths(adj)
    # strongly connected: every state reaches state 0 and is reached from it
    if np.any(dist < 0) or np.any(_depths(adj.T) < 0):
        raise ValueError("matrix is reducible: no unique stationary law")
    # the period (gcd of cycle lengths) divides depth[u] + 1 - depth[v] on every edge u -> v
    u, v = np.nonzero(adj)
    period = int(np.gcd.reduce(dist[u] + 1 - dist[v]))
    if period != 1:
        raise ValueError(f"matrix is periodic with period {period}")
    a = np.vstack([m.T - np.eye(k), np.ones(k)])
    b = np.zeros(k + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    residual = np.max(np.abs(pi @ m - pi))
    if residual > STATIONARY_RESIDUAL_TOL:
        raise RuntimeError(f"stationary solve residual {residual:.3e} exceeds {STATIONARY_RESIDUAL_TOL}")
    return pi


# ---------------------------------------------------------------------------
# Built-in chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ConstantState:
    value: object

    def __call__(self, rng):
        return self.value


def finite_doeblin_chain(delta: float, matrix: ArrayLike, psi: ArrayLike) -> ChainModel:
    """Finite chain certified with the whole space small: matrix >= delta * psi.

    Regeneration times of the split chain are then exactly geometric(delta).
    Domination is checked exactly; a violation raises with a witness.
    """
    kernel = FiniteKernel(matrix)
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (kernel.n_states,) or not abs(psi.sum() - 1.0) <= 1e-12 or np.any(psi < 0):
        raise ValueError(f"psi must be a probability vector over the {kernel.n_states} states, "
                         f"got {psi.tolist()}")
    gap = kernel.matrix - delta * psi[None, :]
    cert = FiniteMinorization(delta=delta, psi=psi, small=np.ones(kernel.n_states, dtype=bool))
    if np.min(gap) < -1e-12:
        x, y = np.unravel_index(np.argmin(gap), gap.shape)
        raise ValueError(
            f"domination violated at (x={x}, y={y}): P={kernel.matrix[x, y]:.6g} < delta*psi={delta * psi[y]:.6g}")
    return ChainModel(kernel=kernel, initial_sample=cert.psi_sample, minorization=cert,
                      model_id=f"finite_doeblin(delta={delta:g})")


def wrapped_doeblin_chain(delta: float, width: float = 0.25) -> ChainModel:
    """Wrapped-increment mixture chain on [0, 1) with uniform stationary law.

    The canonical uniformly ergodic test chain: the whole space is small with
    delta and Psi = Uniform(0, 1), and complete-block lengths are geometric.
    """
    kernel = WrappedMixtureKernel(delta, width)
    cert = CircleMinorization(delta=delta)
    return ChainModel(kernel=kernel, initial_sample=cert.psi_sample, minorization=cert,
                      model_id=f"wrapped_doeblin(delta={delta:g},width={width:g})")


def finite_atom_chain(matrix: ArrayLike, atom: int = 0) -> ChainModel:
    """Finite chain with a genuine single-state atom: every visit regenerates.

    The minorization on S = {atom} is exact with delta = 1 and Psi the atom's
    transition row, so the split-chain flags are deterministic.
    """
    kernel = FiniteKernel(matrix)
    if not 0 <= atom < kernel.n_states:
        raise ValueError(f"atom must be a state in [0, {kernel.n_states}), got {atom!r}")
    cert = FiniteMinorization(delta=1.0, psi=kernel.matrix[atom],
                              small=np.arange(kernel.n_states) == atom)
    return ChainModel(kernel=kernel, initial_sample=_ConstantState(atom),
                      minorization=cert, model_id=f"finite_atom(atom={atom})")


def two_state_chain(p01: float = 0.5, p10: float = 0.2) -> ChainModel:
    """The 2-state workhorse with atom {0}; stationary law (p10, p01)/(p01+p10)."""
    for name, p in (("p01", p01), ("p10", p10)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {p!r}")
    matrix = np.array([[1.0 - p01, p01], [p10, 1.0 - p10]])
    return replace(finite_atom_chain(matrix, atom=0),
                   model_id=f"two_state(p01={p01:g},p10={p10:g})")
