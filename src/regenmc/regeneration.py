"""Splitting, regeneration blocks, block statistics, and occupation estimates.

A regeneration flag at step i marks a visit of the split chain to its atom:
the block in progress ends at step i (inclusive) and a fresh block starts at
step i+1.  Complete blocks are i.i.d.; the initial segment up to the first
flag and the trailing segment after the last flag are kept separate.
"""

import json
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chains import ChainModel, Trajectory, sample_path
from .parallel import ELEMENT_BUDGET, strict_json
from .rng import stream

RATIO_TOL = 1e-9


# ---------------------------------------------------------------------------
# Split-chain simulation
# ---------------------------------------------------------------------------


def simulate_split_retrospective(model: ChainModel, n: int, seed: int) -> Trajectory:
    """Simulate the chain and draw regeneration flags after seeing each move.

    The X-path is drawn as in :func:`regenmc.chains.simulate`, from the same
    stream, and the flags from a stream of their own; the
    flag at step i is Bernoulli(delta * psi(X_{i+1}) / p(X_i, X_{i+1})) when
    X_i lies in the small set.  One extra hidden state is simulated so the
    final step also gets a flag.  Each Bernoulli ratio is checked to be
    <= 1 + 1e-9; a larger value means the certificate is invalid and raises
    with the offending pair, as does an observed move of zero density.
    """
    cert = model.minorization
    rng = stream(seed, 0)
    x0 = model.initial_sample(rng)
    ext = sample_path(model.kernel, x0, n + 1, rng)
    xs, ys = ext[:-1], ext[1:]
    steps = np.flatnonzero(np.asarray(cert.small_set(xs), dtype=bool))
    probs = np.zeros(n)
    if len(steps):
        p = np.asarray(model.kernel.density(xs[steps], ys[steps]), dtype=float)
        if np.any(p <= 0):
            i = int(steps[np.argmax(p <= 0)])
            raise ValueError(f"observed transition has zero density at step {i} "
                             f"(x={xs[i]}, y={ys[i]}); invalid kernel density")
        ratio = cert.delta * np.asarray(cert.psi_density(ys[steps]), dtype=float) / p
        if np.any(ratio > 1.0 + RATIO_TOL):
            j = int(np.argmax(ratio))
            i = int(steps[j])
            raise ValueError(
                f"invalid certificate: regeneration probability {ratio[j]:.12g} > 1 at step {i} "
                f"(x={xs[i]}, y={ys[i]}); a flag probability cannot exceed 1")
        probs[steps] = np.minimum(ratio, 1.0)
    flags = stream(seed, 1).random(n) < probs
    return Trajectory(states=ext[:n], regen_flags=flags, seed=seed, model_id=model.model_id)


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------


def block_sums(f, members: int, states, starts, ends) -> np.ndarray:
    """Sums of a pointwise ``f`` over the blocks [starts[k], ends[k]) of ``states``.

    ``f`` returns (n,) values, or (members, n) for a class, on n states; the
    result is (blocks,) or (members, blocks).  Blocks are nonempty and in path
    order.  ``f`` is evaluated on consecutive slices of ELEMENT_BUDGET //
    members states, so a run holds one slice and the block sums, not every
    value along the chain; ``f`` must therefore be pointwise.  Each slice is
    prefix-summed in place (a view ``f`` returns is copied first) from the
    running total of the slices before it, which adds in the order of one
    prefix sum from zero over the whole path; a block takes cs[start] as its
    start's slice passes and becomes cs[end] - cs[start] as its end's does.
    Each row gets the bits it would alone.
    """
    starts, ends = np.asarray(starts), np.asarray(ends)
    width = max(1, ELEMENT_BUDGET // max(members, 1))
    out = carry = None
    for lo in range(0, max(len(states), 1), width):   # an empty path is one empty slice
        hi = min(lo + width, len(states))
        vals = np.asarray(f(states[lo:hi]), dtype=float)
        if not vals.flags.owndata:
            vals = vals.copy()
        if out is None:
            # cs[0] = 0.0 is never added to: the sum starts at the first value, keeping a -0.0
            out = np.zeros(vals.shape[:-1] + (len(starts),))
        else:
            vals[..., :1] += carry
        np.cumsum(vals, axis=-1, out=vals)   # vals[..., j] is now cs[lo + j + 1]
        a, b = np.searchsorted(starts, [lo, hi], side="right")
        out[..., a:b] = vals[..., starts[a:b] - lo - 1]
        a, b = np.searchsorted(ends, [lo, hi], side="right")
        np.subtract(vals[..., ends[a:b] - lo - 1], out[..., a:b], out=out[..., a:b])
        carry = vals[..., -1:].copy()
    return out


@dataclass(frozen=True)
class BlockSet:
    """The partition of a flagged path into initial/complete/trailing blocks.

    Complete block k spans ``complete_bounds[k] = (start, end)`` as a Python
    slice of the underlying states.  Concatenating initial + complete +
    trailing recovers the trajectory exactly.
    """

    states: np.ndarray
    initial_bounds: Optional[tuple]
    complete_bounds: np.ndarray
    trailing_bounds: Optional[tuple]
    l_n: int

    @property
    def n_complete(self) -> int:
        return len(self.complete_bounds)

    @property
    def lengths(self) -> np.ndarray:
        return self.complete_bounds[:, 1] - self.complete_bounds[:, 0]

    def block_values(self, f) -> np.ndarray:
        """Per-complete-block sums of a pointwise f over states: the lifted values f'(B_k).

        ``f`` may return (n,) or (m, n), e.g. ``EvaluableClass.evaluate``; its
        values on the first state give m.  See ``block_sums``.  Rows are
        contiguous, so row reductions add as on one function's values.
        """
        members = np.size(f(self.states[:1]))
        return block_sums(f, members, self.states, self.complete_bounds[:, 0],
                          self.complete_bounds[:, 1])

    def to_json(self) -> str:
        payload = {
            "l_n": int(self.l_n),
            "initial": list(map(int, self.initial_bounds)) if self.initial_bounds else None,
            "complete": self.complete_bounds.tolist(),
            "trailing": list(map(int, self.trailing_bounds)) if self.trailing_bounds else None,
        }
        return json.dumps(payload, indent=2)


def extract_blocks(traj: Trajectory) -> BlockSet:
    """Cut a flagged trajectory into blocks.

    A complete block starts right after a flagged step and ends at the next
    flagged step.  With zero flags everything sits in the initial block.
    """
    if traj.regen_flags is None:
        raise ValueError("trajectory carries no regeneration flags")
    flags = np.asarray(traj.regen_flags, dtype=bool)
    pos = np.flatnonzero(flags)
    n = traj.n
    if len(pos) == 0:
        return BlockSet(states=traj.states, initial_bounds=(0, n),
                        complete_bounds=np.zeros((0, 2), dtype=np.int64),
                        trailing_bounds=None, l_n=0)
    starts = pos[:-1] + 1
    ends = pos[1:] + 1
    bounds = np.stack([starts, ends], axis=1).astype(np.int64)
    trailing = None if pos[-1] + 1 >= n else (int(pos[-1] + 1), n)
    return BlockSet(states=traj.states, initial_bounds=(0, int(pos[0] + 1)),
                    complete_bounds=bounds, trailing_bounds=trailing, l_n=int(len(pos)))


def pitman_estimate(blocks: BlockSet, f) -> float:
    """Ratio estimator of the stationary mean of f from complete blocks.

    Returns (sum of per-block sums of f) / (sum of block lengths), the
    occupation-measure estimate of the stationary expectation.
    """
    if blocks.n_complete == 0:
        raise ValueError("no regenerations observed")
    return float(blocks.block_values(f).sum() / blocks.lengths.sum())


def block_bootstrap_se(blocks: BlockSet, f, n_boot: int = 200, seed: int = 0) -> float:
    """Bootstrap standard error of the occupation ratio, resampling whole blocks.

    The resample indices are drawn in row slices of about ELEMENT_BUDGET
    elements from one generator, which yields the same rows as one
    ``n_boot x m`` draw while holding a slice at a time.
    """
    if blocks.n_complete == 0:
        raise ValueError("no regenerations observed")
    sums = blocks.block_values(f)
    lens = blocks.lengths.astype(float)
    m = len(sums)
    rng = stream(seed, 0)
    est = np.empty(n_boot)
    step = max(1, ELEMENT_BUDGET // m)
    for lo in range(0, n_boot, step):
        idx = rng.integers(0, m, size=(min(step, n_boot - lo), m))
        est[lo:lo + len(idx)] = sums[idx].sum(axis=1) / lens[idx].sum(axis=1)
    return float(est.std(ddof=1))


# ---------------------------------------------------------------------------
# Regeneration-time statistics
# ---------------------------------------------------------------------------


# MGF arguments reported by RegenStats.to_json.
LAMBDA_GRID = np.round(np.arange(0.05, 1.01, 0.05), 10)
# Largest share of the MGF sum one block may carry in a reliable estimate.
MGF_MASS_CAP = 0.5


@dataclass
class RegenStats:
    """Empirical moments, MGF profile, and tail diagnostics of block lengths."""

    tau_samples: np.ndarray

    def moment(self, p: float) -> float:
        return float(np.mean(self.tau_samples.astype(float) ** p))

    def mgf(self, lam: float):
        """Empirical E[exp(lam * tau)] and whether it looks finite.

        The estimate is flagged unreliable when a single block carries more
        than ``MGF_MASS_CAP`` of the MGF sum, the signature of an infinite
        theoretical MGF being propped up by one extreme draw, and whenever
        the sum overflows.
        """
        with np.errstate(over="ignore"):
            terms = np.exp(float(lam) * self.tau_samples.astype(float))
        total = terms.sum()
        reliable = bool(np.isfinite(total) and terms.max() <= MGF_MASS_CAP * total)
        return float(total / len(terms)), reliable

    def tail_rate(self):
        """Exponential tail rate from a linear fit of log survival vs k.

        Returns (rate, n_points).  rate ~ -log(1 - delta) for geometric
        blocks; fewer than 3 usable survival points yields (nan, n_points).
        """
        tau = self.tau_samples
        kmax = int(tau.max())
        ks = np.arange(1, kmax)
        if len(ks) == 0:
            return float("nan"), 0
        surv = np.array([(tau > k).mean() for k in ks])
        keep = surv >= max(5.0 / len(tau), 1e-12)
        ks, surv = ks[keep], surv[keep]
        if len(ks) < 3:
            return float("nan"), int(len(ks))
        slope = np.polyfit(ks, np.log(surv), 1)[0]
        return float(-slope), int(len(ks))

    def to_json(self) -> str:
        rate, npts = self.tail_rate()
        payload = {
            "n_blocks": int(len(self.tau_samples)),
            "moments": {str(p): self.moment(p) for p in (1, 2, 3)},
            "mgf": [
                {"lambda": float(lam), "value": v, "reliable": r}
                for lam in LAMBDA_GRID
                for v, r in [self.mgf(lam)]
            ],
            "tail_rate": rate,
            "tail_fit_points": npts,
            "suggested_lambda": 0.5 * rate,
        }
        return strict_json(payload)


def regen_stats(blocks: BlockSet, min_blocks: int) -> RegenStats:
    """Block-length statistics; warns (never fails) below ``min_blocks`` blocks."""
    tau = blocks.lengths
    if len(tau) == 0:
        raise ValueError("no complete blocks")
    if len(tau) < min_blocks:
        warnings.warn(f"only {len(tau)} complete blocks; tail diagnostics are unreliable",
                      stacklevel=2)
    return RegenStats(tau_samples=tau.astype(np.int64))
