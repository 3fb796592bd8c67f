"""Shared test utilities."""

import json

import numpy as np
from scipy.stats import kstwobign

from regenmc.rademacher import SIGN_CHUNK
from regenmc.rng import stream


def discrete_ks_pvalue(samples, cdf) -> float:
    """One-sample KS test against a discrete integer-valued CDF.

    The statistic is the sup over atoms of |ECDF - CDF| (both jump at the
    same integers), with an asymptotic Kolmogorov p-value, which is
    conservative for discrete laws.
    """
    samples = np.sort(np.asarray(samples))
    n = len(samples)
    ks = np.arange(1, samples.max() + 1)
    ecdf = np.searchsorted(samples, ks, side="right") / n
    d = float(np.max(np.abs(ecdf - cdf(ks))))
    return float(kstwobign.sf(d * np.sqrt(n)))


def batch_means_se(x, n_batches: int = 100) -> float:
    """Standard error of the mean of a correlated series via batch means."""
    x = np.asarray(x, dtype=float)
    m = len(x) // n_batches
    means = x[: m * n_batches].reshape(n_batches, m).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(n_batches))


def dense_kde_evaluate(sample, kernel, h: float, x):
    """Reference KDE: the kernel at every (query, sample) pair, in row chunks."""
    s = np.asarray(sample, dtype=float)
    if s.ndim == 1:
        s = s[:, None]
    n, d = s.shape
    xq = np.asarray(x, dtype=float)
    if xq.ndim == 0:
        q, scalar_in = xq.reshape(1, 1), True
    elif xq.ndim == 1:
        q, scalar_in = (xq[:, None], False) if d == 1 else (xq[None, :], True)
    else:
        q, scalar_in = xq, False
    out = np.empty(len(q))
    step = max(4_000_000 // max(n, 1), 1)
    for lo in range(0, len(q), step):
        hi = min(lo + step, len(q))
        diff = (q[lo:hi, None, :] - s[None, :, :]) / h
        vals = kernel.evaluate(diff.reshape(-1, d)).reshape(hi - lo, n)
        out[lo:hi] = vals.mean(axis=1) / h ** d
    return float(out[0]) if scalar_in else out


def member_block_values(blocks, cls):
    """Reference lifted values over a BlockSet: one prefix sum per member, stacked."""
    rows = []
    for f in cls.members:
        cs = np.concatenate([[0.0], np.cumsum(np.asarray(f(blocks.states), dtype=float))])
        rows.append(cs[blocks.complete_bounds[:, 1]] - cs[blocks.complete_bounds[:, 0]])
    return np.vstack(rows)


def lifted_class_values(lifted, measure):
    """Reference lifted values over a BlockMeasure, truncation included."""
    vals = lifted.base.evaluate(measure.all_states)
    cs = np.concatenate([np.zeros((vals.shape[0], 1)), np.cumsum(vals, axis=1)], axis=1)
    out = cs[:, measure.offsets[1:]] - cs[:, measure.offsets[:-1]]
    if lifted.trunc is not None:
        out = out * (measure.lengths <= lifted.trunc)
    return out


def strict_loads(text):
    """json.loads that rejects NaN and infinities."""
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def reference_run_mh(target, proposal, n, seed, x0=None):
    """Reference plain MH path: the per-step loop of n states from the centroid or x0."""
    rng = stream(seed, 0)
    x = np.asarray(x0, dtype=float).copy() if x0 is not None else target.support.centroid()
    incs = proposal.sample_increments(rng, n)
    u_acc = rng.random(n)
    states = np.empty((n, target.dim))
    px = target.pdf_point(x)
    for i in range(n):
        states[i] = x
        if i == n - 1:
            break
        y = x + incs[i]
        py = target.pdf_point(y)
        if px == 0.0 or py >= px or u_acc[i] * px < py:
            x, px = y, py
    return states


def reference_mh_regen_path(target, proposal, cert, n, seed, x0=None):
    """Reference path of the regeneration sampler: a Psi draw (or x0), then n MH moves."""
    rng = stream(seed, 0)
    x = np.asarray(x0, dtype=float).copy() if x0 is not None else cert.psi_sample(rng)
    incs = proposal.sample_increments(rng, n)
    u_acc = rng.random(n)
    states = np.empty((n, target.dim))
    px = target.pdf_point(x)
    for i in range(n):
        states[i] = x
        y = x + incs[i]
        py = target.pdf_point(y)
        if px == 0.0 or py >= px or u_acc[i] * px < py:
            x, px = y, py
    return states


def reference_lift_measure(block_measure, trunc=None):
    """Reference lift of a block measure to states: the per-block loop and stable-sort merge.

    When every surviving block has weight 0 it has nothing to concatenate and raises
    numpy's error.  States are 1-d.
    """
    keep = np.ones(len(block_measure.blocks), dtype=bool)
    if trunc is not None:
        keep = block_measure.lengths <= trunc
    if not np.any(keep):
        raise ValueError("no blocks survive the truncation")
    pts, wts = [], []
    for b, w, ell, k in zip(block_measure.blocks, block_measure.weights,
                            block_measure.lengths, keep):
        if not k or w == 0:
            continue
        arr = np.asarray(b)
        pts.append(arr)
        wts.append(np.full(len(arr), w * float(ell)))
    points = np.concatenate(pts)
    weights = np.concatenate(wts)
    order = np.argsort(points, kind="stable")
    uniq, inv = np.unique(points[order], return_inverse=True)
    agg = np.zeros(len(uniq))
    np.add.at(agg, inv, weights[order])
    return uniq, agg / agg.sum()


def reference_signed_sup_mc(values, n_mc, seed):
    """Reference sign Monte Carlo: each chunk's whole sign matrix drawn and multiplied at once.

    Returns (mean, mc_std_error).
    """
    m, n = values.shape
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk_index = 0
    while done < n_mc:
        c = min(SIGN_CHUNK, n_mc - done)
        rng = stream(seed, chunk_index)
        signs = rng.integers(0, 2, size=(c, n)) * 2 - 1
        sups = np.abs(signs @ values.T).max(axis=1)
        total += sups.sum()
        total_sq += (sups ** 2).sum()
        done += c
        chunk_index += 1
    mean = total / n_mc
    var = max(total_sq / n_mc - mean ** 2, 0.0)
    return float(mean), float(np.sqrt(var / n_mc))


def reference_exhaustive_signed_sup(values):
    """Reference exact enumeration: all 2^n sign rows built and multiplied at once."""
    m, n = values.shape
    signs = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1) * 2 - 1
    return float(np.abs(signs @ values.T).max(axis=1).mean())


def reference_block_bootstrap_se(blocks, f, n_boot, seed):
    """Reference block bootstrap: all n_boot x m resample indices drawn at once."""
    sums = blocks.block_values(f)
    lens = blocks.lengths.astype(float)
    idx = stream(seed, 0).integers(0, len(sums), size=(n_boot, len(sums)))
    est = sums[idx].sum(axis=1) / lens[idx].sum(axis=1)
    return float(est.std(ddof=1))
