"""Shared test utilities."""

import bisect
import json
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.stats import kstwobign

from regenmc.chains import Trajectory
from regenmc.function_classes import (DEDUP_TOL, EXACT_COVER_CAP, BlockMeasure, LiftedClass,
                                      lift_measure, table_class)
from regenmc.kde import QUAD_TOL
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


def smoothed_target_quadrature(kernel, h: float, grid, density, support: tuple) -> np.ndarray:
    """E_pi[K_h(x - Y)] by adaptive quadrature against a 1-d stationary density."""
    lo, hi = support
    out = np.empty(len(grid))
    for i, x in enumerate(np.asarray(grid, dtype=float)):
        a, b = max(lo, x - h), min(hi, x + h)
        if a >= b:
            out[i] = 0.0
            continue
        val, _ = quad(lambda y: float(kernel.k0((x - y) / h)) * density(y), a, b, epsabs=QUAD_TOL)
        out[i] = val / h
    return out


def dense_kde_evaluate(sample, kernel, h: float, x):
    """Reference KDE: the product kernel prod_k k0(u_k) at every (query, sample) pair, in row chunks.

    It takes d-dimensional samples too, which ``kde_evaluate`` refuses.
    """
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
        vals = np.prod(np.asarray(kernel.k0(diff), dtype=float), axis=2)
        out[lo:hi] = vals.mean(axis=1) / h ** d
    return float(out[0]) if scalar_in else out


def reference_wrapped_path(kernel, x0, n, rng):
    """Reference Doeblin sampler path: the wrap taken with ``% 1.0``, and 1.0 taken as 0.0."""
    x0 = float(np.ravel(x0)[0])
    if n == 1:
        return np.array([[x0]])
    m = n - 1
    fresh = rng.random(m) < kernel.delta
    psi = rng.random(m)
    inc = rng.uniform(-kernel.width, kernel.width, m)
    anchor = np.maximum.accumulate(np.where(fresh, np.arange(m), -1))
    csum = np.cumsum(inc)
    safe = np.maximum(anchor, 0)
    start_val = np.where(anchor >= 0, psi[safe], x0)
    start_base = np.where(anchor >= 0, csum[safe], 0.0)
    out = np.empty(n)
    out[0] = x0
    out[1:] = (start_val + csum - start_base) % 1.0
    out[out == 1.0] = 0.0
    return out.reshape(n, 1)


def reference_anchor_path(kernel, x0, n, rng):
    """Reference Doeblin sampler path: each step's last fresh index found with a -1
    sentinel, read through ``np.where``, and the wrap taken with ``v - floor(v)``."""
    x0 = float(np.ravel(x0)[0])
    if n == 1:
        return np.array([[x0]])
    m = n - 1
    fresh = rng.random(m) < kernel.delta
    psi = rng.random(m)
    inc = rng.uniform(-kernel.width, kernel.width, m)
    anchor = np.maximum.accumulate(np.where(fresh, np.arange(m), -1))
    csum = np.cumsum(inc)
    safe = np.maximum(anchor, 0)
    start_val = np.where(anchor >= 0, psi[safe], x0)
    start_base = np.where(anchor >= 0, csum[safe], 0.0)
    out = np.empty(n)
    out[0] = x0
    out[1:] = start_val + csum - start_base
    out[1:] -= np.floor(out[1:])
    out[1:][out[1:] == 1.0] = 0.0
    return out.reshape(n, 1)


def trajectory_from_csv(path):
    """Reference reader of ``Trajectory.to_csv``: header lines, then one row a state."""
    with open(path) as fh:
        fh.readline()
        n, d, seed, model_id = fh.readline().rstrip("\n").split(",", 3)
        n, d, seed = int(n), int(d), int(seed)
        fh.readline()
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    if len(rows) != n:
        raise ValueError(f"expected {n} rows, found {len(rows)}")
    flag_col = [r[-1] for r in rows]
    flags = None if flag_col[0] == "" else np.array([c == "1" for c in flag_col])
    if d == 0:
        states = np.array([int(r[0]) for r in rows], dtype=np.int64)
    else:
        states = np.array([[float(v) for v in r[:d]] for r in rows])
    return Trajectory(states=states, regen_flags=flags, seed=seed, model_id=model_id)


def whole_block_sums(values, starts, ends):
    """Reference block sums: one prefix sum from zero along the last axis of every value,
    differenced at the bounds."""
    vals = np.asarray(values, dtype=float)
    cs = np.concatenate([np.zeros(vals.shape[:-1] + (1,)), np.cumsum(vals, axis=-1)], axis=-1)
    return cs[..., ends] - cs[..., starts]


def member_block_values(blocks, cls):
    """Reference lifted values over a BlockSet: one prefix sum per member, stacked."""
    rows = []
    for f in cls.members:
        cs = np.concatenate([[0.0], np.cumsum(np.asarray(f(blocks.states), dtype=float))])
        rows.append(cs[blocks.complete_bounds[:, 1]] - cs[blocks.complete_bounds[:, 0]])
    return np.vstack(rows)


def lifted_class_values(lifted, measure):
    """Reference lifted values over a BlockMeasure, truncation included."""
    out = whole_block_sums(lifted.base.evaluate(measure.all_states), measure.offsets[:-1],
                           measure.offsets[1:])
    if lifted.trunc is not None:
        out = out * (measure.lengths <= lifted.trunc)
    return out


def child_env() -> dict:
    """This process's environment with the repository's ``src`` first on PYTHONPATH."""
    src = Path(__file__).resolve().parent.parent / "src"
    return {**os.environ, "PYTHONPATH": str(src) + os.pathsep + os.environ.get("PYTHONPATH", "")}


_PEAK_RSS_SCRIPT = """
import sys
from regenmc.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(code, next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


def cli_peak_rss_mb(config, tmp_path):
    """Run ``config`` through the CLI in a child process: (exit code, child peak RSS in MB).

    The child reports the peak RSS of its own address space (VmHWM, in kB).
    Its ru_maxrss would not do: Linux carries the peak of the address space an
    exec replaces, here the test process's, and RUSAGE_CHILDREN keeps the
    largest of every earlier child.
    """
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_SCRIPT, config["experiment"],
                           "--config", str(path), "--out", str(tmp_path / "out")],
                          env=child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    code, peak_kb = map(int, proc.stdout.split()[-2:])
    return code, peak_kb / 1024


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


def byte_keyed_merge(points, weights):
    """Reference merge of weighted vector states: equal rows by exact bytes, first-seen order.

    Rows that differ only in the sign of a zero stay separate atoms.
    """
    seen = {}
    out_pts, out_w = [], []
    for p, w in zip(np.asarray(points), weights):
        key = p.tobytes()
        if key in seen:
            out_w[seen[key]] += w
        else:
            seen[key] = len(out_pts)
            out_pts.append(p)
            out_w.append(w)
    return np.asarray(out_pts), np.asarray(out_w)


def reference_signed_sup_mc(values, n_mc, seed):
    """Reference sign Monte Carlo: each chunk's whole sign matrix drawn and multiplied at once.

    A chunk's c x n signs are its stream's first c * n raw bits, least
    significant bit of each word first, row by row.

    Returns (mean, mc_std_error).
    """
    m, n = values.shape
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk_index = 0
    while done < n_mc:
        c = min(SIGN_CHUNK, n_mc - done)
        words = stream(seed, chunk_index).bit_generator.random_raw(-(-c * n // 64))
        bits = np.unpackbits(words.astype("<u8").view(np.uint8), bitorder="little")[:c * n]
        signs = bits.astype(np.int64).reshape(c, n) * 2 - 1
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


def reference_distance_matrix(values, weights):
    """Reference L2 distances: the whole m x m x n difference array at once."""
    diff = values[:, None, :] - values[None, :, :]
    return np.sqrt(np.einsum("ijk,k->ij", diff * diff, weights))


def _reference_exact_cover(dist, radius):
    keep = []
    for i in range(dist.shape[0]):
        if all(dist[i, j] >= DEDUP_TOL for j in keep):
            keep.append(i)
    d = dist[np.ix_(keep, keep)]
    m = d.shape[0]
    if m > EXACT_COVER_CAP:
        raise ValueError(
            f"exact covering limited to {EXACT_COVER_CAP} distinct members (got {m}); use greedy mode")
    masks = []
    for i in range(m):
        mask = 0
        for j in range(m):
            if d[i, j] <= radius:
                mask |= 1 << j
        masks.append(mask)
    full = (1 << m) - 1
    best = [m + 1] * (full + 1)
    best[0] = 0
    for state in range(full + 1):
        if best[state] > m:
            continue
        nxt = best[state] + 1
        for mask in masks:
            s2 = state | mask
            if nxt < best[s2]:
                best[s2] = nxt
    return best[full]


def _reference_greedy_cover(dist, radius):
    uncovered = np.ones(dist.shape[0], dtype=bool)
    count = 0
    while uncovered.any():
        c = int(np.flatnonzero(uncovered)[0])
        uncovered &= dist[c] > radius
        count += 1
    return count


def reference_covering_number(cls, measure, eps, method="greedy"):
    """Reference covering number: value and distance matrices and the cover rebuilt per eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if isinstance(cls, LiftedClass):
        values = cls.evaluate(measure)
    else:
        values = cls.evaluate(measure.points)
    radius = eps * (1.0 + 1e-12) + 1e-300
    dist = reference_distance_matrix(values, measure.weights)
    if method == "exact":
        return _reference_exact_cover(dist, radius)
    if method == "greedy":
        return _reference_greedy_cover(dist, radius)
    raise ValueError(f"unknown covering method {method!r}")


def reference_covering_check(cls, block_measure, eps, trunc, method):
    """Reference lifted (trunc None) or truncated covering comparison at one eps.

    Returns (lhs, rhs, holds).
    """
    if trunc is None:
        lhs = reference_covering_number(LiftedClass(cls), block_measure,
                                        eps * block_measure.ell_norm(), method)
        rhs = reference_covering_number(cls, lift_measure(block_measure), eps, method)
        return lhs, rhs, lhs <= rhs
    if not np.any(block_measure.lengths <= trunc):
        return 1, None, True
    lhs = reference_covering_number(LiftedClass(cls, trunc=trunc), block_measure,
                                    max(eps * trunc, 1e-300), method)
    rhs = reference_covering_number(cls, lift_measure(block_measure, trunc=trunc), eps, method)
    return lhs, rhs, lhs <= rhs


def reference_lemma_trial(limits, task):
    """Reference verify-lemmas instance: both comparisons rebuilt for every eps."""
    trial, trial_seed = task
    rng = np.random.default_rng(trial_seed)
    n_states = int(rng.integers(2, limits["max_states"] + 1))
    n_members = int(rng.integers(1, limits["max_members"] + 1))
    n_blocks = int(rng.integers(1, limits["max_blocks"] + 1))
    tables = rng.uniform(-1, 1, (n_members, n_states))
    blocks = tuple(rng.integers(0, n_states, int(rng.integers(1, limits["max_len"] + 1)))
                   for _ in range(n_blocks))
    weights = rng.dirichlet(np.ones(n_blocks))
    bm = BlockMeasure(blocks=blocks, weights=weights)
    cls = table_class(tables)
    rows = []
    for eps in limits["eps_grid"]:
        c1 = reference_covering_check(cls, bm, eps, None, "exact")
        trunc = int(rng.integers(1, limits["max_len"] + 1))
        c2 = reference_covering_check(cls, bm, eps, trunc, "exact")
        rows.append((trial, eps, "lift") + c1)
        rows.append((trial, eps, f"trunc{trunc}") + c2)
    return rows


@dataclass(frozen=True)
class CallableMinorization:
    """A certificate as a bag of callables, the shape every built-in chain's
    certificate had before certificates became classes with methods."""

    delta: float
    psi_sample: Callable
    psi_density: Callable
    small_set: Callable


def _all_true(x):
    x = np.asarray(x)
    return np.ones(x.shape[0] if x.ndim > 0 else 1, dtype=bool)


def _uniform01_sample(rng):
    return np.array([rng.random()])


def _uniform01_density(y):
    y = np.ravel(np.asarray(y, dtype=float))
    return ((y >= 0.0) & (y < 1.0)).astype(float)


def callable_certificate_model(model):
    """A built-in chain with the callable-bag certificate and initial law its
    factory used to build; kernel and model_id are kept."""
    kind = model.model_id.split("(")[0]
    delta = model.minorization.delta
    if kind == "wrapped_doeblin":
        cert = CallableMinorization(delta, _uniform01_sample, _uniform01_density, _all_true)
        return replace(model, initial_sample=_uniform01_sample, minorization=cert)
    matrix = model.kernel.matrix
    if kind == "finite_doeblin":
        psi, small_set = model.minorization.psi, _all_true
    else:  # finite_atom and two_state start at the atom, which regenerates on every visit
        atom = model.initial_sample.value
        psi = matrix[atom]

        def small_set(x):
            return np.asarray(x) == atom
    cum = tuple(np.cumsum(psi))

    def psi_sample(rng):
        return bisect.bisect_right(cum, rng.random())

    cert = CallableMinorization(delta, psi_sample, lambda y: psi[np.asarray(y, dtype=int)],
                                small_set)
    start = psi_sample if kind == "finite_doeblin" else model.initial_sample
    return replace(model, initial_sample=start, minorization=cert)
