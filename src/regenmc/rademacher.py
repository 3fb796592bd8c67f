"""Empirical Rademacher complexities and the matching theoretical bounds.

The complexity of a class over data x_1..x_n is the expected supremum over
members of |sum_i eps_i f(x_i)| with i.i.d. random signs eps; the block
variant replaces points by complete regeneration blocks and members by their
block-sum lifts.  Neither quantity is normalized by n here.

The bound calculators evaluate closed-form upper bounds; each takes exactly
the inputs its formula reads, universal multiplicative constants included,
as keyword arguments.  Experiments report the minimal constant that makes
the bound dominate what is measured.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .chains import ChainModel
from .function_classes import EvaluableClass
from .parallel import (ELEMENT_BUDGET, fit_loglog_slope, mean_se, replicate, strict_json,
                       write_csv)
from .regeneration import BlockSet, extract_blocks, simulate_split_retrospective
from .rng import stream

SIGN_CHUNK = 2048
# Fewest sign rows per matmul: with fewer, BLAS switches to kernels whose
# rounding differs, and a row's sums would depend on how the chunk is sliced.
# The floor does not make every slicing bit-identical: with 2-4 members a
# row's sums can still differ from the whole chunk's by rounding.  Only the
# float64 path rounds; the float32 path's sums are exact however they are cut.
SLICE_FLOOR = 8
EXHAUSTIVE_CAP = 20
# Truncation levels L searched by optimize_block_bound.
TRUNC_GRID = 2.0 ** np.arange(0, 31)


@dataclass(frozen=True)
class RademacherEstimate:
    mean: float
    mc_std_error: float
    n_data: int
    mean_sq: np.ndarray     # per member, the mean of its squared values


def _row_slices(total: int, width: int):
    """Consecutive (lo, hi) ranges over ``total`` rows of ``width`` elements.

    Each holds about ELEMENT_BUDGET elements but at least SLICE_FLOOR rows; a
    shorter tail joins the slice before it, so only a total below the floor
    gives a smaller slice.
    """
    step = max(SLICE_FLOOR, ELEMENT_BUDGET // max(width, 1))
    lo = 0
    while lo < total:
        hi = lo + step if total - lo - step >= SLICE_FLOOR else total
        yield lo, hi
        lo = hi


def _exact_in_float32(values: np.ndarray) -> bool:
    """Whether the float32 bit path gives every signed sum of values[f, k] exactly.

    It does when every value is an integer and each row's sum of |v| is at
    most 2^24.  Every partial sum of b_k v_k with 0/1 bits b, in any order or
    blocking, is then an integer of magnitude at most 2^24, which float32
    holds exactly, fused multiply-adds included; so are 2 (b . v), at most
    2^25, and the row sum.  Their difference, the signed sum, is an integer
    of magnitude at most 2^24, so the one subtraction does not round either.
    NaN and inf fail the sum test.
    """
    v = np.asarray(values, dtype=float)
    return bool((np.abs(v).sum(axis=1) <= 2.0 ** 24).all() and np.array_equal(v, np.rint(v)))


def _signed_sups(values: np.ndarray, total: int, sign_rows) -> np.ndarray:
    """max_f |sum_k s_k values[f, k]| for each of ``total`` sign rows.

    ``sign_rows(lo, hi, dtype)`` returns rows lo..hi-1 of the 0/1 bit
    matrix in ``dtype``, a bit b standing for the sign s = 2b - 1; the
    matrix is never built whole.  Values whose sums are exact in float32
    are multiplied as bits, in float32, and each signed sum is formed as
    2 (b . v) - sum_k v_k on the small rows x members product.  Any others
    take float64, where the rounding depends on the operand: their bits are
    turned into +-1 signs in place and multiplied as ``signs @ values.T``.
    """
    exact = _exact_in_float32(values)
    if exact:
        operand = np.ascontiguousarray(values.T, dtype=np.float32)
        row_sums = operand.sum(axis=0)
    sups = np.empty(total)
    for lo, hi in _row_slices(total, values.shape[1]):
        if exact:
            sums = 2 * (sign_rows(lo, hi, np.float32) @ operand) - row_sums
        else:
            signs = sign_rows(lo, hi, np.float64)
            signs *= 2
            signs -= 1
            sums = signs @ values.T
        sups[lo:hi] = np.abs(sums).max(axis=1)
    return sups


def _raw_sign_rows(bitgen: np.random.BitGenerator, n: int):
    """``sign_rows`` for ``_signed_sups`` read off ``bitgen``'s raw 64-bit words.

    Each sign takes one bit of the raw stream, so a word gives 64 signs: the
    j-th sign of the chunk, counted row by row, is bit j % 64 of word j // 64,
    least significant bit first, +1 where it is set and -1 where it is clear.
    The rows hold the bits themselves, 0 or 1, as ``np.unpackbits`` gives
    them.  A slice draws the fewest whole words its signs need; the bits it
    leaves over (at most 63) are kept as ``spare`` and start the next slice,
    so the signs do not depend on how the chunk is sliced.
    """
    spare = np.empty(0, np.uint8)

    def sign_rows(lo: int, hi: int, dtype) -> np.ndarray:
        nonlocal spare
        k = (hi - lo) * n
        c = min(len(spare), k)
        words = bitgen.random_raw(-(-(k - c) // 64)).astype("<u8", copy=False)
        fresh = np.unpackbits(words.view(np.uint8), bitorder="little")
        signs = np.empty(k, dtype)
        signs[:c] = spare[:c]
        signs[c:] = fresh[:k - c]
        spare = np.concatenate((spare[c:], fresh[k - c:]))
        return signs.reshape(hi - lo, n)

    return sign_rows


def _signed_sup_mc(values: np.ndarray, n_mc: int, seed: int) -> RademacherEstimate:
    """Monte Carlo E sup_f |sum_k eps_k values[f, k]| over n_mc sign vectors.

    Sign vectors are drawn in fixed-size chunks from stream(seed, chunk_index),
    so the result is deterministic given (seed, n_mc, chunk size) and invariant
    to how chunks would be distributed across workers.  Within a chunk the
    signs are drawn in row slices from the chunk's stream, one raw bit a sign
    (see ``_raw_sign_rows``); they are the c x n signs that the chunk's first
    c * n raw bits give, however the chunk is sliced.

    Column k of ``values`` is block k (a data point for the plain estimate).
    Non-finite values, and signed sums or squares that overflow, raise
    ValueError naming a member and block: the first non-finite value, else
    the largest in magnitude.
    """
    m, n = values.shape
    if not np.isfinite(values).all():
        raise _overflow(values, "values are not finite")
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk_index = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while done < n_mc:
            c = min(SIGN_CHUNK, n_mc - done)
            sups = _signed_sups(values, c, _raw_sign_rows(stream(seed, chunk_index).bit_generator, n))
            total += sups.sum()
            total_sq += (sups ** 2).sum()
            done += c
            chunk_index += 1
        mean = total / n_mc
        var = max(total_sq / n_mc - mean ** 2, 0.0)
        mean_sq = (values ** 2).mean(axis=1)
    if not (math.isfinite(mean) and math.isfinite(var) and np.isfinite(mean_sq).all()):
        raise _overflow(values, "signed sums or squares overflow")
    return RademacherEstimate(mean=float(mean), mc_std_error=float(np.sqrt(var / n_mc)),
                              n_data=n, mean_sq=mean_sq)


def _overflow(values: np.ndarray, what: str) -> ValueError:
    """The error for ``what``, naming the first non-finite value, else the largest one."""
    size = np.where(np.isfinite(values), np.abs(values), np.inf)
    f, k = np.unravel_index(np.argmax(size), values.shape)
    return ValueError(f"{what}: member {f}, block {k} holds {values[f, k]:.6g}")


def exhaustive_signed_sup(values: np.ndarray) -> float:
    """Exact E sup_f |sum eps_k values[f, k]| over all sign vectors; refuses as _signed_sup_mc."""
    m, n = values.shape
    if n > EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive enumeration limited to {EXHAUSTIVE_CAP} data points")
    if not np.isfinite(values).all():
        raise _overflow(values, "values are not finite")
    bits = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = _signed_sups(values, 2 ** n, lambda lo, hi, dtype: (
            (np.arange(lo, hi)[:, None] >> bits) & 1).astype(dtype)).mean()
    if not math.isfinite(mean):
        raise _overflow(values, "signed sums overflow")
    return float(mean)


def empirical_rademacher_iid(cls: EvaluableClass, sample, n_mc: int, seed: int) -> RademacherEstimate:
    """Monte Carlo Rademacher complexity of the class over a fixed sample."""
    sample = np.asarray(sample)
    if len(sample) == 0:
        raise ValueError("empty sample")
    if n_mc < 100:
        raise ValueError("n_mc must be >= 100")
    return _signed_sup_mc(cls.evaluate(sample), n_mc, seed)


def empirical_block_rademacher(cls: EvaluableClass, blocks: BlockSet, n_mc: int,
                               seed: int) -> RademacherEstimate:
    """Monte Carlo block Rademacher complexity over the complete blocks.

    Signs attach to whole blocks; member values are the block sums f'(B_k),
    differences of prefix sums along the chain.  With all blocks of length
    one these equal the point values when the prefix sums are exact, as for
    integer values such as the half-line counts, and the estimate then
    reproduces the plain estimate on the underlying points bit for bit (same
    sign stream, same arithmetic).  Float values are reproduced only to
    rounding, each within a few ulps of the largest prefix sum.  The
    estimate's ``mean_sq`` holds each member's mean of f'(B)^2 over the
    complete blocks; its maximum is the plug-in for the squared blockwise
    variance proxy, whose square root the bound calculators take as
    ``sigma``.
    """
    if blocks.n_complete == 0:
        raise ValueError("no complete blocks")
    if n_mc < 100:
        raise ValueError("n_mc must be >= 100")
    return _signed_sup_mc(blocks.block_values(cls.evaluate), n_mc, seed)


# ---------------------------------------------------------------------------
# Bound calculators
# ---------------------------------------------------------------------------


_BLOCK_HYPOTHESIS = "0 < sigma' <= L * U"


def _main_term(scale, sigma, c, v, n, hypothesis) -> float:
    """v S log(C S / sigma) + sqrt(v n sigma^2 log(C S / sigma)) at the scale S.

    The VC-type bound for i.i.d. data with envelope S and no constant; valid
    for 0 < sigma <= S, the ``hypothesis`` its error names.
    """
    if not 0 < sigma <= scale:
        raise ValueError(f"hypothesis violated: need {hypothesis}")
    log_term = math.log(c * scale / sigma)
    if log_term <= 0:
        raise ValueError(
            f"log(C U / sigma) = {log_term:.6g} is not positive; the covering scale C is too "
            "small for this (U, sigma)")
    return v * scale * log_term + math.sqrt(v * n * sigma ** 2 * log_term)


def iid_rademacher_bound(*, u, sigma, c, v, n, m_const) -> float:
    """Envelope/variance bound for the plain Rademacher complexity.

    The main term at scale U for the pointwise variance proxy ``sigma``,
    valid for 0 < sigma <= U, times the constant ``m_const``.
    """
    return m_const * _main_term(u, sigma, c, v, n, "0 < sigma <= U")


def block_rademacher_bound_pm(trunc, *, u, sigma, c, v, n, m_const, p, tau_moment_p) -> float:
    """Block complexity bound under a polynomial moment on block lengths.

    The main term at scale L U for the blockwise proxy sigma' (valid for
    0 < sigma' <= L U) plus the remainder n E[tau^p] / L^(p-1).  A level
    where L^(p-1) overflows is infeasible: ValueError.
    """
    try:
        remainder = n * tau_moment_p / trunc ** (p - 1.0)
    except OverflowError:
        raise ValueError(f"L^(p - 1) overflows at L = {trunc!r}, p = {p!r}") from None
    return m_const * _main_term(trunc * u, sigma, c, v, n, _BLOCK_HYPOTHESIS) + remainder


def block_rademacher_bound_em(trunc, *, u, sigma, c, v, n, m_const, lam, c_lambda) -> float:
    """Block complexity bound under an exponential moment on block lengths.

    The main term at scale L U for the blockwise proxy sigma' (valid for
    0 < sigma' <= L U) plus the remainder n U exp(-L lam / 2) C_lambda, with
    C_lambda = 2 E[exp(lam tau)] / lam.
    """
    remainder = n * u * math.exp(-trunc * lam / 2.0) * c_lambda
    return m_const * _main_term(trunc * u, sigma, c, v, n, _BLOCK_HYPOTHESIS) + remainder


def optimize_block_bound(bound):
    """Minimize ``bound(L)`` over ``TRUNC_GRID``; returns (value, L, table).

    Levels at which ``bound`` raises ValueError, such as those violating
    sigma' <= L U, are skipped; with no feasible level a ValueError is raised.
    """
    table = []
    for L in TRUNC_GRID:
        try:
            table.append((float(L), float(bound(float(L)))))
        except ValueError:
            continue
    if not table:
        raise ValueError("no feasible truncation level on the grid (need sigma' <= L U)")
    best_l, best_val = min(table, key=lambda t: t[1])
    return best_val, best_l, table


def expected_supremum_bound(r_nb, *, u, n, sup_mean, tau_sq_mean, initial_tau_mean,
                            tau_mean) -> float:
    """Expected supremum of the centered process from the block complexity.

    4 R_block + 4 sup_f |stationary mean| sqrt(n E[tau^2])
    + 2 U (E_initial[tau] + E_atom[tau]).
    """
    return (4.0 * r_nb + 4.0 * sup_mean * math.sqrt(n * tau_sq_mean)
            + 2.0 * u * (initial_tau_mean + tau_mean))


def excess_probability_bound(t, r_n, *, u, sigma, n, tau_mean, tau_param, k_const) -> float:
    """Tail bound for the supremum exceeding t, given a centering level r_n.

    Defined for t >= 1 + K r_n; the value may exceed one and is reported
    as-is.  ``tau_param`` is the tail parameter and is never inferred.
    """
    k = k_const
    if t < 1.0 + k * r_n:
        raise ValueError(f"t must satisfy t >= 1 + K * r_n = {1.0 + k * r_n:.6g}")
    gap = t - k * r_n
    gauss = gap ** 2 / (n * sigma ** 2)
    linear = gap / (tau_param ** 3 * u * math.log(n))
    return k * math.exp(-(tau_mean / k) * min(gauss, linear))


def high_probability_level(delta, r_n, *, sigma, n, tau_mean, k_const) -> float:
    """The t at which the Gaussian branch of the tail bound equals delta."""
    k = k_const
    return k * r_n + math.sqrt(n * sigma ** 2 * k * math.log(k / delta) / tau_mean)


# ---------------------------------------------------------------------------
# Bound-vs-empirical experiment
# ---------------------------------------------------------------------------


@dataclass
class BoundReport:
    """Per-n empirical block complexities against the computed bound."""

    rows: list          # dicts: n, empirical, mc_err, bound, ratio, trunc_opt
    growth_exponent: float
    growth_exponent_se: float
    m_min: float
    m_const: float
    mode: str

    def to_json(self) -> str:
        return strict_json({
            "mode": self.mode,
            "m_const": self.m_const,
            "m_min": self.m_min,
            "growth_exponent": self.growth_exponent,
            "growth_exponent_se": self.growth_exponent_se,
            "rows": self.rows,
        })

    def to_csv(self, path):
        keys = ("n", "empirical", "mc_err", "bound", "ratio", "trunc_opt")
        write_csv(path, "n,empirical,mc_err,bound,ratio,L_opt,M_min",
                  [[r[k] for k in keys] + [self.m_min] for r in self.rows])


def _bounds_one(model, cls, n_mc, n, task_seed, sign_seed):
    """(estimate, block lengths), or None without complete blocks."""
    blocks = extract_blocks(simulate_split_retrospective(model, n, task_seed))
    if blocks.n_complete == 0:
        return None
    return empirical_block_rademacher(cls, blocks, n_mc, sign_seed), blocks.lengths


def compare_bound_vs_empirical(model: ChainModel, cls: EvaluableClass, n_grid,
                               replications: int, seed: int, *, m_const: float, mode: str,
                               n_mc: int, p: float, lam: Optional[float],
                               jobs: int = 1) -> BoundReport:
    """Measure block complexities on a chain and pit them against the bound.

    For each n: the empirical block complexity (mean over replications,
    each on stream (seed, i, r)), and the bound with plug-in moments from the
    pooled blocks (variance proxy inflated by 3 MC standard errors), minimized
    over the truncation grid; signs come from child_seed(seed, i, r, 1).
    The bound's constant is ``m_const``.  Reports the domination ratio per n,
    the fitted growth exponent of the empirical complexity, and the minimal
    constant M_min that would make the bound dominate everywhere.  jobs > 1
    changes nothing but wall time.
    """
    if mode not in ("pm", "em"):
        raise ValueError(f"mode must be 'pm' or 'em', got {mode!r}")
    if mode == "em" and (lam is None or lam <= 0):
        raise ValueError("mode='em' requires lam > 0")
    rows = []
    emp_means = []
    groups = replicate(partial(_bounds_one, model, cls, n_mc), [int(n) for n in n_grid],
                       replications, seed, jobs, streams=2)
    for n, results in zip(n_grid, groups):
        done = [res for res in results if res is not None]
        if not done:
            raise RuntimeError(f"no complete blocks at n={n}")
        estimates, taus = zip(*done)
        sig_sqs = [e.mean_sq for e in estimates]
        emp = float(np.mean([e.mean for e in estimates]))
        mc_err = float(np.sqrt(np.mean([e.mc_std_error ** 2 for e in estimates]) / len(estimates)))
        tau_all = np.concatenate(taus).astype(float)
        n_blocks = float(np.mean([len(t) for t in taus]))
        sig_sq = np.mean(sig_sqs, axis=0).max()
        _, sig_se = mean_se([s.max() for s in sig_sqs])
        sigma_plug = math.sqrt(sig_sq + 3.0 * sig_se)
        moments = dict(u=cls.envelope, sigma=sigma_plug, c=cls.vc_c, v=cls.vc_v, n=n_blocks)
        if mode == "em":
            with np.errstate(over="ignore"):
                mgf = float(np.mean(np.exp(lam * tau_all)))
            if not math.isfinite(mgf):
                raise ValueError(f"E[exp(lam tau)] overflows at n={n}: lam={lam:g}, "
                                 f"longest block {int(tau_all.max())}")
            bound_at = partial(block_rademacher_bound_em, **moments, m_const=m_const, lam=lam,
                               c_lambda=2.0 * mgf / lam)  # 2 E[exp(lam tau)] / lam
        else:
            bound_at = partial(block_rademacher_bound_pm, **moments, m_const=m_const, p=p,
                               tau_moment_p=float(np.mean(tau_all ** p)))
        bound, trunc_opt, _ = optimize_block_bound(bound_at)
        main_term = _main_term(trunc_opt * cls.envelope, sigma_plug, cls.vc_c, cls.vc_v,
                               n_blocks, _BLOCK_HYPOTHESIS)
        rows.append({"n": float(n), "empirical": emp, "mc_err": mc_err, "bound": bound,
                     "ratio": bound / emp if emp > 0 else float("inf"), "trunc_opt": trunc_opt,
                     "main_term": main_term, "remainder": bound - m_const * main_term})
        emp_means.append(emp)
    slope, slope_se = fit_loglog_slope([r["n"] for r in rows], emp_means)
    m_min = max(max((r["empirical"] - r["remainder"]) / r["main_term"] for r in rows), 0.0)
    return BoundReport(rows=rows, growth_exponent=slope, growth_exponent_se=slope_se,
                       m_min=m_min, m_const=m_const, mode=mode)


# ---------------------------------------------------------------------------
# Centered supremum growth (empirical process over a chain)
# ---------------------------------------------------------------------------


@dataclass
class GrowthReport:
    rows: list  # dicts: n, mean_sup, std_err
    exponent: float
    exponent_se: float

    def to_json(self) -> str:
        return strict_json({"exponent": self.exponent, "exponent_se": self.exponent_se,
                            "rows": self.rows})


def _centered_sup(draw_states, cls, true_means, n, task_seed):
    vals = cls.evaluate(draw_states(n, task_seed))
    return float(np.abs(vals.sum(axis=1) - n * true_means).max())


def supremum_growth_experiment(draw_states, cls: EvaluableClass, true_means,
                               n_grid, replications: int, seed: int) -> GrowthReport:
    """Growth in n of sup over members of |sum_i (f(X_i) - mean_f)|.

    ``draw_states(n, seed)`` must return the chain states; ``true_means`` are
    the stationary means of the members, in order.
    """
    true_means = np.asarray(true_means, dtype=float)
    groups = replicate(partial(_centered_sup, draw_states, cls, true_means),
                       [int(n) for n in n_grid], replications, seed)
    rows = []
    for n, sups in zip(n_grid, groups):
        mean_sup, std_err = mean_se(sups)
        rows.append({"n": float(n), "mean_sup": mean_sup, "std_err": std_err})
    slope, se = fit_loglog_slope([r["n"] for r in rows], [r["mean_sup"] for r in rows])
    return GrowthReport(rows=rows, exponent=slope, exponent_se=se)
