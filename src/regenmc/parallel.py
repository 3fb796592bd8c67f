"""Replication-level parallelism and the summaries every rate experiment shares.

Each work item carries its own derived seed, so results are independent of
scheduling; the collector preserves item order, keeping outputs byte-stable
for any worker count.  ``ELEMENT_BUDGET`` caps the dense temporaries the
experiments build inside one work item.
"""

import json
import math
from functools import partial

import numpy as np

from .rng import child_seed

# Max elements of one dense temporary: a KDE (query x sample) buffer or piece
# of one query's window, one slice of sign rows in the Rademacher estimates or
# of bootstrap resample indices, or one slice of MH steps converted to Python
# floats.
ELEMENT_BUDGET = 2 ** 18


def pool_map(fn, items, jobs: int = 1):
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    # imported here: it loads multiprocessing, which a serial run never needs
    from concurrent.futures import ProcessPoolExecutor
    # the executor forks every worker at its first submit, so fork no more than there is work
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as ex:
        return list(ex.map(fn, items))


def replication_seeds(seed: int, n_points: int, replications: int) -> list:
    """child_seed(seed, i, r) for grid point i and replication r, as ``[i][r]``."""
    return [[child_seed(seed, i, r) for r in range(replications)] for i in range(n_points)]


def _replication(fn, task):
    x, seeds = task
    try:
        return fn(x, *seeds)
    except Exception as exc:
        raise RuntimeError(f"replication with seed {seeds[0]} (n={x}) failed: {exc}") from exc


def replicate(fn, grid, replications: int, seed: int, jobs: int = 1, streams: int = 1) -> list:
    """``fn(x_i, *seeds)`` for replication r at grid point x_i, grouped per point.

    ``seeds`` are child_seed(seed, i, r), then child_seed(seed, i, r, k) for
    0 < k < ``streams``.  A worker exception is re-raised naming seed and x_i.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    grid = list(grid)
    seeds = replication_seeds(seed, len(grid), replications)
    tasks = [(x, (s,) + tuple(child_seed(seed, i, r, k) for k in range(1, streams)))
             for i, x in enumerate(grid) for r, s in enumerate(seeds[i])]
    results = pool_map(partial(_replication, fn), tasks, jobs)
    return [results[i * replications:(i + 1) * replications] for i in range(len(grid))]


def mean_se(values):
    """Mean and standard error of the mean; the error is 0.0 for a single value."""
    se = float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return float(np.mean(values)), se


def fit_loglog_slope(xs, ys):
    """OLS slope and its standard error for log(y) against log(x)."""
    lx, ly = np.log(np.asarray(xs, dtype=float)), np.log(np.asarray(ys, dtype=float))
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    dof = len(lx) - 2
    if dof > 0 and len(res):
        s2 = res[0] / dof
        se = float(np.sqrt(s2 / np.sum((lx - lx.mean()) ** 2)))
    else:
        se = float("nan")
    return float(coef[0]), se


def write_csv(path, header: str, rows):
    """CSV with every value written as format(v, ".17g")."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def strict_json(payload) -> str:
    """Indented JSON with NaN and infinities as null; finite floats round-trip exactly."""
    nulled = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    return json.dumps(nulled, indent=2, allow_nan=False)
