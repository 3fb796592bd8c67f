"""Finite evaluable function classes, covering numbers, and block lifting.

A class here is a finite list of vectorized callables with an envelope bound
and a polynomial covering characteristic (C, v).  Parameterized families
(kernel translates, half-line indicators) are discretized on explicit grids.
Lifting a class to blocks replaces each member f by f'(B) = sum of f over the
states of B; the induced measure on states weighs each point of a block by
the block weight times the block length.
"""

import bisect
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .parallel import ELEMENT_BUDGET
from .regeneration import block_sums

EXACT_COVER_CAP = 16
DEDUP_TOL = 1e-12


# ---------------------------------------------------------------------------
# Classes and measures
# ---------------------------------------------------------------------------


def _admissible_scale(vc_v) -> float:
    """The generic floor (3 sqrt(e))^v of the covering scale C."""
    try:
        return (3.0 * math.sqrt(math.e)) ** vc_v
    except OverflowError:
        raise ValueError(f"covering exponent vc_v is too large, got {vc_v!r}") from None


@dataclass(frozen=True)
class EvaluableClass:
    """A finite class of vectorized functions with envelope and (C, v)."""

    members: tuple
    envelope: float
    vc_c: float
    vc_v: float

    def __post_init__(self):
        if len(self.members) == 0:
            raise ValueError("class must have at least one member")
        if not self.envelope > 0:
            raise ValueError(f"envelope must be positive, got {self.envelope!r}")
        if not self.vc_v >= 1:
            raise ValueError(f"covering exponent vc_v must be >= 1, got {self.vc_v!r}")
        if not self.vc_c > 0:
            raise ValueError(f"covering scale vc_C must be positive, got {self.vc_c!r}")
        admissible = _admissible_scale(self.vc_v)
        if self.vc_c < admissible:
            warnings.warn(
                f"covering scale C={self.vc_c:g} is below the admissible floor "
                f"(3 sqrt(e))^v = {admissible:g}; bound formulas may degenerate",
                stacklevel=2)

    @property
    def size(self) -> int:
        return len(self.members)

    def evaluate(self, points) -> np.ndarray:
        """Member-by-point value matrix, shape (size, n_points).

        A value that is not finite or exceeds the envelope (by more than 1e-9)
        raises, naming the member and the point.
        """
        vals = np.empty((self.size, len(points)))
        for i, f in enumerate(self.members):
            vals[i] = f(points)
        bound = self.envelope + 1e-9
        # NaN fails both comparisons
        if vals.size and not (vals.max() <= bound and vals.min() >= -bound):
            i, j = np.argwhere(~(np.abs(vals) <= bound))[0]
            raise ValueError(f"member {i} takes {float(vals[i, j])!r} at point "
                             f"{np.asarray(points)[j].tolist()!r}, outside the declared "
                             f"envelope {self.envelope!r}")
        return vals


@dataclass(frozen=True)
class LiftedClass:
    """The block-sum lift of a class, optionally truncated at block length L."""

    base: EvaluableClass
    trunc: Optional[float] = None

    def evaluate(self, measure: "BlockMeasure") -> np.ndarray:
        # column-major, the layout the covering reductions have always added in
        out = np.asfortranarray(block_sums(self.base.evaluate, self.base.size,
                                           measure.all_states, measure.offsets[:-1],
                                           measure.offsets[1:]))
        if self.trunc is not None:
            out = out * (measure.lengths <= self.trunc)
        return out


def _probability_weights(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError(f"weights must be finite, got {float(w[~np.isfinite(w)][0])!r}")
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
        raise ValueError("weights must be nonnegative and sum to 1 within 1e-12")
    return w


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted atoms on the state space; weights sum to one."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _probability_weights(self.weights))


@dataclass(frozen=True)
class BlockMeasure:
    """Weighted atoms on the space of blocks (finite state sequences)."""

    blocks: tuple
    weights: np.ndarray

    def __post_init__(self):
        if len(self.weights) != len(self.blocks):
            raise ValueError("one weight per block required")
        object.__setattr__(self, "weights", _probability_weights(self.weights))
        lengths = np.array([len(b) for b in self.blocks], dtype=np.int64)
        if np.any(lengths == 0):
            raise ValueError("blocks must be nonempty")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "offsets", np.concatenate([[0], np.cumsum(lengths)]))
        object.__setattr__(self, "all_states", np.concatenate([np.asarray(b) for b in self.blocks]))

    def ell_norm(self) -> float:
        """L2 norm of the block-length function under this measure."""
        return float(np.sqrt(np.sum(self.weights * self.lengths.astype(float) ** 2)))


# ---------------------------------------------------------------------------
# Covering numbers
# ---------------------------------------------------------------------------


def _value_matrix(cls, measure):
    if isinstance(cls, LiftedClass):
        if not isinstance(measure, BlockMeasure):
            raise TypeError("a lifted class must be covered under a block measure")
        return cls.evaluate(measure), measure.weights
    if not isinstance(measure, EmpiricalMeasure):
        raise TypeError("a state-space class must be covered under an empirical measure")
    return cls.evaluate(measure.points), measure.weights


def _distance_matrix(values, weights):
    """L2(weights) distances between the rows of ``values``.

    The member differences are formed in row slices of at most
    ``ELEMENT_BUDGET`` elements, or of one row when a row alone is larger.
    Each slice keeps every column: einsum's sum over a slice then adds in the
    same order as over the whole m x m x n array.
    """
    m, n = values.shape
    rows = max(ELEMENT_BUDGET // (m * n), 1)
    sq = np.empty((m, m))
    for lo in range(0, m, rows):
        diff = values[lo:lo + rows, None, :] - values[None, :, :]
        sq[lo:lo + rows] = np.einsum("ijk,k->ij", diff * diff, weights)
    return np.sqrt(sq)


def _dedup(rows) -> list:
    """Indices of the members kept: each is at least DEDUP_TOL from every earlier one kept."""
    keep = []
    for i, row in enumerate(rows):
        if all(row[j] >= DEDUP_TOL for j in keep):
            keep.append(i)
    return keep


def _greedy_cover(dist, radius) -> int:
    m = dist.shape[0]
    uncovered = np.ones(m, dtype=bool)
    count = 0
    while uncovered.any():
        c = int(np.flatnonzero(uncovered)[0])
        uncovered &= dist[c] > radius
        count += 1
    return count


def _exact_cover(masks) -> int:
    """Fewest balls covering all members; bit j of ``masks[i]`` is set if ball i holds member j."""
    m = len(masks)
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


def _check_covering_args(eps_grid, method):
    if not all(eps > 0 for eps in eps_grid):
        raise ValueError("eps must be positive")
    if method not in ("greedy", "exact"):
        raise ValueError(f"unknown covering method {method!r}")


class _CoverCounter:
    """Sizes of eps-covers of the rows of one value matrix in L2(weights), at any eps.

    It keeps only distances: in greedy mode the m x m matrix, in exact mode
    the rows of the deduplicated members, their sorted distinct distances and
    each cover solved so far.
    """

    def __init__(self, values, weights, method: str):
        dist = _distance_matrix(values, weights)
        self.method = method
        if method == "greedy":
            self.dist = dist
            return
        rows = dist.tolist()
        keep = _dedup(rows)
        if len(keep) > EXACT_COVER_CAP:
            raise ValueError(f"exact covering limited to {EXACT_COVER_CAP} distinct members "
                             f"(got {len(keep)}); use greedy mode")
        self.rows = [[rows[i][j] for j in keep] for i in keep]
        self.levels = sorted({d for row in self.rows for d in row})
        # a ball of radius r about member i holds every member once r >= max_j d_ij
        self.one_ball = min(max(row) for row in self.rows)
        self.solved = {}

    def counts(self, eps_grid) -> list:
        # covering a ball of radius r allows ties at the boundary
        radii = [eps * (1.0 + 1e-12) + 1e-300 for eps in eps_grid]
        if self.method == "greedy":
            return [_greedy_cover(self.dist, radius) for radius in radii]
        # Which members each ball holds changes only where the radius passes a
        # pairwise distance, so the cover is solved once per number of distinct
        # distances within the radius.
        counts = []
        for radius in radii:
            level = bisect.bisect_right(self.levels, radius)
            if level not in self.solved:
                self.solved[level] = self._exact(radius)
            counts.append(self.solved[level])
        return counts

    def _exact(self, radius) -> int:
        if radius >= self.one_ball:
            return 1
        if radius < self.levels[1]:   # the least distance between two members
            return len(self.rows)
        return _exact_cover([sum(1 << j for j, d in enumerate(row) if d <= radius)
                             for row in self.rows])


def covering_numbers(cls, measure, eps_grid, method: str) -> list:
    """Sizes of eps-covers of the class in L2(measure), centers at members, per eps.

    ``greedy`` picks the first uncovered member as each new center, yielding a
    value G with exactN(eps) <= G <= exactN(eps/2).  ``exact`` solves minimum
    set cover over deduplicated members (class size <= 16); radii that hold the
    same pairwise distances share one solve.  One distance matrix serves the
    whole grid.
    """
    _check_covering_args(eps_grid, method)
    return _CoverCounter(*_value_matrix(cls, measure), method).counts(eps_grid)


def covering_number(cls, measure, eps: float, method: str = "greedy") -> int:
    """Size of an eps-cover of the class in L2(measure); see ``covering_numbers``."""
    return covering_numbers(cls, measure, [eps], method)[0]


# ---------------------------------------------------------------------------
# Lifted measures and the covering comparison checks
# ---------------------------------------------------------------------------


def _merge_atoms(points, weights):
    """Distinct states (rows, for vector states) in sorted order, with their summed weights.

    np.add.at adds the weights of equal atoms in index order.  Equality is by
    value, so -0.0 and 0.0 are one atom.
    """
    uniq, inv = np.unique(np.asarray(points), axis=0, return_inverse=True)
    agg = np.zeros(len(uniq))
    np.add.at(agg, inv, weights)
    return uniq, agg


def lift_measure(block_measure: BlockMeasure, trunc: Optional[float] = None) -> EmpiricalMeasure:
    """Project a block measure down to states.

    Each occurrence of a state y in block B contributes weight(B) * length(B);
    the total normalizes to one.  With ``trunc`` set, only blocks of length
    <= trunc contribute (the measure matched by the truncated lift).
    """
    lengths, w = block_measure.lengths, block_measure.weights
    live = w != 0
    if trunc is not None:
        kept = lengths <= trunc
        if not np.any(kept):
            raise ValueError("no blocks survive the truncation")
        live &= kept
    if not np.any(live):
        raise ValueError("lifted measure has zero mass")
    points = block_measure.all_states[np.repeat(live, lengths)]
    weights = np.repeat((w * lengths)[live], lengths[live])
    merged_p, merged_w = _merge_atoms(points, weights)
    return EmpiricalMeasure(points=merged_p, weights=merged_w / merged_w.sum())


@dataclass(frozen=True)
class CoveringCheck:
    holds: bool
    lhs: int
    rhs: Optional[int]


def covering_checks(cls: EvaluableClass, block_measure: BlockMeasure, eps_grid, truncs,
                    method: str) -> list:
    """Covering comparisons of the lift or a truncated lift, one per (eps, trunc) pair.

    ``truncs`` holds one truncation level per eps: None for the plain lift f',
    L for the truncated lift f' 1{length <= L}.  The left side covers that
    lift under the block measure at radius eps * ||ell||, or eps * L when
    truncated; the right side covers the base class under the lifted state
    measure of the surviving blocks at radius eps.

    Pairs whose levels keep the same blocks share their lift values and
    lifted measure, so each such set of blocks is covered in one pass per
    side; in exact mode the radii of a pass, lift and truncations alike, share
    each cover they solve.  Greedy mode upper-bounds the left side, so
    ``holds`` False is conclusive only in exact mode.  If truncation kills every block the left
    class is {0} and the bound holds trivially (lhs 1, rhs None).
    """
    if len(truncs) != len(eps_grid):
        raise ValueError(f"one trunc per eps required, got {len(truncs)} for {len(eps_grid)}")
    _check_covering_args(eps_grid, method)
    lengths = block_measure.lengths
    ell = block_measure.ell_norm()
    # L keeps the blocks of length <= L, so two levels keep the same blocks
    # exactly when they keep as many; None keeps them all.
    kept = {t: len(lengths) if t is None else int(np.count_nonzero(lengths <= t))
            for t in dict.fromkeys(truncs)}
    groups = {}
    for i, t in enumerate(truncs):
        groups.setdefault(kept[t], []).append(i)
    checks = [None] * len(truncs)
    for n_kept, pairs in groups.items():
        if n_kept == 0:
            for i in pairs:
                checks[i] = CoveringCheck(holds=True, lhs=1, rhs=None)
            continue
        # a level that keeps every block leaves the lift's values as they are
        trunc = None if n_kept == len(lengths) else truncs[pairs[0]]
        lhs = _CoverCounter(LiftedClass(cls, trunc).evaluate(block_measure),
                            block_measure.weights, method).counts(
            [eps_grid[i] * ell if truncs[i] is None else max(eps_grid[i] * truncs[i], 1e-300)
             for i in pairs])
        q = lift_measure(block_measure, trunc=trunc)
        rhs = _CoverCounter(cls.evaluate(q.points), q.weights, method).counts(
            [eps_grid[i] for i in pairs])
        for i, left, right in zip(pairs, lhs, rhs):
            checks[i] = CoveringCheck(holds=left <= right, lhs=left, rhs=right)
    return checks


def check_lifted_covering_bound(cls: EvaluableClass, block_measure: BlockMeasure,
                                eps: float, method: str = "exact") -> CoveringCheck:
    """Compare covers of the lifted class against covers of the base class.

    Checks that an (eps * ||ell||)-cover of the lifted class under the block
    measure never needs more balls than an eps-cover of the base class under
    the lifted state measure; see ``covering_checks``.
    """
    return covering_checks(cls, block_measure, [eps], [None], method)[0]


def check_truncated_covering_bound(cls: EvaluableClass, block_measure: BlockMeasure,
                                   eps: float, trunc: float,
                                   method: str = "exact") -> CoveringCheck:
    """Same comparison for the truncated lift f' 1{length <= trunc}.

    The left radius is eps * trunc; see ``covering_checks``.
    """
    return covering_checks(cls, block_measure, [eps], [trunc], method)[0]


def lift_second_moment_gap(cls: EvaluableClass, block_measure: BlockMeasure) -> float:
    """Max over members of Q'(f'^2) - Q(f^2) * Q'(ell^2); nonpositive by convexity."""
    lifted_vals = LiftedClass(cls).evaluate(block_measure)
    lhs = np.sum(lifted_vals ** 2 * block_measure.weights, axis=1)
    q = lift_measure(block_measure)
    base_vals = cls.evaluate(q.points)
    rhs = np.sum(base_vals ** 2 * q.weights, axis=1) * block_measure.ell_norm() ** 2
    return float(np.max(lhs - rhs))


# ---------------------------------------------------------------------------
# Built-in classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableFunction:
    """Lookup-table function on integer labels."""

    table: np.ndarray

    def __call__(self, labels):
        return self.table[np.asarray(labels, dtype=int)]


@dataclass(frozen=True)
class HalfLineIndicator:
    """x -> 1{x <= threshold} on coordinate 0."""

    threshold: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        vals = x if x.ndim == 1 else x[:, 0]
        return (vals <= self.threshold).astype(float)


@dataclass(frozen=True)
class KernelTranslate:
    """y -> K((center - y) / h) for a compactly supported base kernel."""

    kernel: object
    center: float
    h: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        vals = x if x.ndim == 1 else x[:, 0]
        return self.kernel.k0((self.center - vals) / self.h)


def table_class(tables, vc_c=None, vc_v=2.0) -> EvaluableClass:
    """Class of lookup-table functions on a finite label space, one per row of ``tables``."""
    widths = [np.size(row) for row in tables]
    if len(set(widths)) > 1:
        raise ValueError(f"tables rows must have equal lengths, got {widths}")
    tables = np.asarray(tables, dtype=float)
    if tables.ndim != 2:
        raise ValueError(f"tables must be a list of rows, got shape {tables.shape}")
    envelope = float(np.max(np.abs(tables)))
    envelope = envelope if envelope > 0 else 1.0
    if vc_c is None:
        vc_c = _admissible_scale(vc_v)
    members = tuple(TableFunction(t) for t in tables)
    return EvaluableClass(members=members, envelope=envelope, vc_c=vc_c, vc_v=vc_v)


def halfline_class(thresholds) -> EvaluableClass:
    """Half-line indicators 1{x_0 <= t} on a threshold grid; characteristic (2, 2).

    The (2, 2) characteristic is the sharp covering bound for this family and
    deliberately sits below the generic admissibility floor.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    if thresholds.ndim != 1:
        raise ValueError(f"thresholds must be a list of numbers, got shape {thresholds.shape}")
    members = tuple(HalfLineIndicator(float(t)) for t in thresholds)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return EvaluableClass(members=members, envelope=1.0, vc_c=2.0, vc_v=2.0)


def kernel_class(kernel, h: float, centers, vc_c=None, vc_v: float = 2.0) -> EvaluableClass:
    """Kernel translates y -> K((x - y)/h) of coordinate 0 over a center grid.

    The characteristic (C, v) of a kernel-translate family is not derivable
    from the data; it is configuration, defaulting to the admissibility floor
    at v = 2.
    """
    if not h > 0:
        raise ValueError(f"bandwidth h must be positive, got {h!r}")
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 1:
        raise ValueError(f"centers must be a list of numbers, got shape {centers.shape}")
    if vc_c is None:
        vc_c = _admissible_scale(vc_v)
    members = tuple(KernelTranslate(kernel, float(c), h) for c in centers)
    return EvaluableClass(members=members, envelope=kernel.k0_sup, vc_c=vc_c, vc_v=vc_v)
