"""Walkthrough: function classes, covering numbers, and the block lift.

Run with: python demos/02_covering_numbers.py
"""

import numpy as np

from regenmc import (
    BlockMeasure,
    EmpiricalMeasure,
    check_lifted_covering_bound,
    check_truncated_covering_bound,
    covering_number,
    covering_numbers,
    halfline_class,
    lift_measure,
    lift_second_moment_gap,
    table_class,
)

rng = np.random.default_rng(0)

# Half-line indicators on a data cloud: the canonical small class.  Covering
# counts stay polynomial in the inverse radius.
points = rng.random(200)[:, None]
cls = halfline_class(np.linspace(0, 1, 41))
measure = EmpiricalMeasure(points=points, weights=np.full(len(points), 1 / len(points)))
for eps in (0.2, 0.4, 0.8):
    print(f"covering count at radius {eps}: "
          f"{covering_number(cls, measure, eps, 'greedy')} (cap 2/eps^2 = {2 / eps**2:.1f})")

# Greedy covers are sandwiched between the exact counts at eps and eps/2.
small = table_class(rng.uniform(-1, 1, (8, 4)))
atoms = EmpiricalMeasure(points=np.arange(4), weights=np.full(4, 0.25))
for eps in (0.3, 0.6):
    g = covering_number(small, atoms, eps, "greedy")
    lo = covering_number(small, atoms, eps, "exact")
    hi = covering_number(small, atoms, eps / 2, "exact")
    print(f"radius {eps}: exact {lo} <= greedy {g} <= exact-at-half {hi}")

# ---------------------------------------------------------------------------
# Lifting a class to blocks
# ---------------------------------------------------------------------------
# f'(B) sums f over a block.  The induced state measure weighs every point of
# a block by weight(B) * length(B); covering the lifted class at radius
# eps * ||length|| never needs more balls than covering the base class.

blocks = tuple(rng.integers(0, 4, rng.integers(1, 5)) for _ in range(5))
bm = BlockMeasure(blocks=blocks, weights=np.full(5, 0.2))
print("\nblock lengths:", [len(b) for b in blocks])
q = lift_measure(bm)
print("lifted state measure:", dict(zip(q.points.tolist(), np.round(q.weights, 4))))

check = check_lifted_covering_bound(small, bm, eps=0.4)
print(f"lifted covering comparison: {check.lhs} <= {check.rhs} -> {check.holds}")

check_t = check_truncated_covering_bound(small, bm, eps=0.4, trunc=2)
print(f"truncated (length <= 2) comparison: {check_t.lhs} <= {check_t.rhs} -> {check_t.holds}")

# The convexity step behind the comparison, checkable directly:
print("second-moment gap (nonpositive):", lift_second_moment_gap(small, bm))

# One distance matrix serves a whole radius grid.
print("\ncovering counts over radii [0.3, 0.6, 1.2]:",
      covering_numbers(small, atoms, [0.3, 0.6, 1.2], "greedy"))
