"""Walkthrough: measuring block complexities and pitting them against bounds.

Run with: python demos/03_block_rademacher_bounds.py
"""

import math
from functools import partial

import numpy as np

from regenmc import (
    block_rademacher_bound_em,
    compare_bound_vs_empirical,
    empirical_block_rademacher,
    empirical_rademacher_iid,
    exhaustive_signed_sup,
    extract_blocks,
    halfline_class,
    iid_rademacher_bound,
    optimize_block_bound,
    simulate_split_retrospective,
    wrapped_doeblin_chain,
)

rng = np.random.default_rng(1)

# The complexity of a class over data: expected sup over members of the
# absolute signed sum.  Monte Carlo with a seeded sign stream, or exhaustive
# enumeration when the data is small.
model = wrapped_doeblin_chain(delta=0.5, width=0.25)
traj = simulate_split_retrospective(model, 4096, seed=2)
blocks = extract_blocks(traj)
cls = halfline_class(np.linspace(0.05, 0.95, 10))

iid = empirical_rademacher_iid(cls, traj.states, n_mc=4000, seed=3)
blk = empirical_block_rademacher(cls, blocks, n_mc=4000, seed=4)
print(f"pointwise complexity: {iid.mean:.2f} +- {iid.mc_std_error:.2f}")
print(f"block complexity over {blocks.n_complete} blocks: "
      f"{blk.mean:.2f} +- {blk.mc_std_error:.2f}")

# Exhaustive oracle on a toy: blocks of lengths (1, 2) under a constant
# member give E|e1 + 2 e2| = 2 exactly.
print("toy enumeration:", exhaustive_signed_sup(np.array([[1.0, 2.0]])))

# ---------------------------------------------------------------------------
# Bound formulas
# ---------------------------------------------------------------------------
# The pointwise bound needs the envelope, a variance proxy, the covering
# characteristic (C, v), and a universal constant, always passed explicitly.
print("\npointwise bound:",
      iid_rademacher_bound(u=1.0, sigma=0.5, c=25.0, v=2.0, n=4096.0, m_const=1.0))

# The block bound truncates at a block length L and pays a remainder for the
# truncated tail; a grid optimizer picks L for the bound as a function of L.
# Its variance proxy sigma'^2 is the largest member mean of f'(B)^2, which
# the block estimate carries as mean_sq.
sig = math.sqrt(blk.mean_sq.max())
taus = blocks.lengths.astype(float)
lam = 0.15
em_bound = partial(block_rademacher_bound_em, u=1.0, sigma=sig, c=25.0, v=2.0,
                   n=float(blocks.n_complete), m_const=1.0, lam=lam,
                   c_lambda=2 * np.exp(lam * taus).mean() / lam)
best, best_l, _ = optimize_block_bound(em_bound)
print(f"block bound minimized over L: {best:.1f} at L = {best_l:g} "
      f"(empirical {blk.mean:.1f})")

# The full experiment sweeps n, fits the growth exponent (CLT predicts 1/2),
# and reports the smallest universal constant that keeps the bound on top.
report = compare_bound_vs_empirical(model, cls, [2**k for k in range(8, 13)],
                                    replications=3, seed=5, n_mc=1000, p=2.0,
                                    mode="em", lam=0.3, m_const=1.0)
print(f"\ngrowth exponent of the measured complexity: {report.growth_exponent:.3f}")
print(f"minimal constant for domination: {report.m_min:.4f}")
for row in report.rows:
    print(f"  n={int(row['n']):6d} empirical={row['empirical']:8.1f} "
          f"bound={row['bound']:9.1f} ratio={row['ratio']:.2f}")
