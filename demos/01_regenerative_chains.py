"""Walkthrough: simulating chains, splitting them, and estimating stationary laws.

Run with: python demos/01_regenerative_chains.py
"""

import numpy as np

from regenmc import (
    block_bootstrap_se,
    exact_stationary,
    extract_blocks,
    pitman_estimate,
    regen_stats,
    simulate,
    simulate_split_retrospective,
    two_state_chain,
    wrapped_doeblin_chain,
)

# ---------------------------------------------------------------------------
# A finite chain with a genuine atom
# ---------------------------------------------------------------------------
# Every visit to state 0 is a regeneration: the chain restarts from the same
# transition row, so the path between visits forms i.i.d. blocks.

model = two_state_chain(p01=0.5, p10=0.2)
print("exact stationary law:", exact_stationary(model.kernel))  # (2/7, 5/7)

traj = simulate(model, 100_000, seed=1)
print("empirical frequency of state 0:", (traj.states == 0).mean())

# The split simulation attaches regeneration flags retrospectively: after
# observing each transition, it draws the flag with the density ratio.
split = simulate_split_retrospective(model, 100_000, seed=1)
blocks = extract_blocks(split)
print("renewals observed:", blocks.l_n)

# Pitman's ratio estimator: occupation sums over complete blocks divided by
# total block length recover the stationary expectation.
f = lambda s: (np.asarray(s) == 1).astype(float)
est = pitman_estimate(blocks, f)
se = block_bootstrap_se(blocks, f, seed=2)
print(f"occupation estimate of pi(1): {est:.4f} +- {se:.4f} (truth {5/7:.4f})")

# ---------------------------------------------------------------------------
# A uniformly minorized chain on [0, 1)
# ---------------------------------------------------------------------------
# With the whole space small at level delta, flags are i.i.d. Bernoulli(delta)
# and block lengths are exactly geometric(delta).

doeblin = wrapped_doeblin_chain(delta=0.3, width=0.25)
split = simulate_split_retrospective(doeblin, 200_000, seed=3)
blocks = extract_blocks(split)
stats = regen_stats(blocks, min_blocks=30)
print("\nmean block length:", blocks.lengths.mean(), "(geometric mean = 1/0.3)")
print("tail rate estimate:", stats.tail_rate()[0], "(truth -log 0.7 = 0.357)")
print("empirical MGF at 0.15:", stats.mgf(0.15))
print("suggested safe MGF argument:", 0.5 * stats.tail_rate()[0])

# Drawing each flag after its move gives the split chain's law with no draw
# from the residual kernel (P(x, .) - delta Psi) / (1 - delta).  Averaged over
# the move, a step from the small set flags with probability delta.
print("\nflag frequency:", split.regen_flags.mean(), "(delta = 0.3)")
