"""Walkthrough: random-walk sampling with regeneration and quantile accuracy.

Run with: python demos/05_metropolis_credible_intervals.py
"""

import numpy as np

from regenmc import (
    Box,
    UniformStep,
    build_minorization,
    check_ball_chaining_geometry,
    credible_interval_experiment,
    empirical_quantiles,
    extract_blocks,
    mh_chain_regen,
    pitman_estimate,
    regen_stats,
    truncated_gaussian_target,
    uniform_target,
)

target = uniform_target()                 # uniform on [0, 1]
proposal = UniformStep(0.25)              # steps from [-0.25, 0.25]

# The minorization certificate: a small ball around the centroid where the
# one-step kernel dominates delta times the target restricted there.  The
# construction is grid-validated before anything runs.
cert = build_minorization(target, proposal)
print("certificate:", cert.to_json())

# Regeneration-instrumented sampling: flags fire only on accepted moves that
# start and land inside the small set; between flags the path splits into
# i.i.d. blocks.
traj = mh_chain_regen(target, proposal, cert, 100_000, seed=1)
blocks = extract_blocks(traj)
print(f"\nflags per step: {traj.regen_flags.mean():.4f} "
      f"(delta * small-set mass = {cert.delta * cert.psi_mass:.4f})")
stats = regen_stats(blocks, min_blocks=30)
lam = 0.5 * stats.tail_rate()[0]
print("block-length MGF finite at", lam, "->", stats.mgf(lam))

# The blocks estimate stationary quantities without burn-in bookkeeping.
f = lambda s: (np.asarray(s)[:, 0] <= 0.3).astype(float)
print("occupation estimate of mass below 0.3:", pitman_estimate(blocks, f))

# Quantiles of the coordinate chain drive credible intervals.
vals = traj.states[:, 0]
print("\nempirical 10% / 90% quantiles:", *empirical_quantiles(vals, [0.1, 0.9]))

# Sweep the chain length and fit the decay of the sup quantile error over
# u in [0.2, 0.8]; the reference exponent is -1/2.
series = credible_interval_experiment(target, proposal, cert, 0, gamma=0.1,
                                      n_grid=[2**j for j in range(8, 15)],
                                      replications=10, seed=2, n_u=17)
print(f"\nsup quantile-error slope: {series.slope:.3f} "
      f"(density floor {series.density_floor})")

# The same machinery runs on any product target with exact marginals.
tg = truncated_gaussian_target(mu=0.4, sigma=0.2)
cert_tg = build_minorization(tg, proposal)
print("\ntruncated-gaussian certificate delta:", cert_tg.delta)

# Geometric backbone of the uniform minorization argument: finitely many
# eps-ball steps connect any two points of the support.
print(check_ball_chaining_geometry(Box(np.zeros(2), np.ones(2)), eps=0.1))
