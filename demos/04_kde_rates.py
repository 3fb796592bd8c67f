"""Walkthrough: density estimation over a chain and its uniform-deviation rate.

Run with: python demos/04_kde_rates.py
"""

import numpy as np

from regenmc import (
    KDEConfig,
    epanechnikov_kernel,
    kde_evaluate,
    rate_experiment,
    simulate,
    uniform_deviation,
    uniform_smoothed_target,
    wrapped_doeblin_chain,
)
from regenmc.kde import deviation_grid

model = wrapped_doeblin_chain(delta=0.5, width=0.25)   # uniform stationary law
kernel = epanechnikov_kernel()

# Point evaluation of the estimator over a chain sample.
states = simulate(model, 20_000, seed=1).states
print("density estimate at 0.5:", kde_evaluate(states, kernel, h=0.05, x=0.5))
print("(stationary density is 1 on the interior)")

# The measured quantity is the fluctuation around the smoothed stationary
# target, sup over a grid with spacing h/4.
h = 20_000 ** -0.2
grid = deviation_grid(h)
target = uniform_smoothed_target(kernel, h, grid)
dev = uniform_deviation(states, kernel, h, grid, target)
print(f"\nuniform deviation at n=20000, h={h:.3f}: {dev:.4f}")
print("reference scale sqrt(log(1/h)/(nh)):", np.sqrt(np.log(1 / h) / (20_000 * h)))

# Sweep n with the bandwidth rule h = 0.35 n^{-0.2} and fit the decay rate;
# ignoring log factors the exponent should be -(1 - beta)/2 = -0.4.
config = KDEConfig(beta=0.2, scale=0.35)
report = rate_experiment(model, kernel, config, [2**j for j in range(8, 15)],
                         replications=10, seed=2)
print(f"\nfitted slope {report.slope:.3f} +- {report.slope_se:.3f} "
      f"(reference {report.theory_slope})")
for row in report.rows:
    print(f"  n={int(row['n']):6d} h={row['h']:.3f} "
          f"deviation={row['mean_dev']:.4f} +- {row['std_err']:.4f}")

# An i.i.d. source of the same stationary law is the natural benchmark: same
# decay, lower level.  At delta = 1 every step is a fresh Uniform(0, 1) draw.
iid = rate_experiment(wrapped_doeblin_chain(1.0), kernel, config,
                      [2**j for j in range(8, 15)], replications=10, seed=3)
print(f"\ni.i.d. benchmark slope {iid.slope:.3f}; "
      f"level ratio chain/iid at largest n: "
      f"{report.rows[-1]['mean_dev'] / iid.rows[-1]['mean_dev']:.2f}")
