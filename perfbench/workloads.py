"""The benchmark's workloads: one regenmc CLI experiment config each.

Sizes are fixed; only the config seed comes from the benchmark's ``--seed``.
The experiments' own acceptance checks keep the paper's tolerances (KDE slope
0.1, quantile slope 0.15, growth exponent in [0.45, 0.60]); robustness over
seeds comes from replications. At these sizes every workload passed its check
on seeds 0-40, 106, 1000, 12345, 99999 and 2147483647. kde-rate with 20
replications over n = 2^10..2^16 failed on seeds 18 and 40 (slopes -0.292 and
-0.296), hence 30 replications and the extra n = 2^8.
"""

_DOEBLIN = {"kind": "doeblin_uniform", "width": 0.25}

WORKLOADS = {
    # Only CLI path into metropolis; 100 equal-length chains, ~0.6 M MH steps.
    "mh-credible": {
        "experiment": "mh-credible",
        "target": {"kind": "trunc_gauss"},
        "proposal": {"kind": "uniform_step", "a": 0.25},
        "gamma": 0.1,
        "n_grid": [1024, 2048, 4096, 8192, 16384],
        "replications": 20,
        "slope_tolerance": 0.15,
    },
    # Grid x sample kernel evaluation at both large-h (small n) and small-h
    # (large n) bandwidths.
    "kde-rate": {
        "experiment": "kde-rate",
        "model": dict(_DOEBLIN, delta=0.5),
        "kernel": "epanechnikov",
        "beta": 0.2,
        "bandwidth_scale": 0.35,
        "n_grid": [256, 1024, 4096, 16384, 65536],
        "replications": 30,
        "slope_tolerance": 0.1,
    },
    # The paper's headline experiment: splitting, blocks, block sums and the
    # sign Monte Carlo, whose sign matrix sets the peak RSS.
    "block-bounds": {
        "experiment": "bounds",
        "model": dict(_DOEBLIN, delta=0.3),
        "class": {"kind": "halfline", "lo": 0.05, "hi": 0.95, "size": 10},
        "n_grid": [1024, 4096, 16384, 65536],
        "replications": 5,
        "n_mc": 2000,
        "mode": "em",
        "lambda": 0.178,
        "exponent_range": [0.45, 0.60],
        "constants": {"M_const": 1.0},
    },
    # Many tiny covering checks on the default grid of 20 eps values.
    "covering-lemmas": {
        "experiment": "verify-lemmas",
        "trials": 300,
    },
}


def config(workload: str, seed: int) -> dict:
    """The CLI config of ``workload`` with its seed set to ``seed``."""
    base = WORKLOADS[workload]
    return {**base, "seed": int(seed)}
