"""Acceptance suite: each test enforces one shipping criterion at its stated
tolerance and prints a single PASS/FAIL line (visible with pytest -s)."""

import math
import time

import numpy as np
from scipy.stats import geom, ks_2samp

from regenmc import (
    bimodal_target,
    block_bootstrap_se,
    build_minorization,
    compare_bound_vs_empirical,
    credible_interval_experiment,
    empirical_block_rademacher,
    exhaustive_signed_sup,
    extract_blocks,
    halfline_class,
    KDEConfig,
    epanechnikov_kernel,
    mh_chain_regen,
    pitman_estimate,
    rate_experiment,
    run_mh,
    simulate,
    simulate_split_retrospective,
    supremum_growth_experiment,
    table_class,
    truncated_gaussian_target,
    two_state_chain,
    UniformStep,
    uniform_target,
    wrapped_doeblin_chain,
)
from regenmc.chains import Trajectory
from regenmc.function_classes import BlockMeasure, covering_checks
from regenmc.rng import child_seed

from .helpers import discrete_ks_pvalue


def record(num, ok, detail):
    print(f"\nACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_stationary_recovery():
    t0 = time.monotonic()
    traj = simulate_split_retrospective(two_state_chain(0.5, 0.2), 10**6, seed=101)
    blocks = extract_blocks(traj)
    f = lambda s: (np.asarray(s) == 1).astype(float)
    est = pitman_estimate(blocks, f)
    se = block_bootstrap_se(blocks, f, n_boot=200, seed=102)
    elapsed = time.monotonic() - t0
    ok = abs(est - 5 / 7) <= 3 * se and elapsed < 10.0
    record(1, ok, f"occupation estimate {est:.6f} vs 5/7 within {3*se:.2e} "
                  f"(runtime {elapsed:.1f}s < 10s)")


def test_criterion_02_splitting_preserves_marginal():
    t0 = time.monotonic()
    passes_doeblin = 0
    model = wrapped_doeblin_chain(0.3, 0.25)
    for s in range(20):
        a = simulate_split_retrospective(model, 10**4, seed=200 + s).states[::10, 0]
        b = simulate(model, 10**4, seed=800 + s).states[::10, 0]
        passes_doeblin += ks_2samp(a, b).pvalue > 0.01
    target = uniform_target()
    prop = UniformStep(0.25)
    cert = build_minorization(target, prop)
    passes_mh = 0
    for s in range(20):
        a = mh_chain_regen(target, prop, cert, 10**4, seed=300 + s).states[::30, 0]
        b = run_mh(target, prop, 10**4, seed=900 + s)[::30, 0]
        passes_mh += ks_2samp(a, b).pvalue > 0.01
    elapsed = time.monotonic() - t0
    ok = passes_doeblin >= 18 and passes_mh >= 18 and elapsed < 60.0
    record(2, ok, f"KS p>0.01 in {passes_doeblin}/20 (chain) and {passes_mh}/20 (sampler) "
                  f"runs (runtime {elapsed:.1f}s < 60s)")


def test_criterion_03_geometric_regeneration_law():
    delta = 0.3
    model = wrapped_doeblin_chain(delta, 0.25)
    n_steps = int(1e5 / delta * 1.15)
    passes = 0
    for s in range(20):
        taus = extract_blocks(
            simulate_split_retrospective(model, n_steps, seed=400 + s)).lengths[:100_000]
        assert len(taus) == 100_000
        passes += discrete_ks_pvalue(taus, lambda k: geom.cdf(k, delta)) > 0.01
    ok = passes >= 18
    record(3, ok, f"geometric(0.3) block-length KS p>0.01 in {passes}/20 seeds "
                  f"at 1e5 blocks each")


def test_criterion_04_covering_comparisons():
    t0 = time.monotonic()
    rng = np.random.default_rng(4242)
    eps_grid = np.round(np.arange(0.1, 2.01, 0.1), 10)
    holds_lift = holds_trunc = total = 0
    for _ in range(1000):
        n_states = int(rng.integers(2, 5))
        tables = rng.uniform(-1, 1, (int(rng.integers(1, 7)), n_states))
        blocks = tuple(rng.integers(0, n_states, int(rng.integers(1, 5)))
                       for _ in range(int(rng.integers(1, 6))))
        bm = BlockMeasure(blocks=blocks, weights=rng.dirichlet(np.ones(len(blocks))))
        cls = table_class(tables)
        trunc = int(rng.integers(1, 5))
        # one pass per side over the whole grid; test_function_classes pins it to
        # the single-eps checks
        grid = len(eps_grid)
        holds_lift += sum(c.holds for c in covering_checks(cls, bm, eps_grid, [None] * grid,
                                                           "exact"))
        holds_trunc += sum(c.holds for c in covering_checks(cls, bm, eps_grid, [trunc] * grid,
                                                            "exact"))
        total += len(eps_grid)
    elapsed = time.monotonic() - t0
    ok = holds_lift == total and holds_trunc == total and elapsed < 120.0
    record(4, ok, f"covering comparison holds in {holds_lift}/{total} (lift) and "
                  f"{holds_trunc}/{total} (truncated) checks over 1000 instances "
                  f"(runtime {elapsed:.1f}s < 120s)")


def test_criterion_05_mc_matches_exhaustive_enumeration():
    rng = np.random.default_rng(55)
    worst_z = 0.0
    ok = True
    for trial in range(50):
        n_blocks = int(rng.integers(2, 13))
        n_members = int(rng.integers(1, 9))
        n_states = int(rng.integers(2, 5))
        tables = rng.uniform(-1, 1, (n_members, n_states))
        lengths = rng.integers(1, 4, n_blocks)
        states, flags = [], []
        for ell in lengths:
            states.extend(rng.integers(0, n_states, ell).tolist())
            flags.extend([False] * (int(ell) - 1) + [True])
        traj = Trajectory(states=np.array([0] + states, dtype=np.int64),
                          regen_flags=np.array([True] + flags), seed=0, model_id="fx")
        blocks = extract_blocks(traj)
        cls = table_class(tables)
        est = empirical_block_rademacher(cls, blocks, 10**5, seed=child_seed(500, trial))
        exact = exhaustive_signed_sup(
            np.vstack([blocks.block_values(f) for f in cls.members]))
        z = abs(est.mean - exact) / max(est.mc_std_error, 1e-15)
        worst_z = max(worst_z, z)
        ok = ok and z <= 4.0
    record(5, ok, f"50 random block classes: MC within 4 mc-std-errors of the "
                  f"exhaustive value (worst z = {worst_z:.2f})")


def test_criterion_06_block_bound_domination_and_growth():
    model = wrapped_doeblin_chain(0.3, 0.25)
    cls = halfline_class(np.linspace(0.05, 0.95, 10))
    lam = 0.5 * (-math.log(0.7))
    report = compare_bound_vs_empirical(model, cls, [2**k for k in range(8, 15)],
                                        replications=5, seed=606, n_mc=2000, p=2.0,
                                        mode="em", lam=lam, m_const=1.0)
    # M_min makes m_min * main_term + remainder >= empirical by construction, so
    # the check is the bound itself at the configured M_const = 1.0
    ratios = [r["ratio"] for r in report.rows]
    dominated = report.m_const == 1.0 and all(r["bound"] >= r["empirical"] for r in report.rows)
    ok = dominated and 0.45 <= report.growth_exponent <= 0.60
    record(6, ok, f"bound at M_const=1.0 dominates at every n (bound/empirical "
                  f"{min(ratios):.3g} to {max(ratios):.3g}); "
                  f"growth exponent {report.growth_exponent:.3f} in [0.45, 0.60]")


def test_criterion_07_kde_uniform_deviation_rate():
    t0 = time.monotonic()
    model = wrapped_doeblin_chain(0.5, 0.25)
    cfg = KDEConfig(beta=0.2, scale=0.35)
    report = rate_experiment(model, epanechnikov_kernel(), cfg,
                             [2**j for j in range(8, 15)], replications=20, seed=707)
    elapsed = time.monotonic() - t0
    ok = abs(report.slope - (-0.4)) <= 0.1 and elapsed < 600.0
    record(7, ok, f"sup-deviation slope {report.slope:.3f} in -0.4 +- 0.1 "
                  f"(runtime {elapsed:.1f}s < 600s)")


def test_criterion_08_credible_interval_rate():
    t0 = time.monotonic()
    target = uniform_target()
    prop = UniformStep(0.25)
    cert = build_minorization(target, prop)
    series = credible_interval_experiment(target, prop, cert, 0, 0.1,
                                          [2**j for j in range(8, 15)],
                                          replications=20, seed=808, n_u=17)
    monotone = all(r.monotone for r in series.reports)
    elapsed = time.monotonic() - t0
    ok = abs(series.slope - (-0.5)) <= 0.15 and monotone and elapsed < 600.0
    record(8, ok, f"sup quantile-error slope {series.slope:.3f} in -0.5 +- 0.15, "
                  f"monotone on every replication={monotone} "
                  f"(runtime {elapsed:.1f}s < 600s)")


def test_criterion_09_centered_supremum_growth():
    target = uniform_target()
    prop = UniformStep(0.25)
    thresholds = np.linspace(0.0, 1.0, 101)
    cls = halfline_class(thresholds)

    def sample(n, seed):
        return run_mh(target, prop, n, seed)

    report = supremum_growth_experiment(sample, cls, thresholds,
                                        [2**k for k in range(8, 15)],
                                        replications=10, seed=909)
    ok = report.exponent <= 0.6
    record(9, ok, f"centered supremum growth exponent {report.exponent:.3f} <= 0.6")


def test_criterion_10_certificates_validate_at_scale():
    prop = UniformStep(0.25)
    details = []
    ok = True
    for make in (uniform_target, truncated_gaussian_target, bimodal_target):
        target = make()
        cert = build_minorization(target, prop)   # grid validation happens here
        try:
            traj = mh_chain_regen(target, prop, cert, 10**6, seed=1010)
            rate = traj.regen_flags.mean()
            details.append(f"{target.name}: delta={cert.delta:.3g}, flags/step={rate:.4f}")
        except ValueError as exc:
            ok = False
            details.append(f"{target.name}: {exc}")
    record(10, ok, "grid validation and 1e6-step regeneration probabilities <= 1+1e-9 "
                   "for every built-in configuration (" + "; ".join(details) + ")")
