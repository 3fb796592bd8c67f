import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ndtr
from scipy.stats import ks_2samp

from regenmc import (
    Box,
    GaussianStep,
    MHKernel,
    UniformStep,
    bimodal_target,
    build_minorization,
    check_ball_chaining_geometry,
    credible_interval_experiment,
    empirical_quantiles,
    extract_blocks,
    mh_chain_regen,
    regen_stats,
    run_mh,
    truncated_gaussian_target,
    uniform_target,
)
from regenmc import metropolis
from regenmc.chains import ChainModel, FiniteKernel, FiniteMinorization
from regenmc.metropolis import TARGETS
from regenmc.parallel import ELEMENT_BUDGET
from regenmc.regeneration import block_bootstrap_se, pitman_estimate, simulate_split_retrospective
from regenmc.rng import stream

from .helpers import reference_mh_regen_path, reference_run_mh


# ---------------------------------------------------------------------------
# Supports
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lo,hi,message", [
    ([np.nan], [1.0], r"coordinate 0 has \(lo, hi\) = \(nan, 1\.0\)"),
    ([0.0, 0.0], [1.0, np.nan], r"coordinate 1 has \(lo, hi\) = \(0\.0, nan\)"),
    ([0.0, 0.5], [1.0, 0.5], r"coordinate 1 has \(lo, hi\) = \(0\.5, 0\.5\)"),
    ([0.0], [1.0, 2.0], r"lo \(1,\), hi \(2,\)"),
])
def test_box_rejects_bad_bounds_with_witness(lo, hi, message):
    with pytest.raises(ValueError, match=message):
        Box(np.array(lo), np.array(hi))


# ---------------------------------------------------------------------------
# The move
# ---------------------------------------------------------------------------


def test_acceptance_rate_against_overlap():
    # uniform target: every in-support proposal is accepted, so the rate from
    # a fixed state is the window/support overlap fraction
    kernel = MHKernel(uniform_target(), UniformStep(0.6))
    rng = stream(1, 0)
    x = np.array([0.5])
    accepts = sum(bool(kernel.sample_path(x, 2, rng)[1, 0] != x[0]) for _ in range(20_000))
    expected = 1.0 / 1.2
    se = math.sqrt(expected * (1 - expected) / 20_000)
    assert abs(accepts / 20_000 - expected) <= 3 * se


def test_vanishing_current_density_always_accepts():
    kernel = MHKernel(uniform_target(), UniformStep(0.1))
    path = kernel.sample_path(np.array([5.0]), 2, stream(2, 0))
    assert path[1, 0] != 5.0
    # acceptance probability 1: the move's density is the bare proposal density
    assert kernel.density(path[:1], path[1:])[0] == pytest.approx(1.0 / 0.2)


def test_uphill_moves_always_accepted():
    target = truncated_gaussian_target()
    prop = UniformStep(0.3)
    path = MHKernel(target, prop).sample_path(np.array([0.9]), 501, stream(3, 0))
    # the path drew its 500 increments first from the same stream
    ys = path[:-1] + prop.sample_increments(stream(3, 0), 500)
    uphill = np.array([target.pdf_point(y) >= target.pdf_point(x) for x, y in zip(path, ys)])
    assert uphill.any() and (~uphill).any()
    assert np.array_equal(path[1:][uphill], ys[uphill])


def test_rejection_has_infinite_density_and_is_never_flagged():
    target = truncated_gaussian_target()
    prop = UniformStep(0.25)
    kernel = MHKernel(target, prop)
    x = np.array([[0.5]])
    assert kernel.density(x, x)[0] == np.inf
    cert = build_minorization(target, prop)
    traj = mh_chain_regen(target, prop, cert, 50_000, seed=16)
    flagged = np.flatnonzero(traj.regen_flags[:-1])
    rejected = np.all(traj.states[1:] == traj.states[:-1], axis=1)
    assert len(flagged) > 1000 and rejected.mean() > 0.05
    assert not rejected[flagged].any()


def test_accepted_move_at_proposal_edge_keeps_positive_density():
    # y = fl(x - a) with a = 0.3: the recomputed increment fl(y - x) lands
    # beyond -a for a share of x, where q would read 0
    a = 0.3
    kernel = MHKernel(uniform_target(), UniformStep(a))
    xs = np.linspace(a, 1.0, 4001, endpoint=False)[:, None]
    ys = xs - a
    assert np.mean(np.abs(ys - xs) > a) > 0.05
    assert np.all(kernel.density(xs, ys) == 1.0 / (2 * a))
    assert np.all(kernel.density(ys, xs) == 1.0 / (2 * a))


@given(target=st.sampled_from(sorted(TARGETS)), gaussian=st.booleans(),
       d=st.sampled_from([1, 2, 3]), x0=st.none() | st.floats(-0.5, 1.5),
       n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
@example(target="bimodal", gaussian=False, d=2, x0=5.0, n=300, seed=1)
@example(target="trunc_gauss", gaussian=False, d=1, x0=5.0, n=300, seed=1)
def test_mh_paths_bit_identical_to_reference_loops(target, gaussian, d, x0, n, seed):
    tgt = TARGETS[target](d=d)
    prop = GaussianStep(0.2, 0.3, d) if gaussian else UniformStep(0.25, d)
    cert = build_minorization(tgt, prop)
    start = None if x0 is None else np.full(d, x0)
    traj = mh_chain_regen(tgt, prop, cert, n, seed, x0=start)
    assert np.array_equal(traj.states, reference_mh_regen_path(tgt, prop, cert, n, seed, start))
    assert np.array_equal(run_mh(tgt, prop, n, seed, x0=start),
                          reference_run_mh(tgt, prop, n, seed, start))


@pytest.mark.parametrize("target", sorted(TARGETS))
@pytest.mark.parametrize("d, budget", [(1, 7), (1, 56), (2, 7), (2, 56), (3, 56)])
def test_float_walk_slices_bit_identical_to_reference_loops(target, d, budget, monkeypatch):
    # Slices hold max(1, budget // (8 d)) steps: 1 at budget 7, and 7, 3 and 2
    # at budget 56 for d = 1, 2, 3.  Both samplers walk n steps, so for each
    # slicing some n in {7, 8, 9, 15} ends on a slice bound and some next to one.
    monkeypatch.setattr(metropolis, "ELEMENT_BUDGET", budget)
    tgt = TARGETS[target](d=d)
    prop = UniformStep(0.25, d)
    cert = build_minorization(tgt, prop)
    for n in (1, 2, 7, 8, 9, 15, 300):
        for seed, start in ((n, None), (n + 1, np.full(d, 5.0))):
            traj = mh_chain_regen(tgt, prop, cert, n, seed, x0=start)
            assert np.array_equal(traj.states,
                                  reference_mh_regen_path(tgt, prop, cert, n, seed, start)), n
            assert np.array_equal(run_mh(tgt, prop, n, seed, x0=start),
                                  reference_run_mh(tgt, prop, n, seed, start)), n


@pytest.mark.stress
@pytest.mark.parametrize("d", [1, 2])
def test_walk_memory_is_its_arrays_and_one_slice(d):
    # states, increments and uniforms take (2 d + 1) 8 n bytes; the walk's
    # Python objects add about one slice, ELEMENT_BUDGET array elements' worth
    n = 2 ** 20
    kernel = MHKernel(TARGETS["trunc_gauss"](d=d), UniformStep(0.25, d))
    tracemalloc.start()
    try:
        kernel.sample_path(np.full(d, 0.5), n, stream(1, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (2 * d + 1) * 8 * n + 4 * 8 * ELEMENT_BUDGET


def test_out_of_support_proposals_rejected():
    states = run_mh(uniform_target(), UniformStep(0.8), 5000, seed=4)
    assert states.min() >= 0.0 and states.max() <= 1.0


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make,params,message", [
    (truncated_gaussian_target, {"sigma": 0.0}, "sigma must be positive"),
    (truncated_gaussian_target, {"sigma": float("nan")}, "sigma must be positive"),
    (bimodal_target, {"s1": -0.1}, "s1 and s2 must be positive"),
    (bimodal_target, {"s2": 0.0}, "s1 and s2 must be positive"),
    (bimodal_target, {"w1": 1.5}, r"w1 must lie in \[0, 1\]"),
    (bimodal_target, {"w1": -0.1}, r"w1 must lie in \[0, 1\]"),
    (uniform_target, {"d": 0}, "dimension d must be >= 1, got 0"),
    (bimodal_target, {"d": 7}, "dimension d must be at most MAX_DIM = 6, got 7"),
    (uniform_target, {"lo": 1.0, "hi": 0.0}, "lo must be below hi, got 1.0 >= 0.0"),
    (truncated_gaussian_target, {"mu": 50.0, "sigma": 0.01}, "put no mass on"),
    (bimodal_target, {"mu1": 50.0, "s1": 0.01, "w1": 1.0}, "no mass on"),
    (UniformStep, {"a": 0.0}, "a must be positive, got 0.0"),
    (GaussianStep, {"s": 0.2, "eps": -1.0}, "eps must be positive, got -1.0"),
    (UniformStep, {"a": 0.25, "d": 7}, "dimension d must be at most MAX_DIM = 6, got 7"),
    (GaussianStep, {"s": 0.2, "eps": 0.3, "d": 0}, "dimension d must be >= 1, got 0"),
])
def test_coordinate_constructors_reject_bad_scales_and_weights(make, params, message):
    with pytest.raises(ValueError, match=message):
        make(**params)


def test_certified_sup_dominates_density_everywhere():
    rng = stream(77, 0)
    pts = rng.random((5000, 1))
    for make in (uniform_target, truncated_gaussian_target, bimodal_target):
        target = make()
        assert np.all(target.pdf(pts) <= target.sup_density + 1e-12), target.name


def test_certificate_hand_value():
    # delta = b * pi(ball) / sup = (1/0.4) * 0.2 / 1
    cert = build_minorization(uniform_target(), UniformStep(0.2),
                              center=np.array([0.5]))
    assert cert.delta == pytest.approx(0.5)
    assert cert.radius == pytest.approx(0.1)


def test_certificate_boundary_center_truncated():
    cert = build_minorization(uniform_target(), UniformStep(0.2),
                              center=np.array([0.02]))
    assert cert.psi_mass == pytest.approx(0.12)
    assert cert.delta == pytest.approx(0.3)


def test_certificate_spiky_target_small_delta():
    flat = build_minorization(truncated_gaussian_target(sigma=0.5), UniformStep(0.2))
    spiky = build_minorization(truncated_gaussian_target(sigma=0.05), UniformStep(0.2))
    assert 0 < spiky.delta < flat.delta < 1


def test_certificate_rejects_outside_center():
    with pytest.raises(ValueError, match="inside the support"):
        build_minorization(uniform_target(), UniformStep(0.2),
                           center=np.array([1.5]))


def test_certificate_rejects_degenerate_delta(monkeypatch):
    # a huge proposal floor would certify delta >= 1, which is impossible
    target = uniform_target()
    prop = UniformStep(0.2)
    monkeypatch.setattr(UniformStep, "floor_b", 20.0)
    with pytest.raises(ValueError, match="degenerate certificate"):
        build_minorization(target, prop)


def test_gaussian_proposal_certificate_valid():
    cert = build_minorization(uniform_target(), GaussianStep(0.2, 0.3))
    assert 0 < cert.delta < 1


def test_certificate_grid_validation_failure_names_witness():
    # understating the certified sup makes delta too generous; the grid catches it
    target = truncated_gaussian_target(sigma=0.2)
    object.__setattr__(target, "sup_density", 0.5 * target.sup_density)
    with pytest.raises(ValueError, match="validation failed at x="):
        build_minorization(target, UniformStep(0.2))


def test_runtime_certificate_violation_detected():
    import dataclasses

    target = uniform_target()
    prop = UniformStep(0.2)
    cert = dataclasses.replace(build_minorization(target, prop), delta=0.9)
    with pytest.raises(ValueError, match="regeneration probability"):
        mh_chain_regen(target, prop, cert, 20_000, seed=15)


# ---------------------------------------------------------------------------
# Regeneration-instrumented sampling
# ---------------------------------------------------------------------------


def test_regen_flag_rate_matches_delta_times_small_set_mass():
    target = uniform_target()
    prop = UniformStep(0.2)
    cert = build_minorization(target, prop)
    traj = mh_chain_regen(target, prop, cert, 100_000, seed=5)
    rate = traj.regen_flags.mean()
    expected = cert.delta * cert.psi_mass
    assert abs(rate - expected) <= 4 * math.sqrt(expected / 100_000) + 0.002


def test_regen_flags_only_inside_small_set():
    target = uniform_target()
    prop = UniformStep(0.2)
    cert = build_minorization(target, prop)
    traj = mh_chain_regen(target, prop, cert, 20_000, seed=6)
    flagged_states = traj.states[traj.regen_flags]
    assert np.all(cert.small_set(flagged_states))


def test_regen_cross_checked_against_discretized_split():
    # exact finite-bin version of the same sampler: bin the uniform-target
    # walk, certify the same small set and delta, and split it
    a, n_bins = 0.2, 50
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    matrix = np.zeros((n_bins, n_bins))
    for i, x in enumerate(centers):
        lo_i, hi_i = x - a, x + a
        for j in range(n_bins):
            if j != i:
                overlap = max(0.0, min(edges[j + 1], hi_i) - max(edges[j], lo_i))
                matrix[i, j] = overlap / (2 * a)
        matrix[i, i] = 1.0 - matrix[i].sum()
    in_s = (centers >= 0.4) & (centers <= 0.6)
    psi = in_s / in_s.sum()
    delta = 0.5
    cert = FiniteMinorization(delta=delta, psi=psi, small=in_s)
    model = ChainModel(kernel=FiniteKernel(matrix),
                       initial_sample=lambda rng: int(rng.choice(np.flatnonzero(in_s))),
                       minorization=cert, model_id="binned_walk")
    gap = matrix[np.ix_(in_s, in_s)] - delta * psi[in_s][None, :]
    assert gap.min() >= -1e-12
    disc = simulate_split_retrospective(model, 100_000, seed=7)
    target = uniform_target()
    prop = UniformStep(a)
    cont = mh_chain_regen(target, prop, build_minorization(target, prop), 100_000, seed=8)
    r1, r2 = disc.regen_flags.mean(), cont.regen_flags.mean()
    assert abs(r1 - r2) <= 4 * math.sqrt(2 * 0.1 / 100_000) + 0.003


def test_regen_marginal_matches_plain_mh():
    target = uniform_target()
    prop = UniformStep(0.25)
    cert = build_minorization(target, prop)
    stride, failures = 30, 0
    for s in range(20):
        a = mh_chain_regen(target, prop, cert, 10_000, seed=100 + s).states[::stride, 0]
        b = run_mh(target, prop, 10_000, seed=700 + s)[::stride, 0]
        if ks_2samp(a, b).pvalue <= 0.01:
            failures += 1
    assert failures <= 2


def test_detailed_balance_on_bins():
    states = run_mh(uniform_target(), UniformStep(0.3), 200_000, seed=9)[:, 0]
    bins = np.minimum((states * 5).astype(int), 4)
    flow = np.zeros((5, 5))
    np.add.at(flow, (bins[:-1], bins[1:]), 1)
    for i in range(5):
        for j in range(i + 1, 5):
            diff = abs(flow[i, j] - flow[j, i])
            se = math.sqrt(flow[i, j] + flow[j, i])
            assert diff <= 3 * se + 1e-9, (i, j)


def test_mgf_finite_for_every_builtin_configuration():
    prop = UniformStep(0.25)
    for make in (uniform_target, truncated_gaussian_target, bimodal_target):
        target = make()
        cert = build_minorization(target, prop)
        traj = mh_chain_regen(target, prop, cert, 150_000, seed=10)
        stats = regen_stats(extract_blocks(traj), min_blocks=30)
        lam = 0.5 * stats.tail_rate()[0]
        assert np.isfinite(lam) and lam > 0
        _, reliable = stats.mgf(lam)
        assert reliable


def test_pitman_on_mh_blocks_matches_marginal_mass():
    prop = UniformStep(0.25)
    for make, cut in ((uniform_target, 0.3), (truncated_gaussian_target, 0.3)):
        target = make()
        cert = build_minorization(target, prop)
        traj = mh_chain_regen(target, prop, cert, 200_000, seed=11)
        blocks = extract_blocks(traj)
        f = lambda s: (np.asarray(s)[:, 0] <= cut).astype(float)
        est = pitman_estimate(blocks, f)
        se = block_bootstrap_se(blocks, f, seed=12)
        assert abs(est - float(target.coords[0].cdf(cut))) <= 3 * se, target.name


# ---------------------------------------------------------------------------
# Quantiles
# ---------------------------------------------------------------------------


def test_quantile_inf_definition():
    sample = np.array([1.0, 2.0, 3.0, 4.0])
    assert empirical_quantiles(sample, 0.5) == 2.0
    assert empirical_quantiles(sample, 1 - 1 / 8) == 4.0
    assert empirical_quantiles(sample, 0.2) == 1.0


def test_quantile_domain():
    with pytest.raises(ValueError):
        empirical_quantiles(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        empirical_quantiles(np.array([1.0]), 1.0)
    with pytest.raises(ValueError, match=r"got 1\.5"):
        empirical_quantiles(np.array([1.0]), [0.5, 1.5, float("nan")])


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
@settings(max_examples=200, deadline=None)
def test_quantiles_monotone_in_u(values):
    us = np.linspace(0.05, 0.95, 19)
    qs = empirical_quantiles(np.array(values), us)
    assert np.all(np.diff(qs) >= 0)


def test_truncated_gaussian_quantiles_invert_cdf():
    target = truncated_gaussian_target(mu=0.3, sigma=0.2)
    for u in (0.1, 0.37, 0.5, 0.9):
        q = target.marginal_quantile(0, u)
        assert float(target.coords[0].cdf(q)) == pytest.approx(u, abs=1e-10)


def test_marginal_quantile_names_a_bad_u():
    with pytest.raises(ValueError, match=r"u must lie in \(0, 1\), got 1\.5"):
        uniform_target().marginal_quantile(0, 1.5)
    with pytest.raises(ValueError, match="got 0.0"):
        empirical_quantiles(np.array([1.0]), 0.0)


# ---------------------------------------------------------------------------
# The ndtr and brentq ports.  Their results must equal SciPy's bit for bit: a
# SciPy build that changes either (FMA contraction, a new algorithm) fails
# here before any golden digest moves.
# ---------------------------------------------------------------------------


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _around(x: float, ulps: int = 3) -> list:
    """x and its ``ulps`` nearest floats on each side."""
    out = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for _ in range(ulps):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


def test_ndtr_port_equals_scipy_bitwise():
    rng = np.random.default_rng(20)
    edges = [0.0, -0.0, 40.0, -40.0, 1e300, -1e300, math.inf, -math.inf, math.nan]
    # |a| sqrt(1/2) = 1 switches erf to erfc, |a| sqrt(1/2) = 8 switches erfc's
    # rational form, and a^2 / 2 > MAXLOG underflows erfc to 0.
    for edge in (math.sqrt(2.0), 8 * math.sqrt(2.0), math.sqrt(2 * metropolis._MAXLOG)):
        edges += _around(edge) + _around(-edge)
    xs = np.concatenate([rng.normal(0.0, 1.0, 40_000), rng.normal(0.0, 6.0, 40_000),
                         rng.uniform(-2.0, 2.0, 20_000) * math.sqrt(2.0),
                         rng.uniform(-45.0, 45.0, 20_000), edges])
    ours = [metropolis.ndtr(x) for x in xs.tolist()]
    assert np.array_equal(_bits(ours), _bits(ndtr(xs)))


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_marginal_quantile_brentq_equals_scipy_bitwise(name):
    target = TARGETS[name]()
    rng = np.random.default_rng(21)
    us = np.concatenate([rng.uniform(0.0, 1.0, 500), [1e-12, 0.5, 1 - 1e-12]]).tolist()
    cdf = target.coords[0].cdf
    lo, hi = float(target.support.lo[0]), float(target.support.hi[0])
    ours = [target.marginal_quantile(0, u) for u in us]
    theirs = [brentq(lambda t, u=u: cdf(t) - u, lo, hi, xtol=metropolis.BRENT_XTOL) for u in us]
    assert np.array_equal(_bits(ours), _bits(theirs))


@pytest.mark.parametrize("f", [lambda x: math.exp(x) - 2.0, lambda x: x ** 3 + x - 0.5,
                               lambda x: math.atan(x - 0.3)])
@pytest.mark.parametrize("scale", [1.0, 1e-200])
def test_brentq_port_equals_scipy_bitwise(f, scale):
    # At scale 1e-200 the extrapolation step's denominator underflows to 0,
    # where C divides into inf or nan and the port must bisect as C does.
    g = lambda x: scale * f(x)
    theirs = brentq(g, -1.0, 2.0, xtol=metropolis.BRENT_XTOL)
    assert _bits(metropolis.brentq(g, -1.0, 2.0)) == _bits(theirs)


def test_brentq_same_sign_bracket_names_both_ends():
    with pytest.raises(ValueError, match=r"a=0\.0, b=1\.0, f\(a\)=1\.0, f\(b\)=2\.0"):
        metropolis.brentq(lambda x: x + 1.0, 0.0, 1.0)


def test_brentq_names_its_last_iterate_when_it_runs_out():
    # A jump at 0.1 leaves Brent's method only bisection, which needs about a
    # thousand halvings to shrink [-1e300, 1e300] below the tolerance.
    step = lambda x: -1.0 if x < 0.1 else 1.0
    last = brentq(step, -1e300, 1e300, xtol=metropolis.BRENT_XTOL, full_output=True,
                  disp=False)[1].root
    with pytest.raises(RuntimeError, match=f"after 100 iterations.*{re.escape(repr(last))}$"):
        metropolis.brentq(step, -1e300, 1e300)


def test_credible_interval_experiment_uniform():
    target = uniform_target()
    prop = UniformStep(0.25)
    cert = build_minorization(target, prop)
    series = credible_interval_experiment(target, prop, cert, 0, 0.1,
                                          [2 ** j for j in range(8, 15)], 10, seed=13,
                                          n_u=17)
    assert series.density_floor == pytest.approx(1.0)
    assert all(r.monotone for r in series.reports)
    # sup error at the largest n within a factor 3 of sqrt(log log n / n)
    n_big = series.reports[-1].n
    benchmark = math.sqrt(math.log(math.log(n_big)) / n_big)
    assert benchmark / 3 <= series.reports[-1].sup_error <= 3 * benchmark
    assert abs(series.slope + 0.5) <= 0.2


def test_credible_interval_truncated_gaussian_reference():
    target = truncated_gaussian_target()
    prop = UniformStep(0.25)
    cert = build_minorization(target, prop)
    series = credible_interval_experiment(target, prop, cert, 0, 0.1,
                                          [256, 512, 1024], 5, seed=14, n_u=17)
    assert all(r.monotone for r in series.reports)
    assert series.rate_checked


# ---------------------------------------------------------------------------
# Ball chaining
# ---------------------------------------------------------------------------


def test_chaining_unit_interval():
    check = check_ball_chaining_geometry(Box(np.array([0.0]), np.array([1.0])), 1.0,
                                         n_trials=5000, seed=1)
    assert check.min_steps == 1 and check.ok


def test_chaining_unit_square():
    # solve 0.1 (1 + k/4) > sqrt(2): k > 52.57
    check = check_ball_chaining_geometry(Box(np.zeros(2), np.ones(2)), 0.1,
                                         n_trials=10_000, seed=2)
    assert check.min_steps == 53
    assert check.ok and check.failures == 0
