import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from regenmc import (
    KDEConfig,
    box_kernel,
    epanechnikov_kernel,
    kde_evaluate,
    rate_experiment,
    uniform_deviation,
    uniform_smoothed_target,
    wrapped_doeblin_chain,
)
from regenmc.kde import (
    QUAD_TOL,
    Kernel,
    _box_k0_cdf,
    _epanechnikov_k0_cdf,
    _prefix_sums,
    deviation_grid,
)
from regenmc.cli import RUN_BYTES, peak_bytes
from regenmc.parallel import ELEMENT_BUDGET
from regenmc.rng import stream

from .helpers import dense_kde_evaluate, smoothed_target_quadrature


def test_kernel_constants():
    box = box_kernel()
    ep = epanechnikov_kernel()
    assert box.k0_sup == 0.5
    assert ep.k0_sup == 0.75


def test_kernel_normalization_checked():
    with pytest.raises(ValueError, match="integrates"):
        Kernel(name="bad", k0_sup=0.7, k0_cdf=_box_k0_cdf, coeffs=(0.7,))


def test_kernel_mass_one_percent_off_rejected():
    with pytest.raises(ValueError, match=r"integrates to 1\.01, not 1"):
        Kernel(name="heavy", k0_sup=0.7575, k0_cdf=_epanechnikov_k0_cdf,
               coeffs=(0.7575, 0.0, -0.7575))


@pytest.mark.parametrize("coeffs", [
    (0.5,),
    (0.75, 0.0, -0.75),
    (15 / 16, 0.0, -15 / 8, 0.0, 15 / 16),        # biweight
    (0.7, 0.3),                                   # odd terms carry no mass
    (0.35, 0.0, 0.45, 0.0, 0.0, 0.0, 0.0, 1.0),
])
def test_kernel_mass_agrees_with_adaptive_quadrature(coeffs):
    exact, _ = quad(lambda t: sum(a * t ** k for k, a in enumerate(coeffs)), -1.0, 1.0,
                    epsabs=QUAD_TOL / 10)
    if abs(exact - 1.0) <= QUAD_TOL / 10:
        Kernel(name="ok", k0_sup=1.0, k0_cdf=_box_k0_cdf, coeffs=coeffs)
    else:
        with pytest.raises(ValueError, match=f"integrates to {exact:.10g}, not 1"):
            Kernel(name="off", k0_sup=1.0, k0_cdf=_box_k0_cdf, coeffs=coeffs)


def test_box_profile_equals_its_closed_form_exactly():
    t = np.linspace(-1.2, 1.2, 24001)
    assert np.array_equal(box_kernel().k0(t), np.where(np.abs(t) <= 1.0, 0.5, 0.0))


def test_epanechnikov_profile_within_eps_of_its_closed_form():
    t = np.linspace(-1.2, 1.2, 24001)
    closed = np.where(np.abs(t) <= 1.0, 0.75 * (1.0 - t ** 2), 0.0)
    assert np.max(np.abs(epanechnikov_kernel().k0(t) - closed)) <= np.finfo(float).eps


@pytest.mark.parametrize("make", [box_kernel, epanechnikov_kernel])
def test_profile_is_zero_outside_its_support(make):
    outside = np.array([1.0 + 2.0 ** -52, 1.0 + 1e-9, 1.001, 1.5, 10.0, 1e300, np.inf, np.nan])
    kernel = make()
    assert np.all(kernel.k0(outside) == 0.0) and np.all(kernel.k0(-outside) == 0.0)


@pytest.mark.parametrize("make", [box_kernel, epanechnikov_kernel])
def test_builtin_cdf_is_the_antiderivative_of_the_coefficients(make):
    kernel = make()
    anti = np.polynomial.Polynomial(kernel.coeffs).integ(lbnd=-1.0)
    t = np.linspace(-1.0, 1.0, 4001)
    assert np.max(np.abs(kernel.k0_cdf(t) - anti(t))) <= 4 * np.finfo(float).eps
    assert np.all(kernel.k0_cdf(np.array([-3.0, -1.0])) == 0.0)
    assert np.all(kernel.k0_cdf(np.array([1.0, 3.0])) == 1.0)


def test_kernel_coefficients_may_carry_trailing_zeros():
    padded = Kernel(name="box", k0_sup=0.5, k0_cdf=_box_k0_cdf, coeffs=(0.5, 0.0, 0.0))
    t = np.linspace(-1.5, 1.5, 301)
    assert np.array_equal(padded.k0(t), box_kernel().k0(t))


def test_single_point_box_evaluation():
    assert kde_evaluate(np.array([0.0]), box_kernel(), 1.0, 0.0) == 0.5


def test_far_query_is_zero():
    assert kde_evaluate(np.array([0.0]), box_kernel(), 1.0, 5.0) == 0.0


@pytest.mark.parametrize("h", [0.0, float("nan"), float("inf")])
def test_bandwidth_must_be_positive(h):
    sample = np.random.default_rng(0).random(100)
    with pytest.raises(ValueError, match="bandwidth h must be positive"):
        kde_evaluate(sample, box_kernel(), h, 0.5)


def test_empty_sample_rejected():
    with pytest.raises(ValueError, match="empty sample"):
        kde_evaluate(np.array([]), box_kernel(), 0.1, 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sample_rejected(bad):
    with pytest.raises(ValueError, match="non-finite"):
        kde_evaluate(np.array([0.2, bad, 0.7]), epanechnikov_kernel(), 0.1, 0.5)


@pytest.mark.parametrize("shape", [(10, 2), (10, 1, 1), (5, 3)])
def test_multivariate_sample_refused(shape):
    sample = stream(8, 0).random(shape)
    with pytest.raises(ValueError, match=r"one-dimensional sample, got shape \(%d, %d" % shape[:2]):
        kde_evaluate(sample, epanechnikov_kernel(), 0.5, 0.5)


@pytest.mark.parametrize("x", [np.full((3, 2), 0.5), np.full((3, 1, 1), 0.5)])
def test_query_points_must_be_scalars(x):
    with pytest.raises(ValueError, match=r"query points have shape \(3, .*one coordinate"):
        kde_evaluate(stream(8, 0).random(10), epanechnikov_kernel(), 0.5, x)


def moment_error_bound(sample, kernel, h):
    """A priori bound on |kde_evaluate - dense_kde_evaluate| at any query.

    Derived from the method, never from observed errors.  Let eps = 2^-52
    (twice the unit roundoff), d the profile's degree, a_k its coefficients,
    R = max X - min X, m = 3 + 8 eps (1 + R/h) and A = eps / h * sum_k |a_k| m^k.
    - Two samples in one block have computed floor((X - min X)/h) equal, so
      they lie under h + 2 eps R apart: every scaled |v_i| = |(X_i - o)/h|,
      rounded twice, is at most W = (1 + 2 eps R/h)(1 + eps).  A window's
      samples lie within h (1 + eps) of x, so on a piece of a block with
      first value o, the scaled |u| = |(x - o)/h| and W add up to at most m.
    - A window meets at most four blocks, so it has at most four pieces,
      each a difference of two prefix values per moment j.
    - A prefix value sums at most n terms v^j, |v^j| <= W^j: the powers
      round in d steps, reduceat sums each segment pairwise (depth under
      log2 n + 20) and ``_prefix_sums`` adds the segment sums in at most
      2 sqrt(n) + 3 steps.  With s = 2 sqrt(n) + log2 n + d + 23 it is off by
      at most s (eps/2) n W^j.  Through sum_j C(k, j) |u|^(k-j), whose sum
      with W^j is (|u| + W)^k <= m^k, and the division by n h, each piece is
      off by at most s A, four pieces 4 s A.
    - Rounding u and v, the binomial terms, the sums over j, k and pieces
      and the final /n/h add under (2d + 17) A; the dense oracle rounds each
      kernel value and their pairwise mean, under (log2 n + d + 24) A / 2.
    The total, under 8 sqrt(n) + 4.5 log2 n + 6 d + 109 units of A, is below
    8 (sqrt(n) + log2 n + d + 16) A.
    """
    s = np.asarray(sample, dtype=float)
    eps, n, deg = np.finfo(float).eps, len(s), len(kernel.coeffs) - 1
    m = 3.0 + 8.0 * eps * (1.0 + float(s.max() - s.min()) / h)
    scale = sum(abs(a) * m ** k for k, a in enumerate(kernel.coeffs))
    return 8.0 * (np.sqrt(n) + np.log2(n) + deg + 16) * eps / h * scale


def _kde_case(n, ties, h, offset, seed):
    """A sample on [-1, 2] (offset 0) or [offset, offset + 1], with queries and window edges."""
    rng = np.random.default_rng(seed)
    sample = rng.uniform(-1.0, 2.0, n) if offset == 0 else offset + rng.uniform(0.0, 1.0, n)
    if ties:
        sample = np.round(sample * 4.0) / 4.0
    edges = sample[rng.integers(0, n, 8)] + h * rng.choice([-1.0, 1.0], 8)
    queries = np.concatenate([rng.uniform(sample.min() - 0.5, sample.max() + 0.5, 16), edges])
    return sample, queries


_CASES = dict(n=st.integers(1, 300), ties=st.booleans(), scalar=st.booleans(),
              h=st.floats(1e-3, 3.0), offset=st.sampled_from([0.0, 1e3]),
              seed=st.integers(0, 2 ** 32 - 1))


@given(**_CASES)
@settings(max_examples=200, deadline=None)
@example(n=1, ties=False, scalar=True, h=1.0, offset=0.0, seed=0)
def test_box_kde_evaluate_bit_identical_to_dense(n, ties, scalar, h, offset, seed):
    sample, queries = _kde_case(n, ties, h, offset, seed)
    x = queries[0] if scalar else queries
    got = kde_evaluate(sample, box_kernel(), h, x)
    assert isinstance(got, float) == scalar
    assert np.array_equal(got, dense_kde_evaluate(sample, box_kernel(), h, x))


@given(**_CASES)
@settings(max_examples=200, deadline=None)
@example(n=300, ties=True, scalar=False, h=1e-3, offset=1e3, seed=0)
def test_epanechnikov_kde_evaluate_within_derived_bound_of_dense(n, ties, scalar, h, offset, seed):
    sample, queries = _kde_case(n, ties, h, offset, seed)
    x = queries[0] if scalar else queries
    ep = epanechnikov_kernel()
    got = kde_evaluate(sample, ep, h, x)
    assert isinstance(got, float) == scalar
    err = np.max(np.abs(got - dense_kde_evaluate(sample, ep, h, x)))
    assert err <= moment_error_bound(sample, ep, h)


@pytest.mark.parametrize("n", [ELEMENT_BUDGET // 2 - 1, ELEMENT_BUDGET - 1, ELEMENT_BUDGET + 1])
@pytest.mark.parametrize("h", [0.01, 2.0])
def test_kde_evaluate_matches_dense_across_eval_budget(n, h):
    # h = 2 puts the whole sample in every window.  The queries beyond 5
    # have empty windows.
    sample = stream(n, 1).random(n)
    queries = np.concatenate([np.linspace(-0.1, 1.1, 9), np.linspace(5.0, 1e6, 12)])
    box, ep = box_kernel(), epanechnikov_kernel()
    assert np.array_equal(kde_evaluate(sample, box, h, queries),
                          dense_kde_evaluate(sample, box, h, queries))
    err = np.max(np.abs(kde_evaluate(sample, ep, h, queries)
                        - dense_kde_evaluate(sample, ep, h, queries)))
    assert err <= moment_error_bound(sample, ep, h)


def test_kde_evaluate_chunks_queries_beyond_eval_budget():
    sample = stream(3, 0).random(500)
    queries = stream(3, 1).uniform(-0.2, 1.2, ELEMENT_BUDGET + 7)
    ep = epanechnikov_kernel()
    got = kde_evaluate(sample, ep, 0.05, queries)
    assert np.array_equal(got[-7:], kde_evaluate(sample, ep, 0.05, queries[-7:]))
    err = np.max(np.abs(got - dense_kde_evaluate(sample, ep, 0.05, queries)))
    assert err <= moment_error_bound(sample, ep, 0.05)


def _grid_edge_h():
    """The h whose deviation grid alone holds RUN_BYTES at the memory model's cost a point."""
    h = 1e-3    # beta = 0 makes h = bandwidth_scale at every n
    cfg = {"experiment": "kde-rate", "n_grid": [256, 512, 1024], "replications": 1,
           "beta": 0.0, "bandwidth_scale": h}
    per_point = peak_bytes(cfg)["deviation grid"][0] / len(deviation_grid(h))
    return 4.0 * per_point / RUN_BYTES


@pytest.mark.parametrize("h", [2e-5, _grid_edge_h()])
def test_kde_evaluate_within_bound_at_small_h_and_large_n(h):
    # n = 2^20 with h = 2e-5, which a kde-rate config with beta = 0.78
    # reaches, and with the h whose 4/h grid points alone fill RUN_BYTES, just
    # below the smallest h that validate accepts.  A single origin for the whole sample was off by 6e-4
    # at h = 2e-5; block origins keep the error within the bound, and the
    # bound within 1 % of the rate.
    n = 2 ** 20
    sample = stream(5, 0).random(n)
    queries = np.concatenate([stream(5, 1).uniform(-1e-4, 1.0 + 1e-4, 64),
                              sample[:16] + h, sample[16:32]])
    ep = epanechnikov_kernel()
    err = np.max(np.abs(kde_evaluate(sample, ep, h, queries)
                        - dense_kde_evaluate(sample, ep, h, queries)))
    bound = moment_error_bound(sample, ep, h)
    assert err <= bound < 0.01 * np.sqrt(np.log(1.0 / h) / (n * h))
    assert np.array_equal(kde_evaluate(sample, box_kernel(), h, queries),
                          dense_kde_evaluate(sample, box_kernel(), h, queries))


def test_kde_evaluate_at_a_bandwidth_whose_square_underflows():
    # h^2 underflows to 0 below about 1e-154; the moments are taken of
    # (X - o)/h, so no power of h is ever formed
    h = 1e-299
    sample = stream(4, 0).random(200) * 1e-298
    queries = np.linspace(-1e-299, 1.1e-298, 40)
    ep = epanechnikov_kernel()
    got = kde_evaluate(sample, ep, h, queries)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - dense_kde_evaluate(sample, ep, h, queries))) <= \
        moment_error_bound(sample, ep, h)


@pytest.mark.parametrize("length", [1, 2, 3, 15, 16, 17, 1000])
def test_prefix_sums_match_exact_prefixes(length):
    # integer-valued terms sum exactly; random terms stay within the rounding
    # of 2 sqrt(len) + 3 additions
    ints = stream(length, 0).integers(-1000, 1000, length).astype(float)
    assert np.array_equal(_prefix_sums(ints), np.concatenate(([0.0], np.cumsum(ints))))
    g = stream(length, 1).normal(size=length)
    exact = [math.fsum(g[:i]) for i in range(length + 1)]
    slack = (2 * math.sqrt(length) + 3) * np.finfo(float).eps / 2 * np.sum(np.abs(g))
    assert np.max(np.abs(_prefix_sums(g) - exact)) <= slack


def test_window_keeps_samples_one_ulp_beyond_x_pm_h():
    # A sample one ulp outside fl(x - h) or fl(x + h) can still give a computed
    # |(x - X)/h| of exactly 1, where the box kernel is 0.5.
    rng = np.random.default_rng(0)
    cases = []
    for _ in range(10_000):
        x, h = rng.uniform(-1.0, 1.0), rng.uniform(1e-3, 1.0)
        for X in (np.nextafter(x - h, -np.inf), np.nextafter(x + h, np.inf)):
            if abs((x - X) / h) == 1.0:
                cases.append((x, h, X))
        if len(cases) >= 50:
            break
    assert len(cases) >= 50
    for x, h, X in cases:
        sample = np.array([X, x + 3.0 * h])
        assert kde_evaluate(sample, box_kernel(), h, x) == 0.25 / h
        assert kde_evaluate(sample, box_kernel(), h, x) == dense_kde_evaluate(sample, box_kernel(), h, x)


@pytest.mark.parametrize("h,n,min_queries", [(0.01, 2 ** 20, 400), (2.0, 2 ** 22, 10)])
def test_kde_evaluate_memory_bounded_by_sample_size(h, n, min_queries):
    # The sample order, the sorted sample and one buffer row are n-sized; a
    # query's window is evaluated in pieces of at most ELEMENT_BUDGET
    # samples, also at h = 2, where every window holds the whole sample.  A
    # dense (query chunk x n) evaluation needs several times more, and so
    # does a whole window at once once n is well above ELEMENT_BUDGET.
    sample = stream(21, 0).random(n)
    grid = deviation_grid(h)
    assert len(grid) > min_queries
    tracemalloc.start()
    try:
        kde_evaluate(sample, epanechnikov_kernel(), h, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * (4 * n + 12 * ELEMENT_BUDGET)


def test_uniform_sample_interior_level():
    # smoothed target of a uniform density is 1 in the interior; the MC error
    # scale is sqrt(v_K / (n h))
    rng = stream(123, 0)
    sample = rng.random(100_000)
    val = kde_evaluate(sample, box_kernel(), 0.05, 0.5)
    assert abs(val - 1.0) <= 0.05


def test_smoothed_target_closed_form_vs_quadrature():
    ep = epanechnikov_kernel()
    grid = np.linspace(-0.05, 1.05, 23)
    closed = uniform_smoothed_target(ep, 0.07, grid)
    quad = smoothed_target_quadrature(ep, 0.07, grid, lambda y: 1.0, (0.0, 1.0))
    assert np.max(np.abs(closed - quad)) < 1e-7


def test_deviation_invariant_under_sample_duplication():
    rng = stream(5, 0)
    sample = rng.random(500)
    h = 0.1
    grid = deviation_grid(h)
    target = uniform_smoothed_target(box_kernel(), h, grid)
    d1 = uniform_deviation(sample, box_kernel(), h, grid, target)
    d2 = uniform_deviation(np.concatenate([sample, sample]), box_kernel(), h, grid, target)
    assert d1 == d2


def test_deviation_zero_against_own_values():
    rng = stream(6, 0)
    sample = rng.random(200)
    h = 0.15
    grid = deviation_grid(h)
    vals = kde_evaluate(sample, box_kernel(), h, grid)
    assert uniform_deviation(sample, box_kernel(), h, grid, vals) == 0.0


def test_deviation_requires_grid():
    with pytest.raises(ValueError, match="grid"):
        uniform_deviation(np.array([0.5]), box_kernel(), 0.1, np.array([]), np.array([]))


def test_estimator_mass_conservation():
    rng = stream(7, 0)
    sample = rng.random(20_000)
    h = 0.05
    grid = np.arange(-h, 1 + h, h / 20)
    est = kde_evaluate(sample, epanechnikov_kernel(), h, grid)
    assert abs(np.trapezoid(est, grid) - 1.0) <= 1e-3


def test_markov_deviation_near_iid_benchmark():
    # i.i.d. oracle by simulation plus the sqrt(log(1/h)/(nh)) scale
    n, beta = 2 ** 14, 0.2
    h = n ** -beta
    model = wrapped_doeblin_chain(0.5, 0.25)
    ep = epanechnikov_kernel()
    grid = deviation_grid(h)
    target = uniform_smoothed_target(ep, h, grid)
    devs_markov, devs_iid = [], []
    for r in range(10):
        from regenmc import simulate
        states = simulate(model, n, seed=1000 + r).states
        devs_markov.append(uniform_deviation(states, ep, h, grid, target))
        iid = stream(2000 + r, 0).random(n)
        devs_iid.append(uniform_deviation(iid, ep, h, grid, target))
    scale = np.sqrt(np.log(1 / h) / (n * h))
    markov = np.mean(devs_markov)
    assert scale / 3 <= markov <= 3 * scale
    assert markov >= np.mean(devs_iid)


def test_rate_experiment_slopes():
    model = wrapped_doeblin_chain(0.5, 0.25)
    cfg = KDEConfig(beta=0.2, scale=0.35)
    report = rate_experiment(model, epanechnikov_kernel(), cfg,
                             [2 ** j for j in range(8, 13)], 8, seed=3)
    assert report.theory_slope == -0.4
    assert -0.55 <= report.slope <= -0.2
    devs = [r["mean_dev"] for r in report.rows]
    inversions = sum(a < b for a, b in zip(devs, devs[1:]))
    assert inversions <= 1


def test_rate_experiment_fixed_bandwidth_clt():
    model = wrapped_doeblin_chain(0.5, 0.25)
    cfg = KDEConfig(beta=0.0, scale=0.1)
    report = rate_experiment(model, epanechnikov_kernel(), cfg,
                             [2 ** j for j in range(8, 15)], 20, seed=4)
    assert report.theory_slope == -0.5
    assert abs(report.slope + 0.5) <= 0.1


def test_rate_experiment_needs_three_sizes():
    with pytest.raises(ValueError, match="3 grid points"):
        rate_experiment(wrapped_doeblin_chain(0.5, 0.25), box_kernel(),
                        KDEConfig(beta=0.2), [256, 512], 2, seed=0)


def test_grid_refinement_stability():
    rng = stream(11, 0)
    sample = rng.random(4096)
    h = 4096 ** -0.2
    ep = epanechnikov_kernel()
    coarse = deviation_grid(h, spacing_factor=4.0)
    fine = deviation_grid(h, spacing_factor=8.0)
    d_coarse = uniform_deviation(sample, ep, h, coarse,
                                 uniform_smoothed_target(ep, h, coarse))
    d_fine = uniform_deviation(sample, ep, h, fine,
                               uniform_smoothed_target(ep, h, fine))
    assert abs(d_fine - d_coarse) / d_fine < 0.05
