import concurrent.futures
import math

import numpy as np
import pytest

import regenmc.kde as kde
import regenmc.metropolis as metropolis
import regenmc.rademacher as rademacher
from regenmc import (
    KDEConfig,
    UniformStep,
    box_kernel,
    build_minorization,
    compare_bound_vs_empirical,
    credible_interval_experiment,
    halfline_class,
    rate_experiment,
    simulate,
    supremum_growth_experiment,
    uniform_target,
    wrapped_doeblin_chain,
)
from regenmc.kde import RateReport
from regenmc.metropolis import QuantileSeries
from regenmc.parallel import fit_loglog_slope, mean_se, pool_map, replicate, replication_seeds
from regenmc.rademacher import BoundReport
from regenmc.rng import child_seed

from .helpers import strict_loads

SEED = 3


def _seeds(x, s, s1=None):
    return x, s, s1


# ---------------------------------------------------------------------------
# The replication driver
# ---------------------------------------------------------------------------


def test_replicate_groups_per_point_with_derived_seeds():
    groups = replicate(_seeds, [10, 20, 30], 2, SEED)
    assert groups == [[(x, child_seed(SEED, i, r), None) for r in range(2)]
                      for i, x in enumerate([10, 20, 30])]
    assert [[s for _, s, _ in g] for g in groups] == replication_seeds(SEED, 3, 2)


def test_replicate_second_stream_and_jobs_invariance():
    serial = replicate(_seeds, [10, 20], 3, SEED, streams=2)
    assert serial[1][2] == (20, child_seed(SEED, 1, 2), child_seed(SEED, 1, 2, 1))
    assert replicate(_seeds, [10, 20], 3, SEED, jobs=2, streams=2) == serial


def test_replicate_requires_a_replication():
    with pytest.raises(ValueError, match="replications"):
        replicate(_seeds, [10], 0, SEED)


class _RecordingExecutor:
    """A ProcessPoolExecutor stand-in that records max_workers and maps in this process."""

    max_workers = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("jobs, n_items, workers", [(4096, 10, 10), (3, 10, 3), (2, 2, 2)])
def test_pool_map_starts_no_more_workers_than_items(monkeypatch, jobs, n_items, workers):
    # the executor forks every worker at its first submit, so --jobs 4096 on
    # verify_lemmas_tiny.json (10 trials) would otherwise fork 4096 processes
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(_RecordingExecutor, "max_workers", [])
    assert pool_map(abs, range(-n_items, 0), jobs) == list(range(n_items, 0, -1))
    assert _RecordingExecutor.max_workers == [workers]


def test_mean_se_single_value_has_zero_error():
    assert mean_se([2.5]) == (2.5, 0.0)
    mean, se = mean_se([1.0, 2.0, 4.0])
    assert mean == pytest.approx(7 / 3) and se == pytest.approx(np.std([1, 2, 4], ddof=1) / math.sqrt(3))


def _boom(*args, **kwargs):
    raise ArithmeticError("boom")


def _rate(monkeypatch):
    monkeypatch.setattr(kde, "simulate", _boom)
    rate_experiment(wrapped_doeblin_chain(0.5, 0.25), box_kernel(), KDEConfig(beta=0.2),
                    [64, 128, 256], 2, SEED)


def _credible(monkeypatch):
    monkeypatch.setattr(metropolis, "mh_chain_regen", _boom)
    target, prop = uniform_target(), UniformStep(0.25)
    credible_interval_experiment(target, prop, build_minorization(target, prop), 0, 0.1,
                                 [64, 128, 256], 2, SEED, n_u=17)


def _bounds(monkeypatch):
    monkeypatch.setattr(rademacher, "simulate_split_retrospective", _boom)
    compare_bound_vs_empirical(wrapped_doeblin_chain(0.5, 0.25), halfline_class([0.5]),
                               [64, 128, 256], 2, SEED, mode="pm", m_const=1.0,
                               n_mc=2000, p=2.0)


def _growth(monkeypatch):
    supremum_growth_experiment(_boom, halfline_class([0.5]), [0.5], [64, 128, 256], 2, SEED)


@pytest.mark.parametrize("experiment, first_point", [
    (_rate, "64"), (_credible, "64"), (_bounds, "64"), (_growth, "64"),
], ids=["kde-rate", "mh-credible", "bounds", "growth"])
def test_worker_failure_names_seed_and_grid_point(monkeypatch, experiment, first_point):
    message = rf"replication with seed {child_seed(SEED, 0, 0)} \(n={first_point}\) failed: boom"
    with pytest.raises(RuntimeError, match=message):
        experiment(monkeypatch)


# ---------------------------------------------------------------------------
# Strict JSON in every report writer
# ---------------------------------------------------------------------------


def test_two_point_slope_error_is_nan():
    slope, se = fit_loglog_slope([1.0, 2.0], [1.0, 2.0])
    assert slope == pytest.approx(1.0) and math.isnan(se)


def test_bound_report_writes_non_finite_as_null():
    row = {"n": 64.0, "empirical": 0.0, "mc_err": 0.0, "bound": 3.0, "ratio": float("inf"),
           "trunc_opt": 4.0, "main_term": 2.0, "remainder": 1.0}
    report = BoundReport(rows=[row], growth_exponent=0.5, growth_exponent_se=float("nan"),
                         m_min=0.0, m_const=1.0, mode="em")
    payload = strict_loads(report.to_json())
    assert payload["rows"][0]["ratio"] is None and payload["growth_exponent_se"] is None
    assert payload["rows"][0]["bound"] == 3.0


def test_growth_report_two_point_fit_writes_null():
    model = wrapped_doeblin_chain(0.5, 0.25)
    cls = halfline_class([0.25, 0.5, 0.75])
    report = supremum_growth_experiment(lambda n, s: simulate(model, n, s).states, cls,
                                        [0.25, 0.5, 0.75], [128, 256], 2, SEED)
    assert math.isnan(report.exponent_se)
    assert strict_loads(report.to_json())["exponent_se"] is None


def test_growth_single_replication_has_zero_standard_error():
    model = wrapped_doeblin_chain(0.5, 0.25)
    cls = halfline_class([0.25, 0.5, 0.75])
    report = supremum_growth_experiment(lambda n, s: simulate(model, n, s).states, cls,
                                        [0.25, 0.5, 0.75], [128, 256, 512], 1, SEED)
    rows = strict_loads(report.to_json())["rows"]
    assert [r["std_err"] for r in rows] == [0.0, 0.0, 0.0]


def test_quantile_series_unchecked_rate_writes_null():
    series = QuantileSeries(reports=[], slope=float("nan"), slope_se=float("nan"), gamma=0.1,
                            density_floor=0.0, rate_checked=False)
    payload = strict_loads(series.to_json())
    assert payload["slope"] is None and payload["slope_se"] is None
    assert payload["rate_checked"] is False


def test_rate_report_nan_slope_error_writes_null():
    report = RateReport(rows=[{"n": 64.0, "h": 0.5, "mean_dev": 0.1, "std_err": 0.0,
                               "theory_rate": 0.2}],
                        slope=-0.4, slope_se=float("nan"), theory_slope=-0.4)
    payload = strict_loads(report.to_json())
    assert payload["slope_se"] is None and payload["slope"] == -0.4
