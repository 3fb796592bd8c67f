import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regenmc import (
    BlockMeasure,
    EmpiricalMeasure,
    EvaluableClass,
    LiftedClass,
    Trajectory,
    check_lifted_covering_bound,
    check_truncated_covering_bound,
    covering_checks,
    covering_number,
    covering_numbers,
    halfline_class,
    kernel_class,
    lift_measure,
    lift_second_moment_gap,
    extract_blocks,
    table_class,
)
from regenmc.cli import _lemma_trial
import regenmc.function_classes as fc
from regenmc.function_classes import TableFunction, _distance_matrix
from regenmc.kde import box_kernel, epanechnikov_kernel
from regenmc.parallel import ELEMENT_BUDGET
from regenmc.rng import child_seed

from .helpers import (byte_keyed_merge, cli_peak_rss_mb, lifted_class_values,
                      member_block_values, reference_covering_check, reference_covering_number,
                      reference_distance_matrix, reference_lemma_trial, reference_lift_measure)


def uniform_measure(points):
    """Equal weights on ``points``."""
    return EmpiricalMeasure(points=points, weights=np.full(len(points), 1.0 / len(points)))


def random_instance(rng, max_states=4, max_members=6, max_blocks=5, max_len=4):
    n_states = int(rng.integers(2, max_states + 1))
    n_members = int(rng.integers(1, max_members + 1))
    n_blocks = int(rng.integers(1, max_blocks + 1))
    tables = rng.uniform(-1, 1, (n_members, n_states))
    blocks = tuple(rng.integers(0, n_states, int(rng.integers(1, max_len + 1)))
                   for _ in range(n_blocks))
    weights = rng.dirichlet(np.ones(n_blocks))
    return table_class(tables), BlockMeasure(blocks=blocks, weights=weights)


# ---------------------------------------------------------------------------
# Covering numbers
# ---------------------------------------------------------------------------


def test_identical_members_cover_with_one_ball():
    cls = table_class(np.ones((3, 2)))
    measure = uniform_measure(np.array([0, 1]))
    for eps in (0.01, 0.5, 3.0):
        assert covering_number(cls, measure, eps, "exact") == 1
        assert covering_number(cls, measure, eps, "greedy") == 1


def test_two_point_geometry():
    # members at L2(Q) distance exactly 1 under the uniform two-atom measure
    cls = table_class(np.array([[0.0, 0.0], [1.0, 1.0]]))
    measure = uniform_measure(np.array([0, 1]))
    assert covering_number(cls, measure, 0.5, "exact") == 2
    assert covering_number(cls, measure, 1.5, "exact") == 1
    assert covering_number(cls, measure, 1.0, "exact") == 1  # closed balls


def test_greedy_sandwiched_by_exact():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n_states = int(rng.integers(2, 6))
        tables = rng.uniform(-1, 1, (int(rng.integers(2, 11)), n_states))
        cls = table_class(tables)
        measure = EmpiricalMeasure(points=np.arange(n_states),
                                   weights=rng.dirichlet(np.ones(n_states)))
        eps = float(rng.uniform(0.05, 1.5))
        g = covering_number(cls, measure, eps, "greedy")
        assert covering_number(cls, measure, eps, "exact") <= g
        assert g <= covering_number(cls, measure, eps / 2, "exact")


def test_exact_cover_size_cap():
    cls = table_class(np.eye(20))
    measure = uniform_measure(np.arange(20))
    with pytest.raises(ValueError, match="greedy"):
        covering_number(cls, measure, 0.1, "exact")


def test_covering_requires_positive_radius():
    cls = table_class(np.ones((2, 2)))
    with pytest.raises(ValueError):
        covering_number(cls, uniform_measure(np.array([0, 1])), 0.0)


def test_distance_matrix_equals_whole_array_reference():
    rng = np.random.default_rng(12)
    # the last shapes take several row slices, or one row per slice
    shapes = [(int(rng.integers(1, 17)), int(rng.integers(1, 3000))) for _ in range(300)]
    shapes += [(16, 2 ** 15), (9, 40_000), (5, 2 ** 17 + 3), (3, ELEMENT_BUDGET + 5)]
    for m, n in shapes:
        values = rng.uniform(-1, 1, (m, n))
        weights = rng.dirichlet(np.ones(n))
        assert np.array_equal(_distance_matrix(values, weights),
                              reference_distance_matrix(values, weights)), (m, n)


def test_distance_matrix_memory_bounded_by_row_slices():
    # A slice holds max(ELEMENT_BUDGET, m * n) differences here (one row of
    # 2^20), and two slice-sized arrays live at once: the differences and
    # their squares.  The whole m x m x n array needs 2 x 134 MB.
    m, n = 16, 2 ** 16
    rng = np.random.default_rng(0)
    values = rng.uniform(-1, 1, (m, n))
    weights = rng.dirichlet(np.ones(n))
    tracemalloc.start()
    try:
        _distance_matrix(values, weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 3 * max(ELEMENT_BUDGET, m * n)


def _grid_with_ties(rng, dist):
    """Random radii, every pairwise distance (closed-ball ties), repeats, unsorted."""
    pairs = dist[np.triu_indices(len(dist), 1)]
    grid = np.concatenate([rng.uniform(0.01, 2.0, 6), pairs, pairs[:2], [0.3, 0.3]])
    return [float(e) for e in rng.permutation(grid[grid > 0])]


def test_covering_numbers_equal_per_eps_reference():
    rng = np.random.default_rng(31)
    for _ in range(80):
        n_states = int(rng.integers(2, 7))
        tables = rng.uniform(-1, 1, (int(rng.integers(1, 13)), n_states))
        # duplicate members exercise the exact cover's dedup
        dups = int(rng.integers(0, 3))
        tables[rng.integers(0, len(tables), dups)] = tables[0]
        cls = table_class(tables)
        measure = EmpiricalMeasure(points=np.arange(n_states),
                                   weights=rng.dirichlet(np.ones(n_states)))
        grid = _grid_with_ties(rng, reference_distance_matrix(cls.evaluate(measure.points),
                                                              measure.weights))
        for method in ("exact", "greedy"):
            expected = [reference_covering_number(cls, measure, e, method) for e in grid]
            assert covering_numbers(cls, measure, grid, method) == expected
            assert [covering_number(cls, measure, e, method) for e in grid] == expected


def test_covering_checks_equal_per_eps_reference():
    rng = np.random.default_rng(32)
    for _ in range(60):
        cls, bm = random_instance(rng, max_members=8, max_blocks=6, max_len=5)
        # zero-weight blocks drop out of the lifted measure
        w = bm.weights.copy()
        w[rng.integers(0, len(w), int(rng.integers(0, len(w))))] = 0.0
        if w.sum() > 0:
            bm = BlockMeasure(blocks=bm.blocks, weights=w / w.sum())
        q = lift_measure(bm)
        grid = _grid_with_ties(rng, reference_distance_matrix(cls.evaluate(q.points), q.weights))
        # trunc 0 kills every block: the left class is {0} and rhs is None
        for trunc in (None, 0, 1, 3):
            for method in ("exact", "greedy"):
                try:
                    expected = [reference_covering_check(cls, bm, e, trunc, method) for e in grid]
                except ValueError as exc:
                    with pytest.raises(ValueError, match=str(exc)):
                        covering_checks(cls, bm, grid, [trunc] * len(grid), method)
                    continue
                got = covering_checks(cls, bm, grid, [trunc] * len(grid), method)
                assert [(c.lhs, c.rhs, c.holds) for c in got] == expected
                if trunc is None:
                    single = [check_lifted_covering_bound(cls, bm, e, method) for e in grid]
                else:
                    single = [check_truncated_covering_bound(cls, bm, e, trunc, method)
                              for e in grid]
                assert single == got


def test_covering_checks_with_mixed_levels_equal_per_pair_reference(monkeypatch):
    rng = np.random.default_rng(33)
    matrices = []
    distance_matrix = fc._distance_matrix
    monkeypatch.setattr(fc, "_distance_matrix",
                        lambda values, weights: matrices.append(1) or distance_matrix(values, weights))
    for _ in range(60):
        cls, bm = random_instance(rng, max_members=8, max_blocks=6, max_len=5)
        q = lift_measure(bm)
        base = _grid_with_ties(rng, reference_distance_matrix(cls.evaluate(q.points), q.weights))
        longest = int(bm.lengths.max())
        # None, 0 (no block survives), partial levels and levels that keep every block
        levels = [None, 0, 1, 2, 2.5, longest, longest + 1]
        truncs = [levels[i] for i in rng.integers(0, len(levels), len(base))]
        # repeated eps under other levels
        grid, truncs = base + base[:3], truncs + [None, longest, 1]
        survivors = {tuple(np.flatnonzero(bm.lengths <= (np.inf if t is None else t)))
                     for t in truncs} - {()}
        for method in ("exact", "greedy"):
            matrices.clear()
            got = covering_checks(cls, bm, grid, truncs, method)
            assert [(c.lhs, c.rhs, c.holds) for c in got] == [
                reference_covering_check(cls, bm, e, t, method) for e, t in zip(grid, truncs)]
            # one distance matrix per side for each set of surviving blocks
            assert len(matrices) == 2 * len(survivors)


def test_covering_checks_need_one_trunc_per_eps():
    cls, bm = random_instance(np.random.default_rng(34))
    with pytest.raises(ValueError, match="one trunc per eps required, got 1 for 2"):
        covering_checks(cls, bm, [0.5, 1.0], [None], "exact")


def test_covering_numbers_exact_cap_error_matches_reference():
    cls = table_class(np.eye(20))
    measure = uniform_measure(np.arange(20))
    with pytest.raises(ValueError) as ref:
        reference_covering_number(cls, measure, 0.1, "exact")
    with pytest.raises(ValueError) as got:
        covering_numbers(cls, measure, [0.1, 0.5], "exact")
    assert str(got.value) == str(ref.value)
    assert covering_numbers(cls, measure, [0.1, 0.5], "greedy") == [
        reference_covering_number(cls, measure, e, "greedy") for e in (0.1, 0.5)]


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_covering_numbers_rejects_a_nonpositive_eps_anywhere_in_the_grid(bad):
    cls = table_class(np.ones((2, 2)))
    with pytest.raises(ValueError, match="eps must be positive"):
        covering_numbers(cls, uniform_measure(np.array([0, 1])), [0.5, bad], "exact")


@pytest.mark.parametrize("limits", [
    {"max_states": 4, "max_members": 6, "max_blocks": 5, "max_len": 4,
     "eps_grid": [round(0.1 * k, 10) for k in range(1, 21)]},
    {"max_states": 6, "max_members": 10, "max_blocks": 8, "max_len": 7,
     "eps_grid": [0.5, 0.05, 1.7, 0.5, 0.25, 3, 0.05]},
], ids=["default", "wide"])
def test_lemma_trial_rows_equal_per_eps_reference(limits):
    for seed in range(60):
        task = (seed, child_seed(seed, seed))
        assert _lemma_trial(limits, task) == reference_lemma_trial(limits, task), seed


def test_verify_lemmas_peak_rss_bounded_at_sixteen_members(tmp_path):
    # Trial 1 of seed 5 draws 16 members and 91813 blocks.  The whole
    # 16 x 16 x blocks difference array and its square peaked the process at
    # 496 MB; row slices keep it near 200 MB.
    cfg = {"experiment": "verify-lemmas", "seed": 5, "trials": 2, "max_members": 16,
           "max_blocks": 100_000, "eps_grid": [0.5]}
    code, peak_mb = cli_peak_rss_mb(cfg, tmp_path)
    assert code == 0
    assert peak_mb < 300


# ---------------------------------------------------------------------------
# Lifted measures
# ---------------------------------------------------------------------------


def test_lift_single_singleton_block():
    bm = BlockMeasure(blocks=(np.array([3]),), weights=np.array([1.0]))
    q = lift_measure(bm)
    assert q.points.tolist() == [3] and q.weights.tolist() == [1.0]


def test_lift_single_pair_block():
    # length 2 block: each point gets weight 2/4 of the length-squared mass
    bm = BlockMeasure(blocks=(np.array([0, 1]),), weights=np.array([1.0]))
    q = lift_measure(bm)
    assert np.allclose(q.weights, [0.5, 0.5])


def test_lift_two_blocks_hand_evaluated():
    # blocks (a) and (b,b), equal weight: numerators 1*1 and 2*2 over
    # denominator (1+4)/2 -> masses 1/5 and 4/5
    bm = BlockMeasure(blocks=(np.array([0]), np.array([1, 1])), weights=np.array([0.5, 0.5]))
    q = lift_measure(bm)
    assert np.allclose(sorted(q.weights), [0.2, 0.8])


def test_lift_weights_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(50):
        _, bm = random_instance(rng)
        q = lift_measure(bm)
        assert abs(q.weights.sum() - 1.0) <= 1e-12


def test_lift_truncation_requires_survivors():
    bm = BlockMeasure(blocks=(np.array([0, 1, 2]),), weights=np.array([1.0]))
    with pytest.raises(ValueError, match="truncation"):
        lift_measure(bm, trunc=2)
    # the only survivor has weight 0
    bm = BlockMeasure(blocks=(np.array([0]), np.array([1, 2])), weights=np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="lifted measure has zero mass"):
        lift_measure(bm, trunc=1)


@given(lengths=st.lists(st.integers(1, 6), min_size=1, max_size=8),
       n_values=st.integers(1, 6), zeros=st.integers(0, 7),
       trunc=st.one_of(st.none(), st.integers(1, 6)), floats=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_lift_measure_equals_per_block_reference(lengths, n_values, zeros, trunc, floats, seed):
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1, 1, n_values) if floats else np.arange(n_values)
    blocks = tuple(rng.choice(values, ell) for ell in lengths)
    w = rng.dirichlet(np.ones(len(lengths)))
    w[rng.permutation(len(lengths))[:min(zeros, len(lengths) - 1)]] = 0.0
    bm = BlockMeasure(blocks=blocks, weights=w / w.sum())
    try:
        ref = reference_lift_measure(bm, trunc)
    except ValueError as exc:
        match = "no blocks survive" if "truncation" in str(exc) else "lifted measure has zero mass"
        with pytest.raises(ValueError, match=match):
            lift_measure(bm, trunc)
        return
    got = lift_measure(bm, trunc)
    assert np.array_equal(got.points, ref[0]) and np.array_equal(got.weights, ref[1])


def _atom_set(points, weights):
    return {(tuple(p), w) for p, w in zip(np.asarray(points).tolist(), np.asarray(weights).tolist())}


@given(lengths=st.lists(st.integers(1, 6), min_size=1, max_size=8),
       n_values=st.integers(1, 6), trunc=st.one_of(st.none(), st.integers(1, 6)),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_lift_measure_of_vector_states_equals_byte_keyed_merge(lengths, n_values, trunc, seed):
    # d = 2 states drawn from few distinct rows, so atoms repeat within and across blocks
    rng = np.random.default_rng(seed)
    rows = np.round(rng.uniform(-1, 1, (n_values, 2)), 1) + 0.0
    bm = BlockMeasure(blocks=tuple(rows[rng.integers(0, n_values, ell)] for ell in lengths),
                      weights=rng.dirichlet(np.ones(len(lengths))))
    if trunc is not None and not np.any(bm.lengths <= trunc):
        return
    kept = [(b, w) for b, w in zip(bm.blocks, bm.weights) if trunc is None or len(b) <= trunc]
    ref_p, ref_w = byte_keyed_merge(np.concatenate([b for b, _ in kept]),
                                    np.concatenate([np.full(len(b), w * len(b)) for b, w in kept]))
    got = lift_measure(bm, trunc)
    assert got.points.shape == ref_p.shape
    # lift_measure normalizes by the total over its atoms in sorted row order
    total = ref_w[np.lexsort((ref_p[:, 1], ref_p[:, 0]))].sum()
    assert _atom_set(got.points, got.weights) == _atom_set(ref_p, ref_w / total)


def test_lift_measure_merges_signed_zero_rows():
    bm = BlockMeasure(blocks=(np.array([[-0.0, 1.0], [0.5, 0.5]]), np.array([[0.0, 1.0]])),
                      weights=np.array([0.25, 0.75]))
    # the byte-keyed merge keeps (-0.0, 1) and (0.0, 1) apart
    assert len(byte_keyed_merge(bm.all_states, np.ones(3))[0]) == 3
    got = lift_measure(bm)
    # weights 0.25 * 2 on each row of the first block, 0.75 on the second
    assert got.points.tolist() == [[0.0, 1.0], [0.5, 0.5]]
    assert got.weights.tolist() == [(0.5 + 0.75) / 1.75, 0.5 / 1.75]


# ---------------------------------------------------------------------------
# Covering comparison checks
# ---------------------------------------------------------------------------


def test_lifted_bound_singleton():
    cls = table_class(np.array([[0.3, -0.2]]))
    bm = BlockMeasure(blocks=(np.array([0, 1]), np.array([1])),
                      weights=np.array([0.5, 0.5]))
    check = check_lifted_covering_bound(cls, bm, 0.5)
    assert check.holds and check.lhs == 1 and check.rhs == 1


def test_lifted_bound_length_one_blocks_isometric():
    # every block a single state: the lift is an isometry onto the base class
    rng = np.random.default_rng(7)
    cls = table_class(rng.uniform(-1, 1, (5, 3)))
    bm = BlockMeasure(blocks=tuple(np.array([k % 3]) for k in range(4)),
                      weights=np.full(4, 0.25))
    for eps in (0.1, 0.4, 1.0):
        check = check_lifted_covering_bound(cls, bm, eps)
        assert check.lhs == check.rhs and check.holds


def test_truncation_inactive_when_l_exceeds_lengths():
    rng = np.random.default_rng(11)
    cls, bm = random_instance(rng)
    check = check_truncated_covering_bound(cls, bm, 0.3, trunc=10)
    assert check.holds


def test_truncation_kills_everything():
    cls = table_class(np.array([[1.0, -1.0]]))
    bm = BlockMeasure(blocks=(np.array([0, 1]),), weights=np.array([1.0]))
    check = check_truncated_covering_bound(cls, bm, 0.5, trunc=0)
    assert check.holds and check.lhs == 1 and check.rhs is None


def test_covering_bounds_hold_on_random_instances():
    rng = np.random.default_rng(42)
    eps_grid = np.round(np.arange(0.1, 2.01, 0.1), 10)
    for _ in range(100):
        cls, bm = random_instance(rng)
        eps = float(rng.choice(eps_grid))
        trunc = int(rng.integers(1, 5))
        assert check_lifted_covering_bound(cls, bm, eps).holds
        assert check_truncated_covering_bound(cls, bm, eps, trunc).holds


def test_second_moment_convexity_gap_nonpositive():
    rng = np.random.default_rng(99)
    for _ in range(100):
        cls, bm = random_instance(rng)
        assert lift_second_moment_gap(cls, bm) <= 1e-9


# ---------------------------------------------------------------------------
# Built-in classes
# ---------------------------------------------------------------------------


def test_halfline_max_threshold_is_constant_one():
    cls = halfline_class([10.0])
    vals = cls.evaluate(np.array([[0.1], [0.5], [9.9]]))
    assert np.all(vals == 1.0)


def test_halfline_covering_paper_bound():
    # covering count of half-line indicators on 100 uniform points at radius
    # eps stays below 2 / eps^2
    rng = np.random.default_rng(5)
    pts = rng.random(100)[:, None]
    cls = halfline_class(np.linspace(0.0, 1.0, 101))
    measure = uniform_measure(pts)
    eps = 0.5
    assert covering_number(cls, measure, eps, "greedy") <= 2 * eps ** -2


def test_halfline_distinct_members_bounded_by_data():
    rng = np.random.default_rng(8)
    pts = np.sort(rng.random(10))[:, None]
    cls = halfline_class(np.linspace(-0.1, 1.1, 50))
    vals = cls.evaluate(pts)
    distinct = np.unique(vals, axis=0)
    assert len(distinct) <= 11


def test_kernel_class_point_evaluation():
    cls = kernel_class(box_kernel(), h=1.0, centers=[0.0])
    assert cls.evaluate(np.array([[0.0]]))[0, 0] == 0.5


def test_kernel_class_disjoint_supports():
    # centers farther apart than 2h: squared L2 distance adds the two norms
    k = box_kernel()
    cls = kernel_class(k, h=0.1, centers=[0.2, 0.8])
    pts = np.linspace(0, 1, 501)[:, None]
    measure = uniform_measure(pts)
    vals = cls.evaluate(pts)
    d_sq = np.sum((vals[0] - vals[1]) ** 2 * measure.weights)
    norms = np.sum(vals ** 2 * measure.weights, axis=1)
    assert np.isclose(d_sq, norms.sum())


def test_kernel_class_covering_polynomial_growth():
    rng = np.random.default_rng(21)
    k = box_kernel()
    cls = kernel_class(k, h=0.05, centers=np.linspace(0, 1, 50))
    measure = uniform_measure(rng.random(400)[:, None])
    for eps_rel in (0.25, 0.5, 1.0):
        count = covering_number(cls, measure, eps_rel * cls.envelope, "greedy")
        assert count <= cls.vc_c * eps_rel ** -cls.vc_v


def test_envelope_violation_detected():
    cls = EvaluableClass(members=(TableFunction(np.array([0.5, 2.0])),), envelope=1.0,
                         vc_c=25.0, vc_v=2.0)
    with pytest.raises(ValueError, match="envelope"):
        cls.evaluate(np.array([1]))


@pytest.mark.parametrize("tables,message", [
    # a NaN in one member used to turn max |value| > envelope False for the whole matrix
    ([[0.5, np.nan, 0.0], [0.5, 0.0, 5.0]], r"member 0 takes nan at point 1,"),
    ([[0.5, 0.0, 0.0], [0.5, 0.0, -5.0]], r"member 1 takes -5.0 at point 2,"),
    ([[0.5, np.inf, 0.0]], r"member 0 takes inf at point 1,"),
    ([[0.5, 0.0, 0.0], [0.5, -np.inf, 0.0]], r"member 1 takes -inf at point 1,"),
])
def test_envelope_check_rejects_non_finite_values_naming_member_and_point(tables, message):
    cls = EvaluableClass(members=tuple(TableFunction(np.array(t)) for t in tables), envelope=1.0,
                         vc_c=25.0, vc_v=2.0)
    with pytest.raises(ValueError, match=message + " outside the declared envelope 1.0"):
        cls.evaluate(np.array([0, 1, 2]))


def test_evaluate_holds_one_value_matrix():
    # The members fill one (m, n) matrix; a stacked copy of their rows or an
    # |values| temporary would each add another m x n floats
    cls = halfline_class(np.linspace(0.05, 0.95, 10))
    points = np.random.default_rng(0).random((100_000, 1))
    tracemalloc.start()
    try:
        vals = cls.evaluate(points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * vals.nbytes


def test_vc_floor_warning():
    with pytest.warns(UserWarning, match="admissible"):
        table_class(np.array([[1.0, 0.0]]), vc_c=1.0, vc_v=2.0)


@pytest.mark.parametrize("make,message", [
    (lambda: table_class([[0.0, 1.0], [0.0, 1.0, 0.5]]),
     r"tables rows must have equal lengths, got \[2, 3\]"),
    (lambda: table_class([0.0, 1.0]), r"tables must be a list of rows, got shape \(2,\)"),
    (lambda: halfline_class([[0.1, 0.2]]), r"thresholds must be a list of numbers"),
    (lambda: kernel_class(box_kernel(), 0.1, [[0.5]]), r"centers must be a list of numbers"),
    (lambda: kernel_class(box_kernel(), float("nan"), [0.5]),
     r"bandwidth h must be positive, got nan"),
    (lambda: table_class([[0.0, 1.0]], vc_v=0.5), r"vc_v must be >= 1, got 0.5"),
    (lambda: table_class([[0.0, 1.0]], vc_v=1e6), r"vc_v is too large, got 1000000.0"),
    (lambda: table_class([[0.0, 1.0]], vc_c=-1.0), r"vc_C must be positive, got -1.0"),
])
def test_class_constructors_name_the_bad_value(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_empirical_measure_weight_validation():
    with pytest.raises(ValueError):
        EmpiricalMeasure(points=np.array([0, 1]), weights=np.array([0.6, 0.6]))
    # abs(nan - 1) > 1e-12 is False, so NaN weights need their own check
    with pytest.raises(ValueError, match="weights must be finite, got nan"):
        EmpiricalMeasure(points=np.array([0, 1]), weights=np.array([np.nan, np.nan]))
    with pytest.raises(ValueError, match="weights must be finite, got nan"):
        BlockMeasure(blocks=(np.array([0, 1]),), weights=[np.nan])


def test_lifted_class_truncation_zeroes_long_blocks():
    cls = table_class(np.array([[1.0, 1.0]]))
    bm = BlockMeasure(blocks=(np.array([0]), np.array([0, 1, 1])),
                      weights=np.array([0.5, 0.5]))
    vals = LiftedClass(cls, trunc=2).evaluate(bm)
    assert vals.tolist() == [[1.0, 0.0]]


@given(kind=st.sampled_from(["kernel", "table"]), n=st.integers(1, 300),
       members=st.integers(1, 6), trunc=st.one_of(st.none(), st.integers(1, 8)),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_lifted_values_bit_identical_to_per_member_reference(kind, n, members, trunc, seed):
    rng = np.random.default_rng(seed)
    if kind == "kernel":
        cls = kernel_class(epanechnikov_kernel(), float(rng.uniform(0.05, 0.5)),
                           rng.uniform(0, 1, members))
        states = rng.uniform(0, 1, (n, 1))
    else:
        cls = table_class(rng.uniform(-1, 1, (members, 5)))
        states = rng.integers(0, 5, n)
    flags = rng.random(n) < rng.uniform(0.05, 0.9)
    blocks = extract_blocks(Trajectory(states=states, regen_flags=flags, seed=0, model_id="h"))
    ref = member_block_values(blocks, cls)
    got = blocks.block_values(cls.evaluate)
    assert np.array_equal(got, ref)
    if blocks.n_complete == 0:
        return
    # same row layout too: row reductions add in the reference's order
    assert np.array_equal((got ** 2).mean(axis=1), (ref ** 2).mean(axis=1))
    bm = BlockMeasure(blocks=tuple(blocks.states[s:e] for s, e in blocks.complete_bounds),
                      weights=rng.dirichlet(np.ones(blocks.n_complete)))
    lifted = LiftedClass(cls, trunc)
    ref = lifted_class_values(lifted, bm)
    got = lifted.evaluate(bm)
    assert np.array_equal(got, ref)
    assert np.array_equal(np.sum(got ** 2 * bm.weights, axis=1),
                          np.sum(ref ** 2 * bm.weights, axis=1))
