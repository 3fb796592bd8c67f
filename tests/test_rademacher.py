import json
import math
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regenmc import (
    Trajectory,
    block_rademacher_bound_em,
    block_rademacher_bound_pm,
    compare_bound_vs_empirical,
    empirical_block_rademacher,
    empirical_rademacher_iid,
    excess_probability_bound,
    exhaustive_signed_sup,
    expected_supremum_bound,
    extract_blocks,
    halfline_class,
    high_probability_level,
    iid_rademacher_bound,
    optimize_block_bound,
    simulate_split_retrospective,
    table_class,
    wrapped_doeblin_chain,
)
from regenmc import cli, rademacher
from regenmc.parallel import ELEMENT_BUDGET, pool_map
from regenmc.rademacher import SIGN_CHUNK, SLICE_FLOOR, _row_slices, _signed_sup_mc
from regenmc.regeneration import BlockSet
from regenmc.rng import stream

from .helpers import (cli_peak_rss_mb, reference_exhaustive_signed_sup,
                      reference_signed_sup_mc)


def traj_with_flags(states, flags):
    return Trajectory(states=np.asarray(states, dtype=np.int64),
                      regen_flags=np.asarray(flags, dtype=bool), seed=0, model_id="fixture")


def constant_one_class():
    return table_class(np.ones((1, 4)))


# ---------------------------------------------------------------------------
# Empirical estimates
# ---------------------------------------------------------------------------


def test_singleton_single_point_is_one():
    cls = constant_one_class()
    est = empirical_rademacher_iid(cls, np.array([0]), 500, seed=1)
    assert est.mean == 1.0 and est.mc_std_error == 0.0


def test_singleton_two_points_enumeration():
    # the four sign patterns give |sums| 2, 0, 0, 2 -> mean 1
    assert exhaustive_signed_sup(np.ones((1, 2))) == 1.0


def test_singleton_closed_form_vs_enumeration():
    for n in range(1, 13):
        closed = 2.0 ** (1 - n) * n * math.comb(n - 1, (n - 1) // 2)
        assert np.isclose(exhaustive_signed_sup(np.ones((1, n))), closed)


def test_mc_matches_exhaustive():
    rng = np.random.default_rng(0)
    values = rng.uniform(-1, 1, (6, 9))
    exact = exhaustive_signed_sup(values)
    est = _signed_sup_mc(values, 100_000, seed=5)
    assert abs(est.mean - exact) <= 4 * est.mc_std_error


def test_block_rademacher_two_blocks_enumeration():
    # blocks of lengths (1, 2), constant member: E|e1 + 2 e2| = 2
    traj = traj_with_flags([0, 1, 2, 3], [True, True, False, True])
    blocks = extract_blocks(traj)
    assert blocks.lengths.tolist() == [1, 2]
    cls = constant_one_class()
    est = empirical_block_rademacher(cls, blocks, 50_000, seed=2)
    assert abs(est.mean - 2.0) <= 4 * max(est.mc_std_error, 1e-12)


def _unit_block_chain(n, seed):
    """A 4-state chain of n steps flagged at every step, and its unit blocks."""
    traj = traj_with_flags(np.random.default_rng(seed).integers(0, 4, n), [True] * n)
    blocks = extract_blocks(traj)
    assert np.all(blocks.lengths == 1) and blocks.n_complete == n - 1
    return traj, blocks


@pytest.mark.parametrize("seed", range(3))
def test_block_equals_iid_bitwise_for_integer_unit_blocks(seed):
    # integer values have exact prefix sums, so each unit block sum is its point value
    traj, blocks = _unit_block_chain(2000, seed)
    cls = table_class(np.random.default_rng(seed).integers(-3, 4, (4, 4)).astype(float))
    assert np.array_equal(blocks.block_values(cls.evaluate), cls.evaluate(traj.states[1:]))
    blk = empirical_block_rademacher(cls, blocks, 2000, seed=11)
    iid = empirical_rademacher_iid(cls, traj.states[1:], 2000, seed=11)
    assert blk.mean == iid.mean and blk.mc_std_error == iid.mc_std_error
    assert np.array_equal(blk.mean_sq, iid.mean_sq)


@pytest.mark.parametrize("seed", range(3))
def test_block_within_rounding_of_iid_for_float_unit_blocks(seed):
    traj, blocks = _unit_block_chain(2000, seed)
    cls = table_class(np.random.default_rng(seed).uniform(-1, 1, (4, 4)))
    points = cls.evaluate(traj.states[1:])
    assert not np.array_equal(blocks.block_values(cls.evaluate), points)
    blk = empirical_block_rademacher(cls, blocks, 2000, seed=11)
    iid = empirical_rademacher_iid(cls, traj.states[1:], 2000, seed=11)
    # A unit block sum fl(c_(k+1) - c_k) of computed prefix sums is within
    # eps (|c_(k+1)| + |v_k|) <= 2 eps sum|v| of its point value v_k, so a
    # signed sum moves by at most 2 n eps sum|v|, and its rounding by as much.
    tol = 4 * len(points[0]) * np.finfo(float).eps * np.abs(points).sum(axis=1).max()
    assert abs(blk.mean - iid.mean) <= tol and abs(blk.mc_std_error - iid.mc_std_error) <= tol
    assert np.allclose(blk.mean_sq, iid.mean_sq, rtol=0, atol=tol)


def test_estimate_monotone_in_class_size():
    rng = np.random.default_rng(4)
    tables = rng.uniform(-1, 1, (6, 4))
    sample = rng.integers(0, 4, 30)
    small = empirical_rademacher_iid(table_class(tables[:3]), sample, 3000, seed=9)
    large = empirical_rademacher_iid(table_class(tables), sample, 3000, seed=9)
    assert large.mean >= small.mean


def test_sign_symmetry():
    rng = np.random.default_rng(6)
    values = rng.uniform(-1, 1, (3, 7))
    assert exhaustive_signed_sup(values) == exhaustive_signed_sup(-values)
    a = _signed_sup_mc(values, 4000, seed=8)
    b = _signed_sup_mc(-values, 4000, seed=8)
    assert a.mean == b.mean


# A tail of SLICE_FLOOR - 3 rows after three full slices of 1000-wide rows.
_FOLDED_TAIL = 3 * (ELEMENT_BUDGET // 1000) + SLICE_FLOOR - 3


@pytest.mark.parametrize("m,n,n_mc,seed", [
    (10, 140_000, 100, 3),          # 8-row slices, the floor, and a 12-row tail
    (10, 3000, 2050, 1),            # a 2-row last chunk
    (7, 5000, 4099, 7),             # a 3-row last chunk
    (1, 1000, 500, 2),              # one member
    (4, 1000, _FOLDED_TAIL, 5),     # a tail folded into the slice before it
])
def test_sliced_sign_mc_bit_identical_to_whole_chunks(m, n, n_mc, seed):
    values = np.random.default_rng(seed).uniform(-1, 1, (m, n))
    est = _signed_sup_mc(values, n_mc, seed)
    assert (est.mean, est.mc_std_error) == reference_signed_sup_mc(values, n_mc, seed)


# With 2-4 members BLAS rounds an 8-row slice's matmul differently from the
# whole chunk's (by up to about 1e-12 at n = 29380), so the sliced estimate
# is equal only up to rounding there.
_FEW_MEMBERS = [(m, 29_380, 200, m) for m in (2, 3, 4)]


def _few_members_estimate(case):
    m, n, n_mc, seed = case
    est = _signed_sup_mc(np.random.default_rng(seed).uniform(-1, 1, (m, n)), n_mc, seed)
    return est.mean, est.mc_std_error


@pytest.mark.parametrize("m,n,n_mc,seed", _FEW_MEMBERS)
def test_sliced_sign_mc_within_rounding_of_whole_chunks(m, n, n_mc, seed):
    values = np.random.default_rng(seed).uniform(-1, 1, (m, n))
    mean, se = _few_members_estimate((m, n, n_mc, seed))
    ref_mean, ref_se = reference_signed_sup_mc(values, n_mc, seed)
    # Two orders of the same n-term sum differ by at most 2 gamma_(n-1) sum|x|
    # <= n eps sum|x| (Higham, Accuracy and Stability, sec. 4.2), and each
    # |x| <= max|v|, so each row's sup moves by at most n eps sum_k |v[f, k]|
    # <= n eps (n max|v|).  The mean of the sups moves by no more, and the SE,
    # their standard deviation over sqrt(n_mc), by less, up to the rounding of
    # their own sums (about n_mc eps mean^2), which is far smaller here.  One
    # wrong sign row would move the mean by about sqrt(n) / n_mc, far more.
    tol = n * np.finfo(float).eps * np.abs(values).sum(axis=1).max()
    assert abs(mean - ref_mean) <= tol
    assert abs(se - ref_se) <= tol


def test_sliced_sign_mc_independent_of_jobs():
    serial = [_few_members_estimate(case) for case in _FEW_MEMBERS]
    assert pool_map(_few_members_estimate, _FEW_MEMBERS, jobs=2) == serial


def _halfline_block_sums():
    blocks = extract_blocks(simulate_split_retrospective(wrapped_doeblin_chain(0.3, 0.25),
                                                         20_000, seed=4))
    return blocks.block_values(halfline_class(np.linspace(0.05, 0.95, 10)).evaluate)


# Values, and whether their signed sums are exact in float32 (and so take it).
_EXACTNESS = {
    "halfline-block-sums": (_halfline_block_sums, True),
    "sum-abs-at-2**24": (lambda: np.array([[2.0 ** 23, -2.0 ** 22, 2.0 ** 22 - 1, 1.0],
                                           [3.0, 0.0, -5.0, 7.0]]), True),
    "2**24+1-rounds-in-float32": (lambda: np.array([[2.0 ** 24, 1.0]]), False),
    # 13-row slices of odd width: each slice carries a half into the next
    "odd-width-counts": (lambda: np.random.default_rng(5).integers(0, 40, (6, 20_001)), True),
}


@pytest.mark.parametrize("case", list(_EXACTNESS))
def test_sign_mc_bit_identical_on_both_matmul_paths(case):
    make, exact = _EXACTNESS[case]
    values = make()
    assert rademacher._exact_in_float32(values) is exact
    est = _signed_sup_mc(values, 300, seed=9)
    assert (est.mean, est.mc_std_error) == reference_signed_sup_mc(values, 300, seed=9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_float32_path_refuses_non_finite_values(bad):
    assert not rademacher._exact_in_float32(np.array([[bad, 1.0], [2.0, 3.0]]))


_NOT_FINITE = {
    "nan": ([[1.0, 2.0, 3.0], [4.0, np.nan, 6.0]], "values are not finite: member 1, block 1 holds nan"),
    "inf": ([[1.0, 2.0, -np.inf], [np.inf, 5.0, 6.0]], "not finite: member 0, block 2 holds -inf"),
    "sums": ([[1.0, -1e308, 3.0], [1e308, 1e308, 1e300]],
             "sums or squares overflow: member 0, block 1 holds -1e\\+308"),
    "squares": ([[1e155, 2.0], [1.0, 3.0]],
                "sums or squares overflow: member 0, block 0 holds 1e\\+155"),
}


@pytest.mark.parametrize("case", list(_NOT_FINITE))
def test_sign_mc_refuses_what_is_not_finite(case):
    values, message = _NOT_FINITE[case]
    with pytest.raises(ValueError, match=message):
        _signed_sup_mc(np.array(values), 300, seed=9)


@pytest.mark.parametrize("extra,exact", [(0.0, True), (1.0, False)])
def test_sign_mc_exact_at_the_float32_bound(extra, exact):
    # Every row's sum of |v| is 2^24 + extra, in mixed and in equal signs.
    # At 2^24 the bit sums b . v reach 2^24 and 2 (b . v) reaches 2^25, all
    # exact in float32; at 2^24 + 1 the values take float64.
    values = np.array([[2.0 ** 23, -2.0 ** 22, 2.0 ** 22 - 1, -1.0 - extra],
                       [-2.0 ** 23, 2.0 ** 23 - 8, 3.0, -5.0 - extra],
                       [2.0 ** 23, 2.0 ** 22, 2.0 ** 22 - 2, 2.0 + extra]])
    assert (np.abs(values).sum(axis=1) == 2.0 ** 24 + extra).all()
    assert rademacher._exact_in_float32(values) is exact
    est = _signed_sup_mc(values, SIGN_CHUNK + 50, seed=3)
    assert (est.mean, est.mc_std_error) == reference_signed_sup_mc(values, SIGN_CHUNK + 50, 3)


@given(m=st.integers(1, 5), n=st.integers(1, 400), cap=st.integers(0, 2 ** 24),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_integer_values_under_the_bound_are_exact_in_float32(m, n, cap, seed):
    # every row's sum of |v| is at most n * (2^24 // n) <= 2^24
    top = min(cap, 2 ** 24 // n)
    values = np.random.default_rng(seed).integers(-top, top + 1, (m, n)).astype(float)
    assert rademacher._exact_in_float32(values)
    est = _signed_sup_mc(values, SIGN_CHUNK + 50, seed)
    assert (est.mean, est.mc_std_error) == reference_signed_sup_mc(values, SIGN_CHUNK + 50, seed)


def _multiplied_signs(monkeypatch, values, n_mc, seed):
    """Each chunk's sign rows as _signed_sups multiplies them, slice by slice."""
    chunks = []
    signed_sups = rademacher._signed_sups

    def record(values, total, sign_rows):
        rows = []

        def recorded(*args):
            rows.append(sign_rows(*args))
            return rows[-1]

        sups = signed_sups(values, total, recorded)
        chunks.append(np.vstack(rows))
        return sups

    monkeypatch.setattr(rademacher, "_signed_sups", record)
    _signed_sup_mc(values, n_mc, seed)
    return chunks


@pytest.mark.parametrize("n,n_mc", [
    (20_001, 35),               # 13-, 13- and 9-row slices of odd width: carried bits
    (1001, SIGN_CHUNK + 3),     # odd 261-row slices, then a chunk boundary
    (7, 5),                     # a total below SLICE_FLOOR
])
@pytest.mark.parametrize("fill,dtype", [(1.0, np.float32), (0.5, np.float64)])
def test_signs_are_the_raw_bits_low_bit_first(monkeypatch, n, n_mc, fill, dtype):
    # Sign j of a chunk, row by row, is bit j % 64 of the chunk's raw word
    # j // 64, the least significant bit first.  The bits are taken here by
    # shifts, not by unpackbits, so a numpy change to unpackbits' bit order
    # fails this before any digest moves.  Integer values are multiplied as
    # the 0/1 bits themselves, in float32; others as float64 +-1 signs,
    # which _signed_sups makes from the bits in place.
    seed = 17
    chunks = _multiplied_signs(monkeypatch, np.full((2, n), fill), n_mc, seed)
    assert len(chunks) == -(-n_mc // SIGN_CHUNK)
    for i, signs in enumerate(chunks):
        c = min(SIGN_CHUNK, n_mc - i * SIGN_CHUNK)
        words = stream(seed, i).bit_generator.random_raw(-(-c * n // 64))
        bits = (words[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
        bits = bits.astype(np.int64).ravel()[:c * n].reshape(c, n)
        assert signs.dtype == dtype
        assert np.array_equal(signs, bits if dtype == np.float32 else bits * 2 - 1)


def test_sign_stream_raw_words_pinned():
    # The raw words the signs of stream(17, 0) and stream(17, 1) start from.
    # A numpy change to the PCG64 output, its seeding or random_raw fails
    # this before any digest moves.
    assert stream(17, 0).bit_generator.random_raw(2).tolist() == [0xBA6F45ACE82DBB1B,
                                                                   0x8C1CDC91DE747E5E]
    assert stream(17, 1).bit_generator.random_raw(1).tolist() == [0x33B2CFAA781A7C7E]


def test_sign_bits_balanced_and_lag1_independent():
    # 10^7 signs of one chunk's stream, drawn in 101-row slices of odd
    # width, so every slice after the first starts with carried bits.  For
    # i.i.d. fair signs both the count of +1 and the count of equal
    # neighbours are Binomial(N, 1/2); each must lie within 5 standard
    # deviations, sqrt(N) / 2, of N / 2 (a false alarm has probability below
    # 10^-6).
    n, rows = 9_901, 101
    sign_rows = rademacher._raw_sign_rows(stream(23, 0).bit_generator, n)
    signs = np.concatenate([sign_rows(lo, lo + rows, np.float32).ravel()
                            for lo in range(0, 10 * rows, rows)])
    total = len(signs)
    assert total >= 10 ** 7
    plus = int((signs > 0).sum())
    equal = int((signs[1:] == signs[:-1]).sum())
    assert abs(plus - total / 2) <= 5 * math.sqrt(total) / 2
    assert abs(equal - (total - 1) / 2) <= 5 * math.sqrt(total - 1) / 2


@pytest.mark.parametrize("seed", range(24))
def test_sign_mc_within_4_se_of_exhaustive(seed):
    # Criterion 5's oracle on random value matrices: reals (float64 signs)
    # on even seeds and small integers (float32 signs) on odd ones.
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 7)), int(rng.integers(2, 13))
    values = rng.uniform(-1, 1, (m, n)) if seed % 2 == 0 else rng.integers(-9, 10, (m, n))
    exact = exhaustive_signed_sup(values)
    est = _signed_sup_mc(values, 20_000, seed)
    assert abs(est.mean - exact) <= 4 * max(est.mc_std_error, 1e-12)


@pytest.mark.parametrize("total,width", [(0, 10), (5, 10), (2048, 140_000), (2048, 3000),
                                         (_FOLDED_TAIL, 1000), (64, 0)])
def test_row_slices_cover_rows_within_budget(total, width):
    step = max(SLICE_FLOOR, ELEMENT_BUDGET // max(width, 1))
    slices = list(_row_slices(total, width))
    bounds = [lo for lo, _ in slices] + [total]
    assert bounds[0] == 0 and all(hi == lo for (_, hi), lo in zip(slices, bounds[1:]))
    for lo, hi in slices:
        assert min(SLICE_FLOOR, total) <= hi - lo < step + SLICE_FLOOR
    if total == _FOLDED_TAIL:
        assert slices[-1] == (2 * step, total)


@pytest.mark.parametrize("n", [14, 15, 16])
def test_exhaustive_sliced_equals_whole_enumeration(n):
    rng = np.random.default_rng(n)
    # real values take float64, integer ones float32, as int64 or as float
    cases = [rng.uniform(-1, 1, (5, n)), rng.integers(-9, 10, (5, n)),
             rng.integers(0, 2 ** 19, (3, n)).astype(float)]
    for values, exact in zip(cases, (False, True, True)):
        assert rademacher._exact_in_float32(values) is exact
        assert exhaustive_signed_sup(values) == reference_exhaustive_signed_sup(values)


def test_sign_mc_memory_bounded_by_budget():
    # A slice holds at most (step + SLICE_FLOOR - 1) rows, so at most
    # ELEMENT_BUDGET + SLICE_FLOOR * n elements.  Its raw words (1/8 byte an
    # element), unpacked bits (1 byte) and float signs (8 bytes) fit in three
    # slice-sized 8-byte arrays, next to a possible copy of the value matrix
    # and the sups.
    # A whole 2048-row chunk needs two 2048 x n arrays, 655 MB here.
    m, n, n_mc = 10, 20_000, 2048
    values = np.random.default_rng(0).uniform(-1, 1, (m, n))
    tracemalloc.start()
    try:
        _signed_sup_mc(values, n_mc, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * (3 * (ELEMENT_BUDGET + SLICE_FLOOR * n) + m * n + SIGN_CHUNK)


def test_bounds_peak_rss_independent_of_sign_draws(tmp_path):
    # About 78,000 complete blocks at n = 262144: whole 2000-row sign chunks
    # took 2.6 GB.
    cfg = {"experiment": "bounds", "seed": 1,
           "model": {"kind": "doeblin_uniform", "delta": 0.3, "width": 0.25},
           "class": {"kind": "halfline", "lo": 0.05, "hi": 0.95, "size": 10},
           "n_grid": [4096, 16384, 262144], "replications": 1, "n_mc": 2000,
           "mode": "em", "lambda": 0.178, "constants": {"M_const": 1.0}}
    code, peak_mb = cli_peak_rss_mb(cfg, tmp_path)
    assert code in (0, 2)
    assert peak_mb < 400


@pytest.mark.stress
def test_block_bounds_at_ten_times_n_grid_passes_within_rss_bound(tmp_path):
    # The benchmark's block-bounds config with every n_grid entry times 10,
    # about 200,000 complete blocks at the largest n.  Its peak RSS was
    # 236 MB, the chain and its class values at n = 655360; the sign Monte
    # Carlo holds one slice of signs at a time.
    cfg = {"experiment": "bounds", "seed": 1,
           "model": {"kind": "doeblin_uniform", "delta": 0.3, "width": 0.25},
           "class": {"kind": "halfline", "lo": 0.05, "hi": 0.95, "size": 10},
           "n_grid": [10240, 40960, 163840, 655360], "replications": 5, "n_mc": 2000,
           "mode": "em", "lambda": 0.178, "exponent_range": [0.45, 0.60],
           "constants": {"M_const": 1.0}}
    code, peak_mb = cli_peak_rss_mb(cfg, tmp_path)
    assert code == 0
    assert peak_mb < 400


def test_empty_inputs_rejected():
    cls = constant_one_class()
    with pytest.raises(ValueError):
        empirical_rademacher_iid(cls, np.array([], dtype=int), 500, seed=0)
    with pytest.raises(ValueError):
        empirical_rademacher_iid(cls, np.array([0]), 50, seed=0)
    blocks = extract_blocks(traj_with_flags([0, 1], [False, False]))
    with pytest.raises(ValueError, match="complete"):
        empirical_block_rademacher(cls, blocks, 500, seed=0)
    blocks = extract_blocks(traj_with_flags([0, 1], [True, True]))
    with pytest.raises(ValueError, match="n_mc"):
        empirical_block_rademacher(cls, blocks, 50, seed=0)


# ---------------------------------------------------------------------------
# Blockwise variance proxy
# ---------------------------------------------------------------------------


def variance_proxy(cls, blocks):
    """sigma'^2: the largest member mean of f'(B)^2 the block estimate carries."""
    return float(empirical_block_rademacher(cls, blocks, 100, seed=0).mean_sq.max())


def test_variance_proxy_unit_blocks():
    blocks = extract_blocks(traj_with_flags([1, 1, 1, 1], [True] * 4))
    assert variance_proxy(constant_one_class(), blocks) == 1.0


def test_variance_proxy_arithmetic():
    # blocks (1,2) and (3) under the identity: squared sums 9 and 9
    traj = traj_with_flags([0, 1, 2, 3], [True, False, True, True])
    blocks = extract_blocks(traj)
    cls = table_class(np.array([[0.0, 1.0, 2.0, 3.0]]))
    assert variance_proxy(cls, blocks) == 9.0


def test_variance_proxy_geometric_second_moment():
    delta = 0.3
    traj = simulate_split_retrospective(wrapped_doeblin_chain(delta, 0.25), 200_000, seed=31)
    blocks = extract_blocks(traj)
    cls = halfline_class([2.0])  # constant one on [0, 1): f'(B) = block length
    proxy = variance_proxy(cls, blocks)
    taus_sq = blocks.lengths.astype(float) ** 2
    se = taus_sq.std(ddof=1) / np.sqrt(len(taus_sq))
    assert abs(proxy - (2 - delta) / delta ** 2) <= 4 * se


def _count_block_values(monkeypatch):
    """The complete-block count of every BlockSet.block_values call, in order."""
    calls = []
    block_values = BlockSet.block_values

    def counted(self, f):
        calls.append(self.n_complete)
        return block_values(self, f)

    monkeypatch.setattr(BlockSet, "block_values", counted)
    return calls


def test_bound_experiment_builds_one_value_matrix_per_replication(monkeypatch):
    with_blocks = []
    extract = rademacher.extract_blocks

    def recorded(traj):
        blocks = extract(traj)
        with_blocks.append(blocks.n_complete > 0)
        return blocks

    monkeypatch.setattr(rademacher, "extract_blocks", recorded)
    calls = _count_block_values(monkeypatch)
    # At n = 6 some replications end before a second regeneration
    compare_bound_vs_empirical(wrapped_doeblin_chain(0.3, 0.25), halfline_class([0.3, 0.7]),
                               [6, 64], 8, seed=2, n_mc=100, p=2.0, mode="pm",
                               m_const=1.0)
    assert 0 < sum(with_blocks) < len(with_blocks) == 16
    assert len(calls) == sum(with_blocks)


def test_rademacher_run_builds_one_block_value_matrix(monkeypatch, tmp_path):
    config = json.loads((Path(__file__).parent / "configs" / "rademacher_tiny.json").read_text())
    calls = _count_block_values(monkeypatch)
    cli.run(config, tmp_path)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Bound calculators
# ---------------------------------------------------------------------------


def test_iid_bound_hand_value():
    assert iid_rademacher_bound(u=1.0, sigma=1.0, c=math.e, v=1.0, n=100.0,
                                m_const=1.0) == pytest.approx(11.0)


def test_iid_bound_scaling_in_n():
    b1 = iid_rademacher_bound(u=1.0, sigma=0.5, c=30.0, v=2.0, n=400.0, m_const=1.0)
    b2 = iid_rademacher_bound(u=1.0, sigma=0.5, c=30.0, v=2.0, n=800.0, m_const=1.0)
    log_term = math.log(30.0 * 1.0 / 0.5)
    fixed = 2.0 * log_term
    assert (b2 - fixed) == pytest.approx(math.sqrt(2) * (b1 - fixed))


def test_iid_bound_hypothesis_error():
    with pytest.raises(ValueError, match="sigma <= U"):
        iid_rademacher_bound(u=1.0, sigma=2.0, c=30.0, v=1.0, n=10.0, m_const=1.0)


def test_iid_bound_blows_up_as_sigma_vanishes():
    # below the turning point the log term dominates and the bound diverges
    vals = [iid_rademacher_bound(u=1.0, sigma=s, c=30.0, v=1.0, n=10.0, m_const=1.0)
            for s in (0.1, 0.03, 0.01, 1e-3, 1e-6)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 2 * vals[0]


def test_pm_bound_remainder_arithmetic():
    assert block_rademacher_bound_pm(10.0, u=1.0, sigma=1.0, c=30.0, v=1.0, n=100.0,
                                     m_const=0.0, p=2.0, tau_moment_p=4.0) == pytest.approx(40.0)


def test_pm_bound_level_where_the_remainder_overflows_is_infeasible():
    # 2^30^35 = 2^1050 overflows a double; the level is skipped, not an error
    kw = dict(u=1.0, sigma=1.0, c=30.0, v=1.0, n=100.0, m_const=1.0, p=36.0, tau_moment_p=4.0)
    with pytest.raises(ValueError, match=r"overflows at L = 1073741824\.0, p = 36\.0"):
        block_rademacher_bound_pm(2.0 ** 30, **kw)
    _, _, table = optimize_block_bound(partial(block_rademacher_bound_pm, **kw))
    assert table[-1][0] < 2.0 ** 30 and all(math.isfinite(v) for _, v in table)


def test_em_bound_remainder_arithmetic():
    assert block_rademacher_bound_em(2.0, u=1.0, sigma=1.0, c=30.0, v=1.0, n=10.0, m_const=0.0,
                                     lam=2.0, c_lambda=math.e ** 2) == pytest.approx(10.0)


def test_block_bound_main_term_is_iid_bound_at_scale_l_u():
    # the block main term is the i.i.d. formula with the envelope U replaced by L U
    for trunc, m_const in ((1.0, 1.0), (4.0, 0.37), (64.0, 2.5)):
        iid = iid_rademacher_bound(u=trunc * 0.5, sigma=0.4, c=30.0, v=2.0, n=300.0,
                                   m_const=m_const)
        pm = block_rademacher_bound_pm(trunc, u=0.5, sigma=0.4, c=30.0, v=2.0, n=300.0,
                                       m_const=m_const, p=2.0, tau_moment_p=0.0)
        em = block_rademacher_bound_em(trunc, u=0.5, sigma=0.4, c=30.0, v=2.0, n=300.0,
                                       m_const=m_const, lam=1.0, c_lambda=0.0)
        assert pm == em == iid


def test_block_bound_hypothesis_error():
    with pytest.raises(ValueError, match="L \\* U"):
        block_rademacher_bound_pm(2.0, u=1.0, sigma=3.0, c=30.0, v=1.0, n=10.0, m_const=1.0,
                                  p=2.0, tau_moment_p=4.0)
    with pytest.raises(ValueError, match="L \\* U"):
        block_rademacher_bound_em(2.0, u=1.0, sigma=3.0, c=30.0, v=1.0, n=10.0, m_const=1.0,
                                  lam=1.0, c_lambda=1.0)


def test_bound_calculators_take_only_required_keywords():
    # no bound formula may fall back on a default input or accept a stray one
    with pytest.raises(TypeError):
        iid_rademacher_bound(u=1.0, sigma=0.5, c=30.0, v=1.0, n=10.0)
    with pytest.raises(TypeError):
        block_rademacher_bound_pm(2.0, u=1.0, sigma=0.5, c=30.0, v=1.0, n=10.0, m_const=1.0,
                                  p=2.0, tau_moment_p=1.0, lam=1.0)
    with pytest.raises(TypeError):
        excess_probability_bound(2.0, 0.0, u=1.0, sigma=1.0, n=10.0, tau_mean=1.0,
                                 tau_param=1.0)


def test_optimizer_finds_interior_truncation():
    bound = partial(block_rademacher_bound_pm, u=1.0, sigma=2.0, c=30.0, v=1.0, n=10_000.0,
                    m_const=1.0, p=2.0, tau_moment_p=4.0)
    best, best_l, table = optimize_block_bound(bound)
    values = dict(table)
    grid = sorted(values)
    assert values[grid[0]] > best and values[grid[-1]] > best
    assert 1.0 < best_l < grid[-1]
    # L = 1 violates sigma' <= L U and is skipped
    assert grid[0] == 2.0


def test_optimizer_without_feasible_level():
    bound = partial(block_rademacher_bound_em, u=1.0, sigma=2.0 ** 40, c=30.0, v=1.0, n=10.0,
                    m_const=1.0, lam=1.0, c_lambda=1.0)
    with pytest.raises(ValueError, match="no feasible truncation level"):
        optimize_block_bound(bound)


def test_expected_supremum_bound_values():
    assert expected_supremum_bound(2.5, u=1.0, n=50.0, sup_mean=0.0, tau_sq_mean=1.0,
                                   initial_tau_mean=1.0, tau_mean=1.0) == pytest.approx(
        4 * 2.5 + 4.0)
    assert expected_supremum_bound(0.0, u=1.0, n=4.0, sup_mean=1.0, tau_sq_mean=1.0,
                                   initial_tau_mean=1.5, tau_mean=0.5) == pytest.approx(
        8.0 + 2 * 2.0)


def test_expected_supremum_bound_zero_class():
    assert expected_supremum_bound(0.0, u=1.0, n=100.0, sup_mean=0.0, tau_sq_mean=2.0,
                                   initial_tau_mean=1.0, tau_mean=2.0) == pytest.approx(
        2 * (1.0 + 2.0))


def test_tail_bound_hand_value():
    assert excess_probability_bound(1.0, 0.0, u=1.0, sigma=1.0, n=math.e, tau_mean=1.0,
                                    tau_param=1.0, k_const=1.0) == pytest.approx(
        math.exp(-1 / math.e))


def test_tail_bound_threshold_error():
    with pytest.raises(ValueError, match="1 \\+ K"):
        excess_probability_bound(0.5, 1.0, u=1.0, sigma=1.0, n=100.0, tau_mean=1.0,
                                 tau_param=1.0, k_const=2.0)


def test_tail_bound_inverts_to_delta_on_gaussian_branch():
    tail = dict(sigma=1.0, n=1000.0, tau_mean=2.0, k_const=1.5)
    for delta in (0.5, 0.1, 0.01):
        t = high_probability_level(delta, 3.0, **tail)
        assert excess_probability_bound(t, 3.0, u=1.0, tau_param=1.0,
                                        **tail) == pytest.approx(delta)


def test_tail_bound_linear_branch_for_large_t():
    # once t - K R_n exceeds n sigma^2 / (tau^3 U log n), the linear branch rules
    t = 1.0 + 100.0 / math.log(100.0) + 5.0
    gap = t - 1.0 * 0.0 - 0.0
    expected = math.exp(-min(gap ** 2 / 100.0, gap / math.log(100.0)))
    assert excess_probability_bound(t, 0.0, u=1.0, sigma=1.0, n=100.0, tau_mean=1.0,
                                    tau_param=1.0, k_const=1.0) == pytest.approx(expected)
    assert gap / math.log(100.0) < gap ** 2 / 100.0


def test_bounds_nonnegative_and_monotone_on_grids():
    # sigma-monotonicity needs n comfortably above v (U / sigma)^2
    for v in (1.0, 2.0):
        for u in (0.5, 1.0, 2.0):
            for n in (1e4, 1e6):
                vals = []
                for sigma_rel in np.linspace(0.2, 1.0, 9):
                    b = iid_rademacher_bound(u=u, sigma=sigma_rel * u, c=30.0 ** v, v=v, n=n,
                                             m_const=1.0)
                    assert b >= 0
                    vals.append(b)
                assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))
    for n_grid_val in (10.0, 100.0, 1e4, 1e6):
        prev = None
        b = iid_rademacher_bound(u=1.0, sigma=0.5, c=30.0, v=1.0, n=n_grid_val, m_const=1.0)
        if prev is not None:
            assert b >= prev
        prev = b


# ---------------------------------------------------------------------------
# Bound vs empirical experiment
# ---------------------------------------------------------------------------


def test_constant_class_block_complexity_matches_clt():
    # signed block sums approach a centered normal with variance N E[tau^2],
    # so the expected absolute value is sqrt(2/pi) sqrt(N E[tau^2])
    delta = 0.5
    model = wrapped_doeblin_chain(delta, 0.25)
    traj = simulate_split_retrospective(model, 2 ** 14, seed=13)
    blocks = extract_blocks(traj)
    cls = halfline_class([2.0])
    est = empirical_block_rademacher(cls, blocks, 20_000, seed=14)
    tau_sq = (blocks.lengths.astype(float) ** 2).sum()
    clt = math.sqrt(2 / math.pi) * math.sqrt(tau_sq)
    assert abs(est.mean - clt) / clt < 0.05


def test_compare_bound_vs_empirical_report():
    model = wrapped_doeblin_chain(0.5, 0.25)
    cls = halfline_class(np.linspace(0.05, 0.95, 10))
    report = compare_bound_vs_empirical(model, cls, [2 ** k for k in range(8, 13)],
                                        3, seed=19, n_mc=500, p=2.0, mode="em", lam=0.3,
                                        m_const=1.0)
    assert 0.4 <= report.growth_exponent <= 0.65
    assert report.m_min > 0
    for row in report.rows:
        assert row["bound"] >= row["empirical"] or report.m_min > 1.0
        # re-evaluating at the reported minimal constant dominates everywhere
        assert report.m_min * row["main_term"] + row["remainder"] >= row["empirical"] - 1e-9


def test_em_bound_rejects_overflowing_mgf():
    # blocks of mean length 20 make exp(10 tau) overflow once a block exceeds 70 steps
    model = wrapped_doeblin_chain(0.05, 0.25)
    cls = halfline_class(np.linspace(0.05, 0.95, 10))
    with pytest.raises(ValueError, match=r"overflows at n=512: lam=10, longest block \d+"):
        compare_bound_vs_empirical(model, cls, [256, 512, 1024], 2, seed=0, n_mc=200, p=2.0,
                                   mode="em", lam=10.0, m_const=1.0)
