import json
import os
import pickle
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from regenmc import (
    ChainModel,
    FiniteKernel,
    FiniteMinorization,
    MHKernel,
    UniformStep,
    build_minorization,
    Trajectory,
    block_bootstrap_se,
    extract_blocks,
    finite_atom_chain,
    finite_doeblin_chain,
    pitman_estimate,
    regen_stats,
    simulate,
    simulate_split_retrospective,
    two_state_chain,
    uniform_target,
    wrapped_doeblin_chain,
)
from regenmc import regeneration
from regenmc.function_classes import BlockMeasure, LiftedClass, halfline_class, table_class
from regenmc.regeneration import RegenStats, block_sums

from .helpers import (callable_certificate_model, lifted_class_values,
                      reference_block_bootstrap_se, whole_block_sums)

ROOT = Path(__file__).resolve().parent.parent


def indicator_of_one(states):
    return (np.asarray(states) == 1).astype(float)


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------


def test_retrospective_flag_probability_reduces_to_delta():
    # kernel rows equal psi, so the flag ratio is delta at every transition
    delta = 0.3
    model = finite_doeblin_chain(delta, np.array([[0.5, 0.5], [0.5, 0.5]]),
                                 np.array([0.5, 0.5]))
    traj = simulate_split_retrospective(model, 100_000, seed=11)
    freq = traj.regen_flags.mean()
    se = np.sqrt(delta * (1 - delta) / traj.n)
    assert abs(freq - delta) <= 3 * se


def test_doeblin_flag_frequency():
    delta = 0.3
    traj = simulate_split_retrospective(wrapped_doeblin_chain(delta, 0.25), 100_000, seed=2)
    se = np.sqrt(delta * (1 - delta) / traj.n)
    assert abs(traj.regen_flags.mean() - delta) <= 3 * se


def test_retrospective_marginal_matches_plain_simulation():
    # oracle: the plain simulator; thinning keeps the two-sample KS null valid
    model = wrapped_doeblin_chain(0.3, 0.25)
    stride = 10
    failures = 0
    for s in range(20):
        a = simulate_split_retrospective(model, 10_000, seed=300 + s).states[::stride, 0]
        b = simulate(model, 10_000, seed=900 + s).states[::stride, 0]
        if ks_2samp(a, b).pvalue <= 0.01:
            failures += 1
    assert failures <= 2


def test_invalid_certificate_detected():
    model = finite_doeblin_chain(0.3, np.array([[0.5, 0.5], [0.2, 0.8]]),
                                 np.array([0.5, 0.5]))
    # delta = 0.9 claims more than the kernel provides
    bad = replace(model, minorization=replace(model.minorization, delta=0.9), model_id="bad")
    with pytest.raises(ValueError, match="flag probability"):
        simulate_split_retrospective(bad, 2000, seed=0)


@dataclass(frozen=True)
class _MisreportingKernel:
    """Samples from ``sampler`` but reports the density of ``reported``."""

    sampler: FiniteKernel
    reported: FiniteKernel

    def sample_path(self, x0, n, rng):
        return self.sampler.sample_path(x0, n, rng)

    def density(self, x, y):
        return self.reported.density(x, y)


def test_zero_density_error_names_chain_step_and_pair():
    # the chain alternates 0, 1, 0, ...; on S = {1} the reported density of
    # the move 1 -> 0 is zero, first met at chain step 1
    kernel = _MisreportingKernel(FiniteKernel(np.array([[0.0, 1.0], [1.0, 0.0]])),
                                 FiniteKernel(np.array([[0.0, 1.0], [0.0, 1.0]])))
    cert = FiniteMinorization(delta=0.5, psi=np.array([0.5, 0.5]),
                              small=np.array([False, True]))
    model = ChainModel(kernel=kernel, initial_sample=lambda rng: 0, minorization=cert,
                       model_id="misreporting")
    with pytest.raises(ValueError, match=r"zero density at step 1 \(x=1, y=0\)"):
        simulate_split_retrospective(model, 10, seed=0)


_P3 = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]])
BUILT_IN = [
    finite_doeblin_chain(0.3, _P3, np.array([0.5, 0.3, 0.2])),
    finite_doeblin_chain(1.0, np.array([[0.6, 0.4], [0.6, 0.4]]), np.array([0.6, 0.4])),
    finite_atom_chain(_P3, atom=1),
    two_state_chain(0.3, 0.6),
    wrapped_doeblin_chain(0.4, 0.2),
]


def _same_split(a, b):
    return (a.states.dtype == b.states.dtype and a.states.tobytes() == b.states.tobytes()
            and np.array_equal(a.regen_flags, b.regen_flags))


@pytest.mark.parametrize("model", BUILT_IN, ids=lambda m: m.model_id)
def test_certificate_classes_split_as_the_callable_certificates(model):
    reference = callable_certificate_model(model)
    for seed in (0, 17):
        assert _same_split(simulate_split_retrospective(model, 2000, seed),
                           simulate_split_retrospective(reference, 2000, seed)), seed


@pytest.mark.parametrize("model", BUILT_IN, ids=lambda m: m.model_id)
def test_built_in_models_round_trip_through_pickle(model):
    # --jobs > 1 sends models to worker processes
    back = pickle.loads(pickle.dumps(model))
    assert back.model_id == model.model_id
    assert _same_split(simulate_split_retrospective(model, 500, 3),
                       simulate_split_retrospective(back, 500, 3))


def test_retrospective_delta_one_all_flags():
    model = finite_doeblin_chain(1.0, np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([0.5, 0.5]))
    traj = simulate_split_retrospective(model, 500, seed=4)
    assert traj.regen_flags.all()


FINITE_BUILT_IN = [m for m in BUILT_IN if m.finite]


@pytest.mark.parametrize("model", FINITE_BUILT_IN, ids=lambda m: m.model_id)
def test_finite_split_states_equal_the_plain_simulation(model):
    # Flags come from their own stream, so they leave the X-path alone.  A
    # finite path draws one uniform per step, so the hidden extra state only
    # extends it; the wrapped chain draws its path in blocks and matches in law.
    for seed in (0, 17):
        for n in (1, 2, 1000):
            plain = simulate(model, n, seed).states
            split = simulate_split_retrospective(model, n, seed).states
            assert plain.dtype == split.dtype and plain.tobytes() == split.tobytes(), (seed, n)


@pytest.mark.parametrize("model", [m for m in FINITE_BUILT_IN if not m.minorization.small.all()],
                         ids=lambda m: m.model_id)
def test_atom_chain_flags_exactly_the_atom_visits(model):
    # delta = 1 and Psi = the atom's row make every flag ratio 1 on the atom
    atom = model.initial_sample.value
    traj = simulate_split_retrospective(model, 5000, seed=8)
    assert traj.regen_flags.any() and not traj.regen_flags.all()
    assert np.array_equal(traj.regen_flags, traj.states == atom)


def test_retrospective_split_joint_transitions_match_hand_matrix():
    # enumerate the split-chain transition law from the mixture construction:
    # next X ~ psi on a flag, else the residual row; the new flag is then
    # Bernoulli(delta) regardless of the state (whole space small).  Drawing
    # each flag after its move gives this same joint law of (X, Y).
    delta, p = 0.3, np.array([[0.5, 0.5], [0.2, 0.8]])
    psi = np.array([0.6, 0.4])
    residual = (p - delta * psi[None, :]) / (1 - delta)
    model = finite_doeblin_chain(delta, p, psi)
    traj = simulate_split_retrospective(model, 500_000, seed=21)
    xs, ys = traj.states, traj.regen_flags.astype(int)
    counts = np.zeros((2, 2, 2, 2))
    np.add.at(counts, (xs[:-1], ys[:-1], xs[1:], ys[1:]), 1)
    for x in range(2):
        for y in range(2):
            total = counts[x, y].sum()
            for x2 in range(2):
                move = psi[x2] if y == 1 else residual[x, x2]
                for y2 in range(2):
                    expected = move * (delta if y2 == 1 else 1 - delta)
                    observed = counts[x, y, x2, y2] / total
                    se = np.sqrt(max(expected * (1 - expected), 1e-12) / total)
                    assert abs(observed - expected) <= 4 * se, (x, y, x2, y2)


def test_retrospective_split_on_mh_chain_flags_only_small_set_steps():
    # A rejected step is an atom of P(x, .) that Psi does not charge, so it
    # never flags; averaged over the move, a small-set step flags with
    # probability delta.
    target, proposal = uniform_target(), UniformStep(0.25)
    cert = build_minorization(target, proposal)
    model = ChainModel(MHKernel(target, proposal), cert.psi_sample, cert, "mh")
    traj = simulate_split_retrospective(model, 4000, seed=5)
    assert traj.states.shape == (4000, 1)
    in_s = cert.small_set(traj.states)
    flags = traj.regen_flags
    assert flags.any() and not np.any(flags & ~in_s)
    # each small-set step flags with probability delta
    m = int(in_s.sum())
    se = np.sqrt(cert.delta * (1 - cert.delta) / m)
    assert abs(flags[in_s].mean() - cert.delta) <= 4 * se


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------


def _traj_from_flags(flags):
    states = np.arange(len(flags), dtype=np.int64)
    return Trajectory(states=states, regen_flags=np.asarray(flags, dtype=bool),
                      seed=0, model_id="fixture")


def test_extract_blocks_example():
    flags = np.zeros(8, dtype=bool)
    flags[[2, 5]] = True
    blocks = extract_blocks(_traj_from_flags(flags))
    assert blocks.initial_bounds == (0, 3)
    assert blocks.complete_bounds.tolist() == [[3, 6]]
    assert blocks.trailing_bounds == (6, 8)
    assert blocks.l_n == 2


def test_extract_blocks_no_flags():
    blocks = extract_blocks(_traj_from_flags(np.zeros(5, dtype=bool)))
    assert blocks.l_n == 0 and blocks.n_complete == 0
    assert blocks.initial_bounds == (0, 5) and blocks.trailing_bounds is None


def test_extract_blocks_edge_flags():
    flags = np.zeros(4, dtype=bool)
    flags[[0, 3]] = True
    blocks = extract_blocks(_traj_from_flags(flags))
    assert blocks.initial_bounds == (0, 1)
    assert blocks.trailing_bounds is None
    assert blocks.complete_bounds.tolist() == [[1, 4]]


@given(st.lists(st.booleans(), min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_block_reconstruction(flags):
    blocks = extract_blocks(_traj_from_flags(flags))
    bounds = [blocks.initial_bounds, *blocks.complete_bounds.tolist(), blocks.trailing_bounds]
    pieces = [blocks.states[s:e] for s, e in filter(None, bounds)]
    assert np.array_equal(np.concatenate(pieces), blocks.states)


def test_doeblin_mean_block_length():
    traj = simulate_split_retrospective(wrapped_doeblin_chain(0.3, 0.25), 100_000, seed=5)
    taus = extract_blocks(traj).lengths
    se = taus.std(ddof=1) / np.sqrt(len(taus))
    assert abs(taus.mean() - 1 / 0.3) <= 3 * se


def test_complete_blocks_uncorrelated():
    model = wrapped_doeblin_chain(0.3, 0.25)
    exceptions = 0
    for s in range(20):
        blocks = extract_blocks(simulate_split_retrospective(model, 20_000, seed=40 + s))
        vals = blocks.block_values(lambda x: np.ravel(x))
        v = vals - vals.mean()
        rho1 = (v[:-1] * v[1:]).mean() / v.var()
        if abs(rho1) > 4 / np.sqrt(len(vals)):
            exceptions += 1
    assert exceptions <= 2


# ---------------------------------------------------------------------------
# Block sums in slices
# ---------------------------------------------------------------------------


def _values_with_signed_zeros(rng, shape):
    """Floats, small integers, 0.0 and -0.0 mixed, so prefix sums round and keep zero signs."""
    pick = rng.integers(0, 4, shape)
    return np.select([pick == 0, pick == 1, pick == 2],
                     [rng.uniform(-1, 1, shape), rng.integers(-3, 4, shape).astype(float), -0.0],
                     0.0)


def _position_lookup(values):
    """A pointwise f on states that are path positions: the values at those positions."""
    return lambda positions: values[..., np.asarray(positions)]


def _assert_same_bytes(got, ref):
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


@given(n=st.integers(1, 120), members=st.integers(0, 4), budget=st.sampled_from([1, 2, 3, 7, 64]),
       rate=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_sliced_block_sums_byte_equal_to_the_whole_path_sum(n, members, budget, rate, seed):
    # members = 0 is an f returning (n,) values; a budget of 1 gives one-state slices
    rng = np.random.default_rng(seed)
    values = _values_with_signed_zeros(rng, (members, n) if members else (n,))
    flags = rng.random(n) < rate
    blocks = extract_blocks(Trajectory(states=np.arange(n), regen_flags=flags, seed=0,
                                       model_id="positions"))
    starts, ends = blocks.complete_bounds[:, 0], blocks.complete_bounds[:, 1]
    ref = whole_block_sums(values, starts, ends)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regeneration, "ELEMENT_BUDGET", budget)
        _assert_same_bytes(block_sums(_position_lookup(values), max(members, 1), blocks.states,
                                      starts, ends), ref)
        _assert_same_bytes(blocks.block_values(_position_lookup(values)), ref)


@pytest.mark.parametrize("flags,budget", [
    ([0, 0, 0, 0, 0, 0, 0], 3),        # no flag: no complete block
    ([0, 0, 1, 0, 0, 0, 0], 3),        # one flag: an initial and a trailing segment only
    ([0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0], 3),   # every bound on a 3-state slice edge
    ([1, 0, 0, 1, 0, 0, 1, 0, 0, 1], 3),            # no initial segment past the first state
    ([0, 1, 0, 0, 0, 0, 0, 0, 1, 1], 2),            # a block spanning whole slices, then length 1
    ([1, 1, 1, 1, 1], 1),              # delta = 1: every block one state long
])
@pytest.mark.parametrize("members", [0, 1, 3])
def test_sliced_block_sums_at_slice_edges_and_segments(flags, budget, members, monkeypatch):
    # Budget b with m rows gives slices of max(1, b // m) states
    monkeypatch.setattr(regeneration, "ELEMENT_BUDGET", budget * max(members, 1))
    flags = np.array(flags, dtype=bool)
    n = len(flags)
    values = _values_with_signed_zeros(np.random.default_rng(n + members),
                                       (members, n) if members else (n,))
    blocks = extract_blocks(Trajectory(states=np.arange(n), regen_flags=flags, seed=0,
                                       model_id="positions"))
    ref = whole_block_sums(values, blocks.complete_bounds[:, 0], blocks.complete_bounds[:, 1])
    _assert_same_bytes(blocks.block_values(_position_lookup(values)), ref)


@pytest.mark.parametrize("budget", [1, 2, 2 ** 18])
def test_block_sum_from_the_path_start_keeps_the_sign_of_zero(budget, monkeypatch):
    # -0.0 - 0.0 is -0.0: the first slice's prefix sum starts at the first value,
    # and the zero before it is joined after the sum
    monkeypatch.setattr(regeneration, "ELEMENT_BUDGET", budget)
    values = np.array([-0.0, -0.0, -0.0, 1.0, -0.0])
    got = block_sums(_position_lookup(values), 1, np.arange(5), [0, 3, 4], [3, 4, 5])
    _assert_same_bytes(got, whole_block_sums(values, [0, 3, 4], [3, 4, 5]))
    assert got[0] == 0.0 and np.signbit(got[0])


@given(members=st.integers(1, 5), blocks=st.lists(st.integers(1, 6), min_size=1, max_size=8),
       trunc=st.one_of(st.none(), st.integers(1, 6)), budget=st.sampled_from([1, 2, 5, 2 ** 18]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_lifted_class_on_tiny_measures_matches_the_reference(members, blocks, trunc, budget, seed):
    rng = np.random.default_rng(seed)
    cls = table_class(_values_with_signed_zeros(rng, (members, 4)))
    measure = BlockMeasure(blocks=tuple(rng.integers(0, 4, k) for k in blocks),
                           weights=rng.dirichlet(np.ones(len(blocks))))
    lifted = LiftedClass(cls, trunc)
    ref = lifted_class_values(lifted, measure)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regeneration, "ELEMENT_BUDGET", budget)
        got = lifted.evaluate(measure)
    _assert_same_bytes(got, ref)
    # same layout too: row reductions add in the reference's order
    _assert_same_bytes(np.sum(got ** 2 * measure.weights, axis=1),
                       np.sum(ref ** 2 * measure.weights, axis=1))


def test_block_values_hold_members_times_blocks_not_members_times_steps():
    # 10 members along 2^20 steps would be 84 MB of values; the block sums are
    # 0.8 MB and one slice of ELEMENT_BUDGET values is 2 MB
    n = 2 ** 20
    flags = np.zeros(n, dtype=bool)
    flags[::100] = True
    blocks = extract_blocks(Trajectory(states=np.random.default_rng(0).random((n, 1)),
                                       regen_flags=flags, seed=0, model_id="cloud"))
    cls = halfline_class(np.linspace(0.05, 0.95, 10))
    tracemalloc.start()
    try:
        values = blocks.block_values(cls.evaluate)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == (10, blocks.n_complete)
    assert peak < 16e6


# ---------------------------------------------------------------------------
# Occupation ratio
# ---------------------------------------------------------------------------


def test_pitman_constant_function_is_one():
    traj = simulate_split_retrospective(two_state_chain(), 5000, seed=1)
    blocks = extract_blocks(traj)
    assert pitman_estimate(blocks, lambda s: np.ones(len(s))) == 1.0


def test_pitman_single_block_arithmetic():
    states = np.array([9, 1, 2, 3], dtype=np.int64)
    flags = np.array([True, False, False, True])
    blocks = extract_blocks(Trajectory(states=states, regen_flags=flags, seed=0, model_id="x"))
    assert pitman_estimate(blocks, lambda s: np.asarray(s, dtype=float)) == 2.0


def test_pitman_requires_complete_blocks():
    blocks = extract_blocks(_traj_from_flags(np.zeros(5, dtype=bool)))
    with pytest.raises(ValueError, match="no regenerations"):
        pitman_estimate(blocks, lambda s: np.ones(len(s)))


def test_pitman_two_state_stationary():
    traj = simulate_split_retrospective(two_state_chain(), 100_000, seed=17)
    blocks = extract_blocks(traj)
    est = pitman_estimate(blocks, indicator_of_one)
    se = block_bootstrap_se(blocks, indicator_of_one, seed=3)
    assert abs(est - 5 / 7) <= 3 * se


@pytest.mark.parametrize("m", [3, 17, 1000, 4099])
@pytest.mark.parametrize("budget", [1, 7, 4096])
def test_bootstrap_slices_bit_identical_to_one_draw(m, budget, monkeypatch):
    # Slices of max(1, budget // m) rows: one row at a time, a few rows with a
    # short tail, or every resample in one draw.
    monkeypatch.setattr(regeneration, "ELEMENT_BUDGET", budget)
    rng = np.random.default_rng(m)
    flags = np.zeros(20 * m, dtype=bool)
    flags[rng.choice(len(flags), m + 1, replace=False)] = True
    blocks = extract_blocks(Trajectory(states=rng.integers(0, 2, len(flags)), regen_flags=flags,
                                       seed=0, model_id="fixture"))
    assert blocks.n_complete == m
    for n_boot in (2, 199, 200):
        assert (block_bootstrap_se(blocks, indicator_of_one, n_boot=n_boot, seed=5)
                == reference_block_bootstrap_se(blocks, indicator_of_one, n_boot, 5))


_BOOTSTRAP_RSS_SCRIPT = """
import numpy as np
from regenmc import block_bootstrap_se, extract_blocks, simulate_split_retrospective, two_state_chain
def peak_kb():
    with open("/proc/self/status") as fh:
        return int(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
blocks = extract_blocks(simulate_split_retrospective(two_state_chain(0.5, 0.2), 10**5, seed=101))
before = peak_kb()
block_bootstrap_se(blocks, lambda s: (np.asarray(s) == 1).astype(float), n_boot=2000, seed=102)
print(blocks.n_complete, before, peak_kb())
"""


def test_bootstrap_peak_rss_independent_of_resample_count():
    # About 28,500 complete blocks: one 2000 x m draw holds three 456 MB
    # arrays (indices and both gathered copies); a slice holds about
    # ELEMENT_BUDGET elements of each.  The child reports the peak RSS of its
    # own address space (VmHWM, in kB) before and after the bootstrap; its
    # ru_maxrss would carry this test process's peak across the exec.
    env = {**os.environ,
           "PYTHONPATH": str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", _BOOTSTRAP_RSS_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    m, before_kb, after_kb = map(int, proc.stdout.split())
    assert m > 20_000
    assert (after_kb - before_kb) / 1024 < 64


# ---------------------------------------------------------------------------
# Regeneration-time statistics
# ---------------------------------------------------------------------------


def test_regen_stats_constant_blocks():
    stats = RegenStats(tau_samples=np.ones(100, dtype=np.int64))
    for p in (1, 2, 3.5):
        assert stats.moment(p) == 1.0
    val, reliable = stats.mgf(0.7)
    assert np.isclose(val, np.exp(0.7)) and reliable


def test_regen_stats_arithmetic():
    stats = RegenStats(tau_samples=np.array([1, 2, 3]))
    assert np.isclose(stats.moment(2), 14 / 3)
    assert stats.moment(0) == 1.0
    assert stats.mgf(0.0)[0] == 1.0


def test_regen_stats_moments_nondecreasing_in_p():
    stats = RegenStats(tau_samples=np.array([1, 2, 2, 5, 3]))
    moments = [stats.moment(p) for p in (0.5, 1, 1.5, 2, 3)]
    assert all(a <= b for a, b in zip(moments, moments[1:]))


def test_geometric_mgf_and_tail():
    delta, lam = 0.3, 0.15
    traj = simulate_split_retrospective(wrapped_doeblin_chain(delta, 0.25), 300_000, seed=23)
    blocks = extract_blocks(traj)
    stats = regen_stats(blocks, min_blocks=30)
    # closed-form geometric MGF: delta e^l / (1 - (1-delta) e^l), finite for
    # e^l (1-delta) < 1, i.e. l < -log(0.7) ~ 0.357
    analytic = delta * np.exp(lam) / (1 - (1 - delta) * np.exp(lam))
    val, reliable = stats.mgf(lam)
    terms = np.exp(lam * blocks.lengths.astype(float))
    se = terms.std(ddof=1) / np.sqrt(len(terms))
    assert reliable
    assert abs(val - analytic) <= 4 * se
    rate, _ = stats.tail_rate()
    assert abs(rate - (-np.log(1 - delta))) < 0.05
    se_m = blocks.lengths.std(ddof=1) / np.sqrt(blocks.n_complete)
    assert abs(stats.moment(1) - 1 / delta) <= 3 * se_m


def test_mgf_unreliable_when_one_block_dominates():
    stats = RegenStats(tau_samples=np.array([1] * 100 + [50]))
    _, reliable = stats.mgf(1.0)
    assert not reliable


def test_mgf_overflow_is_unreliable_and_written_as_null():
    stats = RegenStats(tau_samples=np.array([1] * 100 + [800, 900]))
    val, reliable = stats.mgf(1.0)
    assert val == np.inf and not reliable
    entry = next(m for m in json.loads(stats.to_json())["mgf"] if m["lambda"] == 1.0)
    assert entry == {"lambda": 1.0, "value": None, "reliable": False}


def test_regen_stats_warns_on_few_blocks():
    with pytest.warns(UserWarning, match="unreliable"):
        regen_stats(extract_blocks(_traj_from_flags([True, True, False, True])), min_blocks=30)
