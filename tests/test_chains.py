import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import geom

from regenmc import (
    FiniteKernel,
    exact_stationary,
    extract_blocks,
    finite_atom_chain,
    finite_doeblin_chain,
    simulate,
    simulate_split_retrospective,
    two_state_chain,
    wrapped_doeblin_chain,
)
from regenmc import chains
from regenmc.chains import SLICE_STEPS, Trajectory, WrappedMixtureKernel

from .helpers import (batch_means_se, discrete_ks_pvalue, reference_anchor_path,
                      reference_finite_path, reference_trajectory_csv,
                      reference_whole_wrapped_path, reference_wrapped_path, trajectory_from_csv)


def test_absorbing_identity_kernel():
    model = finite_atom_chain(np.eye(2), atom=0)
    traj = simulate(model, 5, seed=0)
    assert np.all(traj.states == 0)


def test_simulate_requires_positive_n():
    with pytest.raises(ValueError):
        simulate(two_state_chain(), 0, seed=1)


def test_determinism_byte_for_byte(tmp_path):
    model = two_state_chain()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    simulate(model, 500, seed=123).to_csv(p1)
    simulate(model, 500, seed=123).to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert not np.array_equal(simulate(model, 500, seed=124).states,
                              simulate(model, 500, seed=123).states)


def test_trajectory_csv_roundtrip(tmp_path):
    traj = simulate_split_retrospective(wrapped_doeblin_chain(0.4, 0.3), 200, seed=9)
    path = tmp_path / "t.csv"
    traj.to_csv(path)
    back = trajectory_from_csv(path)
    assert np.array_equal(back.regen_flags, traj.regen_flags)
    assert np.allclose(back.states, traj.states)
    assert back.seed == traj.seed and back.model_id == traj.model_id


def test_ergodic_frequency_matches_exact_stationary():
    model = two_state_chain(0.5, 0.2)
    traj = simulate(model, 10**6, seed=7)
    pi = exact_stationary(model.kernel)
    freq0 = (traj.states == 0).astype(float)
    se = batch_means_se(freq0)
    assert abs(freq0.mean() - pi[0]) <= 3 * se
    assert np.allclose(pi, [2 / 7, 5 / 7])


def test_exact_stationary_symmetric():
    assert np.allclose(exact_stationary(np.array([[0.5, 0.5], [0.5, 0.5]])), [0.5, 0.5])


def test_exact_stationary_two_state_hand_solved():
    # balance equation: pi0 * p01 = pi1 * p10 -> pi = (p10, p01) / (p01 + p10)
    pi = exact_stationary(np.array([[0.5, 0.5], [0.2, 0.8]]))
    assert np.allclose(pi, [2 / 7, 5 / 7], atol=1e-12)


def test_exact_stationary_rejects_periodic():
    with pytest.raises(ValueError, match="period"):
        exact_stationary(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_exact_stationary_rejects_reducible():
    with pytest.raises(ValueError, match="reducible"):
        exact_stationary(np.eye(2))
    # one state reaches the other but not back, in each direction
    for matrix in ([[0.5, 0.5], [0.0, 1.0]], [[1.0, 0.0], [0.5, 0.5]]):
        with pytest.raises(ValueError, match="reducible"):
            exact_stationary(np.array(matrix))


def test_finite_kernel_validates_rows():
    with pytest.raises(ValueError):
        FiniteKernel(np.array([[0.5, 0.4], [0.2, 0.8]]))
    with pytest.raises(ValueError):
        FiniteKernel(np.array([[1.2, -0.2], [0.2, 0.8]]))


@pytest.mark.parametrize("make,message", [
    (lambda: FiniteKernel(np.array([[np.nan, 0.5], [0.2, 0.8]])),
     r"entry \(0, 0\) must be a finite number >= 0, got nan"),
    (lambda: FiniteKernel(np.array([[0.5, 0.5], [0.2, np.inf]])),
     r"entry \(1, 1\) must be a finite number >= 0, got inf"),
    (lambda: FiniteKernel(np.array([[1.2, -0.2], [np.nan, 0.8]])),
     r"entry \(0, 1\) must be a finite number >= 0, got -0.2"),
    (lambda: finite_atom_chain([[0.5, 0.5], [np.nan, 0.8]]),
     r"entry \(1, 0\) must be a finite number >= 0, got nan"),
    (lambda: two_state_chain(p01=np.nan), r"p01 must lie in \[0, 1\], got nan"),
    (lambda: two_state_chain(p10=1.5), r"p10 must lie in \[0, 1\], got 1.5"),
])
def test_finite_kernel_names_first_entry_that_is_not_a_probability(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("atom", [5, 2, -1])
def test_finite_atom_chain_rejects_an_atom_outside_the_states(atom):
    with pytest.raises(ValueError, match=rf"atom must be a state in \[0, 2\), got {atom}"):
        finite_atom_chain([[0.5, 0.5], [0.2, 0.8]], atom=atom)


def test_doeblin_domination_checked_exactly():
    with pytest.raises(ValueError, match="domination"):
        finite_doeblin_chain(0.5, np.array([[0.9, 0.1], [0.2, 0.8]]), np.array([0.5, 0.5]))


def test_doeblin_delta_one_every_step_regenerates():
    # delta = 1 forces the kernel rows to equal psi: pure regeneration draws
    model = finite_doeblin_chain(1.0, np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([0.5, 0.5]))
    traj = simulate_split_retrospective(model, 1000, seed=3)
    assert traj.regen_flags.all()
    assert extract_blocks(traj).lengths.max() == 1


def test_doeblin_block_lengths_geometric():
    # oracle: closed-form geometric pmf of the Bernoulli split
    delta = 0.3
    model = wrapped_doeblin_chain(delta, 0.25)
    failures = 0
    mean_taus = []
    for s in range(20):
        traj = simulate_split_retrospective(model, 20_000, seed=100 + s)
        taus = extract_blocks(traj).lengths
        mean_taus.append(taus.mean())
        if discrete_ks_pvalue(taus, lambda k: geom.cdf(k, delta)) <= 0.01:
            failures += 1
    assert failures <= 2
    # mean block length -> 1/delta within 3 std errors (pooled)
    pooled = np.mean(mean_taus)
    se = np.std(mean_taus, ddof=1) / np.sqrt(len(mean_taus))
    assert abs(pooled - 1 / delta) <= 3 * se


@given(delta=st.floats(0.0, 1.0, exclude_min=True), width=st.floats(0.0, 0.5, exclude_min=True),
       x0=st.floats(0.0, 1.0, exclude_max=True), n=st.integers(1, 3000),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
@example(delta=1.0, width=0.5, x0=0.0, n=1000, seed=0)
@example(delta=0.3, width=0.25, x0=0.5, n=1, seed=1)
@example(delta=0.3, width=0.25, x0=0.5, n=2, seed=2)
@example(delta=1e-9, width=0.5, x0=0.999, n=3000, seed=3)
@example(delta=0.015625, width=5e-324, x0=0.0, n=7, seed=0)  # a step to -5e-324 wraps to 0.0
def test_wrapped_sample_path_equals_remainder_reference(delta, width, x0, n, seed):
    kernel = WrappedMixtureKernel(delta, width)
    got = kernel.sample_path(x0, n, np.random.default_rng(seed))
    want = reference_wrapped_path(kernel, x0, n, np.random.default_rng(seed))
    assert got.shape == want.shape == (n, 1)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("delta", [0.01, 0.5, 1.0])     # rarely, often and always fresh
@pytest.mark.parametrize("n", [1, 2, 3, 4097])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_wrapped_sample_path_equals_anchor_reference(delta, n, seed):
    # Byte equality, so a -0.0 where the reference has +0.0 fails too; the
    # generator must be left where the reference leaves it.
    kernel = WrappedMixtureKernel(delta, 0.3)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = kernel.sample_path(np.array([0.7]), n, rng)
    want = reference_anchor_path(kernel, np.array([0.7]), n, ref_rng)
    assert got.shape == want.shape == (n, 1)
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_floor_wrap_equals_remainder_on_edge_values():
    # The Doeblin sampler wraps with v - floor(v) in place of v % 1.0.
    rng = np.random.default_rng(0)
    tiny = np.exp(-rng.uniform(0.0, 700.0, 100_000))
    near_one = np.nextafter(1.0, 0.0)
    edges = [0.0, 5e-324, near_one, 2.0 ** 52 - 0.5, 2.0 ** 52 + 0.5, 2.0 ** 60]
    v = np.concatenate([rng.uniform(-3.0, 3.0, 100_000), rng.uniform(-1e6, 1e6, 100_000),
                        tiny, -tiny, edges, -np.array(edges)])
    assert np.array_equal((v - np.floor(v)).view(np.int64), (v % 1.0).view(np.int64))


# x0 = 0.25 and this increment give v = -2^-54, and 1 - 2^-54 rounds to 1.0.
_NEG_TINY_STEP = -(0.25 + 2.0 ** -54)


def test_wrapped_sample_path_maps_one_to_zero():
    # One slice of two steps from x0 = 0.25, with no fresh point (uniforms of
    # 1.0) and every increment _NEG_TINY_STEP
    out = np.empty(2)
    WrappedMixtureKernel(0.5, 0.3)._fill_slice(out, (0.25, 0.0, -0.0), np.ones(2), np.ones(2),
                                               np.full(2, _NEG_TINY_STEP))
    # v = -2^-54, then -2^-54 - (0.25 + 2^-54): the second step wraps normally
    assert out[0] == 0.0 and 0.0 <= out[1] < 1.0


# Path lengths at the slice edges: n - 1 steps fill k slices exactly, or one
# step fewer or more
_EDGES = [1, 2, 3, SLICE_STEPS, SLICE_STEPS + 1, SLICE_STEPS + 2, 2 * SLICE_STEPS,
          2 * SLICE_STEPS + 1, 2 * SLICE_STEPS + 2, 3 * SLICE_STEPS + 1]
_P3 = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]])


def _buffered_rngs(seed):
    """Two equal generators that hold a buffered 32-bit half word, which the sampler
    must leave as the whole-path draws do."""
    rngs = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in rngs:
        rng.integers(0, 2, dtype=np.uint32)
    assert rngs[0].bit_generator.state["has_uint32"] == 1
    return rngs


@pytest.mark.parametrize("delta", [1e-4, 0.5, 1.0])    # slices with no fresh step, often, always
@pytest.mark.parametrize("n", _EDGES)
def test_sliced_wrapped_path_equals_the_whole_path_sampler(delta, n):
    kernel = WrappedMixtureKernel(delta, 0.3)
    rng, ref_rng = _buffered_rngs(n)
    got = kernel.sample_path(np.array([0.7]), n, rng)
    want = reference_whole_wrapped_path(kernel, np.array([0.7]), n, ref_rng)
    assert got.shape == want.shape == (n, 1)
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n", [1, 3, 2 * SLICE_STEPS + 1])
def test_sliced_wrapped_path_on_pcg64dxsm_equals_the_whole_path_sampler(n):
    kernel = WrappedMixtureKernel(0.3, 0.3)
    rng, ref_rng = (np.random.Generator(np.random.PCG64DXSM(n)) for _ in range(2))
    got = kernel.sample_path(0.7, n, rng)
    assert got.tobytes() == reference_whole_wrapped_path(kernel, 0.7, n, ref_rng).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.SFC64, np.random.Philox])
@pytest.mark.parametrize("n", [2, 2 * SLICE_STEPS + 1])
def test_wrapped_path_refuses_a_generator_it_cannot_advance_by_words(bit_generator, n):
    # MT19937 and SFC64 have no advance; Philox advances by blocks of 4 words
    rng = np.random.Generator(bit_generator(0))
    with pytest.raises(TypeError, match=f"PCG64 or PCG64DXSM, got {bit_generator.__name__}"):
        WrappedMixtureKernel(0.3, 0.3).sample_path(0.7, n, rng)


@given(n=st.integers(1, 60), delta=st.sampled_from([0.05, 0.3, 1.0]),
       slice_steps=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_wrapped_path_in_tiny_slices_equals_the_whole_path_sampler(n, delta, slice_steps, seed):
    # slices of a few steps carry the anchor through runs of slices with no fresh step
    kernel = WrappedMixtureKernel(delta, 0.3)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chains, "SLICE_STEPS", slice_steps)
        got = kernel.sample_path(0.7, n, rng)
    assert got.tobytes() == reference_whole_wrapped_path(kernel, 0.7, n, ref_rng).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("slice_steps", [1, 3, SLICE_STEPS])
@pytest.mark.parametrize("n", _EDGES)
def test_sliced_finite_path_equals_the_whole_path_sampler(n, slice_steps, monkeypatch):
    monkeypatch.setattr(chains, "SLICE_STEPS", slice_steps)
    kernel = FiniteKernel(_P3)
    rng, ref_rng = _buffered_rngs(n)
    got = kernel.sample_path(1, n, rng)
    assert got.dtype == np.int64
    assert got.tobytes() == reference_finite_path(kernel, 1, n, ref_rng).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _trajectories(n):
    rng = np.random.default_rng(n)
    return [simulate(finite_doeblin_chain(0.3, _P3, np.array([0.5, 0.3, 0.2])), n, seed=n),
            simulate_split_retrospective(wrapped_doeblin_chain(0.4, 0.3), n, seed=n),
            Trajectory(states=rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-300, 300, (n, 2)),
                       regen_flags=rng.random(n) < 0.5, seed=n, model_id="plane")]


@pytest.mark.parametrize("slice_steps", [1, 3, SLICE_STEPS])
@pytest.mark.parametrize("n", [1, 2, SLICE_STEPS, SLICE_STEPS + 1, 2 * SLICE_STEPS + 1])
def test_sliced_csv_equals_the_row_writer(n, slice_steps, tmp_path, monkeypatch):
    monkeypatch.setattr(chains, "SLICE_STEPS", slice_steps)
    for k, traj in enumerate(_trajectories(n)):   # labels, circle states with flags, 2-d states
        traj.to_csv(tmp_path / f"{k}.csv")
        reference_trajectory_csv(traj, tmp_path / f"{k}.ref.csv")
        assert (tmp_path / f"{k}.csv").read_bytes() == (tmp_path / f"{k}.ref.csv").read_bytes()


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_holds_its_path_and_one_slice():
    # The whole-path sampler held 49 B a step, 51 MB here; the path is 8 MB and
    # a slice's temporaries a few dozen bytes a slice step
    n = 2 ** 20
    peak = _traced_peak(lambda: simulate(wrapped_doeblin_chain(0.4), n, seed=3))
    assert peak <= 8 * n + 16 * 8 * SLICE_STEPS


def test_split_simulation_holds_its_path_flags_and_one_slice():
    # The whole-path splitter held 64 B a step, 67 MB here; the path and its
    # hidden last state take 8 B a step and the flags 1 B
    n = 2 ** 20
    peak = _traced_peak(lambda: simulate_split_retrospective(wrapped_doeblin_chain(0.4), n, seed=3))
    assert peak <= 9 * (n + 1) + 16 * 8 * SLICE_STEPS
