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
from regenmc.chains import WrappedMixtureKernel

from .helpers import (batch_means_se, discrete_ks_pvalue, reference_anchor_path,
                      reference_wrapped_path, trajectory_from_csv)


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


class _ForcedStepRng:
    """Draws no fresh point and returns ``_NEG_TINY_STEP`` as every increment."""

    def random(self, size=None, out=None):
        if out is None:
            return np.ones(size)
        out[...] = 1.0
        return out

    def uniform(self, low, high, size=None):
        assert low <= _NEG_TINY_STEP <= high
        return _NEG_TINY_STEP if size is None else np.full(size, _NEG_TINY_STEP)


def test_wrapped_sample_path_maps_one_to_zero():
    path = WrappedMixtureKernel(0.5, 0.3).sample_path(0.25, 3, _ForcedStepRng())
    # v = -2^-54, then -2^-54 - (0.25 + 2^-54): the second step wraps normally
    assert path[1, 0] == 0.0 and 0.0 <= path[2, 0] < 1.0
