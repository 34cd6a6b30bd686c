"""Property tests (hypothesis) for the Gilbert–Elliott state scan and trajectory reads.

:meth:`GilbertElliott.evolve_states` evolves every slot at once with a
doubling scan; the oracle here is the textbook per-slot recurrence.  The
two must agree exactly — including on the boundary uniforms the
comparisons split at and on degenerate transition probabilities.

A :class:`LinkStateTrajectory` looks multipliers up in its boolean states
on read; the oracle is the dense per-link multiplier cube
(:class:`tests.engine.trajectory_oracles.DenseTrajectory`).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.channel.dynamics import (
    GilbertElliott,
    LinkDynamics,
    LossRateGrid,
    trajectory_from_states,
)
from tests.engine.trajectory_oracles import DenseTrajectory, assert_lookups_match


def _recurrence(process: GilbertElliott, uniforms: np.ndarray) -> np.ndarray:
    """Reference states: slot 0 stationary, then one transition per slot."""
    states = np.empty(uniforms.shape, dtype=bool)
    states[..., 0, :] = uniforms[..., 0, :] < process.stationary_bad_fraction()
    for t in range(1, uniforms.shape[-2]):
        draw = uniforms[..., t, :]
        states[..., t, :] = np.where(
            states[..., t - 1, :], draw >= process.p_bad_to_good, draw < process.p_good_to_bad
        )
    return states


@st.composite
def processes(draw):
    """Valid processes, degenerate corners (p in {0, 1}, r = 1) included."""
    p_good_to_bad = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    p_bad_to_good = draw(
        st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))
    )
    return GilbertElliott(p_good_to_bad, p_bad_to_good)


@st.composite
def uniform_blocks(draw, process):
    """``(*lanes, n_slots, n_links)`` uniforms with some cells on the split points."""
    lanes = draw(st.lists(st.integers(1, 3), min_size=0, max_size=2))
    n_slots = draw(st.one_of(st.sampled_from([1, 2, 3, 255, 256, 257]), st.integers(1, 40)))
    n_links = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    uniforms = rng.random((*lanes, n_slots, n_links))
    stationary = process.stationary_bad_fraction()
    boundaries = [process.p_good_to_bad, process.p_bad_to_good, stationary, 0.0]
    on_boundary = rng.random(uniforms.shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    uniforms[on_boundary] = rng.choice(boundaries, size=int(on_boundary.sum()))
    return uniforms


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_scan_equals_per_slot_recurrence(data):
    process = data.draw(processes())
    uniforms = data.draw(uniform_blocks(process))
    before = uniforms.copy()
    states = process.evolve_states(uniforms)
    np.testing.assert_array_equal(uniforms, before)  # the input is not mutated
    assert states.dtype == bool and states.shape == uniforms.shape
    np.testing.assert_array_equal(states, _recurrence(process, uniforms))


@st.composite
def trajectory_specs(draw):
    """``(dynamics, node_ids, states)``: any mix of process and grid, sparse node ids."""
    node_ids = draw(st.lists(st.integers(0, 60), min_size=1, max_size=5, unique=True))
    process = None
    if draw(st.booleans()):
        multiplier = st.floats(0.0, 2.0)
        process = GilbertElliott(0.3, 0.5, draw(multiplier), draw(multiplier))
    grid = None
    if process is None or draw(st.booleans()):
        grid = LossRateGrid((6.0, 24.0), (draw(st.floats(0.0, 0.9)), draw(st.floats(0.0, 0.9))))
    dynamics = LinkDynamics(gilbert_elliott=process, grid=grid, horizon_slots=draw(st.integers(1, 6)))
    states = None
    if process is not None:
        n_links = len(node_ids) * (len(node_ids) - 1)
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        states = rng.random((dynamics.horizon_slots, n_links)) < 0.5
    return dynamics, node_ids, states


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_trajectory_lookups_equal_the_dense_cube(data):
    dynamics, node_ids, states = data.draw(trajectory_specs())
    rate_mbps = data.draw(st.floats(1.0, 54.0))
    trajectory = trajectory_from_states(dynamics, node_ids, rate_mbps, states)
    oracle = DenseTrajectory(dynamics, node_ids, rate_mbps, states)
    horizon = dynamics.horizon_slots
    # Slots well past the horizon exercise the wrap-around.
    slot = data.draw(st.integers(0, 4 * horizon))
    n_slots = data.draw(st.integers(0, 2 * horizon))
    senders = data.draw(
        st.lists(st.sampled_from(node_ids), min_size=1, max_size=min(3, len(node_ids)), unique=True)
    )
    # Receivers may repeat and may include a sender (a self link).
    receivers = data.draw(st.lists(st.sampled_from(node_ids), max_size=6))
    assert_lookups_match(trajectory, oracle, slot, n_slots, senders, receivers)
