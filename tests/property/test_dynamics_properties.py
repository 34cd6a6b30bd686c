"""Property tests (hypothesis) for the Gilbert–Elliott state scan.

:meth:`GilbertElliott.evolve_states` evolves every slot at once with a
doubling scan; the oracle here is the textbook per-slot recurrence.  The
two must agree exactly — including on the boundary uniforms the
comparisons split at and on degenerate transition probabilities.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.channel.dynamics import GilbertElliott


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

