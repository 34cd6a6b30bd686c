"""Property tests (hypothesis): route-following transfers equal their scalar oracles.

Production single-path and link-local transfers draw one upper-bound
uniform block and rewind the generator to the consumed count
(:func:`repro.routing.link_local._transfer`).  The oracles in
``tests/engine/transfer_oracles.py`` make one ``rng.random()`` per
attempt.  Over random seeds, topologies, recovery budgets, backoff
settings and link dynamics, both must return equal results and leave the
transfer generator in the same state.  The corners are drawn on purpose:
zero-packet transfers, disconnected pairs (no draw at all) and dead links
whose attempts all fail — on a one-hop route those consume the block
exactly to its bound.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.channel.dynamics import GilbertElliott, LinkDynamics
from repro.net.topology import Testbed
from repro.routing.link_local import LinkLocalConfig, simulate_link_local
from repro.routing.single_path import simulate_single_path
from tests.engine.transfer_oracles import link_local_scalar, single_path_scalar

#: Bursty links: attempts mostly succeed in the good state, rarely in the bad.
_BURSTY = LinkDynamics(
    gilbert_elliott=GilbertElliott.from_burst(3.0, 0.3, bad_multiplier=0.05), horizon_slots=16
)

#: Dead links: every attempt on every hop fails.
_DEAD = LinkDynamics(
    gilbert_elliott=GilbertElliott(0.5, 0.5, good_multiplier=0.0, bad_multiplier=0.0),
    horizon_slots=8,
)


@st.composite
def scenarios(draw):
    """A seeded topology, an endpoint pair and a transfer size."""
    return {
        "seed": draw(st.integers(0, 2**16)),
        "n_nodes": draw(st.integers(2, 5)),
        # Wide areas leave pairs disconnected; src == dst is a degenerate route.
        "area_m": draw(st.sampled_from([30.0, 80.0, 400.0])),
        "src": draw(st.integers(0, 1)),
        "dst": draw(st.integers(0, 1)),
        "n_packets": draw(st.integers(0, 6)),
        "rate_mbps": draw(st.sampled_from([6.0, 12.0, 24.0])),
        "dynamics": draw(st.sampled_from([None, _BURSTY, _DEAD])),
    }


def _run(scenario, simulate, **kwargs):
    """One transfer on a fresh topology.

    Returns ``(result, stream_untouched, next_draws)``: whether the
    transfer generator kept its state, and its next three draws.
    """
    seed = scenario["seed"]
    testbed = Testbed.random(
        scenario["n_nodes"], np.random.default_rng(seed), area_m=scenario["area_m"]
    )
    rng = np.random.default_rng(seed + 1)
    before = rng.bit_generator.state
    result = simulate(
        testbed, scenario["src"], scenario["dst"], scenario["rate_mbps"],
        n_packets=scenario["n_packets"], rng=rng, **kwargs,
    )
    return result, rng.bit_generator.state == before, rng.random(3).tolist()


def _check(production, oracle, dead_attempts):
    """Equal results and end states; exact counts on the corner cases."""
    result, untouched, next_draws = production
    assert result == oracle[0]
    assert next_draws == oracle[2]
    if len(result.route) < 2:
        assert untouched  # no route: neither trajectory nor attempt draws
    elif dead_attempts is not None:
        # Every pass dies on the first hop after spending its whole budget.
        assert result.delivered_packets == 0
        assert result.transmissions == dead_attempts


@settings(max_examples=60, deadline=None)
@given(
    scenario=scenarios(),
    local_retry_limit=st.integers(0, 5),
    e2e_retry_limit=st.integers(0, 3),
    timeout_fraction=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
    backoff_factor=st.floats(1.0, 3.0),
)
def test_link_local_equals_scalar_oracle(
    scenario, local_retry_limit, e2e_retry_limit, timeout_fraction, backoff_factor
):
    config = LinkLocalConfig(
        local_retry_limit=local_retry_limit,
        e2e_retry_limit=e2e_retry_limit,
        timeout_fraction=timeout_fraction,
        backoff_factor=backoff_factor,
        dynamics=scenario["dynamics"],
    )
    production = _run(scenario, simulate_link_local, config=config)
    oracle = _run(scenario, link_local_scalar, config=config)
    dead_attempts = None
    if scenario["dynamics"] is _DEAD:
        dead_attempts = scenario["n_packets"] * config.e2e_passes * config.attempts_per_hop
    _check(production, oracle, dead_attempts)


@settings(max_examples=40, deadline=None)
@given(scenario=scenarios(), retry_limit=st.integers(1, 6))
def test_single_path_equals_scalar_oracle(scenario, retry_limit):
    kwargs = {"retry_limit": retry_limit, "dynamics": scenario["dynamics"]}
    production = _run(scenario, simulate_single_path, **kwargs)
    oracle = _run(scenario, single_path_scalar, **kwargs)
    dead_attempts = None
    if scenario["dynamics"] is _DEAD:
        dead_attempts = scenario["n_packets"] * retry_limit
    _check(production, oracle, dead_attempts)
