"""Dense multiplier-cube oracle of :class:`repro.channel.dynamics.LinkStateTrajectory`.

Production trajectories keep only the evolved boolean link states and look
each multiplier up on read.  The oracle here is the direct construction:
a float64 ``(horizon_slots, n, n)`` cube, built one link column at a time
from :func:`repro.channel.dynamics.link_order`, with self links at 1 and
the grid factor multiplied into every cell, read by plain gathers.  The
lookups must return exactly its values.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.channel.dynamics import LinkDynamics, link_order


class DenseTrajectory:
    """Every per-slot multiplier of one lane, materialised up front."""

    def __init__(
        self,
        dynamics: LinkDynamics,
        node_ids: Sequence[int],
        rate_mbps: float,
        states: np.ndarray | None,
    ) -> None:
        self.horizon_slots = dynamics.horizon_slots
        self.node_index = {node: k for k, node in enumerate(node_ids)}
        n_nodes = len(node_ids)
        cube = np.ones((self.horizon_slots, n_nodes, n_nodes))
        if states is not None:
            process = dynamics.gilbert_elliott
            for column, (a, b) in enumerate(link_order(node_ids)):
                cube[:, self.node_index[a], self.node_index[b]] = np.where(
                    states[:, column], process.bad_multiplier, process.good_multiplier
                )
        if dynamics.grid is not None:
            cube = cube * (1.0 - dynamics.grid.loss_rate_for(rate_mbps))
        self.multipliers = cube

    def pair_multiplier(self, slot: int, src: int, dst: int) -> float:
        """Cell ``src → dst`` of the slot's matrix."""
        block = self.multipliers[slot % self.horizon_slots]
        return float(block[self.node_index[src], self.node_index[dst]])

    def rows(self, start_slot: int, n_slots: int, src: int, receivers: Sequence[int]) -> np.ndarray:
        """``(n_slots, len(receivers))`` cells of one sender over consecutive slots."""
        slots = (start_slot + np.arange(n_slots)) % self.horizon_slots
        cols = [self.node_index[node] for node in receivers]
        return self.multipliers[slots][:, self.node_index[src], cols]

    def receiver_multipliers(
        self, slot: int, senders: Sequence[int], receivers: Sequence[int]
    ) -> np.ndarray:
        """Per-receiver maximum over the senders' cells at one slot."""
        block = self.multipliers[slot % self.horizon_slots]
        rows = [self.node_index[node] for node in senders]
        cols = [self.node_index[node] for node in receivers]
        return block[np.ix_(rows, cols)].max(axis=0)


def assert_lookups_match(
    trajectory,
    oracle: DenseTrajectory,
    slot: int,
    n_slots: int,
    senders: Sequence[int],
    receivers: Sequence[int],
) -> None:
    """All three accessors of ``trajectory`` equal the oracle's, types and shapes included.

    ``pair_multiplier`` is read for every (sender, receiver) pair,
    ``rows`` for every sender over ``n_slots`` slots from ``slot``, and
    ``receiver_multipliers`` for the joint transmission of ``senders``.
    """
    for src in senders:
        for dst in receivers:
            value = trajectory.pair_multiplier(slot, src, dst)
            assert type(value) is float
            assert value == oracle.pair_multiplier(slot, src, dst)
        block = trajectory.rows(slot, n_slots, src, receivers)
        assert block.dtype == np.float64 and block.shape == (n_slots, len(receivers))
        np.testing.assert_array_equal(block, oracle.rows(slot, n_slots, src, receivers))
    joint = trajectory.receiver_multipliers(slot, senders, receivers)
    assert joint.dtype == np.float64 and joint.shape == (len(receivers),)
    np.testing.assert_array_equal(joint, oracle.receiver_multipliers(slot, senders, receivers))
