"""Bursty link dynamics: Gilbert–Elliott fault injection over the mesh.

Every testbed link is a *static* draw from one measured distribution; this
module adds the time axis.  A :class:`LinkDynamics` spec attaches two
fault models to a transfer:

* a per-link two-state **Gilbert–Elliott** process
  (:class:`GilbertElliott`): each directed link flips between a *good*
  and a *bad* state with fixed transition probabilities per transmission
  slot, and each state scales the link's delivery probability by its own
  multiplier — time-correlated loss bursts, the failure mode static link
  draws can never produce;
* a static **link-speed × loss-rate grid** (:class:`LossRateGrid`), the
  LinkGuardian-style ``effective_lossRate_linkSpeed`` model: an extra
  loss rate interpolated from the lane's transmission rate, applied on
  top of the state multipliers.

Determinism contract
--------------------
State trajectories are *materialised up front* from the owning lane's
generator: one ``rng.random((horizon_slots, n_links))`` draw in the
canonical all-pairs link order (:func:`link_order`), evolved by a pure
scan into a per-slot boolean state matrix (:func:`trajectory_from_uniforms`).
A trajectory keeps only those states; its accessors look a link's
multiplier up on read (good, bad or self-link value, each with the grid
factor already applied), so no per-slot multiplier array is ever built.
The draw sits in the lane's sequential stream position — after priming,
before the first transfer draw — so the lockstep mesh engine
(:mod:`repro.routing.ensemble`) stays bit-identical to the sequential
path: dynamics only *modulates* delivery probabilities, it never changes
how many uniforms a phase consumes or in which order.  The scan uses
comparisons and boolean logic only, so it is exact.

A transfer's *slot clock* is its transmission counter: the ``k``-th
transmission of a lane reads the trajectory at slot ``k`` (modulo the
horizon, which wraps periodically), which both the sequential simulators
and the lockstep engine track identically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.rng import require_rng

__all__ = [
    "GilbertElliott",
    "LossRateGrid",
    "LinkDynamics",
    "LinkStateTrajectory",
    "link_order",
    "trajectory_from_uniforms",
    "trajectory_from_states",
    "materialise_trajectory",
]


@dataclass(frozen=True)
class GilbertElliott:
    """Two-state Markov loss-burst process of one directed link.

    Per transmission slot a link in the *good* state turns bad with
    probability ``p_good_to_bad`` and a link in the *bad* state recovers
    with probability ``p_bad_to_good``; each state scales the link's
    delivery probability by its multiplier.  The mean bad-burst length is
    ``1 / p_bad_to_good`` slots and the stationary bad fraction is
    ``p / (p + r)`` — the classic Gilbert–Elliott parametrisation.
    """

    p_good_to_bad: float
    p_bad_to_good: float
    good_multiplier: float = 1.0
    bad_multiplier: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_good_to_bad <= 1.0 or not 0.0 < self.p_bad_to_good <= 1.0:
            raise ValueError(
                "transition probabilities must satisfy 0 <= p_good_to_bad <= 1 "
                "and 0 < p_bad_to_good <= 1 (bad bursts must be able to end)"
            )
        for name in ("good_multiplier", "bad_multiplier"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")

    @classmethod
    def from_burst(
        cls,
        burst_slots: float,
        bad_fraction: float,
        good_multiplier: float = 1.0,
        bad_multiplier: float = 0.25,
    ) -> "GilbertElliott":
        """Build a process from its mean burst length and stationary bad fraction.

        ``burst_slots`` is the mean bad-state dwell time (``1 / r``) and
        ``bad_fraction`` the stationary probability of the bad state
        (``p / (p + r)``) — the two knobs the loss/burst grid of the
        ``fig20_link_dynamics`` experiment sweeps directly.
        """
        if burst_slots < 1.0:
            raise ValueError("burst_slots must be >= 1 (a burst lasts at least one slot)")
        if not 0.0 < bad_fraction < 1.0:
            raise ValueError("bad_fraction must be in (0, 1)")
        r = 1.0 / burst_slots
        p = r * bad_fraction / (1.0 - bad_fraction)
        if p > 1.0:
            raise ValueError(
                f"bad_fraction={bad_fraction} with burst_slots={burst_slots} needs "
                "p_good_to_bad > 1; lengthen the burst or lower the fraction"
            )
        return cls(p, r, good_multiplier, bad_multiplier)

    def stationary_bad_fraction(self) -> float:
        """Stationary probability of the bad state, ``p / (p + r)``."""
        total = self.p_good_to_bad + self.p_bad_to_good
        if total == 0.0:
            return 0.0
        return self.p_good_to_bad / total

    def mean_burst_slots(self) -> float:
        """Mean bad-state dwell time in slots, ``1 / p_bad_to_good``."""
        return 1.0 / self.p_bad_to_good

    def evolve_states(self, uniforms: np.ndarray) -> np.ndarray:
        """Evolve bad/good states from pre-drawn uniforms (``True`` = bad).

        ``uniforms`` has shape ``(..., n_slots, n_links)``; leading axes
        (e.g. a lane axis) evolve independently.  Slot 0 samples the
        stationary distribution (the chain starts in equilibrium); slot
        ``t`` applies the transition probabilities to slot ``t - 1``.

        Each slot is the boolean map ``s_t = (s_{t-1} & keep_t) ^ set_t``
        with ``set = u < p_good_to_bad`` and ``keep = set != (u >=
        p_bad_to_good)``.  Maps compose associatively — ``(k1, s1)`` then
        ``(k2, s2)`` is ``(k1 & k2, (s1 & k2) ^ s2)`` — so a doubling
        (Hillis–Steele) scan of ``ceil(log2 n_slots)`` whole-array passes
        composes every slot's prefix.  Slot 0's ``set`` is ``u <`` the
        stationary fraction, and the state at slot ``t`` is the ``set`` of
        the composed map of slots ``0..t`` (that map applied to a good state
        before slot 0).  Comparisons and boolean logic only: the states
        equal the per-slot recurrence exactly.
        """
        u = np.asarray(uniforms, dtype=np.float64)
        if u.ndim < 2:
            raise ValueError("uniforms must have shape (..., n_slots, n_links)")
        states = u < self.p_good_to_bad
        keep = states != (u >= self.p_bad_to_good)
        states[..., 0, :] = u[..., 0, :] < self.stationary_bad_fraction()
        span = 1
        while span < u.shape[-2]:
            # Slot t absorbs the composed map of slot t - span; slots before
            # `span` already hold final states (their prefix reaches slot 0).
            early, late = np.s_[..., :-span, :], np.s_[..., span:, :]
            states[late] ^= states[early] & keep[late]
            keep[late] &= keep[early]
            span *= 2
        return states


@dataclass(frozen=True)
class LossRateGrid:
    """Static link-speed × loss-rate table (LinkGuardian's grid model).

    ``loss_rate_for`` interpolates the extra loss rate at a lane's
    transmission rate (clamped at the table's ends) — the
    ``effective_lossRate_linkSpeed`` sweep shape: faster links see higher
    effective loss.  The grid is RNG-free; it contributes a constant
    ``1 - loss`` factor to every multiplier of a lane's trajectory.
    """

    speeds_mbps: tuple[float, ...]
    loss_rates: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.speeds_mbps or len(self.speeds_mbps) != len(self.loss_rates):
            raise ValueError("speeds_mbps and loss_rates must be equal-length and non-empty")
        if any(b <= a for a, b in zip(self.speeds_mbps, self.speeds_mbps[1:])):
            raise ValueError("speeds_mbps must be strictly increasing")
        if any(not 0.0 <= loss < 1.0 for loss in self.loss_rates):
            raise ValueError("loss rates must be in [0, 1)")

    def loss_rate_for(self, speed_mbps: float) -> float:
        """Extra loss rate at ``speed_mbps`` (linear interpolation, clamped)."""
        return float(
            np.interp(
                speed_mbps,
                np.asarray(self.speeds_mbps, dtype=np.float64),
                np.asarray(self.loss_rates, dtype=np.float64),
            )
        )


@dataclass(frozen=True)
class LinkDynamics:
    """Fault-injection spec attached to a transfer (or lane).

    ``horizon_slots`` bounds the materialised trajectory; transfers longer
    than the horizon wrap periodically (slot ``k`` reads
    ``k % horizon_slots``).  With ``gilbert_elliott=None`` the trajectory
    consumes **no** generator draws (the grid alone is deterministic), so
    a grid-only spec leaves every existing stream untouched.
    """

    gilbert_elliott: GilbertElliott | None = None
    grid: LossRateGrid | None = None
    horizon_slots: int = 512

    def __post_init__(self) -> None:
        horizon = self.horizon_slots
        if isinstance(horizon, bool) or not isinstance(horizon, (int, np.integer)):
            raise ValueError(f"horizon_slots must be an integer, got {horizon!r}")
        if horizon < 1:
            raise ValueError("horizon_slots must be >= 1")
        if self.gilbert_elliott is None and self.grid is None:
            raise ValueError("LinkDynamics needs a Gilbert-Elliott process or a grid (or both)")

    def draw_state_uniforms(self, rng: np.random.Generator, n_links: int) -> np.ndarray | None:
        """The trajectory's single uniform block — ``None`` when grid-only.

        One ``rng.random((horizon_slots, n_links))`` call, links in the
        canonical :func:`link_order`: the whole RNG consumption of a
        lane's dynamics, in one draw, exactly like the engine's merged
        forwarding draws.
        """
        if self.gilbert_elliott is None:
            return None
        return rng.random((self.horizon_slots, n_links))


def link_order(node_ids: Sequence[int]) -> list[tuple[int, int]]:
    """Canonical directed-link order: nested ``(a, b)`` loops, ``a != b``.

    Matches the testbed's canonical all-pairs priming order, so the
    trajectory's uniform columns have a stable, documented meaning
    independent of which links a transfer actually exercises.
    """
    return [(a, b) for a in node_ids for b in node_ids if a != b]


@functools.lru_cache(maxsize=None)
def _link_columns(n_nodes: int) -> np.ndarray:
    """Canonical link column of every dense node-index pair, ``-1`` on the diagonal.

    Entry ``[i, j]`` is the :func:`link_order` column of link
    ``node_ids[i] → node_ids[j]``: the row-major rank of cell ``(i, j)``
    among the off-diagonal cells.  Memoised per node count and read-only,
    because every trajectory of that size shares the one table.
    """
    table = np.full((n_nodes, n_nodes), -1, dtype=np.intp)
    table[~np.eye(n_nodes, dtype=bool)] = np.arange(n_nodes * (n_nodes - 1))
    table.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class LinkStateTrajectory:
    """One lane's evolved link states, read as delivery-probability multipliers.

    ``states[slot, column]`` is ``True`` when the directed link in
    :func:`link_order` column ``column`` is bad at transmission slot
    ``slot`` (``None`` for a grid-only spec: every link always good);
    slots wrap at ``horizon_slots``.  The read-only array is the lane's
    whole per-slot record.  A link's multiplier is ``bad`` or ``good``
    according to its state and ``self_link`` for a node talking to itself;
    the three values already include the lane's grid factor.  ``columns``
    maps a node-index pair to its link column (the read-only table shared
    by every trajectory with as many nodes).  All accessors are lookups
    plus an elementwise ``max`` for joint senders — both execution paths
    (sequential and lockstep) call the same methods, so modulated
    probabilities are bit-identical by construction.
    """

    horizon_slots: int
    node_index: Mapping[int, int]
    states: np.ndarray | None
    good: float
    bad: float
    self_link: float
    columns: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n_nodes = len(self.node_index)
        if self.states is not None:
            shape = (self.horizon_slots, n_nodes * (n_nodes - 1))
            if self.states.dtype != bool or self.states.shape != shape:
                raise ValueError(
                    f"states must be a bool array of shape {shape}, got "
                    f"{self.states.dtype} {self.states.shape}"
                )
            states = self.states.view()
            states.setflags(write=False)
            object.__setattr__(self, "states", states)
        object.__setattr__(self, "columns", _link_columns(n_nodes))

    def _best(self, slot: int, rows: Sequence[int], cols: Sequence[int]) -> list[float]:
        """Per node index in ``cols``, the largest multiplier over links from ``rows``.

        ``slot`` is already wrapped.  Plain Python floats: most reads touch
        one or a few cells, where numpy's per-call overhead would dominate.
        """
        states, columns = self.states, self.columns
        best = []
        for col in cols:
            top = -math.inf
            for row in rows:
                if row == col:
                    value = self.self_link
                elif states is not None and states.item(slot, columns.item(row, col)):
                    value = self.bad
                else:
                    value = self.good
                if value > top:
                    top = value
            best.append(top)
        return best

    def pair_multiplier(self, slot: int, src: int, dst: int) -> float:
        """Multiplier of link ``src → dst`` at transmission slot ``slot``."""
        index = self.node_index
        return self._best(slot % self.horizon_slots, (index[src],), (index[dst],))[0]

    def rows(self, start_slot: int, n_slots: int, src: int, receivers: Sequence[int]) -> np.ndarray:
        """Multiplier block for consecutive slots of one sender.

        Returns ``(n_slots, len(receivers))``: row ``k`` holds the
        ``src → receiver`` multipliers at slot ``start_slot + k`` — the
        broadcast-phase shape (packet ``k`` of a wave transmits at slot
        ``start_slot + k``).
        """
        index = self.node_index
        columns = self.columns[index[src], [index[node] for node in receivers]]
        links = columns >= 0
        block = np.full((n_slots, len(columns)), self.self_link)
        bad = False
        if self.states is not None:
            slots = np.arange(start_slot, start_slot + n_slots) % self.horizon_slots
            bad = self.states.take(slots, axis=0).take(columns[links], axis=1)
        block[:, links] = np.where(bad, self.bad, self.good)
        return block

    def receiver_multipliers(
        self, slot: int, senders: Sequence[int], receivers: Sequence[int]
    ) -> np.ndarray:
        """Per-receiver multipliers of one (possibly joint) transmission.

        A joint transmission rides the *best* participating sender's link
        state towards each receiver (element-wise ``max``): sender
        diversity hedges bursts, which is exactly the robustness question
        the link-dynamics experiment quantifies.
        """
        index = self.node_index
        rows = [index[node] for node in senders]
        cols = [index[node] for node in receivers]
        return np.array(self._best(slot % self.horizon_slots, rows, cols))


def trajectory_from_uniforms(
    dynamics: LinkDynamics,
    node_ids: Sequence[int],
    rate_mbps: float,
    uniforms: np.ndarray | None,
) -> LinkStateTrajectory:
    """Build a lane's trajectory from its pre-drawn uniforms.

    ``uniforms`` is the block :meth:`LinkDynamics.draw_state_uniforms`
    returned for this lane (``None`` for grid-only specs); it is evolved
    by :meth:`GilbertElliott.evolve_states` and assembled by
    :func:`trajectory_from_states`.
    """
    states = None
    if dynamics.gilbert_elliott is not None:
        if uniforms is None:
            raise ValueError("a Gilbert-Elliott spec needs its uniform block")
        states = dynamics.gilbert_elliott.evolve_states(uniforms)
    return trajectory_from_states(dynamics, node_ids, rate_mbps, states)


def trajectory_from_states(
    dynamics: LinkDynamics,
    node_ids: Sequence[int],
    rate_mbps: float,
    states: np.ndarray | None,
) -> LinkStateTrajectory:
    """Wrap evolved boolean states as a lane's trajectory.

    ``states`` has shape ``(horizon_slots, n_links)`` in canonical
    :func:`link_order` (``None`` for grid-only specs) and is kept as is,
    read-only.  The grid factor is a scalar per lane (every link transmits
    at the lane's rate), so it is folded into the three per-state values
    once: ``good = good_multiplier * (1 - loss)``, ``bad =
    bad_multiplier * (1 - loss)`` and ``self_link = 1 - loss`` (``1`` and
    the bare multipliers without a grid).
    """
    process = dynamics.gilbert_elliott
    if (states is None) != (process is None):
        raise ValueError("states must be given exactly when the spec has a Gilbert-Elliott process")
    factor = 1.0 if dynamics.grid is None else 1.0 - dynamics.grid.loss_rate_for(rate_mbps)
    good = bad = factor
    if process is not None:
        good = float(process.good_multiplier) * factor
        bad = float(process.bad_multiplier) * factor
    return LinkStateTrajectory(
        horizon_slots=dynamics.horizon_slots,
        node_index={node: k for k, node in enumerate(node_ids)},
        states=states,
        good=good,
        bad=bad,
        self_link=factor,
    )


def materialise_trajectory(
    dynamics: LinkDynamics,
    node_ids: Sequence[int],
    rate_mbps: float,
    rng: np.random.Generator | None,
) -> LinkStateTrajectory:
    """Draw and evolve one lane's trajectory in its sequential stream position.

    The single uniform draw comes from ``rng`` (the *lane's* generator —
    state trajectories are keyed off the lane exactly like forwarding
    draws); grid-only specs draw nothing.
    """
    uniforms = None
    if dynamics.gilbert_elliott is not None:
        rng = require_rng(rng, "materialise_trajectory")
        n_nodes = len(node_ids)
        uniforms = dynamics.draw_state_uniforms(rng, n_nodes * (n_nodes - 1))
    return trajectory_from_uniforms(dynamics, node_ids, rate_mbps, uniforms)
