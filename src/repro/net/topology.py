"""Testbed topology: node placement, link SNR profiles, delivery probabilities.

The paper's evaluation runs on a ~20-node indoor office testbed (Fig. 11)
with walls and metal cabinets producing a wide spread of link qualities.
:class:`Testbed` reproduces that setting statistically: nodes are placed on
a floor plan, large-scale SNR comes from a log-distance path-loss model with
shadowing, small-scale frequency selectivity from per-link multipath
realisations, and every directed link exposes a per-subcarrier SNR profile
from which delivery probabilities are derived (see
:mod:`repro.analysis.error_models`).

Joint (SourceSync) transmissions from several senders combine their
per-subcarrier SNRs.  The extra cyclic prefix the lead sender would announce
to absorb residual misalignment at multiple receivers (§4.6) is not charged
today, neither as airtime nor as an SNR penalty: every
``MacTiming.joint_transaction_us`` caller leaves ``extra_cp_samples`` at its
default of 0 (see the "Charge the §4.6 multi-receiver CP increase" item, the
first open item in ROADMAP.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.error_models import combined_subcarrier_snr, delivery_probability
from repro.analysis.snr import subcarrier_snr_profile
from repro.channel.multipath import DEFAULT_PROFILE, MultipathProfile
from repro.channel.propagation import PathLossModel, propagation_delay_samples
from repro.net.node import MeshNode
from repro.phy.params import OFDMParams, DEFAULT_PARAMS
from repro.phy.rates import Rate, rate_for_mbps
from repro.rng import require_rng

__all__ = ["Testbed"]


@dataclass
class Testbed:
    """A set of nodes with pairwise link models.

    Parameters
    ----------
    nodes:
        The nodes of the testbed.
    path_loss:
        Large-scale propagation model.
    multipath_profile:
        Small-scale fading statistics shared by all links.
    params:
        OFDM numerology.
    rng:
        Random source for shadowing and fading realisations (the draws are
        cached per link so the testbed is static once created, like a real
        deployment during one experiment).  Required: a testbed never mints
        its own entropy, so seeded runs stay bit-identical.
    """

    #: Tell pytest this (public, "Test"-prefixed) class is not a test case.
    __test__ = False

    nodes: list[MeshNode]
    path_loss: PathLossModel = field(default_factory=PathLossModel)
    multipath_profile: MultipathProfile = DEFAULT_PROFILE
    params: OFDMParams = DEFAULT_PARAMS
    rng: np.random.Generator | None = None
    _snr_cache: dict[tuple[int, int], float] = field(default_factory=dict, repr=False)
    _profile_cache: dict[tuple[int, int], np.ndarray] = field(default_factory=dict, repr=False)
    # Delivery probabilities are pure functions of the cached link profiles,
    # so they are memoised too: the per-packet Monte-Carlo loops of the
    # last-hop and mesh experiments ask for the same (senders, dst, rate,
    # length) combination thousands of times.
    _delivery_cache: dict[tuple, float] = field(default_factory=dict, repr=False)
    # Routing-layer caches (e.g. the ETX graph, which every scheme of a
    # topology recomputes from the same static link profiles).
    _routing_cache: dict[tuple, object] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if len({node.node_id for node in self.nodes}) != len(self.nodes):
            raise ValueError("node ids must be unique")
        self.rng = require_rng(self.rng, "Testbed")
        self._by_id = {node.node_id: node for node in self.nodes}
        #: node id -> row/column index of the dense delivery matrices.
        self._node_index = {node.node_id: i for i, node in enumerate(self.nodes)}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        n_nodes: int,
        rng: np.random.Generator | None = None,
        area_m: float = 60.0,
        path_loss: PathLossModel | None = None,
        multipath_profile: MultipathProfile = DEFAULT_PROFILE,
        params: OFDMParams = DEFAULT_PARAMS,
    ) -> "Testbed":
        """Place ``n_nodes`` uniformly at random in a square area."""
        rng = require_rng(rng, "Testbed.random")
        nodes = [MeshNode.random(i, rng, area_m) for i in range(n_nodes)]
        return cls(
            nodes=nodes,
            path_loss=path_loss if path_loss is not None else PathLossModel(),
            multipath_profile=multipath_profile,
            params=params,
            rng=rng,
        )

    @classmethod
    def from_positions(
        cls,
        positions: list[tuple[float, float]],
        rng: np.random.Generator | None = None,
        **kwargs,
    ) -> "Testbed":
        """Build a testbed from explicit node positions."""
        rng = require_rng(rng, "Testbed.from_positions")
        nodes = [MeshNode(i, x, y) for i, (x, y) in enumerate(positions)]
        return cls(nodes=nodes, rng=rng, **kwargs)

    # ------------------------------------------------------------------
    # Node / link accessors
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> MeshNode:
        """Look up a node by id."""
        return self._by_id[node_id]

    @property
    def node_ids(self) -> list[int]:
        """All node identifiers."""
        return [node.node_id for node in self.nodes]

    def link_average_snr_db(self, src: int, dst: int) -> float:
        """Average SNR of the (undirected) link between two nodes.

        The large-scale SNR (path loss + shadowing) is reciprocal; it is
        drawn once per node pair and cached.
        """
        if src == dst:
            raise ValueError("src and dst must differ")
        key = (min(src, dst), max(src, dst))
        if key not in self._snr_cache:
            distance = self.node(src).distance_to(self.node(dst))
            self._snr_cache[key] = self.path_loss.snr_db(distance, rng=self.rng)
        return self._snr_cache[key]

    def link_profile(self, src: int, dst: int) -> np.ndarray:
        """Per-subcarrier SNR profile (dB) of the directed link ``src -> dst``.

        Each direction gets its own small-scale fading realisation, cached so
        repeated queries describe the same static channel.
        """
        if src == dst:
            raise ValueError("src and dst must differ")
        key = (src, dst)
        if key not in self._profile_cache:
            self._profile_cache[key] = subcarrier_snr_profile(
                self.link_average_snr_db(src, dst),
                rng=self.rng,
                profile=self.multipath_profile,
                params=self.params,
            )
        return self._profile_cache[key]

    def link_delay_samples(self, src: int, dst: int) -> float:
        """One-way propagation delay of a link in baseband samples."""
        distance = self.node(src).distance_to(self.node(dst))
        return propagation_delay_samples(distance, self.params.bandwidth_hz)

    # ------------------------------------------------------------------
    # Delivery probabilities
    # ------------------------------------------------------------------
    def delivery_probability(
        self,
        src: int,
        dst: int,
        rate: Rate | float,
        payload_bytes: int = 1460,
    ) -> float:
        """Probability that a single-sender packet on ``src -> dst`` is received.

        Memoised per (link, rate, payload length): link profiles are static
        for the lifetime of the testbed, so the EESM computation only runs
        once per combination.
        """
        rate_obj = rate if isinstance(rate, Rate) else rate_for_mbps(rate)
        key = (src, dst, rate_obj.mbps, payload_bytes)
        if key not in self._delivery_cache:
            self._delivery_cache[key] = delivery_probability(
                self.link_profile(src, dst), rate_obj, payload_bytes
            )
        return self._delivery_cache[key]

    def joint_delivery_probability(
        self,
        senders: list[int],
        dst: int,
        rate: Rate | float,
        payload_bytes: int = 1460,
    ) -> float:
        """Delivery probability of a SourceSync joint transmission.

        The per-subcarrier SNRs of the participating senders add (the Smart
        Combiner's ``sum_i |H_i|^2`` gain), so the joint link is both
        stronger and flatter than any individual link.
        """
        if not senders:
            raise ValueError("need at least one sender")
        if dst in senders:
            raise ValueError("destination cannot also be a sender")
        rate_obj = rate if isinstance(rate, Rate) else rate_for_mbps(rate)
        # The combined SNR is a sum over senders, so permutations of the
        # same sender set share one cache entry.
        key = (tuple(sorted(senders)), dst, rate_obj.mbps, payload_bytes)
        if key not in self._delivery_cache:
            profiles = [self.link_profile(s, dst) for s in senders]
            combined = combined_subcarrier_snr(profiles)
            self._delivery_cache[key] = delivery_probability(combined, rate_obj, payload_bytes)
        return self._delivery_cache[key]

    def _unprimed_pairs(self, rate_obj: Rate, payload_bytes: int) -> list[tuple[int, int]]:
        """Directed pairs whose delivery probability is not yet cached.

        The nested (src, dst) iteration order is the canonical order in
        which lazy shadowing/fading draws consume the testbed generator;
        every all-pairs sweep (:meth:`prime_delivery_cache` and the
        lockstep priming of :mod:`repro.routing.ensemble`) must walk pairs
        in exactly this order so seeded link realisations are stable.
        """
        pairs: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for src in self.node_ids:
            for dst in self.node_ids:
                if src == dst:
                    continue
                for a, b in ((src, dst), (dst, src)):
                    key = (a, b, rate_obj.mbps, payload_bytes)
                    if key not in self._delivery_cache and (a, b) not in seen:
                        seen.add((a, b))
                        pairs.append((a, b))
        return pairs

    def prime_delivery_cache(self, rate: Rate | float, payload_bytes: int = 1460) -> None:
        """Evaluate every directed link's delivery probability in one batch.

        Link profiles are materialised in the same nested (src, dst) order a
        sequential all-pairs sweep would use — the lazy shadowing/fading
        draws consume the testbed generator identically — and the EESM /
        waterfall mapping then runs once over the stacked profiles instead
        of once per link.  Memoised per (rate, payload length).
        """
        rate_obj = rate if isinstance(rate, Rate) else rate_for_mbps(rate)
        done_key = ("delivery_primed", rate_obj.mbps, payload_bytes)
        if self._routing_cache.get(done_key):
            return
        from repro.analysis.error_models import delivery_probabilities

        pairs = self._unprimed_pairs(rate_obj, payload_bytes)
        if pairs:
            profiles = np.stack([self.link_profile(a, b) for a, b in pairs])
            probs = delivery_probabilities(profiles, rate_obj, payload_bytes)
            for (a, b), prob in zip(pairs, probs):
                self._delivery_cache[(a, b, rate_obj.mbps, payload_bytes)] = float(prob)
        self._routing_cache[done_key] = True

    def delivery_prob_matrix(self, rate: Rate | float, payload_bytes: int = 1460) -> np.ndarray:
        """Dense pairwise single-sender delivery probabilities.

        Returns an ``(n_nodes, n_nodes)`` array indexed by node *position*
        (``self._node_index``), with zeros on the diagonal.  The matrix is
        assembled from the scalar delivery cache after one batched priming
        pass, so its entries are bit-identical to per-pair
        :meth:`delivery_probability` calls; routing hot loops index it
        instead of hashing tuple keys per attempt.

        Building the matrix materialises any missing link profile (lazy
        generator draws, in the canonical all-pairs order) — callers that
        need draw-order stability should only invoke it once every profile
        exists, e.g. after :func:`repro.net.etx.etx_graph` primed the
        testbed.
        """
        rate_obj = rate if isinstance(rate, Rate) else rate_for_mbps(rate)
        key = ("delivery_matrix", rate_obj.mbps, payload_bytes)
        cached = self._routing_cache.get(key)
        if cached is not None:
            return cached
        self.prime_delivery_cache(rate_obj, payload_bytes)
        n = len(self.nodes)
        matrix = np.zeros((n, n), dtype=np.float64)
        for a in self.node_ids:
            for b in self.node_ids:
                if a == b:
                    continue
                matrix[self._node_index[a], self._node_index[b]] = self._delivery_cache[
                    (a, b, rate_obj.mbps, payload_bytes)
                ]
        self._routing_cache[key] = matrix
        return matrix

    def joint_delivery_prob_row(
        self,
        senders: list[int] | tuple[int, ...],
        receivers: list[int],
        rate: Rate | float,
        payload_bytes: int = 1460,
    ) -> np.ndarray:
        """Joint delivery probabilities of one sender set towards many receivers.

        The per-receiver values live in a row table keyed by the *frozen*
        sender set.  Missing entries are filled in one batched
        combine-and-EESM pass over the outstanding receivers, accumulating
        the senders' linear SNRs in the caller's sender order — bit-identical
        to scalar :meth:`joint_delivery_probability` calls made in the same
        order, whose memo this row table also reads and writes.  Subsequent
        lookups are plain array gathers.

        Like the scalar path, filling an entry touches the senders' link
        profiles; callers needing draw-order stability should only ask for
        links whose profiles are already materialised.
        """
        rate_obj = rate if isinstance(rate, Rate) else rate_for_mbps(rate)
        sorted_senders = tuple(sorted(senders))
        key = ("joint_row", sorted_senders, rate_obj.mbps, payload_bytes)
        row = self._routing_cache.get(key)
        if row is None:
            row = {}
            self._routing_cache[key] = row
        missing = [dst for dst in receivers if dst not in row]
        if missing:
            from repro.analysis.error_models import (
                combined_subcarrier_snr_batch,
                delivery_probabilities,
            )

            fresh = []
            for dst in missing:
                cache_key = (sorted_senders, dst, rate_obj.mbps, payload_bytes)
                cached = self._delivery_cache.get(cache_key)
                if cached is not None:
                    row[dst] = cached
                else:
                    fresh.append(dst)
            if fresh:
                profiles = np.stack(
                    [[self.link_profile(s, dst) for dst in fresh] for s in senders]
                )
                combined = combined_subcarrier_snr_batch(profiles)
                probs = delivery_probabilities(combined, rate_obj, payload_bytes)
                for dst, prob in zip(fresh, probs):
                    value = float(prob)
                    row[dst] = value
                    self._delivery_cache[(sorted_senders, dst, rate_obj.mbps, payload_bytes)] = value
        out = np.empty(len(receivers), dtype=np.float64)
        for k, dst in enumerate(receivers):
            out[k] = row[dst]
        return out

    def loss_rate(self, src: int, dst: int, probe_rate_mbps: float = 6.0, probe_bytes: int = 1460) -> float:
        """Link loss rate as measured by routing-layer probes (for ETX)."""
        return 1.0 - self.delivery_probability(src, dst, probe_rate_mbps, probe_bytes)

    def attempt_delivery(
        self,
        senders: list[int] | int,
        dst: int,
        rate: Rate | float,
        payload_bytes: int,
        rng: np.random.Generator | None = None,
    ) -> bool:
        """Draw one Bernoulli delivery outcome for a (possibly joint) transmission."""
        rng = rng if rng is not None else self.rng
        prob = self._delivery_prob(senders, dst, rate, payload_bytes)
        return bool(rng.random() < prob)

    def _delivery_prob(
        self, senders: list[int] | int, dst: int, rate: Rate | float, payload_bytes: int
    ) -> float:
        if isinstance(senders, int):
            return self.delivery_probability(senders, dst, rate, payload_bytes)
        if len(senders) == 1:
            return self.delivery_probability(senders[0], dst, rate, payload_bytes)
        return self.joint_delivery_probability(list(senders), dst, rate, payload_bytes)

    def attempt_deliveries(
        self,
        senders: list[int] | int,
        receivers: list[int],
        rate: Rate | float,
        payload_bytes: int,
        rng: np.random.Generator | None = None,
    ) -> list[bool]:
        """Bernoulli delivery outcomes for one transmission heard by many receivers.

        One ``rng.random(len(receivers))`` draw replaces a loop of
        single-receiver :meth:`attempt_delivery` calls; the generator
        consumes exactly the same uniform stream, so the batched outcomes
        are bit-identical to the sequential ones under a fixed seed.
        """
        rng = rng if rng is not None else self.rng
        if not receivers:
            return []
        probs = self._delivery_prob_vector(senders, receivers, rate, payload_bytes)
        if len(receivers) == 1:
            return [bool(rng.random() < probs[0])]
        draws = rng.random(len(receivers))
        return (draws < probs).tolist()

    def _delivery_prob_vector(
        self,
        senders: list[int] | int,
        receivers: list[int],
        rate: Rate | float,
        payload_bytes: int,
    ) -> np.ndarray:
        """Delivery probabilities of one transmission towards many receivers.

        Single-sender probabilities gather from the dense
        :meth:`delivery_prob_matrix` when it has been built (falling back to
        the scalar cache so lazily-constructed testbeds keep their draw
        order); joint probabilities come from the frozen-sender-set row
        table.
        """
        if isinstance(senders, int):
            sender: int | None = senders
        elif len(senders) == 1:
            sender = senders[0]
        else:
            sender = None
        if sender is None:
            return self.joint_delivery_prob_row(list(senders), receivers, rate, payload_bytes)
        rate_obj = rate if isinstance(rate, Rate) else rate_for_mbps(rate)
        matrix = self._routing_cache.get(("delivery_matrix", rate_obj.mbps, payload_bytes))
        if matrix is not None:
            idx = self._node_index
            return matrix[idx[sender], [idx[node] for node in receivers]]
        return np.array(
            [self.delivery_probability(sender, node, rate_obj, payload_bytes) for node in receivers]
        )

    def attempt_broadcasts(
        self,
        sender: int,
        receivers: list[int],
        n_packets: int,
        rate: Rate | float,
        payload_bytes: int,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Delivery outcomes of ``n_packets`` broadcasts to many receivers.

        Returns an ``(n_packets, len(receivers))`` boolean matrix from one
        uniform draw in packet-major order — the exact stream a nested
        per-packet / per-receiver :meth:`attempt_delivery` loop consumes.
        """
        rng = rng if rng is not None else self.rng
        if n_packets == 0 or not receivers:
            return np.zeros((n_packets, len(receivers)), dtype=bool)
        probs = self._delivery_prob_vector(sender, receivers, rate, payload_bytes)
        return rng.random((n_packets, len(receivers))) < probs[None, :]
