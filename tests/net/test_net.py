"""Tests for the network substrate: topology, ETX and MAC timing."""

import numpy as np
import pytest

from repro.net import (
    CsmaState,
    MacTiming,
    MeshNode,
    Testbed,
    best_route,
    etx_graph,
    etx_to_destination,
    forwarder_order,
    link_etx,
)
from repro.phy.rates import rate_for_mbps


@pytest.fixture(scope="module")
def line_testbed():
    """Four nodes on a line: 0 -- 2 -- 3 -- 1 with a long, weak 0-1 link.

    Shadowing is disabled so the link-quality ordering follows distance
    deterministically.
    """
    from repro.channel.propagation import PathLossModel

    rng = np.random.default_rng(0)
    return Testbed.from_positions(
        [(0, 0), (90, 0), (30, 0), (60, 0)],
        rng=rng,
        path_loss=PathLossModel(shadowing_sigma_db=0.0),
    )


class TestNodesAndPackets:
    def test_distance(self):
        a, b = MeshNode(0, 0.0, 0.0), MeshNode(1, 3.0, 4.0)
        assert a.distance_to(b) == pytest.approx(5.0)

    def test_random_node_in_area(self):
        rng = np.random.default_rng(1)
        node = MeshNode.random(5, rng, area_m=30.0)
        assert 0 <= node.x <= 30 and 0 <= node.y <= 30


class TestTestbed:
    def test_snr_decreases_with_distance(self, line_testbed):
        near = line_testbed.link_average_snr_db(0, 2)
        far = line_testbed.link_average_snr_db(0, 1)
        assert near > far

    def test_snr_is_reciprocal_and_cached(self, line_testbed):
        assert line_testbed.link_average_snr_db(0, 2) == line_testbed.link_average_snr_db(2, 0)
        assert line_testbed.link_average_snr_db(0, 2) == line_testbed.link_average_snr_db(0, 2)

    def test_profiles_are_directional_but_stable(self, line_testbed):
        forward = line_testbed.link_profile(0, 2)
        again = line_testbed.link_profile(0, 2)
        assert np.array_equal(forward, again)
        assert forward.size == line_testbed.params.n_occupied_subcarriers

    def test_delivery_probability_ordering(self, line_testbed):
        good = line_testbed.delivery_probability(0, 2, 6.0)
        bad = line_testbed.delivery_probability(0, 1, 6.0)
        assert good > bad

    def test_joint_delivery_at_least_best_single(self, line_testbed):
        single = max(
            line_testbed.delivery_probability(2, 1, 12.0),
            line_testbed.delivery_probability(3, 1, 12.0),
        )
        joint = line_testbed.joint_delivery_probability([2, 3], 1, 12.0)
        assert joint >= single - 1e-9

    def test_self_link_rejected(self, line_testbed):
        with pytest.raises(ValueError):
            line_testbed.delivery_probability(0, 0, 6.0)
        with pytest.raises(ValueError):
            line_testbed.joint_delivery_probability([1], 1, 6.0)

    def test_attempt_delivery_is_bernoulli(self, line_testbed):
        rng = np.random.default_rng(2)
        outcomes = [line_testbed.attempt_delivery(0, 2, 6.0, 1460, rng) for _ in range(100)]
        prob = line_testbed.delivery_probability(0, 2, 6.0)
        assert abs(np.mean(outcomes) - prob) < 0.2

    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(ValueError):
            Testbed(nodes=[MeshNode(0, 0, 0), MeshNode(0, 1, 1)])

    def test_random_testbed(self):
        rng = np.random.default_rng(3)
        tb = Testbed.random(6, rng)
        assert len(tb.node_ids) == 6


class TestEtx:
    def test_link_etx_formula(self):
        assert link_etx(0.5, 0.5) == pytest.approx(4.0)
        assert link_etx(0.0, 1.0) == float("inf")

    def test_graph_and_best_route(self, line_testbed):
        graph = etx_graph(line_testbed)
        route = best_route(graph, 0, 1)
        assert route is not None
        assert route[0] == 0 and route[-1] == 1
        # The multi-hop route through the intermediate nodes must be chosen
        # over the weak direct link (if the direct link is usable at all).
        assert len(route) >= 3

    def test_etx_distance_ordering(self, line_testbed):
        graph = etx_graph(line_testbed)
        distances = etx_to_destination(graph, 1)
        assert distances[3] < distances[2] < distances[0]

    def test_forwarder_order(self, line_testbed):
        graph = etx_graph(line_testbed)
        order = forwarder_order(graph, [2, 3], 1)
        assert order == [3, 2]

    def test_disconnected_route(self):
        rng = np.random.default_rng(4)
        tb = Testbed.from_positions([(0, 0), (5000, 0)], rng=rng)
        graph = etx_graph(tb)
        assert best_route(graph, 0, 1) is None


class TestDeliveryTables:
    def _mesh(self, seed=0):
        from repro.channel.propagation import PathLossModel

        rng = np.random.default_rng(seed)
        return Testbed.from_positions(
            [(0.0, 0.0), (85.0, 0.0), (30.0, 8.0), (55.0, -7.0)],
            rng=rng,
            path_loss=PathLossModel(exponent=3.3, reference_loss_db=43.0, shadowing_sigma_db=4.0),
        )

    def test_delivery_prob_matrix_matches_scalar_cache(self):
        tb = self._mesh(1)
        matrix = tb.delivery_prob_matrix(12.0, 1460)
        for a in tb.node_ids:
            for b in tb.node_ids:
                if a == b:
                    assert matrix[tb._node_index[a], tb._node_index[b]] == 0.0
                else:
                    assert matrix[tb._node_index[a], tb._node_index[b]] == tb.delivery_probability(
                        a, b, 12.0, 1460
                    )

    def test_delivery_prob_matrix_is_cached(self):
        tb = self._mesh(2)
        assert tb.delivery_prob_matrix(6.0, 1460) is tb.delivery_prob_matrix(6.0, 1460)

    def test_joint_row_matches_scalar_joint_probability(self):
        tb = self._mesh(3)
        tb.prime_delivery_cache(6.0, 1460)
        row = tb.joint_delivery_prob_row([2, 3], [0, 1], 6.0, 1460)
        fresh = self._mesh(3)
        fresh.prime_delivery_cache(6.0, 1460)  # same canonical link realisations
        expected = [fresh.joint_delivery_probability([2, 3], d, 6.0, 1460) for d in (0, 1)]
        assert row.tolist() == expected

    def test_joint_row_fill_respects_sender_order(self):
        """The batched row fill and the scalar memo produce one shared value."""
        tb = self._mesh(4)
        tb.prime_delivery_cache(6.0, 1460)
        row = tb.joint_delivery_prob_row([3, 2, 0], [1], 6.0, 1460)
        # A later scalar call with any permutation hits the same cache entry.
        assert tb.joint_delivery_probability([2, 0, 3], 1, 6.0, 1460) == row[0]

    def test_prime_testbeds_lockstep_bitwise_matches_sequential_prime(self):
        from repro.routing.ensemble import prime_testbeds_lockstep

        sequential = [self._mesh(seed) for seed in (10, 11, 12)]
        for tb in sequential:
            tb.prime_delivery_cache(6.0, 1460)
        lockstep = [self._mesh(seed) for seed in (10, 11, 12)]
        prime_testbeds_lockstep(lockstep, 6.0, 1460)
        for seq_tb, lock_tb in zip(sequential, lockstep):
            assert seq_tb._delivery_cache == lock_tb._delivery_cache
            assert seq_tb._profile_cache.keys() == lock_tb._profile_cache.keys()
            for key in seq_tb._profile_cache:
                np.testing.assert_array_equal(
                    seq_tb._profile_cache[key], lock_tb._profile_cache[key]
                )
            # The generators must be in identical states afterwards.
            assert seq_tb.rng.random() == lock_tb.rng.random()

    def test_etx_graph_cache_hit(self, monkeypatch):
        """Both schemes of a topology share one ETX graph build."""
        import repro.net.etx as etx_module
        from repro.routing.exor import ExorConfig, simulate_exor
        from repro.routing.exor_sourcesync import simulate_exor_sourcesync

        builds = []
        original = etx_module._build_etx_graph

        def counting_build(*args, **kwargs):
            builds.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(etx_module, "_build_etx_graph", counting_build)
        tb = self._mesh(5)
        rng = np.random.default_rng(99)
        config = ExorConfig(batch_size=4)
        simulate_exor(tb, 0, 1, 6.0, [2, 3], config=config, rng=rng)
        simulate_exor_sourcesync(tb, 0, 1, 6.0, [2, 3], config=config, rng=rng)
        assert len(builds) == 1

    def test_exor_priority_cache_hit(self):
        from repro.routing.exor import ExorConfig, exor_priority

        tb = self._mesh(6)
        config = ExorConfig()
        first = exor_priority(tb, [2, 3], 0, 1, config)
        assert ("exor_priority", config.probe_rate_mbps, config.payload_bytes, (2, 3), 0, 1) in (
            tb._routing_cache
        )
        assert exor_priority(tb, [2, 3], 0, 1, config) == first


class TestMacTiming:
    def test_frame_airtime_decreases_with_rate(self):
        timing = MacTiming()
        assert timing.frame_airtime_us(1460, 54.0) < timing.frame_airtime_us(1460, 6.0)

    def test_transaction_includes_overheads(self):
        timing = MacTiming()
        frame = timing.frame_airtime_us(1460, 12.0)
        transaction = timing.single_transaction_us(1460, 12.0)
        assert transaction > frame + timing.difs_us

    def test_joint_overhead_positive_and_small(self):
        timing = MacTiming()
        overhead = timing.sourcesync_overhead_us(n_cosenders=1)
        assert 10.0 < overhead < 60.0
        joint = timing.joint_transaction_us(1460, 12.0, n_cosenders=1)
        single = timing.single_transaction_us(1460, 12.0)
        assert joint == pytest.approx(single + overhead)

    def test_joint_overhead_fraction_matches_paper_ballpark(self):
        timing = MacTiming()
        two = timing.joint_overhead_fraction(1460, 12.0, n_cosenders=1)
        five = timing.joint_overhead_fraction(1460, 12.0, n_cosenders=4)
        assert 0.01 < two < 0.03
        assert two < five < 0.06

    def test_rejects_negative_cosenders(self):
        with pytest.raises(ValueError):
            MacTiming().sourcesync_overhead_us(-1)

    def test_csma_state_accounting(self):
        state = CsmaState()
        state.account(100.0, True)
        state.account(100.0, False)
        assert state.transmissions == 2
        assert state.failures == 1
        assert state.throughput_mbps(100.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            state.account(-1.0, True)

