"""Tests for single-path routing, ExOR and ExOR + SourceSync."""

import numpy as np
import pytest

from repro.net.topology import Testbed
from repro.channel.propagation import PathLossModel
from repro.routing import (
    ExorConfig,
    ExorLane,
    LinkLocalConfig,
    LinkLocalLane,
    cp_increase_for_forwarders,
    simulate_exor,
    simulate_exor_sourcesync,
    simulate_link_local,
    simulate_link_local_ensemble,
    simulate_single_path,
    simulate_single_path_ensemble,
)


def _mesh(seed=0, lossy=True):
    rng = np.random.default_rng(seed)
    loss = PathLossModel(exponent=3.3, reference_loss_db=43.0 if lossy else 40.0, shadowing_sigma_db=4.0)
    positions = [(0.0, 0.0), (85.0, 0.0), (30.0, 8.0), (45.0, -6.0), (55.0, 10.0)]
    return Testbed.from_positions(positions, rng=rng, path_loss=loss), rng


class TestSinglePath:
    def test_delivers_over_multihop_route(self):
        testbed, rng = _mesh(1)
        result = simulate_single_path(testbed, 0, 1, 6.0, n_packets=20, rng=rng)
        assert result.delivered_packets > 0
        assert result.route[0] == 0 and result.route[-1] == 1
        assert result.throughput_mbps > 0

    def test_disconnected_pair_gives_zero(self):
        rng = np.random.default_rng(2)
        testbed = Testbed.from_positions([(0, 0), (5000, 0)], rng=rng)
        result = simulate_single_path(testbed, 0, 1, 6.0, n_packets=5, rng=rng)
        assert result.throughput_mbps == 0.0
        assert result.delivered_packets == 0

    def test_throughput_bounded_by_rate(self):
        testbed, rng = _mesh(3, lossy=False)
        result = simulate_single_path(testbed, 0, 2, 6.0, n_packets=30, rng=rng)
        assert result.throughput_mbps <= 6.0

    def test_delivery_ratio(self):
        testbed, rng = _mesh(4)
        result = simulate_single_path(testbed, 0, 1, 6.0, n_packets=10, rng=rng)
        assert 0.0 <= result.delivery_ratio <= 1.0


class TestTransferInputValidation:
    """Sequential simulators and their ensembles reject the same bad inputs."""

    @pytest.mark.parametrize("retry_limit", [0, -1])
    def test_single_path_retry_limit(self, retry_limit):
        testbed, rng = _mesh(1)
        with pytest.raises(ValueError, match="retry_limit"):
            simulate_single_path(testbed, 0, 1, 6.0, n_packets=3, retry_limit=retry_limit, rng=rng)
        lane = ExorLane(testbed, 0, 1, 6.0, [2, 3, 4], ExorConfig(batch_size=3), rng)
        with pytest.raises(ValueError, match="retry_limit"):
            simulate_single_path_ensemble([lane], retry_limit=retry_limit)

    def test_single_path_negative_packets(self):
        testbed, rng = _mesh(1)
        with pytest.raises(ValueError, match="n_packets"):
            simulate_single_path(testbed, 0, 1, 6.0, n_packets=-2, rng=rng)

    def test_link_local_negative_packets(self):
        testbed, rng = _mesh(1)
        with pytest.raises(ValueError, match="n_packets"):
            simulate_link_local(testbed, 0, 1, 6.0, n_packets=-2, rng=rng)
        lane = LinkLocalLane(testbed, 0, 1, 6.0, -2, LinkLocalConfig(), rng)
        with pytest.raises(ValueError, match="n_packets"):
            simulate_link_local_ensemble([lane])

    def test_rejection_consumes_no_entropy(self):
        testbed, _ = _mesh(1)
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            simulate_link_local(testbed, 0, 1, 6.0, n_packets=-1, rng=rng)
        with pytest.raises(ValueError):
            simulate_single_path(testbed, 0, 1, 6.0, retry_limit=0, rng=rng)
        assert rng.random() == np.random.default_rng(9).random()
        assert not testbed._routing_cache  # rejected before any routing work


class TestExor:
    def test_batch_mostly_delivered(self):
        testbed, rng = _mesh(5)
        config = ExorConfig(batch_size=12)
        result = simulate_exor(testbed, 0, 1, 6.0, relays=[2, 3, 4], config=config, rng=rng)
        assert result.delivery_ratio > 0.7
        assert result.throughput_mbps > 0

    def test_forwarders_ordered_and_include_source(self):
        testbed, rng = _mesh(6)
        config = ExorConfig(batch_size=8)
        result = simulate_exor(testbed, 0, 1, 6.0, relays=[2, 3, 4], config=config, rng=rng)
        assert result.forwarders[-1] == 0  # source is the lowest-priority forwarder
        assert set(result.forwarders[:-1]).issubset({2, 3, 4})

    def test_no_joint_transmissions_without_diversity(self):
        testbed, rng = _mesh(7)
        result = simulate_exor(testbed, 0, 1, 6.0, relays=[2, 3, 4], config=ExorConfig(batch_size=8), rng=rng)
        assert result.joint_transmissions == 0

    def test_exor_beats_single_path_on_lossy_mesh(self):
        # Aggregate over several topologies so per-seed noise does not flip
        # the comparison (the paper's Fig. 18 reports medians over 20).
        exor_total, single_total = 0.0, 0.0
        for seed in range(6):
            testbed, rng = _mesh(100 + seed)
            config = ExorConfig(batch_size=12)
            single = simulate_single_path(testbed, 0, 1, 6.0, n_packets=12, rng=rng)
            exor = simulate_exor(testbed, 0, 1, 6.0, relays=[2, 3, 4], config=config, rng=rng)
            exor_total += exor.throughput_mbps
            single_total += single.throughput_mbps
        assert exor_total > single_total


class TestExorMacAccounting:
    def _record_mac(self, monkeypatch):
        """Capture the CsmaState instances simulate_exor creates."""
        import repro.routing.exor as exor_module
        from repro.net.mac import CsmaState

        created = []

        class RecordingCsma(CsmaState):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(exor_module, "CsmaState", RecordingCsma)
        return created

    def test_failures_counted_in_broadcast_and_forwarding(self, monkeypatch):
        """A lossy mesh records failed attempts; success means some receiver heard."""
        created = self._record_mac(monkeypatch)
        testbed, rng = _mesh(12)
        result = simulate_exor(testbed, 0, 1, 12.0, relays=[2, 3, 4], config=ExorConfig(batch_size=12), rng=rng)
        (mac,) = created
        assert mac.transmissions == result.transmissions
        assert 0 < mac.failures < mac.transmissions

    def test_throughput_reads_only_elapsed_airtime(self, monkeypatch):
        """The success flag feeds CsmaState.failures alone, never throughput."""
        created = self._record_mac(monkeypatch)
        testbed, rng = _mesh(13)
        result = simulate_exor(testbed, 0, 1, 6.0, relays=[2, 3, 4], config=ExorConfig(batch_size=10), rng=rng)
        (mac,) = created
        expected = result.delivered_packets * 1460 * 8 / mac.elapsed_us
        assert result.throughput_mbps == expected


class TestExorSourceSync:
    def test_joint_transmissions_used(self):
        testbed, rng = _mesh(8)
        result = simulate_exor_sourcesync(
            testbed, 0, 1, 12.0, relays=[2, 3, 4], config=ExorConfig(batch_size=10), rng=rng
        )
        assert result.joint_transmissions > 0

    def test_sourcesync_at_least_as_good_as_exor_on_aggregate(self):
        # On individual topologies the synchronization overhead can cost a
        # few percent when links are already good; aggregated over several
        # topologies SourceSync must not lose more than that margin (the
        # positive gains are asserted by the Fig. 18 experiment tests).
        joint_total, exor_total = 0.0, 0.0
        for seed in range(6):
            testbed, rng = _mesh(200 + seed)
            config = ExorConfig(batch_size=10)
            exor = simulate_exor(testbed, 0, 1, 12.0, relays=[2, 3, 4], config=config, rng=rng)
            joint = simulate_exor_sourcesync(
                testbed, 0, 1, 12.0, relays=[2, 3, 4], config=config, rng=rng
            )
            exor_total += exor.throughput_mbps
            joint_total += joint.throughput_mbps
        assert joint_total >= 0.93 * exor_total

    def test_cp_increase_for_forwarders(self):
        testbed, _ = _mesh(9)
        increase = cp_increase_for_forwarders(testbed, lead=2, cosenders=[3, 4], receivers=[1])
        assert increase >= 0
        # A single receiver can always be perfectly aligned, so the increase
        # should be tiny (sub-sample rounding at most).
        assert increase <= 1

    def test_cp_increase_multi_receiver(self):
        testbed, _ = _mesh(10)
        increase = cp_increase_for_forwarders(testbed, lead=2, cosenders=[3], receivers=[1, 4])
        assert increase >= 0

    def test_cp_increase_empty_inputs(self):
        testbed, _ = _mesh(11)
        assert cp_increase_for_forwarders(testbed, 2, [], [1]) == 0
        assert cp_increase_for_forwarders(testbed, 2, [3], []) == 0
