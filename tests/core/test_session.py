"""End-to-end tests of the SourceSync session (joint transmissions over simulated links)."""

import numpy as np
import pytest

from repro.core import JointTopology, SourceSyncConfig, SourceSyncSession
from repro.phy import bits as bitutils
from repro.phy.params import DEFAULT_PARAMS as P


@pytest.fixture(scope="module")
def session():
    rng = np.random.default_rng(100)
    topo = JointTopology.from_snrs(
        rng,
        lead_rx_snr_db=16.0,
        cosender_rx_snr_db=[16.0],
        lead_cosender_snr_db=[22.0],
    )
    sess = SourceSyncSession(topo, SourceSyncConfig(), rng=rng)
    sess.measure_delays()
    sess.converge_tracking(rounds=5)
    return sess


class TestTopology:
    def test_from_snrs_builds_all_links(self):
        rng = np.random.default_rng(0)
        topo = JointTopology.from_snrs(rng, 10.0, [8.0, 12.0])
        assert topo.n_cosenders == 2
        assert len(topo.links_cosender_rx) == 2
        assert len(topo.links_lead_cosender) == 2
        assert topo.link_lead_rx.snr_db(topo.noise_power) == pytest.approx(10.0, abs=1e-6)

    def test_inconsistent_links_rejected(self):
        rng = np.random.default_rng(1)
        topo = JointTopology.from_snrs(rng, 10.0, [8.0])
        with pytest.raises(ValueError):
            JointTopology(
                lead=topo.lead,
                cosenders=topo.cosenders,
                receiver=topo.receiver,
                link_lead_rx=topo.link_lead_rx,
                links_cosender_rx=[],
                links_lead_cosender=topo.links_lead_cosender,
                links_cosender_lead=topo.links_cosender_lead,
                link_rx_lead=topo.link_rx_lead,
                links_rx_cosender=topo.links_rx_cosender,
            )


class TestDelayMeasurement:
    def test_probe_based_delays_close_to_truth(self, session):
        state = session._states[0]
        topo = session.topology
        assert state.lead_to_cosender_samples == pytest.approx(
            topo.links_lead_cosender[0].delay_samples, abs=2.0
        )
        assert state.lead_to_receiver_samples == pytest.approx(
            topo.link_lead_rx.delay_samples, abs=2.0
        )
        assert state.cosender_to_receiver_samples == pytest.approx(
            topo.links_cosender_rx[0].delay_samples, abs=2.0
        )

    def test_cfo_estimate_close_to_truth(self, session):
        state = session._states[0]
        true_value = -session.topology.links_lead_cosender[0].cfo_hz
        assert state.cfo_to_lead_hz == pytest.approx(true_value, abs=4e3)

    def test_use_true_delays_shortcut(self):
        rng = np.random.default_rng(2)
        topo = JointTopology.from_snrs(rng, 12.0, [12.0])
        sess = SourceSyncSession(topo, rng=rng)
        sess.measure_delays(use_true_delays=True)
        assert sess._states[0].lead_to_receiver_samples == topo.link_lead_rx.delay_samples


class TestHeaderExchange:
    def test_tracking_keeps_measured_misalignment_small(self, session):
        residuals = []
        for _ in range(8):
            outcome = session.run_header_exchange(apply_tracking_feedback=True)
            if outcome.measured_misalignment and outcome.measured_misalignment.misalignments_samples:
                residuals.append(abs(outcome.measured_misalignment.misalignments_samples[0]))
        assert residuals, "no header exchange produced a measurement"
        # Converged tracking holds the measured misalignment well inside one
        # sample (50 ns), consistent with Fig. 12.
        assert np.median(residuals) < 1.0

    def test_channels_exposed(self, session):
        outcome = session.run_header_exchange(apply_tracking_feedback=False)
        assert outcome.channels is not None
        assert outcome.channels.n_active_senders == 2

    def test_uncompensated_baseline_is_worse(self):
        rng = np.random.default_rng(3)
        topo = JointTopology.from_snrs(rng, 18.0, [18.0], lead_cosender_snr_db=[22.0])
        sess = SourceSyncSession(topo, rng=rng)
        sess.measure_delays()
        sess.converge_tracking(rounds=4)
        sync_errors = []
        base_errors = []
        for _ in range(6):
            sync = sess.run_header_exchange(compensate=True, apply_tracking_feedback=True)
            base = sess.run_header_exchange(compensate=False, apply_tracking_feedback=False)
            sync_errors.append(abs(sync.true_misalignment_samples[0]))
            base_errors.append(abs(base.true_misalignment_samples[0]))
        assert np.median(base_errors) > 4 * np.median(sync_errors)


class TestJointFrames:
    def test_joint_frame_decodes(self, session):
        rng = np.random.default_rng(4)
        payload = bitutils.random_payload(80, rng)
        outcome = session.run_joint_frame(payload, rate_mbps=6.0, genie_timing=True)
        assert outcome.result.success
        assert outcome.result.payload == payload

    def test_joint_frame_with_receiver_timing(self, session):
        rng = np.random.default_rng(5)
        payload = bitutils.random_payload(60, rng)
        outcome = session.run_joint_frame(payload, rate_mbps=12.0)
        assert outcome.result.success

    def test_joint_beats_single_sender_snr(self, session):
        rng = np.random.default_rng(6)
        payload = bitutils.random_payload(50, rng)
        joint = session.run_joint_frame(payload, 6.0, genie_timing=True)
        single = session.run_single_sender_frame(payload, 6.0, genie_timing=True)
        assert joint.result.snr_db > single.result.snr_db + 1.0

    def test_partial_participation(self, session):
        rng = np.random.default_rng(7)
        payload = bitutils.random_payload(60, rng)
        outcome = session.run_joint_frame(payload, 6.0, active_cosenders=[], genie_timing=True)
        assert outcome.result.success  # lead alone still decodable (§6)
        assert outcome.result.channels.n_active_senders == 1

    def test_increased_cp_frame_decodes(self, session):
        rng = np.random.default_rng(8)
        payload = bitutils.random_payload(40, rng)
        outcome = session.run_joint_frame(payload, 6.0, data_cp_samples=24, genie_timing=True)
        assert outcome.result.success
        assert outcome.layout.effective_data_cp == 24

    def test_misalignment_reported_per_cosender(self, session):
        rng = np.random.default_rng(9)
        payload = bitutils.random_payload(30, rng)
        outcome = session.run_joint_frame(payload, 6.0, genie_timing=True)
        assert len(outcome.true_misalignment_samples) == 1
        assert outcome.result.misalignment is not None


class TestTrackingFeedbackRouting:
    """§4.5 feedback reaches the co-sender whose training slot was measured.

    Co-sender 0 cannot hear the lead (−15 dB link), so it never transmits;
    co-sender 1 does.  The receiver's report lists one value per training
    slot it found, so a silent co-sender must keep its wait time and the
    transmitting one must take its own slot's value — also when noise makes
    the silent co-sender's slot look occupied.
    """

    @staticmethod
    def _session(seed):
        rng = np.random.default_rng(seed)
        topo = JointTopology.from_snrs(
            rng,
            lead_rx_snr_db=20.0,
            cosender_rx_snr_db=[20.0, 20.0],
            lead_cosender_snr_db=[-15.0, 25.0],
        )
        session = SourceSyncSession(topo, SourceSyncConfig(), rng=rng)
        session.measure_delays()
        return session

    @staticmethod
    def _wait_times(session):
        return [state.tracker.wait_time_samples for state in session._states]

    @staticmethod
    def _slot_value(channels, report, k):
        found = [i for i, channel in enumerate(channels.cosenders) if channel is not None]
        return report.misalignments_samples[found.index(k)]

    def _assert_routed(self, session, before, channels, report):
        gain = session.config.tracking_gain
        after = self._wait_times(session)
        assert after[0] == before[0]
        expected = before[1] - gain * self._slot_value(channels, report, 1)
        assert after[1] == pytest.approx(expected, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_joint_frame_feedback_skips_silent_cosender(self, seed):
        session = self._session(seed)
        before = self._wait_times(session)
        outcome = session.run_joint_frame(b"\x5a" * 30, genie_timing=True)
        assert not np.isfinite(outcome.true_misalignment_samples[0])
        assert np.isfinite(outcome.true_misalignment_samples[1])
        self._assert_routed(
            session, before, outcome.result.channels, outcome.result.misalignment
        )

    # Seeds whose first exchange finds energy in the silent co-sender's slot.
    PHANTOM_SLOT_SEEDS = [23, 28]

    @pytest.mark.parametrize("seed", PHANTOM_SLOT_SEEDS)
    def test_header_exchange_feedback_uses_own_slot(self, seed):
        session = self._session(seed)
        before = self._wait_times(session)
        outcome = session.run_header_exchange(apply_tracking_feedback=True)
        assert not np.isfinite(outcome.true_misalignment_samples[0])
        assert outcome.channels.cosenders[0] is not None  # phantom slot-0 energy
        self._assert_routed(session, before, outcome.channels, outcome.measured_misalignment)

    def test_converge_tracking_batch_feedback_uses_own_slot(self):
        from repro.core.ensemble import converge_tracking_batch

        sessions = [self._session(seed) for seed in self.PHANTOM_SLOT_SEEDS]
        twins = [self._session(seed) for seed in self.PHANTOM_SLOT_SEEDS]
        befores = [self._wait_times(session) for session in sessions]
        converge_tracking_batch(sessions, rounds=1)
        for session, twin, before in zip(sessions, twins, befores):
            # The twin draws the same exchange without feedback, exposing
            # the per-slot report the batched round fed back.
            outcome = twin.run_header_exchange(apply_tracking_feedback=False)
            assert outcome.channels.cosenders[0] is not None
            self._assert_routed(session, before, outcome.channels, outcome.measured_misalignment)
