"""The deferred joint-frame receive chain: outputs and memory shape.

``JointReceiver.receive_many`` decodes a whole ensemble of joint frames.
It must decode each frame as :meth:`JointReceiver.receive` does, whether
the frame carries genie timing or is acquired, and it must do so without
a full-ensemble copy of the samples: frames are aligned one at a time and
Viterbi survivors are packed bits.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import JointReceiver, JointTopology, SourceSyncConfig, SourceSyncSession
from repro.core import ensemble as ens
from repro.phy import bits as bitutils


def _receive_jobs(n_sessions, payload_bytes, cps=(0, 16)):
    """The receive jobs and receiver of one genie-timing joint-frame ensemble."""
    sessions = []
    for seed in range(n_sessions):
        rng = np.random.default_rng(100 + seed)
        topo = JointTopology.from_snrs(
            rng, lead_rx_snr_db=20.0, cosender_rx_snr_db=[20.0], lead_cosender_snr_db=[25.0]
        )
        sessions.append(SourceSyncSession(topo, SourceSyncConfig(), rng=rng))
    payload = bitutils.random_payload(payload_bytes, np.random.default_rng(1))
    captured = []
    receive_many = JointReceiver.receive_many

    def spy(self, jobs, *args, **kwargs):
        captured.append(list(jobs))
        return receive_many(self, jobs, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(JointReceiver, "receive_many", spy)
        ens.run_joint_frames_batch(
            sessions,
            [
                [ens.JointFrameJob(payload, data_cp_samples=cp, genie_timing=True) for cp in cps]
                for _ in sessions
            ],
        )
    (jobs,) = captured
    return sessions[0].receiver, jobs


def test_mixed_genie_and_acquired_timing_match_per_frame_receive():
    receiver, jobs = _receive_jobs(3, 40, cps=(0, 8, 32))
    # Every other frame acquires its own timing.
    jobs = [
        (samples, length, layout, frame_config, None if k % 2 else start)
        for k, (samples, length, layout, frame_config, start) in enumerate(jobs)
    ]
    batched = receiver.receive_many(jobs)
    for (samples, length, layout, frame_config, start), b in zip(jobs, batched):
        a = receiver.receive(samples[:length], layout, frame_config, start_index=start)
        assert a.detected == b.detected
        assert a.crc_ok == b.crc_ok
        assert a.payload == b.payload
        assert a.start_index == b.start_index
        assert a.cfo_hz == pytest.approx(b.cfo_hz, rel=1e-9, abs=1e-9)
        np.testing.assert_allclose(
            a.equalized_symbols, b.equalized_symbols, rtol=1e-9, atol=1e-12
        )
    assert sum(r.crc_ok for r in batched) == len(jobs)


def test_receive_many_holds_no_full_ensemble_copy():
    """Traced peak above entry stays under two padded copies of the ensemble.

    Aligning every frame up front kept a padded ``(n, max_len)`` copy and an
    aligned copy of each frame live together, on top of the LLR blocks and a
    byte per Viterbi survivor.  One aligned frame at a time, packed
    survivors and no padded block when nothing is acquired leave the LLRs
    and the decoded outputs as the only ensemble-sized arrays.
    """
    receiver, jobs = _receive_jobs(10, 300)
    one_copy = len(jobs) * max(samples.size for samples, *_ in jobs) * 16
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        results = receiver.receive_many(jobs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.crc_ok for r in results)
    assert peak - entry < 2 * one_copy
