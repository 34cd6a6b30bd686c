"""Joint receiver: decodes a joint frame from multiple synchronized senders (§5, §6).

The receive path mirrors a standard OFDM receiver but differs in the three
places the paper calls out:

* it estimates one channel per sender — the lead sender's from the
  preamble LTF and each co-sender's from its channel-estimation slot
  (:mod:`repro.core.channel_est.joint_estimator`);
* it tracks one residual phase per sender using the time-shared pilots
  (:mod:`repro.core.channel_est.phase_tracking`) and applies the rotations
  to the individual channels before combining them;
* it decodes the space-time-coded data symbols with the Smart Combiner
  (:mod:`repro.core.combining`), obtaining the ``sum_i |H_i|^2`` combining
  gain per subcarrier.

It also produces the misalignment report (§4.5) that the receiver piggybacks
on its ACK so co-senders can track delay changes without new probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.channel_est.joint_estimator import (
    ACTIVITY_THRESHOLD,
    JointChannelEstimate,
    estimate_sender_channel,
    sender_active,
)
from repro.core.sync.detection_delay import phase_slope_windowed_batch
from repro.core.channel_est.phase_tracking import PerSenderPhaseTracker, pilot_owner
from repro.core.combining.stbc import SmartCombiner
from repro.core.config import SourceSyncConfig
from repro.core.frame import JointFrameLayout
from repro.core.sync.detection_delay import estimate_detection_delay
from repro.core.sync.tracking import MisalignmentReport, measure_misalignment
from repro.phy import bits as bitutils
from repro.phy.coding.convolutional import get_code
from repro.phy.coding.interleaver import interleaver_permutation
from repro.phy.coding.puncturing import depuncture
from repro.phy.detection import (
    detect_packet_autocorrelation,
    detect_packet_autocorrelation_batch,
    estimate_coarse_cfo_rows,
)
from repro.phy.equalizer import ChannelEstimate, estimate_channel_ltf, estimate_noise_from_ltf
from repro.phy.modulation import get_modulation
from repro.phy.receiver import apply_cfo_correction
from repro.phy.detection import estimate_coarse_cfo
from repro.phy.transmitter import FrameConfig

__all__ = ["JointReceiveResult", "JointReceiver"]

_CODE = get_code()


@dataclass
class JointReceiveResult:
    """Outcome of attempting to decode one joint frame."""

    detected: bool
    crc_ok: bool
    payload: bytes
    start_index: int = -1
    channels: JointChannelEstimate | None = None
    misalignment: MisalignmentReport | None = None
    snr_db: float = float("nan")
    per_subcarrier_snr_db: np.ndarray | None = field(default=None, repr=False)
    cfo_hz: float = 0.0
    equalized_symbols: np.ndarray | None = field(default=None, repr=False)

    @property
    def success(self) -> bool:
        """True when the frame was detected and passed its CRC."""
        return self.detected and self.crc_ok


class JointReceiver:
    """Decodes joint frames built by :class:`repro.core.sender.LeadSender` and co-senders."""

    def __init__(self, config: SourceSyncConfig = SourceSyncConfig()):
        self.config = config
        self.combiner = SmartCombiner(config.combiner_scheme)

    # ------------------------------------------------------------------
    # Timing acquisition
    # ------------------------------------------------------------------
    def acquire(self, samples: np.ndarray, layout: JointFrameLayout) -> tuple[bool, int]:
        """Detect the joint frame and estimate its start to the nearest sample.

        Coarse detection uses the standard STF autocorrelator; the coarse
        index is then corrected with the channel-phase-slope estimate of the
        detection delay (§4.2a) measured on the lead sender's LTF — the same
        estimator co-senders use — rather than a matched filter.
        """
        params = layout.params
        detection = detect_packet_autocorrelation(samples, params)
        if not detection.detected:
            return False, -1
        # Anchor on the detection *instant* (which lags the true start by
        # the metric run plus the correlation lag) rather than the coarse
        # start estimate: backing the double guard off from the late instant
        # centres the LTF windows inside the periodic training field with
        # maximal margin to the phase-slope ambiguity limit (+-n_fft/4
        # samples of window offset).
        coarse = detection.detect_index
        backoff = 2 * params.cp_samples
        ltf_start = coarse + layout.stf_samples + 2 * params.cp_samples - backoff
        reps = np.empty((2, params.n_fft), dtype=np.complex128)
        for rep in range(2):
            chunk = samples[ltf_start + rep * params.n_fft : ltf_start + (rep + 1) * params.n_fft]
            if chunk.size < params.n_fft:
                return False, -1
            reps[rep] = np.fft.fft(chunk) / np.sqrt(params.n_fft)
        channel = estimate_channel_ltf(reps, params)
        offset = estimate_detection_delay(channel, params).delay_samples + backoff
        start = int(round(coarse - offset))
        return True, max(start, 0)

    # ------------------------------------------------------------------
    # Per-frame stages shared by the scalar and the batched receive paths
    # ------------------------------------------------------------------
    def _header_stage(
        self,
        samples: np.ndarray,
        layout: JointFrameLayout,
        start_index: int | None,
        n_samples: int,
        correct_cfo: bool,
    ) -> tuple[int, tuple[np.ndarray, float, JointChannelEstimate, MisalignmentReport] | None]:
        """Timing, CFO correction and per-sender channels of one frame.

        Acquires the frame (or takes the genie ``start_index``), cuts
        ``n_samples`` from its start, removes the lead-referenced CFO,
        estimates the lead channel and the noise from the preamble LTF and
        each co-sender's channel from its training slot, and measures the
        §4.5 misalignment.  Returns ``(start, stage)`` with ``stage =
        (frame, cfo_hz, channels, misalignment)``, or ``stage = None`` when
        the frame is not detected (``start == -1``) or does not fit.
        """
        params = layout.params
        samples = np.asarray(samples, dtype=np.complex128)
        backoff = self.config.window_backoff_samples
        if start_index is None:
            detected, start = self.acquire(samples, layout)
            if not detected:
                return -1, None
        else:
            start = int(start_index)
        if start + n_samples > samples.size:
            return start, None
        frame = samples[start : start + n_samples]
        cfo_hz = 0.0
        if correct_cfo:
            try:
                cfo_hz = estimate_coarse_cfo(samples, start, params)
            except ValueError:
                cfo_hz = 0.0
            frame = apply_cfo_correction(frame, cfo_hz, params.sample_period_s)

        ltf_start = layout.stf_samples + 2 * params.cp_samples - backoff
        reps = np.empty((2, params.n_fft), dtype=np.complex128)
        for rep in range(2):
            chunk = frame[ltf_start + rep * params.n_fft : ltf_start + (rep + 1) * params.n_fft]
            reps[rep] = np.fft.fft(chunk) / np.sqrt(params.n_fft)
        lead_channel = estimate_channel_ltf(reps, params)
        noise_var = estimate_noise_from_ltf(reps, params)
        lead_channel.noise_var = noise_var

        cosender_channels: list[ChannelEstimate | None] = []
        for k in range(layout.n_cosenders):
            slot_start = layout.cosender_training_offset(k)
            slot = frame[slot_start : slot_start + layout.ltf_samples]
            if not sender_active(slot, noise_var):
                cosender_channels.append(None)
                continue
            channel = estimate_sender_channel(slot, params, window_backoff=backoff)
            channel.noise_var = noise_var
            cosender_channels.append(channel)

        channels = JointChannelEstimate(
            lead=lead_channel, cosenders=cosender_channels, noise_var=noise_var, params=params
        )
        misalignment = measure_misalignment(
            lead_channel, [ch for ch in cosender_channels if ch is not None], params
        )
        return start, (frame, cfo_hz, channels, misalignment)

    def _data_llrs(
        self,
        frame: np.ndarray,
        layout: JointFrameLayout,
        frame_config: FrameConfig,
        channels: JointChannelEstimate,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Depunctured LLRs and combined data symbols of one aligned frame.

        Tracks one residual phase per sender on the time-shared pilots,
        rotates each active sender's channel by it, combines the space-time
        block code and soft-demaps and deinterleaves every data symbol.
        Returns ``(llrs, decoded_symbols)``; the LLRs are ready for Viterbi.
        """
        params = layout.params
        backoff = self.config.window_backoff_samples
        noise_var = channels.noise_var
        n_intended = 1 + layout.n_cosenders
        data_params = layout.data_params
        n_symbols_tx = self.combiner.pad_symbols(
            np.zeros((frame_config.n_data_symbols, params.n_data_subcarriers))
        ).shape[0]
        data_bins = params.data_bins()
        tracker = PerSenderPhaseTracker(n_senders=n_intended, params=params)
        active_mask = [True] + [ch is not None for ch in channels.cosenders]
        silent = ChannelEstimate(np.zeros(params.n_fft, np.complex128), noise_var)
        intended_channels = [channels.lead] + [
            ch if ch is not None else silent for ch in channels.cosenders
        ]

        # One gather + one batched FFT for every data symbol window; only the
        # pilot phase tracker stays sequential (each update unwraps relative
        # to the previous phase of the owning sender).
        windows = (
            layout.data_offset
            + np.arange(n_symbols_tx)[:, None] * layout.data_symbol_samples
            + data_params.cp_samples
            - backoff
            + np.arange(params.n_fft)[None, :]
        )
        freq_all = np.fft.fft(frame[windows], axis=-1) / np.sqrt(params.n_fft)
        phase_track = np.empty((n_symbols_tx, n_intended), dtype=np.float64)
        for t in range(n_symbols_tx):
            if not self.config.pilot_sharing or active_mask[pilot_owner(t, n_intended)]:
                tracker.update(freq_all[t], intended_channels, t)
            phase_track[t] = tracker.phases
        raw_symbols = freq_all[:, data_bins]
        per_symbol_channels = [
            channel.on_bins(data_bins)[None, :] * np.exp(1j * phase_track[:, sender])[:, None]
            for sender, channel in enumerate(intended_channels)
            if active_mask[sender]
        ]
        modulation = get_modulation(frame_config.rate.modulation)
        decoded_symbols, gain = self.combiner.decode(
            raw_symbols,
            per_symbol_channels,
            codeword_indices=channels.active_codewords(),
            constellation=modulation.points,
            return_gain=True,
        )

        # Bit-domain processing (identical to the single-sender chain): all
        # data symbols are soft-demapped in one vectorised call and
        # deinterleaved with a single permutation of the (n_symbols, n_cbps)
        # block instead of a per-symbol Python loop.
        n_cbps = frame_config.coded_bits_per_symbol
        n_sym = frame_config.n_data_symbols
        noise_eff = np.broadcast_to(
            noise_var / np.maximum(gain[:n_sym], 1e-12), decoded_symbols[:n_sym].shape
        )
        soft = modulation.demodulate_soft(
            decoded_symbols[:n_sym].reshape(-1), noise_eff.reshape(-1)
        ).reshape(n_sym, n_cbps)
        perm = interleaver_permutation(n_cbps, frame_config.rate.bits_per_symbol)
        llrs = soft[:, perm].reshape(-1)
        original_len = _CODE.coded_length(frame_config.n_info_bits + frame_config.n_pad_bits)
        return depuncture(llrs, frame_config.rate.code_rate, original_len), decoded_symbols

    @staticmethod
    def _frame_result(
        decoded_bits: np.ndarray,
        frame_config: FrameConfig,
        start: int,
        cfo_hz: float,
        channels: JointChannelEstimate,
        misalignment: MisalignmentReport,
        decoded_symbols: np.ndarray,
    ) -> JointReceiveResult:
        """Descramble, check the CRC and rate the SNR of one decoded frame."""
        descrambled = bitutils.descramble(decoded_bits, frame_config.scrambler_seed)
        frame_bytes = bitutils.bits_to_bytes(descrambled[: frame_config.n_info_bits])
        payload, crc_ok = bitutils.check_crc(frame_bytes)
        per_sc_snr = channels.per_subcarrier_snr_db()
        snr_db = float(10.0 * np.log10(max(np.mean(10.0 ** (per_sc_snr / 10.0)), 1e-15)))
        return JointReceiveResult(
            detected=True,
            crc_ok=crc_ok,
            payload=payload if crc_ok else frame_bytes[:-4],
            start_index=start,
            channels=channels,
            misalignment=misalignment,
            snr_db=snr_db,
            per_subcarrier_snr_db=per_sc_snr,
            cfo_hz=cfo_hz,
            equalized_symbols=decoded_symbols[: frame_config.n_data_symbols],
        )

    # ------------------------------------------------------------------
    # Header-only processing (synchronization measurements, §4.5 / §8.1)
    # ------------------------------------------------------------------
    def measure_header(
        self,
        samples: np.ndarray,
        layout: JointFrameLayout,
        start_index: int | None = None,
        correct_cfo: bool = True,
    ) -> tuple[JointChannelEstimate | None, MisalignmentReport | None, int]:
        """Estimate per-sender channels and misalignment from the frame header.

        This is the processing a receiver performs on every joint frame to
        produce the misalignment feedback of §4.5; it needs only the
        synchronization header and the co-sender training slots, not the
        data section, and is therefore also the building block of the
        high-accuracy repeated-header estimator of §8.1.1.

        Returns ``(channels, misalignment, start_index)``; the first two are
        ``None`` when the frame is not detected.
        """
        start, stage = self._header_stage(
            samples, layout, start_index, layout.data_offset, correct_cfo
        )
        if stage is None:
            return None, None, start
        _, _, channels, misalignment = stage
        return channels, misalignment, start

    # ------------------------------------------------------------------
    # Main receive path
    # ------------------------------------------------------------------
    def receive(
        self,
        samples: np.ndarray,
        layout: JointFrameLayout,
        frame_config: FrameConfig,
        start_index: int | None = None,
        correct_cfo: bool = True,
    ) -> JointReceiveResult:
        """Decode one joint frame.

        Parameters
        ----------
        samples:
            Received baseband samples containing the joint frame.
        layout:
            The joint frame layout announced in the synchronization header.
        frame_config:
            Rate / payload-length configuration shared by all senders.
        start_index:
            Optional externally supplied frame start (genie timing); when
            omitted the receiver acquires timing itself.
        correct_cfo:
            Whether to apply the standard receiver-side CFO correction
            referenced to the lead sender's preamble.
        """
        start, stage = self._header_stage(
            samples, layout, start_index, layout.total_samples, correct_cfo
        )
        if stage is None:
            return JointReceiveResult(False, False, b"", start_index=start)
        frame, cfo_hz, channels, misalignment = stage
        llrs, decoded_symbols = self._data_llrs(frame, layout, frame_config, channels)
        return self._frame_result(
            _CODE.decode(llrs, terminated=True),
            frame_config,
            start,
            cfo_hz,
            channels,
            misalignment,
            decoded_symbols,
        )

    # ------------------------------------------------------------------
    # Batched processing (the lockstep joint-frame ensemble path)
    # ------------------------------------------------------------------
    def _acquire_batch(
        self, rows: np.ndarray, lengths: np.ndarray, layout: JointFrameLayout
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`acquire` over zero-padded rows.

        Returns ``(detected, starts)`` arrays; per row the same detection,
        LTF estimation and phase-slope correction as the scalar path, with
        the detection and slope stages batched across the ensemble.
        """
        params = layout.params
        detections = detect_packet_autocorrelation_batch(rows, params)
        n_rows = rows.shape[0]
        detected = np.array([d.detected for d in detections])
        coarse = np.array([d.detect_index for d in detections], dtype=np.int64)
        starts = np.full(n_rows, -1, dtype=np.int64)
        backoff = 2 * params.cp_samples
        ltf_starts = coarse + layout.stf_samples + 2 * params.cp_samples - backoff
        fits = detected & (ltf_starts >= 0) & (ltf_starts + 2 * params.n_fft <= lengths)
        idx = np.nonzero(fits)[0]
        if idx.size:
            gather = ltf_starts[idx, None] + np.arange(2 * params.n_fft)[None, :]
            reps = rows[idx[:, None], gather].reshape(idx.size, 2, params.n_fft)
            ltf_syms = np.fft.fft(reps, axis=-1) / np.sqrt(params.n_fft)
            responses = estimate_channel_ltf(ltf_syms, params).response
            slopes, _ = phase_slope_windowed_batch(responses, params)
            offsets = slopes * params.n_fft / (2.0 * np.pi) + backoff
            starts[idx] = np.maximum(np.round(coarse[idx] - offsets).astype(np.int64), 0)
        return fits, starts

    def _header_channels_batch(
        self, frames: np.ndarray, layout: JointFrameLayout
    ) -> tuple[np.ndarray, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """Lead + co-sender channel estimation for aligned header frames.

        ``frames`` is ``(n, >= layout.data_offset)`` of CFO-corrected,
        frame-aligned samples.  Returns ``(lead_responses, noise_vars,
        slots)`` where ``slots[k] = (active_mask, responses)`` for co-sender
        ``k`` — the batched equivalent of the per-frame estimation loops in
        :meth:`measure_header` / :meth:`receive`.
        """
        params = layout.params
        backoff = self.config.window_backoff_samples
        n = frames.shape[0]
        ltf_start = layout.stf_samples + 2 * params.cp_samples - backoff
        reps = frames[:, ltf_start : ltf_start + 2 * params.n_fft].reshape(n, 2, params.n_fft)
        ltf_syms = np.fft.fft(reps, axis=-1) / np.sqrt(params.n_fft)
        lead_responses = estimate_channel_ltf(ltf_syms, params).response
        noise_vars = np.asarray(estimate_noise_from_ltf(ltf_syms, params), dtype=np.float64)

        slots: list[tuple[np.ndarray, np.ndarray]] = []
        slot_window_start = 2 * params.cp_samples - backoff
        for k in range(layout.n_cosenders):
            slot_start = layout.cosender_training_offset(k)
            slot = frames[:, slot_start : slot_start + layout.ltf_samples]
            energy = np.mean(np.abs(slot) ** 2, axis=1)
            active = energy > noise_vars * ACTIVITY_THRESHOLD
            slot_reps = slot[
                :, slot_window_start : slot_window_start + 2 * params.n_fft
            ].reshape(n, 2, params.n_fft)
            slot_syms = np.fft.fft(slot_reps, axis=-1) / np.sqrt(params.n_fft)
            responses = estimate_channel_ltf(slot_syms, params).response
            slots.append((active, responses))
        return lead_responses, noise_vars, slots

    def _joint_estimates_batch(
        self,
        lead_responses: np.ndarray,
        noise_vars: np.ndarray,
        slots: list[tuple[np.ndarray, np.ndarray]],
        layout: JointFrameLayout,
    ) -> tuple[list[JointChannelEstimate], list[MisalignmentReport]]:
        """Assemble per-row estimates and misalignment reports from batch arrays.

        All phase-slope fits (lead and every active co-sender of every row)
        run as one stacked call — this is the §4.5 measurement that
        dominates the Fig. 12 loop.
        """
        params = layout.params
        n = lead_responses.shape[0]
        stacked = [lead_responses]
        stacked.extend(responses for _, responses in slots)
        all_responses = np.concatenate(stacked, axis=0)
        slopes, _ = phase_slope_windowed_batch(all_responses, params)
        delays = slopes * params.n_fft / (2.0 * np.pi)
        lead_offsets = delays[:n]

        estimates: list[JointChannelEstimate] = []
        reports: list[MisalignmentReport] = []
        for row in range(n):
            cosenders: list[ChannelEstimate | None] = []
            co_offsets: list[float] = []
            for k, (active, responses) in enumerate(slots):
                if not active[row]:
                    cosenders.append(None)
                    continue
                channel = ChannelEstimate(
                    response=responses[row].copy(), noise_var=float(noise_vars[row])
                )
                cosenders.append(channel)
                co_offsets.append(float(delays[(k + 1) * n + row]))
            lead_channel = ChannelEstimate(
                response=lead_responses[row].copy(), noise_var=float(noise_vars[row])
            )
            estimates.append(
                JointChannelEstimate(
                    lead=lead_channel,
                    cosenders=cosenders,
                    noise_var=float(noise_vars[row]),
                    params=params,
                )
            )
            lead_offset = float(lead_offsets[row])
            reports.append(
                MisalignmentReport(
                    lead_offset_samples=lead_offset,
                    cosender_offsets_samples=tuple(co_offsets),
                    misalignments_samples=tuple(lead_offset - off for off in co_offsets),
                )
            )
        return estimates, reports

    def measure_header_batch(
        self,
        rows: np.ndarray,
        lengths: np.ndarray,
        layout: JointFrameLayout,
        start_indices: list[int | None],
        correct_cfo: bool = True,
    ) -> list[tuple[JointChannelEstimate | None, MisalignmentReport | None, int]]:
        """Batched :meth:`measure_header` over a zero-padded row ensemble.

        ``rows`` is ``(n, max_len)`` with per-row true lengths in
        ``lengths``; ``start_indices[i]`` is a genie frame start or ``None``
        to acquire.  Returns the scalar method's ``(channels, misalignment,
        start)`` triple per row, computed with every stage batched.
        """
        params = layout.params
        rows = np.asarray(rows, dtype=np.complex128)
        n = rows.shape[0]
        lengths = np.asarray(lengths, dtype=np.int64)
        starts = np.zeros(n, dtype=np.int64)
        ok = np.ones(n, dtype=bool)
        need_acquire = [i for i, s in enumerate(start_indices) if s is None]
        for i, s in enumerate(start_indices):
            if s is not None:
                starts[i] = int(s)
        if need_acquire:
            sub = np.asarray(need_acquire)
            fits, acquired = self._acquire_batch(rows[sub], lengths[sub], layout)
            ok[sub] = fits
            starts[sub] = np.maximum(acquired, 0)

        needed = layout.data_offset
        fits_frame = ok & (starts + needed <= lengths)
        results: list[tuple[JointChannelEstimate | None, MisalignmentReport | None, int]] = [
            (None, None, -1)
        ] * n
        for i in range(n):
            if not ok[i]:
                results[i] = (None, None, -1)
            elif not fits_frame[i]:
                results[i] = (None, None, int(starts[i]))
        idx = np.nonzero(fits_frame)[0]
        if idx.size == 0:
            return results

        gather = starts[idx, None] + np.arange(needed)[None, :]
        frames = rows[idx[:, None], gather]
        if correct_cfo:
            cfo = estimate_coarse_cfo_rows(rows, starts, lengths, fits_frame, params)[idx]
            span = np.arange(needed)[None, :]
            frames = frames * np.exp(
                -2j * np.pi * cfo[:, None] * span * params.sample_period_s
            )

        lead_responses, noise_vars, slots = self._header_channels_batch(frames, layout)
        estimates, reports = self._joint_estimates_batch(
            lead_responses, noise_vars, slots, layout
        )
        for pos, i in enumerate(idx):
            results[i] = (estimates[pos], reports[pos], int(starts[i]))
        return results

    def receive_many(
        self,
        jobs: list[tuple[np.ndarray, int, JointFrameLayout, FrameConfig, int | None]],
        correct_cfo: bool = True,
    ) -> list[JointReceiveResult]:
        """Decode an ensemble of joint frames with batched receive stages.

        Each job is ``(samples, length, layout, frame_config, start_index)``.
        Layouts must share the header geometry (same numerology and
        co-sender count); the data sections may differ per job (e.g. a
        cyclic-prefix sweep).  Timing acquisition, CFO, channel estimation
        and misalignment run batched across jobs, the per-job data sections
        are demapped into one LLR block, and all frames with equal coded
        length share a single block-parallel Viterbi call — the dominant
        cost of the sequential per-frame loop.
        """
        if not jobs:
            return []
        layout0 = jobs[0][2]
        params = layout0.params
        n = len(jobs)
        lengths = np.zeros(n, dtype=np.int64)
        starts = np.zeros(n, dtype=np.int64)
        for i, (_, length, layout, _, start_index) in enumerate(jobs):
            if (
                layout.params is not params and layout.params != params
            ) or layout.n_cosenders != layout0.n_cosenders:
                raise ValueError("receive_many requires a common header geometry")
            lengths[i] = length
            if start_index is not None:
                starts[i] = int(start_index)

        ok = np.ones(n, dtype=bool)
        need_acquire = [i for i, job in enumerate(jobs) if job[4] is None]
        if need_acquire:
            # Only the frames without genie timing are zero-padded into a
            # block, and only for as long as acquisition runs.
            sub = np.asarray(need_acquire)
            rows = np.zeros(
                (sub.size, max(jobs[i][0].size for i in need_acquire)), dtype=np.complex128
            )
            for row, i in enumerate(need_acquire):
                rows[row, : jobs[i][0].size] = jobs[i][0]
            fits, acquired = self._acquire_batch(rows, lengths[sub], layout0)
            del rows
            ok[sub] = fits
            starts[sub] = np.maximum(acquired, 0)

        results: list[JointReceiveResult | None] = [None] * n
        total = np.array([job[2].total_samples for job in jobs], dtype=np.int64)
        fits_frame = ok & (starts + total <= lengths)
        for i in range(n):
            if not ok[i]:
                results[i] = JointReceiveResult(False, False, b"")
            elif not fits_frame[i]:
                results[i] = JointReceiveResult(False, False, b"", start_index=int(starts[i]))
        idx = np.nonzero(fits_frame)[0]
        if idx.size == 0:
            return results  # type: ignore[return-value]

        cfo = np.zeros(n)
        if correct_cfo:
            # The coarse CFO reads only the STF, so each frame's STF window
            # is cut from its own samples, indexed from the frame start.
            stfs = np.zeros((n, layout0.stf_samples), dtype=np.complex128)
            for i in idx:
                stf = jobs[i][0][starts[i] : starts[i] + layout0.stf_samples]
                stfs[i, : stf.size] = stf
            cfo = estimate_coarse_cfo_rows(
                stfs, np.zeros(n, dtype=np.int64), lengths - starts, fits_frame, params
            )
        frame_cfo = list(cfo) if correct_cfo else [None] * n

        # The batched header stage sees only the aligned, CFO-corrected
        # header block; each full frame is aligned again in the data loop.
        header_len = layout0.data_offset
        header_frames = np.empty((idx.size, header_len), dtype=np.complex128)
        for pos, i in enumerate(idx):
            header_frames[pos] = _aligned_frame(
                jobs[i][0], int(starts[i]), header_len, frame_cfo[i], params.sample_period_s
            )
        lead_responses, noise_vars, slots = self._header_channels_batch(header_frames, layout0)
        del header_frames
        estimates, reports = self._joint_estimates_batch(
            lead_responses, noise_vars, slots, layout0
        )

        # Per-job data sections up to the LLR block, then one Viterbi pass
        # per coded length.  One aligned frame is live at a time.
        llr_blocks: dict[int, list[tuple[int, np.ndarray]]] = {}
        decoded_symbols_by_job: dict[int, np.ndarray] = {}
        for pos, i in enumerate(idx):
            samples, _, layout, frame_config, _ = jobs[i]
            frame = _aligned_frame(
                samples, int(starts[i]), int(total[i]), frame_cfo[i], params.sample_period_s
            )
            llrs, decoded_symbols_by_job[i] = self._data_llrs(
                frame, layout, frame_config, estimates[pos]
            )
            llr_blocks.setdefault(llrs.size, []).append((i, llrs))

        decoded_bits_by_job: dict[int, np.ndarray] = {}
        for block in llr_blocks.values():
            decoded = _CODE.decode_batch(np.stack([llrs for _, llrs in block]), terminated=True)
            for (i, _), bits in zip(block, decoded):
                decoded_bits_by_job[i] = bits

        for pos, i in enumerate(idx):
            results[i] = self._frame_result(
                decoded_bits_by_job[i],
                jobs[i][3],
                int(starts[i]),
                float(cfo[i]),
                estimates[pos],
                reports[pos],
                decoded_symbols_by_job[i],
            )
        return results  # type: ignore[return-value]


def _aligned_frame(
    samples: np.ndarray, start: int, n_samples: int, cfo_hz: float | None, sample_period_s: float
) -> np.ndarray:
    """``n_samples`` of one received stream from ``start``, CFO-corrected.

    The correction ramp is indexed from the frame start, so a frame prefix
    gets exactly the leading elements of the whole frame's correction.
    ``cfo_hz=None`` leaves the samples uncorrected.
    """
    frame = np.asarray(samples, dtype=np.complex128)[start : start + n_samples]
    return frame if cfo_hz is None else apply_cfo_correction(frame, cfo_hz, sample_period_s)
