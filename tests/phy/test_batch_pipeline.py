"""Equivalence tests: batched PHY pipeline vs the per-packet paths.

The batched transmit/receive/Viterbi/OFDM implementations must reproduce
the per-packet results exactly at the bit level (decoded bits, payloads,
CRC outcomes, detection decisions) and to within a few ulp for float
intermediates (numpy's complex-multiply kernels select SIMD code paths by
heap alignment, which can flip the last bit between separately allocated
arrays; see ``repro.phy.receiver``).
"""

import numpy as np
import pytest

from repro.channel.awgn import add_noise_for_snr, awgn, awgn_ensemble
from repro.channel.composite import link_ensemble_for_snr, propagate_ensemble
from repro.channel.multipath import (
    DEFAULT_PROFILE,
    MultipathChannel,
    MultipathEnsemble,
    rayleigh_taps,
    rayleigh_taps_batch,
)
from repro.phy import bits as bitutils
from repro.phy import ofdm
from repro.phy.coding.convolutional import ConvolutionalCode, get_code
from repro.phy.coding.puncturing import depuncture, puncture
from repro.phy.params import DEFAULT_PARAMS
from repro.phy.receiver import Receiver
from repro.phy.transmitter import Transmitter, encode_payload_to_symbols, encode_payloads_to_symbols


@pytest.fixture(scope="module")
def code():
    return get_code()


class TestScramblerVectorized:
    def _reference_sequence(self, n_bits, seed):
        # the original per-bit LFSR implementation
        state = [(seed >> i) & 1 for i in range(7)]
        out = np.empty(n_bits, dtype=np.uint8)
        for i in range(n_bits):
            feedback = state[6] ^ state[3]
            out[i] = feedback
            state = [feedback] + state[:6]
        return out

    @pytest.mark.parametrize("seed", [0x5D, 1, 127, 0x3A])
    def test_matches_lfsr_reference(self, seed):
        bits = np.zeros(500, dtype=np.uint8)
        assert np.array_equal(bitutils.scramble(bits, seed), self._reference_sequence(500, seed))

    def test_batched_scramble_matches_rows(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, (5, 300)).astype(np.uint8)
        batch = bitutils.scramble(bits)
        for i in range(5):
            assert np.array_equal(batch[i], bitutils.scramble(bits[i]))

    def test_empty(self):
        assert bitutils.scramble(np.zeros(0, dtype=np.uint8)).size == 0


class TestBatchViterbi:
    """``decode`` is ``decode_batch`` on a batch of one, so these pin the
    wrapper and the batch shapes; ``test_viterbi_oracle.py`` checks the
    kernel against an independent decoder."""

    def test_batch_matches_single(self, code):
        rng = np.random.default_rng(1)
        info = rng.integers(0, 2, (6, 250)).astype(np.uint8)
        llrs = 1.0 - 2.0 * code.encode(info).astype(float)
        llrs += rng.normal(0, 0.5, llrs.shape)
        batch = code.decode_batch(llrs)
        single = np.stack([code.decode(row) for row in llrs])
        assert np.array_equal(batch, single)
        assert np.array_equal(batch, info)

    def test_batch_of_one(self, code):
        rng = np.random.default_rng(2)
        info = rng.integers(0, 2, 100).astype(np.uint8)
        llrs = 1.0 - 2.0 * code.encode(info).astype(float)
        assert np.array_equal(code.decode_batch(llrs[None, :])[0], code.decode(llrs))

    def test_empty_batch(self, code):
        out = code.decode_batch(np.zeros((0, 40)))
        assert out.shape == (0, 20 - code.tail_bits)

    def test_unterminated_batch(self, code):
        rng = np.random.default_rng(3)
        info = rng.integers(0, 2, (4, 80)).astype(np.uint8)
        llrs = 1.0 - 2.0 * code.encode(info, terminate=False).astype(float)
        batch = code.decode_batch(llrs, terminated=False)
        single = np.stack([code.decode(row, terminated=False) for row in llrs])
        assert np.array_equal(batch, single)

    def test_rejects_bad_shapes(self, code):
        with pytest.raises(ValueError):
            code.decode_batch(np.zeros(8))
        with pytest.raises(ValueError):
            code.decode_batch(np.zeros((2, 7)))
        with pytest.raises(ValueError):
            code.decode(np.zeros((2, 8)))

    def test_batched_encode_matches_loop_reference(self, code):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, (3, 64)).astype(np.uint8)
        coded = code.encode(bits)
        for i in range(3):
            state = 0
            expected = np.empty(2 * (64 + code.tail_bits), dtype=np.uint8)
            row = np.concatenate([bits[i], np.zeros(code.tail_bits, np.uint8)])
            for j, bit in enumerate(row):
                expected[2 * j : 2 * j + 2] = code._output[bit, state]
                state = code._next_state[bit, state]
            assert np.array_equal(coded[i], expected)

    def test_get_code_is_cached(self):
        assert get_code() is get_code()
        assert get_code(7, (0o133, 0o171)) is get_code(7, (0o133, 0o171))
        assert isinstance(get_code(5, (0o23, 0o35)), ConvolutionalCode)


class TestBatchOFDM:
    def test_assemble_extract_roundtrip_batched(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(4, 6, 48)) + 1j * rng.normal(size=(4, 6, 48))
        freq = ofdm.assemble_symbols(data)
        single = np.stack(
            [
                np.stack(
                    [ofdm.assemble_symbol(data[b, i], i) for i in range(6)]
                )
                for b in range(4)
            ]
        )
        assert np.array_equal(freq, single)
        samples = ofdm.symbols_to_samples(freq)
        assert samples.shape == (4, 6 * DEFAULT_PARAMS.symbol_samples)
        per_packet = np.stack([ofdm.symbols_to_samples(freq[b]) for b in range(4)])
        assert np.array_equal(samples, per_packet)
        extracted = ofdm.extract_symbols(samples, 6)
        per_packet_x = np.stack([ofdm.extract_symbols(samples[b], 6) for b in range(4)])
        assert np.array_equal(extracted, per_packet_x)
        # round trip recovers the data bins
        assert np.allclose(extracted[..., DEFAULT_PARAMS.data_bins()], data)

    def test_pilot_polarities_match_scalar(self):
        pol = ofdm.pilot_polarities(300, start_symbol_index=17)
        for i in range(300):
            assert pol[i] == ofdm.pilot_polarity(17 + i)

    def test_extract_zero_symbols(self):
        out = ofdm.extract_symbols(np.zeros((3, 100), dtype=complex), 0)
        assert out.shape == (3, 0, DEFAULT_PARAMS.n_fft)


class TestBatchTransmit:
    @pytest.mark.parametrize("rate", [6.0, 9.0, 12.0, 18.0, 54.0])
    def test_batch_matches_single(self, rate):
        rng = np.random.default_rng(6)
        tx = Transmitter()
        payloads = [bitutils.random_payload(41, rng) for _ in range(5)]
        batch = tx.transmit_batch(payloads, rate)
        for i, payload in enumerate(payloads):
            frame = tx.transmit(payload, rate)
            assert np.array_equal(frame.samples, batch.samples[i])
            assert np.array_equal(frame.data_symbols, batch.data_symbols[i])

    def test_batch_of_one(self):
        tx = Transmitter()
        batch = tx.transmit_batch([b"x" * 20], 12.0)
        assert batch.n_packets == 1
        assert np.array_equal(batch.samples[0], tx.transmit(b"x" * 20, 12.0).samples)

    def test_empty_symbol_batch(self):
        tx = Transmitter()
        config = tx.make_config(b"y" * 10, 6.0)
        out = encode_payloads_to_symbols([], config)
        assert out.shape == (0, config.n_data_symbols, 48)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            Transmitter().transmit_batch([], 6.0)

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            Transmitter().transmit_batch([b"aa", b"bbb"], 6.0)

    def test_single_wrapper_equals_batch_encoder(self):
        tx = Transmitter()
        config = tx.make_config(b"z" * 33, 18.0)
        single = encode_payload_to_symbols(b"z" * 33, config)
        batch = encode_payloads_to_symbols([b"z" * 33], config)
        assert np.array_equal(single, batch[0])


class TestBatchReceive:
    def _make_ensemble(self, rate, n_packets, payload_bytes=50, silence=29, seed=7):
        rng = np.random.default_rng(seed)
        tx = Transmitter()
        payloads = [bitutils.random_payload(payload_bytes, rng) for _ in range(n_packets)]
        batch = tx.transmit_batch(payloads, rate)
        lead = np.zeros((n_packets, silence), dtype=np.complex128)
        tail = np.zeros((n_packets, 25), dtype=np.complex128)
        clean = np.concatenate([lead, batch.samples, tail], axis=1)
        noisy = clean + awgn_ensemble(n_packets, clean.shape[1], 1e-4, rng)
        return payloads, batch.config, noisy, silence

    @pytest.mark.parametrize("rate", [6.0, 9.0, 18.0])
    def test_batch_matches_single_with_detection(self, rate):
        payloads, config, noisy, _ = self._make_ensemble(rate, 6)
        rx = Receiver()
        batch = rx.receive_batch(noisy, config)
        for i, result in enumerate(batch):
            single = rx.receive(noisy[i], config)
            assert result.detected == single.detected
            assert result.crc_ok == single.crc_ok
            assert result.payload == single.payload == payloads[i]
            assert result.cfo_hz == single.cfo_hz
            assert result.detection.start_index == single.detection.start_index
            np.testing.assert_allclose(
                result.equalized_symbols, single.equalized_symbols, rtol=1e-10, atol=1e-12
            )

    def test_batch_matches_single_with_genie_timing(self):
        payloads, config, noisy, silence = self._make_ensemble(9.0, 5, seed=8)
        rx = Receiver(correct_cfo=False)
        batch = rx.receive_batch(noisy, config, start_indices=silence)
        for i, result in enumerate(batch):
            single = rx.receive(noisy[i], config, start_index=silence)
            assert result.crc_ok and single.crc_ok
            assert result.payload == single.payload == payloads[i]
            assert result.snr_db == pytest.approx(single.snr_db, rel=1e-12)

    def test_batch_of_one(self):
        payloads, config, noisy, _ = self._make_ensemble(6.0, 1, seed=9)
        rx = Receiver()
        results = rx.receive_batch(noisy, config)
        assert len(results) == 1
        assert results[0].crc_ok and results[0].payload == payloads[0]

    def test_empty_batch(self):
        rx = Receiver()
        config = Transmitter().make_config(b"q" * 10, 6.0)
        assert rx.receive_batch(np.zeros((0, 500), dtype=complex), config) == []

    def test_negative_start_index_rejected(self):
        rx = Receiver()
        config = Transmitter().make_config(b"q" * 10, 6.0)
        with pytest.raises(ValueError, match="non-negative"):
            rx.receive_batch(np.zeros((2, 2000), dtype=complex), config, start_indices=-5)
        with pytest.raises(ValueError, match="non-negative"):
            rx.receive(np.zeros(2000, dtype=complex), config, start_index=-1)

    def test_truncated_frame_reports_not_detected(self):
        payloads, config, noisy, silence = self._make_ensemble(6.0, 3, seed=10)
        rx = Receiver()
        # Cut the last frame short so only the start fits.
        short = noisy[:, : silence + 100]
        results = rx.receive_batch(short, config, start_indices=silence)
        assert all(not r.detected for r in results)

    def test_mixed_success_and_failure_rows(self):
        payloads, config, noisy, silence = self._make_ensemble(6.0, 4, seed=11)
        # Replace one stream with pure noise: no packet to detect.
        rng = np.random.default_rng(12)
        noisy[2] = awgn(noisy.shape[1], 1e-4, rng)
        rx = Receiver()
        results = rx.receive_batch(noisy, config)
        assert [r.detected for r in results] == [True, True, False, True]
        ok = [0, 1, 3]
        for i in ok:
            assert results[i].payload == payloads[i]

    @pytest.mark.parametrize("rate", [9.0, 18.0, 54.0])
    def test_punctured_rates_roundtrip_batched(self, rate):
        """Puncture/depuncture stay exact through the batched bit path."""
        rng = np.random.default_rng(13)
        code = get_code()
        info = rng.integers(0, 2, (4, 240)).astype(np.uint8)
        coded = code.encode(info)
        from repro.phy.rates import rate_for_mbps

        fraction = rate_for_mbps(rate).code_rate
        punctured = puncture(coded, fraction)
        restored = depuncture(1.0 - 2.0 * punctured.astype(float), fraction, coded.shape[-1])
        decoded = code.decode_batch(restored)
        assert np.array_equal(decoded, info)


class TestBatchChannels:
    def test_rayleigh_batch_matches_sequential(self):
        r1, r2 = np.random.default_rng(20), np.random.default_rng(20)
        seq = np.stack([rayleigh_taps(DEFAULT_PROFILE, r1) for _ in range(15)])
        assert np.array_equal(seq, rayleigh_taps_batch(DEFAULT_PROFILE, 15, r2))

    def test_awgn_ensemble_matches_sequential(self):
        r1, r2 = np.random.default_rng(21), np.random.default_rng(21)
        seq = np.stack([awgn(64, 0.5, r1) for _ in range(9)])
        assert np.array_equal(seq, awgn_ensemble(9, 64, 0.5, r2))

    def test_add_noise_for_snr_batched_matches_loop(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(6, 80)) + 1j * rng.normal(size=(6, 80))
        r1, r2 = np.random.default_rng(23), np.random.default_rng(23)
        seq = np.stack([add_noise_for_snr(x[i], 12.0, r1) for i in range(6)])
        assert np.array_equal(seq, add_noise_for_snr(x, 12.0, r2))

    def test_multipath_ensemble_apply_matches_per_channel(self):
        rng = np.random.default_rng(24)
        ens = MultipathEnsemble.random(DEFAULT_PROFILE, 4, rng)
        x = rng.normal(size=(4, 50)) + 1j * rng.normal(size=(4, 50))
        out = ens.apply(x)
        for i in range(4):
            assert np.array_equal(out[i], MultipathChannel(ens.taps[i]).apply(x[i]))

    def test_propagate_ensemble_shapes_and_noise_order(self):
        rng = np.random.default_rng(25)
        links = link_ensemble_for_snr(15.0, 3, rng=rng)
        x = rng.normal(size=(3, 40)) + 1j * rng.normal(size=(3, 40))
        out = propagate_ensemble(links, x, noise_power=0.1, rng=np.random.default_rng(1))
        assert out.shape[0] == 3
        assert out.shape[1] >= 40 + links[0].channel.n_taps - 1


class TestEnsembleRunner:
    def test_batched_equals_per_packet(self):
        from repro.experiments.batch import run_packet_ensemble

        for profile in (None, DEFAULT_PROFILE):
            batched = run_packet_ensemble(
                12, payload_bytes=30, snr_db=18.0, profile=profile, seed=30, batched=True
            )
            looped = run_packet_ensemble(
                12, payload_bytes=30, snr_db=18.0, profile=profile, seed=30, batched=False
            )
            assert np.array_equal(batched.crc_ok, looped.crc_ok)
            assert np.array_equal(batched.payload_ok, looped.payload_ok)
            for a, b in zip(batched.results, looped.results):
                assert a.payload == b.payload

    def test_empty_ensemble(self):
        from repro.experiments.batch import run_packet_ensemble

        result = run_packet_ensemble(0)
        assert result.n_packets == 0
        assert result.delivery_ratio == 0.0

    def test_high_snr_delivers_everything(self):
        from repro.experiments.batch import run_packet_ensemble

        result = run_packet_ensemble(10, snr_db=30.0, seed=31)
        assert result.delivery_ratio == 1.0
