"""``decode_batch`` against an independent per-packet, per-state Viterbi.

The oracle (:func:`tests.engine.viterbi_oracles.viterbi_reference`) shares
no table or array code with the block-parallel kernel, so agreement bit
for bit covers the trellis, the compare-select tie rule, the packed
survivor store and its traceback, and the packet chunking.  A tracemalloc
guard keeps the survivor store at one bit per (step, packet, state).
"""

import tracemalloc

import numpy as np
import pytest

from repro.phy.coding import convolutional
from repro.phy.coding.convolutional import ConvolutionalCode, get_code
from tests.engine.viterbi_oracles import viterbi_reference

K7 = get_code()
#: 4 states: the survivors of one step fill half a packed byte.
K3 = ConvolutionalCode(3, (0o7, 0o5))


def _noisy_codewords(code, n_packets, n_info, seed, terminate=True):
    rng = np.random.default_rng(seed)
    info = rng.integers(0, 2, (n_packets, n_info)).astype(np.uint8)
    llrs = 1.0 - 2.0 * code.encode(info, terminate=terminate).astype(float)
    return llrs + rng.normal(0.0, 1.0, llrs.shape)


def _assert_matches_oracle(code, llrs, terminated=True, strip_tail=True):
    got = code.decode_batch(llrs, terminated=terminated, strip_tail=strip_tail)
    want = viterbi_reference(
        code.constraint_length, code.polynomials, llrs, terminated, strip_tail
    )
    assert got.dtype == np.uint8
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("code", [K7, K3], ids=["K7", "K3"])
class TestDecodeBatchMatchesOracle:
    def test_random_llrs(self, code):
        _assert_matches_oracle(code, _noisy_codewords(code, 5, 40, seed=11))

    def test_integer_llrs_with_ties(self, code):
        rng = np.random.default_rng(12)
        llrs = rng.integers(-2, 3, (6, 2 * 45)).astype(float)
        _assert_matches_oracle(code, llrs)

    def test_all_zero_erasures(self, code):
        _assert_matches_oracle(code, np.zeros((3, 2 * 30)))

    @pytest.mark.parametrize("terminated", [True, False])
    @pytest.mark.parametrize("strip_tail", [True, False])
    def test_termination_and_tail(self, code, terminated, strip_tail):
        llrs = _noisy_codewords(code, 4, 35, seed=13, terminate=terminated)
        _assert_matches_oracle(code, llrs, terminated=terminated, strip_tail=strip_tail)

    def test_unterminated_integer_ties(self, code):
        rng = np.random.default_rng(14)
        llrs = rng.integers(-1, 2, (5, 2 * 30)).astype(float)
        _assert_matches_oracle(code, llrs, terminated=False, strip_tail=False)

    def test_batch_split_across_chunks(self, code, monkeypatch):
        llrs = _noisy_codewords(code, 7, 30, seed=15)
        n_steps = llrs.shape[1] // code.n_outputs
        state_bytes = -(-code.n_states // 8)
        # Two packets' survivors per call: 7 packets run as 2 + 2 + 2 + 1.
        monkeypatch.setattr(convolutional, "_DECODE_CHUNK_BYTES", 2 * n_steps * state_bytes)
        _assert_matches_oracle(code, llrs)


def test_wider_trellis_matches_oracle():
    """256 states: 32 packed bytes of survivors per packet and step."""
    code = ConvolutionalCode(9, (0o753, 0o561))
    _assert_matches_oracle(code, _noisy_codewords(code, 2, 25, seed=16))


def test_fig13_sized_block_decodes_in_one_call():
    """fig13 decodes its 320 frames of 552 trellis steps in a single call."""
    assert 320 * 552 * (K7.n_states // 8) <= convolutional._DECODE_CHUNK_BYTES


def test_decode_batch_traced_peak_is_bounded():
    """Survivors of a (320, 1104) block are ~1.4 MB packed (11.8 MB as bytes)."""
    llrs = np.random.default_rng(17).normal(size=(320, 1104))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        K7.decode_batch(llrs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - entry < 4 * 1024 * 1024
