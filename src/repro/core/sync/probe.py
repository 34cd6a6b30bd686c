"""Probe/response propagation-delay measurement (§4.2c).

A node estimates its one-way propagation delay to a peer by timing a
probe/response round trip with its local sample clock and subtracting every
component that is not propagation (Eq. 2 of the paper): the responder's
packet-detection delay and hardware turnaround (reported back inside the
response) and its own packet-detection delay for the response.  Packet
detection delays are themselves estimated with the channel-phase-slope
method (:mod:`repro.core.sync.detection_delay`), which is what makes the
round-trip measurement accurate despite the large random detection latency.

The functions here run the measurement at the waveform level: real probe
waveforms are sent through :class:`repro.channel.Link` objects, detected
with the standard detector, and the phase-slope estimator is applied to the
resulting channel estimates, so every error source of a real exchange is
present.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.awgn import awgn
from repro.channel.composite import Link
from repro.core.sync.detection_delay import estimate_detection_delay
from repro.hardware.frontend import RadioFrontend
from repro.phy.detection import detect_packet_autocorrelation, estimate_coarse_cfo
from repro.phy.equalizer import estimate_channel_ltf
from repro.phy.params import OFDMParams, DEFAULT_PARAMS
from repro.phy.preamble import preamble, short_training_field
from repro.phy.receiver import apply_cfo_correction

__all__ = [
    "CFO_PROBE_COUNT",
    "ProbeLegResult",
    "probe_leg",
    "exchange_one_way_delay",
    "combine_exchanges",
    "measure_propagation_delay",
    "PropagationDelayEstimate",
]

#: Probe preambles averaged into one CFO measurement (§5), taken alongside
#: the delay probes of each co-sender.
CFO_PROBE_COUNT = 4


def _acquisition_backoff(params: OFDMParams) -> int:
    """FFT-window backoff used when estimating the channel of a just-detected packet.

    The detector fires up to a few tens of samples after the true packet
    start.  Backing the LTF FFT windows off by the full double-length guard
    (``2 * cp``) keeps both windows inside the long-training field for any
    detection delay up to ``2 * cp`` samples; because the LTF is periodic,
    every such window is a cyclic rotation of the training symbol and the
    rotation is absorbed by the phase-slope estimate.
    """
    return 2 * params.cp_samples


@dataclass(frozen=True)
class ProbeLegResult:
    """Outcome of receiving one probe waveform at one node.

    Attributes
    ----------
    detected:
        Whether the probe was detected at all.
    true_detection_delay:
        True offset (samples) between the arrival of the probe's first
        sample and the node's detection instant (includes front-end latency).
    estimated_detection_delay:
        The node's own phase-slope estimate of that offset.
    snr_db:
        Average SNR of the probe as received.
    """

    detected: bool
    true_detection_delay: float
    estimated_detection_delay: float
    snr_db: float

    @property
    def estimation_error(self) -> float:
        """Residual error of the detection-delay estimate, in samples."""
        return self.true_detection_delay - self.estimated_detection_delay


def probe_waveform(params: OFDMParams = DEFAULT_PARAMS) -> np.ndarray:
    """The probe waveform: a bare 802.11 preamble (STF + LTF)."""
    return preamble(params)


def probe_leg(
    link: Link,
    frontend: RadioFrontend,
    rng: np.random.Generator,
    noise_power: float = 1.0,
    params: OFDMParams = DEFAULT_PARAMS,
    leading_silence: int = 80,
    waveform: np.ndarray | None = None,
) -> ProbeLegResult:
    """Simulate the reception of one probe over a link at the waveform level.

    Returns the true and estimated detection delays at the receiving node.
    The true delay is measured from the (fractional) arrival time of the
    first probe sample; the estimate is what the node derives from the
    channel phase slope of the probe's long training field.

    ``waveform`` defaults to a bare preamble probe; passing the lead
    sender's synchronization header instead models a co-sender estimating
    its detection delay for an actual joint transmission (§4.3), since the
    header begins with the same preamble.
    """
    waveform = probe_waveform(params) if waveform is None else np.asarray(waveform, np.complex128)
    contribution, integer_start = link.propagate(waveform, start_sample=0.0)
    total_len = leading_silence + int(integer_start) + contribution.size + 40
    received = np.zeros(total_len, dtype=np.complex128)
    offset = leading_silence + int(integer_start)
    received[offset : offset + contribution.size] += contribution
    received += awgn(total_len, noise_power, rng)

    detection = detect_packet_autocorrelation(received, params)
    if not detection.detected:
        return ProbeLegResult(False, 0.0, 0.0, link.snr_db(noise_power))

    # Standard receiver-side CFO correction from the short training field;
    # without it the two LTF repetitions rotate against each other and both
    # the noise and the phase-slope estimates degrade.
    try:
        cfo_hz = estimate_coarse_cfo(received, detection.start_index, params)
    except ValueError:
        cfo_hz = 0.0
    received = apply_cfo_correction(received, cfo_hz, params.sample_period_s)

    # Front-end pipeline latency adds to the correlator's own lag.
    snr_db = link.snr_db(noise_power)
    extra = frontend.detection_delay_samples(snr_db, rng)
    detect_instant = detection.detect_index + extra

    true_arrival = leading_silence + link.delay_samples
    true_delay = float(detect_instant - true_arrival)

    # Estimate the channel of the probe's LTF using FFT windows placed
    # according to the (late) detection instant, backed off into the guard.
    backoff = _acquisition_backoff(params)
    stf_len = short_training_field(params).size
    assumed_start = int(round(detect_instant))
    ltf_start = assumed_start + stf_len + 2 * params.cp_samples - backoff
    ltf_syms = np.empty((2, params.n_fft), dtype=np.complex128)
    for rep in range(2):
        begin = ltf_start + rep * params.n_fft
        chunk = received[begin : begin + params.n_fft]
        if chunk.size < params.n_fft:
            return ProbeLegResult(False, true_delay, 0.0, snr_db)
        ltf_syms[rep] = np.fft.fft(chunk) / np.sqrt(params.n_fft)
    channel = estimate_channel_ltf(ltf_syms, params)
    estimate = estimate_detection_delay(channel, params)
    # The node knows it deliberately backed the window off; what it reports is
    # the offset of its detection instant from the true packet start.
    estimated_delay = (
        float(estimate.delay_samples)
        + backoff
        + (detect_instant - assumed_start)
    )
    return ProbeLegResult(True, true_delay, estimated_delay, snr_db)


@dataclass(frozen=True)
class PropagationDelayEstimate:
    """One-way propagation delay estimate from a probe/response exchange."""

    valid: bool
    one_way_delay_samples: float
    true_one_way_delay_samples: float
    forward_leg: ProbeLegResult | None = None
    reverse_leg: ProbeLegResult | None = None

    @property
    def error_samples(self) -> float:
        """Estimation error in samples."""
        return self.one_way_delay_samples - self.true_one_way_delay_samples

    def error_ns(self, params: OFDMParams = DEFAULT_PARAMS) -> float:
        """Estimation error in nanoseconds."""
        return self.error_samples * params.sample_period_ns


def measure_propagation_delay(
    forward_link: Link,
    reverse_link: Link,
    frontend_a: RadioFrontend,
    frontend_b: RadioFrontend,
    rng: np.random.Generator,
    noise_power: float = 1.0,
    params: OFDMParams = DEFAULT_PARAMS,
    n_probes: int = 1,
) -> PropagationDelayEstimate:
    """Measure the one-way propagation delay between two nodes (Eq. 2).

    Node A transmits a probe to node B over ``forward_link``; B responds over
    ``reverse_link``.  Both nodes estimate their packet-detection delays with
    the phase-slope method and B reports its estimate (and its locally
    measured turnaround time) in the response, allowing A to isolate the
    two-way propagation delay and halve it.

    ``n_probes`` repeated exchanges are averaged, mirroring the periodic
    probing SourceSync performs (§4.2c).
    """
    if n_probes < 1:
        raise ValueError("n_probes must be at least 1")
    estimates = []
    last_fwd: ProbeLegResult | None = None
    last_rev: ProbeLegResult | None = None
    for _ in range(n_probes):
        last_fwd = probe_leg(forward_link, frontend_b, rng, noise_power, params)
        last_rev = probe_leg(reverse_link, frontend_a, rng, noise_power, params)
        one_way = exchange_one_way_delay(forward_link, reverse_link, last_fwd, last_rev)
        if one_way is not None:
            estimates.append(one_way)
    return combine_exchanges(forward_link, reverse_link, estimates, last_fwd, last_rev)


def exchange_one_way_delay(
    forward_link: Link, reverse_link: Link, fwd: ProbeLegResult, rev: ProbeLegResult
) -> float | None:
    """One-way delay estimate of one probe/response exchange (Eq. 2).

    ``None`` when either leg went undetected, so the exchange yields no
    estimate.
    """
    if not (fwd.detected and rev.detected):
        return None
    # Round trip as timed by A's clock:
    #   d_ab + delta_B + h_B + wait_B + d_ba + delta_A
    # B reports delta_B_hat, h_B and wait_B; A knows delta_A_hat.  The
    # turnaround and deliberate wait are known exactly (counted in local
    # clock ticks), so they cancel and are omitted here.
    round_trip_minus_known = (
        forward_link.delay_samples
        + fwd.true_detection_delay
        + reverse_link.delay_samples
        + rev.true_detection_delay
    )
    two_way = round_trip_minus_known - fwd.estimated_detection_delay - rev.estimated_detection_delay
    return two_way / 2.0


def combine_exchanges(
    forward_link: Link,
    reverse_link: Link,
    estimates: list[float],
    last_fwd: ProbeLegResult | None,
    last_rev: ProbeLegResult | None,
) -> PropagationDelayEstimate:
    """Average the exchanges' one-way estimates into one measurement.

    The measurement is invalid (delay 0) when no exchange completed; the
    last exchange's legs are kept either way.
    """
    true_one_way = 0.5 * (forward_link.delay_samples + reverse_link.delay_samples)
    if not estimates:
        return PropagationDelayEstimate(False, 0.0, true_one_way, last_fwd, last_rev)
    return PropagationDelayEstimate(
        valid=True,
        one_way_delay_samples=float(np.mean(estimates)),
        true_one_way_delay_samples=float(true_one_way),
        forward_leg=last_fwd,
        reverse_leg=last_rev,
    )
