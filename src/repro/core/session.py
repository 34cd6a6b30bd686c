"""End-to-end simulation of SourceSync joint transmissions.

A :class:`SourceSyncSession` wires together every piece of the architecture
for one lead sender, a set of co-senders and one receiver:

1. the nodes run probe/response exchanges to estimate pair-wise propagation
   delays and carrier-frequency offsets (§4.2c, §5);
2. for every joint frame, each co-sender receives the lead sender's
   synchronization header over its own simulated channel, estimates its
   detection delay from the channel phase slope (§4.2a), computes its wait
   time (§4.3) and schedules its transmission;
3. all transmissions are superimposed at the receiver with their true
   delays, channels, oscillator offsets and noise, and decoded by the joint
   receiver (§5, §6);
4. the receiver's misalignment report can be fed back to the co-senders to
   track delay changes (§4.5).

The session exposes full-frame runs (header + training + data, returning
a :class:`~repro.core.receiver.JointReceiveResult`), header-only exchanges
(the receiver-measured misalignment of Fig. 12 and the §4.5 tracking
loop), and cheap "sync trials" that only evaluate the true schedule error
without simulating a receiver at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.composite import Link, Transmission, combine_at_receiver, link_for_snr
from repro.channel.multipath import DEFAULT_PROFILE, MultipathProfile
from repro.channel.oscillator import Oscillator
from repro.channel.propagation import propagation_delay_samples
from repro.core.channel_est.cfo import CfoEstimate, measure_cfo
from repro.core.channel_est.joint_estimator import JointChannelEstimate
from repro.core.config import SourceSyncConfig
from repro.core.combining.stbc import SmartCombiner
from repro.core.frame import JointFrameLayout, SyncHeader, make_joint_frame_config
from repro.core.receiver import JointReceiveResult, JointReceiver
from repro.core.sender import CoSender, LeadSender
from repro.core.sync.compensation import DelayBudget, compute_wait_time
from repro.core.sync.probe import (
    ProbeLegResult,
    PropagationDelayEstimate,
    measure_propagation_delay,
    probe_leg,
)
from repro.core.sync.tracking import MisalignmentReport, WaitTimeTracker
from repro.hardware.frontend import RadioFrontend
from repro.phy.params import OFDMParams, DEFAULT_PARAMS
from repro.phy.transmitter import FrameConfig
from repro.rng import require_rng

__all__ = [
    "NodeProfile",
    "JointTopology",
    "SyncTrialResult",
    "JointFrameOutcome",
    "HeaderExchangeOutcome",
    "SourceSyncSession",
]

#: Silent samples before the first arrival in every simulated receiver stream.
_LEADING_SILENCE = 60


@dataclass
class NodeProfile:
    """A physical node participating in a joint transmission."""

    node_id: int
    frontend: RadioFrontend
    oscillator: Oscillator

    @classmethod
    def random(cls, node_id: int, rng: np.random.Generator, sample_rate_hz: float = 20e6) -> "NodeProfile":
        """Draw a node with random (but henceforth fixed) hardware characteristics."""
        return cls(
            node_id=node_id,
            frontend=RadioFrontend.random(rng, sample_rate_hz=sample_rate_hz),
            oscillator=Oscillator.random(rng),
        )


@dataclass
class JointTopology:
    """All nodes and links involved in one joint transmission to one receiver.

    Links are directional; reverse links (used by probe responses and ACKs)
    share the propagation delay of their forward counterpart but have
    independent small-scale fading, as on a real (reciprocal-delay, but
    separately-faded in our block model) wireless channel.
    """

    lead: NodeProfile
    cosenders: list[NodeProfile]
    receiver: NodeProfile
    link_lead_rx: Link
    links_cosender_rx: list[Link]
    links_lead_cosender: list[Link]
    links_cosender_lead: list[Link]
    link_rx_lead: Link
    links_rx_cosender: list[Link]
    noise_power: float = 1.0
    params: OFDMParams = DEFAULT_PARAMS

    def __post_init__(self) -> None:
        n = len(self.cosenders)
        for name, links in (
            ("links_cosender_rx", self.links_cosender_rx),
            ("links_lead_cosender", self.links_lead_cosender),
            ("links_cosender_lead", self.links_cosender_lead),
            ("links_rx_cosender", self.links_rx_cosender),
        ):
            if len(links) != n:
                raise ValueError(f"{name} must have one link per co-sender")

    @property
    def n_cosenders(self) -> int:
        """Number of co-senders in the topology."""
        return len(self.cosenders)

    # ------------------------------------------------------------------
    @classmethod
    def from_snrs(
        cls,
        rng: np.random.Generator,
        lead_rx_snr_db: float,
        cosender_rx_snr_db: list[float] | tuple[float, ...],
        lead_cosender_snr_db: list[float] | tuple[float, ...] | None = None,
        lead_rx_distance_m: float = 20.0,
        cosender_rx_distance_m: list[float] | None = None,
        lead_cosender_distance_m: list[float] | None = None,
        profile: MultipathProfile = DEFAULT_PROFILE,
        params: OFDMParams = DEFAULT_PARAMS,
        noise_power: float = 1.0,
    ) -> "JointTopology":
        """Build a topology from link SNRs and node distances.

        SNRs control the fading/noise conditions; distances control the
        propagation delays the synchronizer must compensate.
        """
        cosender_rx_snr_db = list(cosender_rx_snr_db)
        n_co = len(cosender_rx_snr_db)
        if lead_cosender_snr_db is None:
            lead_cosender_snr_db = [max(lead_rx_snr_db, 15.0)] * n_co
        lead_cosender_snr_db = list(lead_cosender_snr_db)
        if cosender_rx_distance_m is None:
            cosender_rx_distance_m = [float(rng.uniform(5.0, 40.0)) for _ in range(n_co)]
        if lead_cosender_distance_m is None:
            lead_cosender_distance_m = [float(rng.uniform(5.0, 40.0)) for _ in range(n_co)]

        lead = NodeProfile.random(0, rng, params.bandwidth_hz)
        cosenders = [NodeProfile.random(i + 1, rng, params.bandwidth_hz) for i in range(n_co)]
        receiver = NodeProfile.random(100, rng, params.bandwidth_hz)

        def make_link(snr_db: float, distance_m: float, src: NodeProfile, dst: NodeProfile) -> Link:
            return link_for_snr(
                snr_db,
                noise_power=noise_power,
                profile=profile,
                rng=rng,
                delay_samples=propagation_delay_samples(distance_m, params.bandwidth_hz),
                cfo_hz=src.oscillator.cfo_to(dst.oscillator),
                params=params,
            )

        return cls(
            lead=lead,
            cosenders=cosenders,
            receiver=receiver,
            link_lead_rx=make_link(lead_rx_snr_db, lead_rx_distance_m, lead, receiver),
            links_cosender_rx=[
                make_link(cosender_rx_snr_db[i], cosender_rx_distance_m[i], cosenders[i], receiver)
                for i in range(n_co)
            ],
            links_lead_cosender=[
                make_link(lead_cosender_snr_db[i], lead_cosender_distance_m[i], lead, cosenders[i])
                for i in range(n_co)
            ],
            links_cosender_lead=[
                make_link(lead_cosender_snr_db[i], lead_cosender_distance_m[i], cosenders[i], lead)
                for i in range(n_co)
            ],
            link_rx_lead=make_link(lead_rx_snr_db, lead_rx_distance_m, receiver, lead),
            links_rx_cosender=[
                make_link(cosender_rx_snr_db[i], cosender_rx_distance_m[i], receiver, cosenders[i])
                for i in range(n_co)
            ],
            noise_power=noise_power,
            params=params,
        )


@dataclass
class _CoSenderState:
    """Per-co-sender state the session maintains across joint frames."""

    lead_to_cosender_samples: float = 0.0
    lead_to_receiver_samples: float = 0.0
    cosender_to_receiver_samples: float = 0.0
    #: This co-sender's carrier frequency offset *relative to the lead
    #: sender* (f_co - f_lead).  The co-sender pre-rotates its waveform by
    #: ``exp(-j 2 pi f t)`` with this value so that, after the receiver's
    #: standard lead-referenced CFO correction, its signal carries no bulk
    #: rotation (§5).
    cfo_to_lead_hz: float = 0.0
    tracker: WaitTimeTracker | None = None


@dataclass(frozen=True)
class SyncTrialResult:
    """Outcome of one synchronization trial (no data section).

    ``misalignment_samples[i]`` is the *true* offset between co-sender i's
    data-section arrival and the lead sender's data-section arrival at the
    receiver; this is what the paper's high-overhead reference algorithm
    measures in §8.1.1 and what Fig. 12 reports.
    """

    misalignment_samples: tuple[float, ...]
    feasible: tuple[bool, ...]
    snr_db: float

    def misalignment_ns(self, params: OFDMParams = DEFAULT_PARAMS) -> tuple[float, ...]:
        """Misalignments converted to nanoseconds."""
        return tuple(m * params.sample_period_ns for m in self.misalignment_samples)

    def worst_misalignment_ns(self, params: OFDMParams = DEFAULT_PARAMS) -> float:
        """Largest absolute misalignment in nanoseconds."""
        if not self.misalignment_samples:
            return 0.0
        return float(np.max(np.abs(self.misalignment_ns(params))))


@dataclass
class JointFrameOutcome:
    """Everything produced by one full joint-frame simulation."""

    result: JointReceiveResult
    true_misalignment_samples: tuple[float, ...]
    schedules_feasible: tuple[bool, ...]
    layout: JointFrameLayout
    frame_config: FrameConfig


@dataclass
class HeaderExchangeOutcome:
    """Result of a header-only joint transmission (§4.5 measurement path).

    ``measured_misalignment`` is what the receiver derives from the channel
    phase slopes of the lead sender and each co-sender — the value it feeds
    back in its ACK.  ``true_misalignment_samples`` is the simulator's exact
    arrival-time difference, available only because this is a simulation.
    ``channels`` holds the receiver's per-sender channel estimates for this
    header, which the power/diversity experiments (§8.2) read directly.
    """

    measured_misalignment: MisalignmentReport | None
    true_misalignment_samples: tuple[float, ...]
    schedules_feasible: tuple[bool, ...]
    snr_db: float
    channels: "JointChannelEstimate | None" = None

    @property
    def detected(self) -> bool:
        """Whether the receiver detected and processed the header."""
        return self.measured_misalignment is not None


class SourceSyncSession:
    """Drives joint transmissions over a :class:`JointTopology`.

    The draw-free per-exchange steps — the frame layout, the §7.1 header,
    the §4.3 schedule from a header reception, the co-sender
    transmissions, loading the probe measurements and the §4.5 feedback —
    are private methods here, shared by the sequential methods below and
    the lockstep waves of :mod:`repro.core.ensemble`.
    """

    def __init__(
        self,
        topology: JointTopology,
        config: SourceSyncConfig = SourceSyncConfig(),
        rng: np.random.Generator | None = None,
    ):
        self.topology = topology
        self.config = config
        self.rng = require_rng(rng, "SourceSyncSession")
        self.lead = LeadSender(config=config, node_id=topology.lead.node_id)
        self.receiver = JointReceiver(config=config)
        self.combiner = SmartCombiner(config.combiner_scheme)
        self._states: list[_CoSenderState] = [_CoSenderState() for _ in topology.cosenders]
        self._delays_measured = False

    # ------------------------------------------------------------------
    # Measurement phase (§4.2c, §5)
    # ------------------------------------------------------------------
    def measure_delays(self, use_true_delays: bool = False) -> None:
        """Run the pair-wise probe exchanges that seed the synchronizer.

        ``use_true_delays`` bypasses the waveform-level probe simulation and
        loads the true delays instead; it is used by tests and by the
        unsynchronized baseline ablation where measurement noise is not the
        quantity under study.
        """
        topo = self.topology
        for i in range(topo.n_cosenders):
            if use_true_delays:
                self._load_measurements(i)
                continue
            delays = [
                measure_propagation_delay(
                    forward,
                    reverse,
                    initiator,
                    responder,
                    self.rng,
                    topo.noise_power,
                    topo.params,
                    n_probes=self.config.probe_count,
                )
                for forward, reverse, initiator, responder in self._probe_pairs(i)
            ]
            cfo = measure_cfo(topo.links_lead_cosender[i], self.rng, topo.noise_power, topo.params)
            self._load_measurements(i, (*delays, cfo))
        self._delays_measured = True

    def _probe_pairs(self, i: int) -> tuple[tuple[Link, Link, RadioFrontend, RadioFrontend], ...]:
        """Co-sender ``i``'s three delay probes, in measurement order.

        Each is ``(forward link, reverse link, initiator, responder)`` front
        ends: lead→co-sender, lead→receiver, co-sender→receiver.
        """
        topo = self.topology
        return (
            (topo.links_lead_cosender[i], topo.links_cosender_lead[i],
             topo.lead.frontend, topo.cosenders[i].frontend),
            (topo.link_lead_rx, topo.link_rx_lead, topo.lead.frontend, topo.receiver.frontend),
            (topo.links_cosender_rx[i], topo.links_rx_cosender[i],
             topo.cosenders[i].frontend, topo.receiver.frontend),
        )

    def _load_measurements(
        self,
        i: int,
        estimates: tuple[PropagationDelayEstimate, ...] | None = None,
    ) -> None:
        """Load co-sender ``i``'s measurements and re-seed its wait-time tracker.

        ``estimates`` holds the three probe estimates of :meth:`_probe_pairs`
        followed by the :class:`CfoEstimate`; an invalid delay falls back to
        the true link delay and an invalid CFO to zero.  ``None`` loads the
        true values.
        """
        topo = self.topology
        state = self._states[i]
        links = (topo.links_lead_cosender[i], topo.link_lead_rx, topo.links_cosender_rx[i])
        if estimates is None:
            delays = [link.delay_samples for link in links]
            # The link's cfo_hz is f_lead - f_co (what the co-sender
            # observes when listening to the lead); the pre-correction
            # value is the co-sender's offset relative to the lead.
            state.cfo_to_lead_hz = -links[0].cfo_hz
        else:
            *probes, cfo = estimates
            delays = [
                probe.one_way_delay_samples if probe.valid else link.delay_samples
                for probe, link in zip(probes, links)
            ]
            state.cfo_to_lead_hz = -cfo.cfo_hz if cfo.valid else 0.0
        (
            state.lead_to_cosender_samples,
            state.lead_to_receiver_samples,
            state.cosender_to_receiver_samples,
        ) = delays
        state.tracker = WaitTimeTracker(
            wait_time_samples=state.lead_to_receiver_samples - state.cosender_to_receiver_samples,
            gain=self.config.tracking_gain,
        )

    # ------------------------------------------------------------------
    # Per-exchange steps (shared with the lockstep ensemble)
    # ------------------------------------------------------------------
    def _ensure_measured(self) -> None:
        if not self._delays_measured:
            self.measure_delays()

    def _layout(
        self,
        frame_config: FrameConfig | None = None,
        data_cp_samples: int | None = None,
        n_cosenders: int | None = None,
    ) -> JointFrameLayout:
        """Layout of one exchange: header-only (one data symbol) without ``frame_config``.

        A frame's data section holds its symbols rounded up to the
        space-time block size; ``n_cosenders`` defaults to the topology's.
        """
        n_data_symbols = 1
        if frame_config is not None:
            block = self.combiner.block_symbols
            n_data_symbols = int(np.ceil(frame_config.n_data_symbols / block) * block)
        return JointFrameLayout(
            params=self.topology.params,
            n_cosenders=self.topology.n_cosenders if n_cosenders is None else n_cosenders,
            n_data_symbols=n_data_symbols,
            data_cp_samples=data_cp_samples,
            sifs_us=self.config.sifs_us,
        )

    def _header(
        self, layout: JointFrameLayout, rate_mbps: float = 6.0, packet_id: int | None = None
    ) -> SyncHeader:
        """The lead sender's header for ``layout`` (§7.1); draws the packet id if not given."""
        if packet_id is None:
            packet_id = int(self.rng.integers(0, 1 << 16))
        return self.lead.make_header(
            packet_id=packet_id,
            rate_mbps=rate_mbps,
            data_cp_samples=layout.effective_data_cp,
            n_cosenders=layout.n_cosenders,
        )

    def _build_joint_frame(
        self, payload: bytes, rate_mbps: float, data_cp_samples: int | None
    ) -> tuple[FrameConfig, JointFrameLayout, np.ndarray, np.ndarray]:
        """``(frame_config, layout, header_waveform, lead_waveform)`` of one joint frame."""
        frame_config = make_joint_frame_config(
            len(payload), rate_mbps, self.topology.params, data_cp_samples
        )
        layout = self._layout(frame_config, data_cp_samples)
        header = self._header(layout, rate_mbps)
        header_waveform = self.lead.header_waveform(header, layout)
        lead_waveform = self.lead.build_waveform(payload, header, layout, frame_config)
        return frame_config, layout, header_waveform, lead_waveform

    def _schedule_cosenders(
        self,
        layout: JointFrameLayout,
        header_waveform: np.ndarray,
        compensate: bool = True,
    ) -> tuple[list[float], list[bool]]:
        """Simulate header reception at each co-sender and compute actual start times.

        Returns (absolute transmit start per co-sender in samples, feasibility
        flags); see :meth:`_schedule_from_leg`.
        """
        topo = self.topology
        starts: list[float] = []
        feasible: list[bool] = []
        for i in range(topo.n_cosenders):
            leg = probe_leg(
                topo.links_lead_cosender[i],
                topo.cosenders[i].frontend,
                self.rng,
                topo.noise_power,
                topo.params,
                waveform=header_waveform,
            )
            start, ok = self._schedule_from_leg(layout, i, leg, compensate)
            starts.append(start)
            feasible.append(ok)
        return starts, feasible

    def _schedule_from_leg(
        self,
        layout: JointFrameLayout,
        i: int,
        leg: ProbeLegResult,
        compensate: bool,
    ) -> tuple[float, bool]:
        """Co-sender ``i``'s transmit start from its header reception (§4.3).

        Returns ``(absolute start in samples, feasible)``; a co-sender that
        missed the header stays silent (``nan`` start).  With
        ``compensate=False`` it behaves like the unsynchronized baseline of
        §8.1.2: it joins as soon as the SIFS and its slot arrive according
        to its *local* perception of time, without correcting for detection
        or propagation delays.
        """
        if not leg.detected:
            return float("nan"), False
        state = self._states[i]
        frontend = self.topology.cosenders[i].frontend
        link = self.topology.links_lead_cosender[i]
        sifs = float(layout.sifs_samples)
        header_len = float(layout.sync_header_samples)
        slot_offset = float(i * layout.ltf_samples)
        if compensate:
            # The tracker's wait time equals T0_hat - t_i_hat plus any
            # ACK-feedback corrections (§4.5), so it plays the role of
            # w_i in the §4.3 schedule.
            budget = DelayBudget(
                lead_to_cosender=state.lead_to_cosender_samples,
                detection_delay=leg.estimated_detection_delay,
                turnaround=frontend.measure_turnaround_samples(),
                lead_to_receiver=state.cosender_to_receiver_samples
                + state.tracker.wait_time_samples,
                cosender_to_receiver=state.cosender_to_receiver_samples,
            )
            schedule = compute_wait_time(budget, sifs, extra_slot_offset=slot_offset)
            wait = max(schedule.local_wait_after_detection, 0.0)
            schedule_feasible = schedule.feasible
        else:
            # Baseline: the co-sender starts its slot SIFS after it
            # *finished receiving* the header, with no compensation at all.
            wait = max(sifs + slot_offset - frontend.turnaround_samples, 0.0)
            schedule_feasible = True
        actual_start = (
            link.delay_samples
            + leg.true_detection_delay
            + header_len
            + frontend.turnaround_samples
            + wait
        )
        return float(actual_start), bool(schedule_feasible)

    def _cosender_transmissions(
        self,
        layout: JointFrameLayout,
        starts: list[float],
        active: list[int] | None = None,
        payload: bytes | None = None,
        frame_config: FrameConfig | None = None,
    ) -> list[Transmission]:
        """Transmissions of the ``active`` (default: all) co-senders that heard the header.

        Without ``payload`` each sends only its training slot (a header
        exchange); with it, its training slot and the data section.
        """
        topo = self.topology
        transmissions = []
        for i in range(topo.n_cosenders) if active is None else active:
            if not np.isfinite(starts[i]):
                continue
            cosender = CoSender(
                cosender_index=i,
                config=self.config,
                node_id=topo.cosenders[i].node_id,
                # CFO pre-correction is applied even in the unsynchronized
                # baseline: the Fig. 13 comparison isolates *timing*
                # compensation, not frequency handling.
                cfo_precorrection_hz=self._states[i].cfo_to_lead_hz,
            )
            samples = (
                cosender.training_waveform(layout)
                if payload is None
                else cosender.build_waveform(payload, layout, frame_config)
            )
            link = topo.links_cosender_rx[i]
            transmissions.append(Transmission(link=link, samples=samples, start_sample=starts[i]))
        return transmissions

    def _receiver_start(self, genie_timing: bool, link: Link | None = None) -> int | None:
        """The exact frame start under genie timing (lead link by default), else ``None``."""
        if not genie_timing:
            return None
        link = self.topology.link_lead_rx if link is None else link
        return _LEADING_SILENCE + int(round(link.delay_samples))

    def _header_exchange_length(self, layout: JointFrameLayout) -> int:
        """Receiver stream length of a header exchange (header, slots and margin)."""
        delay = self.topology.link_lead_rx.delay_samples
        return _LEADING_SILENCE + int(np.ceil(delay)) + layout.data_offset + 40

    def _apply_feedback(
        self,
        starts: list[float],
        channels: JointChannelEstimate | None,
        report: MisalignmentReport | None,
        active: list[int] | None = None,
    ) -> None:
        """Feed the receiver's misalignment report back to the co-senders (§4.5).

        The report lists one misalignment per training slot the receiver
        found (``channels.cosenders[k] is not None``), in slot order, so
        each value goes to the co-sender of its slot.  Only co-senders that
        transmitted — ``active`` (default: all) with a finite start — are
        updated: a silent co-sender keeps its wait time even when noise or
        a neighbour's energy made its slot look occupied.
        """
        if report is None:
            return
        found = [k for k, channel in enumerate(channels.cosenders) if channel is not None]
        for k, reported in zip(found, report.misalignments_samples):
            if np.isfinite(starts[k]) and (active is None or k in active):
                self._states[k].tracker.update(reported)

    def _true_misalignments(
        self,
        layout: JointFrameLayout,
        starts: list[float],
    ) -> tuple[float, ...]:
        """True data-section misalignment of each co-sender vs the lead sender."""
        topo = self.topology
        lead_data_arrival = layout.data_offset + topo.link_lead_rx.delay_samples
        out = []
        for i, start in enumerate(starts):
            if not np.isfinite(start):
                out.append(float("nan"))
                continue
            data_offset_in_waveform = (layout.n_cosenders - i) * layout.ltf_samples
            arrival = start + data_offset_in_waveform + topo.links_cosender_rx[i].delay_samples
            out.append(float(arrival - lead_data_arrival))
        return tuple(out)

    def _sync_trial_result(
        self, layout: JointFrameLayout, starts: list[float], feasible: list[bool]
    ) -> SyncTrialResult:
        snr_db = self.topology.link_lead_rx.snr_db(self.topology.noise_power)
        return SyncTrialResult(self._true_misalignments(layout, starts), tuple(feasible), snr_db)

    def _header_outcome(
        self,
        layout: JointFrameLayout,
        starts: list[float],
        feasible: list[bool],
        channels: JointChannelEstimate | None,
        misalignment: MisalignmentReport | None,
        apply_tracking_feedback: bool,
    ) -> HeaderExchangeOutcome:
        """A header exchange's outcome, after the §4.5 feedback when asked for."""
        if apply_tracking_feedback:
            self._apply_feedback(starts, channels, misalignment)
        return HeaderExchangeOutcome(
            measured_misalignment=misalignment,
            true_misalignment_samples=self._true_misalignments(layout, starts),
            schedules_feasible=tuple(feasible),
            snr_db=self.topology.link_lead_rx.snr_db(self.topology.noise_power),
            channels=channels,
        )

    def _frame_outcome(
        self,
        result: JointReceiveResult,
        layout: JointFrameLayout,
        frame_config: FrameConfig,
        starts: list[float],
        feasible: list[bool],
    ) -> JointFrameOutcome:
        return JointFrameOutcome(
            result=result,
            true_misalignment_samples=self._true_misalignments(layout, starts),
            schedules_feasible=tuple(feasible),
            layout=layout,
            frame_config=frame_config,
        )

    # ------------------------------------------------------------------
    # Sync-only trials (schedules without a receiver)
    # ------------------------------------------------------------------
    def run_sync_trial(self, compensate: bool = True) -> SyncTrialResult:
        """Synchronize once and report the true residual misalignment."""
        self._ensure_measured()
        layout = self._layout()
        header_waveform = self.lead.header_waveform(self._header(layout), layout)
        starts, feasible = self._schedule_cosenders(layout, header_waveform, compensate)
        return self._sync_trial_result(layout, starts, feasible)

    # ------------------------------------------------------------------
    # Header-only joint exchanges (Fig. 12 and the §4.5 tracking loop)
    # ------------------------------------------------------------------
    def run_header_exchange(
        self,
        compensate: bool = True,
        apply_tracking_feedback: bool = True,
        genie_timing: bool = False,
    ) -> HeaderExchangeOutcome:
        """Transmit only the synchronization header and co-sender training.

        This is the cheapest exchange that exercises the whole measurement
        loop: co-senders synchronize to a freshly detected header, the
        receiver estimates both channels and measures their misalignment
        from the phase slopes, and (optionally) the co-senders apply the
        feedback to their wait times — exactly the §4.5 tracking loop.
        """
        self._ensure_measured()
        topo = self.topology
        layout = self._layout()
        header_waveform = self.lead.header_waveform(self._header(layout), layout)
        starts, feasible = self._schedule_cosenders(layout, header_waveform, compensate)
        transmissions = [
            Transmission(link=topo.link_lead_rx, samples=header_waveform, start_sample=0.0),
            *self._cosender_transmissions(layout, starts),
        ]
        received = combine_at_receiver(
            transmissions,
            noise_power=topo.noise_power,
            rng=self.rng,
            leading_silence=_LEADING_SILENCE,
            total_length=self._header_exchange_length(layout),
        )
        channels, misalignment, _ = self.receiver.measure_header(
            received, layout, start_index=self._receiver_start(genie_timing)
        )
        return self._header_outcome(
            layout, starts, feasible, channels, misalignment, apply_tracking_feedback
        )

    def converge_tracking(self, rounds: int = 4, compensate: bool = True) -> None:
        """Run a few header exchanges with feedback to settle the wait times (§4.5)."""
        for _ in range(max(rounds, 0)):
            self.run_header_exchange(compensate=compensate, apply_tracking_feedback=True)

    # ------------------------------------------------------------------
    # Full joint frames
    # ------------------------------------------------------------------
    def run_joint_frame(
        self,
        payload: bytes,
        rate_mbps: float = 6.0,
        data_cp_samples: int | None = None,
        compensate: bool = True,
        active_cosenders: list[int] | None = None,
        apply_tracking_feedback: bool = True,
        genie_timing: bool = False,
    ) -> JointFrameOutcome:
        """Simulate one complete joint frame end to end.

        Parameters
        ----------
        payload:
            Packet payload shared by all senders.
        rate_mbps:
            Transmission rate chosen by the lead sender (announced in the
            synchronization header, §7.1).
        data_cp_samples:
            Cyclic prefix for the data section; ``None`` keeps the standard CP.
        compensate:
            When False, co-senders skip delay compensation (the baseline of
            Fig. 13).
        active_cosenders:
            Indices of co-senders that actually overheard the packet and can
            join; others stay silent (§7.2).  Default: all.
        apply_tracking_feedback:
            Feed the receiver's misalignment report back into the co-sender
            wait-time trackers (§4.5).
        genie_timing:
            Hand the receiver the exact frame start (used to isolate
            synchronization effects from receiver timing acquisition).
        """
        self._ensure_measured()
        topo = self.topology
        active = None if active_cosenders is None else sorted(active_cosenders)
        frame_config, layout, header_waveform, lead_waveform = self._build_joint_frame(
            payload, rate_mbps, data_cp_samples
        )
        starts, feasible = self._schedule_cosenders(layout, header_waveform, compensate)
        transmissions = [
            Transmission(link=topo.link_lead_rx, samples=lead_waveform, start_sample=0.0),
            *self._cosender_transmissions(layout, starts, active, payload, frame_config),
        ]
        received = combine_at_receiver(
            transmissions,
            noise_power=topo.noise_power,
            rng=self.rng,
            leading_silence=_LEADING_SILENCE,
        )
        result = self.receiver.receive(
            received, layout, frame_config, start_index=self._receiver_start(genie_timing)
        )
        if apply_tracking_feedback:
            self._apply_feedback(starts, result.channels, result.misalignment, active)
        return self._frame_outcome(result, layout, frame_config, starts, feasible)

    # ------------------------------------------------------------------
    # Single-sender reference transmission (for gain comparisons)
    # ------------------------------------------------------------------
    def run_single_sender_frame(
        self,
        payload: bytes,
        rate_mbps: float = 6.0,
        sender: str = "lead",
        genie_timing: bool = False,
    ) -> JointFrameOutcome:
        """Transmit the same payload from a single sender (no co-senders).

        Used by the power/diversity-gain experiments (§8.2) and the last-hop
        baseline (single best AP, §8.3).
        """
        self._ensure_measured()
        topo = self.topology
        frame_config = make_joint_frame_config(len(payload), rate_mbps, topo.params, None)
        layout = self._layout(frame_config, n_cosenders=0)
        header = self._header(layout, rate_mbps)
        if sender == "lead":
            link = topo.link_lead_rx
        else:
            index = int(sender) if not isinstance(sender, int) else sender
            link = topo.links_cosender_rx[index]
        waveform = self.lead.build_waveform(payload, header, layout, frame_config)
        received = combine_at_receiver(
            [Transmission(link=link, samples=waveform, start_sample=0.0)],
            noise_power=topo.noise_power,
            rng=self.rng,
            leading_silence=_LEADING_SILENCE,
        )
        result = self.receiver.receive(
            received, layout, frame_config, start_index=self._receiver_start(genie_timing, link)
        )
        return self._frame_outcome(result, layout, frame_config, [], [])
