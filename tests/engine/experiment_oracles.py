"""Sequential oracles of the experiments' lockstep measurement paths.

Every registered experiment has one production path: its Monte-Carlo core
advances through a lockstep engine.  The functions here run the same
seeded workload the slow, obvious way — one session, placement, topology
or trial at a time through the library's sequential simulators — and
hand the raw measurements to the experiment's own fold (its ``_result``),
so ``ORACLES[name](config)`` must reproduce ``spec.fn(config)``.

The conformance harness (``test_engine_conformance.py``) checks that on
small workloads, and the ratio benchmarks in ``benchmarks/`` time each
lockstep path against its oracle on the quick and full presets.
"""

from __future__ import annotations

import numpy as np

from repro.channel.multipath import MultipathChannel, MultipathProfile
from repro.core import JointTopology, SourceSyncConfig, SourceSyncSession
from repro.experiments import (
    ablation_slope,
    fig12_sync_error,
    fig13_cp_reduction,
    fig15_power_gains,
    fig16_frequency_diversity,
    fig17_lasthop,
    fig18_opportunistic,
    fig19_traffic_load,
)
from repro.experiments.common import ExperimentResult
from repro.lasthop.simulation import simulate_downlink
from repro.net.topology import Testbed
from repro.phy.equalizer import estimate_channel_ltf
from repro.phy.params import DEFAULT_PARAMS, OFDMParams
from repro.phy.preamble import long_training_field
from repro.routing.exor import ExorConfig, simulate_exor
from repro.routing.exor_sourcesync import simulate_exor_sourcesync
from repro.routing.single_path import simulate_single_path
from repro.traffic import simulate_flow_services

__all__ = [
    "ORACLES",
    "measure_residual_sync_error",
    "run_sweep_sequential",
    "measure_profiles_sequential",
    "estimation_errors_sequential",
    "simulate_placement",
    "simulate_topology",
]


# ----------------------------------------------------------------------
# fig12: residual synchronization error, one session at a time
# ----------------------------------------------------------------------
def measure_residual_sync_error(
    session: SourceSyncSession,
    n_measurements: int = 10,
    repetitions_per_measurement: int = 5,
    params: OFDMParams = DEFAULT_PARAMS,
) -> list[float]:
    """Residual synchronization error (ns) of one converged session.

    Each measurement averages ``repetitions_per_measurement`` header
    misalignment estimates, then applies one tracking update — the
    per-session sequence the lockstep kernel batches across sessions.
    """
    errors_ns: list[float] = []
    for _ in range(n_measurements):
        estimates = []
        for _ in range(repetitions_per_measurement):
            outcome = session.run_header_exchange(apply_tracking_feedback=False)
            if outcome.measured_misalignment is None:
                continue
            values = outcome.measured_misalignment.misalignments_samples
            if values:
                estimates.append(values[0])
        if estimates:
            errors_ns.append(abs(float(np.mean(estimates))) * params.sample_period_ns)
        session.run_header_exchange(apply_tracking_feedback=True)
    return errors_ns


def fig12_sequential(config: fig12_sync_error.Config) -> ExperimentResult:
    """Fig. 12 with every cell measured, converged and probed on its own."""
    errors_per_cell = []
    for session in fig12_sync_error._cell_sessions(config):
        session.measure_delays()
        session.converge_tracking(rounds=config.warmup_rounds)
        errors_per_cell.append(
            measure_residual_sync_error(
                session, config.n_measurements, config.repetitions_per_measurement, config.params
            )
        )
    return fig12_sync_error._result(config, errors_per_cell)


# ----------------------------------------------------------------------
# fig13: the cyclic-prefix sweep, one frame at a time
# ----------------------------------------------------------------------
def run_sweep_sequential(
    session: SourceSyncSession,
    payload: bytes,
    cp_values_samples: tuple[int, ...],
    n_frames: int,
    compensate: bool,
) -> list:
    """One session's CP sweep as per-frame joint transmissions (tracking frozen)."""
    return [
        session.run_joint_frame(
            payload,
            rate_mbps=6.0,
            data_cp_samples=cp,
            compensate=compensate,
            apply_tracking_feedback=False,
            genie_timing=True,
        )
        for cp in cp_values_samples
        for _ in range(n_frames)
    ]


def fig13_sequential(config: fig13_cp_reduction.Config) -> ExperimentResult:
    """Fig. 13 with each topology's sweep decoded frame by frame."""
    chains = fig13_cp_reduction._prepare_chains(config)
    outcome_lists = [
        run_sweep_sequential(
            session, payload, config.cp_values_samples, config.n_frames, compensate
        )
        for compensate, session, payload in chains
    ]
    return fig13_cp_reduction._result(config, chains, outcome_lists)


# ----------------------------------------------------------------------
# fig15: one placement's header exchange at a time
# ----------------------------------------------------------------------
def fig15_sequential(config: fig15_power_gains.Config) -> ExperimentResult:
    """Fig. 15 with every placement measured through its own session."""
    cells = fig15_power_gains._placement_cells(config)
    channels_list = []
    for _, session in cells:
        session.measure_delays()
        session.converge_tracking(rounds=3)
        channels_list.append(session.run_header_exchange(apply_tracking_feedback=False).channels)
    return fig15_power_gains._result(config, cells, channels_list)


# ----------------------------------------------------------------------
# fig16: one regime's placement search at a time
# ----------------------------------------------------------------------
def measure_profiles_sequential(
    target_snr_db: float,
    seed: int = 16,
    params: OFDMParams = DEFAULT_PARAMS,
    max_attempts: int = 5,
) -> dict[str, np.ndarray] | None:
    """Per-subcarrier SNR profiles of one regime, attempt by attempt."""
    rng = fig16_frequency_diversity._regime_rng(target_snr_db, seed)
    for _ in range(max_attempts):
        topo = JointTopology.from_snrs(
            rng,
            lead_rx_snr_db=target_snr_db,
            cosender_rx_snr_db=[target_snr_db],
            lead_cosender_snr_db=[20.0],
            params=params,
        )
        session = SourceSyncSession(topo, SourceSyncConfig(params=params), rng=rng)
        session.measure_delays()
        session.converge_tracking(rounds=3)
        channels = session.run_header_exchange(apply_tracking_feedback=False).channels
        if channels is None:
            continue
        profiles = fig16_frequency_diversity._profiles_from_channels(channels, params)
        if profiles is not None:
            return profiles
    return None


def fig16_sequential(config: fig16_frequency_diversity.Config) -> ExperimentResult:
    """Fig. 16 with the regimes searched one after another."""
    measured = [
        measure_profiles_sequential(target, config.seed, config.params, config.max_attempts)
        for target in fig15_power_gains.REGIME_TARGET_SNR_DB.values()
    ]
    return fig16_frequency_diversity._result(config, measured)


# ----------------------------------------------------------------------
# ablation_slope: the per-trial estimation loop
# ----------------------------------------------------------------------
def estimation_errors_sequential(
    delays_samples: tuple[float, ...],
    snr_db: float = 15.0,
    n_trials: int = 20,
    profile: MultipathProfile | None = None,
    seed: int = 42,
    params: OFDMParams = DEFAULT_PARAMS,
) -> tuple[np.ndarray, np.ndarray]:
    """Windowed and full-band errors with one FFT per channel estimate."""
    rng = np.random.default_rng(seed)
    profile = profile if profile is not None else MultipathProfile(n_taps=6, rms_delay_spread_samples=2.0)
    ltf_scaled = long_training_field(params) * np.sqrt(10.0 ** (snr_db / 10.0))
    estimates = []
    for _ in range(n_trials):
        channel = MultipathChannel.random(profile, rng).normalized()
        for delay in (0, *delays_samples):
            reps = ablation_slope._estimate_windows(int(delay), channel, ltf_scaled, rng, params)
            estimates.append(
                estimate_channel_ltf(np.fft.fft(reps, axis=-1) / np.sqrt(params.n_fft), params)
            )
    return ablation_slope._errors_from_estimates(estimates, delays_samples, params)


def ablation_slope_sequential(config: ablation_slope.Config) -> ExperimentResult:
    """The slope ablation through the per-trial loop."""
    windowed, fullband = estimation_errors_sequential(
        config.delays_samples, config.snr_db, config.n_trials,
        seed=config.seed, params=config.params,
    )
    return ablation_slope._result(config, windowed, fullband)


# ----------------------------------------------------------------------
# fig17: one placement's two downlink transfers at a time
# ----------------------------------------------------------------------
def simulate_placement(
    rng: np.random.Generator, n_packets: int, params: OFDMParams = DEFAULT_PARAMS
) -> tuple[float, float]:
    """(best-AP, SourceSync) throughput of one placement, schemes in turn."""
    testbed, controller, client = fig17_lasthop._build_placement(rng, params)
    best = simulate_downlink(testbed, controller, client, scheme="best_ap", n_packets=n_packets, rng=rng)
    joint = simulate_downlink(testbed, controller, client, scheme="sourcesync", n_packets=n_packets, rng=rng)
    return best.throughput_mbps, joint.throughput_mbps


def fig17_sequential(config: fig17_lasthop.Config) -> ExperimentResult:
    """Fig. 17 with the placements simulated one after another."""
    children = np.random.SeedSequence(config.seed).spawn(config.n_placements)
    pairs = [
        simulate_placement(np.random.default_rng(child), config.n_packets, config.params)
        for child in children
    ]
    return fig17_lasthop._result(config, pairs)


# ----------------------------------------------------------------------
# fig18: one topology's three transfers at a time
# ----------------------------------------------------------------------
def simulate_topology(
    testbed: Testbed, rate_mbps: float, rng: np.random.Generator, batch_size: int
) -> tuple[float, float, float]:
    """(single path, ExOR, ExOR+SourceSync) throughput of one topology."""
    src, dst = 0, 1
    relays = [n for n in testbed.node_ids if n not in (src, dst)]
    config = ExorConfig(batch_size=batch_size)
    single = simulate_single_path(testbed, src, dst, rate_mbps, n_packets=batch_size, rng=rng)
    exor = simulate_exor(testbed, src, dst, rate_mbps, relays, config=config, rng=rng)
    joint = simulate_exor_sourcesync(testbed, src, dst, rate_mbps, relays, config=config, rng=rng)
    return single.throughput_mbps, exor.throughput_mbps, joint.throughput_mbps


def fig18_sequential(config: fig18_opportunistic.Config) -> ExperimentResult:
    """Fig. 18 with the topologies simulated one after another."""
    triples_per_rate = []
    for rate in config.rates_mbps:
        triples = []
        for child in np.random.SeedSequence(config.seed + int(rate)).spawn(config.n_topologies):
            rng = np.random.default_rng(child)
            testbed = fig18_opportunistic.random_relay_topology(rng, params=config.params)
            triples.append(simulate_topology(testbed, rate, rng, config.batch_size))
        triples_per_rate.append(triples)
    return fig18_opportunistic._result(config, triples_per_rate)


# ----------------------------------------------------------------------
# fig19: flows served by the per-flow sequential oracle
# ----------------------------------------------------------------------
def fig19_sequential(config: fig19_traffic_load.Config) -> ExperimentResult:
    """The traffic-load experiment with ``simulate_flow_services(lockstep=False)``."""
    workloads, served = fig19_traffic_load._plan(config)
    services = [
        simulate_flow_services(
            workload, factory, dst, schemes=fig19_traffic_load._SCHEMES, lockstep=False
        )
        for workload, factory, dst in served
    ]
    return fig19_traffic_load._result(config, workloads, served, services)


#: Experiment name -> sequential oracle taking that experiment's ``Config``.
ORACLES = {
    "fig12": fig12_sequential,
    "fig13": fig13_sequential,
    "fig15": fig15_sequential,
    "fig16": fig16_sequential,
    "fig17": fig17_sequential,
    "fig18": fig18_sequential,
    "fig19_traffic_load": fig19_sequential,
    "ablation_slope": ablation_slope_sequential,
}
