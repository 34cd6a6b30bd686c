"""Helpers shared by the benchmark modules.

Besides the report printer, this module provides a small baseline writer:
benchmarks call :func:`write_baseline` with their headline numbers and a
``BENCH_<name>.json`` file appears in the repository root, so throughput
regressions are visible as plain-diffable artifacts regardless of whether
the session also passed pytest-benchmark's own ``--benchmark-json`` flag
(whose machine-generated output is richer but not diff-friendly).
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.experiments.common import atomic_write_text

#: Repository root (the directory that holds ``benchmarks/``).
REPO_ROOT = Path(__file__).resolve().parent.parent


def report(result) -> None:
    """Print an experiment report beneath the benchmark output."""
    print()
    print(result.report())


def baseline_path(name: str) -> Path:
    """Path of the ``BENCH_<name>.json`` baseline artifact."""
    return REPO_ROOT / f"BENCH_{name}.json"


def write_baseline(name: str, summary: dict) -> Path:
    """Write a benchmark baseline as ``BENCH_<name>.json`` in the repo root.

    ``summary`` must be JSON-serialisable.  No timestamp is embedded:
    identical results should produce identical files so the committed
    artifact only changes when the measured numbers do (callers should
    round timing fields coarsely for the same reason).
    """
    path = baseline_path(name)
    payload = {"name": name, **summary}
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return path


def timed(fn, repeats: int = 1):
    """Run ``fn`` ``repeats`` times and return (best_seconds, last_result)."""
    best = float("inf")
    result = None
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def series_match(a, b) -> bool:
    """True when two ExperimentResults carry numerically identical series.

    Shared by the lockstep-vs-oracle smoke benchmarks: an experiment and
    its sequential oracle must produce the same series before their timing
    ratio is reported.
    """
    if a.series.keys() != b.series.keys():
        return False
    for key in a.series:
        first, second = a.series[key], b.series[key]
        if first and isinstance(first[0], str):
            if first != second:
                return False
        elif not np.allclose(first, second, rtol=1e-9, equal_nan=True):
            return False
    return True


def time_against_oracle(name: str, preset: str, repeats: int) -> tuple[float, float]:
    """Best-of-``repeats`` seconds of experiment ``name`` and of its oracle.

    The first number times the experiment's production (lockstep) run,
    the second its sequential oracle from the conformance kit
    (``tests/engine/experiment_oracles.py``), both on ``preset``'s seeded
    workload; their series must match before the timings are returned.
    """
    from repro.experiments import registry
    from tests.engine.experiment_oracles import ORACLES

    spec = registry.get(name)
    spec.run(spec.make_config("smoke"))  # warm code paths and caches
    lockstep_s, lockstep = timed(lambda: spec.run(spec.make_config(preset)), repeats=repeats)
    sequential_s, sequential = timed(
        lambda: ORACLES[name](spec.make_config(preset)), repeats=repeats
    )
    assert series_match(lockstep, sequential), f"{name} {preset}: paths diverge"
    return lockstep_s, sequential_s
