"""Smoke benchmark: batched joint-frame core path vs the per-frame oracles.

Runs the four sender-diversity experiments (Figs. 12, 13, 15, 18) two
ways — the production run, whose Monte-Carlo core advances through the
lockstep ensemble engine (:mod:`repro.core.ensemble`), and the
conformance kit's sequential oracle (``tests/engine/experiment_oracles.py``),
which measures one session or topology at a time through the per-frame
library simulators — asserts the seeded results agree, and writes the
measured ratios to ``BENCH_joint_pipeline.json``.

Methodology: both paths run the identical seeded workload (the lockstep
engine consumes every session generator in sequential order, so outputs
match to float noise); timing is wall-clock ``time.perf_counter`` (best of
the configured repeats) over the full experiment including topology
construction.  Two workload scales are recorded:

* **quick** — the four quick presets end-to-end.  Ensemble widths are
  modest (fig13's chains now span three topologies each — 42 lockstep jobs
  per chain — while the others carry 6-24 lanes), so fixed batching
  overhead is only partly amortised; this is the conservative number.
* **scaled** — the full presets of the two joint-frame-bound experiments
  (fig12: 42 lockstep cells, fig15: 30), where the batch axis is wide
  enough to amortise and the ratio reflects the engine's real throughput.

fig18's scheduler is control-flow-bound (its delivery hot path was already
memoised), so its ratio hovers near 1x and the quick aggregate lands around
2x; the scaled joint-frame workloads run 3-4x faster batched.  The asserted
floors are deliberately below the typical observed ratios to keep the smoke
test robust on loaded CI machines.
"""

from bench_utils import time_against_oracle, write_baseline

from repro.experiments import registry

_QUICK_NAMES = ["fig12", "fig13", "fig15", "fig18"]
_SCALED_NAMES = ["fig12", "fig15"]


def test_joint_pipeline_batched_vs_per_frame(benchmark):
    quick_batched = quick_sequential = 0.0
    per_experiment = {}
    for name in _QUICK_NAMES:
        batched_s, sequential_s = time_against_oracle(name, "quick", repeats=3)
        quick_batched += batched_s
        quick_sequential += sequential_s
        per_experiment[name] = round(sequential_s / batched_s, 1)

    scaled_batched = scaled_sequential = 0.0
    for name in _SCALED_NAMES:
        batched_s, sequential_s = time_against_oracle(name, "full", repeats=1)
        scaled_batched += batched_s
        scaled_sequential += sequential_s

    quick_speedup = quick_sequential / quick_batched
    scaled_speedup = scaled_sequential / scaled_batched
    # The committed artifact holds the workload description and coarsely
    # rounded ratios: raw wall-clock jitters run to run, which would churn
    # the version-controlled file with no signal (raw numbers are printed).
    write_baseline(
        "joint_pipeline",
        {
            "quick_experiments": _QUICK_NAMES,
            "scaled_experiments": _SCALED_NAMES,
            "quick_speedup": round(quick_speedup, 1),
            "scaled_speedup": round(scaled_speedup, 1),
            "quick_speedup_per_experiment": per_experiment,
        },
    )
    print(
        f"\nquick: batched {quick_batched*1e3:.0f} ms vs per-frame "
        f"{quick_sequential*1e3:.0f} ms ({quick_speedup:.2f}x); "
        f"scaled: batched {scaled_batched*1e3:.0f} ms vs per-frame "
        f"{scaled_sequential*1e3:.0f} ms ({scaled_speedup:.2f}x)"
    )
    # Typical observed ratios: ~2x quick aggregate, ~3.5-4x scaled; floors
    # are loose so scheduler noise cannot fail the smoke test.
    assert quick_speedup >= 1.5, f"quick presets only {quick_speedup:.2f}x faster batched"
    assert scaled_speedup >= 2.5, f"scaled ensembles only {scaled_speedup:.2f}x faster batched"

    benchmark.pedantic(
        lambda: [
            registry.get(name).run(registry.get(name).make_config("quick"))
            for name in _QUICK_NAMES
        ],
        rounds=1,
        iterations=1,
    )
