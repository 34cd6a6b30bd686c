"""Repository benchmark: cold-process regeneration of the figure set.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table each
    python3 perfbench/run.py --manifest              # print BENCHMARK.json
    python3 perfbench/run.py --record                # re-record summary references

Run from the repository root.  Each repetition runs one workload (see
``workloads.py``) in a fresh interpreter, exactly as a user regenerating
those figures pays for it; repetitions follow each other (a closed loop,
one process at a time) while ``--seconds`` have not passed, at least
three times.  Every experiment's summary is checked against the reference
recorded for (workload, seed) in ``references.json`` — or, for a seed
without one, against the first repetition.  A malformed summary, a
mismatch or an exception counts as a failed run.

``--trace 0`` reports the end-to-end metrics (medians over the
repetitions).  ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics: self times and counts from the
traced runs (``layers.py``), per-experiment and set-up times from the
untraced ones, an ``-X importtime`` breakdown of set-up, and the
tracing overhead.  A traced run must reproduce the untraced summaries
exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import (
    DEFAULT_SEED, END_TO_END, EXPERIMENTS, PER_LAYER, RECORDED_SEEDS, WORKLOADS, manifest,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"

#: Fewest repetitions (untraced) or untraced/traced pairs (traced) per run.
MIN_REPS = 3
MIN_PAIRS = 2
#: ``-X importtime`` probes per traced run.
IMPORT_PROBES = 3
#: Wall-clock budget of one workload run, below the 180 s the contract allows.
TIME_LIMIT_S = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (no source, a crashed process, no time left)."""


class Budget:
    """The wall-clock budget that every child process of one run shares."""

    def __init__(self, seconds: float) -> None:
        self.deadline = time.perf_counter() + seconds

    def remaining(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise BenchmarkError(f"time limit of {TIME_LIMIT_S:.0f} s exceeded")
        return left


def _python(args: list[str], budget: Budget) -> subprocess.CompletedProcess:
    """Run the interpreter with ``src`` importable; the child is waited for or killed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE), env.get("PYTHONPATH")]))
    try:
        return subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=budget.remaining(),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"time limit of {TIME_LIMIT_S:.0f} s exceeded") from exc


def run_worker(workload: str, seed: int, trace: bool, budget: Budget) -> dict:
    """One cold repetition; adds ``setup_s`` measured from just before the launch."""
    args = [str(BENCH_DIR / "worker.py"), "--workload", workload, "--seed", str(seed)]
    started = time.perf_counter()
    proc = _python(args + (["--trace"] if trace else []), budget)
    sys.stderr.write(proc.stderr)  # tracebacks of experiments that raised
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} worker exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    record["setup_s"] = record["setup_done"] - started
    return record


def import_breakdown(budget: Budget) -> dict[str, float]:
    """``import.*`` seconds of one ``-X importtime`` probe, by top-level package."""
    proc = _python(["-X", "importtime", "-c", "import repro.experiments"], budget)
    if proc.returncode != 0:
        raise BenchmarkError(f"importing repro.experiments failed:\n{proc.stderr[-2000:]}")
    totals: defaultdict[str, float] = defaultdict(float)
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the column header
        package = fields[2].strip().split(".")[0]
        key = package if package in ("repro", "numpy", "scipy", "networkx") else "other"
        totals[f"import.{key}_s"] += int(fields[0]) / 1e6
    breakdown = {f"import.{key}_s": totals[f"import.{key}_s"]
                 for key in ("repro", "numpy", "scipy", "networkx", "other")}
    breakdown["import.total_s"] = sum(breakdown.values())
    return breakdown


def warm_up(budget: Budget) -> None:
    """One untimed import, so bytecode caches and the page cache are as a user has them."""
    if _python(["-c", "import repro.experiments"], budget).returncode != 0:
        raise BenchmarkError("importing repro.experiments failed")


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}


def check_outputs(workload: str, seed: int, records: list[dict]) -> tuple[int, list[str]]:
    """(experiment runs attempted, one line per failed run) over ``records``."""
    expected = dict(load_references().get(workload, {}).get(str(seed), {}))
    attempted, failures = 0, []
    for index, record in enumerate(records):
        for name in WORKLOADS[workload][0]:
            attempted += 1
            entry = record["experiments"].get(name, {"error": "did not run"})
            if entry.get("error"):
                failures.append(f"{name} (repetition {index}): {entry['error']}")
                continue
            reference = expected.setdefault(name, entry["digest"])
            if entry["digest"] != reference:
                failures.append(f"{name} (repetition {index}): summary digest "
                                f"{entry['digest'][:12]} != reference {reference[:12]}")
    return attempted, failures


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.4g}, q3 {q3:.4g}"


def _repeat(one, minimum: int, seconds: float) -> list:
    """Call ``one()`` while less than ``seconds`` have passed, at least ``minimum`` times."""
    results, start = [], time.perf_counter()
    while len(results) < minimum or time.perf_counter() - start < seconds:
        results.append(one())
    return results


def measure(workload: str, seed: int, seconds: float, budget: Budget) -> dict:
    """Untraced run: the end-to-end metrics."""
    warm_up(budget)
    records = _repeat(lambda: run_worker(workload, seed, False, budget), MIN_REPS, seconds)
    attempted, failures = check_outputs(workload, seed, records)
    samples = {name: [record[name] for record in records] for name in END_TO_END}
    print(f"{workload}: seed {seed}, {len(records)} cold processes, "
          f"{attempted} experiment runs (medians)")
    for name, values in samples.items():
        print(f"  {name:<12} {statistics.median(values):10.4f} {END_TO_END[name][0]:<3} "
              f"({_spread(values)})")
    print(f"  {'failed_frac':<12} {len(failures) / attempted:10.4f}     "
          f"({len(failures)} of {attempted} runs)")
    for line in failures:
        print(f"  FAILED {line}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": statistics.median(values), "unit": END_TO_END[name][0]}
            for name, values in samples.items()
        },
    }


def trace(workload: str, seed: int, seconds: float, budget: Budget) -> dict:
    """Traced run: the per-layer metrics, with the trace's own integrity checks."""
    warm_up(budget)
    probes = [import_breakdown(budget) for _ in range(IMPORT_PROBES)]

    pairs = _repeat(
        lambda: (run_worker(workload, seed, False, budget), run_worker(workload, seed, True, budget)),
        MIN_PAIRS, seconds,
    )
    plain = [untraced for untraced, _ in pairs]
    traced = [traced for _, traced in pairs]
    attempted, failures = check_outputs(workload, seed, plain + traced)

    layer_samples = defaultdict(list)
    for record in traced:
        for name, value in record["layers"].items():
            layer_samples[name].append(value)
    for probe in probes:
        for name, value in probe.items():
            layer_samples[name].append(value)
    for name in EXPERIMENTS:
        layer_samples[f"experiments.{name}.run_s"] = [
            record["experiments"].get(name, {}).get("run_s", 0.0) for record in plain
        ]
    overhead = (statistics.median(r["run_s"] for r in traced)
                - statistics.median(r["run_s"] for r in plain))
    layer_samples["trace.overhead_s"] = [overhead]
    problems = [f"count {name} differs between traced runs: {layer_samples[name]}"
                for name, (unit, *_) in PER_LAYER.items()
                if unit == "count" and len(set(layer_samples[name])) > 1]
    if any(t["experiments"][name].get("digest") != p["experiments"][name].get("digest")
           for p, t in pairs for name in WORKLOADS[workload][0]):
        problems.append("traced summaries differ from the untraced ones")

    setup = [record["setup_s"] for record in plain]
    imports = layer_samples["import.total_s"]
    print(f"{workload}: seed {seed}, {len(pairs)} untraced + {len(pairs)} traced cold "
          f"processes, {attempted} experiment runs (medians)")
    print(f"  setup_s {statistics.median(setup):.4f} s ({_spread(setup)}), of which "
          f"-X importtime sums to import.total_s {statistics.median(imports):.4f} s")
    metrics = {}
    for name, (unit, *_) in PER_LAYER.items():
        value = (statistics.median_low if unit == "count" else statistics.median)(layer_samples[name])
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<40} {value:12.6g} {unit}")
    print(f"  failed_frac {len(failures) / attempted:.4f} ({len(failures)} of {attempted} runs); "
          f"trace integrity: {'; '.join(problems) or 'ok'}")
    for line in failures:
        print(f"  FAILED {line}")
    return {"correct": not (failures or problems), "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def record_references(seeds: list[int]) -> None:
    """Run every workload once per seed and store its summary digests."""
    sys.path.insert(0, str(SOURCE))
    from repro.experiments.common import atomic_write_text

    references = load_references()
    for workload in WORKLOADS:
        for seed in seeds:
            record = run_worker(workload, seed, False, Budget(TIME_LIMIT_S))
            errors = {name: e["error"] for name, e in record["experiments"].items() if e["error"]}
            if errors:
                raise BenchmarkError(f"{workload} seed {seed} failed: {errors}")
            references.setdefault(workload, {})[str(seed)] = {
                name: entry["digest"] for name, entry in record["experiments"].items()
            }
            print(f"recorded {workload} seed {seed}")
    atomic_write_text(REFERENCES, json.dumps(references, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="added to every experiment's pinned seed (default: 0, the presets)")
    parser.add_argument("--seconds", type=float, default=manifest()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--manifest", action="store_true", help="print BENCHMARK.json and exit")
    parser.add_argument("--record", type=int, nargs="*", metavar="SEED",
                        help="record summary references for these seeds (default: "
                             "0-10 and the held-out seed) and exit")
    args = parser.parse_args(argv)
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SOURCE}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        if args.record is not None:
            record_references(args.record or list(RECORDED_SEEDS))
            return 0
        run = trace if args.trace else measure
        workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {w: run(w, args.seed, args.seconds, Budget(TIME_LIMIT_S)) for w in workloads}
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": metric for w, r in results.items()
                        for name, metric in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
