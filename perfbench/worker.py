"""One cold run of a benchmark workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload NAME --seed N [--trace]

Imports ``repro.experiments`` (which loads the registry), builds each
experiment's ``full`` config with the workload seed added to its pinned
seed, then runs the experiments one after another in this process, as
``python -m repro.experiments run NAMES --preset full --no-save`` does.
With ``--trace`` the layer entry points of ``layers.py`` are wrapped
for the run and restored afterwards.

Prints one JSON line: the clock reading when set-up finished (the
parent started its clock just before launching this process, and both
read the system-wide monotonic clock), ``run_s``, peak resident memory,
and per experiment its run time and the SHA-256 digest of its summary.
An experiment that raises is reported with its error and the run goes
on with the next one.
"""

from __future__ import annotations

import argparse
import json
import time

from repro.experiments import registry
from workloads import WORKLOADS


def summary_digest(summary: dict) -> str:
    """SHA-256 of the summary scalars in a canonical, exact text form."""
    import hashlib

    text = json.dumps(summary, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def summary_problem(spec: registry.ExperimentSpec, summary: dict) -> str | None:
    """Why a summary is malformed (``None`` when it is well formed)."""
    if not summary:
        return "empty summary"
    for key, value in summary.items():
        if not spec.documents_summary_key(key):
            return f"undocumented summary key {key!r}"
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return f"summary key {key!r} is not a number: {value!r}"
    return None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    jobs = []
    for name in WORKLOADS[args.workload][0]:
        spec = registry.get(name)
        pinned = spec.make_config("full").seed
        jobs.append((spec, spec.make_config("full", {"seed": pinned + args.seed})))
    setup_done = time.perf_counter()

    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()
        caches_before = layers.cache_totals()

    experiments = {}
    start = time.perf_counter()
    for spec, config in jobs:
        began = time.perf_counter()
        try:
            result = spec.run(config)
        except Exception as exc:  # reported as a failed run; the workload goes on
            import traceback

            traceback.print_exc()
            experiments[spec.name] = {"run_s": time.perf_counter() - began, "error": repr(exc)}
            continue
        experiments[spec.name] = {
            "run_s": time.perf_counter() - began,
            "digest": summary_digest(result.summary),
            "error": summary_problem(spec, result.summary),
        }
    run_s = time.perf_counter() - start

    import resource

    record = {
        "setup_done": setup_done,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "experiments": experiments,
    }
    if tracer is not None:
        tracer.restore()
        layer = tracer.report(run_s)
        for prefix, (hits, misses) in layers.cache_totals().items():
            hits -= caches_before[prefix][0]
            lookups = hits + misses - sum(caches_before[prefix])
            layer[f"{prefix}.lookups"] = lookups
            layer[f"{prefix}.hit_ratio"] = hits / lookups if lookups else 0.0
        record["layers"] = layer
    print(json.dumps(record))


if __name__ == "__main__":
    main()
