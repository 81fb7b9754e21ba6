"""Program process for the ``table4`` and ``matrix`` workloads.

``python perfbench/host.py <inputs.json> <result.json>`` imports the
fleet, opens a result cache under a fresh root, runs the warm-up sweep
and prints ``ready`` — the end of set-up. Unless the inputs say
``setup_only``, it then runs every measured sweep back to back through
``FleetRunner`` (checkpoint directory + result cache, as a user would)
and writes one record per sweep to ``result.json``.

With ``trace_dir`` set in the inputs the same sweeps run with layer
spans recorded (:mod:`spans`).

The pool that ``FleetRunner(workers=2)`` starts forks this process, so
everything that must not run in a worker sits under the ``__main__``
guard.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

#: Environment the program must not see: each would change which layers
#: a workload exercises (full-horizon runs, or a cache off or elsewhere).
FORBIDDEN_ENV_PREFIXES = ("REPRO_FULL_HORIZON", "REPRO_RESULT_CACHE")


def forbidden_env(environ: dict) -> list[str]:
    return sorted(k for k in environ if k.startswith(FORBIDDEN_ENV_PREFIXES))


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_sweep(spec: dict, workers: int, out_dir: Path, cache) -> dict:
    """Plan and run one sweep; returns its record for the parent."""
    from repro.fleet import FleetRunner, plan_from_spec

    first: list[float] = []

    def on_shard(_shard_id: int, _result: dict) -> None:
        if not first:
            first.append(time.perf_counter())

    cpu0 = children_cpu()
    started = time.perf_counter()
    plan = plan_from_spec(spec)
    report = FleetRunner(plan, workers=workers, out_dir=str(out_dir),
                         cache=cache, on_shard=on_shard).run()
    ended = time.perf_counter()
    aggregate = out_dir / "aggregate.json"
    return {
        "fingerprint": plan.fingerprint(),
        "tasks": len(plan.tasks),
        "records": len(report.records),
        "wall_s": ended - started,
        "first_result_s": (first[0] if first else ended) - started,
        "started": started,
        "failed_shards": sorted(report.failed_shards),
        "cache_hits": report.cache_hits,
        "cache_misses": report.cache_misses,
        # Pool workers are reaped inside the sweep, so their CPU time
        # shows up here only when the sweep really left this process.
        "child_cpu_s": children_cpu() - cpu0,
        "digest": file_digest(aggregate) if aggregate.exists() else None,
        "out_dir": str(out_dir),
    }


def main(inputs_path: str, result_path: str) -> int:
    inputs = json.loads(Path(inputs_path).read_text())
    leaked = forbidden_env(os.environ)
    if leaked:
        raise SystemExit(f"host: program environment carries {leaked}")
    work = Path(inputs["work_dir"])
    cache_root = work / "cache"
    if cache_root.exists() and any(cache_root.iterdir()):
        raise SystemExit(f"host: cache root {cache_root} is not empty")

    recorder = None
    if inputs.get("trace_dir"):
        import spans

        recorder = spans.install(inputs["trace_dir"])
    from repro.fleet import ResultCache

    cache = ResultCache(cache_root)
    workers = inputs["workers"]
    for index, spec in enumerate(inputs["warmup"]):
        run_sweep(spec, workers, work / f"warmup-{index}", cache)
    print("ready", flush=True)
    if inputs.get("setup_only"):
        return 0

    if recorder is not None:
        recorder.clear()  # the ledger covers the measured sweeps only
    sweeps = []
    for index, spec in enumerate(inputs["sweeps"]):
        if recorder is not None:
            recorder.context = f"sweep-{index}"
        sweeps.append(run_sweep(spec, workers, work / f"sweep-{index}", cache))
    if recorder is not None:
        recorder.context = None
        recorder.flush()

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "sweeps": sweeps,
        # Runner peak plus one peak per pool worker slot (the largest
        # reaped worker stands for each slot; 0 when nothing forked).
        "peak_rss_kb": self_kb + (workers * child_kb if workers > 1 else 0),
        "pid": os.getpid(),
    }
    Path(result_path).write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
