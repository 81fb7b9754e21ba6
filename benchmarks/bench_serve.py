"""Serve-path latency: cold-start vs warm-pool sweeps → ``BENCH_serve.json``.

Measures what the resident daemon's warm :class:`WorkerPool` buys on
the Table 4 smoke suite:

* ``cold_sweep`` — every sweep builds, uses, and tears down its own
  spawn pool (the pre-serve steady state: one ``python -m repro.fleet``
  invocation per sweep);
* ``warm_sweep`` — sweeps share one primed pool, the daemon's steady
  state (the priming sweep, which pays the one-off spawn + testbed
  preload, is reported separately as ``warm_prime`` and not rated);
* ``warm_vs_cold_speedup`` — the headline multiple (acceptance gate:
  >= 2x on this smoke suite);
* ``submit_first_shard`` — submit→first-shard-landed latency through a
  :class:`repro.serve.jobs.JobQueue` on the warm pool, expressed as a
  rate (1/latency) so the regression check gates it like every other
  metric.

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_serve.py           # full
    PYTHONPATH=src python benchmarks/bench_serve.py --quick   # CI smoke

Regression gate (CI perf-smoke job)::

    PYTHONPATH=src python benchmarks/bench_serve.py --quick \
        --check BENCH_serve.json --tolerance 0.30

Every pass asserts cold and warm aggregates stay byte-identical —
warmth must never buy back determinism.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments import table4  # noqa: E402
from repro.fleet import FleetRunner, WorkerPool, canonical_json  # noqa: E402
from repro.serve.jobs import JobQueue, JobState  # noqa: E402
from repro.serve.store import RunRegistry  # noqa: E402

BENCH_PATH = REPO_ROOT / "BENCH_serve.json"
POOL_WORKERS = 2

# Quick and full mode run the SAME suite — rates must stay comparable
# to the committed baseline regardless of which mode wrote it (the
# spawn cost is per sweep, so a smaller suite would deflate the cold
# rate, not just add noise). Quick only trims repetition counts.
SUITE_RUNS = 8


def _timed_sweep(plan, pool) -> tuple[float, dict]:
    # executor="pool" pins the pool path: auto would run this suite
    # inline and never spawn the pool this bench measures.
    started = time.perf_counter()
    report = FleetRunner(plan, pool=pool, executor="pool").run()
    seconds = time.perf_counter() - started
    if not report.complete:
        raise RuntimeError(f"failed shards: {sorted(report.failed_shards)}")
    return seconds, report.aggregate


def _rate(tasks: int, sweeps: int, seconds: float) -> dict:
    return {
        "n": tasks * sweeps,
        "tasks": tasks,
        "sweeps": sweeps,
        "seconds": round(seconds, 4),
        "rate": round(tasks * sweeps / seconds, 2),
        "unit": "scenarios/s",
        "workers": POOL_WORKERS,
    }


def _bench_cold(plan, sweeps: int) -> tuple[dict, str]:
    """Each sweep pays pool spin-up + teardown (spawn + preload)."""
    seconds, blob = 0.0, None
    for _ in range(sweeps):
        with WorkerPool(POOL_WORKERS) as pool:
            took, aggregate = _timed_sweep(plan, pool)
        seconds += took
        blob = canonical_json(aggregate)
    tasks = len(plan.tasks)
    return _rate(tasks, sweeps, seconds), blob


def _bench_warm(plan, sweeps: int) -> tuple[dict, dict, str]:
    """One shared pool: the first sweep primes it, the rest ride warm."""
    with WorkerPool(POOL_WORKERS) as pool:
        prime_seconds, _ = _timed_sweep(plan, pool)
        seconds, blob = 0.0, None
        for _ in range(sweeps):
            took, aggregate = _timed_sweep(plan, pool)
            seconds += took
            blob = canonical_json(aggregate)
        if pool.executors_spawned != 1:
            raise RuntimeError(
                f"warm pool respawned: {pool.executors_spawned} executors")
    tasks = len(plan.tasks)
    prime = {"seconds": round(prime_seconds, 4),
             "unit": "s (spawn + preload + sweep)"}
    return _rate(tasks, sweeps, seconds), prime, blob


def _bench_submit_first_shard(spec: dict) -> dict:
    """Submit→first-shard latency through the job queue on a warm pool."""
    with tempfile.TemporaryDirectory(prefix="bench-serve-") as root:
        root = Path(root)
        with WorkerPool(POOL_WORKERS) as pool:
            queue = JobQueue(pool, RunRegistry(root / "registry"),
                             root / "jobs", executor="pool")
            queue.start()
            try:
                # prime job spins the pool; the measured job rides warm
                for name in ("prime", "measured"):
                    job = queue.submit(spec)
                    while not job.state.terminal:
                        job.wait(job.version, timeout=1.0)
                    if job.state is not JobState.DONE:
                        raise RuntimeError(f"{name} job: {job.error}")
            finally:
                queue.stop()
    latency = job.timings["submit_to_first_shard_s"]
    return {
        "seconds": latency,
        "rate": round(1.0 / latency, 2) if latency > 0 else 0.0,
        "unit": "first-shards/s (1/latency, warm pool)",
        "workers": POOL_WORKERS,
    }


def run_benches(quick: bool) -> dict:
    cold_sweeps = 2 if quick else 3
    warm_sweeps = 3 if quick else 6
    plan = table4.fleet_plan(runs=SUITE_RUNS, seed=4000, shard_size=2)
    spec = {"kind": "suite", "suite": "table4", "runs": SUITE_RUNS,
            "seed": 4000, "shard_size": 2}

    metrics = {}
    metrics["cold_sweep"], cold_blob = _bench_cold(plan, cold_sweeps)
    metrics["warm_sweep"], metrics["warm_prime"], warm_blob = _bench_warm(
        plan, warm_sweeps)
    if cold_blob != warm_blob:
        raise RuntimeError("warm pool changed the aggregate bytes")
    speedup = round(
        metrics["warm_sweep"]["rate"] / metrics["cold_sweep"]["rate"], 2)
    metrics["warm_vs_cold_speedup"] = {"rate": speedup, "unit": "x cold"}
    metrics["submit_first_shard"] = _bench_submit_first_shard(spec)

    for name in ("cold_sweep", "warm_sweep", "submit_first_shard"):
        print(f"{name:>22}: {metrics[name]['rate']:>10,.1f} {metrics[name]['unit']}")
    print(f"{'warm_prime':>22}: {metrics['warm_prime']['seconds']:>10,.3f} s")
    print(f"{'warm_vs_cold_speedup':>22}: {speedup:>10,.2f}x cold")
    return {"quick": quick, "suite": "table4", "runs": SUITE_RUNS,
            "cpu_count": os.cpu_count(), "metrics": metrics}


def check_regression(report: dict, baseline_path: Path, tolerance: float) -> int:
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name, measured in report["metrics"].items():
        base = baseline.get("metrics", {}).get(name)
        if base is None or not base.get("rate"):
            continue
        ratio = measured["rate"] / base["rate"]
        status = "ok" if ratio >= 1.0 - tolerance else "REGRESSED"
        print(f"{name:>22}: {ratio:6.2f}x baseline  [{status}]")
        if ratio < 1.0 - tolerance:
            failures.append((name, ratio))
    if failures:
        print(f"\nperf regression: {len(failures)} metric(s) below "
              f"{1.0 - tolerance:.0%} of baseline: "
              + ", ".join(f"{n} ({r:.2f}x)" for n, r in failures))
        return 1
    print("\nperf smoke ok: no metric regressed beyond tolerance")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced sweep counts (CI smoke)")
    parser.add_argument("--check", metavar="BASELINE", default=None,
                        help="compare against a baseline JSON instead of "
                             "overwriting it; exit 1 on regression")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional slowdown vs baseline "
                             "(default 0.30)")
    parser.add_argument("--out", default=str(BENCH_PATH),
                        help="output path for the measured rates")
    args = parser.parse_args(argv)

    report = run_benches(quick=args.quick)
    if args.check is not None:
        return check_regression(report, Path(args.check), args.tolerance)
    Path(args.out).write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
