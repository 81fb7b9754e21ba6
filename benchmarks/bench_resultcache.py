"""Result-cache payoff: cold populate vs warm resubmit →
``BENCH_resultcache.json``.

Measures what the content-addressed result cache buys:

* ``cold_sweep`` — tasks/s of a real Table 4 sweep that also writes
  every record back to a fresh cache (the populate cost is in-band:
  cold-with-cache is the honest baseline);
* ``warm_sweep`` — tasks/s of the identical resubmit, where every task
  is served from the cache and nothing simulates;
* ``warm_speedup`` — the headline multiple (acceptance gate: a fully
  warm resubmit must be >= 20x faster than the cold run);
* ``key_derivation`` — cache keys/s (sha256 over the canonical key
  material; pure CPU, no I/O);
* ``store`` / ``lookup`` — single-entry write-back and hit rates
  through the frame codec (encode + one fsync-free append to the
  writer's log, and read + verify + decode respectively).

The sweep benches also assert byte parity: the warm aggregate must be
byte-identical to the cold one (which the unit suite pins against the
uncached runner too).

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_resultcache.py           # full
    PYTHONPATH=src python benchmarks/bench_resultcache.py --quick   # CI smoke

Regression gate (CI perf-smoke job)::

    PYTHONPATH=src python benchmarks/bench_resultcache.py --quick \
        --check BENCH_resultcache.json --tolerance 0.30
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
from repro.fleet import FleetRunner  # noqa: E402
from repro.fleet.planner import TaskSpec  # noqa: E402
from repro.fleet.resultcache import ResultCache, task_key  # noqa: E402

BENCH_PATH = REPO_ROOT / "BENCH_resultcache.json"

#: Sweep workload: the Table 4 smoke plan (real simulation).
SUITE_RUNS = 8

#: A representative record for the store/lookup microbenches.
MICRO_TASK = TaskSpec(task_id=0, scenario="cp_timeout_transient",
                      handling="seed_r", seed=11)
MICRO_RECORD = {"task_id": 0, "scenario": "cp_timeout_transient",
                "handling": "seed_r", "seed": 11, "disruption_ms": 812.5,
                "recovered": True, "timed": True, "notified_user": False,
                "handled": True, "elided_events": 42}
MICRO_LEARNING = {"net_record": {"7": {"B3_DPLANE_RESET": 3}},
                  "ue_record": {"7": {"B1_MODEM_RESET": 1}}}


def _sweep(plan, out_dir, cache):
    started = time.perf_counter()
    report = FleetRunner(plan, workers=1, out_dir=str(out_dir),
                         cache=cache).run()
    wall = time.perf_counter() - started
    if not report.complete:
        raise RuntimeError(f"sweep failed: {report.failed_shards}")
    return report, wall


def _bench_sweeps(root: Path) -> tuple[dict, dict, dict]:
    plan = table4.fleet_plan(runs=SUITE_RUNS, seed=4000, shard_size=2)
    tasks = sum(len(shard.tasks) for shard in plan.shards)
    cache = ResultCache(root / "cache")

    cold_report, cold_wall = _sweep(plan, root / "cold", cache)
    cold_blob = (root / "cold" / "aggregate.json").read_bytes()

    # Best of three warm resubmits: the warm wall is millisecond-scale,
    # so one scheduler hiccup would otherwise swing the headline.
    warm_wall = None
    for attempt in range(3):
        out = root / f"warm{attempt}"
        warm_report, wall = _sweep(plan, out, cache)
        assert (out / "aggregate.json").read_bytes() == cold_blob, (
            "warm aggregate diverged from cold")
        assert (warm_report.cache_hits == tasks
                and warm_report.cache_misses == 0), (
            f"warm run not fully cached: {warm_report.cache_hits} hits / "
            f"{warm_report.cache_misses} misses of {tasks}")
        warm_wall = wall if warm_wall is None else min(warm_wall, wall)
    speedup = cold_wall / warm_wall

    cold = {"n": tasks, "seconds": round(cold_wall, 4),
            "rate": round(tasks / cold_wall, 2),
            "unit": "tasks/s (simulate + cache write-back)"}
    warm = {"n": tasks, "seconds": round(warm_wall, 4),
            "rate": round(tasks / warm_wall, 2),
            "unit": "tasks/s (all hits, no simulation)"}
    headline = {"rate": round(speedup, 2),
                "unit": "x cold sweep wall over warm resubmit wall",
                "cold_wall_s": round(cold_wall, 4),
                "warm_wall_s": round(warm_wall, 4)}

    # Acceptance gate: the warm resubmit must be at least 20x faster.
    assert speedup >= 20.0, (
        f"warm resubmit only {speedup:.1f}x faster "
        f"(cold {cold_wall:.3f}s, warm {warm_wall:.3f}s)")
    return cold, warm, headline


def _bench_keys(iterations: int) -> dict:
    started = time.perf_counter()
    for index in range(iterations):
        task_key(TaskSpec(task_id=index, scenario="cp_timeout_transient",
                          handling="seed_r", seed=index), "0123456789abcdef")
    seconds = time.perf_counter() - started
    return {"n": iterations, "seconds": round(seconds, 4),
            "rate": round(iterations / seconds, 2),
            "unit": "keys/s (canonical JSON + sha256)"}


def _bench_store_lookup(root: Path, iterations: int) -> tuple[dict, dict]:
    cache = ResultCache(root / "micro", code_version="bench")
    tasks = [TaskSpec(task_id=i, scenario=MICRO_TASK.scenario,
                      handling=MICRO_TASK.handling, seed=i)
             for i in range(iterations)]

    started = time.perf_counter()
    for task in tasks:
        if not cache.store(task, MICRO_RECORD, MICRO_LEARNING):
            raise RuntimeError("cache store failed")
    store_seconds = time.perf_counter() - started

    started = time.perf_counter()
    for task in tasks:
        if cache.lookup(task) is None:
            raise RuntimeError("cache lookup missed a stored entry")
    lookup_seconds = time.perf_counter() - started

    return (
        {"n": iterations, "seconds": round(store_seconds, 4),
         "rate": round(iterations / store_seconds, 2),
         "unit": "entries/s (encode + append)"},
        {"n": iterations, "seconds": round(lookup_seconds, 4),
         "rate": round(iterations / lookup_seconds, 2),
         "unit": "entries/s (read + verify + decode)"},
    )


def run_benches(quick: bool) -> dict:
    iterations = 500 if quick else 5000
    metrics = {}
    with tempfile.TemporaryDirectory(prefix="bench-resultcache-") as tmp:
        root = Path(tmp)
        (metrics["cold_sweep"], metrics["warm_sweep"],
         metrics["warm_speedup"]) = _bench_sweeps(root)
        metrics["key_derivation"] = _bench_keys(iterations)
        metrics["store"], metrics["lookup"] = _bench_store_lookup(
            root, iterations)

    for name, values in metrics.items():
        print(f"{name:>28}: {values['rate']:>12,.1f} {values['unit']}")
    return {"quick": quick, "suite": "table4", "runs": SUITE_RUNS,
            "iterations": iterations, "cpu_count": os.cpu_count(),
            "metrics": metrics}


def check_regression(report: dict, baseline_path: Path, tolerance: float) -> int:
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name, measured in report["metrics"].items():
        base = baseline.get("metrics", {}).get(name)
        if base is None or not base.get("rate"):
            continue
        ratio = measured["rate"] / base["rate"]
        status = "ok" if ratio >= 1.0 - tolerance else "REGRESSED"
        print(f"{name:>28}: {ratio:6.2f}x baseline  [{status}]")
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
                        help="reduced iteration counts (CI smoke)")
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
