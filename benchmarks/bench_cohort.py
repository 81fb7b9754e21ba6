"""Cohort throughput benchmark → ``BENCH_cohort.json``.

Measures sweep throughput (UEs/s) through the production fleet path —
``execute_plan`` with a durable per-shard checkpoint — as a function of
``cohort_size``: how many UEs share one simulator instance per
schedulable unit. At cohort size 1 every UE is its own shard (one
dispatch + one checkpoint write + one infra stack per UE); at larger
sizes the cohort IS the shard, so the per-unit overhead amortises over
its members while the per-UE simulation work stays byte-identical
(the parity invariant pinned by ``tests/test_cohort.py``).

Also records the harness-level per-UE marginal cost: wall seconds per
UE inside a single :class:`repro.testbed.harness.Cohort` run next to a
one-UE ``run_one`` (a one-member cohort), isolating what infra sharing
alone buys from what scheduling-unit amortisation buys.

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_cohort.py           # full
    PYTHONPATH=src python benchmarks/bench_cohort.py --quick   # CI smoke

Regression gate (CI perf-smoke job)::

    PYTHONPATH=src python benchmarks/bench_cohort.py --quick \
        --check BENCH_cohort.json --tolerance 0.30
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.fleet.checkpoint import Checkpoint  # noqa: E402
from repro.fleet.planner import plan_matrix  # noqa: E402
from repro.fleet.pool import execute_plan  # noqa: E402
from repro.simkernel.rng import derive_seed  # noqa: E402
from repro.testbed.harness import (  # noqa: E402
    Cohort,
    CohortMember,
    HandlingMode,
    run_one,
)
from repro.testbed.scenarios import scenario_by_name  # noqa: E402

BENCH_PATH = REPO_ROOT / "BENCH_cohort.json"

#: One quick-recovering SEED scenario: per-UE simulation work is small,
#: so per-scheduling-unit overhead — the thing cohorts amortise — is a
#: visible fraction of the total, as it is for any quiescent sweep.
SCENARIO = "dp_transient"
MASTER_SEED = 1234
COHORT_SIZES = (1, 8, 64, 512)


def fleet_ues_per_s(total_ues: int, cohort_size: int) -> float:
    """Sweep ``total_ues`` replicas through the checkpointed fleet path."""
    plan = plan_matrix(
        [SCENARIO], modes=[HandlingMode.SEED_R], replicas=total_ues,
        master_seed=MASTER_SEED, cohort_size=cohort_size,
        # Cohort size 1 means one UE per schedulable unit; for larger
        # sizes shard packing follows the cohort (one cohort per shard).
        shard_size=1,
    )
    with tempfile.TemporaryDirectory() as scratch:
        started = time.perf_counter()
        outcome = execute_plan(plan, workers=1,
                               checkpoint=Checkpoint(Path(scratch)))
        seconds = time.perf_counter() - started
    if outcome.failed or len(outcome.results) != len(plan.shards):
        raise RuntimeError(f"bench sweep failed: {sorted(outcome.failed)}")
    return total_ues / seconds


def bench_fleet(quick: bool) -> dict:
    """UEs/s through the fleet path at each cohort size."""
    sizes = [s for s in COHORT_SIZES if not quick or s <= 64]
    total = 128 if quick else 512
    metrics = {}
    fleet_ues_per_s(8, 8)  # warm code paths and caches once
    for size in sizes:
        rate = fleet_ues_per_s(max(total, size), size)
        metrics[f"fleet_cohort_{size}"] = {
            "n": max(total, size), "cohort_size": size,
            "rate": round(rate, 2), "unit": "ues/s",
        }
        print(f"{'fleet_cohort_' + str(size):>20}: {rate:>14,.0f} ues/s")
    base = metrics[f"fleet_cohort_{sizes[0]}"]["rate"]
    for size in sizes:
        entry = metrics[f"fleet_cohort_{size}"]
        entry["speedup_vs_cohort_1"] = round(entry["rate"] / base, 3)
    return metrics


def bench_harness_marginal(quick: bool) -> dict:
    """Per-UE wall cost: one-UE runs vs one shared cohort."""
    n = 32 if quick else 64
    scenario = scenario_by_name(SCENARIO)
    started = time.perf_counter()
    for index in range(n):
        run_one(scenario, HandlingMode.SEED_R,
                derive_seed(MASTER_SEED, index))
    single = (time.perf_counter() - started) / n
    members = [
        CohortMember(scenario=scenario, handling=HandlingMode.SEED_R,
                     seed=derive_seed(MASTER_SEED, index))
        for index in range(n)
    ]
    outcome = Cohort(members, seed=MASTER_SEED).run()
    marginal = outcome.per_ue_wall_s
    metrics = {
        "single_run_per_ue": {"n": n, "rate": round(1.0 / single, 2),
                              "unit": "ues/s",
                              "ms_per_ue": round(single * 1e3, 3)},
        f"cohort_{n}_per_ue": {"n": n, "rate": round(1.0 / marginal, 2),
                               "unit": "ues/s",
                               "ms_per_ue": round(marginal * 1e3, 3)},
    }
    for name, entry in metrics.items():
        print(f"{name:>20}: {entry['rate']:>14,.0f} ues/s "
              f"({entry['ms_per_ue']} ms/UE)")
    return metrics


def run_benches(quick: bool) -> dict:
    metrics = bench_fleet(quick)
    metrics.update(bench_harness_marginal(quick))
    return {"quick": quick, "metrics": metrics}


def check_regression(report: dict, baseline_path: Path, tolerance: float) -> int:
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name, measured in report["metrics"].items():
        base = baseline.get("metrics", {}).get(name)
        if base is None or not base.get("rate"):
            continue
        ratio = measured["rate"] / base["rate"]
        status = "ok" if ratio >= 1.0 - tolerance else "REGRESSED"
        print(f"{name:>20}: {ratio:6.2f}x baseline  [{status}]")
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
                        help="reduced sweep sizes (CI smoke)")
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
