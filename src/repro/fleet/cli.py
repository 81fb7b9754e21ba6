"""``python -m repro.fleet`` — run scenario sweeps from the shell.

Two planning styles:

* generic matrix — ``--scenario`` glob filters × ``--modes`` ×
  ``--replicas``, seeds derived from the task coordinates;
* paper suites — ``--suite table4`` / ``--suite coverage`` replay the
  benchmark suites shard-by-shard (``--runs`` controls their size).

Example::

    python -m repro.fleet --scenario 'dp_*' --modes legacy,seed_r \
        --replicas 25 --workers 4 --seed 42 --out runs/dp-sweep
    python -m repro.fleet --suite table4 --runs 30 --seed 4000 \
        --workers 4 --out runs/table4
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.tables import format_table
from repro.fleet.checkpoint import CheckpointMismatch
from repro.fleet.planner import FleetPlan, plan_from_spec
from repro.fleet.pool import INLINE_TASKS
from repro.fleet.resultcache import resolve_cache
from repro.fleet.runner import FleetRunner
from repro.testbed.harness import HandlingMode


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Sharded multi-process scenario sweeps over the SEED testbed.",
    )
    parser.add_argument("--scenario", action="append", metavar="GLOB",
                        help="scenario name filter (repeatable; default: all)")
    parser.add_argument("--modes", default="legacy,seed_u,seed_r",
                        help="comma-separated handling modes (default: all three)")
    parser.add_argument("--replicas", type=int, default=5,
                        help="independent seeds per (scenario, mode) (default: 5)")
    parser.add_argument("--suite", choices=("table4", "coverage"),
                        help="replay a paper suite instead of a scenario matrix")
    parser.add_argument("--runs", type=int, default=30,
                        help="suite size when --suite is used (default: 30)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes; 1 runs inline (default: 1)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed (default: 0)")
    parser.add_argument("--shard-size", type=int, default=4,
                        help="tasks per shard (default: 4)")
    parser.add_argument("--cohort-size", type=int, default=1,
                        help="tasks per cohort shard; >1 packs the "
                             "plan into shards of this many tasks, each "
                             "run alone on its own one-UE simulator "
                             "(matrix sweeps only; default: 1)")
    parser.add_argument("--executor", choices=("auto", "pool", "inline"),
                        default="auto",
                        help="dispatch mode: auto runs a sweep inline at "
                             "one worker or when fewer than "
                             f"{INLINE_TASKS} of its tasks are left to run, "
                             "else on a process pool; results are identical "
                             "either way (default: auto)")
    parser.add_argument("--retries", type=int, default=2,
                        help="extra attempts per failed shard (default: 2)")
    parser.add_argument("--out", metavar="DIR",
                        help="run directory (manifest, shard checkpoint, "
                             "aggregate); completed shards are skipped on re-run")
    parser.add_argument("--cache", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="content-addressed result cache: serve "
                             "previously computed tasks instead of "
                             "re-simulating them (default: on; env "
                             "REPRO_RESULT_CACHE=off disables)")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="result-cache directory (default: "
                             ".repro-cache/results, or the "
                             "REPRO_RESULT_CACHE path)")
    return parser


def _parse_modes(spec: str) -> list[HandlingMode]:
    modes = []
    for name in spec.split(","):
        name = name.strip()
        if not name:
            continue
        try:
            modes.append(HandlingMode(name))
        except ValueError:
            valid = ", ".join(m.value for m in HandlingMode)
            raise SystemExit(f"unknown handling mode {name!r} (valid: {valid})")
    if not modes:
        raise SystemExit("no handling modes given")
    return modes


def spec_from_args(args: argparse.Namespace) -> dict:
    """The sweep spec these CLI flags describe (the serve wire format).

    Shared with ``python -m repro.serve submit``, which accepts the
    same flags: one spec → one plan → one aggregate, whichever surface
    ran it.
    """
    if args.suite:
        if getattr(args, "cohort_size", 1) != 1:
            raise SystemExit("--cohort-size is only supported for matrix sweeps")
        return {"kind": "suite", "suite": args.suite, "runs": args.runs,
                "seed": args.seed, "shard_size": args.shard_size}
    spec = {"kind": "matrix", "scenarios": args.scenario,
            "modes": [m.value for m in _parse_modes(args.modes)],
            "replicas": args.replicas, "seed": args.seed,
            "shard_size": args.shard_size}
    if getattr(args, "cohort_size", 1) != 1:
        spec["cohort_size"] = args.cohort_size
    return spec


def _build_plan(args: argparse.Namespace) -> FleetPlan:
    return plan_from_spec(spec_from_args(args))


def _render_report(report) -> str:
    rows = []
    for key in sorted(report.aggregate["cells"]):
        cell = report.aggregate["cells"][key]
        rows.append([
            key,
            str(cell["samples"]),
            f"{cell['median']:.2f}" if cell["median"] is not None else "-",
            f"{cell['p90']:.2f}" if cell["p90"] is not None else "-",
            f"{cell['coverage'] * 100:.1f}%",
        ])
    return format_table(
        ["Class/Handling", "n", "Median (s)", "90th (s)", "Coverage"],
        rows, title="Fleet sweep — disruption and coverage per cell",
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        plan = _build_plan(args)
    except ValueError as exc:          # e.g. a scenario glob matching nothing
        print(f"fleet: {exc}", file=sys.stderr)
        return 2
    print(f"fleet: {len(plan.tasks)} tasks in {len(plan.shards)} shards "
          f"(seed {plan.master_seed}, fingerprint {plan.fingerprint()}, "
          f"workers {args.workers})")

    cache = resolve_cache(args.cache, args.cache_dir)
    runner = FleetRunner(plan, workers=args.workers, retries=args.retries,
                         out_dir=args.out, executor=args.executor,
                         cache=cache)
    try:
        report = runner.run()
    except CheckpointMismatch as exc:
        print(f"fleet: {exc}", file=sys.stderr)
        return 2

    if report.skipped_shards:
        print(f"fleet: resumed — {report.skipped_shards} shards restored from "
              f"checkpoint, {report.executed_shards} executed")
    print(_render_report(report))
    print(f"fleet: {len(report.records)} runs in {report.wall_seconds:.1f}s "
          f"({report.scenarios_per_sec:.1f} scenarios/sec; "
          f"{report.elided_events} events elided; "
          f"{report.total_retries} shard retries)")
    if cache is not None:
        print(f"fleet: cache {report.cache_hits} hits, "
              f"{report.cache_misses} misses ({cache.root})")
    if report.shard_retries:
        detail = ", ".join(f"shard {sid}: {extra}"
                           for sid, extra in report.shard_retries.items())
        print(f"fleet: retried — {detail}")
    if args.out:
        print(f"fleet: aggregate written to {runner.checkpoint.aggregate_path}")
    if report.failed_shards:
        print(f"fleet: FAILED shards after retries: {sorted(report.failed_shards)}",
              file=sys.stderr)
        return 1
    return 0
