"""``python -m repro.serve`` — drive the resident fleet daemon.

Subcommands::

    start    run the daemon in the foreground (warm pool + HTTP API)
    submit   send a sweep spec (same flags as ``python -m repro.fleet``)
    watch    stream a job's progress until it finishes
    runs     list the registry (or show one recorded run)
    diff     deterministic diff of two recorded runs

Quickstart::

    python -m repro.serve start --root runs/serve --workers 4 &
    python -m repro.serve submit --suite table4 --runs 8 --seed 4000 --wait
    python -m repro.serve runs
    python -m repro.serve diff <fingerprint-a> <fingerprint-b>

``submit --wait`` prints the registry aggregate path on success, so
shell pipelines (and the CI smoke job) can ``cmp`` it against a batch
``python -m repro.fleet`` run of the same spec.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.fleet.cli import spec_from_args
from repro.fleet.pool import INLINE_TASKS
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import DEFAULT_PORT, ServeDaemon
from repro.serve.store import render_diff


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Resident fleet daemon: warm pool, job queue, run registry.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="daemon address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"daemon port (default: {DEFAULT_PORT})")
    sub = parser.add_subparsers(dest="command", required=True)

    start = sub.add_parser("start", help="run the daemon in the foreground")
    start.add_argument("--root", default="runs/serve",
                       help="service root: <root>/jobs + <root>/registry "
                            "(default: runs/serve)")
    start.add_argument("--workers", type=int, default=1,
                       help="warm pool size; 1 runs shards inline (default: 1)")
    start.add_argument("--retries", type=int, default=2,
                       help="extra attempts per failed shard (default: 2)")
    start.add_argument("--executor", choices=("auto", "pool", "inline"),
                       default="auto",
                       help="dispatch mode for served sweeps: auto runs a "
                            f"job with fewer than {INLINE_TASKS} tasks left "
                            "to run inline and larger ones on the warm pool "
                            "(default: auto)")
    start.add_argument("--cache", action=argparse.BooleanOptionalAction,
                       default=None,
                       help="content-addressed result cache shared by all "
                            "jobs (default: on; env REPRO_RESULT_CACHE=off "
                            "disables)")
    start.add_argument("--cache-dir", metavar="DIR",
                       help="result-cache directory (default: "
                            "<root>/resultcache)")

    submit = sub.add_parser(
        "submit", help="submit a sweep (fleet CLI flags)")
    submit.add_argument("--scenario", action="append", metavar="GLOB",
                        help="scenario name filter (repeatable; default: all)")
    submit.add_argument("--modes", default="legacy,seed_u,seed_r",
                        help="comma-separated handling modes (default: all three)")
    submit.add_argument("--replicas", type=int, default=5,
                        help="independent seeds per (scenario, mode) (default: 5)")
    submit.add_argument("--suite", choices=("table4", "coverage"),
                        help="replay a paper suite instead of a scenario matrix")
    submit.add_argument("--runs", type=int, default=30,
                        help="suite size when --suite is used (default: 30)")
    submit.add_argument("--seed", type=int, default=0,
                        help="master seed (default: 0)")
    submit.add_argument("--shard-size", type=int, default=4,
                        help="tasks per shard (default: 4)")
    submit.add_argument("--cohort-size", type=int, default=1,
                        help="UEs per simulator instance; >1 packs one "
                             "multi-UE cohort per shard (matrix sweeps "
                             "only; default: 1)")
    submit.add_argument("--wait", action="store_true",
                        help="watch the job and exit with its outcome")

    watch = sub.add_parser("watch", help="stream one job's progress")
    watch.add_argument("job_id")

    runs = sub.add_parser("runs", help="list the run registry")
    runs.add_argument("fingerprint", nargs="?",
                      help="show one recorded run in full")

    diff = sub.add_parser("diff", help="diff two recorded runs")
    diff.add_argument("fingerprint_a")
    diff.add_argument("fingerprint_b")

    return parser


def _cmd_start(args: argparse.Namespace) -> int:
    daemon = ServeDaemon(args.root, workers=args.workers, host=args.host,
                         port=args.port, retries=args.retries,
                         executor=args.executor, cache=args.cache,
                         cache_dir=args.cache_dir)
    print(f"serve: listening on {daemon.url} "
          f"(workers {args.workers}, root {args.root})")
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        print("serve: shutting down")
    return 0


def _watch(client: ServeClient, job_id: str) -> int:
    """Follow a job to a terminal state, printing each progress tick."""
    status = client.job(job_id, aggregate=False)
    while True:
        hits = status.get("cache_hits", 0)
        misses = status.get("cache_misses", 0)
        cache = (f", cache {hits} hits / {misses} misses"
                 if hits or misses else "")
        print(f"serve: {status['job_id']} {status['state']} — "
              f"{status['shards_done']}/{status['shards_total']} shards, "
              f"{status['tasks_done']}/{status['tasks_total']} tasks"
              f"{cache}")
        if status["state"] not in ("queued", "running"):
            break
        status = client.job(job_id, wait=status["version"], aggregate=False)
    if status["state"] == "done":
        print(f"serve: aggregate at {status['registry_path']}/aggregate.json")
        return 0
    if status["error"]:
        print(f"serve: {status['state']} — {status['error']}", file=sys.stderr)
    else:
        print(f"serve: {status['state']}", file=sys.stderr)
    return 1


def _cmd_submit(client: ServeClient, args: argparse.Namespace) -> int:
    status = client.submit(spec_from_args(args))
    print(f"serve: submitted {status['job_id']} "
          f"(fingerprint {status['fingerprint']}, "
          f"{status['tasks_total']} tasks in {status['shards_total']} shards)")
    if args.wait:
        return _watch(client, status["job_id"])
    return 0


def _cmd_runs(client: ServeClient, args: argparse.Namespace) -> int:
    if args.fingerprint:
        print(json.dumps(client.run(args.fingerprint), sort_keys=True, indent=1))
        return 0
    entries = client.runs()
    if not entries:
        print("serve: registry is empty")
        return 0
    for entry in entries:
        label = entry["suite"] or entry["kind"]
        print(f"{entry['fingerprint']}  {label}  seed={entry['seed']}  "
              f"tasks={entry['tasks']}  cells={entry['cells']}  "
              f"wall={entry['run_wall_s']}s  ({entry['job_id']})")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "start":
        return _cmd_start(args)
    client = ServeClient(args.host, args.port)
    try:
        if args.command == "submit":
            return _cmd_submit(client, args)
        if args.command == "watch":
            return _watch(client, args.job_id)
        if args.command == "runs":
            return _cmd_runs(client, args)
        if args.command == "diff":
            print(render_diff(client.diff(args.fingerprint_a,
                                          args.fingerprint_b)), end="")
            return 0
    except ServeError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")
