"""A/B performance gate: the repository benchmark on two checkouts.

    python3 benchmarks/perf_ab.py BASE HEAD

Runs ``perfbench/run.py --seed S`` (every workload) in checkout BASE
and in checkout HEAD, in :data:`PAIRS` pairs. Both sides of a pair run
the same seed, and the pairs alternate which side runs first, so a
slow drift in the runner's speed lands on both sides alike. Both
checkouts should carry HEAD's ``perfbench/`` and ``BENCHMARK.json``,
so one yardstick reads both programs; the bounds are read from HEAD's
``BENCHMARK.json``.

HEAD fails when:

* any run, on either side, prints no result for a workload or prints
  ``correct: false``;
* on a workload, HEAD's share of failed checks is higher than BASE's;
* on a workload, HEAD's median of an ``end_to_end`` metric is worse
  than BASE's by more than the metric's ``bound``, in the direction
  its ``better`` gives.

A metric whose BASE runs spread (inter-quartile range over median)
wider than its bound is labelled ``unresolved``: these pairs cannot
tell a change of that size from the runner's noise. The median rule
still applies to it.

Each metric also counts HEAD's pair wins, losses and ties: the pairs
in which HEAD's value is better than, worse than or equal to BASE's of
the same seed. They do not enter the verdict; a gain is claimed only
when HEAD wins at least 9 pairs of 10.

After the pairs, each side makes one traced run (``--trace 1``) at
:data:`COUNT_SEED`. Its exactly repeatable counts,
``simkernel.events_per_task`` and every ``*.calls_per_task``, show
which layer's work moved with a number free of the runner's noise.
They do not enter the verdict.

Prints each run's values, then each metric's median, quartiles and
pair wins per side and each workload's counts per side, and as its
last line one JSON report: every run's result lines, the summary
(counts included), the problems, ``cpu_count``, the Python version,
the seeds and the pair count. Exits 0 when HEAD passes and 1 when it
fails.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import stats  # noqa: E402

#: Pairs of runs; pair ``i`` runs seed ``SEEDS[i]`` on both sides.
PAIRS = 5
SEEDS = tuple(range(100, 100 + PAIRS))
#: The seed of each side's one traced run (exact counts).
COUNT_SEED = 3
#: Hard stop for one run of every workload (~60 s on a 2-vCPU runner).
RUN_TIMEOUT_S = 900


def run_checkout(checkout: Path, seed: int, trace: bool = False) -> dict[str, dict]:
    """One benchmark run in ``checkout`` (traced if ``trace``): the
    result line of every workload that printed one, by workload name."""
    try:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--seed", str(seed),
             "--trace", "1" if trace else "0"],
            cwd=checkout, capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perf-ab: {checkout} seed {seed}: no exit within "
              f"{RUN_TIMEOUT_S} s", flush=True)
        return {}
    if out.returncode != 0:
        print(f"perf-ab: {checkout} seed {seed}: exit {out.returncode}\n"
              f"{out.stderr}", flush=True)
    results = {}
    for line in out.stdout.splitlines():
        record = json.loads(line) if line.startswith("{") else {}
        if "correct" in record:
            results[record["workload"]] = record
    return results


def failed_share(results: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def regressed(metric: dict, base: float, head: float) -> bool:
    """Whether ``head`` is worse than ``base`` by more than the bound."""
    if metric["better"] == "higher":
        return head < base * (1.0 - metric["bound"])
    return head > base * (1.0 + metric["bound"])


def pair_wins(metric: dict, workload: str, base: list[dict],
              head: list[dict]) -> dict[str, int]:
    """HEAD's wins, losses and ties against BASE, pair by pair, on one
    metric of one workload; pairs missing a value on either side are
    skipped."""
    counts = {"wins": 0, "losses": 0, "ties": 0}
    name = metric["name"]
    for base_run, head_run in zip(base, head):
        values = [run.get(workload, {}).get("metrics", {}).get(name)
                  for run in (base_run, head_run)]
        if None in values:
            continue
        base_value, head_value = (value["value"] for value in values)
        if head_value == base_value:
            counts["ties"] += 1
        elif (head_value > base_value) == (metric["better"] == "higher"):
            counts["wins"] += 1
        else:
            counts["losses"] += 1
    return counts


def judge(spec: dict, base: list[dict], head: list[dict]) -> tuple[dict, list[str]]:
    """Judge HEAD's runs against BASE's by ``spec`` (``BENCHMARK.json``).

    ``base`` and ``head`` hold one entry per run, mapping each workload
    to the result line the run printed for it (absent if none). Returns
    the summary, per workload, of both sides' failed share and, per
    metric, each side's :func:`stats.spread` with the ``unresolved``
    and ``regressed`` labels and HEAD's :func:`pair_wins`, and the
    problems that fail the gate (none when HEAD passes).
    """
    problems: list[str] = []
    summary: dict = {}
    for workload in (w["name"] for w in spec["workloads"]):
        sides: dict[str, list[dict]] = {}
        for side, runs in (("base", base), ("head", head)):
            sides[side] = []
            for index, run in enumerate(runs, 1):
                result = run.get(workload)
                if result is None:
                    problems.append(f"{workload}: {side} run {index} printed no result")
                    continue
                if not result["correct"]:
                    problems.append(f"{workload}: {side} run {index} printed correct: false")
                sides[side].append(result)
        shares = {side: failed_share(results) for side, results in sides.items()}
        if shares["head"] > shares["base"]:
            problems.append(f"{workload}: head failed share {shares['head']:.3%} "
                            f"above base {shares['base']:.3%}")
        rows: dict = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {}
            for side, results in sides.items():
                values[side] = [r["metrics"][name]["value"]
                                for r in results if name in r["metrics"]]
                if len(values[side]) < len(results):
                    problems.append(f"{workload}: {len(results) - len(values[side])} "
                                    f"{side} run(s) lack {name}")
            if min(len(v) for v in values.values()) < 2:
                problems.append(f"{workload} {name}: too few values to compare")
                continue
            row = {side: stats.spread(v) for side, v in values.items()}
            row["unresolved"] = row["base"]["spread"] > metric["bound"]
            row["regressed"] = regressed(metric, row["base"]["median"],
                                         row["head"]["median"])
            row["pairs"] = pair_wins(metric, workload, base, head)
            if row["regressed"]:
                problems.append(
                    f"{workload} {name}: head median {row['head']['median']:.4g} "
                    f"is worse than base {row['base']['median']:.4g} by more "
                    f"than {metric['bound']:.0%} ({metric['better']} is better)")
            rows[name] = row
        summary[workload] = {"failed_share": shares, "metrics": rows}
    return summary, problems


def is_count(name: str) -> bool:
    """An exactly repeatable per-layer count (not a time or a share)."""
    return name == "simkernel.events_per_task" or name.endswith(".calls_per_task")


def add_counts(summary: dict, base: dict[str, dict], head: dict[str, dict]) -> None:
    """Put each workload's counts from one traced run per side into
    ``summary``: ``counts[name] = {"base": value, "head": value}``, a
    side's value None when its run lacks it."""
    for workload, entry in summary.items():
        sides = {side: run.get(workload, {}).get("metrics", {})
                 for side, run in (("base", base), ("head", head))}
        names = sorted({name for metrics in sides.values() for name in metrics
                        if is_count(name)})
        entry["counts"] = {
            name: {side: metrics[name]["value"] if name in metrics else None
                   for side, metrics in sides.items()}
            for name in names}


def print_run(side: str, seed: int, results: dict[str, dict]) -> None:
    for workload, result in sorted(results.items()):
        print(f"  {side} seed {seed} {workload:7s} correct {result['correct']} "
              f"failed {result['failed']}/{result['attempted']}  " + "  ".join(
                  f"{name} {metric['value']:.4g}"
                  for name, metric in sorted(result["metrics"].items())),
              flush=True)


def print_summary(spec: dict, summary: dict) -> None:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload, entry in summary.items():
        shares = entry["failed_share"]
        print(f"{workload}: failed share base {shares['base']:.3%} "
              f"head {shares['head']:.3%}")
        for name, row in entry["metrics"].items():
            base, head = row["base"], row["head"]
            change = head["median"] / base["median"] - 1.0 if base["median"] else 0.0
            label = ("REGRESSED" if row["regressed"] else "ok") + (
                " unresolved" if row["unresolved"] else "")
            pairs = row["pairs"]
            print(f"  {name:16s} base {base['median']:10.4g} [{base['q1']:.4g}, "
                  f"{base['q3']:.4g}] spread {base['spread']:6.1%}   "
                  f"head {head['median']:10.4g} [{head['q1']:.4g}, "
                  f"{head['q3']:.4g}]   {change:+7.1%}  won "
                  f"{pairs['wins']}/{sum(pairs.values())} ({pairs['losses']} lost, "
                  f"{pairs['ties']} tied)  bound "
                  f"{bounds[name]['bound']:.0%} {bounds[name]['better']}  {label}")
        for name, row in entry.get("counts", {}).items():
            base, head = row["base"], row["head"]
            change = (f"{head / base - 1.0:+7.1%}" if base and head is not None
                      else "")
            print(f"  {name:28s} base {_count(base):>10s}   head "
                  f"{_count(head):>10s}   {change}  (traced seed {COUNT_SEED}, "
                  f"not gated)")


def _count(value: float | None) -> str:
    return "-" if value is None else f"{value:.4g}"


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 benchmarks/perf_ab.py BASE HEAD", file=sys.stderr)
        return 2
    checkouts = {"base": Path(args[0]).resolve(), "head": Path(args[1]).resolve()}
    spec = json.loads((checkouts["head"] / "BENCHMARK.json").read_text())
    print(f"perf-ab: {PAIRS} pairs, seeds {list(SEEDS)}, cpu_count "
          f"{os.cpu_count()}, Python {platform.python_version()}", flush=True)
    runs: dict[str, list[dict]] = {"base": [], "head": []}
    for index, seed in enumerate(SEEDS):
        for side in ("base", "head") if index % 2 == 0 else ("head", "base"):
            results = run_checkout(checkouts[side], seed)
            runs[side].append(results)
            print_run(side, seed, results)
    traced = {side: run_checkout(checkouts[side], COUNT_SEED, trace=True)
              for side in ("base", "head")}
    summary, problems = judge(spec, runs["base"], runs["head"])
    add_counts(summary, traced["base"], traced["head"])
    print_summary(spec, summary)
    for problem in problems:
        print(f"FAIL {problem}")
    print("perf-ab: " + ("head fails" if problems else "head passes"))
    print(json.dumps({
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "pairs": PAIRS, "seeds": list(SEEDS),
        "checkouts": {side: str(path) for side, path in checkouts.items()},
        "runs": runs, "summary": summary, "problems": problems,
    }, sort_keys=True))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
