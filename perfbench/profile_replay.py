"""Subsystem rollup of one sweep, replayed inline under cProfile.

``python perfbench/profile_replay.py <spec.json> <out.json>`` plans the
sweep, runs each shard through ``run_shard`` (the worker's entry) in
this fresh process under ``repro.profiling``, and writes the self-time
share and call count of each simulation subsystem. A fresh process with
the same spec makes the same calls, so the call counts repeat exactly.
cProfile inflates call-heavy code, so the shares say where self time
goes, not how long it takes; the ledger multiplies them by the self
time of the traced ``testbed`` spans of the sweeps or jobs of the same
class (:func:`ledger.subsystem_metrics`).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: The simulation-side layers; every other frame counts as ``other``.
SUBSYSTEMS = ("simkernel", "infra", "device", "transport", "crypto", "nas",
              "core", "sim_card")


def replay(spec: dict) -> dict:
    from repro.fleet import plan_from_spec, run_shard
    from repro.profiling import profile_suite

    plan = plan_from_spec(spec)
    shards = [shard.to_json() for shard in plan.shards]

    def workload() -> None:
        for shard in shards:
            run_shard(shard)

    report = profile_suite("perfbench", workload)
    rollup = {name: {"tottime": 0.0, "calls": 0}
              for name in (*SUBSYSTEMS, "other")}
    for name, stats in report.subsystems.items():
        bucket = rollup[name if name in SUBSYSTEMS else "other"]
        bucket["tottime"] += stats["tottime"]
        bucket["calls"] += stats["calls"]
    total = sum(b["tottime"] for b in rollup.values()) or 1.0
    tasks = len(plan.tasks)
    return {
        "tasks": tasks,
        "wall_s": report.wall_seconds,
        "subsystems": {
            name: {"self_share": b["tottime"] / total,
                   "calls_per_task": b["calls"] / tasks}
            for name, b in rollup.items()},
    }


if __name__ == "__main__":
    spec = json.loads(Path(sys.argv[1]).read_text())
    Path(sys.argv[2]).write_text(json.dumps(replay(spec), sort_keys=True))
