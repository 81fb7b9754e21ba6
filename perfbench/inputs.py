"""Seeded inputs for the three workloads.

Everything the program is asked to do is generated here from the
workload seed and the run length, and handed to the program as plain
sweep specs (the ``plan_from_spec`` wire format both CLIs and the serve
daemon accept). The program never sees the seed itself.

The amount of work is fixed by ``--seconds`` through a nominal rate
measured on a 2-vCPU x86 VM, not by a wall-clock deadline: a run of a
given seed and length always issues the same sweeps or jobs, so every
run reports its percentiles over the same sample count and a slower or
faster machine only stretches or shrinks the run.
"""

from __future__ import annotations

import random

#: Nominal wall seconds of one unit of work per workload (one Table 4
#: sweep, one matrix sweep, one serve job cycle), used only to size runs.
NOMINAL_UNIT_S = {"table4": 1.1, "matrix": 3.0, "serve": 2.9}
#: Fewest units a run may have: enough sweeps for a median, and enough
#: serve cycles for ten jobs beyond p90.
MIN_UNITS = {"table4": 5, "matrix": 5, "serve": 10}

TABLE4_RUNS = 40
#: Master seed of the ``table4`` corpus (sweep i has ``+ 64 * (i + 1)``).
TABLE4_CORPUS = 4096 * 1000
MATRIX_COHORT = 4          # replicas == cohort size: one cohort per cell
SERVE_PROBE_REPLICAS = 2
#: Every probe matrix has this shape (3 scenarios x 3 modes x 2
#: replicas = 18 tasks, planned under the warm-pool threshold so it
#: runs inline); only its master seed changes. A fixed shape keeps the
#: probe class one latency band, so the job p50 inside it does not move
#: with which scenarios a seed happens to draw. The data-delivery runs
#: make a probe take well longer than a cache-served resubmit; the
#: cheap data-plane scenario is what the planner runs first, so the
#: first streamed result stays quick.
PROBE_SCENARIOS = ("cp_plmn_config", "dp_transient", "dd_gateway_stale")

#: One serve cycle, in submission order: ``S`` a Table 4 sweep (warm
#: pool), ``P`` a probe matrix (inline), ``R<i>`` a resubmit of the
#: cycle's i-th job (a probe) under another shard size: all cache hits.
#: Per cycle: 2 sweeps (20 %), 6 probes (60 %), 2 resubmits (20 %).
#: Client latency ranks resubmits < probes < sweeps with wide gaps (a
#: resubmitted sweep would take as long as a probe once the cache has
#: grown), so p50 lands mid-probe, 30 ranks from either class
#: boundary, and p90 mid-sweep.
SERVE_CYCLE = ("S", "P", "P", "R1", "S", "P", "R5", "P", "P", "P")
#: A resubmit's shard size. The planner's default is 4, so a resubmit
#: has another plan fingerprint than its original: a fresh run
#: directory, and every task comes from the cache.
RESUBMIT_SHARD_SIZE = 5


def units(workload: str, seconds: float) -> int:
    """Sweeps (or serve cycles) a run of ``seconds`` issues."""
    return max(MIN_UNITS[workload], round(seconds / NOMINAL_UNIT_S[workload]))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def table4_spec(seed: int, runs: int = TABLE4_RUNS) -> dict:
    return {"kind": "suite", "suite": "table4", "runs": runs, "seed": seed}


def matrix_spec(seed: int) -> dict:
    return {"kind": "matrix", "replicas": MATRIX_COHORT,
            "cohort_size": MATRIX_COHORT, "seed": seed}


def probe_spec(seed: int) -> dict:
    return {"kind": "matrix", "scenarios": list(PROBE_SCENARIOS),
            "replicas": SERVE_PROBE_REPLICAS, "seed": seed}


def fleet_inputs(workload: str, seed: int, seconds: float) -> dict:
    """Warm-up and measured sweep specs for ``table4`` or ``matrix``.

    Table 4 tasks are seeded ``master + index`` (index < 40), so master
    seeds are spaced 64 apart: no task is shared between two sweeps,
    nor with the warm-up, and the result cache never hits.
    """
    rng = _rng(workload, seed)
    count = units(workload, seconds)
    if workload == "table4":
        # A fixed corpus, in seeded order. A Table 4 sweep's scenario
        # mix follows its master seed; with one corpus, the spread
        # between runs holds no scenario-mix term, and the pinned
        # digests check every sweep of every run.
        sweeps = [table4_spec(TABLE4_CORPUS + 64 * (i + 1))
                  for i in range(count)]
        rng.shuffle(sweeps)
        # The warm-up is a small sweep on the same inline path.
        return {"workers": 1, "warmup": [table4_spec(TABLE4_CORPUS, runs=4)],
                "sweeps": sweeps}
    if workload == "matrix":
        masters = rng.sample(range(1, 2**31), count + 2)
        warmup = [
            # Every scenario on the cohort path, cheap enough (seed_r
            # only) to resolve inline: forked workers inherit it.
            {"kind": "matrix", "modes": ["seed_r"], "replicas": 2,
             "cohort_size": 2, "seed": masters[0]},
            # Short legacy runs in big cohorts: cheap, but planned above
            # the pool threshold, so the first pool fork is set-up too.
            {"kind": "matrix", "scenarios": ["cp_*"], "modes": ["legacy"],
             "replicas": 16, "cohort_size": 16, "seed": masters[1]},
        ]
        sweeps = [matrix_spec(m) for m in masters[2:]]
        return {"workers": 2, "warmup": warmup, "sweeps": sweeps}
    raise ValueError(f"not a fleet workload: {workload!r}")


def serve_inputs(seed: int, seconds: float, table4_runs: int = TABLE4_RUNS,
                 cycles: int | None = None) -> dict:
    """Warm-up specs and the job stream for ``serve``.

    Each job is ``{"class": ..., "spec": ..., "repeats": index | None}``;
    a resubmit names the index of the job whose tasks (and aggregate)
    it repeats. ``table4_runs`` and ``cycles`` shrink the stream for the
    benchmark's own tests.
    """
    rng = _rng("serve", seed)
    count = cycles if cycles is not None else units("serve", seconds)
    base = rng.randrange(1, 10**6) * 4096
    next_seed = iter(range(base + 64, base + 64 * 10**5, 64))
    jobs: list[dict] = []
    for _cycle in range(count):
        start = len(jobs)
        for slot in SERVE_CYCLE:
            if slot == "S":
                jobs.append({"class": "sweep", "repeats": None,
                             "spec": table4_spec(next(next_seed),
                                                 runs=table4_runs)})
            elif slot == "P":
                jobs.append({"class": "probe", "repeats": None,
                             "spec": probe_spec(next(next_seed))})
            else:
                index = start + int(slot[1:])
                jobs.append({"class": "resubmit", "repeats": index,
                             "spec": dict(jobs[index]["spec"],
                                          shard_size=RESUBMIT_SHARD_SIZE)})
    return {
        # Cold-pool warm-up: large enough to resolve to the pool, which
        # spawns the warm workers; then one inline probe.
        "warmup": [table4_spec(base, runs=max(20, table4_runs // 2)),
                   probe_spec(base + 1)],
        "jobs": jobs,
    }
