"""The benchmark's own tests, at toy sizes.

Run with ``python3 -m pytest perfbench/test_perfbench.py -q``. The
repository's tier-1 suite does not collect them (``testpaths`` is
``tests``): the end-to-end cases start real daemons and pools and take
about a minute.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import checks
import inputs as gen
import ledger
import run
import stats


# -- percentile helper ------------------------------------------------------
def test_percentile_refuses_fewer_than_ten_beyond():
    with pytest.raises(stats.SampleError):
        stats.percentile([float(v) for v in range(99)], 90)
    assert stats.percentile([float(v) for v in range(100)], 90) == pytest.approx(89.1)
    assert stats.beyond(100, 90) == 10


def test_median_of_a_small_sample_is_allowed():
    assert stats.percentile([3.0, 1.0, 2.0, 5.0, 4.0] * 4, 50) == 3.0


# -- class-boundary check ---------------------------------------------------
def _mix(counts: dict[str, int], latency: dict[str, float]) -> list[tuple[float, str]]:
    rng = random.Random(7)
    return [(latency[cls] * rng.uniform(0.9, 1.1), cls)
            for cls, count in counts.items() for _ in range(count)]


LATENCY = {"resubmit": 40.0, "probe": 150.0, "sweep": 600.0}


def test_class_check_fires_when_p90_sits_on_a_boundary():
    # 12 % sweeps: p90 falls two ranks below the probe/sweep boundary.
    mix = _mix({"resubmit": 30, "probe": 58, "sweep": 12}, LATENCY)
    with pytest.raises(stats.SampleError, match="boundary"):
        stats.check_inside_class(mix, 90)


def test_class_check_accepts_the_benchmark_mix():
    counts = {cls: gen.SERVE_CYCLE.count(slot) * 10 for cls, slot in
              (("sweep", "S"), ("probe", "P"))}
    counts["resubmit"] = 100 - sum(counts.values())
    mix = _mix(counts, LATENCY)
    assert stats.check_inside_class(mix, 50) == "probe"
    assert stats.check_inside_class(mix, 90) == "sweep"


# -- subsystem shares -------------------------------------------------------
def _span(span_id: int, start: float, end: float, name: str,
          pid: int = 1, parent: int | None = None) -> dict:
    return {"pid": pid, "id": span_id, "parent": parent, "name": name,
            "start": start, "end": end, "attrs": {}}


def _rollup(crypto_share: float, crypto_calls: float) -> dict:
    rollup = {name: {"self_share": 0.0, "calls_per_task": 0.0}
              for name in (*ledger.SUBSYSTEMS, "other")}
    rollup["crypto"] = {"self_share": crypto_share,
                        "calls_per_task": crypto_calls}
    return {"subsystems": rollup}


def test_subsystem_shares_scale_to_testbed_spans_per_class():
    windows = [run.Window(0.0, 1.0, "probe", 1, 10),
               run.Window(1.0, 3.0, "sweep", 2, 30),
               run.Window(3.0, 3.5, "resubmit", 1, 10)]
    spans = [
        # probe, inline: 0.5 s of testbed (warm-up nested in the scenario)
        _span(1, 0.1, 0.6, "testbed.scenario"),
        _span(2, 0.1, 0.2, "testbed.warm_up", parent=1),
        _span(3, 0.6, 0.9, "resultcache.store"),
        # sweep, two pool workers: 2 s of testbed
        _span(1, 1.2, 2.2, "testbed.scenario", pid=2),
        _span(1, 1.5, 2.5, "testbed.cohort", pid=3),
        # before the measured phase: left out
        _span(4, -1.0, -0.5, "testbed.scenario"),
    ]
    profiles = {"probe": _rollup(0.5, 100.0), "sweep": _rollup(0.25, 40.0)}
    m = ledger.subsystem_metrics(spans, ledger.self_times(spans), profiles,
                                 windows)
    lane_s = 1.0 + 2.0 * 2 + 0.5
    assert m["crypto.self_share"] == pytest.approx(
        (0.5 * 0.5 + 0.25 * 2.0) / lane_s)
    assert m["crypto.calls_per_task"] == pytest.approx(
        (100.0 * 10 + 40.0 * 30) / 40)
    assert m["nas.self_share"] == 0.0


# -- output check -----------------------------------------------------------
def test_output_check_catches_one_flipped_byte(tmp_path: Path):
    from repro.fleet import FleetRunner, plan_from_spec

    plan = plan_from_spec(gen.table4_spec(4096, runs=2))
    FleetRunner(plan, workers=1, out_dir=str(tmp_path)).run()
    aggregate = tmp_path / "aggregate.json"
    good = checks.sha256(aggregate.read_bytes())
    issues, records = checks.aggregate_issues(tmp_path, plan, good, good)
    assert issues == [] and len(records) == len(plan.tasks)

    data = bytearray(aggregate.read_bytes())
    data[len(data) // 2] ^= 0x01
    aggregate.write_bytes(bytes(data))
    flipped = checks.sha256(bytes(data))
    issues, _ = checks.aggregate_issues(tmp_path, plan, flipped, good)
    assert any("fold of its records" in issue for issue in issues)
    assert any("pinned" in issue for issue in issues)


def test_pinned_digests_cover_the_default_inputs():
    pins = json.loads(checks.DIGESTS.read_text())
    seconds = run.benchmark_spec()["run_seconds"]
    assert pins["seconds"] == seconds and pins["seed"] == run.DEFAULT_SEED
    from repro.fleet import plan_from_spec

    for workload in ("table4", "matrix"):
        sweeps = gen.fleet_inputs(workload, run.DEFAULT_SEED, seconds)["sweeps"]
        wanted = {plan_from_spec(s).fingerprint() for s in sweeps}
        assert wanted <= set(pins["digests"][workload])


# -- each workload end to end -----------------------------------------------
TOY_FLEET = {
    "table4": {"workers": 1, "warmup": [gen.table4_spec(8192, runs=2)],
               "sweeps": [gen.table4_spec(8192 + 64 * i, runs=4)
                          for i in (1, 2)]},
    # Enough planned cost (legacy, 16-UE cohorts) to resolve to the pool.
    "matrix": {"workers": 2,
               "warmup": [{"kind": "matrix", "scenarios": ["cp_timeout_*"],
                           "modes": ["seed_r"], "replicas": 2,
                           "cohort_size": 2, "seed": 11}],
               "sweeps": [{"kind": "matrix", "scenarios": ["cp_*"],
                           "modes": ["legacy"], "replicas": 16,
                           "cohort_size": 16, "seed": seed}
                          for seed in (12, 13)]},
}


@pytest.mark.parametrize("workload", ["table4", "matrix"])
def test_fleet_workload_end_to_end(workload: str, tmp_path: Path):
    outcome = run.fleet_run(workload, 3, 1.0, tmp_path, setups=2,
                            spec=TOY_FLEET[workload])
    assert outcome["verdict"].ok, outcome["verdict"].problems
    assert outcome["metrics"]["completed_ratio"] == 1.0
    assert set(outcome["metrics"]) == set(run.END_TO_END_UNITS)


def test_serve_workload_end_to_end(tmp_path: Path):
    spec = gen.serve_inputs(5, 1.0, table4_runs=24, cycles=10)
    outcome = run.serve_run(5, 1.0, tmp_path, setups=1, spec=spec)
    assert outcome["verdict"].ok, outcome["verdict"].problems
    assert outcome["meta"]["jobs_beyond_p90"] >= stats.MIN_BEYOND
    assert (outcome["meta"]["p50_class"], outcome["meta"]["p90_class"]) == (
        "probe", "sweep")
    assert set(outcome["metrics"]) == set(run.END_TO_END_UNITS)


def test_traced_run_prints_every_per_layer_metric(tmp_path: Path):
    outcome = run.traced_run("table4", 3, 1.0, tmp_path,
                             spec=TOY_FLEET["table4"])
    names = {m["name"] for m in run.benchmark_spec()["per_layer"]}
    assert set(outcome["metrics"]) == names
    assert outcome["metrics"]["pool.inline_share"] == 1.0
    assert set(outcome["missing"]) < names
