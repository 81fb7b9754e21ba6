"""The A/B performance gate's verdict (``benchmarks/perf_ab.py``).

``judge`` is fed synthetic runs and judged by the bounds and
directions of the committed ``BENCHMARK.json``, which is read, never
edited.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_loader = importlib.util.spec_from_file_location(
    "perf_ab", ROOT / "benchmarks" / "perf_ab.py")
perf_ab = importlib.util.module_from_spec(_loader)
_loader.loader.exec_module(perf_ab)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NOMINAL = {"tasks_per_s": 200.0, "setup_s": 0.6, "peak_rss_mb": 80.0,
           "completed_ratio": 1.0, "job_p90_ms": 1500.0}


def result(correct: bool = True, failed: int = 0, **values: float) -> dict:
    """One workload's result line, as ``perfbench/run.py`` prints it."""
    return {"correct": correct, "attempted": 270, "failed": failed,
            "metrics": {name: {"value": values.get(name, value), "unit": "u"}
                        for name, value in NOMINAL.items()}}


def runs(**values: float) -> list[dict]:
    """Every run of one side: all workloads, the same values each run."""
    return [{w: result(**values) for w in WORKLOADS} for _ in perf_ab.SEEDS]


def test_nominal_values_cover_every_gated_metric():
    assert set(NOMINAL) == set(BOUNDS)


def test_identical_sides_pass():
    summary, problems = perf_ab.judge(SPEC, runs(), runs())
    assert problems == []
    assert set(summary) == set(WORKLOADS)
    assert not summary["table4"]["metrics"]["tasks_per_s"]["unresolved"]


def test_tasks_per_s_loss_just_past_its_bound_fails():
    loss = NOMINAL["tasks_per_s"] * (1.0 - BOUNDS["tasks_per_s"] - 0.001)
    _summary, problems = perf_ab.judge(SPEC, runs(), runs(tasks_per_s=loss))
    assert len(problems) == len(WORKLOADS)
    assert all("tasks_per_s" in p for p in problems)


def test_tasks_per_s_loss_just_inside_its_bound_passes():
    loss = NOMINAL["tasks_per_s"] * (1.0 - BOUNDS["tasks_per_s"] + 0.001)
    _summary, problems = perf_ab.judge(SPEC, runs(), runs(tasks_per_s=loss))
    assert problems == []


@pytest.mark.parametrize("name", ["setup_s", "peak_rss_mb", "job_p90_ms"])
def test_lower_is_better(name):
    worse = NOMINAL[name] * (1.0 + BOUNDS[name] + 0.001)
    _summary, problems = perf_ab.judge(SPEC, runs(), runs(**{name: worse}))
    assert problems and all(name in p for p in problems)
    _summary, problems = perf_ab.judge(
        SPEC, runs(), runs(**{name: NOMINAL[name] / 2}))
    assert problems == []


def test_missing_workload_fails():
    head = runs()
    del head[2]["serve"]
    _summary, problems = perf_ab.judge(SPEC, runs(), head)
    assert problems == ["serve: head run 3 printed no result"]


def test_missing_metric_fails():
    head = runs()
    del head[0]["matrix"]["metrics"]["job_p90_ms"]
    _summary, problems = perf_ab.judge(SPEC, runs(), head)
    assert problems == ["matrix: 1 head run(s) lack job_p90_ms"]


def test_correct_false_run_fails():
    base = runs()
    base[4]["table4"] = result(correct=False)
    _summary, problems = perf_ab.judge(SPEC, base, runs())
    assert problems == ["table4: base run 5 printed correct: false"]


def test_higher_head_failed_share_fails():
    head = runs()
    head[1]["matrix"] = result(failed=4)
    _summary, problems = perf_ab.judge(SPEC, runs(), head)
    assert len(problems) == 1
    assert problems[0].startswith("matrix: head failed share")


def test_equal_failed_shares_pass():
    base, head = runs(), runs()
    base[0]["matrix"] = head[3]["matrix"] = result(failed=4)
    summary, problems = perf_ab.judge(SPEC, base, head)
    assert problems == []
    assert summary["matrix"]["failed_share"]["head"] > 0.0


def test_wide_base_spread_is_labelled_unresolved_but_not_failed():
    base = runs()
    for run, rate in zip(base, (120.0, 160.0, 200.0, 240.0, 280.0)):
        run["serve"]["metrics"]["tasks_per_s"]["value"] = rate
    summary, problems = perf_ab.judge(SPEC, base, runs())
    assert problems == []
    assert summary["serve"]["metrics"]["tasks_per_s"]["unresolved"]
    assert not summary["table4"]["metrics"]["tasks_per_s"]["unresolved"]


def test_pair_wins_follow_each_metrics_direction():
    base, head = runs(), runs()
    # Seeds 1-5: head faster twice, slower once, equal twice.
    for run, rate in zip(head, (220.0, 210.0, 190.0, 200.0, 200.0)):
        run["table4"]["metrics"]["tasks_per_s"]["value"] = rate
    # Lower is better: head's larger setup counts as a loss.
    head[0]["table4"]["metrics"]["setup_s"]["value"] = 0.9
    head[1]["table4"]["metrics"]["setup_s"]["value"] = 0.3
    summary, problems = perf_ab.judge(SPEC, base, head)
    assert problems == []
    metrics = summary["table4"]["metrics"]
    assert metrics["tasks_per_s"]["pairs"] == {"wins": 2, "losses": 1, "ties": 2}
    assert metrics["setup_s"]["pairs"] == {"wins": 1, "losses": 1, "ties": 3}
    assert summary["matrix"]["metrics"]["tasks_per_s"]["pairs"] == {
        "wins": 0, "losses": 0, "ties": len(perf_ab.SEEDS)}


def test_pair_wins_skip_pairs_missing_a_value():
    base, head = runs(), runs()
    del base[0]["serve"]
    del head[1]["serve"]["metrics"]["job_p90_ms"]
    summary, _problems = perf_ab.judge(SPEC, base, head)
    metrics = summary["serve"]["metrics"]
    assert sum(metrics["tasks_per_s"]["pairs"].values()) == len(perf_ab.SEEDS) - 1
    assert sum(metrics["job_p90_ms"]["pairs"].values()) == len(perf_ab.SEEDS) - 2


def traced(**counts: float) -> dict:
    """One traced run: every workload's result line with per-layer
    metrics, counts among them."""
    metrics = {"simkernel.us_per_event": {"value": 1.5, "unit": "us"},
               "pool.busy_share": {"value": 0.9, "unit": "fraction"}}
    metrics.update({name: {"value": value, "unit": "count"}
                    for name, value in counts.items()})
    return {w: {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
            for w in WORKLOADS}


def test_counts_rows_per_workload_stay_out_of_the_verdict(capsys):
    summary, problems = perf_ab.judge(SPEC, runs(), runs(tasks_per_s=10.0))
    perf_ab.add_counts(summary,
                       traced(**{"simkernel.events_per_task": 419.9,
                                 "transport.calls_per_task": 542.5}),
                       traced(**{"simkernel.events_per_task": 210.0,
                                 "device.calls_per_task": 300.0}))
    for workload in WORKLOADS:
        assert summary[workload]["counts"] == {
            "device.calls_per_task": {"base": None, "head": 300.0},
            "simkernel.events_per_task": {"base": 419.9, "head": 210.0},
            "transport.calls_per_task": {"base": 542.5, "head": None},
        }
    assert len(problems) == len(WORKLOADS)  # the loss alone, as before
    perf_ab.print_summary(SPEC, summary)
    out = capsys.readouterr().out
    assert "simkernel.events_per_task" in out and "-50.0%" in out
    assert "not gated" in out and "us_per_event" not in out


def test_counts_are_exact_layer_counts_only():
    assert perf_ab.is_count("simkernel.events_per_task")
    assert perf_ab.is_count("crypto.calls_per_task")
    assert not perf_ab.is_count("simkernel.us_per_event")
    assert not perf_ab.is_count("simkernel.elided_per_task")
