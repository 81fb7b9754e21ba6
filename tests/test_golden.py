"""Golden pins: whole outputs, fixed as sha256 digests.

The parity suites compare two runs of one host (a :class:`Testbed` is
a one-member :class:`Cohort`), so they cannot catch drift that both
sides share. These digests were recorded on the tree before the two
hosts were merged: three fleet aggregates and the rendered tables of
the small experiment runs in ``tests/test_experiments.py`` that drive
a Testbed directly. A digest moves only when some run's record,
learning state or rendered number moves.

The data-delivery pins (``dd_gateway_stale_cohort4``, ``serve_probe``,
``table5_delivery``) were recorded on the tree before UDP apps parked
in a black hole: they cover the exchanges that time out after a clear.

The churn pins (``CHURN_READS``, ``table5_disruption``) were recorded on
the tree before DNS and TCP apps parked: full-precision reads of the
apps, Android and the transport clients after the two long outages the
detectors see, and the raw Table 5 dict of the apps that launch before
the block (request timeouts, and the TCP clean-up rung).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments import (
    coverage,
    figure3,
    figure11b,
    figure12,
    figure13,
    online_learning,
    table5,
)
from repro.experiments.table4 import DD_ANDROID_TIMERS
from repro.fleet.planner import plan_from_spec
from repro.fleet.runner import FleetRunner
from repro.testbed.harness import HandlingMode, run_one
from repro.testbed.scenarios import scenario_by_name

AGGREGATES = {
    "table4": ({"kind": "suite", "suite": "table4", "runs": 8, "seed": 4000},
               "a3ae5e6b1943b745f55b5d756f05da407cc0734c9d0f02ffe90e7dbf9b069d89"),
    "matrix": ({"kind": "matrix", "replicas": 1, "seed": 2718},
               "625b68dc36b9e668cd09699a9ed82a5e5bbf55ef467b51634583de4e9b8ba47b"),
    # The same digest as replicas 4 at cohort size 1.
    "matrix_cohort4": ({"kind": "matrix", "replicas": 4, "seed": 2718,
                        "cohort_size": 4},
                       "d2adabdbf2d681d299b4d256c6f8dc7bacfef98bf9af87b4552c9b2ace6ad183"),
    "dd_gateway_stale_cohort4": (
        {"kind": "matrix", "scenarios": ["dd_gateway_stale"], "replicas": 4,
         "cohort_size": 4, "seed": 2718},
        "c2ed16e1bd5a15313608788755f8dabc6375fa8bc938718eae2db3a24b1adb6d"),
    # The shape of a perfbench serve probe.
    "serve_probe": (
        {"kind": "matrix",
         "scenarios": ["cp_plmn_config", "dp_transient", "dd_gateway_stale"],
         "replicas": 2, "seed": 2718},
        "dfc5a74690447e5001d7398c7de7ce009f3f41cd423a115ff7d5d828b11a4c3f"),
}

RENDERS = {
    "figure3": (lambda: figure3.render(
        figure3.run(runs_per_kind=2, seed=300, horizon=1200.0)),
        "4adb4802b32b3b883110f8e141e0fbf8f44c0db7b290c6744685cca6225e8b36"),
    "table5": (lambda: table5.render(
        table5.run(apps=("video",), classes=("d_plane",))),
        "93dea0e25d48c8aa7ba6dcec79d6714ab54d4bfbffcd10859c98aeeab01788bc"),
    "table5_delivery": (lambda: table5.render(
        table5.run(apps=("edge_ar", "navigation"), classes=("d_delivery",))),
        "bf54ca800d644f7bba18b51036872b676242a4cd66ac8f40b83ab7353b372cfe"),
    "figure11b": (lambda: figure11b.render(figure11b.run(seed=601)),
                  "f90d37068c5d8b94911359b7959391db7b3dfc3fe3ee820605196b800b71c96f"),
    "figure12": (lambda: figure12.render(figure12.run(exchanges=4, seed=701)),
                 "8d2473d9c8698e43b17b45d9ef8c52d5ebf685b82fdf1e74c7ccef2b1c67d26d"),
    "figure13": (lambda: figure13.render(figure13.run(seed=801)),
                 "258bfc4b5a335ab888398ecf78e04500ba29ff3c1c8d9dd079d96f7cfaa7d3ae"),
    "online_learning": (lambda: online_learning.render(
        online_learning.run(failures_per_cause=3, devices=2, seed=910)),
        "6dac9e792e0b2f90482e86e0229d93f95e1f41427691e60e0c4493e18a2a606b"),
    "coverage": (lambda: coverage.render(coverage.run(runs=6, seed=7100)),
                 "22c4f3a042a9e789676c4470dc9b7002b92dab2ac7420697b279ea5767527bcb"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(AGGREGATES))
def test_fleet_aggregate_digest(tmp_path, monkeypatch, name):
    monkeypatch.delenv("REPRO_FULL_HORIZON", raising=False)
    spec, digest = AGGREGATES[name]
    FleetRunner(plan_from_spec(spec), workers=1, out_dir=str(tmp_path)).run()
    assert _sha256((tmp_path / "aggregate.json").read_bytes()) == digest


@pytest.mark.parametrize("name", sorted(RENDERS))
def test_experiment_render_digest(monkeypatch, name):
    monkeypatch.delenv("REPRO_FULL_HORIZON", raising=False)
    render, digest = RENDERS[name]
    assert _sha256(render().encode()) == digest


#: (scenario, timers) -> digest of ``_churn_reads`` over 3 modes x 2 seeds.
CHURN_READS = {
    ("dd_dns_outage", "stock"):
        "02f812d3c3383546a1fc3652d8249006059161ce4a322c313dacc04429b7a179",
    ("dd_dns_outage", "dd"):
        "768ecbebd64266fa5b1d3cadfb9409232096a15aca631ba6e19341715433bed4",
    ("dd_tcp_policy_block", "stock"):
        "fa42f13854dfd6cee01597cdf8a76a3e7bb755e6cbd0864d9cd7e14ea505b2ad",
    ("dd_tcp_policy_block", "dd"):
        "ebfd7bcc9578077e37ff853aaaa72f7dd6977957959e70a3e6e88c60384cf76a",
}
CHURN_SEEDS = (777, 2718)

TABLE5_DISRUPTION = "4b5d5b4b7c6bf03edff1266a4e7a99cefadcd8c1a1f1b99d17a3335d2e48f4a0"


def _churn_reads(scenario: str, timers) -> str:
    """Every read the detectors, the meter and a test can take of the
    apps, Android and the transport clients after each run, as repr
    text (floats at full precision)."""
    lines = []
    for handling in HandlingMode:
        for seed in CHURN_SEEDS:
            result, testbed = run_one(scenario_by_name(scenario), handling, seed=seed,
                                      android_timers=timers)
            device = testbed.device
            apps = {
                name: (app.exchanges, app.successes, app.consecutive_failures,
                       [(d.start, d.end) for d in app.disruptions],
                       list(app.reports_sent))
                for name, app in sorted(device.apps.items())
            }
            android = device.android
            stats = device.tcp.stats
            lines.append(repr((
                handling.value, seed, result.duration, apps,
                [(s.time, s.reason.value) for s in android.stalls],
                list(android.recovery_actions),
                [(o.result.value, o.name, o.address, o.latency, o.time)
                 for o in device.dns.history],
                device.dns.consecutive_timeouts(),
                list(stats.attempts), list(stats.outbound), list(stats.inbound),
                (device.udp.deadline, device.tcp.deadline, device.dns.deadline),
            )))
    return "\n".join(lines)


@pytest.mark.parametrize("scenario,timers", sorted(CHURN_READS))
def test_churn_reads_digest(monkeypatch, scenario, timers):
    monkeypatch.delenv("REPRO_FULL_HORIZON", raising=False)
    android_timers = DD_ANDROID_TIMERS if timers == "dd" else None
    text = _churn_reads(scenario, android_timers)
    assert _sha256(text.encode()) == CHURN_READS[(scenario, timers)]


def test_table5_disruption_digest(monkeypatch):
    """The raw dict, not the 0.1 s render."""
    monkeypatch.delenv("REPRO_FULL_HORIZON", raising=False)
    result = table5.run(apps=("video", "live_stream", "web"), classes=("d_delivery",))
    text = repr(sorted((app, cls, mode.value, value)
                       for (app, cls, mode), value in result.disruption.items()))
    assert _sha256(text.encode()) == TABLE5_DISRUPTION
