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
from repro.fleet.planner import plan_from_spec
from repro.fleet.runner import FleetRunner

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
