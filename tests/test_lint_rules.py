"""seedlint rule-family tests against the fixture corpus.

Every rule must catch its seeded bad snippet and stay quiet on the
good twin; the PROTO cross-file rules run over miniature module trees
mirroring the real package layout.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.lint.engine import scan_paths
from repro.lint.registry import all_rules

FIXTURES = Path(__file__).parent / "lint_fixtures"

PER_FILE_RULES = (
    "DET001", "DET002", "DET003", "DET004", "DET005", "DET006",
    "SAFE001", "SAFE002", "SAFE003", "SAFE004",
    "CONC001", "CONC002", "CONC003",
)
PROTO_RULES = ("PROTO001", "PROTO002", "PROTO003", "PROTO004", "PROTO006")
WHOLE_PROGRAM_RULES = ("DET007",)
META_RULES = ("META001",)


def rules_found(path: Path, enforce_scope: bool = False) -> set[str]:
    return {f.rule for f in lint_paths([path], enforce_scope=enforce_scope)}


class TestFixtureCorpus:
    @pytest.mark.parametrize("rule_id", PER_FILE_RULES + META_RULES)
    def test_bad_snippet_caught(self, rule_id):
        family = rule_id[:-3].lower()
        path = FIXTURES / family / f"bad_{rule_id.lower()}.py"
        assert rule_id in rules_found(path)

    @pytest.mark.parametrize("rule_id", PER_FILE_RULES + META_RULES)
    def test_good_snippet_clean(self, rule_id):
        family = rule_id[:-3].lower()
        path = FIXTURES / family / f"good_{rule_id.lower()}.py"
        assert rule_id not in rules_found(path)

    @pytest.mark.parametrize("rule_id", PROTO_RULES)
    def test_proto_bad_tree_caught(self, rule_id):
        assert rule_id in rules_found(FIXTURES / "proto_bad")

    def test_proto_good_tree_clean(self):
        assert rules_found(FIXTURES / "proto_good") == set()

    def test_proto_bad_counts(self):
        findings = lint_paths([FIXTURES / "proto_bad"], enforce_scope=False)
        by_rule: dict[str, int] = {}
        for finding in findings:
            by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
        # Both planes drop a cause; the reject misses encoder AND decoder.
        assert by_rule["PROTO001"] == 2
        assert by_rule["PROTO002"] == 2
        assert by_rule["PROTO003"] == 1
        assert by_rule["PROTO004"] == 1
        # One context parameter leak, one task_id attribute read.
        assert by_rule["PROTO006"] == 2


class TestFindingAnchors:
    def test_finding_names_rule_file_and_line(self):
        findings = lint_paths([FIXTURES / "det" / "bad_det001.py"],
                              enforce_scope=False)
        det001 = [f for f in findings if f.rule == "DET001"]
        assert det001, findings
        rendered = det001[0].render()
        assert "bad_det001.py:8:" in rendered  # the time.time() call line
        assert "DET001" in rendered
        assert "time.time" in rendered

    def test_proto_missing_causes_are_named(self):
        findings = lint_paths([FIXTURES / "proto_bad"], enforce_scope=False)
        messages = [f.message for f in findings if f.rule == "PROTO001"]
        assert any("[7]" in m for m in messages)
        assert any("[27]" in m for m in messages)


class TestSuppression:
    def test_inline_disable_comment_suppresses(self):
        path = FIXTURES / "det" / "suppressed_det001.py"
        assert "DET001" not in rules_found(path)

    def test_unsuppressed_twin_still_fires(self):
        # Same construct, no comment — the suppression is what differs.
        assert "DET001" in rules_found(FIXTURES / "det" / "bad_det001.py")


class TestScoping:
    def test_det_rules_bind_to_simulation_paths_only(self):
        # Outside simkernel/core/fleet/nas the determinism contract
        # does not apply; under --no-scope it does.
        path = FIXTURES / "det" / "bad_det001.py"
        assert "DET001" not in rules_found(path, enforce_scope=True)
        assert "DET001" in rules_found(path, enforce_scope=False)

    def test_fixture_tree_mirroring_layout_is_in_scope(self):
        # proto_bad mirrors nas/ and core/, so scoped per-file rules
        # apply there even with scoping enforced.
        modules = scan_paths([FIXTURES / "proto_bad"])
        keys = {module.scope_key for module in modules}
        assert "nas/causes.py" in keys and "core/applet.py" in keys


class TestCancelRace:
    """CONC003 must see the bug class that motivated it: the pre-PR-7
    serve.jobs cancel race, preserved verbatim as a fixture."""

    def test_conc003_flags_both_bare_transitions(self):
        findings = lint_paths([FIXTURES / "conc" / "cancel_race.py"],
                              enforce_scope=False)
        conc003 = [f for f in findings if f.rule == "CONC003"]
        # One bare `self.state = ...` in mark(), one in request_cancel().
        assert len(conc003) == 2, [f.render() for f in findings]
        assert all("state" in f.message for f in conc003)

    def test_cas_rewrite_is_clean(self):
        findings = lint_paths([FIXTURES / "conc" / "good_conc003.py"],
                              enforce_scope=False)
        assert [f for f in findings if f.rule.startswith("CONC")] == []


class TestTaint:
    def test_cross_module_wall_clock_chain(self):
        findings = lint_paths([FIXTURES / "taint_bad"], enforce_scope=True)
        det007 = [f for f in findings if f.rule == "DET007"]
        assert len(det007) == 1, [f.render() for f in findings]
        finding = det007[0]
        # Anchored at the boundary call site inside the scoped caller,
        # not at the out-of-scope source.
        assert finding.path.endswith("fleet/worker.py")
        # The message walks the whole chain and names the true source.
        assert "fleet.worker.run_tasks" in finding.message
        assert "analysis.helpers.sample_latency" in finding.message
        assert "analysis.helpers.wall_ms" in finding.message
        assert "time.time" in finding.message
        assert "helpers.py:12" in finding.message

    def test_per_file_pass_alone_misses_it(self):
        # The scoped per-file DET pass never visits analysis/, so the
        # wall-clock read is invisible without the taint walker.
        findings = lint_paths([FIXTURES / "taint_bad"], enforce_scope=True)
        assert [f for f in findings if f.rule == "DET001"] == []

    def test_clean_and_sanctioned_tree_quiet(self):
        # perf_counter is legal, and the one wall-clock read is
        # sanctioned at the source — no taint finding, and the disable
        # comment is consumed (no META001 either).
        findings = lint_paths([FIXTURES / "taint_good"], enforce_scope=True)
        assert findings == [], [f.render() for f in findings]


class TestStaleSuppression:
    def test_dead_disable_comment_reported(self):
        findings = lint_paths([FIXTURES / "meta" / "bad_meta001.py"],
                              enforce_scope=False)
        assert [f.rule for f in findings] == ["META001"]
        assert "DET001" in findings[0].message

    def test_live_disable_comment_not_reported(self):
        assert rules_found(FIXTURES / "meta" / "good_meta001.py") == set()

    def test_select_subset_does_not_declare_rest_stale(self):
        # Judging only rules that ran: under --select SAFE the DET001
        # token cannot be proven stale, so META001 stays quiet.
        from repro.lint.registry import all_rules as catalogue
        subset = [r for r in catalogue()
                  if r.rule_id.startswith("SAFE") or r.rule_id == "META001"]
        findings = lint_paths([FIXTURES / "meta" / "bad_meta001.py"],
                              rules=subset, enforce_scope=False)
        assert findings == [], [f.render() for f in findings]


class TestRegistry:
    def test_rule_catalogue_is_complete(self):
        ids = {rule.rule_id for rule in all_rules()}
        assert set(PER_FILE_RULES) <= ids
        assert set(PROTO_RULES) <= ids
        assert set(WHOLE_PROGRAM_RULES) <= ids
        assert set(META_RULES) <= ids

    def test_parse_error_becomes_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        findings = lint_paths([bad], enforce_scope=False)
        assert [f.rule for f in findings] == ["PARSE"]
