"""Whole-program machinery tests: call-graph resolution, the parse and
finding caches, ``--changed`` incremental reporting, the SARIF
reporter, and parallel-parse determinism.

The graph tests run on synthetic package trees written to ``tmp_path``
so each resolution form (local call, imported symbol, module-attribute
call, ``self.method``, ``self.attr.method`` via constructor inference)
is pinned in isolation.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.lint.cache import LintCache, rules_fingerprint
from repro.lint.cli import main
from repro.lint.engine import scan_paths
from repro.lint.graph import Program, module_dotted

FIXTURES = Path(__file__).parent / "lint_fixtures"

STATE_PY = '''\
class Store:
    def __init__(self):
        self.items = []

    def put(self, item):
        self.items.append(item)


def make_store():
    return Store()
'''

APPLET_PY = '''\
from repro.core.state import Store


class App:
    def __init__(self):
        self.store = Store()

    def run(self):
        self.store.put(1)
        return self.tick()

    def tick(self):
        return len(self.store.items)
'''

DRIVER_PY = '''\
from repro.core import state


def main():
    return state.make_store()
'''


@pytest.fixture
def synthetic_tree(tmp_path):
    core = tmp_path / "tree" / "core"
    core.mkdir(parents=True)
    (core / "state.py").write_text(STATE_PY)
    (core / "applet.py").write_text(APPLET_PY)
    (core / "driver.py").write_text(DRIVER_PY)
    return tmp_path / "tree"


class TestCallGraph:
    def test_module_dotted_normalisation(self):
        assert module_dotted("fleet/pool.py") == "fleet.pool"
        assert module_dotted("serve/__init__.py") == "serve"

    def test_function_inventory(self, synthetic_tree):
        program = Program(scan_paths([synthetic_tree]))
        keys = set(program.functions)
        assert "core/state.py::<module>" in keys
        assert "core/state.py::Store.put" in keys
        assert "core/applet.py::App.run" in keys
        assert "core/driver.py::main" in keys

    def test_resolution_forms(self, synthetic_tree):
        program = Program(scan_paths([synthetic_tree]))

        def callees(key):
            return {site.callee for site in program.callees_of(key)}

        # self.method() and self.attr.method() via __init__ inference:
        assert callees("core/applet.py::App.run") == {
            "core/state.py::Store.put",   # self.store typed Store()
            "core/applet.py::App.tick",   # plain self-method call
        }
        # imported class call edges to its __init__:
        assert "core/state.py::Store.__init__" in callees(
            "core/applet.py::App.__init__")
        # module-attribute call through `from repro.core import state`:
        assert callees("core/driver.py::main") == {
            "core/state.py::make_store"}
        # local class call inside the defining module:
        assert callees("core/state.py::make_store") == {
            "core/state.py::Store.__init__"}

    def test_reverse_edges(self, synthetic_tree):
        program = Program(scan_paths([synthetic_tree]))
        callers = {site.caller
                   for site in program.callers_of("core/state.py::Store.put")}
        assert callers == {"core/applet.py::App.run"}

    def test_import_graph(self, synthetic_tree):
        program = Program(scan_paths([synthetic_tree]))
        assert program.imports["core.applet"] == {"core.state"}
        assert program.imports["core.driver"] == {"core.state"}
        assert program.imported_by("core.state") == {
            "core.applet", "core.driver"}

    def test_dynamic_calls_yield_no_edge(self, tmp_path):
        # Soundness polarity: anything unresolvable is silently absent,
        # never guessed.
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "dyn.py").write_text(
            "def run(fn, obj):\n"
            "    fn()\n"
            "    getattr(obj, 'step')()\n"
        )
        program = Program(scan_paths([tree]))
        assert program.callees_of("dyn.py::run") == []


class TestCache:
    def _tree(self, tmp_path):
        target = tmp_path / "taint_bad"
        shutil.copytree(FIXTURES / "taint_bad", target)
        return target

    def test_cold_and_warm_findings_identical(self, tmp_path):
        tree = self._tree(tmp_path)
        cache_dir = tmp_path / "cache"
        cold = lint_paths([tree], cache_dir=cache_dir)
        warm = lint_paths([tree], cache_dir=cache_dir)
        assert cold == warm
        assert {f.rule for f in warm} == {"DET007"}

    def test_warm_run_hits_the_parse_cache(self, tmp_path):
        tree = self._tree(tmp_path)
        fingerprint = rules_fingerprint(["DET007"], True)
        scan_paths([tree], cache=LintCache(tmp_path / "cache", fingerprint))
        warm = LintCache(tmp_path / "cache", fingerprint)
        scan_paths([tree], cache=warm)
        stats = warm.stats()
        assert stats["parse_hits"] == 2 and stats["parse_misses"] == 0

    def test_edit_invalidates_by_content_hash(self, tmp_path):
        tree = self._tree(tmp_path)
        cache_dir = tmp_path / "cache"
        assert lint_paths([tree], cache_dir=cache_dir)  # taints, cached
        helpers = tree / "analysis" / "helpers.py"
        helpers.write_text(
            helpers.read_text().replace("time.time()", "time.perf_counter()"))
        assert lint_paths([tree], cache_dir=cache_dir) == []

    def test_fingerprint_partitions_cache_generations(self):
        assert rules_fingerprint(["DET001"], True) != \
            rules_fingerprint(["DET002"], True)
        assert rules_fingerprint(["DET001"], True) != \
            rules_fingerprint(["DET001"], False)

    def test_edited_rule_is_not_served_from_a_warm_cache(self, tmp_path):
        """Two linter trees that differ only in DET001's message, one
        cache directory: the second run must print its own message."""
        import repro.lint

        tree = tmp_path / "src"
        (tree / "repro").mkdir(parents=True)
        (tree / "repro" / "__init__.py").write_text("")
        lint_copy = tree / "repro" / "lint"
        shutil.copytree(Path(repro.lint.__file__).parent, lint_copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = FIXTURES / "det" / "bad_det001.py"

        def lint() -> str:
            return subprocess.run(
                [sys.executable, "-m", "repro.lint", str(target), "--no-scope",
                 "--cache-dir", str(tmp_path / "cache")],
                env={**os.environ, "PYTHONPATH": str(tree)},
                capture_output=True, text=True, check=False).stdout

        assert "inject a clock or derive" in lint()  # warms the cache
        det = lint_copy / "rules" / "det.py"
        det.write_text(det.read_text().replace(
            "inject a clock or derive", "inject a test clock or derive"))
        assert "inject a test clock or derive" in lint()

    def test_stats_flag_reports_cache_telemetry(self, tmp_path, capsys):
        argv = [str(FIXTURES / "det"), "--no-scope",
                "--cache-dir", str(tmp_path / "cache"), "--stats"]
        main(argv)
        capsys.readouterr()
        main(argv)
        err = capsys.readouterr().err
        assert "parsed" in err and "parse hits" in err


def _git(repo: Path, *argv: str) -> None:
    subprocess.run(
        ["git", "-C", str(repo),
         "-c", "user.email=seedlint@test", "-c", "user.name=seedlint",
         *argv],
        check=True, capture_output=True,
    )


@pytest.fixture
def git_tree(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    (repo / "pkg" / "file_a.py").write_text("def ok():\n    return 1\n")
    (repo / "pkg" / "file_b.py").write_text(
        "import time\n\n\ndef stale():\n    return time.time()\n")
    _git(repo, "init", "-q")
    _git(repo, "add", ".")
    _git(repo, "commit", "-q", "-m", "seed")
    monkeypatch.chdir(repo)
    return repo


class TestChanged:
    def test_no_changes_exits_clean(self, git_tree, capsys):
        assert main(["pkg", "--no-scope", "--changed", "HEAD"]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_only_changed_files_reported(self, git_tree, capsys):
        # file_b has a committed violation; only the freshly edited
        # file_a may appear in the report.
        (git_tree / "pkg" / "file_a.py").write_text(
            "import time\n\n\ndef fresh():\n    return time.time()\n")
        code = main(["pkg", "--no-scope", "--changed", "HEAD",
                     "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        paths = {finding["path"] for finding in payload["findings"]}
        assert paths and all(p.endswith("file_a.py") for p in paths)

    def test_untracked_files_count_as_changed(self, git_tree, capsys):
        (git_tree / "pkg" / "file_c.py").write_text(
            "import time\n\n\ndef new():\n    return time.time()\n")
        code = main(["pkg", "--no-scope", "--changed", "HEAD",
                     "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        paths = {finding["path"] for finding in payload["findings"]}
        assert paths and all(p.endswith("file_c.py") for p in paths)

    def test_bad_ref_is_a_usage_error(self, git_tree, capsys):
        assert main(["pkg", "--changed", "no-such-ref"]) == 2


class TestSarif:
    def test_sarif_shape(self, capsys):
        code = main([str(FIXTURES / "det" / "bad_det001.py"),
                     "--no-scope", "--format", "sarif"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        assert "DET001" in {rule["id"] for rule in rules}
        results = run["results"]
        assert any(result["ruleId"] == "DET001" for result in results)
        for result in results:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]
        location = results[0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("bad_det001.py")
        assert location["region"]["startLine"] >= 1

    def test_sarif_output_is_byte_stable(self, capsys):
        argv = [str(FIXTURES / "proto_bad"), "--no-scope",
                "--format", "sarif"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert first == capsys.readouterr().out
