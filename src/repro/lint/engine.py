"""File scanning, suppression handling, and two-pass rule execution.

``scan_paths`` walks the given files/directories, parses every ``*.py``
into a :class:`Module` (source + AST + suppression table) — through
the content-hash parse cache when one is given — and ``lint_paths``
runs the registered rules over them in **two passes**:

* **pass 1** — per-file rules run on each module whose ``scope_key``
  (package subpath under ``repro/``) matches the rule's scope, and
  project rules run once against the whole :class:`Project` (the
  PROTO completeness family, which looks modules up by path suffix);
* **pass 2** — whole-program rules receive a
  :class:`repro.lint.graph.Program`: every parsed module plus the
  import and call graphs, so a rule can follow a call chain out of its
  scoped subtree (the interprocedural DET taint walker).

Suppressions: a ``# seedlint: disable=RULE`` (comma-separated list, or
``all``) comment suppresses matching findings on its own line; the
same comment on the first line of a file suppresses the whole file.
The engine accounts for every suppression it honours — a disable
comment that absorbed no finding (and was not consumed by a pass-2
rule as a sanctioned source) is itself reported as **META001**, so the
suppression inventory cannot rot.

Findings are returned sorted by (path, line, rule) so reports are
byte-stable run to run — the linter holds itself to the invariant it
enforces.
"""

from __future__ import annotations

import ast
import gc
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.cache import LintCache, content_digest, rules_fingerprint
from repro.lint.finding import Finding
from repro.lint.registry import Rule

_SUPPRESS_RE = re.compile(r"#\s*seedlint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass
class Module:
    """One parsed source file under analysis."""

    path: str                       # display path (as scanned)
    scope_key: str                  # package subpath, e.g. "core/applet.py"
    source: str
    tree: ast.AST | None            # None when the file failed to parse
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)
    parse_error: str | None = None
    digest: str = ""                # content hash (cache key)

    def suppressed(self, line: int, rule_id: str) -> bool:
        return self.match_suppression(line, rule_id) is not None

    def match_suppression(
        self, line: int, rule_id: str
    ) -> tuple[int, str] | None:
        """(suppression line, matched token) honouring file-level
        comments; None when the finding is live. An exact rule token
        wins over ``all`` so usage accounting credits the narrowest
        suppression."""
        for scope_line in (line, 0):  # 0 = file-level suppression
            rules = self.suppressions.get(scope_line)
            if rules is None:
                continue
            if rule_id in rules:
                return (scope_line, rule_id)
            if "all" in rules:
                return (scope_line, "all")
        return None


@dataclass
class Project:
    """The full set of modules a lint run covers (for cross-file rules)."""

    modules: list[Module]

    def find(self, suffix: str) -> Module | None:
        """The module whose path ends with ``suffix`` (posix form)."""
        for module in self.modules:
            if module.scope_key == suffix or module.scope_key.endswith("/" + suffix):
                return module
            if module.path.replace("\\", "/").endswith(suffix):
                return module
        return None


def _scope_key(path: Path, root: Path) -> str:
    """Package subpath used for rule scoping.

    Paths inside a ``repro`` package are keyed below the (innermost)
    ``repro`` component, so ``src/repro/core/applet.py`` and an
    installed ``.../site-packages/repro/core/applet.py`` both key as
    ``core/applet.py``. Files outside any ``repro`` directory (fixture
    corpora) are keyed relative to the scanned root.
    """
    parts = path.parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index + 1 :])
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.name


def _parse_suppressions(source: str) -> dict[int, frozenset[str]]:
    table: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        rules = frozenset(
            token.strip() for token in match.group(1).split(",") if token.strip()
        )
        table[lineno] = rules
        if lineno == 1:
            table[0] = rules  # first-line comment covers the whole file
    return table


def load_module(
    path: Path, root: Path, cache: LintCache | None = None
) -> Module:
    raw = path.read_bytes()
    source = raw.decode("utf-8")
    digest = content_digest(raw)
    if cache is not None:
        cached = cache.load_parse(digest)
        if cached is not None:
            tree, suppressions = cached
            return Module(
                path=str(path), scope_key=_scope_key(path, root),
                source=source, tree=tree,  # type: ignore[arg-type]
                suppressions=suppressions, digest=digest,
            )
    tree: ast.AST | None = None
    parse_error: str | None = None
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        parse_error = f"syntax error: {exc.msg} (line {exc.lineno})"
    suppressions = _parse_suppressions(source)
    if cache is not None and parse_error is None:
        cache.store_parse(digest, tree, suppressions)
    return Module(
        path=str(path),
        scope_key=_scope_key(path, root),
        source=source,
        tree=tree,
        suppressions=suppressions,
        parse_error=parse_error,
        digest=digest,
    )


def scan_paths(
    paths: Sequence[str | Path],
    cache: LintCache | None = None,
) -> list[Module]:
    """Collect and parse every ``*.py`` file under ``paths``, in the
    deterministic scan order."""
    work: list[tuple[Path, Path]] = []
    seen: set[Path] = set()
    for raw in paths:
        base = Path(raw)
        if base.is_dir():
            files = sorted(p for p in base.rglob("*.py") if p.is_file())
            root = base
        else:
            files = [base]
            root = base.parent
        for file in files:
            resolved = file.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            work.append((file, root))
    # Park the collector for the batch: a Python-level gc callback (the
    # test harness installs one) firing inside ast.parse's C-level
    # constructor dies with "SystemError: AST constructor recursion
    # depth mismatch" on CPython 3.11, and bulk AST allocation is
    # faster without intermediate collections anyway.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return [load_module(file, root, cache) for file, root in work]
    finally:
        if gc_was_enabled:
            gc.enable()


def _pass1_module_findings(
    module: Module,
    file_rules: list[Rule],
    enforce_scope: bool,
    cache: LintCache | None,
) -> list[Finding]:
    """Per-file findings for one module, through the finding cache.

    Cached entries are pre-suppression (the engine re-applies
    suppressions every run so META001 accounting stays exact) and are
    re-anchored to the module's current display path on load.
    """
    if cache is not None and module.digest:
        cached = cache.load_findings(module.digest, module.scope_key)
        if cached is not None:
            return [
                Finding(module.path, line, col, rule_id, message)
                for line, col, rule_id, message in cached
            ]
    findings: list[Finding] = []
    for lint_rule in file_rules:
        if enforce_scope and not lint_rule.applies_to(module.scope_key):
            continue
        findings.extend(lint_rule.check(module))
    if cache is not None and module.digest:
        cache.store_findings(
            module.digest, module.scope_key,
            [(f.line, f.col, f.rule, f.message) for f in findings],
        )
    return findings


def _stale_suppression_findings(
    modules: list[Module],
    active_rule_ids: set[str],
    used: set[tuple[str, int, str]],
    consumed: set[tuple[str, int, str]],
) -> list[Finding]:
    """META001: disable comments that suppressed nothing this run.

    Only tokens naming rules that actually ran are judged (a
    ``--select`` subset cannot declare the rest of the inventory
    stale); ``all`` is stale when the line produced no finding at all.
    """
    findings: list[Finding] = []
    for module in modules:
        if module.parse_error is not None:
            continue
        for lineno in sorted(module.suppressions):
            if lineno == 0:
                continue  # bookkeeping copy of the line-1 entry
            for token in sorted(module.suppressions[lineno]):
                if token != "all" and token not in active_rule_ids:
                    continue
                if (module.path, lineno, token) in used:
                    continue
                if (module.path, lineno, token) in consumed:
                    continue
                what = (
                    "suppresses no finding of any rule" if token == "all"
                    else f"suppresses no {token} finding"
                )
                findings.append(Finding(
                    module.path, lineno, 0, "META001",
                    f"stale suppression: 'seedlint: disable={token}' "
                    f"{what}; remove it or re-justify it",
                ))
    return findings


def run_rules(
    modules: list[Module],
    rules: Iterable[Rule],
    enforce_scope: bool = True,
    cache: LintCache | None = None,
    changed: set[str] | None = None,
) -> list[Finding]:
    """Apply ``rules`` to ``modules`` and return the surviving findings.

    ``changed`` restricts *reporting* to the given resolved paths:
    pass-1 rules skip unchanged modules entirely, while project and
    whole-program rules still analyse the full module set (their
    semantics need the whole graph) and have their findings filtered.
    """
    from repro.lint.graph import Program  # deferred: graph imports Module

    rules = list(rules)
    file_rules = [
        r for r in rules if not (r.project or r.whole_program or r.meta)
    ]
    project_rules = [r for r in rules if r.project]
    wp_rules = [r for r in rules if r.whole_program]
    meta_active = {r.rule_id for r in rules if r.meta}

    def in_changed(path: str) -> bool:
        if changed is None:
            return True
        return str(Path(path).resolve()) in changed

    findings: list[Finding] = []
    project = Project(modules)
    for module in modules:
        if module.parse_error is not None:
            findings.append(
                Finding(module.path, 1, 0, "PARSE", module.parse_error)
            )

    # -- pass 1: per-file + project rules ------------------------------
    for module in modules:
        if module.tree is None or not in_changed(module.path):
            continue
        findings.extend(
            _pass1_module_findings(module, file_rules, enforce_scope, cache)
        )
    for lint_rule in project_rules:
        findings.extend(lint_rule.check(project))

    # -- pass 2: whole-program rules over the graph --------------------
    program: Program | None = None
    if wp_rules:
        program = Program(modules, enforce_scope=enforce_scope)
        for lint_rule in wp_rules:
            findings.extend(lint_rule.check(program))

    # -- suppression filtering + accounting ----------------------------
    by_path = {module.path: module for module in modules}
    used: set[tuple[str, int, str]] = set()
    kept: list[Finding] = []
    for finding in findings:
        module = by_path.get(finding.path)
        if finding.rule == "PARSE" or module is None:
            kept.append(finding)
            continue
        match = module.match_suppression(finding.line, finding.rule)
        if match is None:
            kept.append(finding)
            continue
        scope_line, token = match
        used.add((finding.path, scope_line, token))
        if scope_line == 0:
            used.add((finding.path, 1, token))  # file-level = line-1 comment

    if "META001" in meta_active:
        consumed = set(program.consumed_suppressions) if program is not None else set()
        active_ids = {r.rule_id for r in rules}
        meta_findings = [
            finding
            for finding in _stale_suppression_findings(
                [m for m in modules if in_changed(m.path)], active_ids,
                used, consumed,
            )
            if by_path[finding.path].match_suppression(
                finding.line, "META001") is None
        ]
        kept.extend(meta_findings)

    kept = [f for f in kept if in_changed(f.path)]
    return sorted(set(kept))


def lint_paths(
    paths: Sequence[str | Path],
    rules: Iterable[Rule] | None = None,
    enforce_scope: bool = True,
    cache_dir: str | Path | None = None,
    changed: set[str] | None = None,
) -> list[Finding]:
    """Scan ``paths`` and run ``rules`` (default: every registered rule)."""
    from repro.lint.registry import all_rules

    active = list(rules) if rules is not None else all_rules()
    cache = None
    if cache_dir is not None:
        cache = LintCache(
            cache_dir,
            rules_fingerprint([r.rule_id for r in active], enforce_scope),
        )
    return run_rules(
        scan_paths(paths, cache=cache),
        active,
        enforce_scope=enforce_scope,
        cache=cache,
        changed=changed,
    )
