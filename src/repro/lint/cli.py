"""The ``python -m repro.lint`` / ``seedlint`` command line.

Exit codes: 0 — tree is clean; 1 — findings (or unparseable files);
2 — usage error (argparse).

The engine is two-pass (see :mod:`repro.lint.engine`): per-file +
project rules first, then whole-program rules over the import/call
graph. ``--changed <ref>`` restricts *reporting* to files changed vs a
git ref while the whole-program pass still loads the full graph —
fast local iteration without blinding the interprocedural rules.
``--cache-dir`` enables the content-hash parse/finding cache (what CI
persists between runs); ``--stats`` prints parse/cache/timing
telemetry to stderr.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path
from typing import Sequence

from repro.lint.cache import LintCache, rules_fingerprint
from repro.lint.engine import run_rules, scan_paths
from repro.lint.registry import all_rules
from repro.lint.reporters import render_json, render_sarif, render_text


def _default_paths() -> list[str]:
    """Lint ``src/`` when run from a checkout, else the working tree."""
    return ["src"] if Path("src").is_dir() else ["."]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seedlint",
        description="Two-pass AST static analysis enforcing the SEED "
        "reproduction's determinism (DET, incl. whole-program taint), "
        "protocol-completeness (PROTO), fleet-safety (SAFE), and "
        "lock-discipline (CONC) invariants.",
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to lint (default: src/)"
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids/prefixes to run (e.g. DET,SAFE003)",
    )
    parser.add_argument(
        "--ignore", metavar="RULES",
        help="comma-separated rule ids/prefixes to skip",
    )
    parser.add_argument(
        "--no-scope", action="store_true",
        help="apply every rule to every file, ignoring per-path scoping",
    )
    parser.add_argument(
        "--changed", metavar="REF",
        help="report findings only for files changed vs this git ref "
        "(the whole-program pass still analyses the full tree)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="content-hash parse/finding cache directory (unchanged "
        "files skip parsing and pass-1 analysis on warm runs)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print timing and cache-hit telemetry to stderr",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _match_prefixes(rule_id: str, spec: str) -> bool:
    return any(
        rule_id == token or rule_id.startswith(token)
        for token in (part.strip().upper() for part in spec.split(","))
        if token
    )


def _changed_files(ref: str) -> set[str] | None:
    """Resolved paths of ``*.py`` files changed vs ``ref`` (diff against
    the working tree, plus untracked files); None when git fails."""
    try:
        diff = subprocess.run(
            ["git", "diff", "--name-only", "-z", ref, "--"],
            capture_output=True, text=True, check=True,
        ).stdout
        untracked = subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard", "-z"],
            capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError) as exc:
        print(f"seedlint: --changed {ref}: git failed: {exc}", file=sys.stderr)
        return None
    changed: set[str] = set()
    for name in (diff + untracked).split("\0"):
        if name.endswith(".py"):
            changed.add(str(Path(name).resolve()))
    return changed


def _rule_kind(lint_rule) -> str:
    if lint_rule.meta:
        return "meta"
    if lint_rule.whole_program:
        return "whole-program"
    if lint_rule.project:
        return "project"
    return "file"


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    rules = all_rules()

    if args.list_rules:
        for lint_rule in rules:
            scope = ",".join(lint_rule.scope) if lint_rule.scope else "*"
            print(f"{lint_rule.rule_id}  [{_rule_kind(lint_rule)}; "
                  f"scope: {scope}]")
            print(f"    {lint_rule.summary}")
        return 0

    if args.select:
        rules = [r for r in rules if _match_prefixes(r.rule_id, args.select)]
    if args.ignore:
        rules = [r for r in rules if not _match_prefixes(r.rule_id, args.ignore)]

    changed: set[str] | None = None
    if args.changed:
        changed = _changed_files(args.changed)
        if changed is None:
            return 2
        if not changed:
            print(render_text([], files_checked=0))
            return 0

    cache = None
    if args.cache_dir:
        cache = LintCache(
            args.cache_dir,
            rules_fingerprint(
                [r.rule_id for r in rules], not args.no_scope),
        )

    started = time.perf_counter()
    modules = scan_paths(args.paths or _default_paths(), cache=cache)
    parsed = time.perf_counter()
    findings = run_rules(
        modules, rules,
        enforce_scope=not args.no_scope, cache=cache, changed=changed)
    finished = time.perf_counter()

    if args.stats:
        stats = cache.stats() if cache is not None else {}
        cache_line = (
            f", cache: {stats['parse_hits']}/{stats['parse_hits'] + stats['parse_misses']}"
            f" parse hits, {stats['finding_hits']}/"
            f"{stats['finding_hits'] + stats['finding_misses']} finding hits"
            if cache is not None else ", cache: off"
        )
        print(
            f"seedlint: parsed {len(modules)} files in "
            f"{parsed - started:.3f}s, analysed in "
            f"{finished - parsed:.3f}s{cache_line}",
            file=sys.stderr,
        )

    if args.format == "json":
        print(render_json(findings, files_checked=len(modules)))
    elif args.format == "sarif":
        print(render_sarif(findings, files_checked=len(modules), rules=rules))
    else:
        print(render_text(findings, files_checked=len(modules)))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
