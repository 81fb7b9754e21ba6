"""Content-hash parse and finding cache.

The whole-program pass needs every module of the tree parsed even when
only one file changed, so re-parsing dominates warm runs. The cache
keys everything by the **content digest** of each file:

* the *parse cache* stores the pickled AST + suppression table, so an
  unchanged file costs one hash + one unpickle instead of a parse;
* the *finding cache* stores pass-1 (per-file rule) findings **before
  suppression filtering** — suppressions are re-applied by the engine
  every run so the stale-suppression accounting (META001) stays exact.

Entries are additionally keyed by a *rules fingerprint* (active rule
ids + scope enforcement + schema version + interpreter version + a
digest of the linter's own source files): any change to the rule set,
a rule's logic or message, or the engine invalidates the whole cache
rather than risking stale findings. Paths never key anything — a file
moved without modification still hits; findings are re-anchored to the
current display path at load time.

The cache directory is safe to persist across CI runs
(``actions/cache``) and safe to delete at any time.
"""

from __future__ import annotations

import hashlib
import pickle
import sys
from functools import lru_cache
from pathlib import Path

#: Bump on any change to cached payload shapes. Rule and engine edits
#: need no bump: :func:`linter_digest` captures them.
CACHE_SCHEMA = 2


def content_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@lru_cache(maxsize=1)
def linter_digest() -> str:
    """sha256 over this package's source files (sorted relative path +
    bytes), so an edited rule never serves its old cached findings."""
    package = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


def rules_fingerprint(rule_ids: list[str], enforce_scope: bool) -> str:
    blob = "|".join([
        f"schema={CACHE_SCHEMA}",
        f"py={sys.version_info.major}.{sys.version_info.minor}",
        f"scope={int(enforce_scope)}",
        f"linter={linter_digest()}",
        *sorted(rule_ids),
    ])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class LintCache:
    """On-disk cache rooted at one directory, one subtree per
    rules-fingerprint generation."""

    def __init__(self, root: str | Path, fingerprint: str) -> None:
        self.root = Path(root) / fingerprint
        self.parse_hits = 0
        self.parse_misses = 0
        self.finding_hits = 0
        self.finding_misses = 0

    def _slot(self, digest: str, kind: str) -> Path:
        return self.root / digest[:2] / f"{digest}.{kind}"

    def _load(self, digest: str, kind: str) -> object | None:
        try:
            with open(self._slot(digest, kind), "rb") as handle:
                return pickle.load(handle)
        except (OSError, pickle.PickleError, EOFError, AttributeError):
            return None  # miss or torn entry; caller recomputes

    def _store(self, digest: str, kind: str, payload: object) -> None:
        slot = self._slot(digest, kind)
        try:
            slot.parent.mkdir(parents=True, exist_ok=True)
            tmp = slot.with_suffix(slot.suffix + ".tmp")
            with open(tmp, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            tmp.replace(slot)  # atomic: a killed run never leaves torn entries
        except OSError:
            pass  # a read-only cache dir degrades to cold runs, not errors

    # -- parse cache ---------------------------------------------------
    def load_parse(self, digest: str) -> tuple[object, dict] | None:
        """(tree, suppressions) for a content digest, if cached."""
        payload = self._load(digest, "ast")
        if payload is None:
            self.parse_misses += 1
            return None
        self.parse_hits += 1
        return payload  # type: ignore[return-value]

    def store_parse(self, digest: str, tree: object, suppressions: dict) -> None:
        self._store(digest, "ast", (tree, suppressions))

    # -- pass-1 finding cache ------------------------------------------
    def load_findings(
        self, digest: str, scope_key: str
    ) -> list[tuple[int, int, str, str]] | None:
        """Pre-suppression pass-1 findings as (line, col, rule, message)
        tuples; keyed by content digest + scope key (scoping decides
        which rules visited the file)."""
        payload = self._load(digest, "f1")
        if isinstance(payload, dict) and scope_key in payload:
            self.finding_hits += 1
            return payload[scope_key]
        self.finding_misses += 1
        return None

    def store_findings(
        self,
        digest: str,
        scope_key: str,
        findings: list[tuple[int, int, str, str]],
    ) -> None:
        payload = self._load(digest, "f1")
        table = payload if isinstance(payload, dict) else {}
        table[scope_key] = findings
        self._store(digest, "f1", table)

    # -- telemetry -----------------------------------------------------
    def stats(self) -> dict[str, int]:
        return {
            "parse_hits": self.parse_hits,
            "parse_misses": self.parse_misses,
            "finding_hits": self.finding_hits,
            "finding_misses": self.finding_misses,
        }
