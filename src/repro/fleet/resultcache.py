"""Content-addressed result cache: never simulate the same task twice.

``run_task`` is a pure function of its :class:`TaskSpec` — "results
depend only on the spec, never on which worker ran it" — which is
exactly the contract memoization needs. This module turns that
contract into an on-disk store of completed task records keyed by::

    sha256(code_fingerprint, scenario, handling, seed, horizon,
           android_timers)

``code_fingerprint`` hashes the source files of the deterministic
surface (simkernel/core/infra/nas/crypto/testbed/traces/transport/
device/sim_card), so any code change that could alter a record
invalidates the whole cache generation cleanly. The key deliberately
excludes ``task_id`` and ``replica`` (plan coordinates, rewritten on
hit) and anything about *how* a sweep runs — executor mode, worker
count, shard or cohort packing — because none of it affects the
record bytes (PROTO006 pins this statically).

Each entry stores the exact legacy checkpoint record plus the task's
learning-state wire form, so aggregates folded from hits are
byte-identical to recomputed ones by construction. Entries are
checksummed frames in append-only logs, one log per writer process::

    <root>/<generation>/<pid>-<seq>.log

where ``generation`` is the code fingerprint. A store is one
``os.write`` through the process's ``O_APPEND`` descriptor, so pool
workers and concurrent daemons never share a file and need no locks.
The dispatching process indexes the logs in memory, reading only the
bytes appended since its last :meth:`ResultCache.refresh`, so a lookup
is one dict probe, plus two ``pread`` calls and a full verify on a
hit. A corrupt, torn, or wrong-version frame degrades to a miss —
never an error.

Generation directories give eviction for free: :meth:`ResultCache.prune`
sums log sizes, drops dead generations first, then the live one's
oldest logs until under the size bound (``REPRO_RESULT_CACHE_MAX_MB``,
default 512).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import struct
import weakref
import zlib
from functools import lru_cache
from pathlib import Path
from typing import Iterator

from repro.fleet.planner import TaskSpec

log = logging.getLogger(__name__)

#: Frame header: magic, version byte, the raw 32-byte key, u32 body
#: length and the body's sha256; the body is zlib(canonical JSON). Bump
#: the version on any layout change — old frames then read as misses
#: and end an index scan, never garbage.
MAGIC = b"SEEDRC"
VERSION = 2
_HEADER = struct.Struct("<6sB32sI32s")

LOG_SUFFIX = ".log"
_APPEND_FLAGS = os.O_WRONLY | os.O_APPEND | os.O_CREAT | os.O_EXCL

#: The index maps the first 7 key bytes to ``offset << 32 | log id``.
#: Both ints stay below 2**60 (logs under 256 MiB), CPython's 32-byte
#: two-digit int, which keeps the index near 100 B per cached task. A
#: prefix collision costs a miss, never a wrong hit: a hit verifies the
#: full key.
_PREFIX_BYTES = 7
_ID_BITS = 32
_ID_MASK = (1 << _ID_BITS) - 1
#: Read buffer of the header-only log scans.
_SCAN_BUFFER = 1 << 16

#: Packages whose sources define the deterministic surface: anything
#: that can change a task record lives under one of these. fleet/serve
#: orchestration, analysis, and experiments are deliberately excluded
#: — they move records around but never produce their bytes.
DETERMINISTIC_PACKAGES = (
    "core", "crypto", "device", "infra", "nas", "sim_card", "simkernel",
    "testbed", "traces", "transport",
)

#: The TaskSpec fields a cache key may depend on — the fingerprint-
#: stable coordinates of the simulation itself. PROTO006 statically
#: pins :func:`task_key` to exactly this set: ``task_id``/``replica``
#: are plan coordinates, and executor/worker/shard choices never reach
#: the record bytes, so any of them in the key would only split
#: identical results across keys and kill the hit rate.
STABLE_KEY_FIELDS = ("android_timers", "handling", "horizon", "scenario",
                     "seed")

ENV_SWITCH = "REPRO_RESULT_CACHE"
ENV_MAX_MB = "REPRO_RESULT_CACHE_MAX_MB"
DEFAULT_CACHE_DIR = os.path.join(".repro-cache", "results")
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

_ENV_OFF = frozenset({"0", "off", "no", "false", "none"})


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of every deterministic-surface source file (the generation).

    Files are folded in sorted relative-path order with their path
    names, so renames invalidate too. 16 hex chars, matching the plan
    fingerprint width.
    """
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for package in DETERMINISTIC_PACKAGES:
        sources = sorted(Path(directory, name) for directory, _, names
                         in os.walk(package_root / package)
                         for name in names if name.endswith(".py"))
        for path in sources:
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
    return digest.hexdigest()[:16]


def task_key(task: TaskSpec, code: str) -> str:
    """Content address of one task's result under code version ``code``.

    Built from exactly the :data:`STABLE_KEY_FIELDS` of the spec — see
    the module docstring (and PROTO006) for why nothing else may leak
    in here.
    """
    material = {
        "android_timers": task.android_timers,
        "code": code,
        "handling": task.handling,
        "horizon": task.horizon,
        "scenario": task.scenario,
        "seed": task.seed,
    }
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _encode_entry(key: str, record: dict, learning: dict) -> bytes:
    """One frame: checksummed header + compressed canonical JSON."""
    body = zlib.compress(json.dumps(
        {"key": key, "learning": learning, "record": record},
        sort_keys=True, separators=(",", ":")).encode())
    return _HEADER.pack(MAGIC, VERSION, bytes.fromhex(key), len(body),
                        hashlib.sha256(body).digest()) + body


def _read_entry(path: str, offset: int, key: str) -> tuple[dict, dict] | None:
    """(record, learning) of the frame at ``offset``; ``None`` for any damage.

    Every failure mode — unreadable log, short read, bad magic, version
    skew, a key mismatch in header or body, length or checksum
    mismatch, undecodable body — is a miss by contract, so a torn or
    corrupted frame costs one recompute, never a run.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return None
    try:
        header = os.pread(fd, _HEADER.size, offset)
        if len(header) != _HEADER.size:
            return None
        magic, version, raw_key, body_len, checksum = _HEADER.unpack(header)
        start = offset + _HEADER.size
        if (magic != MAGIC or version != VERSION or raw_key.hex() != key
                or start + body_len > os.fstat(fd).st_size):
            return None
        body = os.pread(fd, body_len, start)
    except OSError:
        return None
    finally:
        os.close(fd)
    if len(body) != body_len or hashlib.sha256(body).digest() != checksum:
        return None
    try:
        entry = json.loads(zlib.decompress(body))
    except (zlib.error, ValueError):
        return None
    if (not isinstance(entry, dict) or entry.get("key") != key
            or not isinstance(entry.get("record"), dict)
            or not isinstance(entry.get("learning"), dict)):
        return None
    return entry["record"], entry["learning"]


def _frames(path: str, start: int, end: int) -> Iterator[tuple[int, bytes, int]]:
    """``(offset, raw key, body length)`` of each whole frame in
    ``[start, end)`` of a log.

    Reads headers only: bodies are skipped, never inflated. Stops at
    the first frame that runs past ``end`` (a torn tail, or one still
    being appended) or is not a current-version frame; an unreadable
    log yields nothing.
    """
    try:
        reader = open(path, "rb", buffering=_SCAN_BUFFER)
    except OSError:
        return
    with reader:
        try:
            reader.seek(start)
            while start + _HEADER.size <= end:
                header = reader.read(_HEADER.size)
                if len(header) != _HEADER.size:
                    return
                magic, version, raw_key, body_len, _ = _HEADER.unpack(header)
                stop = start + _HEADER.size + body_len
                if magic != MAGIC or version != VERSION or stop > end:
                    return
                yield start, raw_key, body_len
                reader.seek(body_len, os.SEEK_CUR)
                start = stop
        except OSError:
            return


def _count_frames(path: str, size: int) -> int:
    return sum(1 for _ in _frames(path, 0, size))


def _scan(directory: str) -> tuple[list[tuple[str, os.stat_result]], list[str]]:
    """``(name, stat)`` of each log in ``directory``, by name, and the
    paths of its subdirectories.

    One ``os.scandir`` and one ``stat`` per log. A missing directory
    lists as empty; an entry that vanishes between the listing and its
    ``stat`` is skipped.
    """
    try:
        with os.scandir(directory) as listing:
            entries = sorted(listing, key=lambda entry: entry.name)
    except OSError:
        return [], []
    logs, subdirs = [], []
    for entry in entries:
        try:
            if entry.name.endswith(LOG_SUFFIX):
                logs.append((entry.name, entry.stat()))
            elif entry.is_dir(follow_symlinks=False):
                subdirs.append(entry.path)
        except OSError:
            continue
    return logs, subdirs


class _Log:
    """What the index knows of one log: its id, inode and indexed length."""

    __slots__ = ("id", "inode", "indexed")

    def __init__(self, log_id: int, inode: int) -> None:
        self.id = log_id
        self.inode = inode
        self.indexed = 0


class ResultCache:
    """On-disk content-addressed store of completed task results.

    **Writers.** Every process that stores — a pool worker, the inline
    executor, another daemon on the same root — appends to a log of its
    own through one lazily opened ``O_APPEND`` descriptor, named from
    its pid and a sequence number. A forked pool worker inherits this
    object, descriptor included; the changed ``os.getpid()`` makes it
    close the inherited descriptor and open its own log, so no two
    processes ever write one file. Pickling keeps only ``(root,
    generation, max_bytes)``: a spawned worker starts with a fresh
    writer and an empty index. A writer also moves to a new log once
    prune has unlinked its current one or that one has passed
    ``max_bytes // 16`` bytes, which keeps eviction fine-grained.

    **Reader.** The index lives in the dispatching process, the only
    one that looks anything up (``pool._partition_cached``, which
    refreshes it once per sweep). Only the dispatching thread — the
    queue thread, in serve — may call :meth:`lookup`, :meth:`refresh`
    and :meth:`prune` or store through the inline executor, so the
    index needs no lock. It maps a key prefix to one packed int per
    cached task, about 100 B each. A miss also remembers its task and
    key until the next :meth:`refresh`, so :meth:`store` of that task
    need not derive the key again (never pickled; a stale entry of a
    forked worker is ignored unless its task is equal).

    ``code_version`` overrides the computed :func:`code_fingerprint`
    (tests force generation bumps with it); ``max_bytes`` bounds
    :meth:`prune` (env ``REPRO_RESULT_CACHE_MAX_MB`` below that,
    512 MiB by default).
    """

    def __init__(
        self,
        root: str | Path,
        code_version: str | None = None,
        max_bytes: int | None = None,
    ) -> None:
        self.root = Path(root)
        self.generation = (code_version if code_version is not None
                           else code_fingerprint())
        if max_bytes is None:
            env_mb = os.environ.get(ENV_MAX_MB)
            max_bytes = (int(env_mb) * 1024 * 1024 if env_mb
                         else DEFAULT_MAX_BYTES)
        self.max_bytes = max_bytes
        self._dir = os.path.join(self.root, self.generation)
        # Reader: key prefix -> offset << 32 | log id, plus per-log state.
        self._index: dict[int, int] = {}
        self._logs: dict[str, _Log] = {}
        self._names: dict[int, str] = {}
        self._next_id = 0
        self._refreshed = False
        # This sweep's misses: task_id -> (task, key), so the store of a
        # freshly computed task reuses the key its lookup derived.
        self._miss_keys: dict[int, tuple[TaskSpec, str]] = {}
        # Writer: the log this process appends to (``_pid`` owns ``_fd``).
        self._fd: int | None = None
        self._closer: weakref.finalize | None = None
        self._pid: int | None = None
        self._seq = 0
        self._log: _Log | None = None

    def __getstate__(self) -> tuple:
        return self.root, self.generation, self.max_bytes

    def __setstate__(self, state: tuple) -> None:
        root, generation, max_bytes = state
        self.__init__(root, code_version=generation, max_bytes=max_bytes)

    def key(self, task: TaskSpec) -> str:
        return task_key(task, self.generation)

    # -- lookups -------------------------------------------------------
    def lookup(self, task: TaskSpec) -> tuple[dict, dict] | None:
        """(record, learning wire form) for a hit, else ``None``.

        The stored record's ``task_id`` is rewritten to the requesting
        task's id — the one plan coordinate a record carries — so a hit
        from any prior sweep drops into this plan's aggregate order.
        """
        if not self._refreshed:
            self.refresh()
        key = self.key(task)
        where = self._index.get(int(key[:2 * _PREFIX_BYTES], 16))
        if where is None:
            self._miss_keys[task.task_id] = (task, key)
            return None
        name = self._names[where & _ID_MASK]
        entry = _read_entry(os.path.join(self._dir, name), where >> _ID_BITS,
                            key)
        if entry is None:
            log.debug("result cache: unreadable entry for %s (treated as "
                      "a miss)", key)
            return None
        record, learning = entry
        record["task_id"] = task.task_id
        return record, learning

    def refresh(self) -> None:
        """Index every frame appended since the last refresh.

        One ``os.scandir`` plus one ``stat`` per log; only logs that
        grew are opened, and only their new headers are read. Logs are
        taken in name order, so a later frame of a key wins. A torn
        tail ends its log's scan and is retried next time; a log that
        vanished (evicted) or was replaced is forgotten together with
        its index entries.
        """
        self._refreshed = True
        self._miss_keys.clear()
        logs, _ = _scan(self._dir)
        inodes = {name: stat.st_ino for name, stat in logs}
        stale = [name for name, state in self._logs.items()
                 if inodes.get(name) != state.inode]
        if stale:
            self._forget(stale)
        for name, stat in logs:
            state = self._logs.get(name) or self._track(name, stat.st_ino)
            if stat.st_size <= state.indexed:
                continue
            for offset, raw_key, body_len in _frames(
                    os.path.join(self._dir, name), state.indexed,
                    stat.st_size):
                prefix = int.from_bytes(raw_key[:_PREFIX_BYTES], "big")
                self._index[prefix] = offset << _ID_BITS | state.id
                state.indexed = offset + _HEADER.size + body_len

    def _track(self, name: str, inode: int) -> _Log:
        if name in self._logs:
            self._forget([name])  # a new file under a known name
        state = self._logs[name] = _Log(self._next_id, inode)
        self._names[state.id] = name
        self._next_id += 1
        return state

    def _forget(self, names: list[str]) -> None:
        gone = [self._logs.pop(name).id for name in names]
        for log_id in gone:
            del self._names[log_id]
        dead = frozenset(gone)
        self._index = {prefix: where for prefix, where in self._index.items()
                       if where & _ID_MASK not in dead}

    # -- write-back ----------------------------------------------------
    def store(self, task: TaskSpec, record: dict, learning: dict) -> bool:
        """Append one completed task; returns whether the frame landed.

        One ``os.write`` of a whole frame, no fsync, no rename: a crash
        mid-append leaves a torn tail that scans and reads as a miss,
        and a short write abandons the log so the torn frame stays its
        tail. Failures are best-effort — a cache that cannot write must
        never fail the sweep.
        """
        miss = self._miss_keys.pop(task.task_id, None)
        key = miss[1] if miss is not None and miss[0] == task else self.key(task)
        frame = _encode_entry(key, record, learning)
        try:
            fd = self._log_fd()
            written = os.write(fd, frame)
        except OSError as exc:
            log.debug("result cache: store of %s failed: %s", key, exc)
            self._close_log()
            return False
        state = self._log
        offset = state.indexed
        state.indexed += written
        if written != len(frame):
            log.debug("result cache: short append of %s", key)
            self._close_log()
            return False
        self._index[int(key[:2 * _PREFIX_BYTES], 16)] = (
            offset << _ID_BITS | state.id)
        return True

    def _log_fd(self) -> int:
        """This process's append descriptor, opening a new log when the
        current one is inherited from a parent, evicted, or full."""
        pid = os.getpid()
        if self._fd is not None and (
                pid != self._pid
                or self._log.indexed > self.max_bytes // 16
                or os.fstat(self._fd).st_nlink == 0):
            self._close_log()
        if self._fd is None:
            os.makedirs(self._dir, exist_ok=True)
            while True:
                name = f"{pid}-{self._seq}{LOG_SUFFIX}"
                self._seq += 1
                try:
                    fd = os.open(os.path.join(self._dir, name),
                                 _APPEND_FLAGS, 0o644)
                except FileExistsError:
                    continue  # left behind by an earlier process, same pid
                break
            self._fd, self._pid = fd, pid
            self._closer = weakref.finalize(self, os.close, fd)
            self._log = self._track(name, os.fstat(fd).st_ino)
        return self._fd

    def _close_log(self) -> None:
        if self._closer is not None:
            self._closer()
        self._fd = self._closer = self._log = None

    # -- bookkeeping ---------------------------------------------------
    def _generation_names(self) -> list[str]:
        try:
            with os.scandir(self.root) as listing:
                return sorted(entry.name for entry in listing
                              if entry.is_dir())
        except OSError:
            return []

    def stats(self) -> dict:
        """Frame/byte counts per generation (CI artifact material)."""
        generations: dict[str, dict] = {}
        for gen in self._generation_names():
            directory = os.path.join(self.root, gen)
            logs, _ = _scan(directory)
            generations[gen] = {
                "entries": sum(
                    _count_frames(os.path.join(directory, name), stat.st_size)
                    for name, stat in logs),
                "bytes": sum(stat.st_size for _, stat in logs),
            }
        return {
            "root": str(self.root),
            "generation": self.generation,
            "max_bytes": self.max_bytes,
            "generations": generations,
        }

    def prune(self) -> dict:
        """Enforce the size bound; returns what was evicted.

        Costs one ``os.scandir`` per generation plus one ``stat`` per
        log: sizes are summed per log, entries are never walked. A
        leftover v1 tree (``<gen>/<key[:2]>/*.rc``) can never hit again
        and always goes — :func:`code_fingerprint` does not hash this
        module, so one can sit in the live generation. Over the bound,
        dead generations go first, whole, in name order; then the live
        generation's oldest logs, by mtime then name, until under it.
        ``removed_entries`` counts the frames in the evicted logs.
        Anything that vanishes mid-prune (a concurrent pruner got there
        first) is skipped, never raised.
        """
        generations: dict[str, list[tuple[str, os.stat_result]]] = {}
        for gen in self._generation_names():
            logs, leftovers = _scan(os.path.join(self.root, gen))
            for path in leftovers:
                shutil.rmtree(path, ignore_errors=True)
            generations[gen] = logs
        total = sum(stat.st_size for logs in generations.values()
                    for _, stat in logs)
        removed_generations = 0
        removed_entries = 0
        for gen, logs in generations.items():
            if total <= self.max_bytes:
                break
            if gen == self.generation:
                continue
            shutil.rmtree(os.path.join(self.root, gen), ignore_errors=True)
            total -= sum(stat.st_size for _, stat in logs)
            removed_generations += 1
        oldest_first = sorted(generations.get(self.generation, ()),
                              key=lambda log: (log[1].st_mtime_ns, log[0]))
        for name, stat in oldest_first:
            if total <= self.max_bytes:
                break
            path = os.path.join(self._dir, name)
            frames = _count_frames(path, stat.st_size)
            try:
                os.unlink(path)
            except FileNotFoundError:
                frames = 0  # evicted by a concurrent pruner
            except OSError as exc:
                log.debug("result cache: prune of %s failed: %s", path, exc)
                continue
            total -= stat.st_size
            removed_entries += frames
        return {"removed_generations": removed_generations,
                "removed_entries": removed_entries}


def resolve_cache(
    enabled: bool | None,
    cache_dir: str | Path | None = None,
    default_dir: str | Path | None = None,
) -> ResultCache | None:
    """CLI/daemon cache policy: flags beat the environment beats defaults.

    ``enabled`` is the tri-state ``--cache/--no-cache`` flag (``None``
    when neither was given). The ``REPRO_RESULT_CACHE`` variable then
    applies: an off value (``0/off/no/false/none``) disables, any other
    non-empty value is taken as the cache directory. The cache is on by
    default, under ``cache_dir`` / ``default_dir`` /
    ``.repro-cache/results``.
    """
    if enabled is False:
        return None
    env = os.environ.get(ENV_SWITCH, "").strip()
    if env and enabled is None and env.lower() in _ENV_OFF:
        return None
    root = cache_dir
    if root is None and env and env.lower() not in _ENV_OFF:
        root = env
    if root is None:
        root = default_dir if default_dir is not None else DEFAULT_CACHE_DIR
    return ResultCache(root)
