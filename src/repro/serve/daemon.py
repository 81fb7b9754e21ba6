"""Local HTTP JSON API over the job queue and run registry.

A :class:`ServeDaemon` binds a :class:`~repro.serve.jobs.JobQueue` and
a :class:`~repro.serve.store.RunRegistry` to a loopback
``ThreadingHTTPServer``. Handler threads only observe job state (or
enqueue/cancel); all sweep execution stays on the queue's single
executor thread feeding the warm pool.

Routes::

    GET  /health                 daemon liveness + pool stats
    POST /jobs                   submit a sweep spec (JSON body)
    GET  /jobs                   all jobs, submission order
    GET  /jobs/<id>              job status (+ streaming aggregate)
    GET  /jobs/<id>?wait=V&timeout=S   long-poll: block until the job
                                 advances past version V (or timeout)
    POST /jobs/<id>/cancel       request cancellation
    GET  /runs                   registry summaries
    GET  /runs/<fingerprint>     one recorded run (spec + aggregate)
    GET  /diff/<a>/<b>           deterministic cross-run diff

All responses are JSON rendered with ``sort_keys=True``. Handler
errors are logged (``log.exception``) and surfaced as JSON 500s —
never swallowed.
"""

from __future__ import annotations

import json
import logging
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from repro.fleet.pool import WorkerPool
from repro.fleet.resultcache import resolve_cache
from repro.serve.jobs import JobQueue
from repro.serve.store import RunRegistry

log = logging.getLogger("repro.serve")

DEFAULT_PORT = 7455
#: Long-poll waits are clamped to keep handler threads bounded.
MAX_WAIT_S = 30.0


class ServeDaemon:
    """The resident fleet service: warm pool + job queue + HTTP API."""

    def __init__(
        self,
        root: str | Path,
        workers: int = 1,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        retries: int = 2,
        executor: str = "auto",
        cache: bool | None = None,
        cache_dir: str | Path | None = None,
    ) -> None:
        self.root = Path(root)
        # One cache for every job of this daemon (and any concurrent
        # daemon pointed at the same root): default on, under the
        # service root next to the registry.
        self.cache = resolve_cache(cache, cache_dir,
                                   default_dir=self.root / "resultcache")
        self.pool = WorkerPool(workers, cache=self.cache) if workers > 1 else None
        self.workers = workers
        self.executor = executor
        self.registry = RunRegistry(self.root / "registry")
        self.queue = JobQueue(self.pool, self.registry,
                              self.root / "jobs", retries=retries,
                              executor=executor, cache=self.cache)
        self._server = ThreadingHTTPServer((host, port), _make_handler(self))
        self._server.daemon_threads = True

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolves port 0 to the real port."""
        return self._server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Run until :meth:`shutdown` (blocks the calling thread)."""
        self.queue.start()
        log.info("repro.serve listening on %s (workers=%d, root=%s)",
                 self.url, self.workers, self.root)
        try:
            self._server.serve_forever(poll_interval=0.2)
        finally:
            self.close()

    def shutdown(self) -> None:
        """Stop ``serve_forever`` from another thread."""
        self._server.shutdown()

    def close(self) -> None:
        """Release the socket, drain the queue thread, retire the pool."""
        self._server.server_close()
        self.queue.stop()
        if self.pool is not None:
            self.pool.shutdown()

    # -- used by tests that drive the API without serve_forever --------
    def start_background(self) -> None:
        import threading

        self.queue.start()
        thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.2},
            name="repro-serve-http", daemon=True)
        thread.start()

    def health(self) -> dict:
        cache = self.queue.cache_stats()
        if self.cache is not None:
            cache["dir"] = str(self.cache.root)
        return {
            "status": "ok",
            "workers": self.workers,
            "executor": self.executor,
            "warm_pool": self.pool is not None,
            "executors_spawned": (
                self.pool.executors_spawned if self.pool is not None else 0),
            "jobs": len(self.queue.jobs()),
            "runs": len(self.registry.fingerprints()),
            "cache": cache,
            "root": str(self.root),
        }


def _make_handler(daemon: ServeDaemon) -> type[BaseHTTPRequestHandler]:
    """Bind a handler class to one daemon instance."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve"

        # -- plumbing --------------------------------------------------
        def log_message(self, fmt: str, *args) -> None:
            log.debug("%s %s", self.address_string(), fmt % args)

        def _reply(self, code: int, payload: dict) -> None:
            body = json.dumps(payload, sort_keys=True).encode()
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _error(self, code: int, message: str) -> None:
            self._reply(code, {"error": message})

        def _body(self) -> dict:
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b"{}"
            payload = json.loads(raw or b"{}")
            if not isinstance(payload, dict):
                raise ValueError("request body must be a JSON object")
            return payload

        # -- dispatch --------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 (http.server naming)
            self._dispatch("GET")

        def do_POST(self) -> None:  # noqa: N802
            self._dispatch("POST")

        def _dispatch(self, method: str) -> None:
            url = urlparse(self.path)
            parts = [p for p in url.path.split("/") if p]
            try:
                self._route(method, parts, parse_qs(url.query))
            except ValueError as exc:
                self._error(400, str(exc))
            except BrokenPipeError:
                pass  # watcher went away mid-reply; nothing to send to
            except Exception as exc:
                log.exception("unhandled error serving %s %s",
                              method, self.path)
                self._error(500, f"{type(exc).__name__}: {exc}")

        def _route(self, method: str, parts: list[str], query: dict) -> None:
            if method == "GET" and parts == ["health"]:
                self._reply(200, daemon.health())
            elif method == "POST" and parts == ["jobs"]:
                job = daemon.queue.submit(self._body())
                self._reply(202, job.snapshot(aggregate=False))
            elif method == "GET" and parts == ["jobs"]:
                self._reply(200, {"jobs": [
                    job.snapshot(aggregate=False)
                    for job in daemon.queue.jobs()]})
            elif method == "GET" and len(parts) == 2 and parts[0] == "jobs":
                self._get_job(parts[1], query)
            elif (method == "POST" and len(parts) == 3
                  and parts[0] == "jobs" and parts[2] == "cancel"):
                job = daemon.queue.cancel(parts[1])
                if job is None:
                    self._error(404, f"no such job {parts[1]!r}")
                else:
                    self._reply(200, job.snapshot(aggregate=False))
            elif method == "GET" and parts == ["runs"]:
                self._reply(200, {"runs": daemon.registry.runs()})
            elif method == "GET" and len(parts) == 2 and parts[0] == "runs":
                try:
                    self._reply(200, daemon.registry.load(parts[1]))
                except KeyError as exc:
                    self._error(404, str(exc.args[0]))
            elif method == "GET" and len(parts) == 3 and parts[0] == "diff":
                try:
                    self._reply(200, daemon.registry.diff(parts[1], parts[2]))
                except KeyError as exc:
                    self._error(404, str(exc.args[0]))
            else:
                self._error(404, f"no route for {method} /{'/'.join(parts)}")

        def _get_job(self, job_id: str, query: dict) -> None:
            job = daemon.queue.get(job_id)
            if job is None:
                self._error(404, f"no such job {job_id!r}")
                return
            if "wait" in query:
                version = int(query["wait"][0])
                timeout = min(
                    float(query.get("timeout", ["10"])[0]), MAX_WAIT_S)
                job.wait(version, timeout)
            aggregate = query.get("aggregate", ["1"])[0] != "0"
            self._reply(200, job.snapshot(aggregate=aggregate))

    return Handler
