"""The repository benchmark: ``table4``, ``matrix`` and ``serve``.

One run::

    python3 perfbench/run.py --workload table4 --seed 1 --seconds 20 --trace 0

measures one workload and prints, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``. Without
``--workload`` all three run in turn, one result line each. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run is
repeated with layer spans recorded and the metrics are the per-layer
ledger (plus the tracing overhead and the share of wall no span
covers). Lines before the last one carry the run's metadata and, in
traced runs, the ledger table and the metrics it could not measure.

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``table4`` — back-to-back Table 4 sweeps, ``FleetRunner(workers=1)``
  (inline), checkpoint directory + result cache (all misses);
* ``matrix`` — the 18-scenario x 3-mode cohort matrix,
  ``FleetRunner(workers=2)`` (a cold process pool per sweep);
* ``serve`` — the daemon started through its CLI with a warm pool of
  two, driven by one closed-loop ``ServeClient`` over a seeded mix of
  probe matrices, Table 4 sweeps and cache-served resubmits.

Every run starts from fresh cache, checkpoint and registry roots under
``.perfbench-work/`` in the checkout, removed again at the end. Every
sweep's and job's ``aggregate.json`` is checked; see :mod:`checks`.

Other modes::

    python3 perfbench/run.py --workload serve --repeat 10 [--sets 2]
        steadiness: N runs on seeds seed..seed+N-1, then each metric's
        median, quartiles and spread (and, with two sets, their drift)
    python3 perfbench/run.py --regen-digests
        recompute perfbench/digests.json (default seed, default length)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import checks  # noqa: E402
import inputs as gen  # noqa: E402
import ledger  # noqa: E402
import stats  # noqa: E402
from host import FORBIDDEN_ENV_PREFIXES  # noqa: E402

WORKLOADS = ("table4", "matrix", "serve")
DEFAULT_SEED = 1
#: Set-ups per run; ``setup_s`` is their median. One is the measured
#: process's own; of the set-up-only ones, half run before the measured
#: phase and half after it, so the median spans the run's machine
#: state. A serve set-up starts a daemon and spawns its pool (~1.5 s),
#: a fleet one imports and warms up (~0.6 s, ~0.9 s with a pool fork).
SETUP_SAMPLES = {"table4": 9, "matrix": 9, "serve": 5}
#: Hard stop for any one program process, request, readiness wait or
#: job.
PROCESS_TIMEOUT_S = 170
#: The serve daemon's warm pool size.
SERVE_WORKERS = 2
WORK_ROOT = ROOT / ".perfbench-work"

#: The gated end-to-end metrics. Each workload must report each of
#: them, so two medians are printed in every run's metadata but not
#: gated. ``first_result_p50_ms`` (submit to the first streamed shard)
#: is one ~45 ms / ~200 ms window per ``table4``/``matrix`` sweep, whose
#: median over a run spread 17-33 % across runs of identical inputs on
#: a 2-vCPU VM. ``job_p50_ms`` reads the machine's speed at the median
#: job, and that speed is not steady (see :data:`WINDOW_QUANTILE`): in
#: sets of ten runs it spread up to 21 % on ``table4`` and 26 % on
#: ``serve``.
END_TO_END_UNITS = {
    "tasks_per_s": "tasks/s", "setup_s": "s", "peak_rss_mb": "MB",
    "completed_ratio": "fraction", "job_p90_ms": "ms",
}
#: ``tasks_per_s`` is this percentile of the run's per-window rates (a
#: window is a sweep, or on ``serve`` a job cycle; the metadata line
#: counts both): the rate three windows in four reach. On a shared 2-vCPU VM the CPU holds a steady
#: base speed between bursts of up to 1.7x that last 10-40 s. A
#: whole-phase rate, or a median, counts however much of the run the
#: bursts happened to cover: over ten ``matrix`` runs it spread up to 25 %.
#: The lower quartile reads the base speed and spread 6-14 %, and
#: ``job_p90_ms`` does the same (8-16 %).
WINDOW_QUANTILE = 25
#: Metadata medians the steadiness mode summarises beside the gated
#: metrics.
PRINTED_ONLY = ("job_p50_ms", "first_result_p50_ms")


class BenchError(RuntimeError):
    """The benchmark could not run the program (no result is printed)."""


class Window(NamedTuple):
    """One measured sweep or job: its span of wall, its class, the
    processes that simulated in it (1 inline, the pool's workers on the
    pool) and its tasks."""

    start: float
    end: float
    cls: str
    lanes: int
    tasks: int


def program_env(work: Path) -> dict:
    """The program's environment: the benchmark's, minus anything that
    changes which layers run, with the source tree on the path and
    temporary files kept inside the work directory."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(FORBIDDEN_ENV_PREFIXES)}
    env["PYTHONPATH"] = str(SRC)
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def _default_sigint() -> None:
    """In the daemon before exec: SIGINT stops it cleanly (pool shut
    down, spans flushed) even when this benchmark was started with
    SIGINT ignored, as a shell does for background jobs."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _first_line(proc: subprocess.Popen, what: str) -> str:
    """The first line ``proc`` prints, waiting at most
    :data:`PROCESS_TIMEOUT_S`."""
    ready, _, _ = select.select([proc.stdout], [], [], PROCESS_TIMEOUT_S)
    if not ready:
        raise BenchError(f"{what}: no output within {PROCESS_TIMEOUT_S} s")
    return proc.stdout.readline()


def _stop(proc: subprocess.Popen, sig: int = signal.SIGINT) -> None:
    """Stop a program process and everything it started; wait for it."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # stragglers of its session
    except ProcessLookupError:
        pass
    proc.wait()


# ---------------------------------------------------------------------------
# table4 / matrix
# ---------------------------------------------------------------------------
def launch_host(spec: dict, sub: Path, env: dict) -> tuple[float, Path]:
    """Run one host process; returns (set-up seconds, result path)."""
    sub.mkdir(parents=True, exist_ok=True)
    inputs_path, result_path = sub / "inputs.json", sub / "result.json"
    inputs_path.write_text(json.dumps(dict(spec, work_dir=str(sub))))
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "host.py"), str(inputs_path),
         str(result_path)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        start_new_session=True)
    try:
        line = _first_line(proc, "host")
        setup = time.perf_counter() - started
        if line.strip() != "ready":
            raise BenchError(f"host did not get ready: {line.strip()!r}")
        code = proc.wait(timeout=PROCESS_TIMEOUT_S)
        if code != 0:
            raise BenchError(f"host exited {code}")
    finally:
        proc.stdout.close()
        _stop(proc, signal.SIGTERM)
    return setup, result_path


def fleet_run(workload: str, seed: int, seconds: float, work: Path,
              setups: int | None = None, trace_dir: Path | None = None,
              spec: dict | None = None) -> dict:
    spec = spec or gen.fleet_inputs(workload, seed, seconds)
    env = program_env(work)

    def setup_only(index: int) -> float:
        return launch_host(dict(spec, setup_only=True),
                           work / f"setup-{index}", env)[0]

    extra = (setups or SETUP_SAMPLES[workload]) - 1
    samples = [setup_only(i) for i in range(extra // 2)]
    name = "traced" if trace_dir else "run"
    setup, result_path = launch_host(
        dict(spec, trace_dir=str(trace_dir) if trace_dir else None),
        work / name, env)
    samples.append(setup)
    samples += [setup_only(i) for i in range(extra // 2, extra)]
    result = json.loads(result_path.read_text())
    verdict = checks.verify_fleet(workload, spec, result, seed)
    sweeps = result["sweeps"]
    walls = [s["wall_s"] * 1e3 for s in sweeps]
    return {
        "spec": spec, "result": result, "verdict": verdict,
        "metrics": {
            "tasks_per_s": stats.percentile(
                [s["tasks"] / s["wall_s"] for s in sweeps], WINDOW_QUANTILE,
                min_beyond=0),
            "setup_s": statistics.median(samples),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "completed_ratio": verdict.ratio,
            # A batch job is one sweep. A run holds tens of sweeps, not
            # hundreds, so its p90 has fewer than ten samples beyond it.
            "job_p90_ms": stats.percentile(walls, 90, min_beyond=0),
        },
        "meta": {"sweeps": len(sweeps), "tasks": verdict.attempted,
                 # Printed, not gated: see END_TO_END_UNITS.
                 "job_p50_ms": stats.percentile(walls, 50, min_beyond=0),
                 "first_result_p50_ms": statistics.median(
                     s["first_result_s"] * 1e3 for s in sweeps),
                 "setup_samples": len(samples),
                 "job_percentile_samples": len(walls),
                 "jobs_beyond_p90": stats.beyond(len(walls), 90)},
        "windows": [Window(s["started"], s["started"] + s["wall_s"], workload,
                           spec["workers"] if s["child_cpu_s"] > 0 else 1,
                           s["tasks"])
                    for s in sweeps],
        "main_pid": result["pid"],
        "workers": spec["workers"],
    }


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------
def start_daemon(root: Path, env: dict, work: Path,
                 trace_dir: Path | None = None):
    args = ["--port", "0", "start", "--root", str(root), "--workers",
            str(SERVE_WORKERS)]
    if trace_dir is None:
        cmd = [sys.executable, "-m", "repro.serve", *args]
    else:
        cmd = [sys.executable, str(HERE / "serve_entry.py"), *args]
        env = dict(env, PERFBENCH_TRACE_DIR=str(trace_dir))
    err = (work / f"daemon-{root.name}.log").open("w")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                            text=True, env=env, cwd=ROOT,
                            start_new_session=True,
                            preexec_fn=_default_sigint)
    err.close()
    try:
        line = _first_line(proc, "daemon")
    except BenchError:
        _stop(proc)
        raise
    marker = "http://127.0.0.1:"
    if marker not in line:
        _stop(proc)
        raise BenchError(f"daemon did not start: {line.strip()!r}")
    port = int(line.split(marker, 1)[1].split()[0])
    return proc, port, started


def run_job(client, spec: dict) -> dict:
    """Submit, long-poll to a terminal state; client-side timings.

    Raises :class:`BenchError` when the job is not over within
    :data:`PROCESS_TIMEOUT_S`.
    """
    started = time.perf_counter()
    deadline = started + PROCESS_TIMEOUT_S
    status = client.submit(spec)
    submit_s = time.perf_counter() - started
    requests, first = 1, None
    while status["state"] in ("queued", "running"):
        left = deadline - time.perf_counter()
        if left <= 0:
            raise BenchError(f"job {status['job_id']} still {status['state']} "
                             f"after {PROCESS_TIMEOUT_S} s")
        status = client.job(status["job_id"], wait=status["version"],
                            timeout=min(30.0, left), aggregate=False)
        requests += 1
        if first is None and status["shards_done"] > 0:
            first = time.perf_counter() - started
    ended = time.perf_counter()
    return {"started": started, "ended": ended,
            "latency_s": ended - started,
            "first_s": first if first is not None else ended - started,
            "submit_s": submit_s, "requests": requests, "status": status}


def _proc_field(pid: int, name: str) -> str:
    return Path(f"/proc/{pid}/{name}").read_text()


def pool_workers(daemon_pid: int) -> list[int]:
    """The warm pool's spawned workers: children of the daemon."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = _proc_field(int(entry.name), "stat")
            cmdline = _proc_field(int(entry.name), "cmdline")
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        if ppid == daemon_pid and "spawn_main" in cmdline:
            found.append(int(entry.name))
    return sorted(found)


def cpu_ticks(pids: list[int]) -> int:
    total = 0
    for pid in pids:
        fields = _proc_field(pid, "stat").rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])  # utime + stime
    return total


def peak_rss_kb(pids: list[int]) -> int:
    total = 0
    for pid in pids:
        for line in _proc_field(pid, "status").splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1])
    return total


def cycle_rates(jobs: list[dict]) -> list[float]:
    """Tasks per second of each job cycle (``inputs.SERVE_CYCLE``): its
    tasks over the wall from its first submit to its last job's end."""
    size = len(gen.SERVE_CYCLE)
    rates = []
    for first in range(0, len(jobs) - size + 1, size):
        cycle = jobs[first:first + size]
        rates.append(sum(j["status"]["tasks_total"] for j in cycle)
                     / (cycle[-1]["ended"] - cycle[0]["started"]))
    return rates


def serve_setup(root: Path, env: dict, work: Path, spec: dict,
                trace_dir: Path | None = None):
    """Start a daemon and warm it up; returns (proc, client, set-up s)."""
    from repro.serve.client import ServeClient

    proc, port, started = start_daemon(root, env, work, trace_dir)
    try:
        client = ServeClient(port=port, timeout=PROCESS_TIMEOUT_S)
        for warm in spec["warmup"]:
            outcome = run_job(client, warm)
            if outcome["status"]["state"] != "done":
                raise BenchError(f"warm-up job ended {outcome['status']}")
    except BaseException:
        _stop(proc)
        raise
    return proc, client, time.perf_counter() - started


def serve_run(seed: int, seconds: float, work: Path, setups: int | None = None,
              trace_dir: Path | None = None, spec: dict | None = None) -> dict:
    spec = spec or gen.serve_inputs(seed, seconds)
    env = program_env(work)

    def setup_only(index: int) -> float:
        proc, _client, setup = serve_setup(work / f"setup-{index}", env, work,
                                           spec)
        _stop(proc)
        return setup

    extra = (setups or SETUP_SAMPLES["serve"]) - 1
    samples = [setup_only(i) for i in range(extra // 2)]
    root = work / ("traced" if trace_dir else "run")
    proc, client, setup = serve_setup(root, env, work, spec, trace_dir)
    samples.append(setup)
    try:
        workers = pool_workers(proc.pid)
        jobs = []
        for job in spec["jobs"]:
            before = cpu_ticks(workers)
            outcome = run_job(client, job["spec"])
            outcome["worker_ticks"] = cpu_ticks(workers) - before
            jobs.append(outcome)
        health = client.health()
        rss_kb = peak_rss_kb([proc.pid, *workers])
    finally:
        _stop(proc)
    samples += [setup_only(i) for i in range(extra // 2, extra)]
    verdict = checks.verify_serve(spec, jobs, root, workers, health, seed)
    latencies = [(j["latency_s"] * 1e3, job["class"])
                 for j, job in zip(jobs, spec["jobs"])]
    values = [value for value, _cls in latencies]
    firsts = [j["first_s"] * 1e3 for j in jobs]
    classes = {}
    for q in (50, 90):
        try:
            stats.percentile(values, q)
            classes[q] = stats.check_inside_class(latencies, q)
        except stats.SampleError as exc:
            verdict.problems.append(f"guard: job latency {exc}")
            classes[q] = None
    return {
        "spec": spec, "jobs": jobs, "verdict": verdict,
        "metrics": {
            "tasks_per_s": stats.percentile(cycle_rates(jobs),
                                            WINDOW_QUANTILE, min_beyond=0),
            "setup_s": statistics.median(samples),
            "peak_rss_mb": rss_kb / 1024.0,
            "completed_ratio": verdict.ratio,
            # Guarded above: a failed guard already fails the run.
            "job_p90_ms": stats.percentile(values, 90, min_beyond=0),
        },
        "meta": {"jobs": len(jobs), "cycles": len(jobs) // len(gen.SERVE_CYCLE),
                 # Printed, not gated: see END_TO_END_UNITS.
                 "job_p50_ms": stats.percentile(values, 50, min_beyond=0),
                 "first_result_p50_ms": stats.percentile(firsts, 50),
                 "tasks": verdict.attempted, "setup_samples": len(samples),
                 "job_percentile_samples": len(values),
                 "jobs_beyond_p90": stats.beyond(len(values), 90),
                 "p50_class": classes[50], "p90_class": classes[90]},
        "windows": [Window(j["started"], j["ended"], job["class"],
                           SERVE_WORKERS if j["worker_ticks"] > 0 else 1,
                           j["status"]["tasks_total"])
                    for j, job in zip(jobs, spec["jobs"])],
        "main_pid": proc.pid,
        "workers": SERVE_WORKERS,
    }


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------
def traced_run(workload: str, seed: int, seconds: float, work: Path,
               spec: dict | None = None) -> dict:
    """Untraced run, traced run of the same inputs, profile replay of
    the first sweep or job of each class that simulates."""
    trace_dir = work / "spans"
    if workload == "serve":
        plain = serve_run(seed, seconds, work / "plain", setups=1, spec=spec)
        traced = serve_run(seed, seconds, work / "traced", setups=1,
                           trace_dir=trace_dir, spec=plain["spec"])
        # Resubmits are served from the cache: they simulate nothing.
        replay_specs = {cls: next(j["spec"] for j in plain["spec"]["jobs"]
                                  if j["class"] == cls)
                        for cls in ("sweep", "probe")}
    else:
        plain = fleet_run(workload, seed, seconds, work / "plain", setups=1,
                          spec=spec)
        traced = fleet_run(workload, seed, seconds, work / "traced", setups=1,
                           trace_dir=trace_dir, spec=plain["spec"])
        replay_specs = {workload: plain["spec"]["sweeps"][0]}
    profiles = profile_replay(replay_specs, work, program_env(work))
    spans = ledger.load(trace_dir)
    phase_start = min(w.start for w in traced["windows"])
    metrics, missing = ledger.per_layer(
        spans, traced["main_pid"], traced["verdict"].attempted,
        traced["workers"], profiles, traced["windows"])
    metrics.update(serve_client_metrics(traced, missing))
    metrics["trace.overhead"] = (
        1.0 - traced["metrics"]["tasks_per_s"] / plain["metrics"]["tasks_per_s"])
    metrics["trace.uncovered_share"] = 1.0 - ledger.covered_share(
        spans, traced["main_pid"], traced["windows"])
    wall = sum(w.end - w.start for w in traced["windows"])
    return {"plain": plain, "traced": traced, "metrics": metrics,
            "missing": missing,
            "layers": ledger.layer_self_seconds(
                [s for s in spans if s["start"] >= phase_start],
                traced["main_pid"]),
            "wall_s": wall}


def serve_client_metrics(run: dict, missing: dict) -> dict:
    jobs = run.get("jobs")
    names = ("serve.first_result_p50_ms", "serve.requests_per_job",
             "serve.request_ms", "serve.queue_wait_ms", "serve.run_wall_ms")
    if not jobs:
        missing.update({name: "no daemon on this workload" for name in names})
        return {name: 0.0 for name in names}
    timings = [j["status"]["timings"] for j in jobs]
    return {
        "serve.first_result_p50_ms": run["meta"]["first_result_p50_ms"],
        "serve.requests_per_job": statistics.fmean(j["requests"] for j in jobs),
        "serve.request_ms": statistics.fmean(j["submit_s"] for j in jobs) * 1e3,
        "serve.queue_wait_ms": statistics.fmean(
            t["queue_wait_s"] for t in timings) * 1e3,
        "serve.run_wall_ms": statistics.fmean(
            t["run_wall_s"] for t in timings) * 1e3,
    }


def profile_replay(specs: dict[str, dict], work: Path, env: dict) -> dict:
    """Replay each class's spec in a fresh process; class -> rollup."""
    profiles = {}
    for cls, spec in specs.items():
        spec_path = work / f"profile-{cls}.json"
        out_path = work / f"profile-{cls}.out.json"
        spec_path.write_text(json.dumps(spec))
        subprocess.run([sys.executable, str(HERE / "profile_replay.py"),
                        str(spec_path), str(out_path)],
                       env=env, cwd=ROOT, check=True,
                       timeout=PROCESS_TIMEOUT_S)
        profiles[cls] = json.loads(out_path.read_text())
    return profiles


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------
def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def unit_of(name: str) -> str:
    for metric in benchmark_spec()["per_layer"]:
        if metric["name"] == name:
            return metric["unit"]
    raise KeyError(name)


def metadata(workload: str, seed: int, seconds: float, run: dict) -> dict:
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(), **run["meta"]}


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             work: Path) -> tuple[dict, bool]:
    if trace:
        outcome = traced_run(workload, seed, seconds, work)
        run = outcome["traced"]
        print(json.dumps({"meta": metadata(workload, seed, seconds, run)},
                         sort_keys=True))
        print(f"ledger ({workload}): self time per layer over "
              f"{outcome['wall_s']:.2f} s of measured wall")
        for layer, sides in outcome["layers"].items():
            print(f"  {layer:12s} main {sides['main_s']:8.3f} s "
                  f"({sides['main_s'] / outcome['wall_s']:6.1%})   "
                  f"workers {sides['workers_s']:8.3f} s")
        for name, reason in sorted(outcome["missing"].items()):
            print(f"  missing {name}: {reason}")
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in sorted(outcome["metrics"].items())}
        verdicts = [outcome["plain"]["verdict"], run["verdict"]]
    else:
        run = (serve_run(seed, seconds, work) if workload == "serve"
               else fleet_run(workload, seed, seconds, work))
        print(json.dumps({"meta": metadata(workload, seed, seconds, run)},
                         sort_keys=True))
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in run["metrics"].items()}
        verdicts = [run["verdict"]]
    for verdict in verdicts:
        for problem in verdict.problems:
            print(f"check failed: {problem}", file=sys.stderr)
    correct = all(v.ok for v in verdicts)
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.attempted - v.verified for v in verdicts)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, correct


def steadiness(workload: str, seed: int, seconds: float, repeat: int,
               sets: int) -> int:
    """Repeat a workload and print each end-to-end metric's spread.

    Set ``k`` runs seeds ``seed + k * repeat`` onwards. The sets take
    turns (set 1's run i, set 2's run i, ...), so a slow drift in the
    machine's speed lands on every set alike, not on their difference.
    The medians printed in the metadata but not gated
    (:data:`PRINTED_ONLY`) get the same summary, with no bound.
    """
    bounds = {m["name"]: m["bound"] for m in benchmark_spec()["end_to_end"]}
    values: list[dict[str, list[float]]] = [{} for _ in range(sets)]
    for offset in range(repeat):
        for set_index in range(sets):
            run_seed = seed + set_index * repeat + offset
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(run_seed), "--seconds", str(seconds),
                 "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT,
                timeout=PROCESS_TIMEOUT_S + 60)
            if out.returncode != 0:
                print(out.stdout + out.stderr)
                return 1
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            meta = json.loads(lines[-2])["meta"]
            for name in PRINTED_ONLY:
                result["metrics"][name] = {"value": meta[name]}
            for name, metric in result["metrics"].items():
                values[set_index].setdefault(name, []).append(metric["value"])
            print(f"  set {set_index + 1} seed {run_seed}: " + "  ".join(
                f"{name} {metric['value']:.4g}"
                for name, metric in sorted(result["metrics"].items())),
                flush=True)
    medians: list[dict] = []
    for set_index in range(sets):
        print(f"{workload} set {set_index + 1}: {repeat} runs, "
              f"seconds={seconds}, cpu_count={os.cpu_count()}")
        row = {}
        for name, series in sorted(values[set_index].items()):
            s = stats.spread(series)
            row[name] = s["median"]
            print(f"  {name:22s} median {s['median']:12.4f}  q1 {s['q1']:12.4f}"
                  f"  q3 {s['q3']:12.4f}  spread {s['spread']:7.2%}"
                  + (f"  bound {bounds[name]:.0%}" if name in bounds
                     else "  (printed, not gated)"))
        medians.append(row)
    for later in medians[1:]:
        print(f"{workload} drift of set medians vs set 1:")
        for name, value in sorted(later.items()):
            base = medians[0][name]
            print(f"  {name:22s} {value / base - 1.0 if base else 0.0:+7.2%}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int,
                        help="steadiness mode: runs per set")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--regen-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    seconds = (args.seconds if args.seconds is not None
               else benchmark_spec()["run_seconds"])
    if args.regen_digests:
        checks.regen_digests(DEFAULT_SEED, seconds)
        return 0
    if args.repeat:
        if args.workload is None:
            parser.error("--repeat needs --workload")
        return steadiness(args.workload, args.seed, seconds, args.repeat,
                          args.sets)

    # Without --workload, every workload runs in turn; each result line
    # then names its workload.
    everything = args.workload is None
    all_correct = True
    for workload in WORKLOADS if everything else (args.workload,):
        work = WORK_ROOT / f"{workload}-{args.seed}-{os.getpid()}"
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        try:
            result, correct = run_once(workload, args.seed, seconds,
                                       bool(args.trace), work)
        except BenchError as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                WORK_ROOT.rmdir()
            except OSError:
                pass
        if everything:
            result = {"workload": workload, **result}
        print(json.dumps(result, sort_keys=True))
        all_correct = all_correct and correct
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
