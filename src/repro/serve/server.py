# heterolint: disable-file=unseeded-random — the daemon measures host
# wall-clock (drain duration, long-poll deadlines, Retry-After hints);
# none of it ever feeds a simulated quantity.
"""The ``repro serve`` daemon: crash-tolerant experiment service.

Architecture (three thread groups, one lock):

* **HTTP handlers** (one thread per connection, stdlib
  ``ThreadingHTTPServer`` over TCP or a unix socket) do admission
  control and read views.  They never execute specs.
* **the scheduler thread** owns execution: it starts queued jobs
  (round-robin across clients for fairness), resolves each distinct
  spec through the cache -> sweep-journal -> supervisor ladder — the
  exact ladder ``run_specs`` uses, which is what keeps served results
  bit-identical to direct execution — and completes jobs as outcomes
  arrive.
* **worker processes** under the
  :class:`~repro.sim.parallel.WorkerSupervisor` run the specs
  (persistent pool, one task per worker, respawn, quarantine) — the
  same pool ``run_specs`` uses.  Without ``fork`` the supervisor runs
  specs inline on the scheduler thread, outside the server lock.

Robustness properties:

* every accepted job is journaled before the 202 goes out
  (:class:`~repro.serve.jobstore.JobStore`), so SIGKILL loses nothing;
* the queue is bounded: a full daemon answers a structured 429 with
  ``Retry-After`` instead of buffering unboundedly, and a draining
  daemon answers 503;
* SIGTERM triggers a graceful drain — stop admitting, finish in-flight
  jobs, checkpoint, exit 0 — leaving still-queued jobs journaled for
  the next daemon life;
* ``/healthz`` and ``/metrics`` expose liveness and the PR 9 registry
  (sweep series plus the serve-side series: queue depth,
  admissions/rejections, worker respawns, drain duration).
"""

from __future__ import annotations

import json
import signal
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import ServeError
from repro.obs.flight import SweepRecorder
from repro.obs.metrics import MetricsRegistry, PROMETHEUS_CONTENT_TYPE
from repro.serve.jobstore import Job, JobStore, job_id_for
from repro.serve.wire import outcome_to_wire
from repro.sim.parallel import (
    ExperimentSpec,
    SpecFailure,
    SpecOutcome,
    WorkerSupervisor,
)

__all__ = ["ServeConfig", "ExperimentServer"]

#: Cap on the advisory Retry-After hint (seconds) so a deep queue never
#: tells clients to go away for minutes.
_MAX_RETRY_AFTER_SEC = 30


@dataclass
class ServeConfig:
    """Daemon configuration (never part of any cache key).

    ``root`` is the state directory — result cache, sweep journal, jobs
    journal — and is deliberately the same directory a CLI
    ``repro sweep --cache-dir`` would point at, so the daemon and
    ad-hoc sweeps share one substrate.
    """

    root: "str | Path"
    host: str = "127.0.0.1"
    port: int = 0
    #: Serve over an AF_UNIX socket at this path instead of TCP.
    unix_socket: "str | None" = None
    workers: int = 1
    #: Per-spec wall-clock budget (SIGALRM inside the worker).
    timeout_sec: "float | None" = None
    #: Transient (timeout) retries per spec, scheduler-side.
    retries: int = 1
    #: Worker crashes before a spec is quarantined, supervisor-side.
    max_crashes: int = 2
    #: Bounded admission queue: max jobs accepted but not finished.
    queue_limit: int = 16
    #: Per-client fairness cap: max queued jobs for one client id.
    client_limit: int = 4
    #: Scheduler tick (supervisor poll budget) in seconds.
    poll_sec: float = 0.05
    capture_timelines: bool = False


class _Rejection(ServeError):
    """Admission refused; carries the HTTP status + Retry-After hint."""

    def __init__(
        self, code: int, reason: str, retry_after_sec: "int | None" = None
    ) -> None:
        super().__init__(reason)
        self.code = code
        self.reason = reason
        self.retry_after_sec = retry_after_sec


class _Task:
    """One distinct spec in flight, shared by every interested job."""

    __slots__ = ("key", "spec", "attempts", "waiters")

    def __init__(self, key: str, spec: ExperimentSpec) -> None:
        self.key = key
        self.spec = spec
        self.attempts = 0
        #: (job, [spec indexes]) pairs awaiting this outcome.
        self.waiters: "List[Tuple[Job, List[int]]]" = []


class ExperimentServer:
    """Long-running experiment service over the cached sweep substrate."""

    def __init__(
        self,
        config: ServeConfig,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        self.config = config
        self.store = JobStore(config.root)
        self.recorder = SweepRecorder(registry)
        reg = self.recorder.registry
        self._m_admissions = reg.counter(
            "serve_admissions_total",
            "Job submissions, by admission result.",
            labels=("result",),
        )
        self._m_jobs = reg.counter(
            "serve_jobs_total",
            "Job lifecycle events, by state reached.",
            labels=("state",),
        )
        self._m_respawns = reg.counter(
            "serve_worker_respawns_total",
            "Crashed workers replaced by the supervisor.",
        )
        self._m_quarantined = reg.counter(
            "serve_quarantined_specs_total",
            "Specs quarantined after repeated worker crashes.",
        )
        self._m_requests = reg.counter(
            "serve_http_requests_total",
            "HTTP requests served, by endpoint and status code.",
            labels=("endpoint", "code"),
        )
        self._g_queue = reg.gauge(
            "serve_queue_depth",
            "Jobs accepted but not yet finished (queued + running).",
        )
        self._g_up = reg.gauge(
            "serve_up", "1 while admitting work, 0 once draining."
        )
        self._g_drain = reg.gauge(
            "serve_drain_seconds",
            "Wall-clock seconds the final graceful drain took.",
        )
        self.supervisor = WorkerSupervisor(
            max_workers=config.workers,
            timeout_sec=config.timeout_sec,
            capture_timelines=config.capture_timelines,
            max_crashes=config.max_crashes,
        )
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._queue: "List[str]" = []  # queued job ids, admission order
        self._rr_clients: "List[str]" = []  # round-robin client order
        self._running: "Dict[str, Job]" = {}
        self._tasks: "Dict[str, _Task]" = {}
        self._journal_entries: "Dict[str, dict]" = {}
        self._respawns_seen = 0
        self._draining = False
        self._drain_started: "float | None" = None
        self._stopped = threading.Event()
        self._scheduler: "threading.Thread | None" = None
        self._httpd: "ThreadingHTTPServer | None" = None
        self._http_thread: "threading.Thread | None" = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Recover journaled jobs, start the pool, scheduler, and
        HTTP listener."""
        recovered = self.store.recover()
        self._journal_entries = self.store.journal.load()
        with self._lock:
            for job in recovered:
                self._enqueue(job)
                self._m_jobs.inc(state="recovered")
            self._g_up.set(1)
            self._update_queue_gauge()
        self.supervisor.start()
        self._scheduler = threading.Thread(
            target=self._scheduler_loop, name="serve-scheduler", daemon=True
        )
        self._scheduler.start()
        self._httpd = _make_httpd(self)
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="serve-http",
            daemon=True,
        )
        self._http_thread.start()

    @property
    def address(self) -> str:
        """The bound address — ``host:port`` or the unix-socket path."""
        if self._httpd is None:
            raise ServeError("server is not started")
        bound = self._httpd.server_address
        if isinstance(bound, (str, bytes)):
            text = bound.decode() if isinstance(bound, bytes) else bound
            return text
        return f"{bound[0]}:{bound[1]}"

    def drain(self) -> None:
        """Graceful drain: stop admitting, let in-flight jobs finish.

        Safe to call from a signal handler (sets flags, never blocks).
        Still-queued jobs stay journaled for the next daemon life.
        """
        with self._lock:
            if self._draining:
                return
            self._draining = True
            self._drain_started = time.monotonic()
            self._g_up.set(0)
            self.recorder.instant("drain-start")
            self._cond.notify_all()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT -> graceful drain (main thread only)."""
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, self._on_signal)

    def _on_signal(self, signum, frame) -> None:
        self.drain()

    def wait(self, timeout_sec: "float | None" = None) -> bool:
        """Block until the daemon has fully drained and stopped."""
        return self._stopped.wait(timeout_sec)

    def stop(self) -> None:
        """Tear down after the scheduler finished (or on fatal error)."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        self.supervisor.stop()
        self._stopped.set()

    # ------------------------------------------------------------------
    # Admission (called from HTTP handler threads)
    # ------------------------------------------------------------------

    def submit_job(self, client: str, specs_payload) -> "Tuple[Job, str]":
        """Admit one batch; returns ``(job, disposition)`` where the
        disposition is ``"created"`` or ``"duplicate"``.  Raises
        :class:`_Rejection` with the HTTP status for refusals."""
        client = self.store.validate_client(client)
        specs = self.store.parse_specs(specs_payload)
        with self._lock:
            if self._draining:
                self._m_admissions.inc(result="rejected-draining")
                raise _Rejection(
                    503, "draining: not admitting new jobs"
                )
            depth = len(self._queue) + len(self._running)
            # Peek for idempotent resubmission before quota checks: a
            # retry of work this daemon already accepted must succeed
            # even when the queue is full.
            existing_id = job_id_for(client, specs, self.store.fingerprint)
            if existing_id in self.store.jobs:
                self._m_admissions.inc(result="duplicate")
                return self.store.jobs[existing_id], "duplicate"
            if depth >= self.config.queue_limit:
                self._m_admissions.inc(result="rejected-queue-full")
                raise _Rejection(
                    429,
                    f"queue full ({depth} jobs in flight, limit "
                    f"{self.config.queue_limit})",
                    retry_after_sec=self._retry_after_hint(depth),
                )
            if (
                self.store.queued_by_client(client)
                >= self.config.client_limit
            ):
                self._m_admissions.inc(result="rejected-client-limit")
                raise _Rejection(
                    429,
                    f"client {client!r} already has "
                    f"{self.config.client_limit} queued job(s)",
                    retry_after_sec=self._retry_after_hint(depth),
                )
            job, created = self.store.submit(client, specs)
            self._m_admissions.inc(result="accepted")
            self._m_jobs.inc(state="queued")
            self.recorder.instant(
                "job-accepted", job=job.job_id, client=client,
                specs=len(specs),
            )
            self._enqueue(job)
            self._cond.notify_all()
            return job, "created"

    def _retry_after_hint(self, depth: int) -> int:
        """Advisory Retry-After: mean observed spec time x queue depth,
        clamped to [1, 30] seconds."""
        status = self.recorder.status()
        done = status.get("done") or 0
        elapsed = status.get("elapsed_sec") or 0.0
        mean = (elapsed / done) if done else 1.0
        return int(min(_MAX_RETRY_AFTER_SEC, max(1, round(mean * depth))))

    def _enqueue(self, job: Job) -> None:
        self._queue.append(job.job_id)
        if job.client not in self._rr_clients:
            self._rr_clients.append(job.client)
        self._update_queue_gauge()

    def _update_queue_gauge(self) -> None:
        self._g_queue.set(len(self._queue) + len(self._running))

    # ------------------------------------------------------------------
    # Views (called from HTTP handler threads)
    # ------------------------------------------------------------------

    def job_payload(
        self, job_id: str, wait_sec: float = 0.0
    ) -> "Optional[dict]":
        """Job status + resolved outcomes; optionally long-poll until
        the job completes (bounded by ``wait_sec``)."""
        deadline = time.monotonic() + max(0.0, wait_sec)
        with self._lock:
            job = self.store.jobs.get(job_id)
            if job is None:
                return None
            if job.done and not job.outcomes and job.specs:
                self._rehydrate(job)
            while not job.done:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(timeout=min(remaining, 0.5))
            outcomes = [
                dict(outcome_to_wire(job.outcomes[i]), index=i)
                for i in sorted(job.outcomes)
            ]
            return {
                "job": job.job_id,
                "client": job.client,
                "state": job.state,
                "specs": job.total,
                "resolved": job.resolved,
                "recovered": job.recovered,
                "outcomes": outcomes,
            }

    def _rehydrate(self, job: Job) -> None:
        """Re-resolve a finished job's outcomes after a restart.

        Every spec a *finished* job ran left either a cache entry (ok)
        or a sweep-journal entry (any failure, transient included — the
        job genuinely finished with it).  A spec with neither (evicted
        cache + lost journal) flips the job back to ``queued`` to
        re-run; best-effort state can degrade to recomputation, never
        to a wrong answer."""
        resolved: "Dict[int, SpecOutcome]" = {}
        for index, spec in enumerate(job.specs):
            outcome = self._resolve_without_running(
                spec, reuse_transients=True
            )
            if outcome is None:
                job.outcomes = {}
                self.store.transition(job, "queued")
                self._enqueue(job)
                self._cond.notify_all()
                return
            resolved[index] = outcome
        job.outcomes = resolved

    def healthz(self) -> dict:
        with self._lock:
            counts = self.store.counts()
            return {
                "status": "draining" if self._draining else "ok",
                "ready": not self._draining,
                "jobs": counts,
                "queue_depth": len(self._queue) + len(self._running),
                "queue_limit": self.config.queue_limit,
                "workers": self.config.workers,
                "worker_mode": self.supervisor.mode,
                "worker_respawns": self.supervisor.respawns,
            }

    def jobs_index(self) -> dict:
        with self._lock:
            return {
                "jobs": [
                    {
                        "job": job.job_id,
                        "client": job.client,
                        "state": job.state,
                        "specs": job.total,
                        "resolved": job.resolved,
                    }
                    for job in self.store.jobs.values()
                ]
            }

    def metrics_text(self) -> str:
        with self._lock:
            return self.recorder.registry.to_prometheus()

    def count_request(self, endpoint: str, code: int) -> None:
        with self._lock:
            self._m_requests.inc(endpoint=endpoint, code=str(code))

    # ------------------------------------------------------------------
    # Scheduler (one dedicated thread)
    # ------------------------------------------------------------------

    def _scheduler_loop(self) -> None:
        while True:
            with self._lock:
                if not self._draining:
                    self._start_queued_jobs()
                elif not self._running:
                    break  # drained: in-flight work is finished
                idle = not self._running and not self._queue
            if idle:
                with self._cond:
                    self._cond.wait(timeout=self.config.poll_sec * 4)
                continue
            events = self.supervisor.poll(self.config.poll_sec)
            with self._lock:
                for key, outcome in events:
                    self._task_finished(key, outcome)
                self._track_respawns()
        if self._drain_started is not None:
            self._g_drain.set(time.monotonic() - self._drain_started)
        self.recorder.instant("drain-finished")
        self.stop()

    def _track_respawns(self) -> None:
        fresh = self.supervisor.respawns - self._respawns_seen
        if fresh > 0:
            self._m_respawns.inc(fresh)
            self._respawns_seen = self.supervisor.respawns

    def _start_queued_jobs(self) -> None:
        """Admit queued jobs to execution, round-robin across clients."""
        while self._queue:
            job = self._pick_next_job()
            if job is None:
                break
            self._start_job(job)

    def _pick_next_job(self) -> "Optional[Job]":
        """Next queued job, cycling client order for fairness: a client
        that queued ten jobs cannot starve a client that queued one."""
        if not self._queue:
            return None
        for _ in range(len(self._rr_clients)):
            client = self._rr_clients.pop(0)
            self._rr_clients.append(client)
            for job_id in self._queue:
                job = self.store.jobs.get(job_id)
                if job is not None and job.client == client:
                    self._queue.remove(job_id)
                    return job
        # Queue holds jobs from clients not in the rotation (should
        # not happen; defensive): serve FIFO.
        job_id = self._queue.pop(0)
        return self.store.jobs.get(job_id)

    def _start_job(self, job: Job) -> None:
        self.store.transition(job, "running")
        self._running[job.job_id] = job
        self._m_jobs.inc(state="running")
        self._update_queue_gauge()
        # Dedup preserving first-appearance order via an explicit list
        # (not a dict view) so spec dispatch order is structurally
        # deterministic.
        ordered: "List[ExperimentSpec]" = []
        distinct: "Dict[ExperimentSpec, List[int]]" = {}
        for index, spec in enumerate(job.specs):
            if spec not in distinct:
                distinct[spec] = []
                ordered.append(spec)
            distinct[spec].append(index)
        for spec in ordered:
            indexes = distinct[spec]
            outcome = self._resolve_without_running(spec)
            if outcome is not None:
                self._apply_outcome(job, indexes, outcome)
                continue
            self.recorder.cache_miss(spec.label)
            key = spec.cache_key(self.store.fingerprint)
            task = self._tasks.get(key)
            if task is None:
                task = _Task(key, spec)
                self._tasks[key] = task
                self.supervisor.submit(key, spec)
            task.waiters.append((job, indexes))
        self._maybe_complete(job)

    def _resolve_without_running(
        self, spec: ExperimentSpec, reuse_transients: bool = False
    ) -> "Optional[SpecOutcome]":
        """The run-free prefix of the ``run_specs`` ladder: result
        cache first, then journaled failures (deterministic ones
        always; transients only when rehydrating a finished job)."""
        cached = self.store.cache.lookup(
            spec,
            self.store.fingerprint,
            with_timeline=self.config.capture_timelines,
        )
        if cached is not None:
            self.recorder.cache_hit(spec.label)
            return SpecOutcome(spec=spec, result=cached, source="cache")
        entry = self._journal_entries.get(
            spec.cache_key(self.store.fingerprint)
        )
        if entry is not None and (
            entry.get("kind") == "error"
            or (reuse_transients and entry.get("status") == "failed")
        ):
            self.recorder.journal_reused(spec.label)
            return SpecOutcome(
                spec=spec,
                error=SpecFailure(
                    kind=str(entry.get("kind", "error")),
                    message=str(entry.get("message", "")),
                    error_type=entry.get("error_type"),
                ),
                source="journal",
            )
        return None

    def _task_finished(self, key: str, outcome: SpecOutcome) -> None:
        task = self._tasks.get(key)
        if task is None:
            return
        if (
            outcome.error is not None
            and outcome.error.kind == "timeout"
            and task.attempts < self.config.retries
        ):
            # Scheduler-side transient retry (timeouts).  Crashes were
            # already retried inside the supervisor up to max_crashes,
            # so retrying them here would double the budget.
            task.attempts += 1
            self.recorder.retry(
                task.spec.label, outcome.error.kind, task.attempts
            )
            self.supervisor.submit(key, task.spec)
            return
        del self._tasks[key]
        if key in self.supervisor.quarantined:
            self._m_quarantined.inc()
        self._record_outcome(task, outcome)
        for job, indexes in task.waiters:
            self._apply_outcome(job, indexes, outcome)
            self._maybe_complete(job)

    def _record_outcome(self, task: _Task, outcome: SpecOutcome) -> None:
        """Persist + observe one executed spec (the ``run_specs``
        ``_finish`` twin)."""
        spec = task.spec
        if outcome.ok:
            self.store.cache.store(
                spec, self.store.fingerprint, outcome.result
            )
        self._journal_entries[task.key] = self.store.journal.record(
            spec, self.store.fingerprint, outcome
        )
        copies = sum(len(indexes) for _, indexes in task.waiters)
        self.recorder.outcome(
            spec.label,
            outcome.source,
            "ok" if outcome.ok else "failed",
            outcome.elapsed_sec,
            fault_counts=(
                outcome.result.fault_counts if outcome.ok else None
            ),
            failure_kind=(
                outcome.error.kind if outcome.error is not None else None
            ),
            copies=max(1, copies),
        )

    def _apply_outcome(
        self, job: Job, indexes: "List[int]", outcome: SpecOutcome
    ) -> None:
        for index in indexes:
            job.outcomes[index] = outcome

    def _maybe_complete(self, job: Job) -> None:
        if job.resolved < job.total or job.done:
            return
        self.store.transition(job, "done")
        self._running.pop(job.job_id, None)
        self._m_jobs.inc(state="done")
        self.recorder.instant(
            "job-done", job=job.job_id, client=job.client
        )
        self._update_queue_gauge()
        self._cond.notify_all()


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------

#: Largest request body accepted (a batch of canonical specs is small;
#: anything bigger is a client bug or abuse).
_MAX_BODY_BYTES = 8 * 1024 * 1024


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    #: Set by :func:`_make_httpd`; handlers reach the app through it.
    app: "ExperimentServer | None" = None


class _UnixHTTPServer(_HTTPServer):
    address_family = socket.AF_UNIX

    def server_bind(self) -> None:
        # A stale socket file from a SIGKILLed daemon would fail the
        # bind; recovery must not require manual cleanup.
        try:
            Path(self.server_address).unlink()
        except OSError:
            pass
        self.socket.bind(self.server_address)


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args) -> None:
        """Silenced: the library never prints; request accounting goes
        through the ``serve_http_requests_total`` metric instead."""

    def address_string(self) -> str:
        # AF_UNIX peers have no (host, port) pair.
        if isinstance(self.client_address, (str, bytes)):
            return "unix"
        return super().address_string()

    @property
    def app(self) -> ExperimentServer:
        return self.server.app

    # -- responses -----------------------------------------------------

    def _send_json(
        self,
        code: int,
        payload: dict,
        endpoint: str,
        extra_headers: "Optional[Dict[str, str]]" = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        self.app.count_request(endpoint, code)

    def _send_text(
        self, code: int, text: str, content_type: str, endpoint: str
    ) -> None:
        body = text.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.app.count_request(endpoint, code)

    # -- routes --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler API
        path, _, query = self.path.partition("?")
        if path == "/healthz":
            payload = self.app.healthz()
            self._send_json(200, payload, "healthz")
        elif path == "/metrics":
            self._send_text(
                200,
                self.app.metrics_text(),
                PROMETHEUS_CONTENT_TYPE,
                "metrics",
            )
        elif path == "/jobs":
            self._send_json(200, self.app.jobs_index(), "jobs-index")
        elif path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            wait_sec = _parse_wait(query)
            payload = self.app.job_payload(job_id, wait_sec=wait_sec)
            if payload is None:
                self._send_json(
                    404,
                    {"error": "not-found", "job": job_id},
                    "job-status",
                )
            else:
                self._send_json(200, payload, "job-status")
        else:
            self._send_json(404, {"error": "not-found"}, "other")

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler API
        if self.path.partition("?")[0] != "/jobs":
            self._send_json(404, {"error": "not-found"}, "other")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > _MAX_BODY_BYTES:
            self._send_json(
                413, {"error": "body-too-large"}, "job-submit"
            )
            return
        try:
            payload = json.loads(self.rfile.read(length) or b"{}")
        except ValueError as exc:
            self._send_json(
                400,
                {"error": "bad-request", "detail": f"invalid JSON: {exc}"},
                "job-submit",
            )
            return
        if not isinstance(payload, dict):
            self._send_json(
                400,
                {"error": "bad-request", "detail": "body must be an object"},
                "job-submit",
            )
            return
        try:
            job, disposition = self.app.submit_job(
                payload.get("client", "default"), payload.get("specs")
            )
        except _Rejection as exc:
            headers = {}
            body = {"error": exc.reason}
            if exc.retry_after_sec is not None:
                headers["Retry-After"] = str(exc.retry_after_sec)
                body["retry_after_sec"] = exc.retry_after_sec
            self._send_json(exc.code, body, "job-submit", headers)
            return
        except ServeError as exc:
            self._send_json(
                400,
                {"error": "bad-request", "detail": str(exc)},
                "job-submit",
            )
            return
        code = 200 if disposition == "duplicate" else 202
        self._send_json(
            code,
            {
                "job": job.job_id,
                "state": job.state,
                "specs": job.total,
                "duplicate": disposition == "duplicate",
                "url": f"/jobs/{job.job_id}",
            },
            "job-submit",
        )


def _parse_wait(query: str) -> float:
    """``wait=SEC`` long-poll budget from a query string, clamped to
    [0, 300]; anything unparseable means no wait."""
    for part in query.split("&"):
        name, _, value = part.partition("=")
        if name == "wait":
            try:
                return min(300.0, max(0.0, float(value)))
            except ValueError:
                return 0.0
    return 0.0


def _make_httpd(app: ExperimentServer) -> ThreadingHTTPServer:
    config = app.config
    if config.unix_socket:
        httpd = _UnixHTTPServer(config.unix_socket, _Handler)
    else:
        httpd = _HTTPServer((config.host, config.port), _Handler)
    httpd.app = app
    return httpd
