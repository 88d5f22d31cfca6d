"""Supervised persistent worker pool for the experiment daemon.

``run_specs`` builds a fresh :class:`~concurrent.futures.ProcessPoolExecutor`
per retry round — fine for a CLI sweep, wasteful for a daemon absorbing
batches all day.  :class:`WorkerSupervisor` keeps a fixed pool of
forked worker processes alive across batches and adds the supervision
a long-running service needs:

* **heartbeats** — a worker announces ``("start", task, pid)`` the
  moment it dequeues a task, so the parent always knows which worker
  owns which spec;
* **crash detection + respawn** — a dead worker process (found via
  ``Process.is_alive`` during :meth:`poll`) fails its owned task with
  the structured ``worker-crash`` kind and is replaced immediately;
* **bounded crash retries + quarantine** — a task whose worker crashed
  is resubmitted automatically (the existing transient-retry policy),
  but after ``max_crashes`` crashes the task is *quarantined*: it
  surfaces as a final ``worker-crash`` failure instead of being run
  again, so one poisoned spec cannot wedge the pool by serially
  killing every worker;
* **graceful serial fallback** — on a platform without ``fork`` the
  supervisor runs specs inline in the calling thread (the same
  degradation ladder as ``run_specs``).  Inline execution happens on a
  non-main thread, where the hardened SIGALRM path in
  :func:`repro.sim.parallel._run_one` warns once and runs without a
  timeout instead of crashing.

Execution inside a worker is *exactly* ``run_specs``'s worker path —
:func:`repro.sim.parallel._run_one` with its in-worker SIGALRM budget —
which is what keeps daemon-served results bit-identical to direct
``run_specs`` execution.
"""

from __future__ import annotations

import os
import pickle
import time
from typing import Dict, List, Tuple

from repro.errors import ServeError
from repro.sim import parallel
from repro.sim.parallel import ExperimentSpec, SpecFailure, SpecOutcome

__all__ = ["WorkerSupervisor"]

#: Parent-side slice while waiting on the result pipe (SimpleQueue has
#: no ``get(timeout)``; see :meth:`WorkerSupervisor.poll`).
_POLL_SLICE_SEC = 0.005


def _worker_main(tasks, results, capture_timelines: bool) -> None:
    """Worker process loop: heartbeat, run, report, repeat.

    The ``start`` message doubles as the heartbeat: the parent learns
    which pid owns which task before any simulation work begins, so a
    crash can always be attributed.  The queues are ``SimpleQueue``\\ s
    on purpose: a regular ``multiprocessing.Queue`` hands ``put`` to a
    background feeder thread, so a worker dying *during* the spec could
    take its not-yet-flushed heartbeat with it — the parent would see a
    dead worker it cannot attribute and the task would be lost.
    ``SimpleQueue.put`` writes synchronously in the calling thread,
    making heartbeat-before-work an ordering guarantee.  A ``None``
    task is the shutdown sentinel.  Queue failures (parent died) end
    the loop quietly — the supervisor owns all error reporting.

    The fork hands every worker both ends of both pipes.  A worker only
    reads tasks and only writes results, so it first closes its copies
    of the other two ends.  Otherwise the workers themselves would keep
    the task pipe writable, and a parent killed without a chance to send
    sentinels (SIGKILL) would leave them blocked in ``tasks.get()``
    forever instead of seeing EOF; and they would keep the result pipe
    readable, so a result put after the parent died could block on a
    full pipe instead of failing.
    """
    tasks._writer.close()
    results._reader.close()
    while True:
        try:
            item = tasks.get()
        except (EOFError, OSError):
            break
        if item is None:
            break
        task_id, spec, timeout_sec = item
        try:
            results.put(("start", task_id, os.getpid()))
            status = parallel._run_one(spec, timeout_sec, capture_timelines)
            results.put(("done", task_id, os.getpid(), status))
        except (EOFError, OSError):
            break


class WorkerSupervisor:
    """A crash-tolerant pool executing specs for the serve scheduler.

    Protocol: :meth:`submit` enqueues ``(task_id, spec)``;
    :meth:`poll` returns finished ``(task_id, SpecOutcome)`` pairs,
    handling heartbeats, crash retries, respawns, and quarantine
    internally.  Timeout failures are returned to the caller un-retried
    (the scheduler owns the transient-retry budget for timeouts; the
    supervisor owns it for crashes, because only the supervisor can see
    them).
    """

    def __init__(
        self,
        max_workers: int = 1,
        timeout_sec: "float | None" = None,
        capture_timelines: bool = False,
        max_crashes: int = 2,
    ) -> None:
        if max_workers < 1:
            raise ServeError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        if max_crashes < 1:
            raise ServeError(
                f"max_crashes must be >= 1, got {max_crashes}"
            )
        self.max_workers = int(max_workers)
        self.timeout_sec = timeout_sec
        self.capture_timelines = capture_timelines
        self.max_crashes = int(max_crashes)
        #: Workers respawned after a crash (a serve metrics series).
        self.respawns = 0
        #: task id -> crash count at the moment it was quarantined.
        self.quarantined: "Dict[str, int]" = {}
        self._serial = not parallel._fork_available()
        self._started = False
        self._stopping = False
        self._context = None
        self._procs: "List[object]" = []
        self._tasks = None
        self._results = None
        #: task id -> spec, for everything submitted but not finished.
        self._outstanding: "Dict[str, ExperimentSpec]" = {}
        #: worker pid -> task id it heartbeated for.
        self._assigned: "Dict[int, str]" = {}
        self._crashes: "Dict[str, int]" = {}
        #: Serial-mode results awaiting poll().
        self._inline: "List[Tuple[str, SpecOutcome]]" = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def mode(self) -> str:
        """``"forked"`` (supervised pool) or ``"serial"`` (no fork)."""
        return "serial" if self._serial else "forked"

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        if self._serial:
            return
        import multiprocessing

        context = multiprocessing.get_context("fork")
        self._context = context
        self._tasks = context.SimpleQueue()
        self._results = context.SimpleQueue()
        for _ in range(self.max_workers):
            self._procs.append(self._spawn())

    def _spawn(self):
        process = self._context.Process(
            target=_worker_main,
            args=(self._tasks, self._results, self.capture_timelines),
            daemon=True,
        )
        process.start()
        return process

    def stop(self) -> None:
        """Shut the pool down; idempotent, never raises."""
        self._stopping = True
        if self._serial or not self._started:
            return
        for _ in self._procs:
            try:
                self._tasks.put(None)
            except (OSError, ValueError, BrokenPipeError):
                break
        for process in self._procs:
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        self._procs = []

    # ------------------------------------------------------------------
    # Work
    # ------------------------------------------------------------------

    def submit(self, task_id: str, spec: ExperimentSpec) -> None:
        """Enqueue one spec for execution under ``task_id``."""
        if not self._started or self._stopping:
            raise ServeError("supervisor is not running")
        self._outstanding[task_id] = spec
        if self._serial:
            # Inline fallback: run now, deliver on the next poll().  A
            # hard worker crash cannot be survived in this mode (there
            # is no process boundary), which the failure matrix in
            # docs/serve.md calls out.
            status = parallel._run_one(
                spec, self.timeout_sec, self.capture_timelines
            )
            outcome = parallel._outcome_from_status(spec, status, "serial")
            del self._outstanding[task_id]
            self._inline.append((task_id, outcome))
            return
        self._tasks.put((task_id, spec, self.timeout_sec))

    def poll(
        self, timeout_sec: float = 0.05
    ) -> "List[Tuple[str, SpecOutcome]]":
        """Collect finished tasks; supervise the pool while doing so.

        Blocks up to ``timeout_sec`` for the first event, then drains
        without blocking.  Crash handling happens here: dead workers
        fail their heartbeated task, get replaced, and the task either
        resubmits (crash count below ``max_crashes``) or surfaces as a
        quarantined ``worker-crash`` failure.
        """
        if self._serial:
            events, self._inline = self._inline, []
            return events
        if not self._started:
            return []
        events: "List[Tuple[str, SpecOutcome]]" = []
        # SimpleQueue has no get(timeout), so the first read waits in
        # small slices; once anything arrives the rest drains without
        # waiting.
        budget = max(0.0, timeout_sec)
        while True:
            try:
                if not self._results.empty():
                    message = self._results.get()
                elif budget > 0 and not events:
                    time.sleep(min(_POLL_SLICE_SEC, budget))
                    budget -= _POLL_SLICE_SEC
                    continue
                else:
                    break
            except (OSError, EOFError, pickle.UnpicklingError):
                break  # torn message from a worker dying mid-write
            kind = message[0]
            if kind == "start":
                _, task_id, pid = message
                self._assigned[pid] = task_id
            elif kind == "done":
                _, task_id, pid, status = message
                self._assigned.pop(pid, None)
                spec = self._outstanding.pop(task_id, None)
                if spec is None:
                    continue  # late duplicate after a crash-resubmit
                events.append(
                    (
                        task_id,
                        parallel._outcome_from_status(
                            spec, status, "parallel"
                        ),
                    )
                )
        events.extend(self._reap_crashes())
        return events

    def _reap_crashes(self) -> "List[Tuple[str, SpecOutcome]]":
        """Replace dead workers; fail, resubmit, or quarantine their
        tasks."""
        events: "List[Tuple[str, SpecOutcome]]" = []
        survivors = []
        for process in self._procs:
            if process.is_alive():
                survivors.append(process)
                continue
            pid = process.pid
            task_id = self._assigned.pop(pid, None)
            if not self._stopping:
                survivors.append(self._spawn())
                self.respawns += 1
            if task_id is None:
                continue
            spec = self._outstanding.get(task_id)
            if spec is None:
                continue  # finished just before dying
            count = self._crashes.get(task_id, 0) + 1
            self._crashes[task_id] = count
            if count < self.max_crashes and not self._stopping:
                # Existing transient-retry policy: a crash is
                # re-runnable until this spec has proven poisonous.
                self._tasks.put((task_id, spec, self.timeout_sec))
                continue
            self.quarantined[task_id] = count
            del self._outstanding[task_id]
            events.append(
                (
                    task_id,
                    SpecOutcome(
                        spec=spec,
                        error=SpecFailure(
                            kind="worker-crash",
                            message=(
                                f"worker process died {count} time(s) "
                                "running this spec; quarantined"
                            ),
                        ),
                        source="parallel",
                    ),
                )
            )
        self._procs = survivors
        return events

    @property
    def outstanding(self) -> int:
        """Tasks submitted but not yet finished (queue + in flight)."""
        return len(self._outstanding)
