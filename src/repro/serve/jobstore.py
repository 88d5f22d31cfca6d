"""Durable job store: accepted work survives SIGKILL.

A *job* is one client-submitted batch of
:class:`~repro.sim.parallel.ExperimentSpec`\\ s.  The store layers on
the PR 3/5 sweep substrate — the content-addressed
:class:`~repro.sim.parallel.ResultCache` and the fsynced
:class:`~repro.sim.parallel.SweepJournal` — and adds one more
append-only JSONL file (``serve-jobs.jsonl``) recording job admissions
and state transitions.  The split of responsibilities:

* the **jobs journal** records *what was accepted* (client, canonical
  specs) and how far it got (``queued``/``running``/``done``);
* the **sweep journal** records *per-spec dispositions* exactly as
  ``repro sweep`` does, so daemon work and CLI sweeps share one
  resume/report surface;
* the **result cache** holds the payloads.

After a SIGKILL, :meth:`JobStore.recover` replays the jobs journal:
unfinished jobs come back ``queued``; their specs resolve from the
cache (completed work), the sweep journal (deterministic failures),
and re-execution (transients only) — which is what pins
killed-and-restarted results bit-identical to an uninterrupted run.

Job ids are content-addressed: a SHA-256 over the client id plus the
batch's canonical spec JSON plus the source fingerprint.  Resubmitting
the same batch — a client retrying after a dropped connection — maps
onto the existing job instead of duplicating work (idempotent
resubmission, the serve twin of the cache-key dedup inside
``run_specs``).

Durability is :class:`~repro.sim.parallel.SweepJournal`'s, through
the same append/replay pair: appends are flushed, fsynced, and guarded
by the same advisory file lock; corrupt lines (a kill mid-append) are
skipped on load with the last entry per job winning.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.errors import ServeError, SweepError
from repro.sim.parallel import (
    ExperimentSpec,
    ResultCache,
    SpecOutcome,
    SweepJournal,
    _append_jsonl,
    _replay_jsonl,
    source_fingerprint,
    spec_from_canonical,
)

__all__ = ["Job", "JobStore", "JOB_STATES"]

#: Lifecycle states a job moves through (strictly forward).
JOB_STATES = ("queued", "running", "done")

#: Client identifiers are metrics labels and journal fields; keep them
#: to a safe, greppable alphabet.
_CLIENT_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

#: Jobs-journal schema version (bumped on shape changes; loaders skip
#: lines from other versions rather than misparse them).
JOBS_FORMAT_VERSION = 1


@dataclass
class Job:
    """One accepted batch and its resolution progress."""

    job_id: str
    client: str
    specs: Tuple[ExperimentSpec, ...]
    state: str = "queued"
    #: spec index -> resolved outcome (duplicates share one execution
    #: but each submitted index gets its own entry, like ``run_specs``).
    outcomes: Dict[int, SpecOutcome] = field(default_factory=dict)
    #: True when this job was recovered from a previous daemon life.
    recovered: bool = False

    @property
    def total(self) -> int:
        return len(self.specs)

    @property
    def resolved(self) -> int:
        return len(self.outcomes)

    @property
    def done(self) -> bool:
        return self.state == "done"

    def ordered_outcomes(self) -> "List[SpecOutcome]":
        """Resolved outcomes in submission order (done jobs only)."""
        if len(self.outcomes) != len(self.specs):
            raise ServeError(
                f"job {self.job_id} has {len(self.outcomes)} of "
                f"{len(self.specs)} outcomes; not complete"
            )
        return [self.outcomes[i] for i in range(len(self.specs))]


def job_id_for(
    client: str, specs: "Sequence[ExperimentSpec]", fingerprint: str
) -> str:
    """Content-addressed job id (client + ordered batch + source).

    The source fingerprint rides along for the same reason it is in
    every cache key: a daemon restarted onto changed simulator code
    must not identify an old job with a batch that would now produce
    different results.
    """
    digest = hashlib.sha256()
    digest.update(client.encode("utf-8"))
    digest.update(b"\x00")
    for spec in specs:
        payload = json.dumps(
            spec.canonical(), sort_keys=True, separators=(",", ":")
        )
        digest.update(payload.encode("utf-8"))
        digest.update(b"\x00")
    digest.update(fingerprint.encode("utf-8"))
    return digest.hexdigest()[:32]


class JobStore:
    """Jobs journal + sweep journal + result cache under one root.

    The root directory is deliberately the same directory a CLI
    ``repro sweep --cache-dir`` would use: the daemon and ad-hoc sweeps
    share the result cache and the per-spec sweep journal (guarded by
    the advisory file locks from PR 10's locking satellite), while the
    jobs journal is the daemon's own.
    """

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        self.cache = ResultCache(self.root)
        self.journal = SweepJournal(self.root / "sweep-journal.jsonl")
        self.jobs_path = self.root / "serve-jobs.jsonl"
        self.fingerprint = source_fingerprint()
        #: job id -> Job, in first-acceptance order.
        self.jobs: "Dict[str, Job]" = {}
        self.corrupt_lines_skipped = 0

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover(self) -> "List[Job]":
        """Replay the jobs journal; return unfinished jobs to requeue.

        Jobs whose last recorded state is terminal stay ``done`` (their
        outcomes re-resolve lazily from the cache + sweep journal when
        queried).  Everything else — accepted but killed mid-flight —
        comes back ``queued`` with ``recovered=True``.  Corrupt or
        version-skewed lines are skipped; an unreadable journal
        degrades to an empty store, never an error.
        """
        lines, self.corrupt_lines_skipped = _replay_jsonl(self.jobs_path)
        events: "List[dict]" = [
            entry
            for entry in lines
            if isinstance(entry, dict)
            and entry.get("v") == JOBS_FORMAT_VERSION
        ]
        self.jobs = {}
        for entry in events:
            job_id = entry.get("job")
            if not isinstance(job_id, str):
                continue
            event = entry.get("event")
            if event == "submit":
                try:
                    specs = tuple(
                        spec_from_canonical(item)
                        for item in entry.get("specs", [])
                    )
                except (SweepError, TypeError):
                    continue  # batch no longer parseable: drop the job
                if not specs:
                    continue
                expected = job_id_for(
                    str(entry.get("client", "")), specs, self.fingerprint
                )
                if expected != job_id:
                    # Source tree changed since acceptance: the old
                    # results would be stale, so the job is dropped
                    # (exactly like cache-key invalidation).
                    continue
                self.jobs[job_id] = Job(
                    job_id=job_id,
                    client=str(entry.get("client", "")),
                    specs=specs,
                    recovered=True,
                )
            elif event == "state":
                job = self.jobs.get(job_id)
                state = entry.get("state")
                if job is not None and state in JOB_STATES:
                    job.state = str(state)
        requeued: "List[Job]" = []
        for job in self.jobs.values():
            if job.state != "done":
                job.state = "queued"
                requeued.append(job)
        return requeued

    # ------------------------------------------------------------------
    # Admission + transitions
    # ------------------------------------------------------------------

    @staticmethod
    def validate_client(client: str) -> str:
        if not isinstance(client, str) or not _CLIENT_RE.match(client):
            raise ServeError(
                f"invalid client id {client!r}: must match "
                f"{_CLIENT_RE.pattern}"
            )
        return client

    def parse_specs(
        self, payload: "Sequence[Mapping]"
    ) -> "Tuple[ExperimentSpec, ...]":
        """Canonical-spec JSON -> specs; malformed input is the
        client's fault (:class:`ServeError`, -> HTTP 400)."""
        if not isinstance(payload, Sequence) or isinstance(
            payload, (str, bytes)
        ):
            raise ServeError("specs must be a JSON array of canonical specs")
        if not payload:
            raise ServeError("specs must not be empty")
        try:
            return tuple(spec_from_canonical(item) for item in payload)
        except SweepError as exc:
            raise ServeError(f"bad spec in batch: {exc}") from exc

    def submit(
        self, client: str, specs: "Sequence[ExperimentSpec]"
    ) -> "Tuple[Job, bool]":
        """Accept (and durably journal) a batch; ``(job, created)``.

        A resubmission of an existing batch returns the live job with
        ``created=False`` and journals nothing — admission is
        idempotent, so clients may blindly retry after any transport
        failure.
        """
        self.validate_client(client)
        job_id = job_id_for(client, specs, self.fingerprint)
        existing = self.jobs.get(job_id)
        if existing is not None:
            return existing, False
        job = Job(job_id=job_id, client=client, specs=tuple(specs))
        _append_jsonl(
            self.jobs_path,
            {
                "v": JOBS_FORMAT_VERSION,
                "event": "submit",
                "job": job_id,
                "client": client,
                "specs": [spec.canonical() for spec in job.specs],
            },
        )
        self.jobs[job_id] = job
        return job, True

    def transition(self, job: Job, state: str) -> None:
        """Advance a job's lifecycle state (journaled, fsynced)."""
        if state not in JOB_STATES:
            raise ServeError(f"unknown job state {state!r}")
        job.state = state
        _append_jsonl(
            self.jobs_path,
            {
                "v": JOBS_FORMAT_VERSION,
                "event": "state",
                "job": job.job_id,
                "state": state,
            },
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def counts(self) -> "Dict[str, int]":
        """Jobs by state (healthz fodder)."""
        counts = {state: 0 for state in JOB_STATES}
        for job in self.jobs.values():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    def queued_by_client(self, client: str) -> int:
        return sum(
            1
            for job in self.jobs.values()
            if job.client == client and job.state == "queued"
        )
