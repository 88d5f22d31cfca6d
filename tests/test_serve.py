"""The experiment daemon: jobs, supervision, admission, equivalence.

The serving path's headline contract mirrors the rest of the harness:
infrastructure must never perturb results.  The tests here pin that
from every angle — wire round-trips, content-addressed job identity,
crash quarantine, bounded admission — and finish with the acceptance
check: a batch covering *every* registered policy served through the
daemon is field-by-field identical to ``run_specs`` run directly.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time

import pytest

from repro.core.policy import available_policies
from repro.errors import ServeError
from repro.serve import (
    ExperimentServer,
    Job,
    JobStore,
    ServeClient,
    ServeConfig,
    outcome_from_wire,
    outcome_to_wire,
)
from repro.serve.jobstore import job_id_for
from repro.sim import parallel
from repro.sim.parallel import (
    SpecFailure,
    SpecOutcome,
    WorkerSupervisor,
    make_spec,
    run_specs,
    spec_from_canonical,
)
from repro.workloads import registry
from repro.workloads.base import Workload

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not _HAS_FORK, reason="platform lacks fork start method"
)


def tiny_spec(policy: str = "hetero-lru", app: str = "redis"):
    return make_spec(app, policy, epochs=2)


def result_dict(result) -> dict:
    return dataclasses.asdict(result)


@pytest.fixture
def server(tmp_path):
    """An in-process daemon on a loopback port, drained at teardown."""
    srv = ExperimentServer(ServeConfig(root=tmp_path, workers=2))
    srv.start()
    yield srv
    srv.drain()
    assert srv.wait(timeout_sec=30), "drain did not finish"


def client_for(server, **kwargs) -> ServeClient:
    kwargs.setdefault("backoff_sec", 0.01)
    return ServeClient(f"http://{server.address}", **kwargs)


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------


def test_wire_round_trips_ok_outcome():
    spec = tiny_spec()
    outcome = run_specs([spec])[0]
    entry = outcome_to_wire(outcome)
    assert entry["status"] == "ok"
    assert entry["summary"]["policy"] == "hetero-lru"
    back = outcome_from_wire(entry)
    assert back.spec == spec
    assert back.spec.cache_key("fp") == spec.cache_key("fp")
    assert result_dict(back.result) == result_dict(outcome.result)


def test_wire_round_trips_failure():
    spec = tiny_spec()
    outcome = SpecOutcome(
        spec=spec,
        error=SpecFailure(
            kind="error", message="MigrationError: injected",
            error_type="MigrationError",
        ),
        source="parallel",
        elapsed_sec=1.5,
    )
    back = outcome_from_wire(outcome_to_wire(outcome))
    assert back.error == outcome.error
    assert back.elapsed_sec == 1.5


def test_wire_rejects_tampered_payloads():
    entry = outcome_to_wire(run_specs([tiny_spec()])[0])
    with pytest.raises(ServeError, match="version"):
        outcome_from_wire(dict(entry, v=99))
    with pytest.raises(ServeError, match="decode"):
        outcome_from_wire(dict(entry, result_b64="not base64!"))
    with pytest.raises(ServeError):
        outcome_from_wire("not a mapping")


def test_spec_round_trips_through_canonical_form():
    plan = {"seed": 5, "faults": [{"kind": "channel-drop",
                                   "probability": 0.25}]}
    spec = make_spec(
        "nginx", "multi-level", fast_ratio=0.5, epochs=3, seed=11,
        faults=plan,
    )
    back = spec_from_canonical(spec.canonical())
    assert back == spec
    assert back.cache_key("fp") == spec.cache_key("fp")


# ----------------------------------------------------------------------
# Job store: identity, idempotency, recovery
# ----------------------------------------------------------------------


def test_job_ids_are_content_addressed():
    specs = [tiny_spec()]
    assert job_id_for("a", specs, "fp") == job_id_for("a", specs, "fp")
    assert job_id_for("a", specs, "fp") != job_id_for("b", specs, "fp")
    assert job_id_for("a", specs, "fp") != job_id_for("a", specs, "fp2")
    assert job_id_for("a", specs, "fp") != job_id_for(
        "a", [tiny_spec("hetero-coordinated")], "fp"
    )


def test_submit_is_idempotent(tmp_path):
    store = JobStore(tmp_path)
    specs = [tiny_spec()]
    job, created = store.submit("alice", specs)
    again, created_again = store.submit("alice", specs)
    assert created and not created_again
    assert again is job
    # Only the first submission journaled anything.
    lines = (tmp_path / "serve-jobs.jsonl").read_text().splitlines()
    assert len(lines) == 1


def test_recover_requeues_unfinished_jobs(tmp_path):
    store = JobStore(tmp_path)
    done_job, _ = store.submit("alice", [tiny_spec()])
    store.transition(done_job, "running")
    store.transition(done_job, "done")
    killed_job, _ = store.submit(
        "alice", [tiny_spec("hetero-coordinated")]
    )
    store.transition(killed_job, "running")  # killed mid-flight

    fresh = JobStore(tmp_path)
    requeued = fresh.recover()
    assert [job.job_id for job in requeued] == [killed_job.job_id]
    assert fresh.jobs[done_job.job_id].state == "done"
    recovered = fresh.jobs[killed_job.job_id]
    assert recovered.state == "queued" and recovered.recovered
    assert recovered.specs == killed_job.specs


def test_recover_skips_corrupt_lines_and_foreign_versions(tmp_path):
    store = JobStore(tmp_path)
    job, _ = store.submit("alice", [tiny_spec()])
    with open(store.jobs_path, "a", encoding="utf-8") as handle:
        handle.write('{"v": 1, "event": "subm')  # torn write
        handle.write("\n")
        handle.write('{"v": 99, "event": "state", "job": "x"}\n')
    fresh = JobStore(tmp_path)
    fresh.recover()
    assert list(fresh.jobs) == [job.job_id]
    assert fresh.corrupt_lines_skipped == 1


def test_recover_drops_jobs_from_other_source_trees(tmp_path):
    store = JobStore(tmp_path)
    job, _ = store.submit("alice", [tiny_spec()])
    fresh = JobStore(tmp_path)
    fresh.fingerprint = "different-source-tree"
    fresh.recover()
    # The journaled id no longer matches the content hash: stale work
    # is dropped exactly like cache-key invalidation.
    assert job.job_id not in fresh.jobs


def test_client_ids_are_validated(tmp_path):
    store = JobStore(tmp_path)
    with pytest.raises(ServeError, match="client"):
        store.validate_client("bad client id!")
    with pytest.raises(ServeError, match="client"):
        store.validate_client("x" * 65)
    assert store.validate_client("ci-runner_7.a") == "ci-runner_7.a"


def test_parse_specs_rejects_malformed_batches(tmp_path):
    store = JobStore(tmp_path)
    with pytest.raises(ServeError, match="array"):
        store.parse_specs({"app": "redis"})
    with pytest.raises(ServeError, match="empty"):
        store.parse_specs([])
    with pytest.raises(ServeError, match="bad spec"):
        store.parse_specs([{"app": 42}])


def test_ordered_outcomes_requires_completion():
    job = Job(job_id="j", client="c", specs=(tiny_spec(),))
    with pytest.raises(ServeError, match="not complete"):
        job.ordered_outcomes()


# ----------------------------------------------------------------------
# Worker supervision: crashes, respawn, quarantine
# ----------------------------------------------------------------------


@needs_fork
def test_supervisor_runs_specs_in_workers():
    supervisor = WorkerSupervisor(max_workers=2)
    supervisor.start()
    try:
        spec = tiny_spec()
        supervisor.submit("task-1", spec)
        events = []
        deadline = 120
        while not events and deadline > 0:
            events = supervisor.poll(0.25)
            deadline -= 1
        assert events and events[0][0] == "task-1"
        outcome = events[0][1]
        assert outcome.ok
        direct = run_specs([spec])[0]
        assert result_dict(outcome.result) == result_dict(direct.result)
    finally:
        supervisor.stop()


@needs_fork
def test_supervisor_respawns_crashed_workers_then_quarantines(monkeypatch):
    # The monkeypatched module state is inherited by forked workers, so
    # every execution of this spec kills its worker process.
    monkeypatch.setattr(
        parallel, "_run_one",
        lambda spec, t, c=False: os._exit(43),
    )
    supervisor = WorkerSupervisor(max_workers=1, max_crashes=2)
    supervisor.start()
    try:
        supervisor.submit("poison", tiny_spec())
        events = []
        deadline = 240
        while not events and deadline > 0:
            events = supervisor.poll(0.25)
            deadline -= 1
        assert events, "quarantine outcome never surfaced"
        task_id, outcome = events[0]
        assert task_id == "poison"
        assert outcome.error is not None
        assert outcome.error.kind == "worker-crash"
        assert "quarantined" in outcome.error.message
        assert supervisor.quarantined == {"poison": 2}
        # One respawn per crash: the pool healed itself both times.
        assert supervisor.respawns == 2
        assert supervisor.outstanding == 0
    finally:
        supervisor.stop()


def test_supervisor_validates_configuration():
    with pytest.raises(ServeError):
        WorkerSupervisor(max_workers=0)
    with pytest.raises(ServeError):
        WorkerSupervisor(max_crashes=0)
    supervisor = WorkerSupervisor()
    with pytest.raises(ServeError, match="not running"):
        supervisor.submit("t", tiny_spec())


# ----------------------------------------------------------------------
# Admission control (no scheduler needed: jobs just queue)
# ----------------------------------------------------------------------


def make_unstarted_server(tmp_path, **overrides) -> ExperimentServer:
    config = ServeConfig(root=tmp_path, **overrides)
    return ExperimentServer(config)


def canonical_batch(*specs):
    return [spec.canonical() for spec in specs]


def test_queue_limit_rejects_with_retry_after(tmp_path):
    server = make_unstarted_server(tmp_path, queue_limit=2, client_limit=9)
    server.submit_job("alice", canonical_batch(tiny_spec()))
    server.submit_job(
        "alice", canonical_batch(tiny_spec("hetero-coordinated"))
    )
    with pytest.raises(ServeError) as excinfo:
        server.submit_job("bob", canonical_batch(tiny_spec("random")))
    rejection = excinfo.value
    assert rejection.code == 429
    assert rejection.retry_after_sec >= 1
    counts = server.recorder.registry.get("serve_admissions_total")
    assert counts.value(result="rejected-queue-full") == 1
    assert counts.value(result="accepted") == 2


def test_duplicate_submission_bypasses_full_queue(tmp_path):
    server = make_unstarted_server(tmp_path, queue_limit=1)
    batch = canonical_batch(tiny_spec())
    job, disposition = server.submit_job("alice", batch)
    assert disposition == "created"
    # Queue is now full, but resubmitting the same work must succeed:
    # idempotent retries cannot be starved by the limit they created.
    again, disposition = server.submit_job("alice", batch)
    assert disposition == "duplicate"
    assert again.job_id == job.job_id


def test_per_client_limit_is_isolated_per_client(tmp_path):
    server = make_unstarted_server(tmp_path, queue_limit=9, client_limit=1)
    server.submit_job("alice", canonical_batch(tiny_spec()))
    with pytest.raises(ServeError) as excinfo:
        server.submit_job(
            "alice", canonical_batch(tiny_spec("hetero-coordinated"))
        )
    assert excinfo.value.code == 429
    # A different client is unaffected by alice's backlog.
    job, disposition = server.submit_job(
        "bob", canonical_batch(tiny_spec("hetero-coordinated"))
    )
    assert disposition == "created" and job.client == "bob"


def test_draining_server_rejects_with_503(tmp_path):
    server = make_unstarted_server(tmp_path)
    server.drain()
    with pytest.raises(ServeError) as excinfo:
        server.submit_job("alice", canonical_batch(tiny_spec()))
    assert excinfo.value.code == 503


def test_bad_batches_rejected_before_any_journaling(tmp_path):
    server = make_unstarted_server(tmp_path)
    with pytest.raises(ServeError):
        server.submit_job("bad client!", canonical_batch(tiny_spec()))
    with pytest.raises(ServeError):
        server.submit_job("alice", "not-a-batch")
    assert not (tmp_path / "serve-jobs.jsonl").exists()


# ----------------------------------------------------------------------
# End-to-end over HTTP: the no-perturbation acceptance check
# ----------------------------------------------------------------------


@needs_fork
def test_served_results_identical_to_run_specs_all_policies(server):
    specs = [
        make_spec("redis", policy, epochs=2)
        for policy in available_policies()
    ]
    client = client_for(server, client_id="equivalence")
    served = client.run(specs, timeout_sec=600)
    direct = run_specs(specs)
    assert len(served) == len(specs)
    for got, want in zip(served, direct):
        assert got.ok and want.ok
        assert result_dict(got.result) == result_dict(want.result), (
            got.spec.label
        )
    # Serve config never entered the cache keys: the daemon's cache now
    # hits for a spec keyed exactly as run_specs would key it.
    fingerprint = server.store.fingerprint
    for spec in specs:
        assert (
            server.store.cache.lookup(spec, fingerprint) is not None
        ), spec.label


class _SlowWorkload(Workload):
    """Holds the executing thread for three seconds of wall clock."""

    name = "serve-test-slow"
    metric = "seconds"

    def default_epochs(self) -> int:
        return 1

    def epochs(self, count):
        time.sleep(3.0)
        return iter(())


def test_forkless_daemon_runs_specs_inline(tmp_path, monkeypatch):
    """Without fork the supervisor runs each spec inline on the
    scheduler thread, outside the server lock: /healthz answers while a
    spec runs, and results still equal run_specs'."""
    monkeypatch.setattr(parallel, "_fork_available", lambda: False)
    registry.register_workload(_SlowWorkload.name, _SlowWorkload)
    srv = ExperimentServer(ServeConfig(root=tmp_path, workers=2))
    srv.start()
    specs = [tiny_spec(), tiny_spec("heap-od")]
    try:
        client = client_for(srv, client_id="inline")
        slow = make_spec(_SlowWorkload.name, "hetero-lru", epochs=1)
        job_id = client.submit([slow] + specs)
        time.sleep(0.5)  # the scheduler is inside the slow spec now
        probe = client_for(srv, max_attempts=1, timeout_sec=1.0)
        assert probe.healthz()["worker_mode"] == "serial"
        served = client.outcomes(client.wait(job_id, timeout_sec=60))[1:]
    finally:
        registry._REGISTRY.pop(_SlowWorkload.name, None)
        srv.drain()
        assert srv.wait(timeout_sec=30), "drain did not finish"
    assert [outcome.source for outcome in served] == ["serial", "serial"]
    direct = run_specs(specs)
    assert [result_dict(o.result) for o in served] == [
        result_dict(o.result) for o in direct
    ]


@needs_fork
def test_second_submission_served_from_cache(server):
    specs = [tiny_spec()]
    client = client_for(server, client_id="cacher")
    first = client.run(specs, timeout_sec=120)
    assert first[0].source in ("parallel", "serial")
    # Different client -> different job id -> same cache entry.
    other = client_for(server, client_id="cacher2")
    second = other.run(specs, timeout_sec=120)
    assert second[0].source == "cache"
    assert result_dict(first[0].result) == result_dict(second[0].result)


@needs_fork
def test_duplicate_specs_in_one_batch_share_one_execution(server):
    spec = tiny_spec("nvm-write-aware")
    client = client_for(server, client_id="dupes")
    served = client.run([spec, spec], timeout_sec=120)
    assert result_dict(served[0].result) == result_dict(served[1].result)


@needs_fork
def test_healthz_and_metrics_endpoints(server):
    client = client_for(server, client_id="probe")
    health = client.healthz()
    assert health["status"] == "ok" and health["ready"]
    assert health["worker_mode"] in ("forked", "serial")
    assert health["queue_limit"] == 16
    client.run([tiny_spec()], timeout_sec=120)
    text = client.metrics_text()
    # PR 9 sweep series and the serve-side series share one registry.
    for needle in (
        "sweep_specs_total",
        "serve_admissions_total",
        "serve_queue_depth",
        "serve_jobs_total",
        "serve_worker_respawns_total",
        "serve_up 1",
    ):
        assert needle in text, needle


@needs_fork
def test_http_surfaces_structured_errors(server):
    client = client_for(server, client_id="errors")
    status, _, body = client._request("GET", "/jobs/no-such-job")
    assert status == 404
    status, _, body = client._request("POST", "/jobs", {"client": "x y"})
    assert status == 400
    status, _, body = client._request("GET", "/nope")
    assert status == 404
    with pytest.raises(ServeError, match="unknown"):
        client.status("no-such-job")


@needs_fork
def test_jobs_index_lists_jobs(server):
    client = client_for(server, client_id="lister")
    job_id = client.submit([tiny_spec()])
    client.wait(job_id, timeout_sec=120)
    index = client._request("GET", "/jobs")[2]
    assert job_id.encode("ascii") in index


@needs_fork
def test_journaled_deterministic_failure_reused_by_daemon(tmp_path):
    # A deterministic failure journaled by a *CLI sweep* is reused by
    # the daemon without re-running (shared substrate, shared policy).
    spec = tiny_spec()
    failed = SpecOutcome(
        spec=spec,
        error=SpecFailure(
            kind="error", message="MigrationError: injected",
            error_type="MigrationError",
        ),
        source="parallel",
    )
    store = JobStore(tmp_path)
    store.journal.record(spec, store.fingerprint, failed)

    server = ExperimentServer(ServeConfig(root=tmp_path, workers=1))
    server.start()
    try:
        client = client_for(server, client_id="reuser")
        outcomes = client.run([spec], timeout_sec=60)
        assert outcomes[0].error is not None
        assert outcomes[0].error.kind == "error"
        assert outcomes[0].source == "journal"
    finally:
        server.drain()
        assert server.wait(timeout_sec=30)


@needs_fork
def test_recovered_jobs_run_after_restart(tmp_path):
    # Accepted-but-never-run work survives a daemon death: a second
    # daemon on the same root picks the journaled job up and runs it.
    store = JobStore(tmp_path)
    job, _ = store.submit("alice", [tiny_spec()])

    server = ExperimentServer(ServeConfig(root=tmp_path, workers=1))
    server.start()
    try:
        client = client_for(server, client_id="alice")
        payload = client.wait(job.job_id, timeout_sec=120)
        assert payload["state"] == "done"
        assert payload["recovered"]
        outcomes = client.outcomes(payload)
        direct = run_specs([tiny_spec()])
        assert result_dict(outcomes[0].result) == result_dict(
            direct[0].result
        )
    finally:
        server.drain()
        assert server.wait(timeout_sec=30)


@needs_fork
def test_client_backs_off_on_429_and_gives_up(tmp_path):
    server = make_unstarted_server(tmp_path, queue_limit=1)
    server.submit_job("filler", canonical_batch(tiny_spec()))
    httpd = None
    try:
        from repro.serve.server import _make_httpd
        import threading

        httpd = _make_httpd(server)
        thread = threading.Thread(
            target=httpd.serve_forever, daemon=True
        )
        thread.start()
        host, port = httpd.server_address[0], httpd.server_address[1]
        client = ServeClient(
            f"http://{host}:{port}", client_id="late",
            max_attempts=3, backoff_sec=0.01, timeout_sec=5.0,
        )
        started = time.monotonic()
        with pytest.raises(ServeError, match="gave up"):
            client.submit([tiny_spec("hetero-coordinated")])
        assert time.monotonic() - started >= 0.02  # it really backed off
    finally:
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()


def test_client_rejects_bad_addresses():
    with pytest.raises(ServeError, match="address"):
        ServeClient("ftp://nope")
    with pytest.raises(ServeError, match="address"):
        ServeClient("http://host:notaport")
    with pytest.raises(ServeError):
        ServeClient("http://x:1", max_attempts=0)


def test_client_jitter_is_deterministic():
    from repro.serve.client import _jitter_fraction

    assert _jitter_fraction("tok", 1) == _jitter_fraction("tok", 1)
    assert 0.0 <= _jitter_fraction("tok", 1) < 1.0
    assert _jitter_fraction("tok", 1) != _jitter_fraction("tok", 2)
    assert _jitter_fraction("tok", 1) != _jitter_fraction("kot", 1)


@needs_fork
def test_unix_socket_transport(tmp_path):
    socket_path = str(tmp_path / "serve.sock")
    server = ExperimentServer(
        ServeConfig(root=tmp_path / "root", unix_socket=socket_path,
                    workers=1)
    )
    server.start()
    try:
        client = ServeClient(f"unix:{socket_path}", client_id="unixer")
        outcomes = client.run([tiny_spec()], timeout_sec=120)
        assert outcomes[0].ok
        assert client.healthz()["status"] == "ok"
    finally:
        server.drain()
        assert server.wait(timeout_sec=30)
