"""Determinism-equivalence harness for repro.sim.parallel.

Correctness here *is* reproducibility: a grid point must produce a
bit-identical :class:`RunResult` whether it runs serially in-process,
in a forked worker, or comes back from the on-disk cache.  These tests
assert that equivalence field-by-field for every registered policy,
and pin the failure modes — cache corruption, worker crashes, per-spec
timeouts, batches larger than the worker pipe — as structured outcomes
rather than hung or poisoned sweeps.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import pickle
import signal
import threading
import time

import pytest

from repro.cli import main
from repro.core.policy import available_policies
from repro.errors import SweepError
from repro.experiments import run_figure, run_table6
from repro.experiments.placement import fig9_grid_specs
from repro.sim import parallel
from repro.sim.parallel import (
    ExperimentSpec,
    ResultCache,
    WorkerSupervisor,
    make_spec,
    results_or_raise,
    run_spec,
    run_specs,
    source_fingerprint,
)
from repro.sim.runner import run_experiment
from repro.workloads import registry
from repro.workloads.base import Workload

EPOCHS = 2
WORKLOADS = ("nginx", "redis")

_HAS_FORK = "fork" in __import__("multiprocessing").get_all_start_methods()
_HAS_ALARM = hasattr(signal, "SIGALRM")

needs_fork = pytest.mark.skipif(
    not _HAS_FORK, reason="platform lacks fork start method"
)


def result_dict(result) -> dict:
    """Field-by-field view of a RunResult (recursing into RunStats,
    AllocStats, and every held dict) for exact equivalence checks."""
    return dataclasses.asdict(result)


def all_policy_specs() -> "list[ExperimentSpec]":
    return [
        make_spec(app, policy, epochs=EPOCHS)
        for app in WORKLOADS
        for policy in available_policies()
    ]


# ----------------------------------------------------------------------
# Serial vs parallel vs direct equivalence
# ----------------------------------------------------------------------


@needs_fork
def test_parallel_equals_serial_for_every_policy():
    """The headline guarantee: fan-out changes wall time, never results."""
    specs = all_policy_specs()
    serial = run_specs(specs, max_workers=1)
    fanned = run_specs(specs, max_workers=3)
    assert [o.ok for o in serial] == [True] * len(specs)
    assert [o.ok for o in fanned] == [True] * len(specs)
    assert {o.source for o in serial} == {"serial"}
    assert {o.source for o in fanned} == {"parallel"}
    for before, after in zip(serial, fanned):
        assert result_dict(before.result) == result_dict(after.result), (
            before.spec.label
        )


def test_spec_path_equals_run_experiment():
    """run_spec wraps run_experiment without perturbing anything."""
    for app in WORKLOADS:
        direct = run_experiment(app, "hetero-lru", epochs=EPOCHS)
        via_spec = run_spec(make_spec(app, "hetero-lru", epochs=EPOCHS))
        assert result_dict(direct) == result_dict(via_spec)


def test_sweep_rows_identical_serial_vs_parallel():
    """Driver-level equivalence over the sweep helper."""
    from repro.experiments.sweep import sweep

    kwargs = dict(
        apps=("nginx",), policies=("hetero-lru", "heap-od"),
        ratios=(0.25, 0.5), epochs=EPOCHS,
    )
    serial_rows = sweep(max_workers=1, **kwargs)
    if _HAS_FORK:
        parallel_rows = sweep(max_workers=2, **kwargs)
        assert serial_rows == parallel_rows


def test_duplicate_specs_share_one_result():
    spec = make_spec("nginx", "heap-od", epochs=EPOCHS)
    outcomes = run_specs([spec, spec, spec], max_workers=1)
    assert outcomes[0].result is outcomes[1].result is outcomes[2].result


# ----------------------------------------------------------------------
# Cache round trips
# ----------------------------------------------------------------------


def test_cache_miss_then_hit_bit_identical(tmp_path):
    cache = ResultCache(tmp_path)
    specs = [make_spec("nginx", "hetero-lru", epochs=EPOCHS)]
    cold = run_specs(specs, max_workers=1, cache=cache)
    assert cold[0].source == "serial"
    assert (cache.hits, cache.misses) == (0, 1)
    warm = run_specs(specs, max_workers=1, cache=cache)
    assert warm[0].source == "cache"
    assert cache.hits == 1
    assert result_dict(cold[0].result) == result_dict(warm[0].result)


class SpecEntry:
    """A spec's cached ``RunResult``; ``run_specs`` fills it."""

    #: A payload ``spec`` field and a value naming another entry.
    other = ("app", "redis")

    def __init__(self, policy: str) -> None:
        self.spec = make_spec("nginx", policy, epochs=EPOCHS)

    def fill(self, cache: ResultCache) -> bool:
        """Run through the cache; whether the entry served the run."""
        outcome = run_specs([self.spec], max_workers=1, cache=cache)[0]
        assert outcome.ok
        return outcome.source == "cache"

    def key(self, fingerprint: str) -> str:
        return self.spec.cache_key(fingerprint)

    def store(self, cache: ResultCache, fingerprint: str) -> None:
        cache.store(self.spec, fingerprint, run_spec(self.spec))

    def lookup(self, cache: ResultCache, fingerprint: str):
        return cache.lookup(self.spec, fingerprint)


class FigureEntry:
    """Table 6's cached rows; ``repro figure table6`` fills it."""

    other = ("figure", "table5")
    name = "table6"

    def fill(self, cache: ResultCache) -> bool:
        hits = cache.hits
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parallel, "default_cache", lambda: cache)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["figure", self.name]) == 0
        return cache.hits > hits

    def key(self, fingerprint: str) -> str:
        return ResultCache.figure_key(self.name, fingerprint)

    def store(self, cache: ResultCache, fingerprint: str) -> None:
        cache.store_figure(self.name, fingerprint, run_table6())

    def lookup(self, cache: ResultCache, fingerprint: str):
        return cache.lookup_figure(self.name, fingerprint)


def test_cache_corruption_degrades_to_miss(tmp_path):
    fingerprint = source_fingerprint()
    for entry in (SpecEntry("slowmem-only"), FigureEntry()):
        label = type(entry).__name__
        directory = tmp_path / label
        cache = ResultCache(directory)
        assert not entry.fill(cache), label
        path = cache.path_for(entry.key(fingerprint))
        assert path.exists(), label
        valid = path.read_bytes()
        path.write_bytes(b"not a pickle")
        assert not entry.fill(cache), label
        # The re-run repaired the entry.
        assert entry.fill(ResultCache(directory)), label
        # A truncated entry is a miss too, and is evicted.
        path.write_bytes(valid[: len(valid) // 2])
        assert entry.lookup(cache, fingerprint) is None, label
        assert not path.exists(), label


def test_cache_rejects_version_skew_and_wrong_spec(tmp_path):
    fingerprint = source_fingerprint()
    for entry in (SpecEntry("heap-od"), FigureEntry()):
        label = type(entry).__name__
        cache = ResultCache(tmp_path)
        entry.store(cache, fingerprint)
        path = cache.path_for(entry.key(fingerprint))

        payload = pickle.loads(path.read_bytes())
        payload["version"] = ResultCache.FORMAT_VERSION + 1
        path.write_bytes(pickle.dumps(payload))
        assert entry.lookup(cache, fingerprint) is None, label
        assert not path.exists(), f"{label}: skewed entry should be evicted"

        # A colliding key holding another entry's payload is a miss.
        entry.store(cache, fingerprint)
        payload = pickle.loads(path.read_bytes())
        field, value = entry.other
        payload["spec"][field] = value
        path.write_bytes(pickle.dumps(payload))
        assert entry.lookup(cache, fingerprint) is None, label


def test_source_fingerprint_invalidates_cache(tmp_path):
    for entry in (SpecEntry("hetero-lru"), FigureEntry()):
        cache = ResultCache(tmp_path)
        entry.store(cache, "fingerprint-a")
        assert entry.lookup(cache, "fingerprint-a") is not None
        assert entry.lookup(cache, "fingerprint-b") is None, (
            "a source change must invalidate every cached result"
        )


def test_run_figure_persists_only_through_the_result_cache(
    tmp_path, monkeypatch
):
    """``run_figure`` keeps no run in memory.  With
    ``REPRO_SWEEP_CACHE_DIR`` set it writes one entry per distinct spec
    (and no figure entry), and a second call simulates nothing; unset,
    every call simulates its grid again."""
    simulated = []

    def counting_run_spec(spec, *args, **kwargs):
        simulated.append(spec)
        return run_spec(spec, *args, **kwargs)

    monkeypatch.setattr(parallel, "run_spec", counting_run_spec)
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: {0}, raising=False
    )
    # SlowMem-only is both the baseline and a series: 4 requests, 3 runs.
    params = dict(
        apps=("nginx",), ratios=(0.25,),
        policies=("heap-od", "slowmem-only"), epochs=EPOCHS,
    )
    distinct = set(fig9_grid_specs(**params))
    assert len(distinct) == 3
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv(parallel.CACHE_DIR_ENV, str(cache_dir))
    first = run_figure("fig9", **params)
    assert len(simulated) == len(distinct) and set(simulated) == distinct
    fingerprint = source_fingerprint()
    assert sorted(path.name for path in cache_dir.glob("*.pickle")) == sorted(
        f"{spec.cache_key(fingerprint)}.pickle" for spec in distinct
    )
    simulated.clear()
    assert run_figure("fig9", **params) == first
    assert simulated == []

    monkeypatch.delenv(parallel.CACHE_DIR_ENV)
    for _ in range(2):
        simulated.clear()
        assert run_figure("fig9", **params) == first
        assert len(simulated) == len(distinct)


# ----------------------------------------------------------------------
# Fallbacks and structured failures
# ----------------------------------------------------------------------


class _SleepyWorkload(Workload):
    """Burns wall-clock time: the per-spec timeout target."""

    name = "parallel-test-sleepy"
    metric = "seconds"

    def default_epochs(self) -> int:
        return 1

    def epochs(self, count):
        time.sleep(20)
        return iter(())


class _CrashyWorkload(Workload):
    """Kills its worker process outright (simulated segfault)."""

    name = "parallel-test-crashy"
    metric = "seconds"

    def default_epochs(self) -> int:
        return 1

    def epochs(self, count):
        os._exit(3)


@pytest.fixture
def scratch_workloads():
    """Temporarily register the failure-injection workloads."""
    names = {
        _SleepyWorkload.name: _SleepyWorkload,
        _CrashyWorkload.name: _CrashyWorkload,
    }
    for name, factory in names.items():
        registry.register_workload(name, factory)
    yield names
    for name in names:
        registry._REGISTRY.pop(name, None)


@pytest.mark.parametrize("max_workers", [1, None])
def test_max_workers_one_never_forks(monkeypatch, max_workers):
    """A serial sweep runs inline: it never spawns a worker process.
    ``None`` counts the CPUs this process may use, so a process pinned
    to one CPU runs inline however many the host has."""

    def _boom(self):  # pragma: no cover - defensive
        raise AssertionError("serial path spawned a worker process")

    monkeypatch.setattr(WorkerSupervisor, "_spawn", _boom)
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: {0}, raising=False
    )
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    outcomes = run_specs(
        [
            make_spec("nginx", "hetero-lru", epochs=EPOCHS),
            make_spec("nginx", "heap-od", epochs=EPOCHS),
        ],
        max_workers=max_workers,
    )
    assert [o.source for o in outcomes] == ["serial", "serial"]
    assert all(o.ok for o in outcomes)


@needs_fork
def test_pool_that_fails_to_start_runs_serially(monkeypatch):
    def _fork_fails(self):
        raise OSError("fork: resource temporarily unavailable")

    monkeypatch.setattr(WorkerSupervisor, "_spawn", _fork_fails)
    outcomes = run_specs(
        [
            make_spec("nginx", "hetero-lru", epochs=EPOCHS),
            make_spec("nginx", "heap-od", epochs=EPOCHS),
        ],
        max_workers=2,
    )
    assert [o.source for o in outcomes] == ["serial", "serial"]
    assert all(o.ok for o in outcomes)


def test_forkless_platform_falls_back_to_serial(monkeypatch):
    monkeypatch.setattr(parallel, "_fork_available", lambda: False)
    outcomes = run_specs(
        [
            make_spec("nginx", "hetero-lru", epochs=EPOCHS),
            make_spec("nginx", "heap-od", epochs=EPOCHS),
        ],
        max_workers=4,
    )
    assert [o.source for o in outcomes] == ["serial", "serial"]
    assert all(o.ok for o in outcomes)


@pytest.mark.skipif(not _HAS_ALARM, reason="no SIGALRM on this platform")
def test_serial_timeout_is_structured(scratch_workloads):
    outcomes = run_specs(
        [make_spec(_SleepyWorkload.name, "hetero-lru", epochs=1)],
        max_workers=1,
        timeout_sec=0.3,
    )
    assert not outcomes[0].ok
    assert outcomes[0].error.kind == "timeout"
    assert "0.3" in outcomes[0].error.message


@needs_fork
@pytest.mark.skipif(not _HAS_ALARM, reason="no SIGALRM on this platform")
def test_parallel_timeout_spares_the_rest_of_the_grid(scratch_workloads):
    outcomes = run_specs(
        [
            make_spec(_SleepyWorkload.name, "hetero-lru", epochs=1),
            make_spec("nginx", "hetero-lru", epochs=EPOCHS),
        ],
        max_workers=2,
        timeout_sec=0.3,
    )
    assert outcomes[0].error is not None
    assert outcomes[0].error.kind == "timeout"
    assert outcomes[1].ok, "healthy grid points must survive a timeout"


@needs_fork
def test_worker_crash_is_structured_not_hung(scratch_workloads):
    outcomes = run_specs(
        [make_spec(_CrashyWorkload.name, "hetero-lru", epochs=1)],
        max_workers=2,
    )
    assert not outcomes[0].ok
    assert outcomes[0].error.kind == "worker-crash"
    assert "worker process died" in outcomes[0].error.message


@needs_fork
@pytest.mark.parametrize("retries", [0, 2])
def test_worker_crash_fails_only_its_own_spec(scratch_workloads, retries):
    """One crashing spec among 24 healthy ones fails alone, and stays
    the only failure when its retries crash again."""
    healthy = [
        make_spec("nginx", "hetero-lru", epochs=3, seed=seed)
        for seed in range(24)
    ]
    crashy = make_spec(_CrashyWorkload.name, "hetero-lru", epochs=1)
    specs = healthy[:5] + [crashy] + healthy[5:]
    outcomes = run_specs(
        specs, max_workers=2, retries=retries, retry_backoff_sec=0.0
    )
    assert [i for i, o in enumerate(outcomes) if not o.ok] == [5]
    assert outcomes[5].error.kind == "worker-crash"
    assert f"died {retries + 1} time(s)" in outcomes[5].error.message
    serial = run_specs(healthy, max_workers=1)
    survivors = outcomes[:5] + outcomes[6:]
    assert [result_dict(o.result) for o in survivors] == [
        result_dict(o.result) for o in serial
    ]


def many_small_specs(
    count: int = 600, first_seed: int = 0
) -> "list[ExperimentSpec]":
    """600 of them are more tasks than a 64 KiB pipe holds at once
    (~300 B each)."""
    return [
        make_spec("nginx", "hetero-lru", epochs=1, seed=seed)
        for seed in range(first_seed, first_seed + count)
    ]


def finish_within(seconds: float, work, on_wedge=lambda: None):
    """Run ``work()`` on a daemon thread and return its result, so a
    wedged pool fails the test instead of hanging it.  ``on_wedge``
    cleans up after a wedge (``stop()`` could block too)."""
    box = {}
    thread = threading.Thread(
        target=lambda: box.update(value=work()), daemon=True
    )
    thread.start()
    thread.join(timeout=seconds)
    if thread.is_alive():
        on_wedge()
        pytest.fail(f"still running after {seconds:g}s")
    assert "value" in box, "the work raised; see the thread's traceback"
    return box["value"]


def drive(supervisor, specs) -> dict:
    """Submit ``specs`` under their indexes; poll until all are back."""

    def work():
        for index, spec in enumerate(specs):
            supervisor.submit(index, spec)
        outcomes = {}
        while supervisor.outstanding:
            outcomes.update(supervisor.poll(0.25))
        return outcomes

    def terminate_workers():
        for process in list(supervisor._workers.values()):
            process.terminate()

    return finish_within(60, work, terminate_workers)


@needs_fork
def test_supervisor_completes_a_batch_larger_than_its_pipe():
    specs = many_small_specs()
    supervisor = WorkerSupervisor(max_workers=2)
    supervisor.start()
    try:
        outcomes = drive(supervisor, specs)
    finally:
        supervisor.stop()
    assert sorted(outcomes) == list(range(len(specs)))
    assert all(outcome.ok for outcome in outcomes.values())


@needs_fork
def test_run_specs_completes_a_batch_larger_than_the_pipe():
    specs = many_small_specs()
    outcomes = run_specs(specs, max_workers=2)
    assert all(outcome.ok for outcome in outcomes)
    assert [outcome.spec for outcome in outcomes] == specs


@needs_fork
@pytest.mark.parametrize("victims", [(0,), (1,), (0, 1)])
def test_supervisor_replaces_sigkilled_idle_workers(victims):
    """Workers SIGKILLed while they wait for a task (an OOM kill, an
    operator) are replaced, and every spec submitted afterwards comes
    back.  A task queue shared by all workers fails this: the idle
    worker holding its read lock takes the lock to its grave."""
    supervisor = WorkerSupervisor(max_workers=2)
    supervisor.start()
    try:
        assert len(drive(supervisor, many_small_specs(4))) == 4
        workers = list(supervisor._workers.values())
        for index in victims:
            os.kill(workers[index].pid, signal.SIGKILL)
            workers[index].join(timeout=10)
            assert not workers[index].is_alive()
        outcomes = drive(supervisor, many_small_specs(4, first_seed=4))
        assert supervisor.respawns == len(victims)
    finally:
        supervisor.stop()
    assert sorted(outcomes) == [0, 1, 2, 3]
    assert all(outcome.ok for outcome in outcomes.values())


@needs_fork
def test_run_specs_survives_a_sigkilled_worker():
    """A worker SIGKILLed mid-sweep costs at most one retry: every spec
    comes back, with the serial result."""
    import multiprocessing

    specs = many_small_specs(40)
    killed = []

    def kill_a_worker(outcome, done, total):
        if not killed:
            victim = multiprocessing.active_children()[0]
            os.kill(victim.pid, signal.SIGKILL)
            killed.append(victim.pid)

    def terminate_workers():
        for process in multiprocessing.active_children():
            process.terminate()

    outcomes = finish_within(
        60,
        lambda: run_specs(
            specs,
            max_workers=2,
            retries=1,
            retry_backoff_sec=0.0,
            progress=kill_a_worker,
        ),
        terminate_workers,
    )
    assert killed
    serial = run_specs(specs, max_workers=1)
    assert [result_dict(o.result) for o in outcomes] == [
        result_dict(o.result) for o in serial
    ]


def test_simulation_error_is_structured():
    # An unknown policy raises inside run_spec; the sweep records it
    # as a structured outcome and carries on.
    outcomes = run_specs(
        [make_spec("nginx", "no-such-policy", epochs=EPOCHS)],
        max_workers=1,
    )
    assert not outcomes[0].ok
    assert outcomes[0].error.kind == "error"
    assert "no-such-policy" in outcomes[0].error.message


def test_results_or_raise_reports_failures():
    outcomes = run_specs(
        [
            make_spec("nginx", "hetero-lru", epochs=EPOCHS),
            make_spec("nginx", "no-such-policy", epochs=EPOCHS),
        ],
        max_workers=1,
    )
    with pytest.raises(SweepError, match="1 of 2 grid points failed"):
        results_or_raise(outcomes)


def test_progress_callback_sees_every_grid_point():
    seen = []
    specs = [
        make_spec("nginx", "hetero-lru", epochs=EPOCHS),
        make_spec("nginx", "heap-od", epochs=EPOCHS),
    ]
    run_specs(
        specs,
        max_workers=1,
        progress=lambda outcome, done, total: seen.append((done, total)),
    )
    assert seen == [(1, 2), (2, 2)]


# ----------------------------------------------------------------------
# Pickle round trips (everything a worker ships home)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("policy", sorted(available_policies()))
def test_runresult_pickle_roundtrip_every_policy(policy):
    """RunResult and everything it transitively holds must survive the
    worker boundary byte-for-byte."""
    result = run_experiment("nginx", policy, epochs=EPOCHS)
    clone = pickle.loads(pickle.dumps(result))
    assert result_dict(result) == result_dict(clone)
    assert clone.runtime_sec == result.runtime_sec
    assert clone.metric_value == result.metric_value


def test_sanitized_runresult_pickle_roundtrip():
    """sanitize=True attaches devtools report objects; they ride along."""
    from repro.sim.runner import build_config

    config = build_config(fast_ratio=0.25, slow_gib=0.5)
    config.sanitize = True
    result = run_experiment("nginx", "hetero-lru", epochs=3, config=config)
    clone = pickle.loads(pickle.dumps(result))
    assert len(clone.sanitizer_reports) == len(result.sanitizer_reports)


def test_spec_and_outcome_pickle_roundtrip():
    spec = make_spec(
        "graphchi", "vmm-exclusive", throttle=(1, 1),
        policy_args={"scan_interval_epochs": 2},
    )
    assert pickle.loads(pickle.dumps(spec)) == spec
    outcome = run_specs([make_spec("nginx", "heap-od", epochs=EPOCHS)])[0]
    clone = pickle.loads(pickle.dumps(outcome))
    assert clone.spec == outcome.spec
    assert result_dict(clone.result) == result_dict(outcome.result)
