"""Daemon lifecycle under real signals: SIGKILL recovery, SIGTERM drain.

These tests drive the actual ``repro serve`` CLI in a subprocess — the
same process-boundary reality a deployment has.  The headline pin:
a daemon SIGKILLed mid-flight and restarted over the same state root
finishes the job with results *bit-for-bit identical* to an
uninterrupted in-process ``run_specs`` over the same batch.
"""

from __future__ import annotations

import dataclasses
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.serve import ServeClient
from repro.serve.jobstore import JobStore
from repro.sim.parallel import make_spec, run_specs

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="needs POSIX signals"
)

_ADDRESS_RE = re.compile(r"listening on http://([0-9.]+:\d+)")


def batch():
    return [
        make_spec(app, policy, epochs=3)
        for app in ("redis", "nginx")
        for policy in ("hetero-lru", "hetero-coordinated", "slowmem-only")
    ]


def result_dicts(outcomes):
    return [dataclasses.asdict(outcome.result) for outcome in outcomes]


def repro_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return env


def start_daemon(root, *extra: str) -> "tuple[subprocess.Popen, str]":
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--cache-dir", str(root), "--workers", "2", "--port", "0",
            *extra,
        ],
        env=repro_env(),
        stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stderr.readline()
    match = _ADDRESS_RE.search(line)
    assert match, f"daemon failed to start: {line!r}"
    return proc, match.group(1)


def stop_daemon(proc: subprocess.Popen) -> int:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
    if proc.stderr is not None:
        proc.stderr.close()
    return proc.returncode


def test_sigkill_mid_flight_then_restart_is_bit_identical(tmp_path):
    specs = batch()
    root = tmp_path / "state"
    proc, address = start_daemon(root)
    try:
        client = ServeClient(f"http://{address}", client_id="survivor")
        job_id = client.submit(specs)
    finally:
        # SIGKILL the moment the 202 is out: no drain, no checkpoint
        # hook, nothing — only the journals survive.
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        proc.stderr.close()

    proc, address = start_daemon(root)
    try:
        client = ServeClient(f"http://{address}", client_id="survivor")
        # The restarted daemon recovered the journaled job under the
        # same content-addressed id and finishes it unprompted.
        payload = client.wait(job_id, timeout_sec=600, poll_sec=5.0)
        assert payload["state"] == "done"
        served = client.outcomes(payload)
    finally:
        assert stop_daemon(proc) == 0

    direct = run_specs(specs)
    assert all(outcome.ok for outcome in served)
    assert result_dicts(served) == result_dicts(direct)


def child_pids(pid: int) -> "list[int]":
    """Live direct children of ``pid``, read from ``/proc``."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we looked
        # Fields after the parenthesised command name: state, ppid, ...
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z" and int(fields[1]) == pid:
            children.append(int(entry))
    return children


def pid_alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2:].split()[0] != "Z"


def sigkill_with_two_workers(proc: subprocess.Popen) -> None:
    """SIGKILL ``proc`` once it has two workers; fail if either worker
    outlives it by 10 s.  A worker must see EOF on its pipe (idle) or
    a broken pipe when it sends its result (busy), and exit."""
    try:
        deadline = time.monotonic() + 30.0
        workers = child_pids(proc.pid)
        while len(workers) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = child_pids(proc.pid)
        assert len(workers) == 2, workers
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        if proc.stderr is not None:
            proc.stderr.close()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if not any(pid_alive(pid) for pid in workers):
            break
        time.sleep(0.1)
    survivors = [pid for pid in workers if pid_alive(pid)]
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)  # don't leak them past the test
    assert not survivors, (
        f"workers outlived their SIGKILLed parent: {survivors}"
    )


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_sigkilled_daemon_leaves_no_workers_behind(tmp_path):
    proc, _ = start_daemon(tmp_path / "state")
    sigkill_with_two_workers(proc)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_sigkilled_sweep_leaves_no_workers_behind(tmp_path):
    """Killed mid-grid: the sweep runs on the daemon's worker pool."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "sweep",
            "--policies", "hetero-lru", "hetero-coordinated", "heap-od",
            "heap-io-slab-od", "vmm-exclusive",
            "--ratios", "0.125", "0.25", "--epochs", "300",
            "--workers", "2", "--no-cache", "--quiet",
        ],
        env=repro_env(),
        cwd=tmp_path,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    sigkill_with_two_workers(proc)


def test_daemon_serves_a_batch_larger_than_its_task_pipe(tmp_path):
    """600 distinct specs are more tasks than the worker pipe holds at
    once; the daemon must keep answering and finish the job."""
    specs = [
        make_spec("nginx", "hetero-lru", epochs=1, seed=seed)
        for seed in range(600)
    ]
    proc, address = start_daemon(tmp_path / "state")
    try:
        # Short client timeouts: a wedged daemon fails the test quickly
        # instead of hanging it.
        client = ServeClient(
            f"http://{address}", client_id="bulk", max_attempts=2,
            timeout_sec=5.0,
        )
        job_id = client.submit(specs)
        payload = client.wait(job_id, timeout_sec=120, poll_sec=5.0)
        served = client.outcomes(payload)
        assert client.healthz()["status"] == "ok"
    finally:
        assert stop_daemon(proc) == 0
    assert [outcome.spec for outcome in served] == specs
    assert all(outcome.ok for outcome in served)


def test_restart_reuses_cache_for_finished_work(tmp_path):
    specs = batch()[:3]
    root = tmp_path / "state"
    proc, address = start_daemon(root)
    try:
        client = ServeClient(f"http://{address}", client_id="first-life")
        first = client.run(specs, timeout_sec=600)
        assert all(outcome.ok for outcome in first)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        proc.stderr.close()

    proc, address = start_daemon(root)
    try:
        # A different client id makes this a new job over the same
        # specs: the second daemon life serves it from the shared cache
        # without re-simulating anything.
        client = ServeClient(f"http://{address}", client_id="second-life")
        second = client.run(specs, timeout_sec=120)
        assert [outcome.source for outcome in second] == ["cache"] * 3
        assert result_dicts(first) == result_dicts(second)
    finally:
        assert stop_daemon(proc) == 0


def test_sigterm_drains_gracefully_and_exits_zero(tmp_path):
    root = tmp_path / "state"
    proc, address = start_daemon(root)
    client = ServeClient(f"http://{address}", client_id="drainer")
    outcomes = client.run([make_spec("redis", "hetero-lru", epochs=2)],
                          timeout_sec=300)
    assert outcomes[0].ok
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=30) == 0
    proc.stderr.close()
    # The drain checkpointed cleanly: a fresh store sees the job done
    # and nothing queued.
    store = JobStore(root)
    store.recover()
    counts = {}
    for job in store.jobs.values():
        counts[job.state] = counts.get(job.state, 0) + 1
    assert counts == {"done": 1}


def test_daemon_requires_a_state_root(tmp_path):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    env.pop("REPRO_SWEEP_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "--cache-dir" in proc.stderr
