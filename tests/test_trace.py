"""Trace capture and replay."""

import re

import pytest

from repro.core import make_policy
from repro.errors import WorkloadError
from repro.sim.engine import SimulationEngine
from repro.sim.runner import build_config
from repro.sim.trace import (
    TraceWorkload,
    load_trace,
    record_trace,
    save_trace,
)
from repro.workloads.registry import make_workload


def test_record_trace_shape():
    trace = record_trace(make_workload("nginx"), epochs=5)
    assert trace["name"] == "nginx"
    assert len(trace["epochs"]) == 5
    first = trace["epochs"][0]
    assert first["allocs"]  # residents allocated at epoch 0
    assert first["accesses"]


def test_trace_roundtrips_through_json(tmp_path):
    path = tmp_path / "nginx.trace.json"
    save_trace(path, make_workload("nginx"), epochs=5)
    replay = load_trace(path)
    assert replay.name == "nginx"
    assert replay.default_epochs() == 5
    demands = list(replay.epochs(5))
    assert demands[0].allocs
    assert demands[0].accesses


def test_replay_matches_original_run():
    """Replaying a trace is bit-identical to running the workload."""
    config = build_config(fast_ratio=0.25)
    original = SimulationEngine(
        config, make_workload("nginx"), make_policy("hetero-lru")
    ).run(10)

    replayed_workload = TraceWorkload.from_dict(
        record_trace(make_workload("nginx"), epochs=10)
    )
    replayed = SimulationEngine(
        build_config(fast_ratio=0.25), replayed_workload,
        make_policy("hetero-lru"),
    ).run(10)
    assert replayed.stats.runtime_ns == original.stats.runtime_ns
    assert replayed.stats.llc_misses == original.stats.llc_misses
    assert replayed.alloc_stats == original.alloc_stats


def test_trace_refuses_over_read():
    replay = TraceWorkload.from_dict(
        record_trace(make_workload("nginx"), epochs=3)
    )
    with pytest.raises(WorkloadError):
        list(replay.epochs(5))


def test_trace_version_check():
    trace = record_trace(make_workload("nginx"), epochs=1)
    trace["format_version"] = 99
    with pytest.raises(WorkloadError):
        TraceWorkload.from_dict(trace)


def test_empty_trace_rejected():
    with pytest.raises(WorkloadError):
        TraceWorkload("t", 4.0, "seconds", 0.0, [])


def test_trace_with_a_malformed_region_is_rejected_by_name():
    trace = record_trace(make_workload("nginx"), epochs=1)
    _, spec = trace["epochs"][0]["allocs"][0]
    spec["bytes_per_miss"] = -64.0
    with pytest.raises(
        WorkloadError, match=re.escape(repr(spec["label"]))
    ) as raised:
        TraceWorkload.from_dict(trace)
    assert raised.value.__cause__ is None  # RegionSpec's own error
    # A mistyped value, an unknown key or page type, a missing field:
    # each is chained from the error it raised first.
    for mangle, cause in [
        (lambda spec: spec.update(bytes_per_miss="64"), TypeError),
        (lambda spec: spec.update(colour="red"), TypeError),
        (lambda spec: spec.update(page_type="nope"), ValueError),
        (lambda spec: spec.pop("page_type"), KeyError),
    ]:
        trace = record_trace(make_workload("nginx"), epochs=1)
        _, spec = trace["epochs"][0]["allocs"][0]
        mangle(spec)
        with pytest.raises(
            WorkloadError, match=re.escape(repr(spec["label"]))
        ) as raised:
            TraceWorkload.from_dict(trace)
        assert isinstance(raised.value.__cause__, cause)



def _first_access_pair_one_element(epoch):
    region_id = next(iter(epoch["accesses"]))
    epoch["accesses"][region_id] = [1.0]


@pytest.mark.parametrize(
    "mangle, cause",
    [
        (lambda epoch: epoch.pop("frees"), KeyError),
        (_first_access_pair_one_element, ValueError),
        (lambda epoch: epoch.update(instructions="1e9"), None),
        (lambda epoch: epoch.update(instructions=float("nan")), None),
        (lambda epoch: epoch.update(io_wait_ns=float("inf")), None),
        (lambda epoch: epoch.update(io_wait_ns=True), None),
    ],
    ids=["no-frees", "one-element-access-pair", "string-instructions",
         "nan-instructions", "infinite-io-wait", "boolean-io-wait"],
)
def test_trace_with_a_malformed_epoch_is_rejected_by_epoch(mangle, cause):
    """A missing field, a mistyped access pair and a non-numeric or
    non-finite count each fail when the trace loads, naming the epoch,
    not in the middle of a run."""
    trace = record_trace(make_workload("nginx"), epochs=3)
    mangle(trace["epochs"][1])
    with pytest.raises(WorkloadError, match="trace epoch 1 ") as raised:
        TraceWorkload.from_dict(trace)
    if cause is None:
        assert raised.value.__cause__ is None
    else:
        assert isinstance(raised.value.__cause__, cause)
