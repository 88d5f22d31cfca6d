"""Simulation engine, config, stats, and runner."""

import array
import collections
import cProfile
import enum
import mmap
import os
import pstats
import random
import types

import pytest

from repro.config import SimConfig
from repro.core import make_policy
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, FaultSpec
from repro.hw.throttle import ThrottleConfig
from repro.mem.extent import PageType
from repro.obs import Telemetry, TimelineSink
from repro.sim import fast
from repro.sim.engine import SimulationEngine, build_single_vm
from repro.sim.runner import build_config, run_experiment
from repro.sim.stats import RunResult, RunStats, gain_percent, slowdown_factor
from repro.units import GIB, MIB
from repro.workloads.base import RegionSpec, StatisticalWorkload
from repro.workloads.registry import make_workload


def tiny_workload(**overrides) -> StatisticalWorkload:
    kwargs = dict(
        name="tiny",
        mlp=4.0,
        instructions_per_epoch=1e6,
        accesses_per_epoch=10_000.0,
        io_wait_ns=1000.0,
        resident=[
            RegionSpec("hot", PageType.HEAP, 2048, reuse=0.7, access_share=1.0),
        ],
    )
    kwargs.update(overrides)
    return StatisticalWorkload(**kwargs)


def tiny_config(**overrides) -> SimConfig:
    kwargs = dict(
        fast_capacity_bytes=16 * MIB,
        slow_capacity_bytes=64 * MIB,
    )
    kwargs.update(overrides)
    return SimConfig(**kwargs)


# ----------------------------------------------------------------------
# SimConfig
# ----------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigurationError):
        SimConfig(slow_capacity_bytes=0)
    with pytest.raises(ConfigurationError):
        SimConfig(fast_capacity_bytes=-1)
    with pytest.raises(ConfigurationError):
        SimConfig(epoch_ms=0)


def test_config_derives_slow_device_from_throttle():
    config = tiny_config(slow_throttle=ThrottleConfig(5, 12))
    device = config.resolved_slow_device()
    assert device.load_latency_ns == 960.0
    assert device.capacity_bytes == 64 * MIB


def test_config_explicit_slow_device_wins():
    from repro.hw.memdevice import NVM_PCM

    config = tiny_config(slow_device=NVM_PCM)
    assert config.resolved_slow_device().load_latency_ns == 150.0


# ----------------------------------------------------------------------
# build_single_vm
# ----------------------------------------------------------------------

def test_single_vm_has_two_tiers():
    hypervisor, domain, kernel = build_single_vm(tiny_config())
    assert len(kernel.nodes) == 2
    assert kernel.fast_node_ids and kernel.slow_node_ids
    assert hypervisor.kernel(domain.domain_id) is kernel


def test_single_vm_without_fast_tier():
    hypervisor, domain, kernel = build_single_vm(
        tiny_config(fast_capacity_bytes=0)
    )
    assert kernel.fast_node_ids == []


# ----------------------------------------------------------------------
# Engine runs
# ----------------------------------------------------------------------

def test_engine_run_accumulates_time_and_stats():
    engine = SimulationEngine(
        tiny_config(), tiny_workload(), make_policy("heap-od")
    )
    result = engine.run(10)
    assert result.stats.epochs == 10
    assert result.stats.runtime_ns > 0
    assert result.stats.cpu_ns > 0
    assert result.stats.io_wait_ns == pytest.approx(10 * 1000.0)
    assert result.stats.instructions == pytest.approx(1e7)
    assert result.stats.llc_misses > 0
    assert result.workload_name == "tiny"
    assert result.policy_name == "heap-od"


def test_engine_is_deterministic():
    results = [
        SimulationEngine(
            tiny_config(), tiny_workload(), make_policy("random")
        ).run(10).stats.runtime_ns
        for _ in range(2)
    ]
    assert results[0] == results[1]


def test_engine_seed_changes_random_policy():
    def fast_pages(seed):
        engine = SimulationEngine(
            tiny_config(seed=seed),
            tiny_workload(
                resident=[
                    RegionSpec(f"r{i}", PageType.HEAP, 128, 0.7, 1.0)
                    for i in range(24)
                ]
            ),
            make_policy("random"),
        )
        engine.run(3)
        return engine.kernel.cumulative_stats[
            PageType.HEAP
        ].fast_granted_pages

    placements = {fast_pages(seed) for seed in (1, 7, 23, 99, 1234)}
    assert len(placements) > 1  # different seeds place differently


def test_engine_records_llc_misses_on_channel():
    engine = SimulationEngine(
        tiny_config(), tiny_workload(), make_policy("heap-od")
    )
    engine.run(5)
    channel = engine.hypervisor.channel(engine.domain.domain_id)
    assert len(channel.counters.llc_miss_history) == 5


def test_engine_charges_policy_overhead():
    config = tiny_config(fast_capacity_bytes=4 * MIB)
    workload = tiny_workload(
        resident=[
            RegionSpec("hot", PageType.HEAP, 8192, reuse=0.7, access_share=1.0),
        ],
    )
    engine = SimulationEngine(config, workload, make_policy("vmm-exclusive"))
    result = engine.run(10)
    assert result.stats.policy_overhead_ns > 0


def test_engine_survives_genuine_overcommit():
    """A workload larger than the whole guest swaps rather than crashing."""
    config = tiny_config(fast_capacity_bytes=4 * MIB, slow_capacity_bytes=16 * MIB)
    workload = tiny_workload(
        resident=[
            RegionSpec("huge", PageType.HEAP, 8192, 0.7, 1.0),
            RegionSpec("huge2", PageType.HEAP, 4096, 0.7, 1.0, alloc_epoch=2),
        ],
    )
    engine = SimulationEngine(config, workload, make_policy("heap-od"))
    result = engine.run(5)
    assert result.swap_pages_out > 0 or result.stats.dropped_allocation_pages >= 0


# ----------------------------------------------------------------------
# Stats / metrics
# ----------------------------------------------------------------------

def test_gain_and_slowdown_helpers():
    def result_with_runtime(ns):
        stats = RunStats(runtime_ns=ns, epochs=10)
        return RunResult("w", "p", "seconds", 0.0, stats)

    fast = result_with_runtime(1e9)
    slow = result_with_runtime(2e9)
    assert gain_percent(fast, slow) == pytest.approx(100.0)
    assert gain_percent(slow, fast) == pytest.approx(-50.0)
    assert slowdown_factor(slow, fast) == pytest.approx(2.0)


def test_metric_value_throughput():
    stats = RunStats(runtime_ns=2e9, epochs=10)
    ops = RunResult("w", "p", "ops-per-sec", 1000.0, stats)
    assert ops.metric_value == pytest.approx(10_000 / 2.0)
    secs = RunResult("w", "p", "seconds", 0.0, stats)
    assert secs.metric_value == pytest.approx(2.0)


def test_fastmem_miss_ratio_filters_types():
    from repro.guestos.kernel import AllocStats

    stats = RunStats(runtime_ns=1.0, epochs=1)
    result = RunResult(
        "w", "p", "seconds", 0.0, stats,
        alloc_stats={
            PageType.HEAP: AllocStats(100, 80),
            PageType.PAGE_CACHE: AllocStats(100, 0),
        },
    )
    assert result.fastmem_miss_ratio() == pytest.approx(0.6)
    assert result.fastmem_miss_ratio((PageType.HEAP,)) == pytest.approx(0.2)
    assert result.fastmem_miss_ratio((PageType.SLAB,)) == 0.0


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------

def test_build_config_ratio_math():
    config = build_config(fast_ratio=0.25, slow_gib=8.0)
    assert config.fast_capacity_bytes == 2 * GIB
    assert config.slow_capacity_bytes == 8 * GIB
    unlimited = build_config(unlimited_fast=True, slow_gib=8.0)
    assert unlimited.fast_capacity_bytes == 16 * GIB
    with pytest.raises(ConfigurationError):
        build_config(fast_ratio=-0.1)


def test_run_experiment_accepts_names_and_instances():
    by_name = run_experiment("nginx", "slowmem-only", epochs=3)
    assert by_name.stats.epochs == 3
    by_instance = run_experiment(
        tiny_workload(), make_policy("slowmem-only"), epochs=3,
        config=tiny_config(),
    )
    assert by_instance.workload_name == "tiny"


def test_run_experiment_unlimited_fast_for_fastmem_only():
    result = run_experiment("nginx", "fastmem-only", epochs=3)
    assert result.fastmem_miss_ratio() == 0.0


# ----------------------------------------------------------------------
# Call census
# ----------------------------------------------------------------------

def test_unprofiled_epochs_call_no_enum_hash_or_contextlib():
    """The per-epoch path stays free of two kinds of Python-level call
    that cost time and compute nothing: ``Enum.__hash__`` (the
    simulator's enums key hot dicts and hash by identity) and
    ``contextlib`` (``step`` brackets its phases only on an engine
    built with a profiler)."""
    engine = SimulationEngine(
        build_config(seed=11), make_workload("redis"),
        make_policy("hetero-lru"),
    )
    profile = cProfile.Profile()
    profile.enable()
    try:
        engine.run(12)
    finally:
        profile.disable()
    offenders = sorted(
        f"{path}:{line}:{name} x{calls}"
        for (path, line, name), (_, calls, *_) in pstats.Stats(
            profile
        ).stats.items()
        if (os.path.basename(path) == "enum.py" and name == "__hash__")
        or os.path.basename(path) == "contextlib.py"
    )
    assert engine.stats.epochs == 12
    assert not offenders


#: How many of 40 epochs run the LLC apportionment in each cell; every
#: other epoch's demand rows equal the previous epoch's, and it reuses
#: that epoch's accounting.  Rows compare as equal floats, so the counts
#: repeat exactly on every Python version and hash seed; a change that
#: lowers them records the new counts here.
APPORTION_CENSUS = {
    ("graphchi", "heap-io-slab-od", 1 / 4): 2,
    ("graphchi", "hetero-lru", 1 / 8): 11,
}


@pytest.mark.parametrize("app, policy_name, ratio", list(APPORTION_CENSUS))
def test_steady_epochs_stay_within_their_committed_apportionments(
    monkeypatch, app, policy_name, ratio
):
    """A cost gate without timing: a change that makes epochs with
    unchanged demand recompute the LLC apportionment fails here."""
    calls = []
    apportion = fast._fast_apportion
    monkeypatch.setattr(fast, "_fast_apportion",
                        lambda cache, rows: calls.append(len(rows))
                        or apportion(cache, rows))
    policy = make_policy(policy_name)
    config = build_config(
        fast_ratio=ratio, unlimited_fast=policy.requires_unlimited_fast
    )
    result = run_experiment(app, policy, epochs=40, config=config)
    assert result.stats.epochs == 40
    assert 0 < len(calls) <= APPORTION_CENSUS[app, policy_name, ratio]


# ----------------------------------------------------------------------
# Phase write sets
# ----------------------------------------------------------------------

#: Compared by identity and never walked: no phase changes a class, a
#: function, a module or an enum member.
_SHARED = (
    type, types.FunctionType, types.BuiltinFunctionType, types.MethodType,
    types.ModuleType, enum.Enum,
)
_ATOMS = (type(None), bool, int, str, bytes)


def _snapshot(root):
    """Every object reachable from ``root``, by id: ``(object, owner,
    contents, attributes)``.

    A breadth-first walk: atoms compare by type and value (floats by
    ``float.hex``, which tells ``-0.0`` from ``0.0``), every other
    reference by identity, and ``owner`` is the ``(class, attribute)``
    through which the walk first reached an object.  The snapshot holds
    every object it saw, so no id is reused while it lives.
    """
    objects = {}
    queue = collections.deque([(root, None)])
    while queue:
        obj, owner = queue.popleft()
        if id(obj) in objects:
            continue

        def ref(value, via=owner):
            if type(value) in _ATOMS:
                return type(value), value
            if type(value) is float:
                return float, value.hex()
            if not isinstance(value, _SHARED):
                queue.append((value, via))
            return id(value)

        if isinstance(obj, random.Random):
            contents = obj.getstate()
        elif isinstance(obj, (array.array, bytearray)):
            contents = bytes(obj)
        elif isinstance(obj, mmap.mmap):
            contents = None if obj.closed else obj[:]
        elif isinstance(obj, dict):
            contents = [(ref(key), ref(value)) for key, value in obj.items()]
        elif isinstance(obj, (list, tuple, collections.deque)):
            contents = [ref(value) for value in obj]
        elif isinstance(obj, (set, frozenset)):
            contents = frozenset(ref(value) for value in obj)
        else:
            contents = None
        attributes = {
            name: ref(value, (type(obj), name))
            for name, value in getattr(obj, "__dict__", {}).items()
        }
        for cls in type(obj).__mro__:
            for name in cls.__dict__.get("__slots__", ()):
                if not name.startswith("__") and hasattr(obj, name):
                    attributes[name] = ref(getattr(obj, name), (type(obj), name))
        if contents is None and not attributes:
            contents = repr(obj)  # an opaque iterator, such as itertools.count
        objects[id(obj)] = (obj, owner, contents, attributes)
    return objects


def _changes(before, after):
    """The ``(class, attribute)`` of every state change between two
    snapshots of one graph: an instance attribute set, added or
    deleted, or the contents of a container that attribute owns."""
    changed = set()
    for key, (obj, owner, contents, attributes) in before.items():
        if key not in after:
            continue  # out of reach now, so whatever held it changed
        _, _, new_contents, new_attributes = after[key]
        if new_contents != contents:
            changed.add(owner)
        for name in attributes.keys() | new_attributes.keys():
            if attributes.get(name) != new_attributes.get(name):
                changed.add((type(obj), name))
    return changed


def _timing_may_change(cls, name):
    return cls is RunStats and name == "stall_ns_by_device"


def _sample_may_change(cls, name):
    return cls.__module__.startswith("repro.obs.") or (
        cls is SimulationEngine
        and (name.startswith("_prev_") or name == "_run_opened")
    )


#: Engine method -> whether it may change ``(class, attribute)``.
PHASE_WRITE_SETS = {
    "_timing_phase": _timing_may_change,
    "_sample_epoch": _sample_may_change,
}


def test_timing_and_sample_phases_change_only_their_own_state(monkeypatch):
    """The timing phase changes only ``RunStats.stall_ns_by_device``; the
    sample phase only the engine's ``_prev_*`` baselines and
    ``_run_opened``, and objects of ``repro.obs`` classes.  Checked
    around every call, on everything reachable from the engine, in three
    cells: two guest policies (one under a device-derate fault plan)
    and a VMM-only one."""
    changes = collections.defaultdict(set)
    calls = collections.Counter()
    for method in PHASE_WRITE_SETS:
        phase = getattr(SimulationEngine, method)

        def checked(engine, *args, _phase=phase, _method=method, **kwargs):
            before = _snapshot(engine)
            result = _phase(engine, *args, **kwargs)
            changes[_method] |= _changes(before, _snapshot(engine))
            calls[_method] += 1
            return result

        monkeypatch.setattr(SimulationEngine, method, checked)
    derate = FaultPlan(seed=5, faults=(
        FaultSpec("device-derate", probability=0.5, latency_factor=2.0,
                  bandwidth_factor=1.5),
    ))
    for app, policy_name, faults in (
        ("redis", "hetero-lru", None),
        ("graphchi", "hetero-coordinated", derate),
        ("metis", "vmm-exclusive", None),
    ):
        changes.clear()
        calls.clear()
        policy = make_policy(policy_name)
        config = build_config(unlimited_fast=policy.requires_unlimited_fast)
        config.fault_plan = faults
        engine = SimulationEngine(
            config, make_workload(app), policy,
            telemetry=Telemetry(sinks=[TimelineSink()]),
        )
        try:
            engine.run(12)
        finally:
            engine.close()
        cell = f"{app} x {policy_name}"
        assert calls == {method: 12 for method in PHASE_WRITE_SETS}, cell
        for method, may_change in PHASE_WRITE_SETS.items():
            stray = sorted(
                f"{cls.__qualname__}.{name}"
                for cls, name in changes[method]
                if not may_change(cls, name)
            )
            assert not stray, f"{cell}: {method} changed {stray}"
        assert changes["_timing_phase"] == {(RunStats, "stall_ns_by_device")}
        assert {(SimulationEngine, "_run_opened"), (TimelineSink, "samples")} <= (
            changes["_sample_epoch"]
        ), cell
        if faults is not None:
            assert engine.faults.counts["device-derate"] > 0, cell
