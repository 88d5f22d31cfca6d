"""repro.faults: deterministic fault injection and graceful degradation.

The contracts under test (docs/resilience.md):

* no-perturbation — ``FaultPlan.none()`` is field-by-field identical to
  running with no plan, for every registered policy;
* determinism — a fixed (plan, seed) reproduces the same ``RunResult``
  bit-for-bit, including across serial/parallel/cached execution;
* graceful degradation — every injected fault rolls back cleanly or
  downgrades to slower-but-correct (invariants hold, sanitizer clean),
  never an unhandled exception.
"""

from __future__ import annotations

import collections
import dataclasses
import importlib
import random
from unittest import mock

import pytest

from repro.config import SimConfig
from repro.core import available_policies, make_policy
from repro.errors import ConfigurationError, SwapWriteError
from repro.faults import (
    FAULT_KINDS,
    KIND_SOURCES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.guestos.swap import SwapDevice
from repro.mem.extent import PageType
from repro.obs import Telemetry
from repro.sim.engine import SimulationEngine
from repro.sim.multi_vm import MultiVmSimulation, VmSpec
from repro.sim.parallel import make_spec, run_spec
from repro.units import MIB
from repro.vmm.channel import CoordinationChannel
from repro.vmm.migration import MigrationEngine
from repro.vmm.sharing import MaxMinSharing
from repro.workloads.base import RegionSpec, StatisticalWorkload

from test_failure_injection import overcommitted_workload, tiny_config
from test_multi_vm import devices, vm, workload


def pressured_workload(pages: int = 20_000) -> StatisticalWorkload:
    """Exceeds tiny FastMem so scans, migrations, and swap all engage."""
    return StatisticalWorkload(
        name="pressured",
        mlp=4.0,
        instructions_per_epoch=1e6,
        accesses_per_epoch=20_000.0,
        resident=[
            RegionSpec("hot", PageType.HEAP, pages // 2, 0.8, 1.0),
            RegionSpec("warm", PageType.HEAP, pages, 0.5, 0.5,
                       alloc_epoch=1),
            RegionSpec("cold", PageType.HEAP, pages, 0.4, 0.25,
                       alloc_epoch=2, access_period=3),
        ],
    )


def run_once(
    policy: str,
    plan: "FaultPlan | None" = None,
    epochs: int = 6,
    sanitize: bool = False,
    telemetry: "Telemetry | None" = None,
) -> tuple:
    config = SimConfig(
        fast_capacity_bytes=16 * MIB,
        slow_capacity_bytes=256 * MIB,
        sanitize=sanitize,
        fault_plan=plan,
    )
    engine = SimulationEngine(
        config, pressured_workload(), make_policy(policy),
        telemetry=telemetry,
    )
    return engine.run(epochs), engine


def plan_of(*kinds: str, seed: int = 11, probability: float = 1.0) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        faults=tuple(
            FaultSpec(kind, probability=probability) for kind in kinds
        ),
    )


def injector_of(*kinds: str, seed: int = 11) -> FaultInjector:
    return FaultInjector(plan_of(*kinds, seed=seed))


# ----------------------------------------------------------------------
# Plan validation and serialization
# ----------------------------------------------------------------------


def test_spec_rejects_unknown_kind():
    with pytest.raises(ConfigurationError):
        FaultSpec("cosmic-ray")


def test_spec_rejects_bad_probability():
    with pytest.raises(ConfigurationError):
        FaultSpec("channel-drop", probability=0.0)
    with pytest.raises(ConfigurationError):
        FaultSpec("channel-drop", probability=1.5)


def test_spec_rejects_empty_window():
    with pytest.raises(ConfigurationError):
        FaultSpec("channel-drop", start_epoch=3, end_epoch=3)


def test_spec_rejects_derate_factors_on_other_kinds():
    with pytest.raises(ConfigurationError):
        FaultSpec("channel-drop", latency_factor=2.0)
    FaultSpec("device-derate", latency_factor=2.0)  # fine


def test_plan_round_trips_through_canonical():
    plan = FaultPlan(
        seed=3,
        faults=(
            FaultSpec("device-derate", probability=0.5, start_epoch=1,
                      end_epoch=4, latency_factor=2.0),
            FaultSpec("swap-write-error", probability=0.25),
        ),
    )
    assert FaultPlan.from_dict(plan.canonical()) == plan
    assert plan.kinds() == ("device-derate", "swap-write-error")


def test_plan_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigurationError):
        FaultPlan.from_dict({"seed": 1, "chaos": True})
    with pytest.raises(ConfigurationError):
        FaultPlan.from_dict({"faults": [{"kind": "channel-drop",
                                         "severity": 9}]})


def test_none_plan_is_empty_and_hashable():
    assert FaultPlan.none().empty
    assert hash(FaultPlan.none()) == hash(FaultPlan())
    {FaultPlan.none(): "plans must be dict keys"}


# ----------------------------------------------------------------------
# Injector determinism
# ----------------------------------------------------------------------


def test_injector_same_seed_same_draws():
    draws_a = [injector_of("channel-drop", seed=5).fires("channel-drop")
               for _ in range(1)]
    inj_a = FaultInjector(plan_of("channel-drop", seed=5, probability=0.5))
    inj_b = FaultInjector(plan_of("channel-drop", seed=5, probability=0.5))
    seq_a = [inj_a.fires("channel-drop") is not None for _ in range(50)]
    seq_b = [inj_b.fires("channel-drop") is not None for _ in range(50)]
    assert seq_a == seq_b
    assert any(seq_a) and not all(seq_a)
    assert draws_a  # silence unused-variable linters


def test_injector_streams_are_independent_per_kind():
    """Adding a second kind must not shift the first kind's draws."""
    alone = FaultInjector(plan_of("channel-drop", seed=9, probability=0.5))
    both = FaultInjector(
        FaultPlan(
            seed=9,
            faults=(
                FaultSpec("channel-drop", probability=0.5),
                FaultSpec("swap-write-error", probability=0.5),
            ),
        )
    )
    seq_alone = []
    seq_both = []
    for _ in range(50):
        seq_alone.append(alone.fires("channel-drop") is not None)
        both.fires("swap-write-error")  # interleave the other stream
        seq_both.append(both.fires("channel-drop") is not None)
    assert seq_alone == seq_both


def test_injector_respects_epoch_windows():
    inj = FaultInjector(
        FaultPlan(
            seed=1,
            faults=(FaultSpec("balloon-refuse", start_epoch=2,
                              end_epoch=4),),
        )
    )
    fired_at = []
    for epoch in range(6):
        inj.advance_epoch(epoch)
        if inj.fires("balloon-refuse") is not None:
            fired_at.append(epoch)
    assert fired_at == [2, 3]


def test_injector_counts_and_events():
    inj = injector_of("channel-drop")
    inj.advance_epoch(3)
    assert inj.fires("channel-drop") is not None
    assert inj.counts == {"channel-drop": 1}
    events = inj.drain_events()
    assert events == [
        {"name": "fault-channel-drop", "source": "vmm.channel", "epoch": 3}
    ]
    assert inj.drain_events() == []


# ----------------------------------------------------------------------
# Component degradations
# ----------------------------------------------------------------------


def test_channel_drop_empties_report():
    channel = CoordinationChannel(domain_id=0)
    channel.faults = injector_of("channel-drop")
    channel.vmm_publish_hot([1, 2, 3])
    assert channel.hot_report == []


def test_channel_duplicate_doubles_report():
    channel = CoordinationChannel(domain_id=0)
    channel.faults = injector_of("channel-duplicate")
    channel.vmm_publish_hot([1, 2])
    assert channel.hot_report == [1, 2, 1, 2]


def test_swap_write_error_leaves_device_untouched():
    swap = SwapDevice(capacity_pages=1024)
    swap.faults = injector_of("swap-write-error")
    with pytest.raises(SwapWriteError):
        swap.swap_out(64)
    assert swap.used_pages == 0


def test_kernel_shrink_degrades_on_swap_write_error(kernel):
    kernel.swap.faults = injector_of("swap-write-error")
    slow = kernel.nodes[1]
    kernel.begin_epoch(0)
    kernel.allocate_region(
        "cold", PageType.HEAP, slow.free_pages_for(PageType.HEAP), [1]
    )
    already_free = slow.free_pages
    freed = kernel.shrink_node(1, already_free + 1024)
    # Every write failed: no extra pages reclaimed beyond the already
    # free ones, the retry penalty is charged, nothing was perturbed.
    assert freed == already_free
    assert kernel.pending_cost_ns > 0
    assert kernel.swap.used_pages == 0
    kernel.check_invariants()


def test_scan_lost_returns_empty_report(kernel):
    from repro.vmm.hotness import HotnessTracker

    kernel.begin_epoch(0)
    extents = kernel.allocate_region("r", PageType.HEAP, 2048, [0])
    for extent in extents:
        extent.record_access(0, 100.0)
    tracker = HotnessTracker()
    tracker.faults = injector_of("scan-lost")
    report = tracker.scan(extents)
    assert report.pages_scanned == 0
    assert report.cost_ns == 0
    assert report.hot_extents == []


def test_scan_stale_replays_previous_report(kernel):
    from repro.vmm.hotness import HotnessTracker

    kernel.begin_epoch(0)
    extents = kernel.allocate_region("r", PageType.HEAP, 2048, [0])
    tracker = HotnessTracker()
    tracker.faults = injector_of("scan-stale")
    for extent in extents:
        extent.record_access(0, 50.0)
    first = tracker.scan(extents)  # no previous report: runs normally
    assert first.pages_scanned > 0
    stale = tracker.scan(extents)  # replays the first, same cost
    assert stale.pages_scanned == first.pages_scanned
    assert stale.cost_ns == first.cost_ns
    assert [e.extent_id for e in stale.hot_extents] == [
        e.extent_id for e in first.hot_extents
    ]


def test_migration_abort_rolls_back_all_moves(kernel):
    kernel.begin_epoch(0)
    extents = kernel.allocate_region("warm", PageType.HEAP, 4096, [1])
    engine = MigrationEngine()
    engine.faults[kernel] = injector_of("migration-abort")
    report = engine.migrate(extents, 0, kernel)
    # Everything copied, then copied back: all pages end up failed, the
    # cost is paid, the aborted pass never reaches the running totals.
    assert report.pages_moved == 0
    assert report.pages_failed >= 4096
    assert report.cost_ns > 0
    assert engine.total.pages_moved == 0
    assert engine.in_flight is None
    assert all(extent.node_id == 1 for extent in extents)
    kernel.check_invariants()


# ----------------------------------------------------------------------
# Every kind fires, and a multi-VM guest counts its own faults
# ----------------------------------------------------------------------


def two_guests(plan, guest, device_mib=(32, 128)) -> MultiVmSimulation:
    return MultiVmSimulation(
        devices(*device_mib), [guest("a"), guest("b")],
        sharing_policy=MaxMinSharing(), config=SimConfig(fault_plan=plan),
    )


def ballooning(name: str) -> VmSpec:
    """Outgrows its FastMem reservation once."""
    return vm(name, workload(name, pages=4000))


def migrating(name: str) -> VmSpec:
    """A VMM-exclusive guest whose hot pages outgrow FastMem."""
    guest = vm(name, pressured_workload(6000), slow=(8192, 32768))
    guest.policy = make_policy("vmm-exclusive")
    return guest


def test_balloon_refusals_count_on_the_refused_guest():
    sim = two_guests(plan_of("balloon-refuse"), ballooning)
    results = sim.run(6)
    for name, engine in sim.engines.items():
        # Probability 1: every request this guest made was refused, and
        # only this guest's result counts them.
        requests = engine.kernel.balloon.stats.requests
        assert requests > 0, name
        assert results[name].fault_counts == {"balloon-refuse": requests}
        engine.kernel.check_invariants()


def test_migration_aborts_count_on_the_migrating_guest():
    sim = two_guests(plan_of("migration-abort"), migrating, (32, 512))
    migration = sim.hypervisor.migration_engine
    with mock.patch.object(
        migration, "migrate", wraps=migration.migrate
    ) as spy:
        results = sim.run(10)
    for name, engine in sim.engines.items():
        # ``migrate(extents, target_node_id, kernel, ...)``
        calls = sum(c.args[2] is engine.kernel for c in spy.call_args_list)
        assert calls > 0, name
        assert results[name].fault_counts == {"migration-abort": calls}
        engine.kernel.check_invariants()


def test_guests_draw_their_own_fault_streams():
    plan = plan_of("migration-abort", seed=5, probability=0.5)

    def draws() -> dict:
        sim = two_guests(plan, migrating, (32, 512))
        return {
            name: [engine.faults.fires("migration-abort") is not None
                   for _ in range(32)]
            for name, engine in sim.engines.items()
        }

    first = draws()
    assert first["a"] != first["b"]
    assert draws() == first
    # Domain 1 keeps the single-VM stream (single-VM runs are unchanged).
    alone = FaultInjector(plan)
    assert first["a"] == [
        alone.fires("migration-abort") is not None for _ in range(32)
    ]


def spec_run(app: str, policy: str):
    return lambda plan: run_spec(make_spec(
        app, policy, fast_ratio=0.125, epochs=8, faults=plan
    )).fault_counts


def overcommitted_run(plan: FaultPlan) -> dict:
    config = dataclasses.replace(tiny_config(), fault_plan=plan)
    engine = SimulationEngine(
        config, overcommitted_workload(), make_policy("heap-od")
    )
    return engine.run(8).fault_counts


def ballooning_run(plan: FaultPlan) -> dict:
    counts: "collections.Counter" = collections.Counter()
    for result in two_guests(plan, ballooning).run(6).values():
        counts.update(result.fault_counts)
    return counts


#: Fault kind -> a small run that gives the kind a chance to fire.
#: balloon-refuse needs a multi-VM run: a single-VM guest is reserved
#: at its maximum, so its balloon never asks the back-end for pages.
FIRING_RUNS = {
    "channel-drop": spec_run("redis", "hetero-coordinated"),
    "channel-duplicate": spec_run("redis", "hetero-coordinated"),
    "migration-abort": spec_run("graphchi", "vmm-exclusive"),
    "balloon-refuse": ballooning_run,
    "device-derate": spec_run("redis", "hetero-coordinated"),
    "scan-stale": spec_run("redis", "hetero-coordinated"),
    "scan-lost": spec_run("redis", "hetero-coordinated"),
    "swap-write-error": overcommitted_run,
}


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_every_fault_kind_has_a_source_and_fires(kind):
    assert set(FIRING_RUNS) == set(KIND_SOURCES) == set(FAULT_KINDS)
    importlib.import_module(f"repro.{KIND_SOURCES[kind]}")
    counts = FIRING_RUNS[kind](plan_of(kind))
    assert counts.get(kind, 0) > 0, counts


# ----------------------------------------------------------------------
# No-perturbation and whole-run determinism
# ----------------------------------------------------------------------


@pytest.mark.parametrize("policy", available_policies())
def test_none_plan_is_pinned_identical(policy):
    base, _ = run_once(policy, plan=None, epochs=4)
    pinned, engine = run_once(policy, plan=FaultPlan.none(), epochs=4)
    assert engine.faults is None  # the injector is never constructed
    assert dataclasses.asdict(base) == dataclasses.asdict(pinned)


def test_faulty_run_is_deterministic():
    plan = FaultPlan(
        seed=23,
        faults=(
            FaultSpec("channel-drop", probability=0.4),
            FaultSpec("migration-abort", probability=0.3),
            FaultSpec("device-derate", probability=0.5,
                      latency_factor=2.0, bandwidth_factor=1.5),
            FaultSpec("swap-write-error", probability=0.5),
        ),
    )
    first, _ = run_once("hetero-lru", plan)
    second, _ = run_once("hetero-lru", plan)
    assert dataclasses.asdict(first) == dataclasses.asdict(second)
    assert first.fault_counts  # something actually fired


def test_fault_counts_surface_in_result():
    result, _ = run_once("hetero-lru", plan_of("device-derate"))
    assert result.fault_counts.get("device-derate") == 6  # one per epoch


def test_fault_events_reach_the_timeline():
    telemetry = Telemetry()
    result, _ = run_once(
        "hetero-lru", plan_of("device-derate"), telemetry=telemetry
    )
    names = [
        event["name"]
        for sample in (result.timeline or [])
        for event in sample.events
    ]
    assert "fault-device-derate" in names


def test_derate_slows_the_run_down():
    base, _ = run_once("hetero-lru", plan=None)
    derated, _ = run_once(
        "hetero-lru",
        FaultPlan(
            seed=1,
            faults=(FaultSpec("device-derate", latency_factor=4.0,
                              bandwidth_factor=4.0),),
        ),
    )
    assert derated.stats.runtime_ns > base.stats.runtime_ns


# ----------------------------------------------------------------------
# Chaos property test
# ----------------------------------------------------------------------


def random_plan(rng: random.Random) -> FaultPlan:
    specs = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(FAULT_KINDS)
        start = rng.randint(0, 3)
        end = rng.choice([None, start + rng.randint(1, 4)])
        kwargs = {}
        if kind == "device-derate":
            kwargs["latency_factor"] = rng.choice([1.5, 2.0, 4.0])
            kwargs["bandwidth_factor"] = rng.choice([1.0, 2.0, 3.0])
        specs.append(
            FaultSpec(
                kind,
                probability=rng.choice([0.1, 0.25, 0.5, 1.0]),
                start_epoch=start,
                end_epoch=end,
                **kwargs,
            )
        )
    return FaultPlan(seed=rng.randint(0, 2**20), faults=tuple(specs))


def test_chaos_random_plans_degrade_gracefully():
    """~20 seeded random plans: every run completes with invariants and
    a clean sanitizer, and every rerun is bit-for-bit identical."""
    rng = random.Random(2017)  # the paper's year; any fixed seed works
    policies = ("hetero-lru", "hetero-coordinated", "heap-od")
    total_fired = 0
    for case in range(20):
        plan = random_plan(rng)
        policy = policies[case % len(policies)]
        result, engine = run_once(policy, plan, sanitize=True)
        assert result.stats.epochs == 6, (case, plan)
        engine.kernel.check_invariants()
        assert result.sanitizer_reports == [], (case, plan)
        rerun, _ = run_once(policy, plan, sanitize=True)
        assert dataclasses.asdict(result) == dataclasses.asdict(rerun), (
            case, plan,
        )
        total_fired += sum(result.fault_counts.values())
    assert total_fired > 0  # the chaos actually did something
