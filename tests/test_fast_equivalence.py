"""Differential oracle for the guest's array-backed structures.

The simulator's buddy zones, NUMA nodes, split LRUs and demand
accounting are tuned for speed (flat arrays, heaps, running counters,
memoised lookups).  Their contract is *bit identity* with the plain
reference structures in ``reference_guest.py``: every
:class:`RunResult` field — stats, wear, timeline, final placement —
must equal the reference run's field for field
(``dataclasses.asdict`` comparison, so nested floats must match
exactly, which pins allocation order, float addition order, and dict
insertion order), and every guest must end with the same frames in
every extent (``placement``), which pins each block the allocator
chose.

The reference side is the oracle.  These tests sweep every registered
policy, the fault/telemetry/sanitizer modes, multi-VM ballooning, and
(via Hypothesis) the synthetic-workload generator, so any divergence
fails here before it can skew a figure.  The demand accounting reuses
an epoch's result when the next epoch's rows are equal; the policy and
mode runs are long enough to reuse it, most of them recompute after a
reuse, and scripted runs change what a row holds between equal
demands.  Each reference run also
checks that its guests really were built from the reference
structures, so the oracle can never compare production with itself.

The last tests pin what lets the allocator's block choice change
without moving a result: run on a reference allocator that hands out
the highest free block of each order, a guest ends on other frames
with the same ``RunResult``, because results read page counts and
never frame numbers.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_guest import (
    ReferenceBuddy,
    placement,
    production_guest,
    reference_guest,
)
from test_multi_vm import devices, late_grower_vms, vm, workload

from repro.config import SimConfig
from repro.core.policy import available_policies, make_policy
from repro.faults import FaultPlan
from repro.mem.extent import PageType
from repro.obs.bus import Telemetry
from repro.sim import fast
from repro.sim.engine import SimulationEngine
from repro.sim.multi_vm import MultiVmSimulation
from repro.sim.runner import build_config, run_experiment
from repro.units import MIB
from repro.vmm.drf import WeightedDrf
from repro.vmm.sharing import MaxMinSharing
from repro.workloads.base import (
    ChurnSpec,
    EpochDemand,
    RegionSpec,
    StatisticalWorkload,
)
from repro.workloads.synthetic import make_synthetic

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FAULT_PLAN = FaultPlan.from_dict(
    json.loads((REPO_ROOT / "examples" / "faultplan.json").read_text(encoding="utf-8"))
)


def _run(app, policy_name, reference, *, epochs, slow_gib=2.0, faults=None,
         telemetry=False, sanitize=False, buddy=ReferenceBuddy):
    """One single-VM run as its ``dataclasses.asdict`` result and final
    :func:`placement`; ``reference`` runs it on the oracle's structures,
    with ``buddy`` as every zone's allocator (and checks that it did)."""
    policy = make_policy(policy_name)
    config = build_config(
        fast_ratio=0.25,
        slow_gib=slow_gib,
        unlimited_fast=policy.requires_unlimited_fast,
    )
    config.sanitize = sanitize
    bus = Telemetry() if telemetry else None
    with reference_guest(buddy) if reference else production_guest() as log:
        result = run_experiment(
            app, policy, epochs=epochs, config=config, telemetry=bus,
            faults=faults,
        )
    assert len(log.engines) == 1
    engine = log.engines[0]
    if reference:
        log.assert_reference(engine, buddy)
    return dataclasses.asdict(result), placement(engine)


@pytest.mark.parametrize("policy_name", available_policies())
def test_every_policy_is_bit_identical(policy_name):
    # Long enough that every policy reuses the previous epoch's demand
    # accounting, and most recompute it after a reuse (random on 18 of
    # the 24 epochs, vmm-exclusive on 5).
    reference = _run("redis", policy_name, True, epochs=24)
    production = _run("redis", policy_name, False, epochs=24)
    assert production == reference


@pytest.mark.parametrize(
    "label, kwargs",
    [
        ("faults", dict(faults=FAULT_PLAN)),
        ("telemetry", dict(telemetry=True)),
        ("faults+telemetry", dict(faults=FAULT_PLAN, telemetry=True)),
        ("sanitize", dict(sanitize=True)),
        ("sanitize+faults", dict(sanitize=True, faults=FAULT_PLAN)),
    ],
)
def test_modes_are_bit_identical(label, kwargs):
    reference = _run("redis", "hetero-lru", True, epochs=24, **kwargs)
    production = _run("redis", "hetero-lru", False, epochs=24, **kwargs)
    assert production == reference, label


def _scripted(reference, epochs):
    """Regions r0–r2 (256 heap pages each, all on FastMem) allocated in
    epoch 0 of a heap-od engine with telemetry, then stepped through
    ``epochs``, a list of ``(before, accesses)``: ``before(kernel)``,
    when given, runs ahead of the epoch.  Returns the result with its
    timeline as the ``repr`` of its ``dataclasses.asdict``, which tells
    ``-0.0`` from ``0.0``, and the final :func:`placement`."""
    specs = [
        (f"r{i}", RegionSpec(f"r{i}", PageType.HEAP, 256, reuse=0.6,
                             access_share=1.0))
        for i in range(3)
    ]
    config = SimConfig(fast_capacity_bytes=16 * MIB,
                       slow_capacity_bytes=64 * MIB)
    workload = StatisticalWorkload("scripted", 4.0, 1e6, 0.0, [])
    with reference_guest() if reference else production_guest() as log:
        engine = SimulationEngine(config, workload, make_policy("heap-od"),
                                  telemetry=Telemetry())
        for epoch, (before, accesses) in enumerate(epochs):
            if before is not None:
                before(engine.kernel)
            engine.step(EpochDemand(epoch, 1e6,
                                    allocs=specs if epoch == 0 else [],
                                    accesses=dict(accesses)))
        result = engine.result()
        engine.close()
    if reference:
        log.assert_reference(engine)
    return repr(dataclasses.asdict(result)), placement(engine)


def _counted_apportionments(monkeypatch):
    """The row count of every LLC apportionment run from here on."""
    calls = []
    apportion = fast._fast_apportion
    monkeypatch.setattr(fast, "_fast_apportion",
                        lambda cache, rows: calls.append(len(rows))
                        or apportion(cache, rows))
    return calls


def _move_to_slowmem(region_id):
    def move(kernel):
        slow_node, = kernel.slow_node_ids
        extent, = kernel.region_extents(region_id)
        assert kernel.move_extent(extent, slow_node) == 256
    return move


def test_a_placement_change_between_equal_demands_is_recomputed(
    monkeypatch,
):
    """Equal demand rows let an epoch reuse the previous epoch's
    accounting, and a row records where its region's pages are: after
    an extent moves and another is swapped out under the same demand,
    the third epoch recomputes, and the result matches the reference
    guest's, timeline included.  A memo keyed without the placement
    fails here."""
    def move_and_swap(kernel):
        _move_to_slowmem("r0")(kernel)
        fast_node, = kernel.fast_node_ids
        kernel.shrink_node(fast_node, kernel.nodes[fast_node].free_pages
                           + 256)
        assert [kernel.region_extents(region_id)[0].swapped
                for region_id in ("r1", "r2")].count(True) == 1

    accesses = {f"r{i}": (4000.0 * (i + 1), 1000.0) for i in range(3)}
    epochs = [(None, accesses), (None, accesses), (move_and_swap, accesses)]
    calls = _counted_apportionments(monkeypatch)
    reference = _scripted(True, epochs)
    assert calls == []
    production = _scripted(False, epochs)
    assert calls == [3, 3]
    assert production == reference


def test_a_negative_zero_count_is_told_apart(monkeypatch):
    """``-0.0`` compares equal to ``0.0``, and a region alone on a
    device with no accesses passes the sign of its zero counts to that
    device's stall in the timeline.  Rows holding ``-0.0`` neither
    reuse the previous epoch's accounting nor leave theirs for the
    next epoch, so each such epoch recomputes and the result matches
    the reference guest's, signs included."""
    def accesses(zero):
        return {"r0": (zero, zero), "r1": (4000.0, 1000.0),
                "r2": (8000.0, 1000.0)}

    epochs = [(None, accesses(0.0)), (_move_to_slowmem("r0"), accesses(0.0)),
              (None, accesses(0.0)), (None, accesses(-0.0)),
              (None, accesses(-0.0))]
    calls = _counted_apportionments(monkeypatch)
    reference = _scripted(True, epochs)
    assert "'slowmem': -0.0" in reference[0]
    production = _scripted(False, epochs)
    assert calls == [3, 3, 3, 3]
    assert production == reference


def _churning_neighbour_vms():
    """:func:`late_grower_vms` with a small neighbour that also frees:
    two churn flows return blocks of lower orders, so its later grants
    have blocks of several orders to choose from, and a change in which
    one the allocator takes moves :func:`placement`."""
    grower, _ = late_grower_vms()
    churning = workload("small", pages=512)
    churning.churn = [
        ChurnSpec("heap-churn", PageType.HEAP, 300, 2, reuse=0.5,
                  access_share=0.3),
        ChurnSpec("cache-churn", PageType.PAGE_CACHE, 77, 3, reuse=0.5,
                  access_share=0.2),
    ]
    return [grower, vm("small", churning)]


def _balloon_run(sharing):
    """Figure 13's lock-step guests, 6 epochs: the simulation and each
    guest's ``dataclasses.asdict`` result and final :func:`placement`."""
    sim = MultiVmSimulation(
        devices(), _churning_neighbour_vms(), sharing_policy=sharing(),
        config=SimConfig(),
    )
    results = sim.run(6)
    return sim, {
        name: (dataclasses.asdict(result), placement(sim.engines[name]))
        for name, result in results.items()
    }


@pytest.mark.parametrize("sharing", [MaxMinSharing, WeightedDrf])
def test_multi_vm_balloon_scenario_is_bit_identical(sharing):
    """Lock-step multi-VM guests (Figure 13's path) balloon, arbitrate
    and reclaim identically on both sides, and the reference side
    really builds reference zones, nodes and LRUs in every guest."""
    with reference_guest() as log:
        sim, reference = _balloon_run(sharing)
    assert len(sim.engines) > 1
    assert len(log.engines) == len(sim.engines)
    for engine in sim.engines.values():
        log.assert_reference(engine)
    _, production = _balloon_run(sharing)
    assert production == reference


def _plan_from(seed, drop_p, derate_p):
    """A small deterministic fault plan built from drawn parameters."""
    return FaultPlan.from_dict(
        {
            "seed": seed,
            "faults": [
                {"kind": "channel-drop", "probability": drop_p},
                {
                    "kind": "device-derate",
                    "probability": derate_p,
                    "start_epoch": 1,
                    "latency_factor": 2.0,
                },
            ],
        }
    )


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    footprint_gib=st.sampled_from([0.25, 0.5, 1.0]),
    io_intensity=st.sampled_from([0.1, 0.3, 0.6]),
    locality_skew=st.sampled_from([0.4, 0.7, 0.9]),
    mpki=st.sampled_from([4.0, 12.0, 24.0]),
    periodic_cold=st.booleans(),
    with_faults=st.booleans(),
    drop_p=st.sampled_from([0.1, 0.2, 0.5]),
)
@settings(max_examples=8, deadline=None)
def test_synthetic_workloads_are_bit_identical(
    seed, footprint_gib, io_intensity, locality_skew, mpki,
    periodic_cold, with_faults, drop_p,
):
    def workload():
        # Rebuilt per run: statistical workloads carry RNG state.
        return make_synthetic(
            seed,
            footprint_gib=footprint_gib,
            io_intensity=io_intensity,
            locality_skew=locality_skew,
            mpki=mpki,
            run_epochs=4,
            periodic_cold=periodic_cold,
        )

    faults = _plan_from(seed, drop_p, 0.3) if with_faults else None
    reference = _run(workload(), "hetero-lru", True,
                     epochs=4, slow_gib=1.0, faults=faults)
    production = _run(workload(), "hetero-lru", False,
                epochs=4, slow_gib=1.0, faults=faults)
    assert production == reference


class HighestFirstBuddy(ReferenceBuddy):
    """The reference allocator handing out the highest block of each
    chosen order instead of the lowest: the same page counts in every
    grant, on other frames."""

    def _pick(self, starts):
        return max(starts)


@pytest.mark.parametrize(
    "app, policy_name, kwargs",
    [("redis", name, dict(epochs=3)) for name in available_policies()]
    + [
        # Memory pressure: the guest swaps out ~0.5M pages and its
        # grants fall back to smaller orders.
        ("graphchi", "hetero-lru", dict(epochs=8, slow_gib=1.0)),
        ("redis", "hetero-lru",
         dict(epochs=4, sanitize=True, faults=FAULT_PLAN)),
    ],
    ids=[*available_policies(), "pressure", "sanitize+faults"],
)
def test_results_are_blind_to_which_frames_are_granted(
    app, policy_name, kwargs
):
    """A result reads page counts, never frame numbers: a guest whose
    allocator picks the highest free block of each order ends with
    other frames and the same result, field for field.  A change that
    lets a frame number into a result fails here."""
    result, frames = _run(app, policy_name, True, buddy=HighestFirstBuddy,
                          **kwargs)
    production_result, production_frames = _run(app, policy_name, False,
                                                 **kwargs)
    assert result == production_result
    assert frames != production_frames


@pytest.mark.parametrize("sharing", [MaxMinSharing, WeightedDrf])
def test_multi_vm_results_are_blind_to_which_frames_are_granted(sharing):
    """Both guests of the balloon scenario balloon, arbitrate and end
    with the same results whichever free blocks their allocators pick,
    each on other frames."""
    with reference_guest(HighestFirstBuddy) as log:
        sim, highest = _balloon_run(sharing)
    assert len(log.engines) == len(sim.engines) == 2
    for engine in sim.engines.values():
        log.assert_reference(engine, HighestFirstBuddy)
    _, production = _balloon_run(sharing)
    assert highest.keys() == production.keys()
    for name, (result, frames) in production.items():
        assert highest[name][0] == result
        assert highest[name][1] != frames
