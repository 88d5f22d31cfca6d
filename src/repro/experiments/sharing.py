"""Figure 13: multi-VM heterogeneous memory sharing.

Section 5.5's setup: a 4 GB FastMem / 8 GB SlowMem machine hosting a
GraphChi VM (Twitter dataset, resource vector <2x1GB, 1x4GB>) and a Metis
VM (<2x3GB, 1x4GB>).  Compared: max-min + VMM-exclusive, max-min +
HeteroOS-coordinated, weighted-DRF + HeteroOS-coordinated, and each VM's
single-VM HeteroOS-coordinated run (the stars in the figure).
"""

from __future__ import annotations

from repro.core.policy import make_policy
from repro.guestos.balloon import TierReservation
from repro.guestos.numa import NodeTier
from repro.hw.memdevice import DRAM, MemoryDevice
from repro.hw.throttle import DEFAULT_SLOWMEM, throttled_device
from repro.sim.engine import SimulationEngine
from repro.sim.multi_vm import MultiVmSimulation, VmSpec
from repro.sim.runner import build_config
from repro.sim.stats import RunResult
from repro.units import GIB, pages_of_bytes, plain_sum
from repro.vmm.drf import WeightedDrf
from repro.vmm.sharing import MaxMinSharing, SharingPolicy
from repro.workloads.fig13 import make_graphchi_twitter, make_metis_big

GIB_PAGES = pages_of_bytes(GIB)


def fig13_devices() -> dict[NodeTier, MemoryDevice]:
    """The Section 5.5 machine: 4 GB FastMem, 8 GB throttled SlowMem."""
    return {
        NodeTier.FAST: DRAM.with_capacity(4 * GIB).with_name("fastmem"),
        NodeTier.SLOW: throttled_device(
            DEFAULT_SLOWMEM, capacity_bytes=8 * GIB, name="slowmem"
        ),
    }


def fig13_vmspecs(policy_name: str) -> list[VmSpec]:
    """The two guest VMs with the paper's resource vectors."""
    return [
        VmSpec(
            name="graphchi-vm",
            workload=make_graphchi_twitter(),
            policy=make_policy(policy_name),
            reservations={
                NodeTier.FAST: TierReservation(1 * GIB_PAGES, 1 * GIB_PAGES),
                NodeTier.SLOW: TierReservation(4 * GIB_PAGES, 7 * GIB_PAGES),
            },
        ),
        VmSpec(
            name="metis-vm",
            workload=make_metis_big(),
            policy=make_policy(policy_name),
            reservations={
                NodeTier.FAST: TierReservation(3 * GIB_PAGES, 3 * GIB_PAGES),
                NodeTier.SLOW: TierReservation(4 * GIB_PAGES, 7 * GIB_PAGES),
            },
        ),
    ]


def _multi_vm_run(
    policy_name: str, sharing: SharingPolicy, epochs: int
) -> dict[str, RunResult]:
    sim = MultiVmSimulation(
        fig13_devices(), fig13_vmspecs(policy_name), sharing_policy=sharing
    )
    try:
        return sim.run(epochs)
    finally:
        sim.close()


def _single_vm_baselines(epochs: int) -> dict[str, RunResult]:
    """Each VM alone with the whole machine (the figure's stars)."""
    results = {}
    for name, workload in (
        ("graphchi-vm", make_graphchi_twitter()),
        ("metis-vm", make_metis_big()),
    ):
        config = build_config(fast_ratio=0.5, slow_gib=8.0)
        engine = SimulationEngine(
            config, workload, make_policy("hetero-coordinated")
        )
        try:
            results[name] = engine.run(epochs)
        finally:
            engine.close()
    return results


def run_fig13(epochs: int = 160) -> list[dict]:
    """Gains (%) over the multi-VM SlowMem-only floor per approach."""
    scenarios = {
        "vmm-exclusive(max-min)": _multi_vm_run(
            "vmm-exclusive", MaxMinSharing(), epochs
        ),
        "coordinated(max-min)": _multi_vm_run(
            "hetero-coordinated", MaxMinSharing(), epochs
        ),
        "coordinated(weighted-drf)": _multi_vm_run(
            "hetero-coordinated", WeightedDrf(), epochs
        ),
    }
    floor = _multi_vm_run("slowmem-only", MaxMinSharing(), epochs)
    singles = _single_vm_baselines(epochs)
    rows = []
    for vm_name in ("graphchi-vm", "metis-vm"):
        row: dict = {"vm": vm_name}
        base_ns = floor[vm_name].stats.runtime_ns
        for scenario, results in scenarios.items():
            row[scenario] = (
                base_ns / results[vm_name].stats.runtime_ns - 1.0
            ) * 100.0
        row["single-vm-coordinated"] = (
            base_ns / singles[vm_name].stats.runtime_ns - 1.0
        ) * 100.0
        rows.append(row)
    # System-wide completion time (the "overall system performance"
    # comparison in Section 5.5).
    total_row: dict = {"vm": "TOTAL-runtime-sec"}
    for scenario, results in scenarios.items():
        total_row[scenario] = plain_sum(
            r.runtime_sec for r in results.values()
        )
    total_row["single-vm-coordinated"] = plain_sum(
        r.runtime_sec for r in singles.values()
    )
    rows.append(total_row)
    return rows
