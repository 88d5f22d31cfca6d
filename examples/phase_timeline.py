#!/usr/bin/env python3
"""Watching a phase change through the policies' eyes.

GraphChi's hot vertex set drifts at epoch 120 (iteration-group change).
This example reads the per-epoch telemetry timelines of HeteroOS-LRU
(placement only) and HeteroOS-coordinated (placement + hotness tracking)
and prints the stretch around the shift: the fraction of memory stall
served by FastMem collapses for both, but only the coordinated policy's
tracker migrates the new hot set back into FastMem.

Usage::

    python examples/phase_timeline.py
"""

from __future__ import annotations

from repro.core import make_policy
from repro.obs.bus import Telemetry
from repro.sim.engine import SimulationEngine
from repro.sim.runner import build_config
from repro.workloads import make_workload

SHIFT_EPOCH = 120
WINDOW = (100, 180)


def record(policy_name: str) -> list[dict]:
    """One row per epoch from the run's telemetry timeline."""
    engine = SimulationEngine(
        build_config(fast_ratio=0.125),
        make_workload("graphchi"),
        make_policy(policy_name),
        telemetry=Telemetry(),
    )
    timeline = engine.run(WINDOW[1] + 20).timeline
    fast = {
        engine.kernel.nodes[node_id].device.name
        for node_id in engine.kernel.fast_node_ids
    }
    rows = []
    for sample in timeline:
        stalls = sample.stall_ns_by_device
        total = sum(stalls.values())
        fast_stall = sum(stalls[name] for name in stalls if name in fast)
        rows.append({
            "runtime_ns": sample.runtime_ns,
            "fast_stall_fraction": fast_stall / total if total else 0.0,
        })
    return rows


def main() -> None:
    lru = record("hetero-lru")
    coordinated = record("hetero-coordinated")

    print(f"GraphChi @ 1/8 FastMem; hot set drifts at epoch {SHIFT_EPOCH}\n")
    print("epoch   runtime(ms)  [lru / coord]     fastmem-stall-share")
    for epoch in range(WINDOW[0], WINDOW[1], 8):
        a, b = lru[epoch], coordinated[epoch]
        marker = "  <-- phase shift" if epoch == SHIFT_EPOCH else ""
        print(
            f"{epoch:5d}   {a['runtime_ns'] / 1e6:7.0f} /"
            f" {b['runtime_ns'] / 1e6:5.0f}        "
            f"{a['fast_stall_fraction']:.2f} / "
            f"{b['fast_stall_fraction']:.2f}{marker}"
        )

    lru_tail = sum(r["runtime_ns"] for r in lru[SHIFT_EPOCH:]) / 1e9
    coord_tail = sum(r["runtime_ns"] for r in coordinated[SHIFT_EPOCH:]) / 1e9
    print(
        f"\npost-shift runtime: hetero-lru {lru_tail:.1f}s vs"
        f" hetero-coordinated {coord_tail:.1f}s"
        "\nOnly the tracker notices that yesterday's cold pages are"
        "\ntoday's hot ones — placement alone cannot repair the layout."
    )


if __name__ == "__main__":
    main()
