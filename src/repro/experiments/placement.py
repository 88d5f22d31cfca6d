"""Figures 9 and 10: guest-OS memory placement effectiveness.

* Figure 9 — % gains relative to SlowMem-only for Heap-OD,
  Heap-IO-Slab-OD, HeteroOS-LRU, and NUMA-preferred across FastMem
  ratios 1/2, 1/4, 1/8, with the FastMem-only ceiling.
* Figure 10 — whole-run FastMem allocation miss ratio at the 1/8 ratio.

NGinx is excluded as in the paper (<10% heterogeneity impact).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.sim.parallel import ExperimentSpec, make_spec
from repro.sim.stats import RunResult, gain_percent
from repro.workloads.registry import PLACEMENT_APPS

#: Figure 9's policy series, in legend order.
FIG9_POLICIES: tuple[str, ...] = (
    "heap-od",
    "heap-io-slab-od",
    "hetero-lru",
    "numa-preferred",
)


@dataclass
class Fig9:
    """Gains (%) over SlowMem-only per (app, ratio, policy); each app's
    baselines run at 1/4.  Figure 11 is this grid over other series
    (:data:`repro.experiments.coordinated.Fig11`)."""

    apps: tuple[str, ...] = PLACEMENT_APPS
    ratios: tuple[float, ...] = (1 / 2, 1 / 4, 1 / 8)
    policies: tuple[str, ...] = FIG9_POLICIES
    epochs: int | None = None

    def grid(self) -> list[ExperimentSpec]:
        points = [("slowmem-only", 1 / 4), ("fastmem-only", 1 / 4)]
        points += [(p, ratio) for ratio in self.ratios for p in self.policies]
        return [
            make_spec(app, policy, fast_ratio=ratio, epochs=self.epochs)
            for app in self.apps
            for policy, ratio in points
        ]

    def rows(self, results: Mapping[ExperimentSpec, RunResult]) -> list[dict]:
        specs = iter(self.grid())
        rows = []
        for app in self.apps:
            slow, fast = results[next(specs)], results[next(specs)]
            for ratio in self.ratios:
                row: dict = {"app": app, "ratio": f"1/{round(1 / ratio)}"}
                for policy in self.policies:
                    row[policy] = gain_percent(results[next(specs)], slow)
                row["fastmem-only"] = gain_percent(fast, slow)
                rows.append(row)
        return rows


def fig9_grid_specs(**params) -> list[ExperimentSpec]:
    """Figure 9's grid, baselines included, over :class:`Fig9`'s fields
    as keywords (the benchmark harness's sweep grid)."""
    return Fig9(**params).grid()


@dataclass
class Fig10:
    """FastMem allocation miss ratio at the 1/8 capacity ratio: Figure
    9's runs at one ratio."""

    apps: tuple[str, ...] = PLACEMENT_APPS
    ratio: float = 1 / 8
    policies: tuple[str, ...] = FIG9_POLICIES
    epochs: int | None = None

    def grid(self) -> list[ExperimentSpec]:
        return [
            make_spec(app, policy, fast_ratio=self.ratio, epochs=self.epochs)
            for app in self.apps
            for policy in self.policies
        ]

    def rows(self, results: Mapping[ExperimentSpec, RunResult]) -> list[dict]:
        specs = iter(self.grid())
        rows = []
        for app in self.apps:
            row: dict = {"app": app}
            for policy in self.policies:
                row[policy] = results[next(specs)].fastmem_miss_ratio()
            rows.append(row)
        return rows
