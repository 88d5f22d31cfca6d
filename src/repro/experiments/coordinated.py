"""Figures 11 and 12: impact of guest-VMM coordinated management.

* Figure 11 — gains over SlowMem-only for HeteroOS-LRU, VMM-exclusive,
  and HeteroOS-coordinated at 1/4 and 1/8 FastMem ratios.
* Figure 12 — gains attributable *exclusively to migrations*: each
  migrating approach relative to the pure-placement Heap-IO-Slab-OD
  baseline, with the total pages migrated (millions).

Their runs are Figures 9 and 10's specs (the baselines and HeteroOS-LRU
are Figure 9 runs): :func:`repro.experiments.run_figures` over all four
simulates each once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping

from repro.experiments.placement import Fig9
from repro.sim.parallel import ExperimentSpec, make_spec
from repro.sim.stats import RunResult, gain_percent

#: Figure 11: Figure 9's grid and rows with the migrating approaches as
#: the series, at 1/4 and 1/8.
Fig11 = partial(
    Fig9,
    ratios=(1 / 4, 1 / 8),
    policies=("hetero-lru", "vmm-exclusive", "hetero-coordinated"),
)


@dataclass
class Fig12:
    """Migration-only gains relative to Heap-IO-Slab-OD + pages moved.

    For HeteroOS policies, "migrations" include both promotions and the
    HeteroOS-LRU demotions (the paper's Figure 12 counts the evictions
    and migrations together).
    """

    apps: tuple[str, ...] = ("graphchi", "redis", "leveldb")
    ratio: float = 1 / 4
    epochs: int | None = None

    #: Heap-IO-Slab-OD (the baseline) first, then the migrating series.
    POLICIES = (
        "heap-io-slab-od", "vmm-exclusive", "hetero-lru", "hetero-coordinated"
    )

    def grid(self) -> list[ExperimentSpec]:
        return [
            make_spec(app, policy, fast_ratio=self.ratio, epochs=self.epochs)
            for app in self.apps
            for policy in self.POLICIES
        ]

    def rows(self, results: Mapping[ExperimentSpec, RunResult]) -> list[dict]:
        specs = iter(self.grid())
        rows = []
        for app in self.apps:
            placement = results[next(specs)]
            row: dict = {"app": app}
            for policy in self.POLICIES[1:]:
                result = results[next(specs)]
                moved = result.pages_migrated + result.pages_demoted
                row[f"{policy}_gain_pct"] = gain_percent(result, placement)
                row[f"{policy}_migrated_millions"] = moved / 1e6
            rows.append(row)
        return rows
