"""Figures 1-3 and Table 4: latency/bandwidth/capacity sensitivity.

* Figure 1 — slowdown of each application vs. FastMem-only as SlowMem is
  throttled through the (L, B) sweep, plus the remote-NUMA comparison bar
  (16 MB LLC platform).
* Figure 2 — the same sweep on the Intel NVM emulator platform (48 MB
  LLC), where the larger cache lowers every slowdown.
* Figure 3 — slowdown vs. FastMem:SlowMem capacity ratio at L:5,B:9.
* Table 4 — application MPKI measured on the FastMem-only platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping

from repro.hw.throttle import FIGURE1_SWEEP, ThrottleConfig
from repro.sim.parallel import ExperimentSpec, make_spec
from repro.sim.stats import RunResult, slowdown_factor
from repro.workloads.registry import ALL_APPS


@dataclass
class Table4:
    """Table 4: MPKI per application (16 MB LLC, all-FastMem)."""

    apps: tuple[str, ...] = ALL_APPS
    epochs: int = 60

    def grid(self) -> list[ExperimentSpec]:
        return [
            make_spec(app, "fastmem-only", epochs=self.epochs)
            for app in self.apps
        ]

    def rows(self, results: Mapping[ExperimentSpec, RunResult]) -> list[dict]:
        return [
            {"app": spec.app, "mpki": results[spec].mpki}
            for spec in self.grid()
        ]


@dataclass
class Fig1:
    """Figures 1/2: slowdown relative to FastMem-only per throttle setting.

    Every configuration runs the whole application exclusively on the
    (throttled) SlowMem — the paper's methodology for isolating the
    device's latency/bandwidth effect.
    """

    apps: tuple[str, ...] = ALL_APPS
    llc_mib: int = 16
    epochs: int = 60
    include_remote_numa: bool = True
    sweep: tuple[ThrottleConfig, ...] = FIGURE1_SWEEP

    def grid(self) -> list[ExperimentSpec]:
        """Per app: FastMem-only, then SlowMem-only in each column."""
        platform = dict(llc_mib=self.llc_mib, epochs=self.epochs)
        specs = []
        for app in self.apps:
            specs.append(make_spec(app, "fastmem-only", **platform))
            for config in self.sweep:
                specs.append(make_spec(
                    app, "slowmem-only", throttle=config, **platform
                ))
            if self.include_remote_numa:
                specs.append(make_spec(
                    app, "slowmem-only", slow_device="remote-dram", **platform
                ))
        return specs

    def rows(self, results: Mapping[ExperimentSpec, RunResult]) -> list[dict]:
        columns = [config.label for config in self.sweep]
        columns += ["remote-numa"] if self.include_remote_numa else []
        specs = iter(self.grid())
        rows = []
        for app in self.apps:
            fast = results[next(specs)]
            row: dict = {"app": app}
            for column in columns:
                row[column] = slowdown_factor(results[next(specs)], fast)
            rows.append(row)
        return rows


#: Figure 2: Figure 1's sweep on the 48 MB-LLC NVM emulator, without the
#: remote-NUMA bar.
Fig2 = partial(Fig1, llc_mib=48, include_remote_numa=False)


@dataclass
class Fig3:
    """Figure 3: FastMem capacity impact at L:5,B:9.

    Uses the heterogeneity-aware on-demand placement (Heap-IO-Slab-OD) so
    the FastMem that exists is actually used — the paper's point is how
    much capacity matters *given* sensible placement.
    """

    apps: tuple[str, ...] = ALL_APPS
    ratios: tuple[float, ...] = (1 / 2, 1 / 4, 1 / 8, 1 / 16, 1 / 32)
    epochs: int = 60

    def grid(self) -> list[ExperimentSpec]:
        points = [("fastmem-only", 1 / 4)]
        points += [("heap-io-slab-od", ratio) for ratio in self.ratios]
        return [
            make_spec(app, policy, fast_ratio=ratio, epochs=self.epochs)
            for app in self.apps
            for policy, ratio in points
        ]

    def rows(self, results: Mapping[ExperimentSpec, RunResult]) -> list[dict]:
        specs = iter(self.grid())
        rows = []
        for app in self.apps:
            fast = results[next(specs)]
            row: dict = {"app": app}
            for ratio in self.ratios:
                row[f"1/{round(1 / ratio)}"] = slowdown_factor(
                    results[next(specs)], fast
                )
            rows.append(row)
        return rows
