"""Figure 8: VMM-exclusive hotness-tracking + migration cost.

Section 5.2: HeteroVisor's tracking enabled for GraphChi, scanning 32K
pages per interval, intervals swept 100 ms - 500 ms, *without* SlowMem
emulation ("we do not emulate NVM bandwidth and latency ... our goal is
to understand the software overheads").  The y-axis is the runtime
overhead relative to the untracked run; the bar labels are the pages
migrated (millions).

The paper's HeteroVisor classifies hotness from raw access bits with no
density filtering or observation history, which is why it migrates
millions of pages; the sweep here configures the tracker the same way.

Every configuration — tracker parameters included — is expressed as an
:class:`~repro.sim.parallel.ExperimentSpec` (``policy_args`` carry the
scan/migrate knobs, ``hotness`` the tracker config), so the sweep's runs
fan out and cache like any other grid point; the scan/migration costs
are read back from the :class:`~repro.sim.stats.RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.hw.throttle import ThrottleConfig
from repro.sim.parallel import ExperimentSpec, make_spec
from repro.sim.stats import RunResult
from repro.vmm.hotness import HotnessConfig

#: HeteroVisor-faithful tracker: hair-trigger classification and the full
#: virtualized scan cost (validity checks + forced TLB invalidations make
#: tracking "even more expensive compared to the migrations", §5.2).
HETEROVISOR_TRACKER = HotnessConfig(
    scan_batch_pages=32 * 1024,
    per_pte_scan_ns=4000.0,
    hot_density=1.0,
    min_observations=1,
)

#: HeteroVisor's per-interval page-move rate: a few thousand pages per
#: 100 ms interval, far below the scan batch, which is why the paper
#: finds tracking costlier than migration.
_MIGRATE_BUDGET_PAGES = 2048


@dataclass
class Fig8:
    """Overhead (%) and pages migrated vs. scan interval (1 epoch=100ms)."""

    app: str = "graphchi"
    interval_epochs: tuple[int, ...] = (1, 2, 3, 4, 5)
    epochs: int = 160

    def grid(self) -> list[ExperimentSpec]:
        """The untracked baseline, then VMM-exclusive at each interval."""
        # No SlowMem emulation: both tiers are plain DRAM (L:1,B:1).
        platform = dict(
            fast_ratio=0.25, throttle=ThrottleConfig(1, 1), epochs=self.epochs
        )
        return [make_spec(self.app, "slowmem-only", **platform)] + [
            make_spec(
                self.app,
                "vmm-exclusive",
                policy_args={
                    "scan_interval_epochs": interval,
                    "scan_batch_pages": HETEROVISOR_TRACKER.scan_batch_pages,
                    "migrate_budget_pages": _MIGRATE_BUDGET_PAGES,
                },
                hotness=HETEROVISOR_TRACKER,
                **platform,
            )
            for interval in self.interval_epochs
        ]

    def rows(self, results: Mapping[ExperimentSpec, RunResult]) -> list[dict]:
        baseline, *tracked = self.grid()
        runtime_ns = results[baseline].stats.runtime_ns
        rows = []
        for interval, spec in zip(self.interval_epochs, tracked):
            result = results[spec]
            scan, move = result.scan_cost_ns, result.migration_cost_ns
            rows.append({
                "interval_ms": interval * 100,
                "tracking_overhead_pct": 100.0 * scan / runtime_ns,
                "migration_overhead_pct": 100.0 * move / runtime_ns,
                "total_overhead_pct": 100.0 * (scan + move) / runtime_ns,
                "pages_migrated_millions": result.pages_migrated / 1e6,
            })
        return rows
