"""Figures 11 and 12: impact of guest-VMM coordinated management.

* Figure 11 — gains over SlowMem-only for HeteroOS-LRU, VMM-exclusive,
  and HeteroOS-coordinated at 1/4 and 1/8 FastMem ratios.
* Figure 12 — gains attributable *exclusively to migrations*: each
  migrating approach relative to the pure-placement Heap-IO-Slab-OD
  baseline, with the total pages migrated (millions).

Both run through :func:`repro.sim.parallel.run_cached`, so their grid
points share cache keys with Figures 9 and 10 (the baselines and
HeteroOS-LRU are Figure 9 runs) and persist under
``REPRO_SWEEP_CACHE_DIR``.
"""

from __future__ import annotations

from repro.experiments.placement import run_fig9
from repro.sim.parallel import clear_memo, run_cached
from repro.sim.stats import gain_percent
from repro.workloads.registry import PLACEMENT_APPS

FIG11_POLICIES: tuple[str, ...] = (
    "hetero-lru",
    "vmm-exclusive",
    "hetero-coordinated",
)

FIG11_RATIOS: tuple[float, ...] = (1 / 4, 1 / 8)

FIG12_APPS: tuple[str, ...] = ("graphchi", "redis", "leveldb")


def run_fig11(
    apps: tuple[str, ...] = PLACEMENT_APPS,
    ratios: tuple[float, ...] = FIG11_RATIOS,
    policies: tuple[str, ...] = FIG11_POLICIES,
    epochs: int | None = None,
) -> list[dict]:
    """Gains (%) over SlowMem-only per (app, ratio, policy): Figure 9's
    rows with the migrating approaches as the series."""
    return run_fig9(apps, ratios, policies, epochs)


def run_fig12(
    apps: tuple[str, ...] = FIG12_APPS,
    ratio: float = 1 / 4,
    epochs: int | None = None,
) -> list[dict]:
    """Migration-only gains relative to Heap-IO-Slab-OD + pages moved.

    For HeteroOS policies, "migrations" include both promotions and the
    HeteroOS-LRU demotions (the paper's Figure 12 counts the evictions
    and migrations together).
    """
    rows = []
    for app in apps:
        placement = run_cached(
            app, "heap-io-slab-od", fast_ratio=ratio, epochs=epochs
        )
        row: dict = {"app": app}
        for policy in ("vmm-exclusive", "hetero-lru", "hetero-coordinated"):
            result = run_cached(app, policy, fast_ratio=ratio, epochs=epochs)
            moved = result.pages_migrated + result.pages_demoted
            row[f"{policy}_gain_pct"] = gain_percent(result, placement)
            row[f"{policy}_migrated_millions"] = moved / 1e6
        rows.append(row)
    return rows


def clear_cache() -> None:
    """Drop memoized runs (the shared process-wide memo)."""
    clear_memo()
