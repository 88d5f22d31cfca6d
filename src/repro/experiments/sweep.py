"""Generic parameter-sweep utility.

The paper's figures are fixed grids; downstream studies want arbitrary
ones.  :func:`sweep` runs the cartesian product of applications ×
policies × FastMem ratios × throttle settings and returns flat rows —
the helper behind the CLI's ``sweep`` subcommand.  Table 2's
measured-metric reproduction (:class:`Table2`) lives here too.

Execution goes through :mod:`repro.sim.parallel`: the grid expands into
:class:`~repro.sim.parallel.ExperimentSpec`\\ s, duplicates collapse,
cached points skip simulation, and ``max_workers > 1`` fans the misses
out across worker processes — with results bit-identical to the serial
path (the engine is deterministic from ``SimConfig.seed``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.hw.throttle import DEFAULT_SLOWMEM, ThrottleConfig
from repro.sim.parallel import (
    ExperimentSpec,
    ProgressFn,
    ResultCache,
    SweepJournal,
    make_spec,
    results_or_raise,
    run_specs,
)
from repro.sim.stats import RunResult, gain_percent
from repro.workloads.registry import ALL_APPS

#: Table 2's application descriptions (for the table reproduction).
TABLE2_DESCRIPTIONS: dict[str, tuple[str, str]] = {
    "graphchi": (
        "Pagerank using Orkut social graph, 8M nodes, 500M edges",
        "time (sec)",
    ),
    "xstream": (
        "Edge-centric graph processing, same input as GraphChi",
        "time (sec)",
    ),
    "metis": (
        "Shared memory mapreduce, 4GB crime dataset, 8 threads",
        "time (sec)",
    ),
    "leveldb": (
        "Google's DB for bigtable, SQLite bench with 1M keys",
        "throughput (MB/s)",
    ),
    "redis": (
        "Key-value store with persistence, 4M ops, 80% GETs",
        "requests per sec",
    ),
    "nginx": (
        "Webserver, 1M static/dynamic/image webpages",
        "requests per sec",
    ),
}


@dataclass
class Table2:
    """Table 2: the applications, their metrics, and what this
    reproduction measures for each under HeteroOS-coordinated (1/4)."""

    epochs: int | None = None

    def grid(self) -> list[ExperimentSpec]:
        return [
            make_spec(
                app, "hetero-coordinated", fast_ratio=0.25, epochs=self.epochs
            )
            for app in ALL_APPS
        ]

    def rows(self, results: Mapping[ExperimentSpec, RunResult]) -> list[dict]:
        rows = []
        for spec in self.grid():
            description, metric = TABLE2_DESCRIPTIONS[spec.app]
            rows.append({
                "app": spec.app,
                "description": description,
                "perf_metric": metric,
                "measured": results[spec].metric_value,
            })
        return rows


def expand_grid(
    apps: Sequence[str],
    policies: Sequence[str],
    ratios: Sequence[float],
    throttles: Sequence[ThrottleConfig] = (DEFAULT_SLOWMEM,),
    epochs: int | None = None,
    baseline_policy: str = "slowmem-only",
    seed: int = 7,
) -> list[ExperimentSpec]:
    """Expand a sweep grid into specs, baselines included, in row order.

    Each (throttle, ratio, app) group leads with its baseline spec so a
    parallel run simulates baselines early; duplicates (e.g.
    ``baseline_policy`` also listed in ``policies``) are collapsed by
    :func:`~repro.sim.parallel.run_specs` itself.
    """
    return [
        make_spec(
            app, policy, fast_ratio=ratio, throttle=throttle, epochs=epochs,
            seed=seed,
        )
        for throttle in throttles
        for ratio in ratios
        for app in apps
        for policy in (baseline_policy, *policies)
    ]


def sweep(
    apps: Sequence[str] = ALL_APPS,
    policies: Sequence[str] = ("hetero-lru",),
    ratios: Sequence[float] = (1 / 4,),
    throttles: Sequence[ThrottleConfig] = (DEFAULT_SLOWMEM,),
    epochs: int | None = None,
    baseline_policy: str = "slowmem-only",
    max_workers: int | None = 1,
    cache: ResultCache | str | None = None,
    timeout_sec: float | None = None,
    progress: ProgressFn | None = None,
    retries: int = 0,
    retry_backoff_sec: float = 0.5,
    retry_jitter: float = 0.0,
    journal: "SweepJournal | str | None" = None,
    recorder: "SweepRecorder | None" = None,
) -> list[dict]:
    """Run the full grid; each row carries runtime, metric, and gain
    over the same-platform baseline.

    ``max_workers``/``cache``/``timeout_sec``/``progress``/``retries``/
    ``retry_backoff_sec``/``retry_jitter``/``journal``/``recorder``
    pass through to :func:`repro.sim.parallel.run_specs`; the defaults
    (serial, no cache, no retry, no jitter, no journal, no recorder)
    reproduce the historical behaviour exactly.  Any failed grid point raises
    :class:`~repro.errors.SweepError` with the structured per-spec
    failures in its message.
    """
    specs = expand_grid(
        apps, policies, ratios, throttles, epochs, baseline_policy
    )
    outcomes = run_specs(
        specs,
        max_workers=max_workers,
        cache=cache,
        timeout_sec=timeout_sec,
        progress=progress,
        retries=retries,
        retry_backoff_sec=retry_backoff_sec,
        retry_jitter=retry_jitter,
        journal=journal,
        recorder=recorder,
    )
    results = iter(results_or_raise(outcomes))
    rows = []
    for throttle in throttles:
        for ratio in ratios:
            for app in apps:
                baseline = next(results)
                for policy in policies:
                    result = next(results)
                    rows.append(
                        {
                            "app": app,
                            "policy": policy,
                            "ratio": ratio,
                            "throttle": throttle.label,
                            "runtime_sec": result.runtime_sec,
                            "metric": result.metric_value,
                            "gain_pct": gain_percent(result, baseline),
                        }
                    )
    return rows
