"""Performance pins for the parallel cached sweep harness.

Two acceptance criteria from the parallel-execution work ride here
rather than in tier-1 tests, because they time real multi-second
sweeps of the Figure 9 grid:

* a warm-cache re-sweep must be at least 5x faster than the cold
  sweep that populated the cache, and
* a 4-worker cold sweep must beat the serial cold sweep on
  multi-core runners (skipped on single-core boxes, where forked
  workers only add overhead).  The two sweeps alternate ``ROUNDS``
  times and each side's best time is compared: a shared host's slow
  stretches only ever add time, so the minimum is the least-perturbed
  sample (the best-of-N protocol of docs/performance.md).
"""

from __future__ import annotations

import dataclasses
import os
import time

import pytest

from repro.experiments.placement import fig9_grid_specs
from repro.sim.parallel import ResultCache, results_or_raise, run_specs

#: Reduced from the figure benches' 120 so the cold grid stays in the
#: tens-of-seconds range; the cold/warm ratio is epoch-independent.
EPOCHS = 40

SPEEDUP_FLOOR = 5.0

#: Alternating serial / 4-worker rounds of the cold comparison.
ROUNDS = 3


def _timed_sweep(specs, **kwargs):
    start = time.perf_counter()
    outcomes = run_specs(specs, **kwargs)
    return results_or_raise(outcomes), time.perf_counter() - start


def test_perf_cached_resweep_beats_cold(tmp_path):
    specs = fig9_grid_specs(epochs=EPOCHS)

    cold_cache = ResultCache(tmp_path)
    cold_results, cold_sec = _timed_sweep(specs, cache=cold_cache)
    assert cold_cache.hits == 0 and cold_cache.misses == len(specs)

    warm_cache = ResultCache(tmp_path)
    warm_results, warm_sec = _timed_sweep(specs, cache=warm_cache)
    assert warm_cache.hits == len(specs) and warm_cache.misses == 0

    assert [dataclasses.asdict(r) for r in warm_results] == [
        dataclasses.asdict(r) for r in cold_results
    ], "cached results must be bit-identical to the runs that produced them"

    speedup = cold_sec / warm_sec
    print(
        f"\nFig. 9 grid ({len(specs)} specs, {EPOCHS} epochs): "
        f"cold {cold_sec:.2f}s, warm {warm_sec:.2f}s, {speedup:.1f}x"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm-cache re-sweep only {speedup:.1f}x faster than cold "
        f"({cold_sec:.2f}s -> {warm_sec:.2f}s); floor is {SPEEDUP_FLOOR}x"
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="parallel speedup needs a multi-core runner",
)
def test_perf_four_workers_beat_serial_cold(tmp_path):
    specs = fig9_grid_specs(epochs=EPOCHS)

    serial_times, parallel_times = [], []
    for _ in range(ROUNDS):
        serial_results, serial_sec = _timed_sweep(specs)
        parallel_results, parallel_sec = _timed_sweep(specs, max_workers=4)
        serial_times.append(serial_sec)
        parallel_times.append(parallel_sec)
        assert [dataclasses.asdict(r) for r in parallel_results] == [
            dataclasses.asdict(r) for r in serial_results
        ], "worker processes must reproduce the serial results bit-for-bit"
    serial_sec = min(serial_times)
    parallel_sec = min(parallel_times)

    print(
        f"\nFig. 9 grid cold, best of {ROUNDS}: serial {serial_sec:.2f}s, "
        f"4 workers {parallel_sec:.2f}s"
    )
    assert parallel_sec < serial_sec, (
        f"4-worker sweep ({parallel_sec:.2f}s) did not beat serial "
        f"({serial_sec:.2f}s)"
    )
