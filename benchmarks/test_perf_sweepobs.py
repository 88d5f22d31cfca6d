"""Sweep-observability overhead budget: recording must stay near-free.

The ISSUE acceptance pin: a sweep driven with a full
:class:`~repro.obs.flight.SweepRecorder` attached (every hook firing,
metrics + spans accumulating) must cost < 2% wall-clock over the same
grid with no recorder. Wall-clock comparisons are noisy, so each
variant is timed best-of-N and the *minimum* (least-interference) times
are compared. The measured numbers are archived to
``benchmarks/_results/BENCH_sweepobs.json`` so regressions show up as a
committed-file diff, not just a red assert.
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.obs.flight import SweepRecorder
from repro.sim.parallel import make_spec, run_specs

RESULTS_DIR = pathlib.Path(__file__).parent / "_results"

EPOCHS = 60
ROUNDS = 5

OVERHEAD_CEILING = 1.02


def _grid():
    return [
        make_spec(app, policy, epochs=EPOCHS)
        for app in ("nginx", "redis")
        for policy in ("slowmem-only", "hetero-lru", "hetero-coordinated")
    ]


def _time_sweep(recorder) -> float:
    start = time.perf_counter()
    outcomes = run_specs(_grid(), recorder=recorder)
    elapsed = time.perf_counter() - start
    assert all(outcome.ok for outcome in outcomes)
    return elapsed


def test_perf_sweep_recorder_overhead_budget():
    _time_sweep(None)  # warm-up: import + allocator churn off the clock
    # Interleave the variants so process-lifetime drift (allocator,
    # caches warming over minutes) biases neither side.
    plain_times, recorded_times = [], []
    for _ in range(ROUNDS):
        plain_times.append(_time_sweep(None))
        recorded_times.append(_time_sweep(SweepRecorder()))
    plain = min(plain_times)
    recorded = min(recorded_times)
    ratio = recorded / plain
    payload = {
        "benchmark": "run_specs with SweepRecorder vs without",
        "grid_specs": len(_grid()),
        "epochs": EPOCHS,
        "rounds": ROUNDS,
        "plain_best_sec": round(plain, 4),
        "recorded_best_sec": round(recorded, 4),
        "overhead_ratio": round(ratio, 4),
        "ceiling": OVERHEAD_CEILING,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_sweepobs.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"\nsweep recorder overhead: plain {plain:.3f}s, "
        f"recorded {recorded:.3f}s, {ratio:.4f}x "
        f"({len(_grid())} specs x {EPOCHS} epochs, best of {ROUNDS})"
    )
    assert ratio < OVERHEAD_CEILING, (
        f"flight recorder costs {ratio:.3f}x the bare sweep; "
        f"ceiling is {OVERHEAD_CEILING}x"
    )
