"""Performance benchmarks of the simulator itself.

Unlike the figure benches (which run once and assert shapes), these are
real multi-round pytest-benchmark timings of the hot data structures —
the numbers that matter when someone scales the simulator up.

``test_bench_fast_path_trajectory`` additionally archives
``benchmarks/_results/BENCH_sim.json``: the reference guest structures
of the differential oracle (``tests/reference_guest.py``) vs. the
simulator's array-backed ones on the heaviest workload, cold first
step, steady-state epochs/sec, and per-phase nanoseconds from the
PhaseProfiler.  The committed file is the perf trajectory reviewers
diff; the in-test assertion is a deliberately modest floor so shared
CI runners don't flake (see docs/performance.md for the measurement
protocol behind the committed numbers).
"""

import gc
import json
import os
import pathlib
import sys
import time
from contextlib import nullcontext

from repro.core import make_policy
from repro.guestos.buddy import BuddyAllocator
from repro.hw.cache import CacheConfig, LastLevelCache, RegionAccess
from repro.mem.frames import FramePool
from repro.obs.bus import Telemetry
from repro.obs.profiler import PhaseProfiler
from repro.sim.engine import SimulationEngine
from repro.sim.runner import build_config
from repro.units import MIB
from repro.workloads.registry import make_workload

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from reference_guest import reference_guest  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "_results"

#: Best-of-N measurement protocol for the trajectory bench: the 1-core
#: CI boxes see host steal time, so each configuration runs REPS times
#: and the minimum wall/per-phase time is kept (the rep least perturbed
#: by the neighbours).  The committed BENCH_sim.json is recorded with
#: the env knobs raised (see docs/performance.md); the defaults keep
#: the CI run short.
BENCH_REPS = int(os.environ.get("REPRO_BENCH_REPS", "5"))
BENCH_WARMUP_EPOCHS = 4
BENCH_TIMED_EPOCHS = int(os.environ.get("REPRO_BENCH_EPOCHS", "150"))

#: CI floor for fast/reference end-to-end step() speedup.  The
#: committed BENCH_sim.json records the real trajectory (>= 3x end to
#: end, >= 10x on the hottest phase); this assertion only catches the
#: array-backed structures silently degrading to parity.
MIN_END_TO_END_SPEEDUP = 1.5
MIN_HOTTEST_PHASE_SPEEDUP = 2.0


def test_perf_buddy_alloc_free_cycle(benchmark):
    buddy = BuddyAllocator(0, 262144)  # 1 GiB span

    def cycle():
        ranges = buddy.allocate_pages(5000)
        for frame_range in ranges:
            buddy.free_span(frame_range.start, frame_range.count)

    benchmark(cycle)
    buddy.check_invariants()


def test_perf_frame_pool_scattered(benchmark):
    pool = FramePool(0, 262144)

    def cycle():
        ranges = pool.allocate_scattered(10000)
        for frame_range in ranges:
            pool.free(frame_range)

    benchmark(cycle)
    pool.check_invariants()


def test_perf_cache_apportion(benchmark):
    cache = LastLevelCache(CacheConfig(capacity_bytes=16 * MIB))
    regions = [
        RegionAccess(f"r{i}", (i + 1) * MIB, 1000.0 * (i + 1), 300.0, 0.7)
        for i in range(64)
    ]
    results = benchmark(cache.apportion, regions)
    assert len(results) == 64


def test_perf_engine_epoch_throughput(benchmark):
    """Whole-engine epochs per second on the heaviest workload."""
    engine = SimulationEngine(
        build_config(fast_ratio=0.25),
        make_workload("graphchi"),
        make_policy("hetero-lru"),
    )
    stream = make_workload("graphchi").epochs(10**9)
    # Warm up allocations so steady-state epochs are measured.
    for _ in range(4):
        engine.step(next(stream))

    def one_epoch():
        engine.step(next(stream))

    benchmark(one_epoch)


def _one_rep():
    """One timed repetition: (cold first-step sec, steady wall sec,
    per-phase seconds over the timed epochs)."""
    profiler = PhaseProfiler()
    engine = SimulationEngine(
        build_config(fast_ratio=0.25),
        make_workload("graphchi"),
        make_policy("hetero-lru"),
        telemetry=Telemetry(profiler=profiler),
    )
    stream = iter(make_workload("graphchi").epochs(10**9))
    start = time.perf_counter()
    engine.step(next(stream))
    cold_sec = time.perf_counter() - start
    for _ in range(BENCH_WARMUP_EPOCHS - 1):
        engine.step(next(stream))
    profiler.seconds.clear()
    profiler.calls.clear()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(BENCH_TIMED_EPOCHS):
            engine.step(next(stream))
        wall_sec = time.perf_counter() - start
    finally:
        gc.enable()
    return cold_sec, wall_sec, dict(profiler.seconds)


def _best_of(reference):
    """Minimum cold/wall/per-phase times over BENCH_REPS repetitions;
    ``reference`` builds and steps the guest on the oracle's
    structures."""
    colds, walls, phase_runs = [], [], []
    for _ in range(BENCH_REPS):
        with reference_guest() if reference else nullcontext():
            cold_sec, wall_sec, phases = _one_rep()
        colds.append(cold_sec)
        walls.append(wall_sec)
        phase_runs.append(phases)
    best_phases = {
        phase: min(run[phase] for run in phase_runs)
        for phase in phase_runs[0]
    }
    return min(colds), min(walls), best_phases


def _phase_ns(phases):
    """Per-epoch nanoseconds per phase, the unit BENCH_sim.json records."""
    return {
        phase: round(seconds / BENCH_TIMED_EPOCHS * 1e9)
        for phase, seconds in sorted(phases.items())
    }


def test_bench_fast_path_trajectory():
    ref_cold, ref_wall, ref_phases = _best_of(reference=True)
    fast_cold, fast_wall, fast_phases = _best_of(reference=False)

    assert set(ref_phases) == set(fast_phases)
    assert "demand" in ref_phases, sorted(ref_phases)

    hottest = max(ref_phases, key=ref_phases.get)
    hottest_speedup = ref_phases[hottest] / fast_phases[hottest]
    end_to_end_speedup = ref_wall / fast_wall

    payload = {
        "benchmark": (
            "SimulationEngine.step() reference oracle "
            "(tests/reference_guest.py) vs array-backed guest, steady state"
        ),
        "workload": "graphchi",
        "policy": "hetero-lru",
        "timed_epochs": BENCH_TIMED_EPOCHS,
        "reps_best_of": BENCH_REPS,
        "reference": {
            "cold_first_step_sec": round(ref_cold, 4),
            "epochs_per_sec": round(BENCH_TIMED_EPOCHS / ref_wall, 1),
            "phase_ns_per_epoch": _phase_ns(ref_phases),
        },
        "fast": {
            "cold_first_step_sec": round(fast_cold, 4),
            "epochs_per_sec": round(BENCH_TIMED_EPOCHS / fast_wall, 1),
            "phase_ns_per_epoch": _phase_ns(fast_phases),
        },
        "hottest_phase": hottest,
        "hottest_phase_speedup": round(hottest_speedup, 2),
        "end_to_end_speedup": round(end_to_end_speedup, 2),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_sim.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"\nreference -> array-backed: "
        f"{payload['reference']['epochs_per_sec']} -> "
        f"{payload['fast']['epochs_per_sec']} epochs/sec "
        f"({end_to_end_speedup:.2f}x end to end, {hottest_speedup:.2f}x "
        f"on hottest phase {hottest!r})"
    )
    assert end_to_end_speedup >= MIN_END_TO_END_SPEEDUP, payload
    assert hottest_speedup >= MIN_HOTTEST_PHASE_SPEEDUP, payload
