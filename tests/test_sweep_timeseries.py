"""Sweep utility, Table 2 driver, per-epoch timeline."""

import dataclasses

import pytest

from repro.cli import main
from repro.core import make_policy
from repro.experiments import run_figure
from repro.experiments.sweep import TABLE2_DESCRIPTIONS, sweep
from repro.faults import FaultPlan, FaultSpec
from repro.hw.throttle import ThrottleConfig
from repro.obs.bus import Telemetry
from repro.sim.engine import SimulationEngine
from repro.sim.runner import build_config
from repro.workloads.registry import ALL_APPS, make_workload


def test_sweep_grid_shape():
    rows = sweep(
        apps=("nginx",),
        policies=("heap-od", "hetero-lru"),
        ratios=(0.25, 0.125),
        throttles=(ThrottleConfig(2, 2), ThrottleConfig(5, 9)),
        epochs=4,
    )
    assert len(rows) == 1 * 2 * 2 * 2
    for row in rows:
        assert row["runtime_sec"] > 0
        assert "gain_pct" in row


def test_sweep_baseline_gains_are_zero_for_baseline_policy():
    rows = sweep(
        apps=("nginx",), policies=("slowmem-only",), epochs=4
    )
    assert rows[0]["gain_pct"] == pytest.approx(0.0)


def test_table2_covers_all_apps():
    assert set(TABLE2_DESCRIPTIONS) == set(ALL_APPS)
    rows = run_figure("table2", epochs=4)
    assert len(rows) == len(ALL_APPS)
    for row in rows:
        assert row["measured"] > 0
        assert row["perf_metric"]


def test_cli_sweep_command(capsys):
    code = main(
        ["sweep", "--apps", "nginx", "--policies", "heap-od",
         "--ratios", "0.25", "--epochs", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "gain_pct" in out


# ----------------------------------------------------------------------
# Per-epoch timeline (telemetry bus)
# ----------------------------------------------------------------------

def _fast_stall_share(engine, sample):
    """FastMem's share of one epoch's charged memory stall."""
    fast = {
        engine.kernel.nodes[node_id].device.name
        for node_id in engine.kernel.fast_node_ids
    }
    stalls = sample.stall_ns_by_device
    total = sum(stalls.values())
    if not total:
        return 0.0
    return sum(stalls[name] for name in stalls if name in fast) / total


def test_timeseries_records_each_epoch():
    engine = SimulationEngine(
        build_config(fast_ratio=0.25), make_workload("nginx"),
        make_policy("heap-od"), telemetry=Telemetry(),
    )
    result = engine.run(5)
    timeline = result.timeline
    assert [sample.epoch for sample in timeline] == list(range(5))
    total = sum(sample.runtime_ns for sample in timeline)
    assert total == pytest.approx(result.stats.runtime_ns)
    for sample in timeline:
        assert 0.0 <= _fast_stall_share(engine, sample) <= 1.0
        assert sample.fast_used_pages >= 0


def test_timeseries_shows_phase_shift():
    """The share-shift workload feature is visible in the timeline."""
    from repro.mem.extent import PageType
    from repro.workloads.base import RegionSpec, StatisticalWorkload

    workload = StatisticalWorkload(
        name="shifty",
        mlp=4.0,
        instructions_per_epoch=1e6,
        accesses_per_epoch=200_000.0,
        resident=[
            RegionSpec("a", PageType.HEAP, 3000, 0.8, 9.0),
            RegionSpec("b", PageType.HEAP, 3000, 0.8, 1.0),
        ],
        share_shifts=[(5, {"a": 1.0, "b": 9.0})],
    )
    config = build_config(fast_ratio=0.02, slow_gib=1.0)
    engine = SimulationEngine(
        config, workload, make_policy("heap-od"), telemetry=Telemetry()
    )
    timeline = engine.run(10).timeline
    before = _fast_stall_share(engine, timeline[3])
    after = _fast_stall_share(engine, timeline[8])
    # The fast node held region 'a'; after the shift its stall share
    # collapses because the accesses moved to 'b' on SlowMem.
    assert after < before


def test_fast_stall_share_counts_the_derated_stall():
    """Under a device derate every device's stall is charged against its
    throttled shadow, and the timeline records the charged stall: with
    all of redis's accesses on FastMem, FastMem carries all of it."""
    plan = FaultPlan(
        seed=1,
        faults=(
            FaultSpec(
                "device-derate", latency_factor=3.0, bandwidth_factor=3.0
            ),
        ),
    )
    config = dataclasses.replace(build_config(fast_ratio=0.25), fault_plan=plan)
    engine = SimulationEngine(
        config, make_workload("redis"), make_policy("hetero-lru"),
        telemetry=Telemetry(),
    )
    result = engine.run(6)
    assert result.fault_counts == {"device-derate": 6}
    shares = [_fast_stall_share(engine, sample) for sample in result.timeline]
    assert shares == [1.0] * 6
