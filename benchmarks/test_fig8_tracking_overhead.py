"""Figure 8: VMM-exclusive hotness-tracking and migration overhead."""

from conftest import once

from repro.experiments import run_figure


def test_fig8_tracking_overhead(benchmark, show):
    rows = once(benchmark, run_figure, name="fig8", epochs=120)
    show(rows, "Figure 8: VMM-exclusive tracking+migration overhead")

    by_interval = {row["interval_ms"]: row for row in rows}
    fastest, slowest = by_interval[100], by_interval[500]

    # Overhead shrinks with longer intervals (paper: ~60% at 100 ms down
    # to ~32% at 500 ms).
    assert fastest["total_overhead_pct"] > slowest["total_overhead_pct"] * 1.5
    assert fastest["total_overhead_pct"] > 30.0
    assert slowest["total_overhead_pct"] > 5.0
    # Pages migrated shrink with the interval (paper: 3.1M -> 1.3M).
    assert (
        fastest["pages_migrated_millions"]
        > slowest["pages_migrated_millions"] * 1.5
    )
    # Observation 4: at the fastest interval, tracking costs at least as
    # much as the migrations themselves.
    assert (
        fastest["tracking_overhead_pct"]
        >= fastest["migration_overhead_pct"] * 0.8
    )
