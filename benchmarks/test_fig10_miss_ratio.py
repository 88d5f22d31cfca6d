"""Figure 10: FastMem allocation miss ratio at the 1/8 capacity ratio."""

from conftest import once

from repro.experiments import run_figure

EPOCHS = 120


def test_fig10_miss_ratio(benchmark, show):
    rows = once(benchmark, run_figure, name="fig10", epochs=EPOCHS)
    show(rows, "Figure 10: FastMem allocation miss ratio at 1/8")

    by_app = {row["app"]: row for row in rows}
    for app, row in by_app.items():
        for policy in (
            "heap-od", "heap-io-slab-od", "hetero-lru", "numa-preferred"
        ):
            assert 0.0 <= row[policy] <= 1.0, (app, policy)
        # HeteroOS-LRU's eager eviction recycles FastMem, so far more
        # allocation requests are served from it.
        assert row["hetero-lru"] <= row["heap-io-slab-od"] + 0.02, app
        # The stock NUMA-preferred policy misses at least as often as any
        # HeteroOS mechanism.
        assert row["numa-preferred"] >= row["hetero-lru"] - 0.02, app

    # For the big-footprint apps, NUMA-preferred misses almost always
    # (paper: 0.72-1.00 across the suite).
    for app in ("graphchi", "xstream", "metis", "redis"):
        assert by_app[app]["numa-preferred"] > 0.6, app
        assert by_app[app]["hetero-lru"] < by_app[app]["numa-preferred"], app
