"""Figure 12: gains exclusively from page migrations."""

from conftest import once

from repro.experiments import run_figure

EPOCHS = 200


def test_fig12_migration_gains(benchmark, show):
    rows = once(benchmark, run_figure, name="fig12", epochs=EPOCHS)
    show(rows, "Figure 12: migration-only gains vs Heap-IO-Slab-OD")

    by_app = {row["app"]: row for row in rows}
    for app, row in by_app.items():
        # VMM-exclusive's blind migrations *lose* to pure placement
        # (paper: -30% GraphChi, -20% Redis, -10% LevelDB).
        assert row["vmm-exclusive_gain_pct"] < 0, app
        # HeteroOS's guided migrations never lose to placement.
        assert row["hetero-lru_gain_pct"] >= -2, app
        assert row["hetero-coordinated_gain_pct"] >= -2, app
        # Coordinated >= LRU-only (it adds hotness-tracked promotion).
        assert (
            row["hetero-coordinated_gain_pct"]
            >= row["hetero-lru_gain_pct"] - 3
        ), app

    # GraphChi: coordinated moves more pages than LRU-only demotion and
    # converts them into gains (paper: 0.33M vs 0.10M pages).
    graphchi = by_app["graphchi"]
    assert (
        graphchi["hetero-coordinated_migrated_millions"]
        >= graphchi["hetero-lru_migrated_millions"]
    )
    assert graphchi["hetero-coordinated_gain_pct"] > 0
    # VMM-exclusive migrates the most pages for the least benefit.
    assert (
        graphchi["vmm-exclusive_migrated_millions"]
        > graphchi["hetero-lru_migrated_millions"]
    )
