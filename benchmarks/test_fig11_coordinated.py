"""Figure 11: impact of guest-VMM coordinated management."""

from conftest import once

from repro.experiments import run_figure

EPOCHS = 200


def test_fig11_coordinated(benchmark, show):
    rows = once(benchmark, run_figure, name="fig11", epochs=EPOCHS)
    show(rows, "Figure 11: gains (%) over SlowMem-only")

    by_key = {(row["app"], row["ratio"]): row for row in rows}
    for (app, ratio), row in by_key.items():
        # Coordination beats VMM-exclusive everywhere — the paper's
        # headline "up to 2x over the state-of-the-art" claim.
        assert row["hetero-coordinated"] > row["vmm-exclusive"], (app, ratio)
        # Coordination never costs more than a few points vs. guest-only
        # HeteroOS-LRU, and wins when capacity is scarce.
        assert (
            row["hetero-coordinated"] >= row["hetero-lru"] - 8
        ), (app, ratio)
        assert row["hetero-coordinated"] <= row["fastmem-only"] + 5

    # Where placement alone cannot track the drifting hot set (GraphChi
    # at 1/8), coordinated migration pulls ahead of HeteroOS-LRU.
    assert (
        by_key[("graphchi", "1/8")]["hetero-coordinated"]
        > by_key[("graphchi", "1/8")]["hetero-lru"] + 5
    )
    # LevelDB's working set fits FastMem: tracking adds little (paper:
    # "does not add much to the HeteroOS-LRU's gains").
    leveldb = by_key[("leveldb", "1/4")]
    assert abs(leveldb["hetero-coordinated"] - leveldb["hetero-lru"]) < 10
    # VMM-exclusive stays positive but far behind (>= 2x gap for the
    # memory-intensive apps).
    for app in ("graphchi", "xstream", "redis"):
        row = by_key[(app, "1/4")]
        assert row["vmm-exclusive"] > -5, app
        assert row["hetero-coordinated"] > 2 * max(row["vmm-exclusive"], 1), app
