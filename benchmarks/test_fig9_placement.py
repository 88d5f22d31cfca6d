"""Figure 9: impact of guest-OS heterogeneity awareness."""

from conftest import once

from repro.experiments import run_figure

IO_INTENSIVE = ("xstream", "leveldb", "redis")
EPOCHS = 120


def test_fig9_placement(benchmark, show):
    rows = once(benchmark, run_figure, name="fig9", epochs=EPOCHS)
    show(rows, "Figure 9: gains (%) over SlowMem-only")

    by_key = {(row["app"], row["ratio"]): row for row in rows}
    for (app, ratio), row in by_key.items():
        # The mechanism ladder is monotone (small tolerance for noise).
        assert row["heap-io-slab-od"] >= row["heap-od"] - 3, (app, ratio)
        assert row["hetero-lru"] >= row["heap-io-slab-od"] - 3, (app, ratio)
        # Nothing beats unlimited FastMem.
        assert row["hetero-lru"] <= row["fastmem-only"] + 5, (app, ratio)
        # Existing NUMA policies trail the full HeteroOS-LRU stack.
        assert row["numa-preferred"] <= row["hetero-lru"] + 3, (app, ratio)

    # Demand-based I/O+slab prioritization is what unlocks the
    # storage/network-intensive applications (Section 5.3).
    for app in IO_INTENSIVE:
        row = by_key[(app, "1/4")]
        assert row["heap-io-slab-od"] > row["heap-od"] + 30, app

    # Heap-only prioritization already helps the heap-churny GraphChi.
    assert by_key[("graphchi", "1/2")]["heap-od"] > 40
    # More FastMem never hurts HeteroOS-LRU.
    for app in ("graphchi", "metis"):
        assert (
            by_key[(app, "1/2")]["hetero-lru"]
            >= by_key[(app, "1/8")]["hetero-lru"] - 3
        ), app
