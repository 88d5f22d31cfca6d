"""Figure 4: application memory page distribution."""

from conftest import once

from repro.experiments import run_figure


def test_fig4_page_mix(benchmark, show):
    rows = once(benchmark, run_figure, name="fig4", epochs=100)
    show(rows, "Figure 4: page-type distribution and totals")

    by_app = {row["app"]: row for row in rows}
    # Redis is the network-buffer-intensive app of the suite.
    assert by_app["redis"]["nw-buff"] > 0.2
    assert by_app["redis"]["nw-buff"] == max(
        row["nw-buff"] for row in rows
    )
    # X-Stream and LevelDB are I/O-cache dominated.
    assert by_app["xstream"]["io-cache/mapped"] > 0.5
    assert by_app["leveldb"]["io-cache/mapped"] > 0.5
    # Metis is overwhelmingly anonymous heap.
    assert by_app["metis"]["heap/anon"] > 0.8
    # Totals: GraphChi allocates the most pages, LevelDB the fewest
    # (paper: 5.04M vs 0.53M).
    totals = {row["app"]: row["total_millions"] for row in rows}
    assert max(totals, key=totals.get) == "graphchi"
    assert min(totals, key=totals.get) == "leveldb"
    # Page-table pages are a negligible fraction everywhere (Section 3.2).
    for row in rows:
        assert row["pagetable"] < 0.01
    # Fractions are a proper distribution.
    for row in rows:
        total_fraction = sum(
            row[key]
            for key in (
                "heap/anon", "io-cache/mapped", "nw-buff", "slab", "pagetable"
            )
        )
        assert abs(total_fraction - 1.0) < 1e-6
