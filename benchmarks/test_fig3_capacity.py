"""Figure 3: FastMem capacity impact (L:5,B:9)."""

from conftest import once

from repro.experiments import run_figure

RATIO_COLUMNS = ["1/2", "1/4", "1/8", "1/16", "1/32"]


def test_fig3_capacity(benchmark, show):
    rows = once(benchmark, run_figure, name="fig3", epochs=60)
    show(rows, "Figure 3: slowdown vs FastMem:SlowMem capacity ratio")

    by_app = {row["app"]: row for row in rows}
    for app, row in by_app.items():
        values = [row[c] for c in RATIO_COLUMNS]
        # Less FastMem never helps.
        assert all(b >= a - 0.05 for a, b in zip(values, values[1:])), app

    # Observation 3: capacity-churny GraphChi stays under ~2-3x even at
    # 1/2-1/4 ratios; I/O apps barely notice until extreme ratios.
    assert by_app["graphchi"]["1/2"] < 3.0
    assert by_app["leveldb"]["1/16"] < 1.3
    assert by_app["nginx"]["1/32"] < 1.2
    # Working sets that outgrow FastMem keep degrading.
    assert by_app["graphchi"]["1/32"] > by_app["graphchi"]["1/2"]
    assert by_app["metis"]["1/32"] > by_app["metis"]["1/2"]
