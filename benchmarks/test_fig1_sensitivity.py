"""Figure 1: bandwidth and latency sensitivity (16 MB LLC platform)."""

from conftest import once

from repro.experiments import run_figure

MEMORY_INTENSIVE = ("graphchi", "xstream", "metis")
IO_DILUTED = ("leveldb", "nginx")


def test_fig1_sensitivity(benchmark, show):
    rows = once(benchmark, run_figure, name="fig1", epochs=60)
    show(rows, "Figure 1: slowdown vs FastMem-only across throttle sweep")

    by_app = {row["app"]: row for row in rows}
    sweep = ["L:2,B:2", "L:5,B:5", "L:5,B:7", "L:5,B:9", "L:5,B:12"]
    for app, row in by_app.items():
        # Monotone: harsher throttling never speeds anything up.
        values = [row[c] for c in sweep]
        assert all(b >= a - 0.02 for a, b in zip(values, values[1:])), app
        assert values[0] >= 0.99, app

    # Memory-intensive graph apps suffer the most; I/O-diluted the least.
    worst = "L:5,B:12"
    for heavy in MEMORY_INTENSIVE:
        for light in IO_DILUTED:
            assert by_app[heavy][worst] > by_app[light][worst]
    # GraphChi/X-Stream see multi-x slowdowns; NGinx under ~1.4x.
    assert by_app["graphchi"][worst] > 3.0
    assert by_app["xstream"][worst] > 3.0
    assert by_app["nginx"][worst] < 1.5

    # Observation 2: remote-NUMA misplacement costs a fraction of
    # heterogeneous-memory misplacement (< ~30-40% vs multi-x).
    for app, row in by_app.items():
        assert row["remote-numa"] < 1.45, app
        if app in MEMORY_INTENSIVE:
            assert row[worst] > 2.0 * row["remote-numa"], app
