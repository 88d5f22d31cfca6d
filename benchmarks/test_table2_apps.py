"""Table 2: the datacenter applications and their performance metrics."""

from conftest import once

from repro.experiments import run_figure


def test_table2_apps(benchmark, show):
    rows = once(benchmark, run_figure, name="table2")
    show(rows, "Table 2: datacenter applications")

    by_app = {row["app"]: row for row in rows}
    assert len(rows) == 6
    # Metric kinds match the paper's table.
    assert by_app["graphchi"]["perf_metric"].startswith("time")
    assert by_app["xstream"]["perf_metric"].startswith("time")
    assert by_app["metis"]["perf_metric"].startswith("time")
    assert "MB/s" in by_app["leveldb"]["perf_metric"]
    assert "requests" in by_app["redis"]["perf_metric"]
    assert "requests" in by_app["nginx"]["perf_metric"]
    for row in rows:
        assert row["measured"] > 0
    # Time-metric apps report seconds in a plausible band (not zero, not
    # hours): the simulated runs are tens of seconds.
    for app in ("graphchi", "xstream", "metis"):
        assert 1.0 < by_app[app]["measured"] < 300.0
