"""Table 4: application memory intensity (MPKI)."""

from conftest import once

from repro.experiments import run_figure

#: The paper's measured MPKI values.
PAPER_MPKI = {
    "graphchi": 27.4,
    "xstream": 24.8,
    "metis": 14.9,
    "leveldb": 4.7,
    "redis": 11.1,
    "nginx": 2.1,
}


def test_table4_mpki(benchmark, show):
    rows = once(benchmark, run_figure, name="table4")
    show(rows, "Table 4: application MPKI")

    measured = {row["app"]: row["mpki"] for row in rows}
    for app, paper_value in PAPER_MPKI.items():
        assert measured[app] == __import__("pytest").approx(
            paper_value, rel=0.15
        ), f"{app}: measured {measured[app]:.1f} vs paper {paper_value}"
    # Intensity ordering is preserved.
    ordering = sorted(measured, key=measured.get, reverse=True)
    assert ordering[:2] == ["graphchi", "xstream"]
    assert ordering[-1] == "nginx"
