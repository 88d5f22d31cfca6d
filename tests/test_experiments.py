"""Experiment drivers (light smoke runs) and the report formatter."""

import os

import pytest

from repro.experiments import (
    GRIDS,
    run_fig6,
    run_fig7,
    run_figure,
    run_figures,
    run_table1,
    run_table3,
    run_table5,
    run_table6,
)
from repro.errors import ConfigurationError
from repro.experiments.report import format_table
from repro.hw.throttle import ThrottleConfig
from repro.sim import parallel


# ----------------------------------------------------------------------
# Report formatter
# ----------------------------------------------------------------------

def test_format_table_alignment_and_floats():
    rows = [
        {"name": "a", "value": 1.23456},
        {"name": "bbb", "value": 12.0},
    ]
    text = format_table(rows, title="T", float_digits=2)
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "1.23" in text and "12.00" in text
    # All rows padded to equal width.
    assert len(set(len(line) for line in lines[1:])) == 1


def test_format_table_empty_and_column_subset():
    assert "(empty)" in format_table([], title="x")
    rows = [{"a": 1, "b": 2}]
    text = format_table(rows, columns=["b"])
    assert "a" not in text.splitlines()[0]


# ----------------------------------------------------------------------
# Static tables
# ----------------------------------------------------------------------

def test_static_tables_have_expected_shapes():
    assert len(run_table1()) == 3
    assert len(run_table3()) == 4
    assert len(run_table5()) == 4
    assert len(run_table6()) == 3


# ----------------------------------------------------------------------
# Dynamic figures — tiny smoke runs (shapes asserted by the benchmarks)
# ----------------------------------------------------------------------

def test_table4_smoke():
    rows = run_figure("table4", apps=("nginx",), epochs=5)
    assert rows[0]["app"] == "nginx"
    assert rows[0]["mpki"] > 0


def test_fig1_smoke():
    rows = run_figure(
        "fig1", apps=("nginx",), epochs=5,
        sweep=(ThrottleConfig(5, 9),), include_remote_numa=True,
    )
    row = rows[0]
    assert row["L:5,B:9"] >= 1.0
    assert row["remote-numa"] >= 1.0


def test_fig3_smoke():
    rows = run_figure("fig3", apps=("nginx",), ratios=(0.5,), epochs=5)
    assert rows[0]["1/2"] >= 1.0


def test_fig4_smoke():
    rows = run_figure("fig4", apps=("leveldb",), epochs=10)
    assert rows[0]["total_millions"] > 0


def test_fig6_fig7_smoke():
    lat = run_fig6(wss_gib=(0.25,), policies=("slowmem-only",), epochs=4)
    assert lat[0]["slowmem-only"] > 0
    bw = run_fig7(wss_gib=(0.5,), policies=("slowmem-only",), epochs=4)
    assert bw[0]["slowmem-only"] > 0


def test_fig9_smoke():
    rows = run_figure(
        "fig9", apps=("nginx",), ratios=(0.25,), policies=("heap-od",),
        epochs=5,
    )
    assert "heap-od" in rows[0]
    assert "fastmem-only" in rows[0]


def test_fig11_smoke():
    rows = run_figure(
        "fig11", apps=("nginx",), ratios=(0.25,), policies=("hetero-lru",),
        epochs=5,
    )
    assert "hetero-lru" in rows[0]


def test_unknown_figure_is_rejected():
    with pytest.raises(ConfigurationError, match="fig99"):
        run_figure("fig99")


@pytest.fixture
def simulated(monkeypatch):
    """Every spec actually simulated.  The process may use one CPU, so
    ``run_specs(max_workers=None)`` runs inline, where the count sees
    each run (a forked worker's runs would not reach it)."""
    calls = []
    run_spec = parallel.run_spec

    def counting_run_spec(spec, *args, **kwargs):
        calls.append(spec)
        return run_spec(spec, *args, **kwargs)

    monkeypatch.setattr(parallel, "run_spec", counting_run_spec)
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: {0}, raising=False
    )
    return calls


def test_fig11_fig12_share_runs_with_fig9(
    simulated, tmp_path, monkeypatch
):
    monkeypatch.setenv(parallel.CACHE_DIR_ENV, str(tmp_path / "cache"))
    apps = ("nginx", "leveldb")
    run_figure("fig9", apps=apps, epochs=5)
    simulated.clear()
    rows = run_figure("fig11", apps=apps, epochs=5)
    # Baselines and HeteroOS-LRU at 1/4 and 1/8 are Figure 9's runs.
    assert sorted((s.policy, s.fast_ratio) for s in simulated) == sorted(
        (policy, ratio)
        for _ in apps
        for policy in ("vmm-exclusive", "hetero-coordinated")
        for ratio in (1 / 4, 1 / 8)
    )
    simulated.clear()
    run_figure("fig12", apps=apps, epochs=5)
    assert simulated == []
    # No run outlives a call in memory: this one reads all back from disk.
    assert run_figure("fig11", apps=apps, epochs=5) == rows
    assert simulated == []
    # Without a cache, nothing is kept between calls.
    monkeypatch.delenv(parallel.CACHE_DIR_ENV)
    run_figure("fig12", apps=apps, epochs=5)
    assert len(simulated) == 4 * len(apps)


def test_run_figures_simulates_each_shared_spec_once(simulated, monkeypatch):
    monkeypatch.delenv(parallel.CACHE_DIR_ENV, raising=False)
    apps = ("nginx", "leveldb")
    names = ("fig9", "fig10", "fig11", "fig12")
    tables = run_figures(names, apps=apps, epochs=5)
    requested = [
        spec
        for name in names
        for spec in GRIDS[name](apps=apps, epochs=5).grid()
    ]
    assert len(simulated) == len(set(simulated)) < len(requested)
    assert set(simulated) == set(requested)
    # A table's rows do not depend on what ran beside it.
    assert tables["fig12"] == run_figure("fig12", apps=apps, epochs=5)
