"""Shared benchmark helpers.

Every benchmark prints its reproduced table/figure (visible with ``-s``)
and archives it under ``benchmarks/_results/`` so EXPERIMENTS.md can be
assembled from actual runs.

Each spec-grid table runs through :func:`repro.experiments.run_figure`:
one :func:`~repro.sim.parallel.run_specs` call over the table's grid,
on every CPU the session may use.  No run is kept in memory between
benchmarks, so each one's timing starts cold unless
``REPRO_SWEEP_CACHE_DIR`` is set; then every distinct (app, policy,
platform) point is simulated once and read back from disk by every
later table that needs it (Figure 10 reuses Figure 9's runs, ...), in
this session and the next (the CI sweep-cache does this — source
changes self-invalidate via the cache key's source fingerprint).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.report import format_table

RESULTS_DIR = pathlib.Path(__file__).parent / "_results"


@pytest.fixture
def show():
    """Print and archive an experiment's rows."""

    def _show(rows, title: str, float_digits: int = 2) -> None:
        rendered = format_table(rows, title=title, float_digits=float_digits)
        print()
        print(rendered)
        RESULTS_DIR.mkdir(exist_ok=True)
        slug = title.split(":")[0].strip().lower().replace(" ", "_")
        (RESULTS_DIR / f"{slug}.txt").write_text(rendered + "\n")

    return _show


def once(benchmark, func, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing.

    Experiment drivers are deterministic whole-figure reproductions;
    repeating them for statistical timing would multiply minutes of work
    for no extra information.
    """
    return benchmark.pedantic(func, kwargs=kwargs, rounds=1, iterations=1)
