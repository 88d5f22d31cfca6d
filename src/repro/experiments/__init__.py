"""The paper's tables and figures, by name.

Most are declared spec grids: a dataclass of the table's parameters
whose ``grid()`` lists the ``ExperimentSpec``\\ s it needs and whose
``rows(results)`` is a pure view of their results.  Tables
1/3/5/6 are static and Figures 6/7/13 build their own engines; they
stay plain drivers.  :func:`run_figures` runs the union of the
requested grids through one ``run_specs`` call, so a spec that several
tables share (Figures 9–12) is simulated once.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.errors import ConfigurationError
from repro.experiments import report
from repro.experiments.analysis import (
    allocation_breakdown,
    summarize,
    time_breakdown,
)
from repro.experiments.coordinated import Fig11, Fig12
from repro.experiments.microbench import run_fig6, run_fig7
from repro.experiments.page_mix import Fig4
from repro.experiments.placement import Fig9, Fig10
from repro.experiments.sensitivity import Fig1, Fig2, Fig3, Table4
from repro.experiments.sharing import run_fig13
from repro.experiments.sweep import Table2, sweep
from repro.experiments.tables import (
    run_table1,
    run_table3,
    run_table5,
    run_table6,
)
from repro.experiments.tracking_overhead import Fig8
from repro.sim.parallel import default_cache, results_or_raise, run_specs

#: The spec-grid tables: name -> grid class (or a partial of one).
GRIDS: "dict[str, Callable]" = {
    "table2": Table2, "table4": Table4, "fig1": Fig1, "fig2": Fig2,
    "fig3": Fig3, "fig4": Fig4, "fig8": Fig8, "fig9": Fig9,
    "fig10": Fig10, "fig11": Fig11, "fig12": Fig12,
}

#: The rest: name -> driver.
DRIVERS: "dict[str, Callable[..., list[dict]]]" = {
    "table1": run_table1, "table3": run_table3, "table5": run_table5,
    "table6": run_table6, "fig6": run_fig6, "fig7": run_fig7,
    "fig13": run_fig13,
}

#: What ``repro figure all`` prints, in order.
FIGURES: tuple[str, ...] = (
    "table1", "table3", "table4", "table5", "table6",
    "fig1", "fig2", "fig3", "fig4", "fig6", "fig7", "fig8",
    "fig9", "fig10", "fig11", "fig12", "fig13",
)


def run_figures(names: Iterable[str], **params) -> "dict[str, list[dict]]":
    """Each named table's rows, with ``params`` passed to every one.

    The grids run as one ``run_specs`` call with ``max_workers=None``
    (a worker per CPU this process may use; inline on one) and
    ``REPRO_SWEEP_CACHE_DIR``'s cache when it is set.  A failed spec
    raises :class:`~repro.errors.SweepError`.
    """
    names = list(names)
    unknown = [n for n in names if n not in GRIDS and n not in DRIVERS]
    if unknown:
        raise ConfigurationError(f"unknown figure(s): {unknown}")
    tables = {n: GRIDS[n](**params) for n in names if n in GRIDS}
    specs = [spec for table in tables.values() for spec in table.grid()]
    results = {}
    if specs:
        outcomes = run_specs(specs, max_workers=None, cache=default_cache())
        results = dict(zip(specs, results_or_raise(outcomes)))
    return {
        n: tables[n].rows(results) if n in tables else DRIVERS[n](**params)
        for n in names
    }


def run_figure(name: str, **params) -> "list[dict]":
    """One table's rows: ``run_figure("fig9", epochs=120)``."""
    return run_figures([name], **params)[name]


__all__ = [
    "report",
    "sweep",
    "run_figure",
    "run_figures",
    "FIGURES",
    "GRIDS",
    "DRIVERS",
    "run_table1",
    "run_table3",
    "run_table5",
    "run_table6",
    "run_fig6",
    "run_fig7",
    "run_fig13",
    "time_breakdown",
    "allocation_breakdown",
    "summarize",
]
