"""Figure 4: application memory page distribution.

"Figure 4 shows the memory page distribution and the total memory pages
used" — cumulative pages allocated per kernel page class over a run,
normalised to fractions, plus the total in millions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.mem.extent import PageType
from repro.sim.parallel import ExperimentSpec, make_spec
from repro.sim.stats import RunResult

#: Figure 4's application order (left to right).
FIG4_APPS: tuple[str, ...] = ("redis", "xstream", "graphchi", "metis", "leveldb")

#: Figure 4's legend order.
FIG4_CLASSES: tuple[tuple[str, tuple[PageType, ...]], ...] = (
    ("heap/anon", (PageType.HEAP,)),
    ("io-cache/mapped", (PageType.PAGE_CACHE, PageType.BUFFER_CACHE)),
    ("nw-buff", (PageType.NETWORK_BUFFER,)),
    ("slab", (PageType.SLAB,)),
    ("pagetable", (PageType.PAGE_TABLE,)),
)


@dataclass
class Fig4:
    """Page-type fractions + total pages (millions) per application."""

    apps: tuple[str, ...] = FIG4_APPS
    epochs: int | None = None

    def grid(self) -> list[ExperimentSpec]:
        return [
            make_spec(app, "heap-io-slab-od", epochs=self.epochs)
            for app in self.apps
        ]

    def rows(self, results: Mapping[ExperimentSpec, RunResult]) -> list[dict]:
        rows = []
        for spec in self.grid():
            result = results[spec]
            total = result.total_pages_allocated
            row: dict = {"app": spec.app}
            for label, page_types in FIG4_CLASSES:
                pages = sum(
                    result.page_distribution.get(pt, 0) for pt in page_types
                )
                row[label] = pages / total if total else 0.0
            row["total_millions"] = total / 1e6
            rows.append(row)
        return rows
