"""Workload registry: name -> factory."""

from __future__ import annotations

from typing import Callable

from repro.errors import WorkloadError
from repro.workloads.base import Workload
from repro.workloads.graphchi import make_graphchi
from repro.workloads.leveldb import make_leveldb
from repro.workloads.metis import make_metis
from repro.workloads.nginx import make_nginx
from repro.workloads.redis import make_redis
from repro.workloads.xstream import make_xstream

_REGISTRY: dict[str, Callable[[], Workload]] = {
    "graphchi": make_graphchi,
    "xstream": make_xstream,
    "metis": make_metis,
    "leveldb": make_leveldb,
    "redis": make_redis,
    "nginx": make_nginx,
}

#: ``make_*`` workload factories deliberately NOT in the sweep registry,
#: with the reason.  Every other factory under ``workloads/`` must be
#: registered above (``tests/test_workloads.py``,
#: ``test_every_factory_is_registered_or_declared_unregistered``).
UNREGISTERED_FACTORIES = {
    "make_synthetic": (
        "parameterized generator for ad-hoc experiments, not a named "
        "Table 2 application"
    ),
    "make_memlat": (
        "latency-calibration microbenchmark (Figure 5 methodology), "
        "driven directly by its experiment module"
    ),
    "make_stream": (
        "bandwidth-calibration microbenchmark, driven directly by its "
        "experiment module"
    ),
    "make_graphchi_twitter": (
        "Figure 13 scaled variant, instantiated by the fig13 driver "
        "with its own footprint"
    ),
    "make_metis_big": (
        "Figure 13 scaled variant, instantiated by the fig13 driver "
        "with its own footprint"
    ),
    "make_lsm_store": (
        "extension workload; opt-in at runtime via register_workload"
    ),
    "make_tiered_analytics": (
        "extension workload; opt-in at runtime via register_workload"
    ),
}

#: The apps Figures 9-12 evaluate (NGinx excluded: <10% heterogeneity
#: impact, Section 5.3).
PLACEMENT_APPS = ("graphchi", "xstream", "metis", "leveldb", "redis")

#: All Table 2 applications.
ALL_APPS = tuple(_REGISTRY)


def make_workload(name: str) -> Workload:
    """Instantiate a registered workload by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory()


def available_workloads() -> list[str]:
    return sorted(_REGISTRY)


def register_workload(name: str, factory: Callable[[], Workload]) -> None:
    """Register a custom workload factory."""
    if name in _REGISTRY:
        raise WorkloadError(f"workload {name!r} already registered")
    _REGISTRY[name] = factory
