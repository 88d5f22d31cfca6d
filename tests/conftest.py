"""Shared test fixtures and builders, and the Hypothesis profiles."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.guestos.kernel import GuestKernel
from repro.guestos.numa import MemoryNode, NodeTier, build_node
from repro.hw.memdevice import DRAM, NVM_PCM
from repro.units import MIB, pages_of_bytes

# Every ``@given`` test draws the same examples on every run, so a red
# run repeats.  ``pytest --hypothesis-profile explore`` draws fresh ones
# with each test's own ``max_examples`` (a separate CI step).  Both start
# from Hypothesis's built-in profile, so a run here and one in CI (where
# Hypothesis would otherwise pick its own ``ci`` profile) agree.
settings.register_profile(
    "deterministic", settings.get_profile("default"), derandomize=True
)
settings.register_profile(
    "explore", settings.get_profile("default"), derandomize=False
)
settings.load_profile("deterministic")


def make_nodes(
    fast_mib: int = 64, slow_mib: int = 256
) -> dict[int, MemoryNode]:
    """A small two-tier node pair (FastMem DRAM + SlowMem NVM)."""
    nodes: dict[int, MemoryNode] = {}
    if fast_mib > 0:
        nodes[0] = build_node(
            0, NodeTier.FAST, DRAM.with_capacity(fast_mib * MIB), base_frame=0
        )
    nodes[1] = build_node(
        1,
        NodeTier.SLOW,
        NVM_PCM.with_capacity(slow_mib * MIB),
        base_frame=pages_of_bytes(fast_mib * MIB),
    )
    return nodes


def make_kernel(fast_mib: int = 64, slow_mib: int = 256, cpus: int = 4) -> GuestKernel:
    """A small standalone guest kernel (no hypervisor/balloon)."""
    return GuestKernel(make_nodes(fast_mib, slow_mib), cpus=cpus, balloon=None)


@pytest.fixture
def kernel() -> GuestKernel:
    return make_kernel()


@pytest.fixture
def nodes() -> dict[int, MemoryNode]:
    return make_nodes()
