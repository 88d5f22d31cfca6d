"""The remote-NUMA comparison device.

Figure 1's rightmost bars place all data on FastMem in a *remote* NUMA
socket: the paper's point (Observation 2) is that mis-placement across
homogeneous NUMA costs < 30 %, while mis-placement across heterogeneous
memory costs multiples.  :func:`remote_dram` derives the remote-socket
device using typical QPI-era inter-socket penalties (~1.6x latency,
~0.65x bandwidth), which lands real workloads in the paper's <30 % band.
"""

from __future__ import annotations

import dataclasses

from repro.hw.memdevice import DRAM, MemoryDevice

#: Inter-socket access penalties (QPI-generation hardware).
REMOTE_LATENCY_FACTOR = 1.6
REMOTE_BANDWIDTH_FACTOR = 0.65


def remote_dram(base: MemoryDevice = DRAM) -> MemoryDevice:
    """``base`` as seen from the other socket."""
    return dataclasses.replace(
        base,
        name=f"{base.name}-remote",
        load_latency_ns=base.load_latency_ns * REMOTE_LATENCY_FACTOR,
        store_latency_ns=base.store_latency_ns * REMOTE_LATENCY_FACTOR,
        bandwidth_gbps=base.bandwidth_gbps * REMOTE_BANDWIDTH_FACTOR,
    )
