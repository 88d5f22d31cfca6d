"""``repro serve``: a crash-tolerant experiment service.

The daemon (:class:`~repro.serve.server.ExperimentServer`) accepts
batches of :class:`~repro.sim.parallel.ExperimentSpec` over HTTP (TCP
or unix socket), executes them on the cached sweep substrate through
the worker pool ``run_specs`` uses
(:class:`~repro.sim.parallel.WorkerSupervisor`), and journals every
accepted job so a SIGKILL loses nothing.
:class:`~repro.serve.client.ServeClient` is the matching well-behaved
client.  See ``docs/serve.md`` for the API, the job lifecycle, and the
failure matrix.
"""

from repro.serve.client import ServeClient
from repro.serve.jobstore import JOB_STATES, Job, JobStore
from repro.serve.server import ExperimentServer, ServeConfig
from repro.serve.wire import WIRE_VERSION, outcome_from_wire, outcome_to_wire

__all__ = [
    "ExperimentServer",
    "Job",
    "JobStore",
    "JOB_STATES",
    "ServeClient",
    "ServeConfig",
    "WIRE_VERSION",
    "outcome_from_wire",
    "outcome_to_wire",
]
