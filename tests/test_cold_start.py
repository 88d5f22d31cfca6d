"""A single run imports only the simulator.

Every launch of the CLI or the benchmark compiles what it imports
unless a bytecode cache is warm, so the run path must not pull in the
static analyzers, the sweep and serve layers or the figure drivers.
Each check runs in a fresh interpreter, because the test process has
already imported all of them.

The sweep layer itself keeps the opposite rule: ``repro.sim.parallel``
imports the whole run path at module level, so the workers its
supervisor forks inherit the simulator and never compile it while a
sweep is timed.
"""

import json
import os
import subprocess
import sys

#: What the benchmark's set-up launch imports for the placement
#: workloads (``benchmarks/perf/cli.py``, ``cmd_ready``).
SETUP_IMPORTS = (
    "repro.core",
    "repro.sim.engine",
    "repro.sim.fast",
    "repro.sim.runner",
    "repro.workloads.registry",
)

#: Modules, and packages with everything under them, that no single run
#: may load.
RUN_PATH_EXCLUDES = (
    "repro.devtools.lint",
    "repro.devtools.flow",
    "repro.devtools.effect",
    "repro.sim.parallel",
    "repro.sim.trace",
    "repro.obs.flight",
    "repro.obs.metrics",
    "repro.experiments",
    "repro.serve",
)

_PRINT_MODULES = """
import json, sys
print(json.dumps(sorted(name for name in sys.modules
                        if name == "repro" or name.startswith("repro."))))
"""


def _fresh_run(body: str) -> "list[str]":
    """Run ``body`` in a fresh interpreter; its last output line, JSON."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-c", body],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _excluded(modules: "list[str]") -> "list[str]":
    return [
        name for name in modules
        if any(name == prefix or name.startswith(prefix + ".")
               for prefix in RUN_PATH_EXCLUDES)
    ]


def test_setup_imports_load_only_the_simulator():
    body = "".join(f"import {name}\n" for name in SETUP_IMPORTS)
    modules = _fresh_run(body + _PRINT_MODULES)
    assert set(SETUP_IMPORTS) <= set(modules)
    assert _excluded(modules) == []


def test_cli_run_loads_only_the_simulator():
    body = (
        "import contextlib, io\n"
        "from repro import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['run', 'nginx', 'slowmem-only',"
        " '--epochs', '2'])\n"
        "assert code == 0, code\n"
    )
    modules = _fresh_run(body + _PRINT_MODULES)
    assert "repro.sim.engine" in modules
    assert _excluded(modules) == []


def test_sweep_layer_imports_the_run_path_before_it_forks():
    body = """
import json, sys
from repro.sim import parallel
loaded = ["repro.sim.engine" in sys.modules, "repro.sim.runner" in sys.modules]
before = set(sys.modules)
[outcome] = parallel.run_specs([parallel.make_spec("nginx", "slowmem-only",
                                                   epochs=3)])
assert outcome.ok, outcome.error
print(json.dumps([loaded, sorted(set(sys.modules) - before)]))
"""
    loaded, imported_by_the_run = _fresh_run(body)
    assert loaded == [True, True]
    assert imported_by_the_run == []
