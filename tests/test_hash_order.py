"""Simulated results must not depend on the iteration order of any
hashed collection.

String hashes are salted per process (``PYTHONHASHSEED``), and
``PageType`` hashes by identity, so a set or dict whose iteration order
leaked into a result would make the same cell disagree with itself
across processes.  The same cells run under two hash seeds must give
identical ``RunResult``s.
"""

import os
import subprocess
import sys

_CELLS = """
import dataclasses, hashlib
from repro.sim.runner import run_experiment
for app in ("graphchi", "leveldb", "redis"):
    for policy in ("heap-io-slab-od", "hetero-coordinated"):
        result = run_experiment(app, policy, epochs=12)
        text = repr(dataclasses.asdict(result))
        print(app, policy, hashlib.sha256(text.encode()).hexdigest())
"""


def _cell_digests(hash_seed: int) -> "list[str]":
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-c", _CELLS],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_results_do_not_depend_on_hash_order():
    first = _cell_digests(1)
    assert len(first) == 6
    assert first == _cell_digests(2)
