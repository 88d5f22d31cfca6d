"""Tests of the benchmark harness itself (not part of tier-1).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/perf
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from time import perf_counter

import pytest

from benchmarks.perf import cli, hostspeed, stats
from benchmarks.perf.oracle import Oracle, cell_key, result_digest
from benchmarks.perf.tracing import Tracer, install
from benchmarks.perf.workloads import ROOT, SMOKE_EPOCHS, child_env, run_cell

CELLS = (
    ("graphchi", "hetero-coordinated", 1 / 8),
    ("redis", "heap-od", 1 / 4),
)


@pytest.fixture
def tracer():
    installed = install(Tracer())
    try:
        yield installed
    finally:
        installed.uninstall()


def _digest(app, policy, ratio, steps=None):
    return result_digest(
        run_cell(app, policy, ratio, 7, SMOKE_EPOCHS,
                 [] if steps is None else steps)
    )


def test_traced_digests_equal_untraced():
    untraced = [_digest(*cell) for cell in CELLS]
    tracer = install(Tracer())
    try:
        traced = [_digest(*cell) for cell in CELLS]
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert tracer.calls["sim.engine.step"] == len(CELLS) * SMOKE_EPOCHS


def test_self_times_and_unattributed_sum_to_step(tracer):
    tracer.raw_limit = 10 ** 6
    outer_step_s: "list[float]" = []
    _digest("graphchi", "hetero-coordinated", 1 / 8, outer_step_s)
    spans = {span[3]: span for span in tracer.raw}
    child_ns = {span_id: 0 for span_id in spans}
    for name, start, end, span_id, parent, _ in spans.values():
        if parent:
            child_ns[parent] += end - start

    def under_step(span_id):
        while span_id:
            if spans[span_id][0] == "sim.engine.step":
                return True
            span_id = spans[span_id][4]
        return False

    # Each layer's self time, plus step's own self time (the
    # unattributed bucket), must account for step as the loop timed it.
    attributed = sum(
        end - start - child_ns[span_id]
        for name, start, end, span_id, parent, _ in spans.values()
        if under_step(span_id)
    )
    assert tracer.self_ns["sim.engine.step"] > 0
    assert attributed == pytest.approx(sum(outer_step_s) * 1e9, rel=0.01)


def test_reentrant_super_chain_folds_into_one_span():
    class Base:
        def work(self):
            return self.helper() + 1

        def helper(self):
            return 1

    class Sub(Base):
        def work(self):
            return super().work() + 1

    tracer = Tracer()
    tracer.patch(Base, "work", "x.work")
    tracer.patch(Sub, "work", "x.work")
    tracer.patch(Base, "helper", "x.helper")
    try:
        assert Sub().work() == 3
    finally:
        tracer.uninstall()
    assert tracer.calls == {"x.work": 1, "x.helper": 1}
    assert Sub.work.__name__ == "work"  # originals restored


def test_percentile_needs_ten_samples_beyond():
    assert stats.percentile(range(100), 0.9) == 89
    assert stats.percentile(range(99), 0.9) is None
    assert stats.percentile(range(20), 0.5) == 9
    assert stats.percentile(range(19), 0.5) is None


def test_reference_seconds_average_each_cpus_speed():
    reading = hostspeed.REFERENCE_READING_S
    # CPU 0 ran at half the reference speed, CPU 1 at a quarter.
    readings = {0: [2 * reading, 2 * reading], 1: [4 * reading]}
    assert hostspeed.reference_seconds(8.0, readings) == pytest.approx(3.0)


def test_meter_reads_during_the_op_and_leaves_the_readings_out():
    meter = hostspeed.Meter()

    def busy():
        start = perf_counter()
        while perf_counter() - start < 0.2:
            pass

    _, work, ref = meter.time(busy)
    taken = sum(len(readings) for readings in meter._readings.values())
    assert taken - 2 * len(meter.cpus) >= 5
    assert 0.1 < work < 0.2
    assert ref > 0


def test_compare_rule_on_synthetic_samples():
    parent = [100.0 + 0.1 * i for i in range(10)]
    faster = [value - 10.0 for value in parent]
    assert stats.compare(parent, faster, "lower", 0.05)["verdict"] == "gain"
    # A change that fails more ops than its parent claims no gain.
    assert stats.compare(parent, faster, "lower", 0.05,
                         failed=(0, 1))["verdict"] == "same"
    # Eight wins of ten is short of nine tenths: no gain, and no worse.
    mixed = faster[:8] + [value + 1.0 for value in parent[8:]]
    row = stats.compare(parent, mixed, "lower", 0.05)
    assert (row["wins"], row["verdict"]) == (8, "same")
    # A median gap inside the parent's own spread is no gain either.
    wide = [100.0, 80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 95.0, 105.0, 100.0]
    nudged = [value - 1.0 for value in wide]
    assert stats.compare(wide, nudged, "lower", 0.5)["verdict"] == "same"
    assert stats.compare(wide, nudged, "lower", 0.05)["verdict"] == (
        "unresolved")
    slower = [value * 1.2 for value in parent]
    assert stats.compare(parent, slower, "lower", 0.05)["verdict"] == "worse"
    assert stats.compare(parent, slower, "higher", 0.05)["verdict"] == "gain"


def test_compare_refuses_runs_of_unequal_work(tmp_path, capsys):
    def write(name, seconds, passes):
        record = {"passes": passes, "ops_failed": 0,
                  "metrics": {"ref_pass_s": {"value": 1.0, "unit": "s"}}}
        path = tmp_path / name
        path.write_text(json.dumps({
            "seconds": seconds, "smoke": False, "traced": False,
            "workloads": {"static-placement": record},
        }))
        return str(path)

    parent = write("parent.json", 15, 6)
    assert cli.main(["compare", parent, write("same.json", 15, 6)]) == 0
    assert cli.main(["compare", parent, write("longer.json", 20, 6)]) == 2
    assert cli.main(["compare", parent, write("more.json", 15, 7)]) == 2
    assert "differ in passes" in capsys.readouterr().err


def test_perturbed_run_result_is_a_failed_op():
    result = run_cell("redis", "heap-od", 1 / 4, 7, SMOKE_EPOCHS, [])
    key = cell_key("redis", "heap-od", 1 / 4, SMOKE_EPOCHS)
    perturbed = dataclasses.replace(
        result,
        stats=dataclasses.replace(
            result.stats, runtime_ns=result.stats.runtime_ns + 1.0),
    )
    between_passes = Oracle()
    assert between_passes.check(key, result_digest(result))
    assert not between_passes.check(key, result_digest(perturbed))
    assert (between_passes.ops, between_passes.failed) == (2, 1)
    against_golden = Oracle({key: result_digest(result)})
    assert not against_golden.check(key, result_digest(perturbed))
    assert against_golden.failed == 1


def test_smoke_traced_run_separates_layers(tmp_path):
    out = tmp_path / "out.json"
    trace = tmp_path / "trace.json"
    subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "run", "--workload",
         "static-placement", "--seed", "11", "--smoke", "--out", str(out),
         "--trace", str(trace)],
        cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL,
        timeout=60,
    )
    record = json.loads(out.read_text())["workloads"]["static-placement"]
    layers = record["layers"]
    assert record["ops_failed"] == 0
    assert layers["sim.engine.step.calls"]["value"] > 0
    assert layers["sim.parallel.run_specs.calls"]["value"] == 0
    assert layers["serve.client.submit.calls"]["value"] == 0
    assert "unattributed.self_pct" in layers
    events = json.loads(trace.read_text())["traceEvents"]
    assert {event["args"]["request"] for event in events} >= {
        cell_key("graphchi", "slowmem-only", 1 / 4, SMOKE_EPOCHS)}
