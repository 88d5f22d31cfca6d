"""Telemetry determinism, exactness, and round-trip contracts.

The two load-bearing properties of ``repro.obs``:

1. **Observation never perturbs simulation** — a run with a telemetry
   bus attached produces a field-by-field identical ``RunResult`` to a
   run without one (timeline stripped), for every registered policy.
2. **Timelines sum to finals** — additive per-epoch sample fields
   re-sum, in epoch order, to the final ``RunStats`` aggregates *bit
   for bit*, because the engine performs the identical sequence of
   float additions.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.policy import available_policies, make_policy
from repro.errors import ObservabilityError
from repro.obs import (
    ChromeTraceSink,
    EpochSample,
    JsonlSink,
    PhaseProfiler,
    Telemetry,
    TimelineSink,
    diff_timelines,
    json_line,
    load_timeline,
)
from repro.obs.sample import (
    _DICT_FIELDS,
    _SCALAR_FIELDS,
    NON_ADDITIVE_FIELDS,
    UNSAMPLED_AGGREGATES,
)
from repro.sim.engine import STEP_PHASES, SimulationEngine
from repro.sim.parallel import ResultCache, make_spec, run_spec, run_specs
from repro.sim.runner import build_config, run_experiment
from repro.sim.stats import RunResult, RunStats
from repro.workloads.registry import make_workload
from repro.vmm.migration import MigrationEngine, MigrationReport

APP = "redis"
EPOCHS = 2


def run_pair(policy: str, **kwargs):
    """(telemetry-off result, telemetry-on result, timeline)."""
    base = run_experiment(APP, policy, epochs=EPOCHS, **kwargs)
    telemetry = Telemetry()
    traced = run_experiment(
        APP, policy, epochs=EPOCHS, telemetry=telemetry, **kwargs
    )
    return base, traced, traced.timeline


def strip(result):
    return dataclasses.asdict(dataclasses.replace(result, timeline=None))


# ---------------------------------------------------------------------------
# Property 1: telemetry-on == telemetry-off, every policy.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("policy", available_policies())
def test_telemetry_never_perturbs_results(policy):
    base, traced, timeline = run_pair(policy)
    assert strip(base) == strip(traced)
    assert base.timeline is None
    assert timeline is not None
    assert len(timeline) == base.stats.epochs


def test_disabled_bus_is_a_no_op():
    telemetry = Telemetry(enabled=False)
    base = run_experiment(APP, "hetero-lru", epochs=EPOCHS)
    traced = run_experiment(
        APP, "hetero-lru", epochs=EPOCHS, telemetry=telemetry
    )
    assert strip(base) == strip(traced)
    assert traced.timeline is None
    assert telemetry.timeline() == []


# ---------------------------------------------------------------------------
# Property 2: per-epoch samples sum exactly to the final RunStats.
# ---------------------------------------------------------------------------

def field_names(cls) -> "set[str]":
    return {field.name for field in dataclasses.fields(cls)}


#: Every EpochSample field that re-sums to a same-named aggregate.
ADDITIVE_FIELDS = sorted(field_names(EpochSample) - set(NON_ADDITIVE_FIELDS))

#: Sampled as differences of the policy's cumulative totals, so these
#: re-sum only to within rounding.
CUMULATIVE_DELTA_FIELDS = ("scan_cost_ns", "migration_cost_ns")


def test_sample_declarations_mirror_the_dataclasses():
    sample, stats = field_names(EpochSample), field_names(RunStats)
    assert sorted(_SCALAR_FIELDS + _DICT_FIELDS) == sorted(sample)
    assert set(NON_ADDITIVE_FIELDS) <= sample, "stale entry"
    assert set(UNSAMPLED_AGGREGATES) <= stats - sample, "stale entry"
    assert stats - set(UNSAMPLED_AGGREGATES) <= sample, "unsampled total"
    assert set(ADDITIVE_FIELDS) <= stats | field_names(RunResult)
    for reasons in (NON_ADDITIVE_FIELDS, UNSAMPLED_AGGREGATES):
        assert all(reason.strip() for reason in reasons.values())


def resum(timeline, attr):
    """``attr`` added in epoch order from 0, as the engine adds it."""
    if isinstance(getattr(timeline[0], attr), dict):
        totals: dict = {}
        for sample in timeline:
            for key, value in getattr(sample, attr).items():
                totals[key] = totals.get(key, 0.0) + value
        return totals
    total = 0.0
    for sample in timeline:
        total += getattr(sample, attr)
    return total


@pytest.mark.parametrize("policy", available_policies())
def test_timeline_sums_to_final_stats(policy):
    _, traced, timeline = run_pair(policy)
    stats = traced.stats
    stats_fields = field_names(RunStats)
    for name in ADDITIVE_FIELDS:
        final = getattr(stats if name in stats_fields else traced, name)
        if name in CUMULATIVE_DELTA_FIELDS:
            assert resum(timeline, name) == pytest.approx(final), name
        else:
            assert resum(timeline, name) == final, name
    # Monotonic counters: last cumulative reading matches the final.
    assert timeline[-1].llc_misses_cumulative == stats.llc_misses


def test_samples_carry_epoch_order_and_occupancy():
    _, _, timeline = run_pair("hetero-lru")
    assert [s.epoch for s in timeline] == list(range(len(timeline)))
    for sample in timeline:
        assert sample.occupancy, "occupancy snapshot missing"
        assert "swap" in sample.occupancy
        assert sample.occupancy["nodes"], "no node gauges"
        for node in sample.occupancy["nodes"].values():
            assert node["total_pages"] == (
                node["free_pages"] + node["used_pages"]
            )
            assert set(node["zones"]), "zone breakdown missing"


# ---------------------------------------------------------------------------
# Sample serialization round trips.
# ---------------------------------------------------------------------------


def test_sample_dict_round_trip():
    _, _, timeline = run_pair("hetero-coordinated")
    for sample in timeline:
        clone = EpochSample.from_dict(sample.to_dict())
        assert clone == sample


def test_sample_json_round_trip_is_lossless():
    _, _, timeline = run_pair("hetero-lru")
    for sample in timeline:
        clone = EpochSample.from_dict(json.loads(json_line(sample.to_dict())))
        assert clone == sample


def test_sample_rejects_unknown_fields():
    with pytest.raises(ObservabilityError):
        EpochSample.from_dict({"epoch": 0, "warp_factor": 9})


def test_sample_from_dict_ignores_jsonl_type_tag():
    sample = EpochSample.from_dict({"type": "sample", "epoch": 3})
    assert sample.epoch == 3


# ---------------------------------------------------------------------------
# Sinks: JSONL file round trip and Chrome trace structure.
# ---------------------------------------------------------------------------


def test_jsonl_sink_round_trips_through_load_timeline(tmp_path):
    path = tmp_path / "run.jsonl"
    telemetry = Telemetry(sinks=[TimelineSink(), JsonlSink(path)])
    traced = run_experiment(
        APP, "hetero-lru", epochs=EPOCHS, telemetry=telemetry
    )
    header, samples, summary = load_timeline(path)
    assert header["workload"] == APP
    assert header["policy"] == "hetero-lru"
    assert samples == traced.timeline
    assert summary["epochs"] == traced.stats.epochs
    assert summary["runtime_ns"] == traced.stats.runtime_ns


def test_load_timeline_rejects_garbage_mid_file(tmp_path):
    # Corruption anywhere but the last line is a damaged file, not a
    # torn write — it must still raise.
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type":"header"}\nnot json\n{"type":"summary"}\n')
    with pytest.raises(ObservabilityError):
        load_timeline(path)


def test_load_timeline_drops_truncated_trailing_line(tmp_path):
    # A crash mid-append leaves half a JSON object as the final line;
    # the rest of the timeline must stay loadable (warn + drop).
    sample = EpochSample(epoch=0, runtime_ns=10.0)
    path = tmp_path / "truncated.jsonl"
    path.write_text(
        json_line({"type": "header", "workload": "redis"})
        + "\n"
        + json_line(dict(sample.to_dict(), type="sample"))
        + "\n"
        + '{"type":"sample","epo'  # torn write: no closing brace/newline
    )
    with pytest.warns(RuntimeWarning, match="truncated trailing line"):
        header, samples, summary = load_timeline(path)
    assert header == {"workload": "redis"}
    assert len(samples) == 1
    assert samples[0].epoch == 0
    assert summary == {}


def test_chrome_trace_sink_emits_valid_trace(tmp_path):
    path = tmp_path / "run.trace.json"
    telemetry = Telemetry(
        sinks=[ChromeTraceSink(path)], profiler=PhaseProfiler()
    )
    run_experiment(APP, "hetero-coordinated", epochs=3, telemetry=telemetry)
    trace = json.loads(path.read_text())
    assert trace["displayTimeUnit"] == "ms"
    events = trace["traceEvents"]
    assert events, "trace is empty"
    phases = {e["ph"] for e in events}
    assert {"X", "C", "M"} <= phases
    slices = [e for e in events if e["ph"] == "X" and e["pid"] == 0]
    assert len(slices) == 3
    # Epoch slices tile virtual time: each begins where the last ended.
    for prev, cur in zip(slices, slices[1:]):
        assert cur["ts"] == pytest.approx(prev["ts"] + prev["dur"])
    # Host-profiler slices land on the separate profiler pid.
    assert any(e["ph"] == "X" and e["pid"] == 1 for e in events)


# ---------------------------------------------------------------------------
# Timeline diffing.
# ---------------------------------------------------------------------------


def _write_timeline(tmp_path, name, policy, seed):
    path = tmp_path / name
    telemetry = Telemetry(sinks=[JsonlSink(path)])
    run_experiment(APP, policy, epochs=3, seed=seed, telemetry=telemetry)
    return path


def test_diff_identical_runs(tmp_path):
    a = _write_timeline(tmp_path, "a.jsonl", "hetero-lru", seed=7)
    b = _write_timeline(tmp_path, "b.jsonl", "hetero-lru", seed=7)
    diff = diff_timelines(load_timeline(a)[1], load_timeline(b)[1])
    assert diff.identical
    assert "identical" in diff.describe()


def test_diff_reports_first_divergent_epoch(tmp_path):
    a = _write_timeline(tmp_path, "a.jsonl", "random", seed=7)
    b = _write_timeline(tmp_path, "b.jsonl", "random", seed=8)
    diff = diff_timelines(load_timeline(a)[1], load_timeline(b)[1])
    assert not diff.identical
    assert diff.first_divergent_epoch == 0
    assert diff.differing_fields
    assert "first divergent epoch: 0" in diff.describe()


def test_diff_length_mismatch():
    samples = [EpochSample(epoch=i) for i in range(3)]
    diff = diff_timelines(samples, samples[:2])
    assert not diff.identical
    assert diff.len_a == 3 and diff.len_b == 2
    assert "length" in diff.describe()


# ---------------------------------------------------------------------------
# Events: policy decisions and migration-pass brackets.
# ---------------------------------------------------------------------------


def test_demote_pass_events_fire_under_pressure():
    telemetry = Telemetry()
    traced = run_experiment(
        APP, "hetero-lru", epochs=10, fast_ratio=0.05, telemetry=telemetry
    )
    assert traced.pages_demoted > 0
    events = [e for s in traced.timeline for e in s.events]
    demotes = [e for e in events if e["name"] == "demote-pass"]
    assert demotes, "no demote-pass events despite demotions"
    for event in demotes:
        assert event["source"] == "core.policy"
        assert event["policy"] == "hetero-lru"
        assert event["pages"] > 0
    assert sum(e["pages"] for e in demotes) == traced.pages_demoted


def test_migration_observer_brackets_passes():
    seen = []
    engine = MigrationEngine(observer=lambda kind, r: seen.append((kind, r)))
    report = engine.begin_pass()
    engine.commit_pass()
    assert [kind for kind, _ in seen] == ["begin", "commit"]
    assert seen[1][1] is report
    engine.begin_pass()
    aborted = engine.abort_pass()
    assert [kind for kind, _ in seen] == ["begin", "commit", "begin", "abort"]
    assert engine.total.pages_moved == 0
    assert aborted.pages_moved == 0


def test_migration_event_duck_types_report():
    telemetry = Telemetry()
    report = MigrationReport(pages_moved=12, extents_moved=3, cost_ns=42.0)
    telemetry.migration_event("commit", report)
    (event,) = telemetry.drain_events()
    assert event["name"] == "migration-commit"
    assert event["source"] == "vmm.migration"
    assert event["pages_moved"] == 12
    assert event["extents_moved"] == 3
    assert event["cost_ns"] == 42.0
    assert telemetry.drain_events() == []


# ---------------------------------------------------------------------------
# Host profiler.
# ---------------------------------------------------------------------------


def test_profiler_phases_and_report():
    profiler = PhaseProfiler()
    with profiler.phase("demand"):
        pass
    with profiler.phase("demand"):
        pass
    with profiler.phase("policy"):
        pass
    report = profiler.report()
    assert report["demand"]["calls"] == 2
    assert report["policy"]["calls"] == 1
    assert profiler.total_seconds >= 0.0
    profiler.reset()
    assert profiler.report() == {}


def test_profiler_lands_in_jsonl_summary(tmp_path):
    path = tmp_path / "run.jsonl"
    telemetry = Telemetry(
        sinks=[JsonlSink(path)], profiler=PhaseProfiler()
    )
    run_experiment(APP, "hetero-lru", epochs=EPOCHS, telemetry=telemetry)
    _, _, summary = load_timeline(path)
    assert "profile" in summary
    assert summary["profile"]["demand"]["calls"] == EPOCHS


#: The engine methods ``STEP_PHASES`` names, which a profiled engine
#: wraps on its instance.
PHASE_METHODS = set(STEP_PHASES.values())


def _engine(telemetry):
    return SimulationEngine(
        build_config(seed=7), make_workload(APP), make_policy("hetero-lru"),
        telemetry=telemetry,
    )


def test_profiled_run_times_all_five_phases():
    profiler = PhaseProfiler()
    engine = _engine(Telemetry(profiler=profiler))
    assert PHASE_METHODS <= set(vars(engine))
    engine.run(EPOCHS)
    report = profiler.report()
    assert set(report) == set(STEP_PHASES)
    for name, entry in report.items():
        assert entry["calls"] == EPOCHS, name


def test_unprofiled_engine_keeps_the_class_phase_methods():
    for telemetry in (
        None,
        Telemetry(),
        Telemetry(profiler=PhaseProfiler(), enabled=False),
    ):
        engine = _engine(telemetry)
        engine.run(EPOCHS)
        assert not PHASE_METHODS & set(vars(engine)), telemetry


# ---------------------------------------------------------------------------
# Cache sidecars and the parallel runner.
# ---------------------------------------------------------------------------


def test_cache_sidecar_round_trip(tmp_path):
    spec = make_spec(APP, "hetero-lru", epochs=EPOCHS)
    cache = ResultCache(tmp_path)
    first = run_specs([spec], cache=cache, capture_timelines=True)
    assert first[0].source in ("serial", "parallel")
    assert first[0].result.timeline is not None
    second = run_specs([spec], cache=cache, capture_timelines=True)
    assert second[0].source == "cache"
    assert second[0].result.timeline == first[0].result.timeline
    assert strip(second[0].result) == strip(first[0].result)


def test_cache_sidecar_corruption_is_a_miss(tmp_path):
    spec = make_spec(APP, "hetero-lru", epochs=EPOCHS)
    cache = ResultCache(tmp_path)
    run_specs([spec], cache=cache, capture_timelines=True)
    sidecars = list(tmp_path.glob("*.timeline.jsonl"))
    assert len(sidecars) == 1
    sidecars[0].write_text("garbage\n")
    again = run_specs([spec], cache=cache, capture_timelines=True)
    assert again[0].source != "cache"
    assert again[0].result.timeline is not None
    # The re-run refreshed the sidecar.
    fresh = run_specs([spec], cache=cache, capture_timelines=True)
    assert fresh[0].source == "cache"
    assert fresh[0].result.timeline == again[0].result.timeline


def test_capture_off_leaves_timeline_none(tmp_path):
    spec = make_spec(APP, "hetero-lru", epochs=EPOCHS)
    outcomes = run_specs([spec], cache=ResultCache(tmp_path))
    assert outcomes[0].result.timeline is None
    assert not list(tmp_path.glob("*.timeline.jsonl"))


def test_run_spec_telemetry_matches_run_experiment():
    spec = make_spec(APP, "hetero-coordinated", epochs=EPOCHS)
    telemetry = Telemetry()
    traced = run_spec(spec, telemetry=telemetry)
    plain = run_spec(spec)
    assert strip(traced) == strip(plain)
    assert traced.timeline is not None


def test_parallel_workers_carry_timelines(tmp_path):
    specs = [
        make_spec(APP, "hetero-lru", epochs=EPOCHS, seed=seed)
        for seed in (7, 8)
    ]
    outcomes = run_specs(specs, max_workers=2, capture_timelines=True)
    for outcome in outcomes:
        assert outcome.ok
        assert outcome.result.timeline is not None
        assert len(outcome.result.timeline) == EPOCHS
