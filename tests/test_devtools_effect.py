"""heteroeffect: per-rule bad+good fixtures with interprocedural
(callee-summary / reachability-chain) evidence, the summaries the rules
read, and the effect slot of the AST cache.

Fixture trees follow tests/test_devtools_flow.py: a ``repro``-named
root so module names normalize the same way as the real package
(``sim/parallel.py`` -> module ``sim.parallel``, the forked-worker
module the race rules anchor reachability on).
"""

from __future__ import annotations

import textwrap

import pytest

from repro.cli import main
from repro.devtools.effect import (
    EffectAnalysis,
    analysis_cache_key,
    cached_effect_analysis,
    effect_rule_metadata,
    worker_entry_points,
)
from repro.devtools.effect import summary as summary_module
from repro.devtools.flow import ProjectIndex, deep_lint_paths
from repro.devtools.flow.cache import AstCache


def make_tree(tmp_path, files):
    """Write ``files`` (relpath -> source) under a repro-named root."""
    root = tmp_path / "proj" / "repro"
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    for directory in {p.parent for p in root.rglob("*.py")} | {root}:
        init = directory / "__init__.py"
        if not init.exists():
            init.write_text("", encoding="utf-8")
    return root


def effects(tmp_path, files, rule_id=None):
    report, _index = deep_lint_paths(
        [make_tree(tmp_path, files)], rule_ids=effect_rule_metadata()
    )
    if rule_id is None:
        return report.findings
    return [f for f in report.findings if f.rule_id == rule_id]


def build_index(tmp_path, files):
    return ProjectIndex.build([make_tree(tmp_path, files)])


# ----------------------------------------------------------------------
# effect-shared-write
# ----------------------------------------------------------------------

PARALLEL_RUNNER = """\
    from repro.sim.stats import record

    WORKER_ENTRY_POINTS = ("run_spec",)

    def run_spec(spec):
        return record(spec)
"""

SHARED_WRITE_BAD = {
    "sim/parallel.py": PARALLEL_RUNNER,
    "sim/stats.py": """\
        _MEMO = {}

        def record(spec):
            _MEMO[spec] = 1
            return _MEMO
    """,
}

SHARED_WRITE_GOOD = {
    "sim/parallel.py": PARALLEL_RUNNER,
    "sim/stats.py": """\
        def record(spec):
            memo = {}
            memo[spec] = 1
            return memo
    """,
}


def test_shared_write_fires_with_worker_chain(tmp_path):
    hits = effects(tmp_path, SHARED_WRITE_BAD, "effect-shared-write")
    assert len(hits) == 1
    finding = hits[0]
    assert finding.function == "sim.stats.record"
    assert "sim.stats:_MEMO" in finding.message
    # Interprocedural evidence: the reachability chain from the worker
    # entry point into the writing helper.
    assert "sim.parallel.run_spec -> sim.stats.record" in finding.message


def test_shared_write_clean_on_local_container(tmp_path):
    assert not effects(tmp_path, SHARED_WRITE_GOOD, "effect-shared-write")


def test_shared_write_needs_worker_reachability(tmp_path):
    # Same global write, but nothing in sim.parallel calls it.
    files = dict(SHARED_WRITE_BAD)
    files["sim/parallel.py"] = """\
        WORKER_ENTRY_POINTS = ("run_spec",)

        def run_spec(spec):
            return spec
    """
    assert not effects(tmp_path, files, "effect-shared-write")


def test_worker_entry_marker_is_honored(tmp_path):
    # The marker alone names the worker roots: without it there are none.
    unmarked = {"sim/parallel.py": "def _worker_main():\n    pass\n"}
    assert worker_entry_points(build_index(tmp_path / "u", unmarked)) == ()
    files = dict(SHARED_WRITE_BAD)
    files["sim/parallel.py"] = """\
        from repro.sim.stats import record

        WORKER_ENTRY_POINTS = ("launch",)

        def launch(spec):
            return record(spec)

        def run_spec(spec):
            return spec
    """
    index = build_index(tmp_path, files)
    assert worker_entry_points(index) == ("launch",)
    hits = effects(tmp_path, files, "effect-shared-write")
    assert len(hits) == 1
    assert "sim.parallel.launch" in hits[0].message


# ----------------------------------------------------------------------
# effect-fork-unsafe
# ----------------------------------------------------------------------

FORK_HANDLE_BAD = {
    "sim/parallel.py": """\
        from repro.sim.trace import log

        WORKER_ENTRY_POINTS = ("run_spec",)

        def run_spec(spec):
            log(str(spec))
            return spec
    """,
    "sim/trace.py": """\
        _LOG = open("/tmp/trace.log", "a")

        def log(message):
            _LOG.write(message)
    """,
}

FORK_HANDLE_GOOD = {
    "sim/parallel.py": FORK_HANDLE_BAD["sim/parallel.py"],
    "sim/trace.py": """\
        def log(message):
            with open("/tmp/trace.log", "a") as handle:
                handle.write(message)
    """,
}


def test_fork_unsafe_fires_on_global_handle(tmp_path):
    hits = effects(tmp_path, FORK_HANDLE_BAD, "effect-fork-unsafe")
    assert len(hits) == 1
    assert "sim.trace:_LOG" in hits[0].message
    assert "sim.parallel.run_spec -> sim.trace.log" in hits[0].message


def test_fork_unsafe_clean_on_function_local_handle(tmp_path):
    assert not effects(tmp_path, FORK_HANDLE_GOOD, "effect-fork-unsafe")


def test_fork_unsafe_fires_on_direct_fork(tmp_path):
    files = {
        "guestos/spawn.py": """\
            import os

            def clone_worker():
                return os.fork()
        """,
    }
    hits = effects(tmp_path, files, "effect-fork-unsafe")
    assert len(hits) == 1
    assert "os.fork" in hits[0].message


# ----------------------------------------------------------------------
# effect-rng-aliasing
# ----------------------------------------------------------------------

RNG_SPLIT_BAD = {
    "sim/faults.py": """\
        def perturb(rng, value):
            return value + rng.random()
    """,
    "sim/policy.py": """\
        from repro.sim.faults import perturb

        class Policy:
            def __init__(self, rng):
                self.rng = rng

            def decide(self, value):
                jitter = self.rng.random()
                return perturb(self.rng, value) + jitter
    """,
}

RNG_SPLIT_GOOD = {
    "sim/faults.py": RNG_SPLIT_BAD["sim/faults.py"],
    "sim/policy.py": """\
        from repro.sim.faults import perturb

        class Policy:
            def __init__(self, place_rng, fault_rng):
                self.place_rng = place_rng
                self.fault_rng = fault_rng

            def decide(self, value):
                jitter = self.place_rng.random()
                return perturb(self.fault_rng, value)
    """,
}


def test_rng_aliasing_fires_on_stream_split_across_call(tmp_path):
    hits = effects(tmp_path, RNG_SPLIT_BAD, "effect-rng-aliasing")
    assert len(hits) == 1
    # Callee-summary evidence: the callee's own stream appears in the
    # message alongside the caller-frame identity it maps to.
    assert "Policy.rng" in hits[0].message
    assert "perturb()" in hits[0].message
    assert "param:rng" in hits[0].message


def test_rng_aliasing_clean_when_streams_are_disjoint(tmp_path):
    assert not effects(tmp_path, RNG_SPLIT_GOOD, "effect-rng-aliasing")


def test_rng_aliasing_fires_on_two_streams_in_one_body(tmp_path):
    files = {
        "sim/policy.py": """\
            class Policy:
                def __init__(self, place_rng, fault_rng):
                    self.place_rng = place_rng
                    self.fault_rng = fault_rng

                def mix(self):
                    return self.place_rng.random() + self.fault_rng.random()
        """,
    }
    hits = effects(tmp_path, files, "effect-rng-aliasing")
    assert len(hits) == 1
    assert "Policy.fault_rng" in hits[0].message
    assert "Policy.place_rng" in hits[0].message


# ----------------------------------------------------------------------
# effect-order-dep
# ----------------------------------------------------------------------

ORDER_DEP_BAD = {
    "sim/kernel.py": """\
        def jitter(rng):
            return rng.random()

        def scatter(nodes, rng):
            total = 0.0
            for name in nodes.keys():
                total += jitter(rng)
            return total
    """,
}

ORDER_DEP_GOOD = {
    "sim/kernel.py": """\
        def jitter(rng):
            return rng.random()

        def scatter(nodes, rng):
            total = 0.0
            for name in sorted(nodes):
                total += jitter(rng)
            return total
    """,
}


def test_order_dep_fires_via_callee_summary(tmp_path):
    hits = effects(tmp_path, ORDER_DEP_BAD, "effect-order-dep")
    assert len(hits) == 1
    assert "dict .keys() view" in hits[0].message
    # Interprocedural evidence: the draw is inside the callee, found
    # through its summary, and named in the message.
    assert "jitter() draws from RNG stream" in hits[0].message


def test_order_dep_clean_when_sorted(tmp_path):
    assert not effects(tmp_path, ORDER_DEP_GOOD, "effect-order-dep")


def test_order_dep_fires_on_direct_draw_in_set_loop(tmp_path):
    files = {
        "sim/kernel.py": """\
            def pick(extents, rng):
                for extent in set(extents):
                    if rng.random() < 0.5:
                        return extent
                return None
        """,
    }
    hits = effects(tmp_path, files, "effect-order-dep")
    assert len(hits) == 1
    assert "set()" in hits[0].message


# ----------------------------------------------------------------------
# effect-obs-pure
# ----------------------------------------------------------------------

OBS_GLOBAL_BAD = {
    "obs/bus.py": """\
        _EVENT_TOTAL = 0

        def emit(record):
            global _EVENT_TOTAL
            _EVENT_TOTAL = _EVENT_TOTAL + 1
    """,
}

OBS_ATTR_BAD = {
    "sim/stats.py": """\
        class RunStats:
            def __init__(self):
                self.epochs = 0

        def bump(stats: RunStats):
            stats.epochs = stats.epochs + 1
    """,
    "obs/sinks.py": """\
        from repro.sim.stats import RunStats, bump

        def write(stats: RunStats):
            bump(stats)

        def emit(stats: RunStats):
            write(stats)
    """,
}

OBS_GOOD = {
    "obs/sinks.py": """\
        class TimelineSink:
            def __init__(self):
                self.samples = []

            def write(self, sample):
                self.samples.append(sample)
    """,
}


def test_obs_pure_fires_on_module_global_write(tmp_path):
    hits = effects(tmp_path, OBS_GLOBAL_BAD, "effect-obs-pure")
    assert [f.function for f in hits] == ["obs.bus.emit"]
    assert "obs.bus:_EVENT_TOTAL" in hits[0].message


def test_obs_pure_fires_on_non_obs_attribute_write(tmp_path):
    hits = effects(tmp_path, OBS_ATTR_BAD, "effect-obs-pure")
    # Reported once, where the call leaves the plane, not again in emit.
    assert [f.function for f in hits] == ["obs.sinks.write"]
    # Interprocedural evidence: the write sits in the non-obs callee.
    assert "'RunStats.epochs'" in hits[0].message
    assert "[via sim.stats.bump]" in hits[0].message


def test_obs_pure_clean_on_writes_to_obs_classes(tmp_path):
    assert not effects(tmp_path, OBS_GOOD, "effect-obs-pure")


def test_effect_rule_metadata_namespace():
    metadata = effect_rule_metadata()
    assert set(metadata) == {
        "effect-shared-write",
        "effect-fork-unsafe",
        "effect-rng-aliasing",
        "effect-order-dep",
        "effect-obs-pure",
    }
    assert all(rule.startswith("effect-") for rule in metadata)


def test_suppression_comment_applies_to_effect_findings(tmp_path):
    files = {
        "sim/parallel.py": PARALLEL_RUNNER,
        "sim/stats.py": """\
            _MEMO = {}

            def record(spec):
                # heterolint: disable-next-line=effect-shared-write
                _MEMO[spec] = 1
                return _MEMO
        """,
    }
    report, _index = deep_lint_paths(
        [make_tree(tmp_path, files)], rule_ids=effect_rule_metadata()
    )
    assert not report.findings
    assert any(
        f.rule_id == "effect-shared-write" for f in report.suppressed
    )


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------


def test_summary_follows_class_qualified_calls(tmp_path):
    """``Record.build(...)`` is that class's method, though another class
    defines a ``build`` too: the call is followed, and the other
    ``build``'s write is not charged to the caller."""
    files = {
        "sim/engine.py": """\
            class Other:
                def build(self, epoch):
                    self.count = epoch

            class Record:
                @staticmethod
                def build(epoch):
                    return epoch + 1

            class Engine:
                def _policy_phase(self, epoch):
                    self.built = Record.build(epoch)
        """,
    }
    analysis = EffectAnalysis(build_index(tmp_path, files))
    caller = "sim.engine.Engine._policy_phase"
    assert analysis.reach_edges[caller] == {"sim.engine.Record.build"}
    assert analysis.summaries[caller].attr_writes == {"Engine.built": ""}


def test_summary_keeps_a_callee_draw_with_its_provenance(tmp_path):
    files = {
        "sim/engine.py": """\
            from repro.sim.faults import fires

            class Engine:
                def _demand_phase(self, rng):
                    return fires(rng)
        """,
        "sim/faults.py": """\
            def fires(rng):
                return rng.random() < 0.1
        """,
    }
    summaries = EffectAnalysis(build_index(tmp_path, files)).summaries
    assert summaries["sim.faults.fires"].rng_streams == {"param:rng": ""}
    # The callee's parameter maps to the caller's, via the callee.
    assert summaries["sim.engine.Engine._demand_phase"].rng_streams == {
        "param:rng": "sim.faults.fires",
    }


def test_effect_slot_of_another_analysis_version_is_recomputed(
    tmp_path, monkeypatch
):
    index = build_index(tmp_path, RNG_SPLIT_BAD)
    cache_dir = tmp_path / "cache"
    fixpoints = []
    fixpoint = EffectAnalysis._fixpoint

    def counted_fixpoint(analysis, max_rounds):
        fixpoints.append(max_rounds)
        fixpoint(analysis, max_rounds)

    monkeypatch.setattr(EffectAnalysis, "_fixpoint", counted_fixpoint)
    fresh = cached_effect_analysis(index, AstCache(cache_dir))
    warm = cached_effect_analysis(index, AstCache(cache_dir))
    assert len(fixpoints) == 1
    assert warm.summaries == fresh.summaries
    assert warm.direct == fresh.direct

    key = analysis_cache_key(index)
    monkeypatch.setattr(
        summary_module, "EFFECT_CACHE_VERSION",
        summary_module.EFFECT_CACHE_VERSION + 1,
    )
    assert analysis_cache_key(index) != key
    recomputed = cached_effect_analysis(index, AstCache(cache_dir))
    assert len(fixpoints) == 2
    assert recomputed.summaries == fresh.summaries
    # The slot now carries the new key, so the next pass is warm again.
    cache = AstCache(cache_dir)
    assert cache.load_effect_summaries(key) is None
    assert cache.load_effect_summaries(analysis_cache_key(index)) is not None


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_certify_exits_2(capsys):
    # The phase certifier and its ledger are gone; the engine's phase
    # write sets are a runtime test in tests/test_sim_engine.py.
    with pytest.raises(SystemExit) as exit_info:
        main(["certify", "src/repro"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'certify'" in capsys.readouterr().err


def test_cli_lint_effects_flag(tmp_path, capsys):
    # The effect rules run in the one deep pass; `--effects` is gone.
    root = make_tree(tmp_path, SHARED_WRITE_BAD)
    with pytest.raises(SystemExit):
        main(["lint", "--effects", str(root)])
    capsys.readouterr()
    assert main(["lint", "--deep", str(root)]) == 1
    assert "effect-shared-write" in capsys.readouterr().out
