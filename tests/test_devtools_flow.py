"""heteroflow: failing and passing fixtures for the determinism taint,
plus the machinery of the one deep pass — suppression, rule
selection, the AST cache, SARIF output and the CLI.

Every fixture is a tiny project tree written under ``tmp_path`` with a
``repro``-named root so module names resolve the same way they do for
the real package (``core/x.py`` -> module ``core.x`` in the ``core``
decision package).
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.cli import main
from repro.devtools.effect import effect_rule_metadata
from repro.devtools.flow import (
    ProjectIndex,
    combined_rule_metadata,
    deep_lint_paths,
    deep_rule_metadata,
    report_to_sarif,
)
from repro.devtools.lint import Finding
from repro.errors import LintError


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


def deep(tmp_path, files, rule_id=None, **kwargs):
    kwargs.setdefault("include_shallow", False)
    report, _index = deep_lint_paths([make_tree(tmp_path, files)], **kwargs)
    if rule_id is None:
        return report.findings
    return [f for f in report.findings if f.rule_id == rule_id]


#: A set ranked by max() in a decision package: one flow-unordered-flow.
TAINT_BAD = """\
    def pick(extents):
        candidates = {e for e in extents}
        return max(candidates)
"""

TAINT_GOOD = """\
    def pick(extents):
        candidates = {e for e in extents}
        ranked = sorted(candidates)
        return max(ranked)
"""

#: A module global written on the forked-worker path: one
#: effect-shared-write.
SHARED_WRITE = {
    "sim/parallel.py": """\
        from repro.sim.stats import record

        WORKER_ENTRY_POINTS = ("run_spec",)

        def run_spec(spec):
            return record(spec)
    """,
    "sim/stats.py": """\
        _MEMO = {}

        def record(spec):
            _MEMO[spec] = 1
            return _MEMO
    """,
}


# ----------------------------------------------------------------------
# Call graph
# ----------------------------------------------------------------------


def test_unique_method_name_never_resolves_a_foreign_call(tmp_path):
    # ``load`` is defined once in the project, so a call on a project
    # object resolves to it by name; ``json.load`` must not.
    root = make_tree(
        tmp_path,
        {
            "sim/journal.py": """\
                class Journal:
                    def load(self):
                        return {}

                JOURNAL = Journal()
            """,
            "obs/read.py": """\
                import json

                from repro.sim.journal import JOURNAL

                def read(handle):
                    return json.load(handle)

                def read_shared():
                    return JOURNAL.load()
            """,
        },
    )
    index = ProjectIndex.build([root])
    callees = lambda qualname: [
        callee for _call, callee in index.call_edges[qualname]
    ]
    assert callees("obs.read.read") == []
    assert callees("obs.read.read_shared") == ["sim.journal.Journal.load"]


# ----------------------------------------------------------------------
# Determinism taint
# ----------------------------------------------------------------------


def test_taint_direct_set_into_max(tmp_path):
    assert deep(
        tmp_path, {"core/p.py": TAINT_BAD}, rule_id="flow-unordered-flow"
    )


def test_taint_flows_through_helper_return(tmp_path):
    src = """\
        def collect():
            return {1, 2, 3}

        def pick():
            items = collect()
            return max(items)
    """
    hits = deep(
        tmp_path, {"vmm/p.py": src}, rule_id="flow-unordered-flow"
    )
    assert len(hits) == 1
    assert hits[0].function.endswith("pick")


def test_taint_laundered_by_sorted(tmp_path):
    assert not deep(
        tmp_path, {"core/p.py": TAINT_GOOD}, rule_id="flow-unordered-flow"
    )


def test_taint_only_checked_in_decision_packages(tmp_path):
    src = """\
        def pick():
            return max({1, 2, 3})
    """
    # Same code, hw/ package: not a placement decision site.
    assert not deep(
        tmp_path, {"hw/p.py": src}, rule_id="flow-unordered-flow"
    )
    assert deep(
        tmp_path, {"core/p.py": src}, rule_id="flow-unordered-flow"
    )


def test_taint_does_not_double_report_shallow_lines(tmp_path):
    # max() over a direct dict view is the shallow unordered-placement
    # rule's finding; the deep pass must not add a second one.
    src = """\
        def pick(table):
            return max(table.keys())
    """
    report, _index = deep_lint_paths(
        [make_tree(tmp_path, {"core/p.py": src})], include_shallow=True
    )
    rule_ids = [f.rule_id for f in report.findings]
    assert "flow-unordered-flow" not in rule_ids
    assert "unordered-placement" in rule_ids


# ----------------------------------------------------------------------
# Engine: suppression, rule selection, function anchor
# ----------------------------------------------------------------------


def test_suppression_comment_covers_deep_rules(tmp_path):
    src = """\
        def pick(extents):
            candidates = {e for e in extents}
            # heterolint: disable-next-line=flow-unordered-flow
            return max(candidates)
    """
    report, _index = deep_lint_paths(
        [make_tree(tmp_path, {"core/p.py": src})], include_shallow=False
    )
    assert not report.findings
    assert any(
        f.rule_id == "flow-unordered-flow" for f in report.suppressed
    )


def test_rule_ids_select_only_named_deep_rules(tmp_path):
    files = {"core/p.py": TAINT_BAD, **SHARED_WRITE}
    assert {f.rule_id for f in deep(tmp_path, files)} == {
        "flow-unordered-flow", "effect-shared-write",
    }
    only_taint = deep(tmp_path, files, rule_ids=["flow-unordered-flow"])
    assert {f.rule_id for f in only_taint} == {"flow-unordered-flow"}


def test_unknown_rule_id_is_an_error(tmp_path):
    with pytest.raises(LintError):
        deep(tmp_path, {"core/p.py": TAINT_BAD}, rule_ids=["flow-bogus"])


def test_deep_findings_carry_function_anchor(tmp_path):
    hits = deep(tmp_path, {"core/p.py": TAINT_BAD})
    assert hits and all(f.function for f in hits)
    assert hits[0].function == "core.p.pick"


# ----------------------------------------------------------------------
# AST cache
# ----------------------------------------------------------------------


def test_cache_round_trip_preserves_findings(tmp_path):
    root = make_tree(tmp_path, {"core/p.py": TAINT_BAD, **SHARED_WRITE})
    cache_dir = tmp_path / "cache"
    cold, _ = deep_lint_paths([root], cache_dir=cache_dir)
    assert {f.rule_id for f in cold.findings} >= {
        "flow-unordered-flow", "effect-shared-write",
    }
    assert (
        len(list(cache_dir.glob("heteroflow-ast-*.pickle"))) == 1
    )
    warm, _ = deep_lint_paths([root], cache_dir=cache_dir)
    key = lambda f: (f.path, f.line, f.col, f.rule_id, f.message)
    assert sorted(map(key, warm.findings)) == sorted(map(key, cold.findings))


def test_cache_invalidated_by_source_change(tmp_path):
    root = make_tree(tmp_path, {"core/p.py": TAINT_BAD})
    cache_dir = tmp_path / "cache"
    first, _ = deep_lint_paths([root], cache_dir=cache_dir)
    assert first.findings
    (root / "core" / "p.py").write_text(
        textwrap.dedent(TAINT_GOOD), encoding="utf-8"
    )
    second, _ = deep_lint_paths([root], cache_dir=cache_dir)
    assert not second.findings


def test_cache_rejects_other_interpreters_payload(tmp_path):
    # The filename is tagged per Python minor, but a mis-keyed CI cache
    # can restore another interpreter's file under this name — the
    # payload-embedded version tag must reject it on load.
    import pickle

    from repro.devtools.flow.cache import AstCache, _cache_path

    root = make_tree(tmp_path, {"core/p.py": TAINT_BAD})
    cache_dir = tmp_path / "cache"
    deep_lint_paths([root], cache_dir=cache_dir)
    cache_file = _cache_path(cache_dir)
    payload = pickle.loads(cache_file.read_bytes())
    assert len(payload["python"]) == 2

    payload["python"] = (3, 999)
    cache_file.write_bytes(pickle.dumps(payload))
    files = sorted(root.rglob("*.py"))
    assert AstCache(cache_dir).load_contexts(files) == {}

    report, _ = deep_lint_paths([root], cache_dir=cache_dir)
    assert report.findings  # re-parsed from source, analysis intact


@pytest.mark.parametrize("damage", ["truncated", "version-skewed"])
def test_damaged_cache_is_rejected_and_rewritten(tmp_path, damage):
    import pickle

    from repro.devtools.flow.cache import AstCache, _cache_path

    root = make_tree(tmp_path, {"core/p.py": TAINT_BAD})
    cache_dir = tmp_path / "cache"
    cold, _ = deep_lint_paths([root], cache_dir=cache_dir)
    cache_file = _cache_path(cache_dir)
    good = cache_file.read_bytes()
    if damage == "truncated":
        cache_file.write_bytes(good[: len(good) // 2])
    else:
        payload = pickle.loads(good)
        payload["version"] -= 1
        cache_file.write_bytes(pickle.dumps(payload))
    files = sorted(root.rglob("*.py"))
    assert AstCache(cache_dir).load_contexts(files) == {}

    report, _ = deep_lint_paths([root], cache_dir=cache_dir)
    assert report.findings == cold.findings
    assert len(AstCache(cache_dir).load_contexts(files)) == len(files)


def test_warm_pass_reads_the_cache_once_and_writes_nothing(
    tmp_path, monkeypatch
):
    """A warm pass unpickles the payload once and leaves the file as it
    found it; a pass that parses a changed file rewrites it."""
    import os
    import pickle

    from repro.devtools.flow.cache import _cache_path

    root = make_tree(tmp_path, {"core/p.py": TAINT_BAD, **SHARED_WRITE})
    cache_dir = tmp_path / "cache"
    cold, _ = deep_lint_paths([root], cache_dir=cache_dir)
    cache_file = _cache_path(cache_dir)
    # An old mtime, so that any rewrite shows whatever the clock's grain.
    os.utime(cache_file, ns=(10**18, 10**18))
    written = cache_file.read_bytes()
    loads = []
    load = pickle.load
    monkeypatch.setattr(
        pickle, "load", lambda handle: loads.append(handle) or load(handle)
    )

    warm, _ = deep_lint_paths([root], cache_dir=cache_dir)
    assert len(loads) == 1
    assert cache_file.stat().st_mtime_ns == 10**18
    assert cache_file.read_bytes() == written
    assert warm.findings == cold.findings

    (root / "core" / "p.py").write_text(
        textwrap.dedent(TAINT_GOOD), encoding="utf-8"
    )
    deep_lint_paths([root], cache_dir=cache_dir)
    assert len(loads) == 2
    assert cache_file.stat().st_mtime_ns != 10**18


def test_corrupt_cache_degrades_gracefully(tmp_path):
    root = make_tree(tmp_path, {"core/p.py": TAINT_BAD})
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    for tag in cache_dir.glob("*"):
        tag.unlink()
    deep_lint_paths([root], cache_dir=cache_dir)
    for pickle_file in cache_dir.glob("heteroflow-ast-*.pickle"):
        pickle_file.write_bytes(b"not a pickle")
    report, _ = deep_lint_paths([root], cache_dir=cache_dir)
    assert report.findings  # analysis still ran


# ----------------------------------------------------------------------
# SARIF
# ----------------------------------------------------------------------

# Trimmed SARIF 2.1.0 schema: the structural subset GitHub code
# scanning actually validates (sarifLog -> runs -> tool/results ->
# locations), kept offline so the test needs no network.
SARIF_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"enum": ["2.1.0"]},
        "$schema": {"type": "string"},
        "runs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "ruleIndex": {
                                    "type": "integer", "minimum": 0
                                },
                                "level": {
                                    "enum": [
                                        "none", "note", "warning", "error"
                                    ]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "properties": {
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    }
                                                },
                                            }
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


def _validate_sarif(payload):
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(payload, SARIF_SCHEMA)


def test_sarif_output_validates_and_splits_tools(tmp_path):
    files = {
        "core/p.py": TAINT_BAD,  # deep finding -> heteroflow run
        "core/magic.py": "x = 4096\n",  # shallow finding -> heterolint run
    }
    report, _index = deep_lint_paths(
        [make_tree(tmp_path, files)], include_shallow=True
    )
    payload = report_to_sarif(report, combined_rule_metadata())
    _validate_sarif(payload)
    tool_names = {
        run["tool"]["driver"]["name"] for run in payload["runs"]
    }
    assert tool_names == {"heterolint", "heteroflow"}
    for run in payload["runs"]:
        rules = [r["id"] for r in run["tool"]["driver"]["rules"]]
        for result in run["results"]:
            assert rules[result["ruleIndex"]] == result["ruleId"]


def test_sarif_four_tool_runs_with_stable_namespaces(tmp_path):
    # One run object per tool when shallow lint, deep flow, effect, and
    # sanitizer findings land in the same report.
    files = {
        "core/p.py": TAINT_BAD,  # flow- -> heteroflow
        "core/magic.py": "x = 4096\n",  # bare id -> heterolint
        **SHARED_WRITE,  # effect- -> heteroeffect
    }
    report, _index = deep_lint_paths(
        [make_tree(tmp_path, files)], include_shallow=True
    )
    report.findings.append(
        Finding(
            rule_id="san-double-allocate",
            path="src/repro/guestos/kernel.py",
            line=10,
            col=0,
            message="frame allocated twice without an intervening free",
        )
    )
    payload = report_to_sarif(report, combined_rule_metadata())
    _validate_sarif(payload)
    by_name = {
        run["tool"]["driver"]["name"]: run for run in payload["runs"]
    }
    assert set(by_name) == {
        "heterolint", "heteroflow", "heteroeffect", "framesan",
    }
    prefix = {
        "heterolint": ("",),
        "heteroflow": ("flow-",),
        "heteroeffect": ("effect-",),
        "framesan": ("san-",),
    }
    for name, run in by_name.items():
        assert run["results"], name
        for result in run["results"]:
            rule_id = result["ruleId"]
            if name == "heterolint":
                assert not rule_id.startswith(("flow-", "san-", "effect-"))
            else:
                assert rule_id.startswith(prefix[name])
        if name == "framesan":
            # Sanitizer defect classes carry no static rationale table.
            continue
        # Every rule in the table has a real rationale, not an echo.
        for rule in run["tool"]["driver"]["rules"]:
            assert rule["shortDescription"]["text"] != rule["id"]


def test_sarif_clean_report_is_still_valid(tmp_path):
    report, _index = deep_lint_paths(
        [make_tree(tmp_path, {"core/ok.py": "x = 1\n"})]
    )
    payload = report_to_sarif(report)
    _validate_sarif(payload)
    assert payload["runs"][0]["results"] == []


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_deep_lint_and_sarif(tmp_path, capsys):
    root = make_tree(tmp_path, {"core/p.py": TAINT_BAD})
    assert main(["lint", "--deep", str(root)]) == 1
    assert "flow-unordered-flow" in capsys.readouterr().out

    assert main(["lint", "--deep", "--format", "sarif", str(root)]) == 1
    payload = json.loads(capsys.readouterr().out)
    _validate_sarif(payload)
    assert payload["runs"]


def test_cli_list_rules_includes_deep(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    # The one deep pass: the determinism taint and the effect rules.
    assert set(deep_rule_metadata()) == {
        "flow-unordered-flow", *effect_rule_metadata(),
    }
    for rule_id in deep_rule_metadata():
        assert f"{rule_id} [deep]" in out
    assert "flow-dim-" not in out and "flow-protocol-" not in out
