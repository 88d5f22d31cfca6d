"""SARIF 2.1.0 output for the whole devtools family.

GitHub code scanning renders SARIF uploads as inline PR annotations,
which turns a CI lint failure from a log line into a review comment on
the offending line.  One run object per tool pass; every rule carries
its identifier, rationale, and the shared rule-ID namespace documented
in docs/devtools.md (bare kebab-case for shallow heterolint rules,
``flow-`` for heteroflow's taint, ``san-`` for FrameSanitizer defect
classes, ``effect-`` for heteroeffect race, fork-safety and
observation-purity rules).
"""

from __future__ import annotations

import json

from repro.devtools.lint import Finding, LintReport

__all__ = ["SARIF_VERSION", "SARIF_SCHEMA_URI", "report_to_sarif", "sarif_json"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Tool metadata per rule-ID namespace.
_TOOL_INFO = {
    "lint": ("heterolint", "simulator-specific single-file AST rules"),
    "flow": ("heteroflow", "whole-program determinism taint analysis"),
    "san": ("framesan", "runtime frame-ownership sanitizer"),
    "effect": ("heteroeffect", "interprocedural effect/race analysis"),
}


def _tool_key(rule_id: str) -> str:
    if rule_id.startswith("flow-"):
        return "flow"
    if rule_id.startswith("san-"):
        return "san"
    if rule_id.startswith("effect-"):
        return "effect"
    return "lint"


def _result(finding: Finding) -> dict:
    result = {
        "ruleId": finding.rule_id,
        "level": "error",
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path.replace("\\", "/"),
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": max(finding.line, 1),
                        "startColumn": max(finding.col + 1, 1),
                    },
                },
            }
        ],
    }
    if finding.function:
        result["locations"][0]["logicalLocations"] = [
            {"fullyQualifiedName": finding.function, "kind": "function"}
        ]
    return result


def report_to_sarif(
    report: LintReport,
    rule_metadata: "dict[str, str] | None" = None,
) -> dict:
    """A :class:`LintReport` (shallow, deep, or combined) as a SARIF
    2.1.0 log object.  ``rule_metadata`` maps rule ids to one-line
    rationales for the rule table."""
    rule_metadata = rule_metadata or {}
    by_tool: "dict[str, list[Finding]]" = {}
    for finding in report.findings:
        by_tool.setdefault(_tool_key(finding.rule_id), []).append(finding)
    runs = []
    for tool_key in sorted(by_tool):
        findings = by_tool[tool_key]
        name, description = _TOOL_INFO[tool_key]
        rule_ids = sorted({finding.rule_id for finding in findings})
        rules = [
            {
                "id": rule_id,
                "shortDescription": {
                    "text": rule_metadata.get(rule_id, rule_id)
                },
                "defaultConfiguration": {"level": "error"},
            }
            for rule_id in rule_ids
        ]
        rule_index = {rule_id: position for position, rule_id in enumerate(rule_ids)}
        results = []
        for finding in findings:
            result = _result(finding)
            result["ruleIndex"] = rule_index[finding.rule_id]
            results.append(result)
        runs.append(
            {
                "tool": {
                    "driver": {
                        "name": name,
                        "informationUri": (
                            "https://github.com/heteroos-repro/docs/devtools.md"
                        ),
                        "version": "1.0.0",
                        "shortDescription": {"text": description},
                        "rules": rules,
                    }
                },
                "columnKind": "utf16CodeUnits",
                "results": results,
            }
        )
    if not runs:
        # A clean pass still emits a valid log with one empty run.
        runs = [
            {
                "tool": {
                    "driver": {
                        "name": "heterolint",
                        "version": "1.0.0",
                        "rules": [],
                    }
                },
                "columnKind": "utf16CodeUnits",
                "results": [],
            }
        ]
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": runs,
    }


def sarif_json(
    report: LintReport, rule_metadata: "dict[str, str] | None" = None
) -> str:
    return json.dumps(report_to_sarif(report, rule_metadata), indent=2)
