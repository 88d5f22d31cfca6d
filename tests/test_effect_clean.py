"""Meta-test: the shipped tree has no ``effect-*`` finding under
``repro lint --deep``."""

from __future__ import annotations

import pathlib

import repro
from repro.devtools.effect import effect_rule_metadata
from repro.devtools.flow import deep_lint_paths

PACKAGE_DIR = pathlib.Path(repro.__file__).parent


def test_shipped_tree_has_zero_effect_findings():
    report, index = deep_lint_paths(
        [PACKAGE_DIR],
        rule_ids=effect_rule_metadata(),
        include_shallow=False,
    )
    assert index.files_indexed >= 80
    assert report.findings == [], "\n" + report.format_human()
