"""Meta-test: the shipped tree must pass ``repro lint --deep`` clean.

The one deep pass is the determinism taint plus the heteroeffect
rules.  Any new finding is either a real bug (fix it) or a
line-suppressible false positive (``# heterolint: disable-next-line=``
works for deep rules too, with a comment saying why).  See
docs/devtools.md.
"""

from __future__ import annotations

import pathlib

import repro
from repro.devtools.flow import deep_lint_paths

PACKAGE_DIR = pathlib.Path(repro.__file__).parent


def test_shipped_tree_has_zero_unbaselined_deep_findings():
    report, index = deep_lint_paths([PACKAGE_DIR])
    assert report.files_checked >= 80
    assert index.files_indexed >= 80
    assert report.findings == [], "\n" + report.format_human()
