"""Meta-tests: the shipped tree has no ``effect-*`` finding under
``repro lint --deep``, and the committed ``heteroeffect-ledger.json``
matches a fresh certification run — including the phases it claims are
certified.

The last test is the CI contract in miniature: it copies the package,
impurifies a certified phase (an RNG draw plus an undeclared attribute
write inside ``_timing_phase``), re-certifies, and asserts the phase
is decertified with exactly those violations and that
:func:`diff_ledgers` reports the DECERTIFIED transition.  A refactor
that silently adds an effect to a certified phase fails the build the
same way.
"""

from __future__ import annotations

import json
import pathlib
import shutil

import repro
from repro.devtools.effect import (
    DEFAULT_LEDGER,
    EffectAnalysis,
    compute_ledger,
    diff_ledgers,
    effect_rule_metadata,
    ledger_json,
)
from repro.devtools.flow import ProjectIndex, deep_lint_paths

PACKAGE_DIR = pathlib.Path(repro.__file__).parent
REPO_ROOT = PACKAGE_DIR.parent.parent
LEDGER_PATH = REPO_ROOT / DEFAULT_LEDGER


def _fresh_ledger(package_dir=PACKAGE_DIR):
    index = ProjectIndex.build([package_dir])
    return compute_ledger(index, EffectAnalysis(index))


def test_shipped_tree_has_zero_effect_findings():
    report, index = deep_lint_paths(
        [PACKAGE_DIR],
        rule_ids=effect_rule_metadata(),
        include_shallow=False,
    )
    assert index.files_indexed >= 80
    assert report.findings == [], "\n" + report.format_human()


def test_committed_ledger_matches_fresh_run():
    committed = json.loads(LEDGER_PATH.read_text(encoding="utf-8"))
    fresh = _fresh_ledger()
    problems = diff_ledgers(committed, fresh)
    assert problems == [], (
        "heteroeffect-ledger.json is stale — re-run `repro certify` "
        "and review the diff:\n" + "\n".join(problems)
    )
    # Byte-identical too: the file is the canonical serialization.
    assert LEDGER_PATH.read_text(encoding="utf-8") == ledger_json(fresh)


def test_timing_and_sample_phases_are_certified():
    committed = json.loads(LEDGER_PATH.read_text(encoding="utf-8"))
    phases = committed["phases"]
    assert phases["timing"]["certified"], phases["timing"]["violations"]
    assert phases["sample"]["certified"], phases["sample"]["violations"]
    # The fast-path prerequisites the certificates actually assert:
    assert "RunStats.stall_ns_by_device" in (
        phases["timing"]["observed_writes"]
    )
    assert any(
        ident.startswith("SimulationEngine._prev_")
        for ident in phases["sample"]["observed_writes"]
    )


def test_impurified_phase_is_decertified(tmp_path):
    committed = json.loads(LEDGER_PATH.read_text(encoding="utf-8"))
    assert committed["phases"]["timing"]["certified"]

    copy_dir = tmp_path / "repro"
    shutil.copytree(
        PACKAGE_DIR, copy_dir, ignore=shutil.ignore_patterns("__pycache__")
    )
    engine = copy_dir / "sim" / "engine.py"
    source = engine.read_text(encoding="utf-8")
    anchor = "        stall_total = 0.0\n"
    assert source.count(anchor) == 1, "impurify anchor moved; update test"
    engine.write_text(
        source.replace(
            anchor,
            "        stall_total = self.rng.random()\n"
            "        self._timing_scratch = stall_total\n",
        ),
        encoding="utf-8",
    )

    fresh = _fresh_ledger(copy_dir)
    timing = fresh["phases"]["timing"]
    assert not timing["certified"]
    kinds = {v.split(" ", 1)[0] for v in timing["violations"]}
    assert "rng-draw" in kinds
    assert "undeclared-write" in kinds

    problems = diff_ledgers(committed, fresh)
    assert any(
        "timing" in p and "DECERTIFIED" in p and "rng-draw" in p
        for p in problems
    )
