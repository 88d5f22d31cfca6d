"""heteroeffect — interprocedural effect inference and phase purity.

Third member of the devtools family (heterolint sees one file,
heteroflow sees the call graph, heteroeffect sees *state*): a
fixpoint over heteroflow's :class:`~repro.devtools.flow.graph.ProjectIndex`
computes, per function, which module globals and object attributes it
transitively writes, which RNG streams it draws from, where it
iterates unordered containers while doing either, and which calls
escape the analysis.  Two clients share the summaries:

* the **rules** (part of ``repro lint --deep``, ``effect-*`` rule ids)
  guard the forked sweep workers against races and fork hazards, and
  the telemetry plane against writing the state it observes
  (``effect-obs-pure``);
* the phase **certifier** (``repro certify``) proves which
  ``SimulationEngine.step`` phases are free of cross-phase hidden
  state and writes the ``heteroeffect-ledger.json`` CI pins.

See docs/devtools.md for the rule table and a certification
walkthrough.
"""

from __future__ import annotations

from repro.devtools.effect.certify import (
    DEFAULT_LEDGER,
    LEDGER_VERSION,
    compute_ledger,
    diff_ledgers,
    ledger_json,
)
from repro.devtools.effect.rules import (
    EffectRules,
    effect_rule_metadata,
    worker_entry_points,
)
from repro.devtools.effect.summary import (
    EffectAnalysis,
    EffectSite,
    EffectSummary,
    analysis_cache_key,
    cached_effect_analysis,
)

__all__ = [
    "DEFAULT_LEDGER",
    "EffectAnalysis",
    "EffectRules",
    "EffectSite",
    "EffectSummary",
    "LEDGER_VERSION",
    "analysis_cache_key",
    "cached_effect_analysis",
    "compute_ledger",
    "diff_ledgers",
    "effect_rule_metadata",
    "ledger_json",
    "worker_entry_points",
]
