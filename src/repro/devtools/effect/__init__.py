"""heteroeffect — interprocedural effect inference.

Third member of the devtools family (heterolint sees one file,
heteroflow sees the call graph, heteroeffect sees *state*): a
fixpoint over heteroflow's :class:`~repro.devtools.flow.graph.ProjectIndex`
computes, per function, which module globals and object attributes it
transitively writes, which RNG streams it draws from, whether it forks,
and where it iterates unordered containers while drawing or writing.
The **rules** (part of ``repro lint --deep``, ``effect-*`` rule ids)
read the summaries: they guard the forked sweep workers against races
and fork hazards, and the telemetry plane against writing the state it
observes (``effect-obs-pure``).

See docs/devtools.md for the rule table.
"""

from __future__ import annotations

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
    "EffectAnalysis",
    "EffectRules",
    "EffectSite",
    "EffectSummary",
    "analysis_cache_key",
    "cached_effect_analysis",
    "effect_rule_metadata",
    "worker_entry_points",
]
