"""Developer tooling for the simulator: static analysis + runtime checkers.

Five parts, sharing one rule-ID namespace (see docs/devtools.md):

* :mod:`repro.devtools.lint` — **heterolint**, an AST rule engine that
  mechanically enforces the invariants DESIGN.md relies on (determinism,
  the ``ReproError`` hierarchy, ``repro.units`` constants, layering, ...).
  Bare kebab-case rule ids.
* :mod:`repro.devtools.flow` — **heteroflow**, whole-program dimension
  inference, protocol typestate checking, and determinism taint over the
  project call graph, run as ``repro lint --deep``.  ``flow-`` rule ids.
* :mod:`repro.devtools.effect` — **heteroeffect**, effect and race
  analysis plus phase certification (``repro lint --effects``,
  ``repro certify``).  ``effect-`` rule ids.
* :mod:`repro.devtools.contract` — **heterocontract**, cross-layer
  contract drift (``repro lint --contracts``).  ``contract-`` rule ids.
* :mod:`repro.devtools.sanitizer` — **FrameSanitizer**, an ASan-style
  shadow-state checker for frame ownership (double-free, leak,
  use-after-free, migration ownership races), enabled with
  ``SimConfig(sanitize=True)`` or ``repro sanitize-check``.  ``san-``
  defect-class ids in SARIF output.

The package itself re-exports nothing: import the submodule you need
(``from repro.devtools.lint import lint_paths``).  The simulator
imports only the sanitizer, and only under ``SimConfig(sanitize=True)``,
so running an experiment never compiles the static analyzers.
"""
