"""Developer tooling for the simulator: static analysis + runtime checkers.

Four parts, sharing one rule-ID namespace (see docs/devtools.md):

* :mod:`repro.devtools.lint` — **heterolint**, an AST rule engine that
  mechanically enforces the invariants DESIGN.md relies on (determinism,
  the ``ReproError`` hierarchy, ``repro.units`` constants, layering, ...).
  Bare kebab-case rule ids.
* :mod:`repro.devtools.flow` — **heteroflow**, the project call graph
  and the one whole-program pass, ``repro lint --deep``: determinism
  taint (``flow-`` rule ids) plus heteroeffect's rules.
* :mod:`repro.devtools.effect` — **heteroeffect**, effect, race and
  observation-purity analysis (part of ``repro lint --deep``).
  ``effect-`` rule ids.
* :mod:`repro.devtools.sanitizer` — **FrameSanitizer**, an ASan-style
  shadow-state checker for frame ownership (double-free, leak,
  use-after-free, migration ownership races), enabled with
  ``SimConfig(sanitize=True)`` or ``repro sanitize-check``.  ``san-``
  defect-class ids in SARIF output.

The package itself re-exports nothing: import the submodule you need
(``from repro.devtools.lint import lint_paths``).  The simulator
imports only the sanitizer, and only under ``SimConfig(sanitize=True)``,
so running an experiment never compiles the static analyzers.

Declarations that mirror each other across layers (spec fields and the
cache key, sample fields and run totals, fault kinds and their sources,
factories and registries) are pinned by plain tests on the live
objects, next to the tests of each declaration; docs/devtools.md lists
which test reads which pair.
"""
