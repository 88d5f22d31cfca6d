"""heteroflow — whole-program dimension, typestate, and taint analysis.

heterolint (PR 1) checks one file at a time; heteroflow parses all of
``src/repro`` once, builds a project symbol table and call graph
(:mod:`~repro.devtools.flow.graph`), and runs three interprocedural
analyses over it:

* **dimension inference** (:mod:`~repro.devtools.flow.dims`) — seeds
  ns/bytes/pages/instructions/epochs from :mod:`repro.units` aliases,
  constants, and naming conventions, propagates them through
  assignments, returns, and call arguments, and flags mixed-dimension
  arithmetic (``flow-dim-mix``/``-assign``/``-arg``/``-return``);
* **protocol typestate** (:mod:`~repro.devtools.flow.protocols`) —
  declarative finite-state contracts: access-bit clear needs a charged
  TLB flush, migration passes commit or abort, hidden balloon spans are
  surrendered or revealed, freed regions stay untouched
  (``flow-protocol-*``);
* **determinism taint** (:mod:`~repro.devtools.flow.taint`) — unordered
  dict/set iteration tracked through return values and call chains into
  placement decisions (``flow-unordered-flow``).

Run it as ``python -m repro lint --deep``; findings reuse heterolint's
:class:`~repro.devtools.lint.Finding` type, suppression comments, and
exit codes, plus a committed baseline file for accepted findings.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.devtools.flow.baseline import DEFAULT_BASELINE, Baseline, BaselineEntry
from repro.devtools.flow.cache import load_contexts, store_contexts
from repro.devtools.flow.dims import DIMENSIONS, DimensionAnalysis
from repro.devtools.flow.graph import ProjectIndex
from repro.devtools.flow.protocols import (
    CORE_PROTOCOLS,
    ProtocolAnalysis,
    ProtocolSpec,
)
from repro.devtools.flow.sarif import report_to_sarif, sarif_json
from repro.devtools.flow.taint import TaintAnalysis
from repro.devtools.lint import (
    FileContext,
    Finding,
    LintReport,
    _make_rules,
    all_rules,
    iter_python_files,
)
from repro.errors import LintError

__all__ = [
    "Baseline",
    "BaselineEntry",
    "DEFAULT_BASELINE",
    "DIMENSIONS",
    "CORE_PROTOCOLS",
    "ProtocolSpec",
    "ProjectIndex",
    "changed_python_files",
    "deep_lint_paths",
    "deep_rule_metadata",
    "report_to_sarif",
    "sarif_json",
    "scope_to_changed",
]


def deep_rule_metadata() -> "dict[str, str]":
    """Every deep rule id -> one-line rationale (the ``flow-`` half of
    the namespace documented in docs/devtools.md)."""
    metadata = {
        "flow-dim-mix": (
            "adding/comparing values of different dimensions (ns, bytes, "
            "pages, instructions, epochs) corrupts every downstream number"
        ),
        "flow-dim-assign": (
            "a name/annotation declares one dimension but the assigned "
            "value carries another"
        ),
        "flow-dim-arg": (
            "a call passes a value of one dimension into a parameter "
            "declared as another (the page-count-into-bytes-API bug)"
        ),
        "flow-dim-return": (
            "a function annotated to return one dimension returns another"
        ),
        "flow-unordered-flow": (
            "unordered dict/set iteration reaching a placement decision "
            "through the call graph makes the victim an accident of "
            "allocation history"
        ),
    }
    for spec in CORE_PROTOCOLS:
        metadata[spec.protocol_id] = spec.description
    return metadata


def combined_rule_metadata() -> "dict[str, str]":
    """Shallow + deep + effect rule ids -> rationale, for SARIF rule
    tables."""
    from repro.devtools.effect import effect_rule_metadata

    metadata = {
        rule_id: rule_cls.rationale
        for rule_id, rule_cls in all_rules().items()
    }
    metadata.update(deep_rule_metadata())
    metadata.update(effect_rule_metadata())
    return metadata


def changed_python_files(
    paths: "Iterable[str | Path]",
) -> "set[Path] | None":
    """Resolved paths of every ``.py`` file under ``paths`` that git
    reports as modified (vs HEAD) or untracked; None when git or a
    work tree is unavailable (callers should fall back to a full run).
    """
    import subprocess

    def _git(*argv: str, cwd: "str | None" = None) -> str:
        return subprocess.run(
            ["git", *argv],
            capture_output=True, text=True, check=True, cwd=cwd,
        ).stdout

    try:
        top = _git("rev-parse", "--show-toplevel").strip()
        listed = _git("diff", "--name-only", "HEAD", "--", cwd=top)
        listed += _git(
            "ls-files", "--others", "--exclude-standard", cwd=top
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    roots = [Path(p).resolve() for p in paths]
    changed: "set[Path]" = set()
    for line in listed.splitlines():
        if not line.endswith(".py"):
            continue
        path = (Path(top) / line).resolve()
        if not path.is_file():  # deleted files have nothing to lint
            continue
        if any(path == root or root in path.parents for root in roots):
            changed.add(path)
    return changed


def scope_to_changed(
    report: LintReport,
    index: ProjectIndex,
    changed: "set[Path]",
) -> LintReport:
    """Drop findings outside the changed-file closure, in place.

    The deep analyses are whole-program, so a change in one file can
    surface a finding anchored in an *unchanged* caller (a dimension
    mismatch at a call site, a protocol step in a caller).  The closure
    is the changed files plus every file holding a transitive caller of
    a function they define — the reverse call-graph cone that a change
    can actually affect.
    """
    keep = set(changed)
    frontier = [
        qualname
        for qualname, info in index.functions.items()
        if Path(info.ctx.relpath).resolve() in keep
    ]
    seen = set(frontier)
    while frontier:
        qualname = frontier.pop()
        for caller_qualname, _call in index.callers.get(qualname, ()):
            if caller_qualname in seen:
                continue
            seen.add(caller_qualname)
            frontier.append(caller_qualname)
            info = index.functions.get(caller_qualname)
            if info is not None:
                keep.add(Path(info.ctx.relpath).resolve())
    report.findings = [
        finding
        for finding in report.findings
        if Path(finding.path).resolve() in keep
    ]
    return report


def _parse_all(
    paths: "Iterable[str | Path]",
    cache_dir: "str | Path | None",
) -> "tuple[list[Path], dict[str, FileContext]]":
    files = iter_python_files(paths)
    contexts: "dict[str, FileContext]" = {}
    if cache_dir is not None:
        contexts = load_contexts(cache_dir, files)
    for path in files:
        relpath = str(path)
        if relpath in contexts:
            continue
        try:
            contexts[relpath] = FileContext.parse(
                path.read_text(encoding="utf-8"), relpath
            )
        except SyntaxError:
            continue
    if cache_dir is not None:
        store_contexts(cache_dir, contexts)
    return files, contexts


def deep_lint_paths(
    paths: "Iterable[str | Path]",
    rule_ids: "Iterable[str] | None" = None,
    baseline: "Baseline | None" = None,
    cache_dir: "str | Path | None" = None,
    include_shallow: bool = True,
    include_deep: bool = True,
    include_effects: bool = False,
    protocols: "tuple[ProtocolSpec, ...]" = CORE_PROTOCOLS,
) -> "tuple[LintReport, ProjectIndex]":
    """Run heteroflow (and, by default, the shallow heterolint rules)
    over every ``.py`` file under ``paths``.

    ``include_effects`` adds the heteroeffect race/fork-safety and
    observation-purity rules (``effect-*``) over one (cache-restorable)
    :class:`EffectAnalysis`; ``include_deep=False`` skips the
    heteroflow analyses so ``--effects`` can run without ``--deep``.
    Returns the combined report and the project index it was computed
    from.  Suppression comments apply to deep findings exactly as they
    do to shallow ones; ``baseline``-accepted findings are moved to the
    report's suppressed list.
    """
    from repro.devtools.effect import effect_rule_metadata

    wanted = set(rule_ids) if rule_ids is not None else None
    if wanted is not None:
        known = (
            set(all_rules())
            | set(deep_rule_metadata())
            | set(effect_rule_metadata())
        )
        unknown = sorted(wanted - known)
        if unknown:
            raise LintError(f"unknown rule(s): {', '.join(unknown)}")
    files, contexts = _parse_all(paths, cache_dir)
    report = LintReport(files_checked=len(files))
    index = ProjectIndex.build(paths, contexts=contexts)

    shallow_lines: "set[tuple[str, int]]" = set()
    if include_shallow:
        if wanted is None:
            shallow_rules = _make_rules(None)
        else:
            shallow_ids = [r for r in wanted if r in all_rules()]
            shallow_rules = _make_rules(shallow_ids) if shallow_ids else []
        for relpath in sorted(contexts):
            ctx = contexts[relpath]
            for rule in shallow_rules:
                for finding in rule.check(ctx):
                    if finding.rule_id == "unordered-placement":
                        # Even when suppressed, the shallow rule owns the
                        # line — the deep taint pass must not re-report it.
                        shallow_lines.add((finding.path, finding.line))
                    if ctx.suppressed(finding):
                        report.suppressed.append(finding)
                    elif baseline is not None and baseline.accepts(finding):
                        report.suppressed.append(finding)
                    else:
                        report.findings.append(finding)

    deep_pairs = []
    if include_deep:
        dimension_analysis = DimensionAnalysis(index)
        deep_pairs.extend(dimension_analysis.check())
        protocol_analysis = ProtocolAnalysis(index, specs=protocols)
        deep_pairs.extend(protocol_analysis.check())
        taint_analysis = TaintAnalysis(index)
        deep_pairs.extend(taint_analysis.check())
    if include_effects:
        from repro.devtools.effect import EffectRules, cached_effect_analysis

        analysis = cached_effect_analysis(index, cache_dir)
        deep_pairs.extend(EffectRules(analysis).check())

    seen: "set[tuple]" = set()
    for ctx_info, finding in deep_pairs:
        if wanted is not None and finding.rule_id not in wanted:
            continue
        fingerprint = (
            finding.rule_id, finding.path, finding.line, finding.col,
            finding.message,
        )
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        if (
            finding.rule_id == "flow-unordered-flow"
            and (finding.path, finding.line) in shallow_lines
        ):
            # The shallow unordered-placement rule already reported this
            # line; one finding per defect.
            continue
        ctx = ctx_info.ctx
        if ctx.suppressed(finding):
            report.suppressed.append(finding)
        elif baseline is not None and baseline.accepts(finding):
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)

    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return report, index
