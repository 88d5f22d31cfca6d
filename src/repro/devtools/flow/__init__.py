"""heteroflow — the whole-program pass behind ``repro lint --deep``.

heterolint sees one file at a time; heteroflow parses all of
``src/repro`` once, builds a project symbol table and call graph
(:mod:`~repro.devtools.flow.graph`), and runs the checks that need it:

* **determinism taint** (:mod:`~repro.devtools.flow.taint`) — unordered
  dict/set iteration tracked through return values and call chains into
  placement decisions (``flow-unordered-flow``);
* heteroeffect's race, fork-safety and observation-purity rules
  (``effect-*``, :mod:`repro.devtools.effect`) over an effect fixpoint
  computed on the same index.

Parsed ASTs and the effect fixpoint persist in an optional on-disk
cache (:mod:`~repro.devtools.flow.cache`).  Findings reuse heterolint's
:class:`~repro.devtools.lint.Finding` type, suppression comments and
exit codes; :mod:`~repro.devtools.flow.sarif` writes any report as
SARIF 2.1.0.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.devtools.flow.cache import AstCache
from repro.devtools.flow.graph import ProjectIndex
from repro.devtools.flow.sarif import report_to_sarif, sarif_json
from repro.devtools.flow.taint import TaintAnalysis
from repro.devtools.lint import (
    FileContext,
    LintReport,
    _make_rules,
    all_rules,
    iter_python_files,
)
from repro.errors import LintError

__all__ = [
    "ProjectIndex",
    "changed_python_files",
    "deep_lint_paths",
    "deep_rule_metadata",
    "report_to_sarif",
    "sarif_json",
    "scope_to_changed",
]


def deep_rule_metadata() -> "dict[str, str]":
    """Every rule id of the whole-program pass -> one-line rationale:
    the determinism taint and heteroeffect's ``effect-*`` rules."""
    from repro.devtools.effect import effect_rule_metadata

    metadata = {
        "flow-unordered-flow": (
            "unordered dict/set iteration reaching a placement decision "
            "through the call graph makes the victim an accident of "
            "allocation history"
        ),
    }
    metadata.update(effect_rule_metadata())
    return metadata


def combined_rule_metadata() -> "dict[str, str]":
    """Shallow + deep rule ids -> rationale, for SARIF rule tables."""
    metadata = {
        rule_id: rule_cls.rationale
        for rule_id, rule_cls in all_rules().items()
    }
    metadata.update(deep_rule_metadata())
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

    The deep pass is whole-program, so a change in one file can surface
    a finding anchored in an *unchanged* caller (unordered values that
    a changed helper now returns, a worker-reachable write a changed
    callee now makes).  The closure is the changed files plus every
    file holding a transitive caller of a function they define — the
    reverse call-graph cone that a change can actually affect.
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
    cache: "AstCache | None",
) -> "tuple[list[Path], dict[str, FileContext]]":
    files = iter_python_files(paths)
    contexts: "dict[str, FileContext]" = {}
    if cache is not None:
        contexts = cache.load_contexts(files)
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
    if cache is not None:
        cache.store_contexts(contexts)
    return files, contexts


def deep_lint_paths(
    paths: "Iterable[str | Path]",
    rule_ids: "Iterable[str] | None" = None,
    cache_dir: "str | Path | None" = None,
    include_shallow: bool = True,
) -> "tuple[LintReport, ProjectIndex]":
    """Run the whole-program pass (and, by default, the shallow
    heterolint rules) over every ``.py`` file under ``paths``.

    The pass is the determinism taint plus the heteroeffect rules over
    one (cache-restorable) :class:`EffectAnalysis`.  Returns the
    combined report and the project index it was computed from.
    Suppression comments apply to deep findings exactly as they do to
    shallow ones.
    """
    from repro.devtools.effect import EffectRules, cached_effect_analysis

    wanted = set(rule_ids) if rule_ids is not None else None
    if wanted is not None:
        known = set(all_rules()) | set(deep_rule_metadata())
        unknown = sorted(wanted - known)
        if unknown:
            raise LintError(f"unknown rule(s): {', '.join(unknown)}")
    cache = AstCache(cache_dir) if cache_dir is not None else None
    files, contexts = _parse_all(paths, cache)
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
                    else:
                        report.findings.append(finding)

    deep_pairs = list(TaintAnalysis(index).check())
    analysis = cached_effect_analysis(index, cache)
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
        if ctx_info.ctx.suppressed(finding):
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)

    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return report, index
