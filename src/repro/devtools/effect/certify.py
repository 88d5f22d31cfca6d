"""Phase-purity certification for the vectorized fast path.

``SimulationEngine.step`` declares its phase structure in a static
``STEP_PHASES`` marker (read here with ``ast.literal_eval`` — the
certifier never imports the engine): per phase, the methods it
executes (``roots``), the attribute locations it is allowed to mutate
(``writes``, trailing ``*`` wildcards), and the opaque/polymorphic
call patterns accepted on trust with a justification (``assume``).

A phase is **certified** when the effect summaries of its roots show
nothing beyond the declaration: no RNG draws, no order-dependent
iteration, no module-global writes, no fork/handle use, every
attribute write matching a declared pattern, and every escaping call
matching an ``assume`` pattern.  Certified phases own their state the
way HeteroOS's guest kernel owns its data structures — which is
exactly the property an optimisation needs before it can batch a
phase across epochs.

The result is the **ledger** (``heteroeffect-ledger.json``): a
deterministic JSON document pinned by CI, so a refactor that silently
impurifies a certified phase fails the build with the exact effect
that appeared.
"""

from __future__ import annotations

import ast
import json

from repro.devtools.effect.summary import EffectAnalysis
from repro.devtools.flow.graph import ProjectIndex
from repro.errors import LintError

__all__ = [
    "DEFAULT_LEDGER",
    "LEDGER_VERSION",
    "compute_ledger",
    "diff_ledgers",
    "ledger_json",
]

DEFAULT_LEDGER = "heteroeffect-ledger.json"
LEDGER_VERSION = 1

#: Module (index-normalized) and marker the phase contract lives in.
_ENGINE_MODULE = "sim.engine"
_MARKER = "STEP_PHASES"


def _load_marker(index: ProjectIndex, module_name: str) -> "dict | None":
    module = index.modules.get(module_name)
    if module is None:
        return None
    for node in module.ctx.tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == _MARKER
        ):
            try:
                value = ast.literal_eval(node.value)
            except ValueError:
                return None
            return value if isinstance(value, dict) else None
    return None


def _matches(ident: str, pattern: str) -> bool:
    if pattern.endswith("*"):
        return ident.startswith(pattern[:-1])
    return ident == pattern


def _matches_any(ident: str, patterns) -> "str | None":
    for pattern in patterns:
        if _matches(ident, pattern):
            return pattern
    return None


def _entry(ident: str, via: str) -> str:
    return f"{ident} (via {via})" if via else ident


def compute_ledger(
    index: ProjectIndex,
    analysis: "EffectAnalysis | None" = None,
    module_name: str = _ENGINE_MODULE,
) -> dict:
    """Certify every declared phase; returns the ledger document.

    Raises :class:`~repro.errors.LintError` when the tree has no
    ``STEP_PHASES`` marker — certification without a contract is
    meaningless.
    """
    marker = _load_marker(index, module_name)
    if marker is None:
        raise LintError(
            f"no {_MARKER} marker found in module {module_name!r}; "
            "the engine must declare its phase contract"
        )
    if analysis is None:
        analysis = EffectAnalysis(index)
    phases: "dict[str, dict]" = {}
    for phase_name in sorted(marker):
        declaration = marker[phase_name] or {}
        roots = list(declaration.get("roots", []))
        declared_writes = sorted(declaration.get("writes", []))
        assume = dict(declaration.get("assume", {}))
        violations: "set[str]" = set()
        observed_writes: "set[str]" = set()
        assumed_used: "set[str]" = set()
        for root in roots:
            qualname = f"{module_name}.{root}"
            summary = analysis.summaries.get(qualname)
            if summary is None:
                violations.add(f"missing-root {qualname}")
                continue
            for stream, via in sorted(summary.rng_streams.items()):
                violations.add(_entry(f"rng-draw {stream}", via))
            for ident, via in sorted(summary.order_dep.items()):
                violations.add(_entry(f"order-dep {ident}", via))
            for ident, via in sorted(summary.global_writes.items()):
                violations.add(_entry(f"global-write {ident}", via))
            for ident, via in sorted(summary.forks.items()):
                violations.add(_entry(f"fork {ident}", via))
            for ident, via in sorted(summary.handle_uses.items()):
                violations.add(_entry(f"handle-use {ident}", via))
            for ident, via in sorted(summary.attr_writes.items()):
                if _matches_any(ident, declared_writes) is not None:
                    observed_writes.add(ident)
                else:
                    violations.add(_entry(f"undeclared-write {ident}", via))
            for table, label in (
                (summary.opaque_calls, "unknown-call"),
                (summary.poly_calls, "polymorphic-call"),
            ):
                for ident, via in sorted(table.items()):
                    matched = _matches_any(ident, assume)
                    if matched is not None:
                        assumed_used.add(matched)
                    else:
                        violations.add(_entry(f"{label} {ident}", via))
        phases[phase_name] = {
            "certified": not violations,
            "roots": roots,
            "declared_writes": declared_writes,
            "observed_writes": sorted(observed_writes),
            "assumed": {
                pattern: assume[pattern] for pattern in sorted(assumed_used)
            },
            "violations": sorted(violations),
        }
    return {
        "version": LEDGER_VERSION,
        "generator": "heteroeffect",
        "module": module_name,
        "phases": phases,
    }


def ledger_json(ledger: dict) -> str:
    """Canonical (deterministic, diff-friendly) ledger serialization."""
    return json.dumps(ledger, indent=2, sort_keys=True) + "\n"


def diff_ledgers(committed: dict, fresh: dict) -> "list[str]":
    """Human-readable differences (empty = ledgers agree)."""
    problems: "list[str]" = []
    if committed.get("version") != fresh.get("version"):
        problems.append(
            f"ledger version {committed.get('version')} != "
            f"{fresh.get('version')}"
        )
    committed_phases = committed.get("phases", {})
    fresh_phases = fresh.get("phases", {})
    for name in sorted(set(committed_phases) | set(fresh_phases)):
        before = committed_phases.get(name)
        after = fresh_phases.get(name)
        if before is None:
            problems.append(f"phase {name!r}: new (not in committed ledger)")
            continue
        if after is None:
            problems.append(f"phase {name!r}: gone from the fresh run")
            continue
        if before.get("certified") and not after.get("certified"):
            gained = sorted(
                set(after.get("violations", []))
                - set(before.get("violations", []))
            )
            problems.append(
                f"phase {name!r}: DECERTIFIED — new uncertified effect(s): "
                + "; ".join(gained or ["(none listed)"])
            )
            continue
        if before != after:
            for key in sorted(set(before) | set(after)):
                if before.get(key) != after.get(key):
                    problems.append(
                        f"phase {name!r}: {key} changed "
                        f"({before.get(key)!r} -> {after.get(key)!r})"
                    )
    return problems
