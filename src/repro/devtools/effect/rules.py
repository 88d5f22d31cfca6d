"""heteroeffect race, fork-safety and observation-purity rules.

Five rules over the effect summaries.  Four are aimed at the parallel
sweep path (``repro.sim.parallel`` forks worker processes) and the
planned event kernel:

* ``effect-shared-write`` — a function reachable from a forked worker
  entry point writes a module global; parent and workers race on it
  and worker writes are silently lost at join.
* ``effect-fork-unsafe`` — a worker-reachable function uses a
  module-global OS handle (opened at import time, shared across
  ``fork``), or calls ``os.fork`` directly outside the sweep runner.
* ``effect-rng-aliasing`` — one function draws from two distinct RNG
  streams, or draws from a stream it also hands to a callee that
  draws from it; either way the draw interleaving is an accident of
  statement order and defeats per-stream accounting.
* ``effect-order-dep`` — a loop over an unordered container whose body
  (transitively) draws RNG or writes shared state; iteration order
  becomes part of the result.

The fifth guards the no-perturbation contract of the telemetry plane:

* ``effect-obs-pure`` — a function in ``repro.obs`` (transitively)
  writes a module global, forks, or writes an attribute of a class
  defined outside ``repro.obs``; telemetry must observe, never steer.

Findings carry the worker-entry reachability chain or the callee
summary that produced them, so every report shows its interprocedural
evidence.  They reuse heterolint's :class:`Finding` shape, so
suppression comments and SARIF output apply.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.effect.summary import EffectAnalysis
from repro.devtools.flow.graph import FunctionInfo, ProjectIndex
from repro.devtools.lint import Finding

__all__ = [
    "EffectRules",
    "effect_rule_metadata",
    "worker_entry_points",
]

#: Module (index-normalized) whose functions run inside forked workers.
_WORKER_MODULE = "sim.parallel"

#: Package (index-normalized) of the telemetry plane, which may write
#: only the state of classes it defines.
_OBS_PACKAGE = "obs"


def effect_rule_metadata() -> "dict[str, str]":
    """Every effect rule id -> one-line rationale (the ``effect-`` part
    of the namespace documented in docs/devtools.md)."""
    return {
        "effect-shared-write": (
            "a module global written on a forked-worker path is a "
            "parent/worker race; worker writes vanish at join"
        ),
        "effect-fork-unsafe": (
            "module-global OS handles and os.fork() on the worker path "
            "share descriptors/offsets across fork"
        ),
        "effect-rng-aliasing": (
            "drawing from two RNG streams in one function (or splitting "
            "one stream across a call boundary) pins statement order "
            "into the stream and breaks per-stream reproducibility"
        ),
        "effect-order-dep": (
            "iterating an unordered dict/set view while drawing RNG or "
            "writing shared state makes the result depend on insertion "
            "order"
        ),
        "effect-obs-pure": (
            "nothing reachable from the observability plane may write "
            "non-obs state (the no-perturbation contract): telemetry "
            "observes, never steers"
        ),
    }


def worker_entry_points(index: ProjectIndex) -> "tuple[str, ...]":
    """The worker-root function names: ``sim.parallel``'s
    ``WORKER_ENTRY_POINTS`` marker (read statically, no import), or
    none when the tree declares no such marker."""
    module = index.modules.get(_WORKER_MODULE)
    if module is not None:
        for node in module.ctx.tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "WORKER_ENTRY_POINTS"
            ):
                try:
                    value = ast.literal_eval(node.value)
                except ValueError:
                    break
                if isinstance(value, (tuple, list)) and all(
                    isinstance(item, str) for item in value
                ):
                    return tuple(value)
    return ()


def _in_obs(module: str) -> bool:
    return module == _OBS_PACKAGE or module.startswith(_OBS_PACKAGE + ".")


class EffectRules:
    """Run the five effect rules over one analysis."""

    def __init__(self, analysis: EffectAnalysis) -> None:
        self.analysis = analysis
        self.index = analysis.index
        self._reachable = self._worker_reachable()
        #: Simple names of the classes the telemetry plane may write.
        self._obs_classes = {
            cinfo.name
            for cinfo in self.index.classes.values()
            if _in_obs(cinfo.module)
        }

    # ------------------------------------------------------------------
    # Worker reachability
    # ------------------------------------------------------------------

    def _worker_reachable(self) -> "dict[str, list[str]]":
        """qualname -> call chain from a worker entry point (BFS over
        resolved + override edges; deterministic, shortest-first)."""
        roots = [
            f"{_WORKER_MODULE}.{name}"
            for name in worker_entry_points(self.index)
            if f"{_WORKER_MODULE}.{name}" in self.index.functions
        ]
        chains: "dict[str, list[str]]" = {}
        queue: "list[str]" = []
        for root in roots:
            chains[root] = [root]
            queue.append(root)
        while queue:
            current = queue.pop(0)
            for callee in sorted(
                self.analysis.reach_edges.get(current, ())
            ):
                if callee in chains:
                    continue
                chains[callee] = chains[current] + [callee]
                queue.append(callee)
        return chains

    def _chain_text(self, qualname: str) -> str:
        chain = self._reachable.get(qualname, [])
        if len(chain) > 5:
            chain = chain[:2] + ["..."] + chain[-2:]
        return " -> ".join(chain)

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------

    def check(self) -> "Iterator[tuple[FunctionInfo, Finding]]":
        for qualname in sorted(self.index.functions):
            info = self.index.functions[qualname]
            yield from self._check_shared_write(info)
            yield from self._check_fork_unsafe(info)
            yield from self._check_rng_aliasing(info)
            yield from self._check_order_dep(info)
            if _in_obs(info.module):
                yield from self._check_obs_pure(info)

    def _check_shared_write(
        self, info: FunctionInfo
    ) -> "Iterator[tuple[FunctionInfo, Finding]]":
        if info.qualname not in self._reachable:
            return
        for site in self.analysis.direct[info.qualname]:
            if site.kind != "global-write":
                continue
            suffix = f" ({site.detail})" if site.detail else ""
            yield self._finding(
                info, "effect-shared-write", site,
                f"module global {site.ident!r} is written here{suffix} "
                "on a forked-worker path "
                f"[{self._chain_text(info.qualname)}]; parent and "
                "workers race on it and worker writes are lost at join",
            )

    def _check_fork_unsafe(
        self, info: FunctionInfo
    ) -> "Iterator[tuple[FunctionInfo, Finding]]":
        for site in self.analysis.direct[info.qualname]:
            if site.kind == "fork" and info.module != _WORKER_MODULE:
                yield self._finding(
                    info, "effect-fork-unsafe", site,
                    f"direct {site.ident}() outside the sweep runner; "
                    "forked children inherit simulator state the "
                    "equivalence harness cannot see",
                )
            elif (
                site.kind == "handle-use"
                and info.qualname in self._reachable
            ):
                yield self._finding(
                    info, "effect-fork-unsafe", site,
                    f"module-global OS handle {site.ident!r} is used on "
                    "a forked-worker path "
                    f"[{self._chain_text(info.qualname)}]; children "
                    "share the descriptor and its offset after fork",
                )

    def _check_rng_aliasing(
        self, info: FunctionInfo
    ) -> "Iterator[tuple[FunctionInfo, Finding]]":
        direct_streams = {
            site.ident: site
            for site in self.analysis.direct[info.qualname]
            if site.kind == "rng" and self._identified(site.ident)
        }
        # (a) Two distinct identified streams drawn in one body.
        if len(direct_streams) >= 2:
            first, second = sorted(direct_streams)[:2]
            site = direct_streams[second]
            yield self._finding(
                info, "effect-rng-aliasing", site,
                f"draws from RNG streams {first!r} and {second!r} in one "
                "function; the interleaving is an accident of statement "
                "order and defeats per-stream draw accounting",
            )
        # (b) Draws from a stream it also passes to a callee that draws
        # from the matching parameter (callee-summary evidence).
        if not direct_streams:
            return
        for call in self._resolved_calls(info):
            callee = self.index.resolve_call(info, call)
            if callee is None:
                continue
            callee_summary = self.analysis.summaries.get(callee.qualname)
            if callee_summary is None:
                continue
            for stream in callee_summary.rng_streams:
                if not stream.startswith("param:"):
                    continue
                mapped = self.analysis._map_callee_stream(
                    info, call, callee, stream
                )
                if mapped in direct_streams:
                    yield info, Finding(
                        rule_id="effect-rng-aliasing",
                        path=info.ctx.relpath,
                        line=call.lineno,
                        col=call.col_offset,
                        message=(
                            f"draws from {mapped!r} directly and again "
                            f"inside {callee.name}() (its summary draws "
                            f"from {stream!r}); splitting one stream "
                            "across a call boundary pins the call order "
                            "into the stream"
                        ),
                        function=info.qualname,
                    )

    def _check_order_dep(
        self, info: FunctionInfo
    ) -> "Iterator[tuple[FunctionInfo, Finding]]":
        for site in self.analysis.direct[info.qualname]:
            if site.kind != "order-dep":
                continue
            desc = site.ident.split("[", 1)[-1].rstrip("]")
            yield self._finding(
                info, "effect-order-dep", site,
                f"loop over an unordered {desc} whose body {site.detail}; "
                "iteration order becomes part of the result — sort the "
                "iterable with an explicit key first",
            )

    def _check_obs_pure(
        self, info: FunctionInfo
    ) -> "Iterator[tuple[FunctionInfo, Finding]]":
        summary = self.analysis.summaries[info.qualname]
        sites = {
            (site.kind, site.ident): site
            for site in self.analysis.direct[info.qualname]
        }
        effects = [
            ("global-write", ident, via, f"writes module global {ident!r}")
            for ident, via in sorted(summary.global_writes.items())
        ]
        effects += [
            ("fork", ident, via, f"calls {ident}()")
            for ident, via in sorted(summary.forks.items())
        ]
        effects += [
            ("attr-write", ident, via,
             f"writes attribute {ident!r}, whose class is not defined "
             "in repro.obs")
            for ident, via in sorted(summary.attr_writes.items())
            if ident.split(".", 1)[0] not in self._obs_classes
        ]
        for kind, ident, via, detail in effects:
            # An effect absorbed from another obs function is reported
            # there, once: at its direct site or at the function whose
            # call leaves the plane.
            if via.startswith(_OBS_PACKAGE + "."):
                continue
            chain = f" [via {via}]" if via else ""
            site = sites.get((kind, ident))
            yield info, Finding(
                rule_id="effect-obs-pure",
                path=info.ctx.relpath,
                line=site.line if site else info.node.lineno,
                col=site.col if site else info.node.col_offset,
                message=(
                    f"observability code {detail}{chain}; telemetry "
                    "must observe, never steer — move the effect out of "
                    "the obs plane"
                ),
                function=info.qualname,
            )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _identified(stream: str) -> bool:
        return stream != "?" and not stream.startswith("global:")

    def _resolved_calls(self, info: FunctionInfo):
        from repro.devtools.flow.graph import ordered_calls

        return ordered_calls(info.node)

    def _finding(
        self, info: FunctionInfo, rule_id: str, site, message: str
    ) -> "tuple[FunctionInfo, Finding]":
        return info, Finding(
            rule_id=rule_id,
            path=info.ctx.relpath,
            line=site.line,
            col=site.col,
            message=message,
            function=info.qualname,
        )
