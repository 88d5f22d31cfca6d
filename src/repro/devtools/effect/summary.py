"""Interprocedural effect summaries.

The heteroeffect rules read one per-function :class:`EffectSummary`:
which module globals and object attributes a function (transitively)
writes, which RNG streams it draws from, and whether it forks.  The
sites behind them, with order-dependent loops and uses of module-global
OS handles, stay per function in :attr:`EffectAnalysis.direct`.
Summaries are computed by a bounded fixpoint over heteroflow's
:class:`~repro.devtools.flow.graph.ProjectIndex` call graph, the same
shape as the determinism-taint pass: direct effects are extracted once
per function, then callee summaries are folded in until nothing
changes.

Every transitive entry keeps a ``via`` provenance chain (the callee
path that introduced it), so findings can show *how* an effect reaches
a function, not just that it does.

Deliberate blind spots, documented here once: calls into non-indexed
(stdlib/third-party) modules are assumed effect-free on simulator
state except ``os.fork`` and ``random.*`` draws; RNG receivers are
recognized by name (``*rng*``/``*random*``/``*stream*`` or a draw-only
method); attribute writes are attributed to the receiver's static
class without escape analysis.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from repro.devtools.flow.graph import (
    ClassInfo,
    FunctionInfo,
    ProjectIndex,
    ordered_calls,
    ordered_nodes,
)

__all__ = [
    "EffectSite",
    "EffectSummary",
    "EffectAnalysis",
    "analysis_cache_key",
    "cached_effect_analysis",
]

#: Method names that always mean an RNG draw, whatever the receiver.
_DRAW_ALWAYS = frozenset(
    {
        "randint", "randrange", "getrandbits", "shuffle", "choices",
        "gauss", "betavariate", "expovariate", "triangular",
        "normalvariate", "lognormvariate", "vonmisesvariate",
        "paretovariate", "weibullvariate", "randbytes",
    }
)

#: Draw methods shared with non-RNG APIs; need an RNG-looking receiver.
_DRAW_NAMED = frozenset({"random", "sample", "choice", "uniform"})

#: Receiver-name fragments that mark an object as an RNG stream.
_RNG_NAME_FRAGMENTS = ("rng", "random", "stream")

#: In-place mutators on containers; a call on a global/attribute
#: receiver is a write to it.
_MUTATING_METHODS = frozenset(
    {
        "append", "add", "update", "pop", "popitem", "setdefault",
        "clear", "extend", "remove", "discard", "insert", "sort",
        "reverse",
    }
)

#: Module-level calls whose result is an OS handle shared across fork.
_HANDLE_FACTORIES = frozenset({"open", "socket", "Popen", "popen"})

#: Unordered-iteration sources (matches the taint pass).
_DICT_VIEWS = frozenset({"items", "keys", "values"})


def _is_dict_view_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _DICT_VIEWS
        and not node.args
        and not node.keywords
    )


def _dotted_text(node: ast.expr) -> "str | None":
    """``self.binding.rng`` as text, or None for non-dotted shapes."""
    parts: "list[str]" = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _looks_like_rng(text: "str | None") -> bool:
    if not text:
        return False
    last = text.split(".")[-1].lower()
    return any(fragment in last for fragment in _RNG_NAME_FRAGMENTS)


@dataclass(frozen=True)
class EffectSite:
    """One direct effect at one source location."""

    kind: str  # global-write | attr-write | rng | fork | order-dep
    #        | handle-use
    ident: str
    line: int
    col: int
    detail: str = ""


@dataclass
class EffectSummary:
    """Transitive effects of one function; ident -> ``via`` chain
    ("" when the effect is in the function's own body)."""

    global_writes: "dict[str, str]" = field(default_factory=dict)
    attr_writes: "dict[str, str]" = field(default_factory=dict)
    rng_streams: "dict[str, str]" = field(default_factory=dict)
    forks: "dict[str, str]" = field(default_factory=dict)

    def _maps(self) -> "tuple[dict[str, str], ...]":
        return (
            self.global_writes, self.attr_writes, self.rng_streams,
            self.forks,
        )


def _chain(callee_qualname: str, via: str, limit: int = 4) -> str:
    """Provenance for an effect absorbed from ``callee``."""
    if not via:
        return callee_qualname
    hops = via.split(" -> ")
    if len(hops) >= limit:
        hops = hops[: limit - 1] + ["..."]
    return " -> ".join([callee_qualname] + hops)


class _ModuleFacts:
    """Per-module name tables shared by every function in the module."""

    def __init__(self, tree: ast.Module) -> None:
        #: Names assigned at module top level.
        self.globals: "set[str]" = set()
        #: Globals whose top-level value is an OS-handle factory call.
        self.handles: "set[str]" = set()
        for node in tree.body:
            targets: "list[ast.expr]" = []
            value: "ast.expr | None" = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    self.globals.add(target.id)
                    if self._is_handle_factory(value):
                        self.handles.add(target.id)
                elif isinstance(target, ast.Tuple):
                    for element in target.elts:
                        if isinstance(element, ast.Name):
                            self.globals.add(element.id)

    @staticmethod
    def _is_handle_factory(value: "ast.expr | None") -> bool:
        if not isinstance(value, ast.Call):
            return False
        func = value.func
        if isinstance(func, ast.Name):
            return func.id in _HANDLE_FACTORIES
        if isinstance(func, ast.Attribute):
            return func.attr in _HANDLE_FACTORIES
        return False


class EffectAnalysis:
    """Per-function effect summaries over the whole project.

    ``_restored`` short-circuits the expensive site extraction and
    fixpoint with ``(summaries, direct, reach_edges)`` previously
    persisted by :func:`cached_effect_analysis`; callers must have
    validated the call-graph key themselves (the cache layer does).
    """

    def __init__(
        self,
        index: ProjectIndex,
        max_rounds: int = 12,
        _restored=None,
    ) -> None:
        self.index = index
        self.module_facts: "dict[str, _ModuleFacts]" = {
            name: _ModuleFacts(module.ctx.tree)
            for name, module in index.modules.items()
        }
        if _restored is not None:
            self.summaries, self.direct, self.reach_edges = _restored
            return
        self.summaries: "dict[str, EffectSummary]" = {
            qualname: EffectSummary() for qualname in index.functions
        }
        #: qualname -> direct sites, for findings at precise locations.
        self.direct: "dict[str, list[EffectSite]]" = {}
        #: qualname -> resolved callee qualnames (calls + constructions
        #: + override closure), the edge set race reachability walks.
        self.reach_edges: "dict[str, set[str]]" = {}
        for qualname in sorted(index.functions):
            info = index.functions[qualname]
            self.direct[qualname] = self._direct_sites(info)
        self._fixpoint(max_rounds)

    # ------------------------------------------------------------------
    # Direct effect extraction
    # ------------------------------------------------------------------

    def _local_names(self, info: FunctionInfo) -> "set[str]":
        """Names bound inside the function (stores make names local
        unless declared ``global``)."""
        names = {arg.arg for arg in info.all_args}
        names.add(info.node.args.vararg.arg if info.node.args.vararg else "")
        names.add(info.node.args.kwarg.arg if info.node.args.kwarg else "")
        globals_declared: "set[str]" = set()
        for node in ordered_nodes(info.node):
            if isinstance(node, ast.Global):
                globals_declared.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Store
            ):
                names.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    names.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ExceptHandler) and node.name:
                names.add(node.name)
        names.discard("")
        return names - globals_declared

    def _attr_ident(
        self, info: FunctionInfo, target: ast.Attribute
    ) -> str:
        """``Class.attr`` for an attribute store, ``?.attr`` when the
        receiver's class is unknowable."""
        receiver = self.index._receiver_class(info, target.value)
        if receiver is not None:
            return f"{receiver.name}.{target.attr}"
        dotted = _dotted_text(target.value)
        if dotted is not None and dotted.startswith("self."):
            cinfo = self.index.class_of(info)
            owner = cinfo.name if cinfo is not None else "?"
            return f"{owner}.{dotted[len('self.'):]}.{target.attr}"
        return f"?.{target.attr}"

    def _stream_id(self, info: FunctionInfo, node: ast.expr) -> str:
        """Stable identity of an RNG stream expression."""
        param_names = {arg.arg for arg in info.all_args}
        if isinstance(node, ast.Name):
            if node.id in param_names:
                return f"param:{node.id}"
            module = self.index.modules.get(info.module)
            if (
                module is not None
                and module.imports.get(node.id, "").split(".")[0] == "random"
            ):
                return "global:random"
            return f"local:{node.id}"
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "random"
            ):
                return "global:random"
            base = self.index._receiver_class(info, node.value)
            if base is not None:
                return f"{base.name}.{node.attr}"
            dotted = _dotted_text(node)
            if dotted is not None and dotted.startswith("self."):
                cinfo = self.index.class_of(info)
                if cinfo is not None:
                    return f"{cinfo.name}.{dotted[len('self.'):]}"
            return "?"
        return "?"

    def _store_sites(
        self, info: FunctionInfo, target: ast.expr, local: "set[str]",
        facts: _ModuleFacts, line: int, col: int,
    ) -> "Iterable[EffectSite]":
        """Effects of one assignment/del/augmented-store target."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from self._store_sites(
                    info, element, local, facts, line, col
                )
            return
        if isinstance(target, ast.Starred):
            yield from self._store_sites(
                info, target.value, local, facts, line, col
            )
            return
        if isinstance(target, ast.Name):
            if target.id not in local and target.id in facts.globals:
                yield EffectSite(
                    "global-write", f"{info.module}:{target.id}", line, col
                )
            return
        if isinstance(target, ast.Attribute):
            yield EffectSite(
                "attr-write", self._attr_ident(info, target), line, col
            )
            return
        if isinstance(target, ast.Subscript):
            base = target.value
            while isinstance(base, ast.Subscript):
                base = base.value
            if isinstance(base, ast.Name):
                if base.id not in local and base.id in facts.globals:
                    yield EffectSite(
                        "global-write", f"{info.module}:{base.id}", line, col,
                        detail="item assignment",
                    )
            elif isinstance(base, ast.Attribute):
                yield EffectSite(
                    "attr-write", self._attr_ident(info, base), line, col,
                    detail="item assignment",
                )

    def _call_sites(
        self, info: FunctionInfo, call: ast.Call, local: "set[str]",
        facts: _ModuleFacts,
    ) -> "Iterable[EffectSite]":
        """Effects of one call site, excluding callee propagation: a
        fork, an RNG draw, or an in-place mutation of a global or an
        attribute receiver."""
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        line, col = call.lineno, call.col_offset
        module = self.index.modules.get(info.module)
        attr = func.attr
        receiver = func.value
        # Stdlib-module-qualified calls: os.fork / random draws are
        # effects; everything else is assumed pure on simulator state.
        if isinstance(receiver, ast.Name) and module is not None:
            imported = module.imports.get(receiver.id)
            if imported is not None and self.index.resolve_dotted(
                imported
            ) is None:
                root = imported.split(".")[0]
                if root == "os" and attr in ("fork", "forkpty"):
                    yield EffectSite("fork", f"os.{attr}", line, col)
                elif root == "random" and (
                    attr in _DRAW_ALWAYS or attr in _DRAW_NAMED
                ):
                    yield EffectSite("rng", "global:random", line, col)
                return
        # RNG draws by method name (+ receiver heuristics).
        if attr in _DRAW_ALWAYS or (
            attr in _DRAW_NAMED and _looks_like_rng(_dotted_text(receiver))
        ):
            yield EffectSite(
                "rng", self._stream_id(info, receiver), line, col,
                detail=attr,
            )
            return
        # In-place mutation of a global / attribute receiver.
        if attr not in _MUTATING_METHODS:
            return
        if isinstance(receiver, ast.Name):
            if receiver.id not in local and receiver.id in facts.globals:
                yield EffectSite(
                    "global-write", f"{info.module}:{receiver.id}",
                    line, col, detail=f".{attr}()",
                )
        elif isinstance(receiver, ast.Attribute):
            yield EffectSite(
                "attr-write", self._attr_ident(info, receiver),
                line, col, detail=f".{attr}()",
            )

    def _body_effects_reach(
        self, info: FunctionInfo, body: "list[ast.stmt]",
        local: "set[str]", facts: _ModuleFacts,
    ) -> "tuple[bool, str]":
        """Does a loop body (transitively) draw RNG or write shared
        state?  Returns (yes, short description)."""
        for stmt in body:
            for node in ordered_nodes(stmt):
                sites: "list[EffectSite]" = []
                if isinstance(node, ast.Call):
                    sites.extend(self._call_sites(info, node, local, facts))
                    callee = self.index.resolve_call(info, node)
                    if callee is not None:
                        summary = self.summaries.get(callee.qualname)
                        if summary is not None:
                            if summary.rng_streams:
                                stream = sorted(summary.rng_streams)[0]
                                return True, (
                                    f"{callee.name}() draws from RNG "
                                    f"stream {stream!r}"
                                )
                            if summary.global_writes:
                                ident = sorted(summary.global_writes)[0]
                                return True, (
                                    f"{callee.name}() writes module "
                                    f"global {ident!r}"
                                )
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        sites.extend(
                            self._store_sites(
                                info, target, local, facts,
                                node.lineno, node.col_offset,
                            )
                        )
                for site in sites:
                    if site.kind == "rng":
                        return True, f"draws from RNG stream {site.ident!r}"
                    if site.kind == "global-write":
                        return True, f"writes module global {site.ident!r}"
        return False, ""

    def _direct_sites(self, info: FunctionInfo) -> "list[EffectSite]":
        facts = self.module_facts.get(info.module)
        if facts is None:
            facts = _ModuleFacts(ast.parse(""))
        local = self._local_names(info)
        sites: "list[EffectSite]" = []
        for node in ordered_nodes(info.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    sites.extend(
                        self._store_sites(
                            info, target, local, facts,
                            node.lineno, node.col_offset,
                        )
                    )
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                if isinstance(node, ast.AnnAssign) and node.value is None:
                    continue
                sites.extend(
                    self._store_sites(
                        info, node.target, local, facts,
                        node.lineno, node.col_offset,
                    )
                )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    sites.extend(
                        self._store_sites(
                            info, target, local, facts,
                            node.lineno, node.col_offset,
                        )
                    )
            elif isinstance(node, ast.Call):
                sites.extend(self._call_sites(info, node, local, facts))
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Load
            ):
                if node.id in facts.handles and node.id not in local:
                    sites.append(
                        EffectSite(
                            "handle-use", f"{info.module}:{node.id}",
                            node.lineno, node.col_offset,
                        )
                    )
        return sites

    def _order_dep_sites(self, info: FunctionInfo) -> "list[EffectSite]":
        """Loops over unordered iterables whose body draws RNG or writes
        a module global (computed post-fixpoint: needs callee
        summaries)."""
        facts = self.module_facts.get(info.module)
        if facts is None:
            return []
        local = self._local_names(info)
        sites: "list[EffectSite]" = []
        for node in ordered_nodes(info.node):
            if not isinstance(node, ast.For):
                continue
            iterable = node.iter
            if _is_dict_view_call(iterable):
                desc = f"dict .{iterable.func.attr}() view"
            elif isinstance(iterable, (ast.Set, ast.SetComp)):
                desc = "set literal"
            elif isinstance(iterable, ast.Call) and isinstance(
                iterable.func, ast.Name
            ) and iterable.func.id == "set":
                desc = "set()"
            else:
                continue
            effectful, what = self._body_effects_reach(
                info, node.body, local, facts
            )
            if effectful:
                sites.append(
                    EffectSite(
                        "order-dep",
                        f"{info.qualname}[{desc}]",
                        node.lineno, node.col_offset,
                        detail=what,
                    )
                )
        return sites

    # ------------------------------------------------------------------
    # Fixpoint
    # ------------------------------------------------------------------

    def _absorb_direct(self, qualname: str) -> None:
        summary = self.summaries[qualname]
        tables = {
            "global-write": summary.global_writes,
            "attr-write": summary.attr_writes,
            "rng": summary.rng_streams,
            "fork": summary.forks,
        }
        # A handle use stays a direct site: the rules read it there.
        for site in self.direct[qualname]:
            table = tables.get(site.kind)
            if table is not None:
                table.setdefault(site.ident, "")

    def _map_callee_stream(
        self, info: FunctionInfo, call: ast.Call,
        callee: FunctionInfo, stream: str,
    ) -> str:
        """Translate a callee stream id into the caller's frame."""
        if not stream.startswith("param:"):
            return stream
        wanted = stream[len("param:"):]
        params = callee.params
        for position, arg in enumerate(call.args):
            if position < len(params) and params[position].arg == wanted:
                return self._stream_id(info, arg)
        for keyword in call.keywords:
            if keyword.arg == wanted:
                return self._stream_id(info, keyword.value)
        return "?"

    def _absorb_callee(
        self, info: FunctionInfo, call: ast.Call, callee_qualname: str,
        constructed: "ClassInfo | None",
    ) -> bool:
        """Fold one callee summary into the caller's; True if changed."""
        callee_summary = self.summaries.get(callee_qualname)
        callee = self.index.functions.get(callee_qualname)
        if callee_summary is None or callee is None:
            return False
        summary = self.summaries[info.qualname]
        changed = False
        pairs = zip(summary._maps(), callee_summary._maps())
        for position, (mine, theirs) in enumerate(pairs):
            for ident, via in theirs.items():
                if position == 1 and constructed is not None and (
                    ident.startswith(constructed.name + ".")
                ):
                    # Constructor writes to the freshly built object are
                    # initialization, not shared-state mutation.
                    continue
                if position == 2:
                    ident = self._map_callee_stream(
                        info, call, callee, ident
                    )
                    if ident == "?" or ident.startswith("local:"):
                        # A stream identified only inside the callee's
                        # frame: keep it attributed to the callee.
                        ident = f"{callee.name}()~stream"
                if ident not in mine:
                    mine[ident] = _chain(callee_qualname, via)
                    changed = True
        return changed

    def _call_targets(
        self, info: FunctionInfo
    ) -> "list[tuple[ast.Call, str, ClassInfo | None]]":
        """(call, callee qualname, constructed class) per resolvable
        call site — ordinary calls plus ``__init__`` of constructions."""
        targets: "list[tuple[ast.Call, str, ClassInfo | None]]" = []
        for call in ordered_calls(info.node):
            callee = self.index.resolve_call(info, call)
            if callee is not None:
                targets.append((call, callee.qualname, None))
                continue
            constructed = self.index.resolve_constructor(info, call)
            if constructed is not None and "__init__" in constructed.methods:
                targets.append(
                    (call, constructed.methods["__init__"].qualname,
                     constructed)
                )
        return targets

    def _fixpoint(self, max_rounds: int) -> None:
        call_targets = {
            qualname: self._call_targets(info)
            for qualname, info in self.index.functions.items()
        }
        # Reachability edges: resolved targets plus override closure
        # (a call resolved to a base method may execute any override).
        for qualname, targets in call_targets.items():
            edges: "set[str]" = set()
            for _call, callee_qualname, _constructed in targets:
                edges.add(callee_qualname)
                callee = self.index.functions.get(callee_qualname)
                if callee is None or callee.cls is None:
                    continue
                owner = self.index.classes.get(
                    callee_qualname.rsplit(".", 1)[0]
                )
                if owner is None:
                    continue
                for sub in self.index.subclasses_of(owner):
                    override = sub.methods.get(callee.name)
                    if override is not None:
                        edges.add(override.qualname)
            self.reach_edges[qualname] = edges
        for qualname in sorted(self.index.functions):
            self._absorb_direct(qualname)
        for _ in range(max_rounds):
            changed = False
            for qualname in sorted(self.index.functions):
                info = self.index.functions[qualname]
                for call, callee_qualname, constructed in call_targets[
                    qualname
                ]:
                    if self._absorb_callee(
                        info, call, callee_qualname, constructed
                    ):
                        changed = True
            if not changed:
                break
        # Order-dependence needs converged callee summaries; its sites
        # stay direct, where the rule reads them.
        for qualname in sorted(self.index.functions):
            self.direct[qualname].extend(
                self._order_dep_sites(self.index.functions[qualname])
            )


# ----------------------------------------------------------------------
# Fixpoint persistence (AST-cache payload v3)
# ----------------------------------------------------------------------

#: Bumped whenever summary extraction or the fixpoint change meaning,
#: so persisted summaries from an older analysis never satisfy a newer
#: one even over identical sources.
EFFECT_CACHE_VERSION = 2


def analysis_cache_key(index: ProjectIndex, max_rounds: int = 12) -> str:
    """A call-graph hash: digest over every indexed module's source
    (the graph and the summaries derive deterministically from them),
    the analysis version, and the fixpoint bound."""
    import hashlib

    digest = hashlib.sha256()
    digest.update(f"effect-cache-v{EFFECT_CACHE_VERSION}:{max_rounds}".encode())
    for name in sorted(index.modules):
        ctx = index.modules[name].ctx
        digest.update(name.encode("utf-8"))
        digest.update(
            hashlib.sha256(ctx.source.encode("utf-8")).digest()
        )
    return digest.hexdigest()


def cached_effect_analysis(
    index: ProjectIndex,
    cache=None,
    max_rounds: int = 12,
) -> EffectAnalysis:
    """An :class:`EffectAnalysis`, restored from ``cache`` (an open
    :class:`~repro.devtools.flow.cache.AstCache`) when the persisted
    call-graph key matches (warm runs skip the fixpoint entirely) and
    recomputed + persisted otherwise."""
    if cache is None:
        return EffectAnalysis(index, max_rounds)
    key = analysis_cache_key(index, max_rounds)
    restored = cache.load_effect_summaries(key)
    if restored is not None:
        return EffectAnalysis(index, max_rounds, _restored=restored)
    analysis = EffectAnalysis(index, max_rounds)
    cache.store_effect_summaries(
        key, (analysis.summaries, analysis.direct, analysis.reach_edges)
    )
    return analysis
