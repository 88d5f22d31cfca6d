"""Parsed-AST + effect-summary cache for the deep pass.

Parsing ~100 files and running the heteroeffect fixpoint dominate the
deep pass's runtime, and CI runs it on every PR for two Python
versions.  The cache pickles each file's parsed :class:`FileContext`
keyed by a SHA-256 of its source, so an incremental run re-parses only
what changed and a CI cache hit (``actions/cache`` on the cache
directory) skips the parse entirely.  Since payload v3 the same file
also carries the heteroeffect fixpoint output (summaries, direct
sites, reach edges) keyed on a call-graph hash — a digest over every
indexed module's source — so a warm ``repro lint --deep`` run skips
the fixpoint as well, not just the parse.
A pass opens the file once (:class:`AstCache`): the payload, ~5 MB
for ``src/repro``, is unpickled once and rewritten only when it
changes.

Pickled AST nodes keep their parent links, but Python object ids do not
survive a round-trip — the ``TYPE_CHECKING`` node-id set is rebuilt on
load (:func:`_rebind`).  The cache is invalidated per Python minor
version because ``ast`` trees are not portable across them: the cache
*filename* carries a ``py<major><minor>`` tag, and the payload itself
embeds the writer's ``(major, minor)`` which is validated on load —
so even a cache file restored under the wrong name (a mis-keyed
``actions/cache`` entry, a renamed directory) is rejected instead of
feeding another interpreter's AST shapes into the analysis.
"""

from __future__ import annotations

import ast
import hashlib
import pickle
import sys
from pathlib import Path

from repro.devtools.lint import FileContext, _is_type_checking_test

__all__ = ["AstCache"]

_FORMAT_VERSION = 3


def _python_tag() -> "tuple[int, int]":
    return (sys.version_info.major, sys.version_info.minor)


def _cache_path(cache_dir: "str | Path") -> Path:
    tag = f"py{sys.version_info.major}{sys.version_info.minor}"
    return Path(cache_dir) / f"heteroflow-ast-{tag}.pickle"


def _digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _rebind(ctx: FileContext) -> FileContext:
    """Recompute the id()-keyed structures invalidated by unpickling."""
    ctx._parents = {}
    for parent in ast.walk(ctx.tree):
        for child in ast.iter_child_nodes(parent):
            ctx._parents[child] = parent
    ctx._type_checking_nodes = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.If) and _is_type_checking_test(node.test):
            for inner in ast.walk(node):
                ctx._type_checking_nodes.add(id(inner))
    return ctx


def _load_payload(cache_dir: "str | Path") -> "dict | None":
    """The validated on-disk payload, or None for anything corrupt,
    stale, or written by another interpreter."""
    path = _cache_path(cache_dir)
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
        return None
    if not isinstance(payload, dict) or payload.get("version") != _FORMAT_VERSION:
        return None
    if tuple(payload.get("python", ())) != _python_tag():
        return None
    return payload


class AstCache:
    """One pass's view of the cache file in ``cache_dir``.

    The payload is read once, when the cache is opened; the parse and
    the effect stage then take their slots from it.  The file is
    rewritten only when its content changes: when a file was parsed
    from source or the set of cached files differs, or when the effect
    slot is stored anew.  Corrupt or stale payloads read as empty.
    """

    def __init__(self, cache_dir: "str | Path") -> None:
        self.directory = Path(cache_dir)
        self._payload = _load_payload(self.directory)
        self._restored: "set[str]" = set()

    def load_contexts(self, files: "list[Path]") -> "dict[str, FileContext]":
        """relpath -> parsed FileContext for every cached, unchanged
        file."""
        cached = self._payload.get("files", {}) if self._payload else {}
        contexts: "dict[str, FileContext]" = {}
        for file_path in files:
            relpath = str(file_path)
            entry = cached.get(relpath)
            if entry is None:
                continue
            digest, ctx = entry
            try:
                source = file_path.read_text(encoding="utf-8")
            except OSError:
                continue
            if _digest(source) != digest:
                continue
            contexts[relpath] = _rebind(ctx)
        self._restored = set(contexts)
        return contexts

    def store_contexts(self, contexts: "dict[str, FileContext]") -> None:
        """Persist the pass's parsed contexts, unless every one was
        restored and the cached file set is unchanged; the effect slot
        is carried over (its own call-graph key decides whether it is
        still usable)."""
        existing = self._payload or {}
        if set(contexts) == self._restored == set(existing.get("files", ())):
            return
        payload = {
            "version": _FORMAT_VERSION,
            "python": _python_tag(),
            "files": {
                relpath: (_digest(ctx.source), ctx)
                for relpath, ctx in contexts.items()
            },
        }
        if "effects" in existing:
            payload["effects"] = existing["effects"]
        self._write(payload)

    def load_effect_summaries(self, key: str):
        """The persisted heteroeffect fixpoint output
        ``(summaries, direct, reach_edges)`` when the stored call-graph
        key matches ``key``; None on any miss or mismatch."""
        effects = self._payload.get("effects") if self._payload else None
        if not isinstance(effects, dict) or effects.get("key") != key:
            return None
        try:
            return (
                effects["summaries"],
                effects["direct"],
                effects["reach_edges"],
            )
        except KeyError:
            return None

    def store_effect_summaries(self, key: str, triple) -> None:
        """Attach the fixpoint output to the payload and persist it."""
        payload = self._payload or {
            "version": _FORMAT_VERSION,
            "python": _python_tag(),
            "files": {},
        }
        summaries, direct, reach_edges = triple
        self._write({
            **payload,
            "effects": {
                "key": key,
                "summaries": summaries,
                "direct": direct,
                "reach_edges": reach_edges,
            },
        })

    def _write(self, payload: dict) -> None:
        """Keep ``payload`` as this pass's view and write it;
        best-effort (failure is not an error)."""
        self._payload = payload
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(_cache_path(self.directory), "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        except (OSError, pickle.PicklingError):
            pass
