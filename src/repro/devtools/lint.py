"""heterolint — simulator-specific static analysis.

The simulator's correctness rests on invariants the type system cannot
see: every run must be deterministic given a seed (Eq. 1's hot-page
ranking is meaningless otherwise), every cost is charged through
``repro.units``, every library error derives from ``ReproError``, and
the package layering of DESIGN.md must hold so subsystems stay
substitutable.  heterolint walks the AST of each source file and
enforces those invariants mechanically, before they can corrupt a
benchmark number.

Rules are pluggable: subclass :class:`Rule`, decorate with
:func:`register`, and the runner picks it up.  Findings can be
suppressed per line (``# heterolint: disable=rule-id``) or per file
(``# heterolint: disable-file=rule-id``); ``all`` suppresses every
rule.  Output is human-readable or JSON (``--format json``), and the
pass is dependency-free by design.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import repro.units as units
from repro.errors import LintError

__all__ = [
    "Finding",
    "FileContext",
    "LintReport",
    "Rule",
    "all_rules",
    "register",
    "lint_source",
    "lint_paths",
]


# ----------------------------------------------------------------------
# Findings and per-file context
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    #: Qualified name of the enclosing function (deep findings only);
    #: JSON and SARIF output carry it.
    function: str = ""

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id}: {self.message}"

    def to_dict(self) -> dict:
        data = {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.function:
            data["function"] = self.function
        return data


_SUPPRESS_RE = re.compile(
    r"#\s*heterolint:\s*(disable|disable-next-line|disable-file)"
    r"\s*=\s*([A-Za-z0-9_\-, ]+)"
)


@dataclass
class FileContext:
    """Everything rules need to know about one source file."""

    relpath: str
    tree: ast.Module
    source: str
    #: Dotted package chain below ``repro`` ("hw", "guestos", ...);
    #: top-level modules use their own name ("units", "cli", ...).
    package: str
    #: line number -> rule ids suppressed on that line.
    line_suppressions: dict[int, set] = field(default_factory=dict)
    #: rule ids suppressed for the whole file.
    file_suppressions: set = field(default_factory=set)
    _parents: "dict[ast.AST, ast.AST]" = field(default_factory=dict)
    _type_checking_nodes: "set[int]" = field(default_factory=set)

    @classmethod
    def parse(cls, source: str, relpath: str) -> "FileContext":
        tree = ast.parse(source, filename=relpath)
        ctx = cls(
            relpath=relpath,
            tree=tree,
            source=source,
            package=_package_of(relpath),
        )
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            rules = {part.strip() for part in match.group(2).split(",")}
            rules.discard("")
            directive = match.group(1)
            if directive == "disable-file":
                ctx.file_suppressions |= rules
            elif directive == "disable-next-line":
                ctx.line_suppressions.setdefault(lineno + 1, set()).update(rules)
            else:
                ctx.line_suppressions.setdefault(lineno, set()).update(rules)
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                ctx._parents[child] = parent
        for node in ast.walk(tree):
            if isinstance(node, ast.If) and _is_type_checking_test(node.test):
                for inner in ast.walk(node):
                    ctx._type_checking_nodes.add(id(inner))
        return ctx

    def parent(self, node: ast.AST) -> "ast.AST | None":
        return self._parents.get(node)

    def in_type_checking_block(self, node: ast.AST) -> bool:
        return id(node) in self._type_checking_nodes

    def suppressed(self, finding: Finding) -> bool:
        if self.file_suppressions & {finding.rule_id, "all"}:
            return True
        on_line = self.line_suppressions.get(finding.line, set())
        return bool(on_line & {finding.rule_id, "all"})


def _package_of(relpath: str) -> str:
    parts = Path(relpath).parts
    if "repro" in parts:
        last = len(parts) - 1 - parts[::-1].index("repro")
        parts = parts[last + 1:]
    if len(parts) > 1:
        return parts[0]
    if parts:
        return Path(parts[0]).stem
    return ""


def _is_type_checking_test(test: ast.AST) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


# ----------------------------------------------------------------------
# Rule base class + registry
# ----------------------------------------------------------------------


class Rule:
    """One lint check.  Subclass, set the class attributes, implement
    :meth:`check`, and decorate with :func:`register`."""

    #: Stable kebab-case identifier used in output and suppressions.
    rule_id: str = ""
    #: One-line rationale tied to a DESIGN.md invariant.
    rationale: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=ctx.relpath,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


_REGISTRY: "dict[str, type]" = {}


def register(rule_cls: type) -> type:
    """Class decorator adding a :class:`Rule` subclass to the registry."""
    rule_id = getattr(rule_cls, "rule_id", "")
    if not rule_id:
        raise LintError(f"rule {rule_cls.__name__} has no rule_id")
    if rule_id in _REGISTRY:
        raise LintError(f"duplicate rule id {rule_id!r}")
    _REGISTRY[rule_id] = rule_cls
    return rule_cls


def all_rules() -> "dict[str, type]":
    """rule id -> rule class, in registration order."""
    return dict(_REGISTRY)


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------

#: ``random`` module functions that use the hidden global RNG.
_GLOBAL_RNG_FNS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "seed", "getrandbits", "betavariate",
        "expovariate", "triangular",
    }
)

#: Wall-clock reads; virtual time must come from the timing model.
_WALL_CLOCK_FNS = frozenset(
    {"time", "monotonic", "perf_counter", "time_ns", "monotonic_ns"}
)


@register
class UnseededRandomRule(Rule):
    """Determinism (DESIGN.md decision 7): all randomness flows from
    seeded ``random.Random`` instances owned by configs; no global RNG,
    no wall-clock reads."""

    rule_id = "unseeded-random"
    rationale = (
        "runs must be reproducible from SimConfig.seed alone; the global "
        "RNG and wall-clock reads make epoch results nondeterministic"
    )

    @staticmethod
    def _import_tables(
        ctx: FileContext,
    ) -> "tuple[dict[str, str], dict[str, tuple[str, str]]]":
        """(module alias -> real module, from-import local name ->
        (module, original name)) for the modules this rule watches —
        ``import random as rnd`` and ``from random import randint``
        must not dodge it."""
        watched = ("random", "time", "datetime")
        module_aliases = {name: name for name in watched}
        from_imports: "dict[str, tuple[str, str]]" = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in watched:
                        module_aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module in watched:
                for alias in node.names:
                    from_imports[alias.asname or alias.name] = (
                        node.module, alias.name
                    )
        return module_aliases, from_imports

    def _check_member(
        self, ctx: FileContext, node: ast.Call, module: str, member: str
    ) -> "Finding | None":
        """One call of ``module.member`` (spelled any way), or None."""
        if module == "random" and member in _GLOBAL_RNG_FNS:
            return self.finding(
                ctx, node,
                f"random.{member}() uses the hidden global RNG; "
                "draw from a seeded random.Random owned by a config",
            )
        if (
            module == "random"
            and member == "Random"
            and not node.args
            and not node.keywords
        ):
            return self.finding(
                ctx, node,
                "random.Random() without a seed is seeded from the OS; "
                "pass an explicit seed",
            )
        if module == "time" and member in _WALL_CLOCK_FNS:
            return self.finding(
                ctx, node,
                f"time.{member}() reads the wall clock; simulator "
                "time is virtual and comes from the timing model",
            )
        if module == "datetime" and member in ("now", "utcnow", "today"):
            return self.finding(
                ctx, node,
                f"datetime.{member}() reads the wall clock inside "
                "the simulator",
            )
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        module_aliases, from_imports = self._import_tables(ctx)
        # ast.walk descends into comprehensions and lambdas too, so a
        # draw inside either is found in its enclosing statement.
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name
            ):
                module = module_aliases.get(func.value.id)
                if module is not None:
                    finding = self._check_member(ctx, node, module, func.attr)
                    if finding is not None:
                        yield finding
            elif isinstance(func, ast.Name) and func.id in from_imports:
                module, member = from_imports[func.id]
                finding = self._check_member(ctx, node, module, member)
                if finding is not None:
                    yield finding


#: Builtin raises permitted for argument validation, per file basename.
_VALIDATION_ALLOWLIST = {
    "units.py": frozenset({"ValueError", "TypeError"}),
}

#: Exception names allowed everywhere in addition to the ReproError tree.
_ALWAYS_ALLOWED_RAISES = frozenset(
    {"NotImplementedError", "SystemExit", "KeyboardInterrupt", "StopIteration"}
)


def _repro_error_names() -> "frozenset[str]":
    import repro.errors as errors_module

    names = {
        name
        for name, obj in vars(errors_module).items()
        if isinstance(obj, type) and issubclass(obj, errors_module.ReproError)
    }
    return frozenset(names)


@register
class ForeignRaiseRule(Rule):
    """Exception discipline: everything raised from the library derives
    from :class:`~repro.errors.ReproError`, so embedders catch one type.
    ``units.py``-style argument validation may raise ``ValueError`` /
    ``TypeError`` (allowlisted)."""

    rule_id = "foreign-raise"
    rationale = (
        "callers embedding the simulator catch ReproError; foreign "
        "exception types escape that contract"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        allowed = set(_repro_error_names()) | set(_ALWAYS_ALLOWED_RAISES)
        allowed |= _VALIDATION_ALLOWLIST.get(Path(ctx.relpath).name, frozenset())
        # Local classes deriving (transitively) from an allowed name are
        # allowed too; iterate to a fixpoint for chains within the file.
        local_classes = [
            node for node in ast.walk(ctx.tree) if isinstance(node, ast.ClassDef)
        ]
        changed = True
        while changed:
            changed = False
            for cls in local_classes:
                if cls.name in allowed:
                    continue
                bases = {_final_name(base) for base in cls.bases}
                if bases & allowed:
                    allowed.add(cls.name)
                    changed = True
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            name = _final_name(target)
            if name is None:
                continue
            if name in allowed:
                continue
            if name[:1].islower():
                # A variable holding a caught exception (``raise err``);
                # not statically resolvable, assume a re-raise.
                continue
            yield self.finding(
                ctx, node,
                f"raise {name}: not part of the ReproError hierarchy "
                "(see repro.errors); embedders catch ReproError",
            )


def _final_name(node: "ast.AST | None") -> "str | None":
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


#: Literal value -> the repro.units constant that should replace it.
_MAGIC_LITERALS = {
    units.PAGE_SIZE: "units.PAGE_SIZE",
    units.KIB: "units.KIB",
    units.MIB: "units.MIB",
    units.GIB: "units.GIB",
    int(units.NS_PER_SEC): "units.NS_PER_SEC",
}


@register
class MagicNumberRule(Rule):
    """Byte/latency arithmetic goes through ``repro.units`` so capacity
    maths stays greppable and the off-by-1024 bug class stays dead.
    ``N * 1024`` / ``N << 10`` page-count idioms are exempt."""

    rule_id = "magic-number"
    rationale = (
        "repro.units keeps unit conversions in one module; inline byte "
        "constants reintroduce the off-by-1024 bug class"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if Path(ctx.relpath).name == "units.py":
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Constant):
                continue
            value = node.value
            if not isinstance(value, int) or isinstance(value, bool):
                continue
            replacement = _MAGIC_LITERALS.get(value)
            if replacement is None:
                continue
            if value == units.KIB:
                parent = ctx.parent(node)
                if isinstance(parent, ast.BinOp) and isinstance(
                    parent.op, (ast.Mult, ast.LShift)
                ):
                    continue  # ``64 * 1024`` page-count idiom
            yield self.finding(
                ctx, node,
                f"magic literal {value}: use repro.{replacement} "
                "(suppress if this is a page count, not bytes)",
            )


_TIME_SUFFIXES = ("_ns", "_us", "_ms", "_sec")


def _is_time_valued(node: ast.AST) -> "str | None":
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    if name is not None and name.endswith(_TIME_SUFFIXES):
        return name
    return None


@register
class FloatTimeEqRule(Rule):
    """Virtual-time values are floats accumulated over thousands of
    epochs; ``==`` on them compares rounding noise.  Use ordering
    comparisons or ``math.isclose``."""

    rule_id = "float-time-eq"
    rationale = (
        "virtual-time floats accumulate rounding error; exact equality "
        "is order-of-accumulation-dependent and breaks determinism checks"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            for operand in [node.left] + list(node.comparators):
                name = _is_time_valued(operand)
                if name is not None:
                    yield self.finding(
                        ctx, node,
                        f"float ==/!= on virtual-time value {name!r}; use "
                        "ordering or math.isclose",
                    )
                    break


@register
class MutableDefaultRule(Rule):
    """A mutable default argument is shared across calls — state leaks
    between epochs and between simulator instances."""

    rule_id = "mutable-default"
    rationale = (
        "a shared default list/dict leaks state across SimulationEngine "
        "instances, silently coupling independent runs"
    )

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict", "deque"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                    yield self.finding(
                        ctx, default,
                        "mutable default argument; use None and create "
                        "inside, or dataclasses.field(default_factory=...)",
                    )
                elif (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in self._MUTABLE_CALLS
                ):
                    yield self.finding(
                        ctx, default,
                        f"mutable default {default.func.id}(); use None "
                        "and create inside",
                    )


@register
class BareExceptRule(Rule):
    """``except:`` swallows ``SystemExit``/``KeyboardInterrupt`` and
    every accounting bug; catch specific ``ReproError`` subclasses."""

    rule_id = "bare-except"
    rationale = (
        "a bare except hides AllocationError-class accounting bugs that "
        "the invariant checks exist to surface"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    ctx, node,
                    "bare except: catches everything, including the "
                    "simulator's own invariant violations",
                )


@register
class SwallowedReproErrorRule(Rule):
    """``except SomeReproError: pass`` turns a structured failure the
    simulator deliberately raised into silence.  Degrading is fine —
    but degradation must *do* something (account the cost, fall back,
    log); an empty handler hides the event entirely."""

    rule_id = "swallowed-repro-error"
    rationale = (
        "ReproError subclasses carry recovery contracts (e.g. "
        "SwapWriteError guarantees no state changed so the caller can "
        "retry or charge the cost); an empty handler discards the "
        "contract and the accounting with it"
    )

    @staticmethod
    def _caught_names(node: ast.ExceptHandler) -> "list[str]":
        if isinstance(node.type, ast.Tuple):
            candidates = node.type.elts
        else:
            candidates = [node.type] if node.type is not None else []
        names = [_final_name(target) for target in candidates]
        return [name for name in names if name is not None]

    @staticmethod
    def _body_is_empty(body: "list[ast.stmt]") -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and (stmt.value.value is Ellipsis
                     or isinstance(stmt.value.value, str))
            ):
                continue  # docstring or ``...`` placeholder
            return False
        return True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        error_names = _repro_error_names()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._body_is_empty(node.body):
                continue
            swallowed = [
                name for name in self._caught_names(node)
                if name in error_names
            ]
            if swallowed:
                yield self.finding(
                    ctx, node,
                    f"except {', '.join(swallowed)}: pass swallows a "
                    "structured simulator error; degrade explicitly "
                    "(account the cost, fall back, or continue with a "
                    "comment saying why dropping it is correct)",
                )


#: DESIGN.md layering: a package may import strictly lower ranks only.
#: Equal-rank packages are siblings and must not import each other.
LAYER_RANKS = {
    "units": 0,
    "errors": 0,
    "faults": 1,
    "hw": 1,
    "mem": 1,
    "config": 2,
    "guestos": 2,
    "workloads": 2,
    "vmm": 3,
    "core": 4,
    "devtools": 4,
    "obs": 4,
    "sim": 5,
    "experiments": 6,
    "serve": 7,
    "__init__": 7,
    "cli": 8,
    "__main__": 9,
}


@register
class LayerImportRule(Rule):
    """The DESIGN.md system inventory is a strict layering (hw/mem below
    guestos below vmm below core below sim...).  An upward import (e.g.
    ``repro.hw`` importing ``repro.guestos``) couples a substrate to a
    consumer and breaks substitutability."""

    rule_id = "layer-import"
    rationale = (
        "DESIGN.md layering keeps substrates substitutable; an upward "
        "import makes the hardware model depend on the OS built on it"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        own_rank = LAYER_RANKS.get(ctx.package)
        if own_rank is None:
            return
        for node in ast.walk(ctx.tree):
            if ctx.in_type_checking_block(node):
                continue
            targets: "list[str]" = []
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                targets = [node.module] if node.module else []
            for dotted in targets:
                parts = dotted.split(".")
                if parts[0] != "repro":
                    continue
                target_pkg = parts[1] if len(parts) > 1 else "__init__"
                target_rank = LAYER_RANKS.get(target_pkg)
                if target_rank is None or target_pkg == ctx.package:
                    continue
                if target_rank >= own_rank:
                    yield self.finding(
                        ctx, node,
                        f"layer violation: {ctx.package} (rank {own_rank}) "
                        f"imports repro.{target_pkg} (rank {target_rank}); "
                        "DESIGN.md layering allows lower ranks only",
                    )


#: Packages whose modules make placement decisions.
_DECISION_PACKAGES = frozenset({"core", "vmm"})
_DICT_VIEWS = frozenset({"items", "keys", "values"})


def _is_dict_view_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _DICT_VIEWS
        and not node.args
        and not node.keywords
    )


@register
class UnorderedPlacementRule(Rule):
    """Placement decisions (core/vmm) must rank candidates with an
    explicit sort key.  ``max``/``min`` over a dict view — or a
    dict-view loop that ``break``s early — lets insertion order pick
    the winner, which is exactly the silent nondeterminism the PEBS
    study warns corrupts placement."""

    rule_id = "unordered-placement"
    rationale = (
        "tie-breaking by dict insertion order makes the chosen "
        "promotion/eviction victim an accident of allocation history"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.package not in _DECISION_PACKAGES:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in ("max", "min")
                    and any(_is_dict_view_call(arg) for arg in node.args)
                ):
                    yield self.finding(
                        ctx, node,
                        f"{func.id}() over a dict view ties-breaks by "
                        "insertion order; sort with an explicit key first",
                    )
            elif isinstance(node, ast.For) and _is_dict_view_call(node.iter):
                if any(isinstance(n, ast.Break) for n in ast.walk(node)):
                    yield self.finding(
                        ctx, node,
                        "dict-view loop with an early break: which entries "
                        "are reached depends on insertion order; iterate a "
                        "sorted list or document why order is deterministic",
                    )


#: Packages that ARE the human-facing surface and may print freely.
_PRINT_EXEMPT_PACKAGES = frozenset({"cli", "__main__"})


@register
class NoPrintRule(Rule):
    """Library code must not ``print()``: embedders (sweep workers,
    figure drivers, tests) own stdout, and run-time observations belong
    on the telemetry bus (``repro.obs``) where they are recorded, not
    interleaved with table output.  The CLI is the one human-facing
    surface and is exempt."""

    rule_id = "no-print"
    rationale = (
        "stray prints from library code corrupt driver/CLI table output "
        "and bypass the telemetry bus; emit events via repro.obs instead"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.package in _PRINT_EXEMPT_PACKAGES:
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(
                    ctx, node,
                    "print() in library code; report through the telemetry "
                    "bus (repro.obs) or return data to the caller",
                )


#: Modules that may import the host-metrics plane.  The sweep recorder
#: observes the harness (``sim/parallel.py`` hooks, ``cli.py``
#: rendering, the ``serve/`` daemon's scrape endpoint); letting
#: simulation or policy code import it would open a hole in the
#: no-perturbation contract (metrics feeding results).
_METRICS_ALLOWED_SUFFIXES = ("sim/parallel.py", "cli.py")
_METRICS_ALLOWED_PACKAGES = ("obs", "serve")
_METRICS_MODULES = ("repro.obs.metrics", "repro.obs.flight")
_METRICS_NAMES = frozenset(
    {
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "SweepRecorder",
        "snapshot_delta",
    }
)


@register
class MetricsConfinementRule(Rule):
    """Host metrics stay confined to the observability plane plus the
    harness modules that feed/render them (``sim/parallel.py``,
    ``cli.py``, the ``serve/`` daemon).  A simulator or policy module
    importing the metrics registry is one step from steering results
    with observations — the exact hole the ``effect-obs-pure``
    no-perturbation rule exists to close."""

    rule_id = "metrics-confinement"
    rationale = (
        "the sweep metrics registry and flight recorder are harness "
        "observation only; importing them outside obs/, serve/, "
        "sim/parallel.py or cli.py risks observation steering "
        "simulation results"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        relpath = ctx.relpath.replace("\\", "/")
        if relpath.endswith(_METRICS_ALLOWED_SUFFIXES) or any(
            f"/{pkg}/" in relpath or relpath.startswith(f"{pkg}/")
            for pkg in _METRICS_ALLOWED_PACKAGES
        ):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in _METRICS_MODULES:
                        yield self.finding(
                            ctx, node,
                            f"{alias.name} imported outside the "
                            "observability plane; metrics are harness "
                            "observation (allowed: obs/, serve/, "
                            "sim/parallel.py, cli.py)",
                        )
                        break
            elif isinstance(node, ast.ImportFrom) and node.module is not None:
                if node.module in _METRICS_MODULES:
                    yield self.finding(
                        ctx, node,
                        f"{node.module} imported outside the observability "
                        "plane; metrics are harness observation (allowed: "
                        "obs/, serve/, sim/parallel.py, cli.py)",
                    )
                elif node.module == "repro.obs":
                    confined = sorted(
                        alias.name
                        for alias in node.names
                        if alias.name in _METRICS_NAMES
                    )
                    if confined:
                        yield self.finding(
                            ctx, node,
                            f"{', '.join(confined)} imported outside the "
                            "observability plane; metrics are harness "
                            "observation (allowed: obs/, serve/, "
                            "sim/parallel.py, cli.py)",
                        )


#: Networking modules confined to the experiment service.  The daemon
#: (``repro.serve``) is the one place the library opens sockets; a
#: simulator, policy, or experiment module importing an HTTP stack
#: would couple deterministic simulation code to wall-clock network
#: I/O and widen the attack/test surface of every embedder.
_SERVE_ONLY_MODULES = ("http", "socketserver")
_SERVE_ALLOWED_PACKAGE = "serve"


@register
class ServeConfinementRule(Rule):
    """``http``/``socketserver`` imports stay inside ``repro.serve``.
    Everything below the service layer must import (and simulate) on a
    machine with no network stack at all; the daemon is the single
    module family allowed to speak HTTP."""

    rule_id = "serve-confinement"
    rationale = (
        "the serve daemon is the library's only network surface; an "
        "http/socketserver import elsewhere couples deterministic "
        "simulation code to sockets and wall-clock I/O"
    )

    @staticmethod
    def _confined(dotted: str) -> bool:
        root = dotted.split(".", 1)[0]
        return root in _SERVE_ONLY_MODULES

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.package == _SERVE_ALLOWED_PACKAGE:
            return
        for node in ast.walk(ctx.tree):
            if ctx.in_type_checking_block(node):
                continue
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if self._confined(alias.name):
                        yield self.finding(
                            ctx, node,
                            f"import {alias.name}: networking imports are "
                            "confined to repro.serve; route service work "
                            "through the daemon",
                        )
                        break
            elif isinstance(node, ast.ImportFrom) and node.module is not None:
                if node.level == 0 and self._confined(node.module):
                    yield self.finding(
                        ctx, node,
                        f"from {node.module} import ...: networking "
                        "imports are confined to repro.serve; route "
                        "service work through the daemon",
                    )


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------


@dataclass
class LintReport:
    """Outcome of one lint pass."""

    findings: "list[Finding]" = field(default_factory=list)
    suppressed: "list[Finding]" = field(default_factory=list)
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_json(self) -> str:
        return json.dumps(
            {
                "files_checked": self.files_checked,
                "finding_count": len(self.findings),
                "suppressed_count": len(self.suppressed),
                "findings": [f.to_dict() for f in self.findings],
            },
            indent=2,
        )

    def format_human(self) -> str:
        lines = [finding.format() for finding in self.findings]
        lines.append(
            f"heterolint: {len(self.findings)} finding(s), "
            f"{len(self.suppressed)} suppressed, "
            f"{self.files_checked} file(s) checked"
        )
        return "\n".join(lines)


def _make_rules(rule_ids: "Iterable[str] | None") -> "list[Rule]":
    registry = all_rules()
    if rule_ids is None:
        return [rule_cls() for rule_cls in registry.values()]
    rules = []
    for rule_id in rule_ids:
        if rule_id not in registry:
            raise LintError(
                f"unknown rule {rule_id!r}; known: {sorted(registry)}"
            )
        rules.append(registry[rule_id]())
    return rules


def lint_source(
    source: str,
    relpath: str = "module.py",
    rule_ids: "Iterable[str] | None" = None,
) -> LintReport:
    """Lint one in-memory source blob (the unit tests' entry point)."""
    report = LintReport(files_checked=1)
    try:
        ctx = FileContext.parse(source, relpath)
    except SyntaxError as exc:
        report.findings.append(
            Finding(
                rule_id="parse-error",
                path=relpath,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                message=f"cannot parse: {exc.msg}",
            )
        )
        return report
    for rule in _make_rules(rule_ids):
        for finding in rule.check(ctx):
            if ctx.suppressed(finding):
                report.suppressed.append(finding)
            else:
                report.findings.append(finding)
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return report


def iter_python_files(paths: "Iterable[str | Path]") -> "list[Path]":
    """Expand files/directories into a sorted, deduplicated file list."""
    files: "set[Path]" = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
        elif not path.exists():
            raise LintError(f"no such file or directory: {path}")
    return sorted(files)


def lint_paths(
    paths: "Iterable[str | Path]",
    rule_ids: "Iterable[str] | None" = None,
) -> LintReport:
    """Lint every ``.py`` file under ``paths``; deterministic order."""
    report = LintReport()
    for path in iter_python_files(paths):
        sub = lint_source(
            path.read_text(encoding="utf-8"),
            relpath=str(path),
            rule_ids=rule_ids,
        )
        report.findings.extend(sub.findings)
        report.suppressed.extend(sub.suppressed)
        report.files_checked += 1
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return report
