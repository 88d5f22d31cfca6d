"""Project symbol table and call graph for heteroflow.

heterolint's rules see one file at a time; every heteroflow analysis
needs to see *across* files — which function calls which, what type a
receiver has, what a callee returns.  :class:`ProjectIndex` parses the
whole source tree once (reusing heterolint's :class:`FileContext`, so
suppression comments keep working), then builds:

* a **module table** (dotted module name -> parsed file + import map),
* a **function table** (qualified name -> definition + enclosing class),
* a **class table** (methods, annotated field types, bases),
* a **call graph** (caller qualname -> resolved callee qualnames).

Call resolution is deliberately conservative: a call is resolved when
the receiver is ``self``, an imported module, a parameter or field with
a class annotation — or when exactly one class in the whole project
defines a method of that name.  Anything ambiguous stays unresolved and
the analyses treat it as unknown rather than guessing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.devtools.lint import FileContext, iter_python_files

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "ordered_calls",
    "ordered_nodes",
]


def ordered_nodes(node: ast.AST) -> "Iterator[ast.AST]":
    """Every node under ``node`` in source (depth-first, pre-order)
    order, without descending into nested function/class definitions —
    nested definitions are indexed and analyzed as functions of their
    own."""
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        yield child
        for inner in ordered_nodes(child):
            yield inner


def ordered_calls(node: ast.AST) -> "Iterator[ast.Call]":
    """Every ``ast.Call`` under ``node`` in source (depth-first) order,
    without descending into nested function/class definitions."""
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if isinstance(child, ast.Call):
            # Arguments evaluate before the call itself completes, but
            # for event ordering the call site position is what matters.
            for inner in ordered_calls(child):
                yield inner
            yield child
        else:
            for inner in ordered_calls(child):
                yield inner


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str
    module: str
    name: str
    cls: "str | None"
    node: "ast.FunctionDef | ast.AsyncFunctionDef"
    ctx: FileContext

    @property
    def params(self) -> "list[ast.arg]":
        """Positional parameters, ``self``/``cls`` stripped for methods."""
        args = list(self.node.args.posonlyargs) + list(self.node.args.args)
        if self.cls is not None and args and args[0].arg in ("self", "cls"):
            args = args[1:]
        return args

    @property
    def all_args(self) -> "list[ast.arg]":
        args = (
            list(self.node.args.posonlyargs)
            + list(self.node.args.args)
            + list(self.node.args.kwonlyargs)
        )
        return args


@dataclass
class ClassInfo:
    """One class definition with its methods and annotated fields."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    methods: "dict[str, FunctionInfo]" = field(default_factory=dict)
    #: field name -> annotation expression (AnnAssign targets in the body).
    field_annotations: "dict[str, ast.expr]" = field(default_factory=dict)
    #: base-class simple names (resolution happens through the module).
    bases: "list[str]" = field(default_factory=list)
    #: field name -> class simple name inferred from method-body
    #: assignments (``self.x = ClassName(...)``, ``self.x = typed_param``);
    #: annotation-free fields the constructor gives a knowable type.
    inferred_fields: "dict[str, str]" = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed source file."""

    name: str
    ctx: FileContext
    #: local alias -> dotted target ("units" -> "repro.units",
    #: "Pages" -> "repro.units.Pages").
    imports: "dict[str, str]" = field(default_factory=dict)
    #: top-level function names defined here.
    functions: "set[str]" = field(default_factory=set)
    #: top-level class names defined here.
    classes: "set[str]" = field(default_factory=set)


def _module_name(path: Path, root: Path) -> str:
    """Dotted module name for ``path``; everything up to and including a
    ``repro`` path component is stripped so real-tree and fixture-tree
    names resolve the same way."""
    try:
        parts = list(path.relative_to(root).parts)
    except ValueError:
        parts = list(path.parts)
    if "repro" in parts:
        last = len(parts) - 1 - parts[::-1].index("repro")
        parts = parts[last + 1:]
    if not parts:
        return ""
    parts[-1] = Path(parts[-1]).stem
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def normalize_dotted(dotted: str) -> str:
    """Strip a leading ``repro.`` so index lookups are root-agnostic."""
    if dotted == "repro":
        return ""
    if dotted.startswith("repro."):
        return dotted[len("repro."):]
    return dotted


class ProjectIndex:
    """Whole-program symbol table + call graph over one file set."""

    def __init__(self) -> None:
        self.modules: "dict[str, ModuleInfo]" = {}
        self.functions: "dict[str, FunctionInfo]" = {}
        self.classes: "dict[str, ClassInfo]" = {}
        #: method name -> every FunctionInfo with that name defined in a class.
        self.method_index: "dict[str, list[FunctionInfo]]" = {}
        #: caller qualname -> [(call node, callee qualname)].
        self.call_edges: "dict[str, list[tuple[ast.Call, str]]]" = {}
        #: callee qualname -> [(caller qualname, call node)].
        self.callers: "dict[str, list[tuple[str, ast.Call]]]" = {}
        self.files_indexed = 0
        #: function qualname -> {local name -> ClassInfo} (lazy).
        self._envs: "dict[str, dict[str, ClassInfo]]" = {}
        #: class qualname -> subclasses defined anywhere in the project.
        self._subclasses: "dict[str, list[ClassInfo]] | None" = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls, paths: "Iterable[str | Path]",
        contexts: "dict[str, FileContext] | None" = None,
    ) -> "ProjectIndex":
        """Parse every ``.py`` file under ``paths`` and index it.

        ``contexts`` (relpath -> pre-parsed :class:`FileContext`) lets the
        cache layer skip re-parsing unchanged files.
        """
        index = cls()
        files = iter_python_files(paths)
        roots = [Path(p) for p in paths if Path(p).is_dir()]
        root = roots[0] if len(roots) == 1 else Path(".")
        for path in files:
            relpath = str(path)
            ctx = (contexts or {}).get(relpath)
            if ctx is None:
                try:
                    ctx = FileContext.parse(
                        path.read_text(encoding="utf-8"), relpath
                    )
                except SyntaxError:
                    continue
            index._index_file(ctx, _module_name(path, root))
        index._link_calls()
        return index

    def _index_file(self, ctx: FileContext, module_name: str) -> None:
        module = ModuleInfo(name=module_name, ctx=ctx)
        self.modules[module_name] = module
        self.files_indexed += 1
        for node in ctx.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    module.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    # Relative import: resolve against this module's package.
                    package_parts = module_name.split(".")[:-1]
                    if node.level > 1:
                        package_parts = package_parts[: 1 - node.level] or []
                    prefix = ".".join(package_parts)
                    base = f"{prefix}.{base}".strip(".") if base else prefix
                for alias in node.names:
                    target = f"{base}.{alias.name}".strip(".")
                    module.imports[alias.asname or alias.name] = target
        self._index_scope(ctx, module, ctx.tree.body, prefix=module_name, cls=None)

    def _index_scope(
        self,
        ctx: FileContext,
        module: ModuleInfo,
        body: "list[ast.stmt]",
        prefix: str,
        cls: "str | None",
    ) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{node.name}".strip(".")
                info = FunctionInfo(
                    qualname=qualname,
                    module=module.name,
                    name=node.name,
                    cls=cls,
                    node=node,
                    ctx=ctx,
                )
                self.functions[qualname] = info
                if cls is None and prefix == module.name:
                    module.functions.add(node.name)
                if cls is not None:
                    class_qual = prefix
                    if class_qual in self.classes:
                        self.classes[class_qual].methods[node.name] = info
                    self.method_index.setdefault(node.name, []).append(info)
                # Nested defs are indexed too (sanitizer-style wrappers).
                self._index_scope(
                    ctx, module, node.body, prefix=qualname, cls=cls
                )
            elif isinstance(node, ast.ClassDef):
                qualname = f"{prefix}.{node.name}".strip(".")
                cinfo = ClassInfo(
                    qualname=qualname,
                    module=module.name,
                    name=node.name,
                    node=node,
                )
                for base in node.bases:
                    simple = _annotation_name(base)
                    if simple:
                        cinfo.bases.append(simple)
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(
                        stmt.target, ast.Name
                    ):
                        cinfo.field_annotations[stmt.target.id] = stmt.annotation
                self.classes[qualname] = cinfo
                if prefix == module.name:
                    module.classes.add(node.name)
                self._index_scope(
                    ctx, module, node.body, prefix=qualname, cls=node.name
                )

    def _infer_fields(self) -> None:
        """Record the class of annotation-free ``self.x`` fields from the
        assignments that create them (``self.x = ClassName(...)``,
        ``self.x = typed_param``, ``or``/conditional fallbacks)."""
        for info in self.functions.values():
            if info.cls is None:
                continue
            cinfo = self.class_of(info)
            if cinfo is None:
                continue
            for node in ordered_nodes(info.node):
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                else:
                    continue
                for target in targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    if (
                        target.attr in cinfo.field_annotations
                        or target.attr in cinfo.inferred_fields
                    ):
                        continue
                    name = self._value_class_name(info, value)
                    if name:
                        cinfo.inferred_fields[target.attr] = name

    def _value_class_name(
        self, info: FunctionInfo, value: ast.expr
    ) -> "str | None":
        """Simple class name an assigned expression constructs/carries."""
        if isinstance(value, ast.BoolOp):
            for operand in value.values:
                name = self._value_class_name(info, operand)
                if name:
                    return name
            return None
        if isinstance(value, ast.IfExp):
            return self._value_class_name(
                info, value.body
            ) or self._value_class_name(info, value.orelse)
        module = self.modules.get(info.module)
        if isinstance(value, ast.Call):
            ctor = _annotation_name(value.func)
            if (
                ctor
                and module is not None
                and self.resolve_class_name(ctor, module) is not None
            ):
                return ctor
            return None
        if isinstance(value, ast.Name):
            for arg in info.all_args:
                if arg.arg == value.id and arg.annotation is not None:
                    name = _annotation_name(arg.annotation)
                    if (
                        name
                        and module is not None
                        and self.resolve_class_name(name, module) is not None
                    ):
                        return name
        return None

    def _link_calls(self) -> None:
        self._infer_fields()
        for qualname, info in self.functions.items():
            edges: "list[tuple[ast.Call, str]]" = []
            for call in ordered_calls(info.node):
                callee = self.resolve_call(info, call)
                if callee is not None:
                    edges.append((call, callee.qualname))
                    self.callers.setdefault(callee.qualname, []).append(
                        (qualname, call)
                    )
            self.call_edges[qualname] = edges

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def _in_project(self, dotted: str) -> bool:
        """Whether a dotted import target lies under the indexed tree."""
        top = dotted.split(".")[0]
        return top == "repro" or any(
            name.split(".")[0] == top for name in self.modules
        )

    def resolve_dotted(self, dotted: str) -> "FunctionInfo | ClassInfo | ModuleInfo | None":
        """A dotted import target -> indexed module/class/function."""
        dotted = normalize_dotted(dotted)
        if dotted in self.modules:
            return self.modules[dotted]
        if dotted in self.classes:
            return self.classes[dotted]
        if dotted in self.functions:
            return self.functions[dotted]
        return None

    def resolve_class_name(
        self, name: str, module: ModuleInfo
    ) -> "ClassInfo | None":
        """A simple class name as visible from ``module`` -> ClassInfo."""
        local = f"{module.name}.{name}".strip(".")
        if local in self.classes:
            return self.classes[local]
        dotted = module.imports.get(name)
        if dotted is not None:
            resolved = self.resolve_dotted(dotted)
            if isinstance(resolved, ClassInfo):
                return resolved
        # Unique class name anywhere in the project.
        matches = [c for c in self.classes.values() if c.name == name]
        if len(matches) == 1:
            return matches[0]
        return None

    def class_of(self, info: FunctionInfo) -> "ClassInfo | None":
        if info.cls is None:
            return None
        qualname = info.qualname.rsplit(".", 1)[0]
        return self.classes.get(qualname)

    def method_on(
        self, cinfo: "ClassInfo | None", name: str
    ) -> "FunctionInfo | None":
        """Look up ``name`` on a class, walking same-project bases."""
        seen: "set[str]" = set()
        while cinfo is not None and cinfo.qualname not in seen:
            seen.add(cinfo.qualname)
            if name in cinfo.methods:
                return cinfo.methods[name]
            parent = None
            module = self.modules.get(cinfo.module)
            for base in cinfo.bases:
                if module is not None:
                    parent = self.resolve_class_name(base, module)
                if parent is not None:
                    break
            cinfo = parent
        return None

    def field_class(
        self, cinfo: "ClassInfo | None", attr: str
    ) -> "ClassInfo | None":
        """Class of field ``attr`` on ``cinfo`` (annotated or inferred),
        walking same-project bases."""
        seen: "set[str]" = set()
        while cinfo is not None and cinfo.qualname not in seen:
            seen.add(cinfo.qualname)
            module = self.modules.get(cinfo.module)
            if attr in cinfo.field_annotations:
                name = _annotation_name(cinfo.field_annotations[attr])
                if name and module is not None:
                    return self.resolve_class_name(name, module)
                return None
            if attr in cinfo.inferred_fields:
                if module is not None:
                    return self.resolve_class_name(
                        cinfo.inferred_fields[attr], module
                    )
                return None
            parent = None
            for base in cinfo.bases:
                if module is not None:
                    parent = self.resolve_class_name(base, module)
                if parent is not None:
                    break
            cinfo = parent
        return None

    def local_env(self, info: FunctionInfo) -> "dict[str, ClassInfo]":
        """Local name -> class, from one in-order pass over the body.

        Only single-target assignments whose value has a knowable class
        (construction, typed field/param, call with an annotated return)
        bind a name; reassignment to anything unknowable unbinds it."""
        cached = self._envs.get(info.qualname)
        if cached is not None:
            return cached
        env: "dict[str, ClassInfo]" = {}
        # Registered before the pass so recursive resolution during the
        # pass sees the (partial, in-order) environment, never recurses.
        self._envs[info.qualname] = env
        for node in ordered_nodes(info.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                cls = self._receiver_class(info, node.value)
                if cls is not None:
                    env[node.targets[0].id] = cls
                else:
                    env.pop(node.targets[0].id, None)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                name = _annotation_name(node.annotation)
                module = self.modules.get(info.module)
                cls = (
                    self.resolve_class_name(name, module)
                    if name and module is not None
                    else None
                )
                if cls is not None:
                    env[node.target.id] = cls
        return env

    def subclasses_of(self, cinfo: ClassInfo) -> "list[ClassInfo]":
        """Every project class whose (transitive) bases include ``cinfo``."""
        if self._subclasses is None:
            self._subclasses = {}
            for candidate in self.classes.values():
                seen: "set[str]" = set()
                stack = [candidate]
                while stack:
                    current = stack.pop()
                    if current.qualname in seen:
                        continue
                    seen.add(current.qualname)
                    module = self.modules.get(current.module)
                    for base in current.bases:
                        parent = (
                            self.resolve_class_name(base, module)
                            if module is not None
                            else None
                        )
                        if parent is None:
                            continue
                        self._subclasses.setdefault(
                            parent.qualname, []
                        ).append(candidate)
                        stack.append(parent)
        return self._subclasses.get(cinfo.qualname, [])

    def resolve_constructor(
        self, info: FunctionInfo, call: ast.Call
    ) -> "ClassInfo | None":
        """The class a bare-name/attribute call constructs, if any."""
        func = call.func
        module = self.modules.get(info.module)
        if module is None:
            return None
        if isinstance(func, ast.Name):
            # A name that is also a project function is a call, not a
            # construction.
            if func.id in module.functions:
                return None
            return self.resolve_class_name(func.id, module)
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            dotted = module.imports.get(func.value.id)
            if dotted is not None:
                resolved = self.resolve_dotted(f"{dotted}.{func.attr}")
                if isinstance(resolved, ClassInfo):
                    return resolved
        return None

    def _receiver_class(
        self, info: FunctionInfo, value: ast.expr
    ) -> "ClassInfo | None":
        """Static type of a call receiver expression, when knowable."""
        module = self.modules.get(info.module)
        if isinstance(value, ast.Name):
            if value.id == "self":
                return self.class_of(info)
            # A parameter with a class annotation.
            for arg in info.all_args:
                if arg.arg == value.id and arg.annotation is not None:
                    name = _annotation_name(arg.annotation)
                    if name and module is not None:
                        return self.resolve_class_name(name, module)
            # A local bound to a knowable class earlier in the body.
            return self.local_env(info).get(value.id)
        elif isinstance(value, ast.Attribute):
            # ``self.field`` / ``obj.field`` chains through annotated or
            # inferred field types.
            base = self._receiver_class(info, value.value)
            if base is not None:
                return self.field_class(base, value.attr)
        elif isinstance(value, ast.Call):
            # Direct construction: ``Tlb().flush()``.
            ctor = _annotation_name(value.func)
            if ctor and module is not None:
                constructed = self.resolve_class_name(ctor, module)
                if constructed is not None:
                    return constructed
            # A call whose callee has a class-annotated return type.
            callee = self.resolve_call(info, value)
            if callee is not None and callee.node.returns is not None:
                name = _annotation_name(callee.node.returns)
                callee_module = self.modules.get(callee.module)
                if name and callee_module is not None:
                    return self.resolve_class_name(name, callee_module)
        return None

    def resolve_call(
        self, info: FunctionInfo, call: ast.Call
    ) -> "FunctionInfo | None":
        """Resolve a call site inside ``info`` to a project function."""
        func = call.func
        module = self.modules.get(info.module)
        if isinstance(func, ast.Name):
            if module is not None and func.id in module.functions:
                return self.functions.get(f"{module.name}.{func.id}".strip("."))
            if module is not None and func.id in module.imports:
                resolved = self.resolve_dotted(module.imports[func.id])
                if isinstance(resolved, FunctionInfo):
                    return resolved
            # A nested helper defined in the enclosing function.
            nested = self.functions.get(f"{info.qualname}.{func.id}")
            if nested is not None:
                return nested
            return None
        if not isinstance(func, ast.Attribute):
            return None
        # Module-qualified call: ``units.pages_of_bytes(...)``.
        if isinstance(func.value, ast.Name) and module is not None:
            dotted = module.imports.get(func.value.id)
            if dotted is not None:
                resolved = self.resolve_dotted(f"{dotted}.{func.attr}")
                if isinstance(resolved, FunctionInfo):
                    return resolved
                owner = self.resolve_dotted(dotted)
                if isinstance(owner, ModuleInfo):
                    return self.functions.get(
                        f"{owner.name}.{func.attr}".strip(".")
                    )
                if owner is None and not self._in_project(dotted):
                    # A name imported from outside the project
                    # (``json.load``) is no project method, however
                    # unique its method name is here.
                    return None
        # Typed receiver: self, annotated parameter, annotated field.
        receiver = self._receiver_class(info, func.value)
        if receiver is not None:
            method = self.method_on(receiver, func.attr)
            if method is not None:
                return method
        # Class-qualified call: ``TraceWorkload.from_dict(...)``.
        if isinstance(func.value, ast.Name) and module is not None:
            owner = self.resolve_class_name(func.value.id, module)
            if owner is not None:
                method = self.method_on(owner, func.attr)
                if method is not None:
                    return method
        # Unique method name anywhere in the project.
        candidates = self.method_index.get(func.attr, [])
        if len(candidates) == 1:
            return candidates[0]
        return None


def _annotation_name(node: "ast.expr | None") -> "str | None":
    """Simple class name of an annotation/base expression, unwrapping
    ``Optional``-style quoting, unions, and subscripts."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.split("|")[0].strip()
        text = text.split("[")[0].strip()
        return text.split(".")[-1] or None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_name(node.left)
    if isinstance(node, ast.Subscript):
        base = _annotation_name(node.value)
        if base in ("Optional", "Annotated"):
            inner = node.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                return _annotation_name(inner.elts[0])
            return _annotation_name(inner)
        return base
    return None
