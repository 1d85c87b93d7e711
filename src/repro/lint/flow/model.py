"""The project model: modules, classes, and per-function summaries.

Built once per lint run from the ``SourceFile`` list the runner already
parsed, and shared by all four flow rules via :func:`build_model`'s
identity-keyed cache.  The model is a *summary* layer: each function is
reduced to the facts the rules consume (self-attribute stores and loads,
direct ``self.method()`` calls, export dict keys, ``state[...]`` reads),
while the raw AST stays attached for the CFG and taint passes that need
statement-level detail.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

from repro.lint.core import SourceFile

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class FunctionInfo:
    """Summary of one method or function."""

    name: str
    node: FunctionNode
    lineno: int
    end_lineno: int
    is_property: bool = False
    decorators: list[str] = field(default_factory=list)
    #: attribute name -> line of the first ``self.X = ...`` / ``self.X op= ...``
    self_stores: dict[str, int] = field(default_factory=dict)
    #: every ``self.X`` reference (load or store), including inside closures
    self_refs: set[str] = field(default_factory=set)
    #: direct ``self.m(...)`` call targets (closures included)
    self_calls: set[str] = field(default_factory=set)
    #: string keys of dict literals in the function's own body
    dict_keys: set[str] = field(default_factory=set)
    #: constant-string subscripts/gets of the first non-self parameter
    param_reads: set[str] = field(default_factory=set)
    #: the first non-self parameter was subscripted with a non-constant key
    dynamic_param_read: bool = False

    @property
    def span(self) -> tuple[int, int]:
        return (self.lineno, self.end_lineno)


@dataclass
class ClassInfo:
    """One class: its methods, keyed by name."""

    name: str
    node: ast.ClassDef
    rel: str  # module path relative to the scan root
    functions: dict[str, FunctionInfo] = field(default_factory=dict)

    @property
    def has_snapshot_hooks(self) -> bool:
        return "export_state" in self.functions and "restore_state" in self.functions

    def persistent_fields(self, exclude: Sequence[str] = ()) -> dict[str, int]:
        """Attributes assigned by any method outside ``exclude``.

        These are the fields an instance carries across events — the set a
        snapshot must account for.  Fields assigned *only* inside the
        excluded hooks belong to the snapshot mechanism itself.
        """
        out: dict[str, int] = {}
        for fn in self.functions.values():
            if fn.name in exclude:
                continue
            for attr, line in fn.self_stores.items():
                out.setdefault(attr, line)
        return out

    def closure(self, name: str, depth: int = 1) -> list[FunctionInfo]:
        """``name`` plus the same-class methods it calls, to ``depth``.

        Depth 1 (the default, used by DL010) covers the hook itself and its
        direct helpers — deep enough to credit index-rebuild helpers such
        as the array manager's ``_derive_tables``, shallow enough that event handlers
        reachable through restore-time resolvers don't dilute the check.
        """
        seen: dict[str, FunctionInfo] = {}
        frontier = [name]
        for _ in range(depth + 1):
            nxt: list[str] = []
            for n in frontier:
                fn = self.functions.get(n)
                if fn is None or n in seen:
                    continue
                seen[n] = fn
                nxt.extend(fn.self_calls)
            frontier = nxt
            if not frontier:
                break
        return list(seen.values())


@dataclass
class ModuleInfo:
    """One parsed module and its top-level classes."""

    rel: str
    source: SourceFile
    classes: dict[str, ClassInfo] = field(default_factory=dict)


@dataclass
class ProjectModel:
    """Everything the flow rules know about the tree."""

    modules: dict[str, ModuleInfo] = field(default_factory=dict)

    def iter_classes(self) -> Iterator[ClassInfo]:
        """Every class in every module, in module order."""
        for mod in self.modules.values():
            yield from mod.classes.values()

    def find_class(self, rel: str, name: str) -> Optional[ClassInfo]:
        """Look up a class by module-relative path and name."""
        mod = self.modules.get(rel)
        return mod.classes.get(name) if mod is not None else None


def _decorator_names(node: FunctionNode) -> list[str]:
    names = []
    for dec in node.decorator_list:
        if isinstance(dec, ast.Name):
            names.append(dec.id)
        elif isinstance(dec, ast.Attribute):
            names.append(dec.attr)
        elif isinstance(dec, ast.Call):
            fn = dec.func
            names.append(fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", ""))
    return names


def _first_param(node: FunctionNode) -> Optional[str]:
    """The first parameter after ``self``/``cls`` (the state dict in hooks)."""
    args = [a.arg for a in node.args.posonlyargs + node.args.args]
    args = [a for a in args if a not in ("self", "cls")]
    return args[0] if args else None


class _FunctionSummariser(ast.NodeVisitor):
    """Collect the per-function facts; descends into closures, not classes."""

    def __init__(self, info: FunctionInfo, param: Optional[str]) -> None:
        self.info = info
        self.param = param

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass  # nested classes summarise separately, if ever needed

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            self.info.self_refs.add(node.attr)
            if isinstance(node.ctx, ast.Store):
                self.info.self_stores.setdefault(node.attr, node.lineno)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        fn = node.func
        if (
            isinstance(fn, ast.Attribute)
            and isinstance(fn.value, ast.Name)
            and fn.value.id == "self"
        ):
            self.info.self_calls.add(fn.attr)
        if (
            self.param is not None
            and isinstance(fn, ast.Attribute)
            and fn.attr == "get"
            and isinstance(fn.value, ast.Name)
            and fn.value.id == self.param
            and node.args
        ):
            key = node.args[0]
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                self.info.param_reads.add(key.value)
            else:
                self.info.dynamic_param_read = True
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                self.info.dict_keys.add(key.value)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if (
            self.param is not None
            and isinstance(node.value, ast.Name)
            and node.value.id == self.param
        ):
            sl = node.slice
            if isinstance(sl, ast.Constant) and isinstance(sl.value, str):
                self.info.param_reads.add(sl.value)
            else:
                self.info.dynamic_param_read = True
        self.generic_visit(node)


def summarise_function(node: FunctionNode) -> FunctionInfo:
    """Build the :class:`FunctionInfo` summary for one method."""
    decorators = _decorator_names(node)
    info = FunctionInfo(
        name=node.name,
        node=node,
        lineno=node.lineno,
        end_lineno=node.end_lineno or node.lineno,
        is_property="property" in decorators or "cached_property" in decorators,
        decorators=decorators,
    )
    visitor = _FunctionSummariser(info, _first_param(node))
    for stmt in node.body:
        visitor.visit(stmt)
    return info


def _summarise_class(node: ast.ClassDef, rel: str) -> ClassInfo:
    cls = ClassInfo(name=node.name, node=node, rel=rel)
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # setter/getter pairs: keep the first definition (the getter).
            cls.functions.setdefault(stmt.name, summarise_function(stmt))
    return cls


def _build(files: Sequence[SourceFile]) -> ProjectModel:
    model = ProjectModel()
    for f in files:
        mod = ModuleInfo(rel=f.rel, source=f)
        for stmt in f.tree.body:
            if isinstance(stmt, ast.ClassDef):
                mod.classes[stmt.name] = _summarise_class(stmt, f.rel)
        model.modules[f.rel] = mod
    return model


# One-entry cache keyed on the identity of the runner's file list: run_lint
# loads every file once and hands the same list object to every rule, so all
# four flow rules share a single model build per run.
_cache: Optional[tuple[int, int, ProjectModel]] = None


def build_model(files: Sequence[SourceFile]) -> ProjectModel:
    """The (cached) project model for this lint run's file list."""
    global _cache
    key = (id(files), len(files))
    if _cache is not None and _cache[:2] == key:
        return _cache[2]
    model = _build(files)
    _cache = (key[0], key[1], model)
    return model


__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectModel",
    "build_model",
    "summarise_function",
]
