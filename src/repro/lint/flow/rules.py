"""The whole-program flow rules: DL010–DL013 (DESIGN.md §15).

Each rule is a ``check_project`` pass over the shared
:class:`~repro.lint.flow.model.ProjectModel` (built once per run and
cached), so adding all four costs one model build plus per-rule analysis.
Findings are *function-scoped* for suppression purposes: a
``# dreamlint: disable=DL01x (reason)`` anywhere inside the enclosing
function (or on the exact finding line) silences them, because a flow
finding describes a property of a whole path, not of one token.

Allowlist policy: a field, branch, or member lands in an allowlist below
only with a written reason, and the reason must describe *why the
deviation is the design* — "the linter is wrong" is not a reason.  The
golden-trace suites pin the step accounting, so an uncharged branch that
is genuinely reference behaviour (a full-queue rejection, a read-side
view) is allowlisted rather than "fixed" into a digest change.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Optional, Sequence

from repro.lint.core import Finding, Rule, SourceFile, register
from repro.lint.flow.callgraph import ChargeModel
from repro.lint.flow.dataflow import TaintAnalysis
from repro.lint.flow.model import ClassInfo, FunctionInfo, build_model

# -- DL010: snapshot-field coverage -------------------------------------------

#: The hook names forming the snapshot protocol.  Fields assigned *only*
#: inside these belong to the mechanism, not to the persistent state.
EXPORT_HOOKS = ("export_state",)
RESTORE_HOOKS = ("restore_state", "restore_scrub_tasks")

#: Persistent-looking fields that deliberately do not round-trip.
#: Keyed by ``<module rel path>::<class>`` → {field: reason}.  Reasons are
#: part of the contract: they say why skipping the field preserves the
#: byte-identical restore guarantee proven by tests/snapshot_harness.py.
_CONSTRUCTION = (
    "construction parameter: restore targets a freshly built identical "
    "system (DESIGN.md §14), so the value is re-supplied by the builder"
)
_DERIVED_STATIC = (
    "derived once from the construction-time node/config lists, which "
    "restore never changes"
)
_OBSERVABILITY = (
    "per-run observability series, outside the restore contract — restarts "
    "empty on resume and never feeds trace digests or the Table I report"
)
_SERIES_COLUMN = "series restart empty on restore, as today"
DL010_ALLOW: dict[str, dict[str, str]] = {
    "framework/failures.py::FailureInjector": {
        # export_state's docstring is explicit: "Parameters do NOT travel" —
        # the injector is rebuilt with the original campaign spec and only
        # the dynamic process state (events, open windows, rng) restores.
        field: _CONSTRUCTION
        for field in (
            "mtbf",
            "mttr",
            "max_failures",
            "seu_rate",
            "scrub_factor",
            "retry_budget",
            "backoff_base",
            "backoff_cap",
            "burst_rate",
            "burst_size",
            "burst_group",
            "health_half_life",
            "quarantine_threshold",
            "probation",
        )
    },
    "framework/monitoring.py::Monitor": {
        "min_interval": _CONSTRUCTION,
        "trace": _CONSTRUCTION,
        "busy_nodes": _OBSERVABILITY,
        "queue_length": _OBSERVABILITY,
        "wasted_area": _OBSERVABILITY,
        "running_tasks": _OBSERVABILITY,
        # The columns behind the series above.
        **dict.fromkeys(
            ("times", "busy_col", "running_col", "queued_col", "waste_col"),
            _SERIES_COLUMN,
        ),
    },
    "framework/simulator.py::DReAMSim": {
        "backend": _CONSTRUCTION,
        "load": "stateless balancing view over the rim; holds no state of its own",
        "_debug_every": _CONSTRUCTION,
        "_final_value": (
            "set by run() after completion; snapshots are only cut mid-run "
            "(snapshot_of requires a started, unfinished simulation)"
        ),
        "_config_by_no": _DERIVED_STATIC,
        "_hot": (
            "the hot loop driving the run, not run state: a paused loop "
            "publishes everything to the simulator's own fields at each "
            "window bound, and a restored run's first drive builds a new "
            "loop that adopts the restored events"
        ),
    },
    "model/gpp.py::GppPool": {
        "count": _CONSTRUCTION,
        "cores": _CONSTRUCTION,
        "slowdown": _CONSTRUCTION,
        "network_delay": _CONSTRUCTION,
    },
    "resources/manager.py::ResourceInformationManager": {
        "configs": _CONSTRUCTION,
        "counters": _CONSTRUCTION,
        "trace": _CONSTRUCTION,
        "_node_pos": _DERIVED_STATIC,
        "on_quarantine_release": (
            "callback slot wired by the failure injector when it arms; "
            "restore_snapshot requires an un-armed injector and re-wires it"
        ),
    },
    "resources/arraycore.py::ArrayRIM": {
        "configs": _CONSTRUCTION,
        "counters": _CONSTRUCTION,
        "trace": _CONSTRUCTION,
        "_cfg_keys": _DERIVED_STATIC,
        "_pos": _DERIVED_STATIC,
        "on_quarantine_release": (
            "callback slot wired by the failure injector when it arms; "
            "restore_snapshot requires an un-armed injector and re-wires it"
        ),
    },
    "resources/susqueue.py::SuspensionQueue": {
        "counters": _CONSTRUCTION,
        "trace": _CONSTRUCTION,
        "max_retries": _CONSTRUCTION,
        "max_length": _CONSTRUCTION,
        "order": _CONSTRUCTION,
        "_free": (
            "slot free-list: restore rebuilds the columns compactly, so the "
            "free list is empty by construction after a restore"
        ),
    },
}

#: Exported keys read by a restore helper other than the hook itself, or
#: consumed structurally (e.g. verified rather than assigned).  Same shape
#: as DL010_ALLOW, keyed by exported key name.
DL010_KEY_ALLOW: dict[str, dict[str, str]] = {}


def _class_key(cls: ClassInfo) -> str:
    return f"{cls.rel}::{cls.name}"


def _restore_refs(cls: ClassInfo) -> set[str]:
    """Attributes the restore hooks (plus direct helpers) touch."""
    refs: set[str] = set()
    for hook in RESTORE_HOOKS:
        if hook in cls.functions:
            for fn in cls.closure(hook, depth=1):
                refs |= fn.self_refs
    return refs


def _export_top_keys(fn: FunctionInfo) -> Optional[set[str]]:
    """The top-level keys of the dict an export hook returns.

    Handles the two shapes in the tree: ``return { ... }`` directly, and a
    local ``state = { ... }`` (plus later ``state["k"] = ...`` stores) that
    is then returned.  Returns ``None`` when the shape is something else —
    the key-parity check then stands down for that class.
    """
    returned: Optional[str] = None
    ret_dict: Optional[ast.Dict] = None
    for stmt in ast.walk(fn.node):
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            if isinstance(stmt.value, ast.Dict):
                ret_dict = stmt.value
            elif isinstance(stmt.value, ast.Name):
                returned = stmt.value.id
    keys: set[str] = set()
    if ret_dict is not None:
        dicts = [ret_dict]
    elif returned is not None:
        dicts = [
            s.value
            for s in ast.walk(fn.node)
            if isinstance(s, ast.Assign)
            and isinstance(s.value, ast.Dict)
            and any(
                isinstance(t, ast.Name) and t.id == returned for t in s.targets
            )
        ]
        for s in ast.walk(fn.node):
            if (
                isinstance(s, ast.Assign)
                and len(s.targets) == 1
                and isinstance(s.targets[0], ast.Subscript)
                and isinstance(s.targets[0].value, ast.Name)
                and s.targets[0].value.id == returned
                and isinstance(s.targets[0].slice, ast.Constant)
                and isinstance(s.targets[0].slice.value, str)
            ):
                keys.add(s.targets[0].slice.value)
        if not dicts:
            return None
    else:
        return None
    for d in dicts:
        for k in d.keys:
            if isinstance(k, ast.Constant) and isinstance(k.value, str):
                keys.add(k.value)
            else:
                return None  # computed keys: parity cannot be checked
    return keys


@register
class SnapshotFieldCoverage(Rule):
    """DL010: every persistent field round-trips through the snapshot hooks."""

    id = "DL010"
    title = "snapshot-persistent fields must round-trip through restore_state"
    suppress_scope = "function"
    rationale = (
        "A field assigned by __init__ or a mutator but never touched by "
        "restore_state silently resets on resume — the exact bug class the "
        "byte-identical restore guarantee (DESIGN.md §14) forbids.  Derived "
        "caches that restore rebuilds indirectly belong in DL010_ALLOW with "
        "a reason."
    )

    def check_project(self, files: Sequence[SourceFile], root: Path) -> Iterator[Finding]:
        model = build_model(files)
        by_rel = {f.rel: f for f in files}
        for cls in model.iter_classes():
            if not cls.has_snapshot_hooks:
                continue
            f = by_rel[cls.rel]
            allow = DL010_ALLOW.get(_class_key(cls), {})
            refs = _restore_refs(cls)
            hooks = EXPORT_HOOKS + RESTORE_HOOKS
            for field, line in sorted(cls.persistent_fields(exclude=hooks).items()):
                if field in refs or field in allow:
                    continue
                yield self.finding(
                    f,
                    line,
                    f"{cls.name}.{field} is assigned here but never referenced "
                    "by restore_state (or its direct helpers) — the field will "
                    "not survive a snapshot/restore cycle; restore it or add "
                    "it to DL010_ALLOW with a reason",
                )
            yield from self._key_parity(f, cls)

    def _key_parity(self, f: SourceFile, cls: ClassInfo) -> Iterator[Finding]:
        export = cls.functions["export_state"]
        restore = cls.functions["restore_state"]
        if restore.dynamic_param_read:
            return  # restore walks keys dynamically; parity is untrackable
        exported = _export_top_keys(export)
        if exported is None:
            return
        read = set(restore.param_reads)
        for hook in RESTORE_HOOKS[1:]:
            if hook in cls.functions:
                read |= cls.functions[hook].param_reads
        key_allow = DL010_KEY_ALLOW.get(_class_key(cls), {})
        for key in sorted(exported - read - set(key_allow)):
            yield self.finding(
                f,
                export.node,
                f"{cls.name}.export_state exports key '{key}' but "
                "restore_state never reads it — either dead snapshot weight "
                "or a field that silently fails to restore",
            )


# -- DL011: charge-on-all-paths -----------------------------------------------

#: Manager methods that must bill simulated steps on every non-exceptional
#: return path, on each class that defines them.  Peek/read-side views
#: (peek_*, configured_in_service, quarantine predicates) are deliberately
#: uncharged observability surfaces;
#: total_wasted_area charges only when the caller opts in (charge=True);
#: export/restore are out-of-band service machinery.
MANAGER_CHARGED = frozenset(
    {
        "find_preferred_config",
        "find_closest_config",
        "find_best_idle_entry",
        "find_best_blank_node",
        "find_best_partially_blank_node",
        "find_any_idle_node",
        "busy_candidate_exists",
        "find_quarantined_host",
        "configure_node",
        "assign_task",
        "complete_task",
        "evict_entries",
        "fail_node",
        "repair_node",
        "seu_corrupt",
        "finish_scrub",
        "release_quarantined",
    }
)

#: Suspension-queue methods with the same obligation.  first_with_key
#: delegates the charging decision to the caller by contract (the scheduler
#: bills the enclosing scan); expired is uncharged bookkeeping.
SUSQUEUE_CHARGED = frozenset({"add", "remove", "search", "charge_full_scan"})

#: (module rel path, class name) → the methods under obligation.
DL011_METHODS: dict[tuple[str, str], frozenset[str]] = {
    ("resources/manager.py", "ResourceInformationManager"): MANAGER_CHARGED,
    ("resources/arraycore.py", "ArrayRIM"): MANAGER_CHARGED,
    ("resources/susqueue.py", "SuspensionQueue"): SUSQUEUE_CHARGED,
}


@register
class ChargeOnAllPaths(Rule):
    """DL011: manager queries bill steps on every non-exceptional path."""

    id = "DL011"
    title = "resource-manager queries must charge steps on every return path"
    suppress_scope = "function"
    rationale = (
        "An early return that skips the step charge diverges the ss/hk "
        "counters — and with them every trace stamp and golden digest — "
        "only on the inputs that hit the branch (the bug class PR 1 fixed "
        "by hand in find_any_idle_node).  A loop whose body charges counts "
        "as charging on the zero-iteration exit (per-element cost is the "
        "reference semantics); raise paths are exempt; calls into same-"
        "class methods that always charge are credited via a fixpoint."
    )

    def check_project(self, files: Sequence[SourceFile], root: Path) -> Iterator[Finding]:
        model = build_model(files)
        by_rel = {f.rel: f for f in files}
        for (rel, cls_name), methods in sorted(DL011_METHODS.items()):
            cls = model.find_class(rel, cls_name)
            if cls is None:
                continue  # DL013 reports missing backends
            f = by_rel[rel]
            charges = ChargeModel(cls)
            for method in sorted(methods & set(cls.functions)):
                fn = cls.functions[method]
                for node in charges.uncharged(method):
                    anchor = node.stmt if node.stmt is not None else fn.node
                    where = (
                        "can fall off the end"
                        if node.stmt is None
                        else "has a return path"
                    )
                    yield self.finding(
                        f,
                        anchor,
                        f"{cls_name}.{method} {where} that never charges "
                        "simulated steps (no counters.charge_* call or "
                        "step-counter increment reaches it)",
                    )


# -- DL012: float-taint contagion ---------------------------------------------

#: Modules whose emit calls are exempt: the bus itself stamps events.
TAINT_EXEMPT_PREFIXES = ("trace/",)


@register
class FloatTaintContagion(Rule):
    """DL012: float-derived values must not reach events or snapshots."""

    id = "DL012"
    title = "float-tainted values must not flow into events, charges, or snapshots"
    suppress_scope = "function"
    rationale = (
        "DL002 bans float syntax in the accounting modules; this rule "
        "follows the values.  A float that reaches a trace-event field, a "
        "step charge, or an export_state payload poisons byte-identical "
        "digests and JSON snapshots across platforms.  int()/len()/round()/"
        ".hex() conversions sanitize (the hex round-trip is the sanctioned "
        "way to persist a float exactly)."
    )

    def check_project(self, files: Sequence[SourceFile], root: Path) -> Iterator[Finding]:
        from repro.lint.flow.model import summarise_function

        model = build_model(files)
        by_rel = {f.rel: f for f in files}
        for cls in model.iter_classes():
            f = by_rel[cls.rel]
            for fn in cls.functions.values():
                yield from self._check_function(f, cls.name, fn)
        for f in files:  # module-level functions emit and export too
            for stmt in f.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from self._check_function(
                        f, f.rel, summarise_function(stmt)
                    )

    def _check_function(
        self, f: SourceFile, owner: str, fn: FunctionInfo
    ) -> Iterator[Finding]:
        taint = TaintAnalysis(fn.node)
        exempt_emit = f.rel.startswith(TAINT_EXEMPT_PREFIXES)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                if attr == "emit" and not exempt_emit:
                    # emit(shape, *values): every value after the shape.
                    fields = [
                        (f"value {i} ('{ast.unparse(arg)}')", arg)
                        for i, arg in enumerate(node.args[1:], start=1)
                    ] + [
                        (f"field '{kw.arg}'", kw.value)
                        for kw in node.keywords
                        if kw.arg is not None
                    ]
                    for what, value in fields:
                        if taint.expr_tainted(value):
                            yield self.finding(
                                f,
                                value,
                                f"float-tainted value flows into trace-event "
                                f"{what} of {owner}.{fn.name} — "
                                "convert with int()/round() or persist via "
                                ".hex()",
                            )
                elif attr.startswith("charge_"):
                    for arg in list(node.args) + [k.value for k in node.keywords]:
                        if taint.expr_tainted(arg):
                            yield self.finding(
                                f,
                                arg,
                                f"float-tainted step count passed to "
                                f"{attr}() in {owner}.{fn.name} — step "
                                "charges are integer-exact by contract",
                            )
            elif (
                isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Attribute)
                and node.target.attr in ("scheduling_steps", "housekeeping_steps")
                and taint.expr_tainted(node.value)
            ):
                yield self.finding(
                    f,
                    node,
                    f"float-tainted increment of {node.target.attr} in "
                    f"{owner}.{fn.name} — step counters are integers",
                )
            elif (
                isinstance(node, ast.Return)
                and fn.name in EXPORT_HOOKS
                and taint.expr_tainted(node.value)
            ):
                yield self.finding(
                    f,
                    node,
                    f"float-tainted value in the {owner}.export_state "
                    "payload — snapshots persist floats via .hex() only",
                )


# -- DL013: backend API parity ------------------------------------------------

#: The dunder surface that is part of the backend contract.
PARITY_DUNDERS = frozenset({"__init__", "__len__", "__bool__", "__iter__", "__contains__"})

#: (reference class, substitute class) pairs behind create_manager().
DL013_PAIRS: tuple[tuple[tuple[str, str], tuple[str, str]], ...] = (
    (
        ("resources/manager.py", "ResourceInformationManager"),
        ("resources/arraycore.py", "ArrayRIM"),
    ),
)

_GENERIC_PATH_ONLY = (
    "scan-manager-only query of the generic path (scheduler, monitor), which "
    "runs over the scan manager alone; the hot loop reads the array tables itself"
)

#: Sanctioned asymmetries, keyed by (reference, substitute) class names.
DL013_ALLOW: dict[tuple[str, str], dict[str, str]] = {
    ("ResourceInformationManager", "ArrayRIM"): {
        **dict.fromkeys(
            (
                "find_preferred_config", "find_closest_config", "find_best_idle_entry",
                "find_best_blank_node", "find_best_partially_blank_node",
                "find_any_idle_node", "busy_candidate_exists", "has_quarantined",
            ),
            _GENERIC_PATH_ONLY,
        ),
        "validate_structures": (
            "array-backend-only deep invariant checker used by the "
            "differential suite; never called through the manager protocol"
        ),
    },
}


def _signature(fn: FunctionInfo) -> tuple[tuple[str, str, bool], ...]:
    """Comparable signature: (name, kind, has_default) per parameter.

    Annotations and default *values* are excluded on purpose — return
    types may legitimately differ and defaults are compared by presence,
    not value, since create_manager() supplies them.
    """
    a = fn.node.args
    out: list[tuple[str, str, bool]] = []
    pos = a.posonlyargs + a.args
    n_def = len(a.defaults)
    for i, arg in enumerate(pos):
        if arg.arg in ("self", "cls"):
            continue
        out.append((arg.arg, "positional", i >= len(pos) - n_def))
    if a.vararg is not None:
        out.append((a.vararg.arg, "vararg", False))
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        out.append((arg.arg, "keyword-only", default is not None))
    if a.kwarg is not None:
        out.append((a.kwarg.arg, "kwarg", False))
    return tuple(out)


def _is_public(name: str) -> bool:
    return not name.startswith("_") or name in PARITY_DUNDERS


@register
class BackendParity(Rule):
    """DL013: interchangeable backends expose identical public signatures."""

    id = "DL013"
    title = "manager backends must expose identical public APIs"
    suppress_scope = "function"
    rationale = (
        "create_manager(backend=...) substitutes these classes for each "
        "other; a method present on one backend only, or with a different "
        "parameter list, makes the substitution silently unsound for any "
        "caller exercising it.  Sanctioned asymmetries live in DL013_ALLOW "
        "with reasons."
    )

    def check_project(self, files: Sequence[SourceFile], root: Path) -> Iterator[Finding]:
        model = build_model(files)
        by_rel = {f.rel: f for f in files}
        for (ref_loc, sub_loc) in DL013_PAIRS:
            ref = model.find_class(*ref_loc)
            sub = model.find_class(*sub_loc)
            if ref is None or sub is None:
                continue  # the class moved; model scoping rots loudly in tests
            allow = DL013_ALLOW.get((ref.name, sub.name), {})
            ref_pub = {n for n in ref.functions if _is_public(n)}
            sub_pub = {n for n in sub.functions if _is_public(n)}
            for name in sorted((ref_pub ^ sub_pub) - set(allow)):
                present, absent = (ref, sub) if name in ref_pub else (sub, ref)
                f = by_rel[present.rel]
                yield self.finding(
                    f,
                    present.functions[name].node,
                    f"{present.name}.{name} has no counterpart on "
                    f"{absent.name} — backend substitution via "
                    "create_manager() is unsound for callers using it",
                )
            for name in sorted((ref_pub & sub_pub) - set(allow)):
                rf, sf = ref.functions[name], sub.functions[name]
                f = by_rel[sub.rel]
                if rf.is_property != sf.is_property:
                    kinds = ("property" if sf.is_property else "method",
                             "property" if rf.is_property else "method")
                    yield self.finding(
                        f,
                        sf.node,
                        f"{sub.name}.{name} is a {kinds[0]} but "
                        f"{ref.name}.{name} is a {kinds[1]}",
                    )
                    continue
                if _signature(rf) != _signature(sf):
                    yield self.finding(
                        f,
                        sf.node,
                        f"{sub.name}.{name} signature differs from "
                        f"{ref.name}.{name}: "
                        f"{_render_sig(sf)} vs {_render_sig(rf)}",
                    )


def _render_sig(fn: FunctionInfo) -> str:
    parts = []
    for name, kind, has_default in _signature(fn):
        prefix = {"vararg": "*", "kwarg": "**"}.get(kind, "")
        parts.append(f"{prefix}{name}{'=…' if has_default else ''}")
    return "(" + ", ".join(parts) + ")"


__all__ = [
    "BackendParity",
    "ChargeOnAllPaths",
    "DL010_ALLOW",
    "DL010_KEY_ALLOW",
    "DL011_METHODS",
    "DL013_ALLOW",
    "DL013_PAIRS",
    "FloatTaintContagion",
    "MANAGER_CHARGED",
    "SUSQUEUE_CHARGED",
    "SnapshotFieldCoverage",
]
