"""The project rule set: DL001–DL009 (DESIGN.md §11).

Each rule is a small AST visitor over one :class:`~repro.lint.core.SourceFile`
(or, for the cross-file rules DL004/DL006, over the whole tree).  Rules are
scoped by root-relative path, so running the linter on ``src/repro`` applies
each rule exactly to the modules it governs; fixture trees in tests mimic
those paths to exercise the scoping.

Allowlists
----------
DL002's integer-accounting rule carries an explicit allowlist
(:data:`DL002_ALLOW`) for the few places float arithmetic is the *design*:
the Welford statistics accumulators and the GPP slowdown model.  Everything
else (the suspension queue's float rank keys, say) needs an inline
``# dreamlint: disable=DL002 (reason)``.  The allowlist maps a
root-relative path to qualified-name prefixes (``"*"`` = whole module).
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path
from typing import Iterator, Optional, Sequence

from repro.lint.core import Finding, Rule, Severity, SourceFile, register

# ---------------------------------------------------------------------------
# Scoping configuration
# ---------------------------------------------------------------------------

#: Modules whose step/area/tick accounting must stay integer-exact (DL002).
ACCOUNTING_PREFIXES = ("resources/", "model/")
ACCOUNTING_FILES = ("metrics/accumulators.py", "framework/failures.py")

#: DL002 allowlist: root-relative path -> qualname prefixes where float
#: arithmetic is the documented design, not an accounting bug.
DL002_ALLOW: dict[str, frozenset[str]] = {
    # Welford one-pass mean/variance is float statistics by definition.
    "metrics/accumulators.py": frozenset({"*"}),
    # The GPP offload model's slowdown factor is a float multiplier.
    "model/gpp.py": frozenset({"*"}),
}

#: Modules on hot simulated paths where deepcopy is banned (DL007).
HOT_PREFIXES = ("resources/", "model/", "core/", "sim/", "framework/", "trace/")

#: Files that *implement* a resource manager (DL005): these own the guarded
#: chain/index/aggregate state and may mutate it.  ``manager.py`` is the
#: scan (object-graph) implementation; ``arraycore.py`` is the flat-table
#: array backend, whose columns carry the same invariants (checked by
#: ``validate_structures`` and the array-vs-scan differential suite).
DL005_OWNERS = frozenset({"resources/manager.py", "resources/arraycore.py"})

#: Manager-owned chain/index/aggregate attributes (DL005): mutating any of
#: these outside the manager implementations (:data:`DL005_OWNERS`) bypasses
#: the transitions that keep the §IV-B redundant views and the I9/I10
#: aggregates exact — the scan manager's ``_track`` guard and the array
#: manager's ``_busy_shift`` / ``_regions_shift``.  The hot loop's inlined
#: copies of those transitions carry per-line suppressions.
GUARDED_ATTRS = frozenset(
    {
        "_idle",
        "_busy",
        "_blank",
        "state_counts",
        "_wasted_total",
        "running_tasks_count",
        "_entries_total",
        "_idle_node_entries",
        "_failed_count",
        "_load_sum_i",
        "_load_sumsq_i",
        "_quarantined",
        "_used_nodes",
        "_node_pos",
        "_chain_seq",
    }
)

_MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)

_WALLCLOCK_CALLS = {
    "time": {"time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
             "monotonic_ns", "process_time", "process_time_ns"},
    "datetime": {"now", "today", "utcnow"},
    "date": {"today"},
    "os": {"urandom", "getrandom"},
    "uuid": {"uuid1", "uuid4"},
}

_INVARIANT_RE = re.compile(r"\bI\d+\b")


def _in_accounting_module(rel: str) -> bool:
    return rel.startswith(ACCOUNTING_PREFIXES) or rel in ACCOUNTING_FILES


def _qualname_allowed(allow: frozenset[str], qualname: str) -> bool:
    if "*" in allow:
        return True
    return any(qualname == a or qualname.startswith(a + ".") for a in allow)


class _QualnameVisitor(ast.NodeVisitor):
    """Base visitor tracking the enclosing class/function qualified name."""

    def __init__(self) -> None:
        self.stack: list[str] = []

    @property
    def qualname(self) -> str:
        return ".".join(self.stack)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def _visit_func(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_func(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_func(node)


# ---------------------------------------------------------------------------
# DL001 — no nondeterminism in simulated code
# ---------------------------------------------------------------------------


@register
class NoNondeterminism(Rule):
    """DL001: no wall-clock reads or unseeded randomness in src/repro."""

    id = "DL001"
    title = "no wall-clock or unseeded randomness in src/repro"
    severity = Severity.ERROR
    rationale = (
        "Simulated decisions must depend only on the seeded repro.rng streams "
        "and simulation time; wall-clock reads, bare `random`, id()-ordered "
        "sorts and set-order iteration all break bit-identical replication. "
        "Process pools are nondeterminism too (completion order, os.fork "
        "state): multiprocessing / concurrent.futures may only be touched by "
        "the audited sweep engine under repro/parallel/."
    )

    # Worker management is confined to the sweep engine; anywhere else a
    # pool import is a side channel around its deterministic merge.
    _POOL_MODULES = ("multiprocessing", "concurrent")
    _POOL_EXEMPT_PREFIX = "parallel/"

    def _pool_import(self, f: SourceFile, module: str) -> bool:
        return (
            module.split(".")[0] in self._POOL_MODULES
            and not f.rel.startswith(self._POOL_EXEMPT_PREFIX)
        )

    def check_file(self, f: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(f.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top in ("random", "secrets"):
                        yield self.finding(
                            f,
                            node,
                            f"import of {alias.name!r}: use the seeded "
                            "repro.rng streams instead",
                        )
                    elif self._pool_import(f, alias.name):
                        yield self.finding(
                            f,
                            node,
                            f"import of {alias.name!r}: process pools are "
                            "confined to repro.parallel (the deterministic "
                            "sweep engine); go through SweepExecutor",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] in ("random", "secrets"):
                    yield self.finding(
                        f,
                        node,
                        f"import from {node.module!r}: use the seeded "
                        "repro.rng streams instead",
                    )
                elif node.module and self._pool_import(f, node.module):
                    yield self.finding(
                        f,
                        node,
                        f"import from {node.module!r}: process pools are "
                        "confined to repro.parallel (the deterministic "
                        "sweep engine); go through SweepExecutor",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(f, node)
            elif isinstance(node, (ast.For, ast.comprehension)):
                it = node.iter
                if isinstance(it, (ast.Set, ast.SetComp)) or (
                    isinstance(it, ast.Call)
                    and isinstance(it.func, ast.Name)
                    and it.func.id in ("set", "frozenset")
                ):
                    anchor = node if isinstance(node, ast.For) else it
                    yield self.finding(
                        f,
                        anchor,
                        "iteration over a set feeds simulated decisions in "
                        "hash order; iterate a list or sorted() view",
                    )

    def _check_call(self, f: SourceFile, node: ast.Call) -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Attribute):
            attr = func.attr
            owner = self._terminal_name(func.value)
            if owner in ("random", "secrets"):
                yield self.finding(
                    f,
                    node,
                    f"call of {owner}.{attr}: unseeded randomness is banned "
                    "in simulated code (use repro.rng)",
                )
            elif attr in _WALLCLOCK_CALLS.get(owner, ()):
                yield self.finding(
                    f,
                    node,
                    f"call of {owner}.{attr}: wall-clock/nondeterministic "
                    "source in simulated code",
                )
            elif attr == "sort":
                yield from self._check_sort_key(f, node)
        elif isinstance(func, ast.Name) and func.id == "sorted":
            yield from self._check_sort_key(f, node)

    @staticmethod
    def _terminal_name(expr: ast.expr) -> str:
        """Last dotted component of the call receiver (``a.b.c`` -> ``c``)."""
        if isinstance(expr, ast.Attribute):
            return expr.attr
        if isinstance(expr, ast.Name):
            return expr.id
        return ""

    def _check_sort_key(self, f: SourceFile, node: ast.Call) -> Iterator[Finding]:
        for kw in node.keywords:
            if kw.arg == "key" and isinstance(kw.value, ast.Name) and kw.value.id == "id":
                yield self.finding(
                    f,
                    node,
                    "sort keyed on id(): interpreter-address order is not "
                    "reproducible across runs",
                )


# ---------------------------------------------------------------------------
# DL002 — integer-exact accounting
# ---------------------------------------------------------------------------


@register
class IntegerAccounting(Rule):
    """DL002: no float literals or true division in accounting modules."""

    id = "DL002"
    title = "no float literals/true division in accounting modules"
    severity = Severity.ERROR
    rationale = (
        "Step, area and tick accounting is integer-exact by design (the "
        "golden digests depend on it); float creep is silent corruption. "
        "Documented float surfaces live in DL002_ALLOW; anything else needs "
        "an inline suppression with a reason."
    )

    def check_file(self, f: SourceFile) -> Iterator[Finding]:
        if not _in_accounting_module(f.rel):
            return
        allow = DL002_ALLOW.get(f.rel, frozenset())
        rule = self
        out: list[Finding] = []

        class V(_QualnameVisitor):
            def _flag(self, node: ast.AST, msg: str) -> None:
                if not _qualname_allowed(allow, self.qualname):
                    out.append(rule.finding(f, node, msg))

            def visit_Constant(self, node: ast.Constant) -> None:
                if isinstance(node.value, float):
                    self._flag(node, f"float literal {node.value!r} in accounting module")

            def visit_BinOp(self, node: ast.BinOp) -> None:
                if isinstance(node.op, ast.Div):
                    self._flag(node, "true division (/) in accounting module; use // or Fraction-style integer math")
                self.generic_visit(node)

            def visit_AugAssign(self, node: ast.AugAssign) -> None:
                if isinstance(node.op, ast.Div):
                    self._flag(node, "true division (/=) in accounting module")
                self.generic_visit(node)

            def visit_Call(self, node: ast.Call) -> None:
                if isinstance(node.func, ast.Name) and node.func.id == "float":
                    self._flag(node, "float() conversion in accounting module")
                self.generic_visit(node)

        V().visit(f.tree)
        yield from out


# ---------------------------------------------------------------------------
# DL003 — trace events only through the bus
# ---------------------------------------------------------------------------


@register
class TraceViaBus(Rule):
    """DL003: trace events built in trace/ and emitted through TraceBus."""

    id = "DL003"
    title = "trace events constructed in trace/ and emitted via TraceBus only"
    severity = Severity.ERROR
    rationale = (
        "The bus stamps seq/time/ss/hk; an event built or written to a sink "
        "directly skips the stamps and silently breaks the order-sensitive "
        "digest."
    )

    def check_file(self, f: SourceFile) -> Iterator[Finding]:
        if f.rel.startswith("trace/"):
            return
        for node in ast.walk(f.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "TraceEvent":
                yield self.finding(
                    f,
                    node,
                    "TraceEvent constructed outside repro.trace: emit through "
                    "TraceBus.emit so seq/time/ss/hk stamps stay canonical",
                )
            elif isinstance(func, ast.Attribute) and func.attr == "write":
                recv = func.value
                name = recv.id if isinstance(recv, ast.Name) else (
                    recv.attr if isinstance(recv, ast.Attribute) else ""
                )
                if "sink" in name.lower():
                    yield self.finding(
                        f,
                        node,
                        f"direct sink write ({name}.write): events must flow "
                        "through TraceBus.emit",
                    )


# ---------------------------------------------------------------------------
# DL004 — taxonomy coverage (events ↔ replayer ↔ golden traces)
# ---------------------------------------------------------------------------


@register
class TaxonomyCoverage(Rule):
    """DL004: every event type is replayable, exported, and golden-covered."""

    id = "DL004"
    title = "every event type has a replayer handler, export, and golden coverage"
    severity = Severity.ERROR
    rationale = (
        "An event type the replayer does not know would raise on replay (or "
        "worse, be silently skipped if the EVENT_TYPES pass-through hides "
        "it); golden traces that never exercise a type leave its digest path "
        "untested."
    )

    def check_project(self, files: Sequence[SourceFile], root: Path) -> Iterator[Finding]:
        events = next((f for f in files if f.rel == "trace/events.py"), None)
        if events is None:
            return
        members, values = self._event_types(events)
        if not members:
            return
        replay = next((f for f in files if f.rel == "trace/replay.py"), None)
        if replay is None:
            yield self.finding(events, 1, "trace/events.py present but trace/replay.py missing")
            return

        referenced = {
            n.attr for n in ast.walk(replay.tree) if isinstance(n, ast.Attribute)
        } | {n.id for n in ast.walk(replay.tree) if isinstance(n, ast.Name)}
        exported = self._dunder_all(events)
        for name, lineno in members.items():
            if name not in referenced:
                yield self.finding(
                    events,
                    lineno,
                    f"event type {name} has no handler reference in trace/replay.py",
                )
            if exported is not None and name not in exported:
                yield self.finding(
                    events, lineno, f"event type {name} missing from events.__all__"
                )

        golden = self._golden_dir(root)
        if golden is not None:
            seen: set[str] = set()
            for path in sorted(golden.glob("*.jsonl")):
                for line in path.read_text(encoding="utf-8").splitlines():
                    if line:
                        seen.add(json.loads(line)["ev"])
            for name, lineno in members.items():
                wire = values.get(name, name)
                if wire not in seen:
                    yield Finding(
                        self.id,
                        Severity.WARNING,
                        events.rel,
                        lineno,
                        0,
                        f"event type {name} ({wire!r}) appears in no golden "
                        "trace — digest coverage is untested",
                    )

    @staticmethod
    def _event_types(events: SourceFile) -> tuple[dict[str, int], dict[str, str]]:
        """EVENT_TYPES member names (with lines) and their wire strings."""
        values: dict[str, str] = {}
        members: dict[str, int] = {}
        for node in events.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                tgt = node.targets[0]
                if not isinstance(tgt, ast.Name):
                    continue
                if isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
                    values[tgt.id] = node.value.value
                elif tgt.id == "EVENT_TYPES":
                    for n in ast.walk(node.value):
                        if isinstance(n, ast.Name) and n.id != "frozenset":
                            members[n.id] = n.lineno
        return members, values

    @staticmethod
    def _dunder_all(f: SourceFile) -> Optional[set[str]]:
        for node in f.tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                return {
                    n.value
                    for n in ast.walk(node.value)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str)
                }
        return None

    @staticmethod
    def _golden_dir(root: Path) -> Optional[Path]:
        for up in (root, *root.parents[:3]):
            cand = up / "tests" / "golden"
            if cand.is_dir():
                return cand
        return None


# ---------------------------------------------------------------------------
# DL005 — chain/index/aggregate mutations only inside the manager
# ---------------------------------------------------------------------------


@register
class GuardedMutation(Rule):
    """DL005: manager-owned state is mutated only inside manager.py."""

    id = "DL005"
    title = "manager-owned chain/index/aggregate state mutated only in the managers"
    severity = Severity.ERROR
    rationale = (
        "The redundant §IV-B views stay consistent because every mutation "
        "runs inside a manager implementation's guarded methods (the scan "
        "manager's _track, the array manager's _busy_shift and "
        "_regions_shift); ad-hoc writes from other modules drift the I9/I10 "
        "aggregates."
    )

    def check_file(self, f: SourceFile) -> Iterator[Finding]:
        if f.rel in DL005_OWNERS:
            return

        def guarded(expr: ast.expr) -> Optional[str]:
            """The guarded attribute name if ``expr`` reaches one (possibly
            through subscripts: ``rim._idle[cno]``)."""
            while isinstance(expr, ast.Subscript):
                expr = expr.value
            if isinstance(expr, ast.Attribute) and expr.attr in GUARDED_ATTRS:
                return expr.attr
            return None

        for node in ast.walk(f.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for tgt in targets:
                    name = guarded(tgt)
                    # Assigning the attribute itself on `self` in a class that
                    # merely shares a field name is possible but does not
                    # occur; precision over recall is fine here (suppress
                    # with a reason if a false positive ever appears).
                    if name is not None:
                        yield self.finding(
                            f,
                            node,
                            f"write to manager-owned state {name!r} "
                            "outside the resource managers",
                        )
            elif isinstance(node, ast.Delete):
                for tgt in node.targets:
                    name = guarded(tgt)
                    if name is not None:
                        yield self.finding(
                            f,
                            node,
                            f"del on manager-owned state {name!r} "
                            "outside the resource managers",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATING_METHODS
                ):
                    name = guarded(func.value)
                    if name is not None:
                        yield self.finding(
                            f,
                            node,
                            f"mutating call {name}.{func.attr}() "
                            "outside the resource managers",
                        )


# ---------------------------------------------------------------------------
# DL006 — invariant names documented
# ---------------------------------------------------------------------------


@register
class InvariantNamesDocumented(Rule):
    """DL006: every I<n> referenced in code is catalogued in invariants.py."""

    id = "DL006"
    title = "every I<n> invariant referenced in code is documented in invariants.py"
    severity = Severity.ERROR
    rationale = (
        "The invariants docstring is the normative catalogue the checker and "
        "the property tests are audited against; an undocumented I<n> is an "
        "invariant nobody reviews."
    )

    def check_project(self, files: Sequence[SourceFile], root: Path) -> Iterator[Finding]:
        inv = next((f for f in files if f.rel == "resources/invariants.py"), None)
        if inv is None:
            return
        doc = ast.get_docstring(inv.tree, clean=False) or ""
        documented = set(_INVARIANT_RE.findall(doc))
        for f in files:
            for lineno, line in enumerate(f.lines, start=1):
                for name in _INVARIANT_RE.findall(line):
                    if name not in documented:
                        yield self.finding(
                            f,
                            lineno,
                            f"invariant {name} referenced here but not "
                            "documented in resources/invariants.py's docstring",
                        )


# ---------------------------------------------------------------------------
# DL007 — no deepcopy on hot simulated paths
# ---------------------------------------------------------------------------


@register
class NoDeepcopyOnHotPaths(Rule):
    """DL007: no copy.deepcopy in hot simulated modules."""

    id = "DL007"
    title = "no copy.deepcopy in hot simulated modules"
    severity = Severity.ERROR
    rationale = (
        "deepcopy walks the whole object graph (nodes hold entries hold "
        "tasks hold configs); one call on a per-event path erases the "
        "array backend's speedups and duplicates intrusive-chain state."
    )

    def check_file(self, f: SourceFile) -> Iterator[Finding]:
        if not f.rel.startswith(HOT_PREFIXES):
            return
        for node in ast.walk(f.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_deepcopy = (isinstance(func, ast.Name) and func.id == "deepcopy") or (
                isinstance(func, ast.Attribute) and func.attr == "deepcopy"
            )
            if is_deepcopy:
                yield self.finding(
                    f,
                    node,
                    "copy.deepcopy on a hot simulated path; copy the specific "
                    "fields you need instead",
                )


# ---------------------------------------------------------------------------
# DL008 — complete public type annotations
# ---------------------------------------------------------------------------


@register
class PublicAnnotations(Rule):
    """DL008: public functions carry complete type annotations."""

    id = "DL008"
    title = "public functions carry complete type annotations"
    severity = Severity.ERROR
    rationale = (
        "Strict mypy on the core packages only holds if public surfaces are "
        "fully annotated; unannotated parameters decay to Any and disable "
        "checking at every call site."
    )

    def check_file(self, f: SourceFile) -> Iterator[Finding]:
        rule = self
        out: list[Finding] = []

        class V(_QualnameVisitor):
            def __init__(self) -> None:
                super().__init__()
                self.func_depth = 0
                self.private_class = False

            def visit_ClassDef(self, node: ast.ClassDef) -> None:
                prev = self.private_class
                self.private_class = self.private_class or node.name.startswith("_")
                super().visit_ClassDef(node)
                self.private_class = prev

            def _visit_func(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
                if self.func_depth == 0 and not self.private_class:
                    self._check(node)
                self.func_depth += 1
                super()._visit_func(node)
                self.func_depth -= 1

            def _check(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
                name = node.name
                is_dunder = name.startswith("__") and name.endswith("__")
                if name.startswith("_") and not is_dunder:
                    return
                args = node.args
                missing: list[str] = []
                for a in args.posonlyargs + args.args + args.kwonlyargs:
                    if a.annotation is None and a.arg not in ("self", "cls"):
                        missing.append(a.arg)
                if args.vararg is not None and args.vararg.annotation is None:
                    missing.append("*" + args.vararg.arg)
                if args.kwarg is not None and args.kwarg.annotation is None:
                    missing.append("**" + args.kwarg.arg)
                if node.returns is None:
                    missing.append("return")
                if missing:
                    out.append(
                        rule.finding(
                            f,
                            node,
                            f"public function {self._qual(name)} missing "
                            f"annotations: {', '.join(missing)}",
                        )
                    )

            def _qual(self, name: str) -> str:
                return ".".join([*self.stack, name]) if self.stack else name

        V().visit(f.tree)
        yield from out


# ---------------------------------------------------------------------------
# DL009 — service/ touches foreign state through public hooks only
# ---------------------------------------------------------------------------


@register
class SnapshotViaPublicHooks(Rule):
    """DL009: service/ never reaches into another object's private state."""

    id = "DL009"
    title = "service/ accesses non-self state through public hooks only"
    severity = Severity.ERROR
    rationale = (
        "Checkpoint serialization stays honest only if every byte flows "
        "through the owning manager's public export/restore hooks "
        "(export_state, restore_state, export_task...); a service-layer "
        "read of sim._anything would freeze an internal the owner never "
        "promised to keep, and silently rot when it changes."
    )

    def check_file(self, f: SourceFile) -> Iterator[Finding]:
        if not f.rel.startswith("service/"):
            return
        for node in ast.walk(f.tree):
            if not isinstance(node, ast.Attribute):
                continue
            attr = node.attr
            if not attr.startswith("_"):
                continue
            if attr.startswith("__") and attr.endswith("__"):
                continue
            recv = node.value
            if isinstance(recv, ast.Name) and recv.id in ("self", "cls"):
                continue
            yield self.finding(
                f,
                node,
                f"private attribute {attr!r} accessed on a non-self "
                "receiver: service/ must go through the owner's public "
                "export/restore hooks",
            )


__all__ = [
    "ACCOUNTING_FILES",
    "ACCOUNTING_PREFIXES",
    "DL002_ALLOW",
    "DL005_OWNERS",
    "GUARDED_ATTRS",
    "HOT_PREFIXES",
    "GuardedMutation",
    "IntegerAccounting",
    "InvariantNamesDocumented",
    "NoDeepcopyOnHotPaths",
    "NoNondeterminism",
    "PublicAnnotations",
    "SnapshotViaPublicHooks",
    "TaxonomyCoverage",
    "TraceViaBus",
]
