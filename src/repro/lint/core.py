"""dreamlint core: findings, suppressions, the rule registry, and the runner.

``dreamlint`` is an AST-based static-analysis pass enforcing the repo's
determinism and accounting conventions (DESIGN.md §11).  The guarantees the
test suite checks dynamically — bit-identical Table I / Fig. 6–10 outputs,
byte-identical golden traces across manager modes, integer-exact fault
accounting — all rest on source-level conventions (no wall-clock, no bare
randomness, no float arithmetic in step/area/tick accounting, trace events
only through the bus).  This module supplies the machinery; the project
rules themselves live in :mod:`repro.lint.rules`.

Suppressions
------------
A finding may be silenced with an inline comment on the offending line::

    rank = float(task.required_time)  # dreamlint: disable=DL002 (rank key, ordering only)

The parenthesised reason is **mandatory** — a suppression without one is
itself reported as ``DL000``.  Multiple rule ids may be given separated by
commas.  A directive on a line of its own covers the next code line (for
statements too long to carry a trailing comment).  Unused suppressions are
reported as warnings so stale exemptions cannot accumulate.
"""

from __future__ import annotations

import ast
import enum
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Type

#: Reserved id for meta findings produced by the framework itself
#: (syntax errors, malformed or reason-less suppression comments).
META_RULE = "DL000"

_SUPPRESS_RE = re.compile(
    r"#\s*dreamlint:\s*disable=([A-Z]{2}\d{3}(?:\s*,\s*[A-Z]{2}\d{3})*)"
    r"\s*(?:\((?P<reason>[^)]*)\))?"
)


class Severity(enum.Enum):
    """How a finding affects the exit code: errors gate, warnings inform."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    severity: Severity
    path: str  # root-relative posix path
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple[str, int, int, str]:
        """Stable report order: path, then line, column, rule id."""
        return (self.path, self.line, self.col, self.rule)

    def to_json(self) -> dict[str, object]:
        """JSON-serialisable form for machine-readable reports."""
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class Suppression:
    """One parsed ``# dreamlint: disable=...`` comment."""

    path: str
    line: int
    rules: frozenset[str]
    reason: str
    used: bool = False

    def to_json(self) -> dict[str, object]:
        """JSON-serialisable form (the ``used`` flag is runtime-only)."""
        return {
            "path": self.path,
            "line": self.line,
            "rules": sorted(self.rules),
            "reason": self.reason,
        }


@dataclass
class SourceFile:
    """A parsed source file handed to every rule."""

    path: Path  # absolute
    rel: str  # posix path relative to the scan root (module classifier)
    text: str
    tree: ast.Module
    comments: dict[int, str] = field(default_factory=dict)  # line -> comment
    suppressions: dict[int, Suppression] = field(default_factory=dict)

    @property
    def lines(self) -> list[str]:
        return self.text.splitlines()


class Rule:
    """Base class for dreamlint rules.

    Subclasses set the class attributes and override :meth:`check_file`
    (per-file AST pass) and/or :meth:`check_project` (whole-tree pass, for
    cross-file rules such as taxonomy coverage).
    """

    id: str = "DL999"
    title: str = ""
    severity: Severity = Severity.ERROR
    rationale: str = ""
    #: How suppressions match findings.  ``"line"`` (default): a directive
    #: on the finding's exact line.  ``"function"``: a directive anywhere
    #: inside the enclosing function also matches — flow rules (DL010+)
    #: report path properties anchored at one representative line (a
    #: return, a def), and forcing the comment onto that exact line would
    #: make suppressions fragile under reformatting.
    suppress_scope: str = "line"

    def check_file(self, f: SourceFile) -> Iterator[Finding]:
        """Yield findings for one file; default: none."""
        return iter(())

    def check_project(self, files: Sequence[SourceFile], root: Path) -> Iterator[Finding]:
        """Yield findings needing the whole tree; default: none."""
        return iter(())

    def finding(
        self, f: SourceFile, node: ast.AST | int, message: str
    ) -> Finding:
        """Build a finding anchored at an AST node (or a bare line number)."""
        if isinstance(node, int):
            line, col = node, 0
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=f.rel,
            line=line,
            col=col,
            message=message,
        )


#: The global rule registry, populated by the :func:`register` decorator.
RULES: dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding one instance of the rule to the registry."""
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id}")
    RULES[cls.id] = cls()
    return cls


@dataclass
class Report:
    """The result of one lint run."""

    root: str
    files: list[str] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)
    suppressed: list[tuple[Finding, str]] = field(default_factory=list)
    suppressions: list[Suppression] = field(default_factory=list)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    @property
    def exit_code(self) -> int:
        return 1 if self.errors else 0


def _parse_comments(text: str, rel: str) -> tuple[dict[int, str], dict[int, Suppression], list[Finding]]:
    """Extract comments and suppression directives via tokenize."""
    comments: dict[int, str] = {}
    suppressions: dict[int, Suppression] = {}
    meta: list[Finding] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            line = tok.start[0]
            comments[line] = tok.string
            if "dreamlint:" not in tok.string:
                continue
            m = _SUPPRESS_RE.search(tok.string)
            if m is None:
                meta.append(
                    Finding(
                        META_RULE,
                        Severity.ERROR,
                        rel,
                        line,
                        tok.start[1],
                        "malformed dreamlint directive (expected "
                        "'# dreamlint: disable=DLnnn (reason)')",
                    )
                )
                continue
            reason = (m.group("reason") or "").strip()
            rules = frozenset(r.strip() for r in m.group(1).split(","))
            if not reason:
                meta.append(
                    Finding(
                        META_RULE,
                        Severity.ERROR,
                        rel,
                        line,
                        tok.start[1],
                        f"suppression of {', '.join(sorted(rules))} carries no "
                        "reason — write '# dreamlint: disable=DLnnn (why)'",
                    )
                )
                continue
            suppressions[line] = Suppression(rel, line, rules, reason)
    except tokenize.TokenError:
        pass  # the ast.parse error path reports the syntax problem
    return comments, suppressions, meta


def load_file(path: Path, root: Path) -> tuple[Optional[SourceFile], list[Finding]]:
    """Read and parse one file; returns (file, meta-findings)."""
    rel = path.relative_to(root).as_posix() if root in path.parents or path == root else path.name
    text = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        return None, [
            Finding(
                META_RULE,
                Severity.ERROR,
                rel,
                exc.lineno or 1,
                exc.offset or 0,
                f"syntax error: {exc.msg}",
            )
        ]
    comments, suppressions, meta = _parse_comments(text, rel)
    return (
        SourceFile(
            path=path,
            rel=rel,
            text=text,
            tree=tree,
            comments=comments,
            suppressions=suppressions,
        ),
        meta,
    )


def iter_python_files(root: Path) -> Iterator[Path]:
    """Yield every ``*.py`` under ``root`` (or ``root`` itself), sorted."""
    if root.is_file():
        yield root
        return
    yield from sorted(
        p for p in root.rglob("*.py") if "__pycache__" not in p.parts
    )


def _function_spans(tree: ast.Module) -> list[tuple[int, int]]:
    """(start, end) line spans of every function def, decorators included."""
    spans: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            start = min(
                [node.lineno] + [d.lineno for d in node.decorator_list]
            )
            spans.append((start, node.end_lineno or node.lineno))
    return spans


def _innermost_span(
    spans: list[tuple[int, int]], line: int
) -> Optional[tuple[int, int]]:
    """The tightest function span containing ``line``, if any."""
    best: Optional[tuple[int, int]] = None
    for start, end in spans:
        if start <= line <= end and (best is None or start > best[0]):
            best = (start, end)
    return best


def run_lint(
    root: Path | str,
    rule_ids: Optional[Iterable[str]] = None,
) -> Report:
    """Lint every Python file under ``root`` with the registered rules.

    ``root`` is both the scan target and the anchor for the root-relative
    paths the module-scoped rules classify on — run it on the package root
    (``src/repro``) for the project rule set to apply as designed.
    """
    # Import for the registration side effect; the registry is module-global.
    from repro.lint import rules as _rules  # noqa: F401  (registers on import)
    from repro.lint.flow import rules as _flow_rules  # noqa: F401

    root = Path(root).resolve()
    active = [
        RULES[rid] for rid in sorted(RULES) if rule_ids is None or rid in set(rule_ids)
    ]
    report = Report(root=str(root))
    files: list[SourceFile] = []
    raw: list[Finding] = []
    for path in iter_python_files(root):
        f, meta = load_file(path, root if root.is_dir() else root.parent)
        raw.extend(meta)
        if f is None:
            continue
        files.append(f)
        report.files.append(f.rel)
        for rule in active:
            raw.extend(rule.check_file(f))

    for rule in active:
        raw.extend(rule.check_project(files, root))

    # Apply suppressions: a finding is silenced when its line carries a
    # directive naming its rule id, or when a standalone directive comment
    # sits directly above it (meta findings cannot be suppressed).  For
    # function-scoped rules (flow analysis: the finding line is one
    # representative point of a whole-path property), a directive anywhere
    # inside the enclosing function matches too.
    by_file = {f.rel: f for f in files}
    effective: dict[str, dict[int, Suppression]] = {}
    for f in files:
        table: dict[int, Suppression] = dict(f.suppressions)
        lines = f.lines
        for line_no, sup in f.suppressions.items():
            if line_no <= len(lines) and lines[line_no - 1].lstrip().startswith("#"):
                # Standalone comment: cover the next non-blank code line.
                nxt = line_no + 1
                while nxt <= len(lines) and (
                    not lines[nxt - 1].strip() or lines[nxt - 1].lstrip().startswith("#")
                ):
                    nxt += 1
                table.setdefault(nxt, sup)
        effective[f.rel] = table
    spans: dict[str, list[tuple[int, int]]] = {
        f.rel: _function_spans(f.tree) for f in files
    }
    for finding in raw:
        sup = None
        src = by_file.get(finding.path)
        if finding.rule != META_RULE and src is not None:
            cand = effective[finding.path].get(finding.line)
            if cand is not None and finding.rule in cand.rules:
                sup = cand
            elif RULES.get(finding.rule) is not None and (
                RULES[finding.rule].suppress_scope == "function"
            ):
                span = _innermost_span(spans[finding.path], finding.line)
                if span is not None:
                    for line_no, cand in effective[finding.path].items():
                        if (
                            span[0] <= line_no <= span[1]
                            and finding.rule in cand.rules
                        ):
                            sup = cand
                            break
        if sup is not None:
            sup.used = True
            report.suppressed.append((finding, sup.reason))
        else:
            report.findings.append(finding)

    # Stale suppressions are warnings: an exemption nothing triggers anymore
    # should be deleted, not silently inherited by future code on that line.
    for f in files:
        for sup in f.suppressions.values():
            report.suppressions.append(sup)
            if not sup.used:
                report.findings.append(
                    Finding(
                        META_RULE,
                        Severity.WARNING,
                        sup.path,
                        sup.line,
                        0,
                        f"unused suppression of {', '.join(sorted(sup.rules))}",
                    )
                )

    report.findings.sort(key=Finding.sort_key)
    report.suppressions.sort(key=lambda s: (s.path, s.line))
    return report


__all__ = [
    "Finding",
    "META_RULE",
    "Report",
    "Rule",
    "RULES",
    "Severity",
    "SourceFile",
    "Suppression",
    "iter_python_files",
    "load_file",
    "register",
    "run_lint",
]
