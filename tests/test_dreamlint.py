"""dreamlint: every rule exercised with positive and negative fixtures.

Each test builds a small fixture tree under ``tmp_path`` whose root-relative
paths mimic the real package layout (``resources/foo.py`` etc.), because the
rules scope on those paths.  The final test is the self-check the PR ships
with: the real ``src/repro`` tree lints clean.
"""

from pathlib import Path

import pytest

from repro.lint import (
    META_RULE,
    RULES,
    Report,
    Severity,
    run_lint,
)
import repro.lint.rules as lint_rules
from repro.lint.report import render_human, render_json, render_rules, to_json

SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"


def lint_tree(tmp_path: Path, files: dict[str, str]) -> Report:
    """Write ``files`` (rel path -> source) under ``tmp_path`` and lint it."""
    for rel, text in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text, encoding="utf-8")
    return run_lint(tmp_path)


def rules_hit(report: Report) -> set[str]:
    return {f.rule for f in report.findings}


# ---------------------------------------------------------------------------
# registry basics
# ---------------------------------------------------------------------------


def test_registry_has_all_nine_rules() -> None:
    assert {f"DL00{i}" for i in range(1, 10)} <= set(RULES)


def test_rules_have_titles_and_rationales() -> None:
    for rule in RULES.values():
        assert rule.title and rule.rationale


# ---------------------------------------------------------------------------
# DL001 — nondeterminism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "snippet",
    [
        "import random\n",
        "from random import randint\n",
        "import secrets\n",
        "import time\nt = time.time()\n",
        "import time\nt = time.perf_counter()\n",
        "import datetime\nd = datetime.datetime.now()\n",
        "import uuid\nu = uuid.uuid4()\n",
        "xs = sorted(items, key=id)\n",
        "items.sort(key=id)\n",
        "for x in {1, 2, 3}:\n    use(x)\n",
        "ys = [f(x) for x in set(items)]\n",
    ],
)
def test_dl001_positive(tmp_path: Path, snippet: str) -> None:
    report = lint_tree(tmp_path, {"core/mod.py": snippet})
    assert "DL001" in rules_hit(report)


def test_dl001_negative(tmp_path: Path) -> None:
    clean = (
        "from repro.rng import RNG\n"
        "def pick(rng: RNG, items: list) -> object:\n"
        "    xs = sorted(items, key=lambda t: t.task_no)\n"
        "    for x in sorted({1, 2, 3}):\n"
        "        pass\n"
        "    return xs[0]\n"
    )
    report = lint_tree(tmp_path, {"core/mod.py": clean})
    assert "DL001" not in rules_hit(report)


@pytest.mark.parametrize(
    "snippet",
    [
        "import multiprocessing\n",
        "import multiprocessing.pool\n",
        "from multiprocessing import Pool\n",
        "import concurrent.futures\n",
        "from concurrent.futures import ProcessPoolExecutor\n",
        "from concurrent.futures.process import BrokenProcessPool\n",
    ],
)
def test_dl001_pool_imports_flagged_outside_parallel(
    tmp_path: Path, snippet: str
) -> None:
    report = lint_tree(tmp_path, {"framework/mod.py": snippet})
    assert "DL001" in rules_hit(report)


@pytest.mark.parametrize(
    "snippet",
    [
        "from concurrent.futures import ProcessPoolExecutor\n",
        "import multiprocessing\n",
    ],
)
def test_dl001_pool_imports_allowed_inside_parallel(
    tmp_path: Path, snippet: str
) -> None:
    report = lint_tree(tmp_path, {"parallel/executor.py": snippet})
    assert "DL001" not in rules_hit(report)


# ---------------------------------------------------------------------------
# DL002 — integer accounting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "snippet",
    [
        "x: float = 0.5\n",
        "def f(a: int, b: int) -> int:\n    return a / b\n",
        "def f(x: int) -> None:\n    y = 1\n    y /= x\n",
        "def f(x: int) -> float:\n    return float(x)\n",
    ],
)
def test_dl002_positive_in_accounting_module(tmp_path: Path, snippet: str) -> None:
    report = lint_tree(tmp_path, {"resources/acct.py": snippet})
    assert "DL002" in rules_hit(report)


def test_dl002_ignores_non_accounting_modules(tmp_path: Path) -> None:
    report = lint_tree(tmp_path, {"analysis/stats.py": "x = 0.5\ny = 1 / 3\n"})
    assert "DL002" not in rules_hit(report)


def test_dl002_integer_math_is_clean(tmp_path: Path) -> None:
    clean = "def f(a: int, b: int) -> int:\n    return (a * 2) // b\n"
    report = lint_tree(tmp_path, {"model/mod.py": clean})
    assert "DL002" not in rules_hit(report)


def test_dl002_allowlist_exempts_listed_qualnames(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    src = (
        "class FailureInjector:\n"
        "    def ratio(self) -> float:\n"
        "        return self.up / self.total\n"
        "    def other(self) -> float:\n"
        "        return self.a / self.b\n"
    )
    report = lint_tree(tmp_path, {"framework/failures.py": src})
    assert [f.line for f in report.findings if f.rule == "DL002"] == [3, 5]
    monkeypatch.setitem(
        lint_rules.DL002_ALLOW, "framework/failures.py", frozenset({"FailureInjector.ratio"})
    )
    report = lint_tree(tmp_path, {"framework/failures.py": src})
    findings = [f for f in report.findings if f.rule == "DL002"]
    assert len(findings) == 1  # only `other`; ratio is allowlisted
    assert findings[0].line == 5


# ---------------------------------------------------------------------------
# DL003 — trace events via the bus
# ---------------------------------------------------------------------------


def test_dl003_flags_event_construction_outside_trace(tmp_path: Path) -> None:
    report = lint_tree(
        tmp_path, {"core/mod.py": "ev = TraceEvent(ev='Placed', seq=1)\n"}
    )
    assert "DL003" in rules_hit(report)


def test_dl003_flags_direct_sink_write(tmp_path: Path) -> None:
    report = lint_tree(tmp_path, {"core/mod.py": "self.sink.write(ev)\n"})
    assert "DL003" in rules_hit(report)


def test_dl003_allows_trace_package_and_bus_emit(tmp_path: Path) -> None:
    report = lint_tree(
        tmp_path,
        {
            "trace/bus.py": "ev = TraceEvent(ev='Placed', seq=1)\nsink.write(ev)\n",
            "core/mod.py": "self.trace.emit('Placed', task=1)\n",
        },
    )
    assert "DL003" not in rules_hit(report)


# ---------------------------------------------------------------------------
# DL004 — taxonomy coverage
# ---------------------------------------------------------------------------

EVENTS_SRC = (
    "PLACED = 'Placed'\n"
    "DISCARDED = 'Discarded'\n"
    "EVENT_TYPES = frozenset({PLACED, DISCARDED})\n"
    "__all__ = ['PLACED', 'DISCARDED', 'EVENT_TYPES']\n"
)


def test_dl004_flags_missing_replay_handler(tmp_path: Path) -> None:
    replay = "import repro.trace.events as ev\n\ndef handle(et: str) -> None:\n    if et == ev.PLACED:\n        pass\n"
    report = lint_tree(
        tmp_path, {"trace/events.py": EVENTS_SRC, "trace/replay.py": replay}
    )
    msgs = [f.message for f in report.findings if f.rule == "DL004"]
    assert any("DISCARDED" in m and "no handler" in m for m in msgs)
    assert not any("PLACED" in m and "no handler" in m for m in msgs)


def test_dl004_flags_missing_export(tmp_path: Path) -> None:
    events = (
        "PLACED = 'Placed'\n"
        "EVENT_TYPES = frozenset({PLACED})\n"
        "__all__ = ['EVENT_TYPES']\n"
    )
    replay = "import repro.trace.events as ev\nh = {ev.PLACED: None}\n"
    report = lint_tree(
        tmp_path, {"trace/events.py": events, "trace/replay.py": replay}
    )
    msgs = [f.message for f in report.findings if f.rule == "DL004"]
    assert any("__all__" in m for m in msgs)


def test_dl004_clean_when_fully_covered(tmp_path: Path) -> None:
    replay = "import repro.trace.events as ev\nh = {ev.PLACED: 1, ev.DISCARDED: 2}\n"
    report = lint_tree(
        tmp_path, {"trace/events.py": EVENTS_SRC, "trace/replay.py": replay}
    )
    errors = [f for f in report.findings if f.rule == "DL004" and f.severity is Severity.ERROR]
    assert errors == []


# ---------------------------------------------------------------------------
# DL005 — guarded mutations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "snippet",
    [
        "rim._wasted_total += 5\n",
        "rim.state_counts['busy'] = 3\n",
        "rim._idle[cno].append(node)\n",
        "del rim._node_pos[node]\n",
        "rim._used_nodes.add(node_no)\n",
    ],
)
def test_dl005_positive(tmp_path: Path, snippet: str) -> None:
    report = lint_tree(tmp_path, {"core/sched.py": snippet})
    assert "DL005" in rules_hit(report)


def test_dl005_reads_are_fine_and_manager_is_exempt(tmp_path: Path) -> None:
    report = lint_tree(
        tmp_path,
        {
            "core/sched.py": "n = rim.state_counts['busy']\nx = len(rim._idle[cno])\n",
            "resources/manager.py": "self._wasted_total += 5\nself._idle[c].remove(e)\n",
        },
    )
    assert "DL005" not in rules_hit(report)


# ---------------------------------------------------------------------------
# DL006 — invariant names documented
# ---------------------------------------------------------------------------


def test_dl006_flags_undocumented_invariant(tmp_path: Path) -> None:
    inv = '"""Invariants.\n\nI1: areas add up.\nI2: chains partition.\n"""\n'
    user = "# checks I1 and I99 here\n"
    report = lint_tree(
        tmp_path, {"resources/invariants.py": inv, "core/mod.py": user}
    )
    msgs = [f.message for f in report.findings if f.rule == "DL006"]
    assert any("I99" in m for m in msgs)
    assert not any("I1 " in m for m in msgs)


def test_dl006_clean_when_documented(tmp_path: Path) -> None:
    inv = '"""Invariants.\n\nI1: areas add up.\n"""\n'
    report = lint_tree(
        tmp_path,
        {"resources/invariants.py": inv, "core/mod.py": "# preserves I1\n"},
    )
    assert "DL006" not in rules_hit(report)


# ---------------------------------------------------------------------------
# DL007 — deepcopy on hot paths
# ---------------------------------------------------------------------------


def test_dl007_flags_deepcopy_on_hot_path(tmp_path: Path) -> None:
    src = "import copy\n\ndef snap(state: object) -> object:\n    return copy.deepcopy(state)\n"
    report = lint_tree(tmp_path, {"resources/mod.py": src})
    assert "DL007" in rules_hit(report)


def test_dl007_allows_deepcopy_off_hot_path_and_shallow_copy(tmp_path: Path) -> None:
    report = lint_tree(
        tmp_path,
        {
            "analysis/mod.py": "import copy\nx = copy.deepcopy(obj)\n",
            "resources/mod.py": "import copy\nx = copy.copy(obj)\n",
        },
    )
    assert "DL007" not in rules_hit(report)


# ---------------------------------------------------------------------------
# DL008 — public annotations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "snippet,needle",
    [
        ("def f(a, b: int) -> int:\n    return b\n", "a"),
        ("def f(a: int, b: int):\n    return a\n", "return"),
        ("def f(*args) -> None:\n    pass\n", "*args"),
        ("def f(**kw) -> None:\n    pass\n", "**kw"),
        (
            "class C:\n    def m(self, x) -> None:\n        pass\n",
            "x",
        ),
    ],
)
def test_dl008_positive(tmp_path: Path, snippet: str, needle: str) -> None:
    report = lint_tree(tmp_path, {"core/mod.py": snippet})
    msgs = [f.message for f in report.findings if f.rule == "DL008"]
    assert any(needle in m for m in msgs)


@pytest.mark.parametrize(
    "snippet",
    [
        "def f(a: int, *, b: str = 'x') -> int:\n    return a\n",
        "def _private(a):\n    return a\n",
        "class _Hidden:\n    def m(self, x):\n        return x\n",
        "def outer() -> None:\n    def inner(x):\n        return x\n",
        "class C:\n    def m(self, x: int) -> int:\n        return x\n",
    ],
)
def test_dl008_negative(tmp_path: Path, snippet: str) -> None:
    report = lint_tree(tmp_path, {"core/mod.py": snippet})
    assert "DL008" not in rules_hit(report)


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------


def test_suppression_with_reason_silences_and_is_recorded(tmp_path: Path) -> None:
    src = "x = 0.5  # dreamlint: disable=DL002 (documented float surface)\n"
    report = lint_tree(tmp_path, {"resources/mod.py": src})
    assert "DL002" not in rules_hit(report)
    assert len(report.suppressed) == 1
    finding, reason = report.suppressed[0]
    assert finding.rule == "DL002" and reason == "documented float surface"


def test_suppression_without_reason_is_a_meta_error(tmp_path: Path) -> None:
    src = "x = 0.5  # dreamlint: disable=DL002\n"
    report = lint_tree(tmp_path, {"resources/mod.py": src})
    meta = [f for f in report.findings if f.rule == META_RULE]
    assert meta and meta[0].severity is Severity.ERROR
    assert "reason" in meta[0].message
    # The finding itself is NOT silenced by a reason-less directive.
    assert "DL002" in rules_hit(report)


def test_standalone_suppression_covers_next_code_line(tmp_path: Path) -> None:
    src = (
        "# dreamlint: disable=DL002 (float keys by design)\n"
        "x = 0.5\n"
    )
    report = lint_tree(tmp_path, {"resources/mod.py": src})
    assert "DL002" not in rules_hit(report)
    assert len(report.suppressed) == 1


def test_unused_suppression_is_a_warning(tmp_path: Path) -> None:
    src = "x = 1  # dreamlint: disable=DL002 (nothing here triggers it)\n"
    report = lint_tree(tmp_path, {"resources/mod.py": src})
    warn = [f for f in report.findings if f.rule == META_RULE]
    assert warn and warn[0].severity is Severity.WARNING
    assert "unused" in warn[0].message


def test_suppression_only_silences_named_rule(tmp_path: Path) -> None:
    src = "import random  # dreamlint: disable=DL002 (wrong rule named)\n"
    report = lint_tree(tmp_path, {"core/mod.py": src})
    assert "DL001" in rules_hit(report)


# ---------------------------------------------------------------------------
# DL009 — service/ goes through public export hooks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "snippet",
    [
        "def cut(sim):\n    return sim._placements\n",
        "def cut(sim):\n    sim.env._queue.clear()\n",
        "def cut(svc):\n    svc._sealed = True\n",
    ],
)
def test_dl009_flags_private_reach_in_service(tmp_path: Path, snippet: str) -> None:
    report = lint_tree(tmp_path, {"service/snapshot.py": snippet})
    assert "DL009" in rules_hit(report)


def test_dl009_allows_self_and_public_hooks(tmp_path: Path) -> None:
    src = (
        "class Driver:\n"
        "    def checkpoint(self, sim):\n"
        "        self._cache = sim.export_state()\n"
        "        return self._cache\n"
    )
    report = lint_tree(tmp_path, {"service/driver.py": src})
    assert "DL009" not in rules_hit(report)


def test_dl009_only_scopes_service_package(tmp_path: Path) -> None:
    report = lint_tree(
        tmp_path, {"framework/glue.py": "def f(sim):\n    return sim._placements\n"}
    )
    assert "DL009" not in rules_hit(report)


def test_syntax_error_is_a_meta_finding(tmp_path: Path) -> None:
    report = lint_tree(tmp_path, {"core/bad.py": "def f(:\n"})
    meta = [f for f in report.findings if f.rule == META_RULE]
    assert meta and "syntax error" in meta[0].message
    assert report.exit_code == 1


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def test_json_report_shape(tmp_path: Path) -> None:
    report = lint_tree(tmp_path, {"resources/mod.py": "x = 0.5\n"})
    doc = to_json(report)
    assert doc["version"] == 1 and doc["tool"] == "dreamlint"
    assert doc["files_scanned"] == 1
    assert {r["id"] for r in doc["rules"]} >= {f"DL00{i}" for i in range(1, 9)}
    assert doc["summary"]["errors"] == len(report.errors)
    finding = doc["findings"][0]
    assert set(finding) == {"rule", "severity", "path", "col", "line", "message"}
    assert render_json(report).endswith("\n")


def test_human_report_mentions_each_finding(tmp_path: Path) -> None:
    report = lint_tree(tmp_path, {"resources/mod.py": "x = 0.5\n"})
    out = render_human(report)
    assert "resources/mod.py:1" in out and "DL002" in out
    assert "error(s)" in out


def test_render_rules_lists_all() -> None:
    out = render_rules()
    for i in range(1, 9):
        assert f"DL00{i}" in out


def test_exit_code_zero_on_warnings_only(tmp_path: Path) -> None:
    src = "x = 1  # dreamlint: disable=DL002 (stale)\n"
    report = lint_tree(tmp_path, {"resources/mod.py": src})
    assert report.warnings and not report.errors
    assert report.exit_code == 0


# ---------------------------------------------------------------------------
# the shipped tree lints clean (the PR's acceptance gate)
# ---------------------------------------------------------------------------


def test_shipped_src_repro_lints_clean() -> None:
    report = run_lint(SRC_REPRO)
    assert report.errors == [], "\n".join(
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in report.errors
    )
    assert report.exit_code == 0
    # Every shipped suppression carries a reason.
    assert all(s.reason for s in report.suppressions)
