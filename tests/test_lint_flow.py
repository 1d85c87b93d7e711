"""The whole-program flow analysis engine and rules DL010–DL013.

Three layers of coverage:

* engine unit tests — CFG construction, the all-paths ``must_reach``
  solver (including the zero-iteration loop concession and the
  compound-head precision that keeps body charges from leaking into the
  branch test), and the float-taint lattice;
* mutation tests — copy ``src/repro``, re-introduce one representative
  bug per rule (dropped restore field, uncharged early return, float
  widening into a trace field, renamed backend method) and assert the
  rule catches it;
* the clean-tree self-check — the committed tree carries zero flow-rule
  errors, which is what makes the mutation assertions meaningful.
"""

from __future__ import annotations

import ast
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.flow.cfg import IMPLICIT_RETURN, RETURN, build_cfg
from repro.lint.flow.callgraph import is_concrete_charge
from repro.lint.flow.dataflow import TaintAnalysis, must_reach, uncharged_returns
from repro.lint.flow.model import build_model, summarise_function

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

FLOW_RULES = {"DL010", "DL011", "DL012", "DL013"}


def _fn(code: str) -> ast.FunctionDef:
    tree = ast.parse(textwrap.dedent(code))
    return next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))


def _is_charge(node: ast.AST) -> bool:
    return is_concrete_charge(node)


# -- engine: CFG + must_reach -------------------------------------------------


def test_cfg_counts_explicit_and_implicit_returns():
    fn = _fn(
        """
        def f(x):
            if x:
                return 1
            x += 1
        """
    )
    cfg = build_cfg(fn)
    kinds = sorted(cfg.nodes[i].kind for i in cfg.returns())
    assert kinds == [IMPLICIT_RETURN, RETURN]


def test_charge_on_both_branches_satisfies_all_paths():
    fn = _fn(
        """
        def f(self, x):
            if x:
                self.counters.charge_scheduling()
                return 1
            self.counters.charge_scheduling_many(3)
            return 2
        """
    )
    assert uncharged_returns(build_cfg(fn), _is_charge) == []


def test_early_return_that_skips_the_charge_is_flagged():
    fn = _fn(
        """
        def f(self, x):
            if x:
                return None
            self.counters.charge_scheduling()
            return 1
        """
    )
    bad = uncharged_returns(build_cfg(fn), _is_charge)
    assert len(bad) == 1 and bad[0].kind == RETURN


def test_direct_counter_augassign_counts_as_charge():
    fn = _fn(
        """
        def f(self):
            self.counters.scheduling_steps += 4
            return 1
        """
    )
    assert uncharged_returns(build_cfg(fn), _is_charge) == []


def test_loop_body_charge_covers_the_zero_iteration_exit():
    # Per-element cost is the reference semantics: an empty scan is free,
    # so a loop whose body charges satisfies the obligation on the
    # fall-through exit too.
    fn = _fn(
        """
        def f(self, nodes):
            for n in nodes:
                self.counters.charge_scheduling()
                if n.idle:
                    return n
            return None
        """
    )
    assert uncharged_returns(build_cfg(fn), _is_charge) == []


def test_compound_head_does_not_absorb_body_charges():
    # The `if` head node carries only the test expression; the charge in
    # its body must not satisfy the *else* path through the head.
    fn = _fn(
        """
        def f(self, x):
            if x:
                self.counters.charge_scheduling()
                return 1
            return 2
        """
    )
    bad = uncharged_returns(build_cfg(fn), _is_charge)
    assert len(bad) == 1


def test_raise_paths_are_exempt():
    fn = _fn(
        """
        def f(self, x):
            if not x:
                raise AssertionError("unreachable")
            self.counters.charge_scheduling()
            return x
        """
    )
    assert uncharged_returns(build_cfg(fn), _is_charge) == []


def test_must_reach_is_a_greatest_fixpoint_over_loops():
    # The back-edge must not let the optimistic init claim the charge
    # reaches the loop head before any iteration ran.
    fn = _fn(
        """
        def f(self, xs):
            while self.more():
                self.step()
            return 1
        """
    )
    cfg = build_cfg(fn)
    reach = must_reach(cfg, _is_charge)
    assert not any(
        reach[i] for i in cfg.returns()
    ), "no charge exists, nothing may claim one"


# -- engine: taint lattice ----------------------------------------------------


def test_division_taints_and_len_sanitizes():
    fn = _fn(
        """
        def f(items, total):
            share = total / len(items)
            count = len(items)
            return share, count
        """
    )
    taint = TaintAnalysis(fn)
    assert "share" in taint.tainted
    assert "count" not in taint.tainted


def test_int_call_sanitizes_a_tainted_name():
    fn = _fn(
        """
        def f(total):
            avg = total / 2
            avg = int(avg)
            return avg
        """
    )
    # Flow-insensitive: once any assignment taints the name it stays
    # tainted — the rule is deliberately conservative.
    assert "avg" in TaintAnalysis(fn).tainted


def test_float_literal_propagates_through_arithmetic():
    fn = _fn(
        """
        def f(x):
            rate = 0.5
            scaled = x * rate
            return scaled
        """
    )
    taint = TaintAnalysis(fn)
    assert {"rate", "scaled"} <= taint.tainted


# -- engine: project model ----------------------------------------------------


def test_function_summary_records_stores_refs_and_calls():
    fn = _fn(
        """
        def restore_state(self, state):
            self._seq = state["seq"]
            self._rebuild(state.get("extra"))
            self.ready = True
        """
    )
    info = summarise_function(fn)
    assert set(info.self_stores) == {"_seq", "ready"}
    assert "_rebuild" in info.self_calls
    assert info.param_reads == {"seq", "extra"}
    assert not info.dynamic_param_read


def test_dynamic_state_read_is_recorded():
    fn = _fn(
        """
        def restore_state(self, state):
            for knob in self._knobs:
                setattr(self, knob, state[knob])
        """
    )
    assert summarise_function(fn).dynamic_param_read


def test_model_is_cached_per_file_list():
    from repro.lint.core import SourceFile

    text = "class A:\n    pass\n"
    files = [
        SourceFile(
            path=Path("/x/a.py"), rel="a.py", text=text, tree=ast.parse(text)
        )
    ]
    assert build_model(files) is build_model(files)
    # A different list object misses the cache and rebuilds.
    assert build_model(list(files)) is not build_model(files)


# -- the clean tree -----------------------------------------------------------


def test_committed_tree_has_zero_flow_rule_errors():
    report = run_lint(SRC_ROOT, rule_ids=FLOW_RULES)
    assert [f"{f.path}:{f.line} {f.rule} {f.message}" for f in f_errors(report)] == []


def f_errors(report):
    return [f for f in report.errors if f.rule in FLOW_RULES]


# -- mutation tests: each rule catches its bug class --------------------------


@pytest.fixture()
def mutated_tree(tmp_path):
    """Copy ``src/repro`` and return a (file, old, new, rule) applier."""

    def mutate(rel: str, old: str, new: str, rule: str):
        root = tmp_path / "repro"
        shutil.copytree(SRC_ROOT, root)
        path = root / rel
        text = path.read_text(encoding="utf-8")
        assert old in text, f"mutation anchor vanished from {rel}: {old!r}"
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
        return run_lint(root, rule_ids={rule})

    return mutate


def test_dl010_fires_when_a_restore_field_read_is_deleted(mutated_tree):
    report = mutated_tree(
        "resources/manager.py",
        '        self._chain_seq = state["chain_seq"]\n',
        "",
        "DL010",
    )
    hits = [f for f in report.errors if f.rule == "DL010"]
    assert any("_chain_seq" in f.message for f in hits), hits


def test_dl011_fires_when_an_early_return_skips_the_charge(mutated_tree):
    report = mutated_tree(
        "resources/manager.py",
        """                self.counters.charge_scheduling()
                return node, []""",
        "                return node, []",
        "DL011",
    )
    hits = [f for f in report.errors if f.rule == "DL011"]
    assert any("find_any_idle_node" in f.message for f in hits), hits


def test_dl012_fires_when_a_trace_field_widens_to_float(mutated_tree):
    report = mutated_tree(
        "framework/simulator.py",
        "self.trace.emit(_RUN_FINISHED, final)",
        "self.trace.emit(_RUN_FINISHED, final / 1)",
        "DL012",
    )
    hits = [f for f in report.errors if f.rule == "DL012"]
    assert any("final" in f.message for f in hits), hits


def test_dl012_fires_on_a_float_in_a_middle_emit_slot(mutated_tree):
    report = mutated_tree(
        "framework/failures.py",
        "sim.trace.emit(_TASK_RETRY, task.task_no, attempt + 1, delay, now + delay)",
        "sim.trace.emit(_TASK_RETRY, task.task_no, attempt + 1, delay * 0.5, now + delay)",
        "DL012",
    )
    hits = [f for f in report.errors if f.rule == "DL012"]
    assert any("value 3 ('delay * 0.5')" in f.message for f in hits), hits
    # The neighbouring integer slots stay clean.
    assert not any("now + delay" in f.message for f in hits), hits


def test_dl013_fires_when_a_backend_method_is_renamed(mutated_tree):
    report = mutated_tree(
        "resources/arraycore.py",
        "    def repair_node(",
        "    def repair_node_renamed(",
        "DL013",
    )
    hits = [f for f in report.errors if f.rule == "DL013"]
    assert any("repair_node" in f.message for f in hits), hits


# -- function-scoped suppressions ---------------------------------------------


def _write_fixture_package(root: Path, body: str) -> None:
    root.mkdir(parents=True, exist_ok=True)
    (root / "__init__.py").write_text("", encoding="utf-8")
    (root / "thing.py").write_text(textwrap.dedent(body), encoding="utf-8")


def test_flow_finding_suppressed_by_directive_anywhere_in_the_function(tmp_path):
    # The directive sits on the def line; the finding anchors at the
    # self._cache store inside the body.  Line-scoped matching would miss
    # it — function scope (the fix this PR ships) must catch it.
    root = tmp_path / "pkg"
    _write_fixture_package(
        root,
        """
        class Thing:
            # dreamlint: disable=DL010 (cache is rebuilt lazily on first use)
            def warm(self):
                self._cache = [1, 2, 3]

            def export_state(self):
                return {"n": self.n}

            def restore_state(self, state):
                self.n = state["n"]
        """,
    )
    report = run_lint(root, rule_ids={"DL010"})
    assert [f for f in report.errors if f.rule == "DL010"] == []
    assert any(rule == "DL010" for f, _ in report.suppressed for rule in [f.rule])


def test_function_scope_suppression_is_not_flagged_unused(tmp_path):
    root = tmp_path / "pkg"
    _write_fixture_package(
        root,
        """
        class Thing:
            # dreamlint: disable=DL010 (cache is rebuilt lazily on first use)
            def warm(self):
                self._cache = [1, 2, 3]

            def export_state(self):
                return {"n": self.n}

            def restore_state(self, state):
                self.n = state["n"]
        """,
    )
    report = run_lint(root, rule_ids={"DL010"})
    unused = [f for f in report.warnings if f.rule == "DL000"]
    assert unused == [], unused


def test_unmatched_flow_finding_still_errors(tmp_path):
    root = tmp_path / "pkg"
    _write_fixture_package(
        root,
        """
        class Thing:
            def warm(self):
                self._cache = [1, 2, 3]

            def export_state(self):
                return {"n": self.n}

            def restore_state(self, state):
                self.n = state["n"]
        """,
    )
    report = run_lint(root, rule_ids={"DL010"})
    hits = [f for f in report.errors if f.rule == "DL010"]
    assert any("_cache" in f.message for f in hits), hits
