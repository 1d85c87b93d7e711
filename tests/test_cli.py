"""Tests for the dreamsim CLI."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli.main import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.nodes == 200
        assert args.mode == "partial"

    def test_figure_choices(self):
        args = build_parser().parse_args(["figures", "--figure", "fig6a"])
        assert args.figure == "fig6a"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--figure", "nope"])


class TestRunCommand:
    def test_prints_table1(self, capsys):
        rc = main(["run", "--nodes", "8", "--tasks", "40", "--configs", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "avg_waiting_time_per_task" in out
        assert "total_simulation_time" in out

    def test_writes_xml(self, tmp_path, capsys):
        xml = tmp_path / "r.xml"
        rc = main(
            ["run", "--nodes", "8", "--tasks", "40", "--configs", "5", "--xml", str(xml)]
        )
        assert rc == 0
        assert xml.exists()
        from repro.framework import parse_report_xml

        parsed = parse_report_xml(xml)
        assert parsed["params"]["nodes"] == 8

    def test_full_mode(self, capsys):
        rc = main(["run", "--nodes", "8", "--tasks", "40", "--configs", "5", "--mode", "full"])
        assert rc == 0
        assert "full / 8 nodes" in capsys.readouterr().out

    def test_trace_flags_write_jsonl_and_print_digest(self, tmp_path, capsys):
        from repro.trace import digest_of, read_jsonl, replay_report

        path = tmp_path / "run.jsonl"
        base = ["run", "--nodes", "8", "--tasks", "40", "--configs", "5", "--seed", "1"]
        rc = main(base + ["--trace", str(path), "--trace-digest"])
        out = capsys.readouterr().out
        assert rc == 0
        events = read_jsonl(path)
        assert events[0].type == "RunStarted"
        assert events[-1].type == "RunFinished"
        digest = digest_of(events)
        assert f"trace digest: {digest}" in out
        # The written trace replays into the same report the CLI printed from.
        report = replay_report(events)
        assert f"{report.total_completed_tasks}" in out
        # Identical run under the reference manager: identical digest.
        rc = main(base + ["--backend", "scan", "--trace-digest"])
        assert rc == 0
        assert f"trace digest: {digest}" in capsys.readouterr().out

    def test_trace_path_stays_on_the_hot_loop(self, tmp_path, capsys, monkeypatch):
        import repro.framework.simulator as simulator
        from repro.framework.campaign import FaultCampaignSpec, build_campaign
        from repro.framework.hotloop import hot_eligible
        from repro.trace import DigestSink, JsonlSink, TraceBus

        with JsonlSink(tmp_path / "probe.jsonl") as jsonl:
            sim, _ = build_campaign(
                FaultCampaignSpec(nodes=8, configs=5, tasks=40, seed=1),
                trace=TraceBus(DigestSink(), jsonl),
            )
            assert hot_eligible(sim)

        hot_runs = []
        run_hot = simulator.run_hot
        monkeypatch.setattr(simulator, "run_hot", lambda s, *bound: hot_runs.append(run_hot(s, *bound)))
        path = tmp_path / "run.jsonl"
        rc = main(["run", "--nodes", "8", "--tasks", "40", "--configs", "5", "--seed", "1",
                   "--trace", str(path), "--trace-digest"])
        out = capsys.readouterr().out
        assert rc == 0
        assert len(hot_runs) == 1
        digest = hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()
        assert f"trace digest: {digest}" in out

    @pytest.mark.parametrize(
        "argv", [["--no-indexed"], ["--backend", "indexed"]], ids=["flag", "choice"]
    )
    def test_retired_indexed_backend_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--nodes", "8", "--tasks", "40", *argv])
        assert exc.value.code == 2
        assert "indexed" in capsys.readouterr().err


class TestSweepCommand:
    def test_prints_metric_table(self, capsys):
        rc = main(
            ["sweep", "--nodes", "8", "--tasks", "30", "60", "--configs", "5", "--seed", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "partial" in out and "full" in out
        assert "30" in out and "60" in out


class TestFiguresCommand:
    def test_single_figure(self, capsys):
        rc = main(
            [
                "figures", "--figure", "fig8a", "--tasks", "100", "200",
                "--configs", "5", "--seed", "3",
            ]
        )
        out = capsys.readouterr().out
        assert "fig8a" in out
        assert "Average waiting time" in out
        assert rc in (0, 1)  # shape may be noisy at this tiny scale

    def test_save_load_csv_roundtrip(self, tmp_path, capsys):
        sweeps = tmp_path / "sweeps"
        csvs = tmp_path / "csv"
        main(
            [
                "figures", "--figure", "fig8a", "--tasks", "100", "200",
                "--configs", "5", "--seed", "3",
                "--save-sweeps", str(sweeps), "--csv", str(csvs),
            ]
        )
        out1 = capsys.readouterr().out
        assert (sweeps / "sweep_n100.json").exists()
        csv_text = (csvs / "fig8a.csv").read_text()
        assert csv_text.startswith("# fig8a")
        assert "tasks,partial,full" in csv_text
        # Reload: must print the same table without re-simulating.
        main(
            [
                "figures", "--figure", "fig8a", "--tasks", "100", "200",
                "--configs", "5", "--seed", "3", "--load-sweeps", str(sweeps),
            ]
        )
        out2 = capsys.readouterr().out
        assert out1.splitlines()[:5] == out2.splitlines()[:5]

    def test_plot_flag(self, capsys):
        main(
            [
                "figures", "--figure", "fig8a", "--tasks", "100", "200",
                "--configs", "5", "--seed", "3", "--plot",
            ]
        )
        out = capsys.readouterr().out
        assert "x: [" in out  # the ascii plot footer


class TestClaimsCommand:
    def test_scorecard_exit_code(self, capsys):
        rc = main(
            [
                "claims", "--tasks", "300", "600", "--nodes", "50", "100",
                "--seed", "20120521",
            ]
        )
        out = capsys.readouterr().out
        assert "claims reproduced" in out
        assert rc == 0  # all pass at this seed/scale (same as test_analysis)


class TestRunConfigAndTimeline:
    def test_run_with_config_file(self, tmp_path, capsys):
        import json

        cfg = {
            "nodes": {"count": 8},
            "configs": {"count": 5},
            "tasks": {"count": 40},
            "simulation": {"seed": 2},
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "total_tasks_generated" in out
        assert "40" in out

    def test_timeline_plots(self, capsys):
        rc = main(
            ["run", "--nodes", "8", "--tasks", "60", "--configs", "5", "--timeline"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "busy_nodes" in out


class TestReplicateCommand:
    def test_prints_ci_table(self, capsys):
        rc = main(
            [
                "replicate", "--nodes", "8", "--tasks", "40", "--configs", "4",
                "--replications", "2", "--seed", "9",
                "--metric", "avg_waiting_time_per_task",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "±95% CI" in out
        assert "partial" in out and "full" in out


class TestGraphCommand:
    @pytest.mark.parametrize("shape", ["layered", "pipeline", "forkjoin", "mapreduce"])
    def test_shapes_run(self, shape, capsys):
        rc = main(
            [
                "graph", "--shape", shape, "--size", "8", "--nodes", "10",
                "--configs", "5", "--seed", "4",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "makespan" in out
        assert "critical path bound" in out

    def test_fifo_priority(self, capsys):
        rc = main(
            [
                "graph", "--shape", "pipeline", "--size", "5", "--nodes", "10",
                "--configs", "5", "--priority", "fifo",
            ]
        )
        assert rc == 0


class TestJobsFlag:
    def test_negative_jobs_rejected_at_parse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "-j", "-2"])

    def test_jobs_zero_resolves_to_cpu_count(self, capsys):
        rc = main(
            ["sweep", "--nodes", "8", "--tasks", "30", "--configs", "5",
             "--seed", "1", "-j", "0"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "resolved to" in captured.err

    def test_sweep_parallel_output_matches_serial(self, capsys):
        base = ["sweep", "--nodes", "8", "--tasks", "30", "60",
                "--configs", "5", "--seed", "1"]
        from repro.analysis.runner import clear_cache

        clear_cache()
        assert main(base) == 0
        serial_out = capsys.readouterr().out
        clear_cache()
        assert main(base + ["-j", "2"]) == 0
        parallel_out = capsys.readouterr().out
        clear_cache()
        assert parallel_out == serial_out


class TestServeCommand:
    BASE = [
        "serve", "--nodes", "8", "--tasks", "40", "--configs", "5", "--seed", "1",
        "--window", "200",
    ]

    def test_serve_matches_batch_run_digest(self, tmp_path, capsys):
        trace = tmp_path / "serve.jsonl"
        rc = main(self.BASE + ["--trace", str(trace)])
        serve_out = capsys.readouterr().out
        assert rc == 0
        assert "serve / partial / 8 nodes" in serve_out
        rc = main(
            ["run", "--nodes", "8", "--tasks", "40", "--configs", "5",
             "--seed", "1", "--trace-digest"]
        )
        batch_out = capsys.readouterr().out
        assert rc == 0
        digest = batch_out.rsplit("trace digest: ", 1)[1].split()[0]
        assert f"trace digest: {digest}" in serve_out

    def test_serve_checkpoint_resume_digest_identical(self, tmp_path, capsys):
        trace = tmp_path / "svc.jsonl"
        args = self.BASE + [
            "--trace", str(trace), "--checkpoint-every", "400",
            "--checkpoint-dir", str(tmp_path),
        ]
        rc = main(args)
        out = capsys.readouterr().out
        assert rc == 0
        digest = out.rsplit("trace digest: ", 1)[1].split()[0]
        snaps = sorted(tmp_path.glob("snapshot-*.json"))
        assert snaps
        # Resume from a checkpoint against the FULL trace file (the crash
        # case): the CLI truncates it to the cut, on a different backend.
        rc = main(
            self.BASE + ["--backend", "scan", "--resume", str(snaps[0]),
                         "--trace", str(trace)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "truncated" in out
        assert "resumed from" in out
        assert f"trace digest: {digest}" in out

    def test_serve_drains_the_fault_tail_without_more_windows(self, tmp_path, capsys):
        """A fault campaign's stale completions and repairs outlive its
        workload.  ``serve`` drains them instead of windowing through them:
        the digest and report equal the batch run's, and no checkpoint is
        cut past the workload's final tick."""
        campaign = [
            "--nodes", "20", "--tasks", "200", "--configs", "10", "--seed", "42",
            "--mtbf", "3000", "--seu-rate", "2000", "--retry-budget", "4",
            "--backoff-base", "8",
        ]
        assert main(["run", *campaign, "--trace-digest"]) == 0
        batch_out = capsys.readouterr().out
        assert main(["serve", *campaign, "--window", "500", "--checkpoint-every", "5000",
                     "--checkpoint-dir", str(tmp_path)]) == 0
        serve_out = capsys.readouterr().out

        def table_one(out):
            block = out.split(" ==\n", 1)[1]
            return block[: block.index("==")]

        digest = batch_out.rsplit("trace digest: ", 1)[1].split()[0]
        assert f"trace digest: {digest}" in serve_out
        report = table_one(batch_out)
        assert table_one(serve_out) == report
        final = int(report.split("total_simulation_time", 1)[1].split()[0])
        cuts = [int(line.split("t=", 1)[1].split()[0])
                for line in serve_out.splitlines() if line.startswith("checkpoint at")]
        assert cuts
        assert max(cuts) < final

    def test_resume_without_trace_is_an_error(self, tmp_path, capsys):
        rc = main(self.BASE + ["--resume", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "--trace" in capsys.readouterr().err

    def test_resume_with_an_empty_trace_is_an_error(self, tmp_path, capsys):
        """An empty --trace file is no prefix: resuming from it would forge
        the digest, so it is refused with exit code 2."""
        rc = main(
            self.BASE + ["--checkpoint-every", "400", "--checkpoint-dir", str(tmp_path)]
        )
        assert rc == 0
        snaps = sorted(tmp_path.glob("snapshot-*.json"))
        assert snaps
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        capsys.readouterr()
        rc = main(self.BASE + ["--resume", str(snaps[0]), "--trace", str(empty)])
        assert rc == 2
        assert "error: trace prefix has 0 events" in capsys.readouterr().err

    def test_malformed_swf_trace_is_an_error(self, tmp_path, capsys):
        swf = tmp_path / "bad.swf"
        swf.write_text("1 0 0 10\n2 inf 0 10\n")
        rc = main(self.BASE + ["--swf", str(swf)])
        assert rc == 2
        assert "error: SWF line 2: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["0", "-1", "inf", "nan", "x"])
    def test_time_scale_must_be_finite_and_positive(self, scale, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.BASE + ["--swf", "unused.swf", "--time-scale", scale])
        assert exc.value.code == 2
        assert "--time-scale" in capsys.readouterr().err

    def test_report_every_prints_mid_run_views(self, tmp_path, capsys):
        rc = main(self.BASE + ["--report-every", "400"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "events," in out and "completed" in out


class TestSeedSweep:
    BASE = ["run", "--nodes", "8", "--tasks", "30", "--configs", "5", "--seed", "3"]

    def test_multi_seed_reports_in_seed_order(self, capsys):
        rc = main(self.BASE + ["--seeds", "3", "--trace-digest"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.index("seed 3") < out.index("seed 4") < out.index("seed 5")
        assert out.count("trace digest:") == 3

    def test_multi_seed_parallel_matches_serial(self, capsys):
        args = self.BASE + ["--seeds", "2", "--faults", "--trace-digest"]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert "resilience" in serial_out
        assert main(args + ["-j", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_seeds_incompatible_with_per_run_artifacts(self, tmp_path, capsys):
        rc = main(self.BASE + ["--seeds", "2", "--xml", str(tmp_path / "r.xml")])
        assert rc == 2
        assert "incompatible" in capsys.readouterr().err

    def test_seeds_must_be_positive(self, capsys):
        rc = main(self.BASE + ["--seeds", "0"])
        assert rc == 2
        assert "--seeds" in capsys.readouterr().err


class TestLintCommand:
    def test_lint_flags_reach_dreamlint(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        assert "DL001" in capsys.readouterr().out

    def test_unknown_flag_outside_lint_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--list-rules"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --list-rules" in capsys.readouterr().err


# A fresh interpreter with networkx unimportable, as on a core install.
_BLOCK_NETWORKX = """
import sys
from importlib.abc import MetaPathFinder

class BlockNetworkx(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "networkx" or name.startswith("networkx."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockNetworkx())
"""
_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(code):
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": _SRC, "PATH": ""},
    )


class TestImports:
    def test_import_and_run_without_networkx(self):
        proc = _python(
            _BLOCK_NETWORKX
            + "import repro\n"
            + "from repro.cli.main import main\n"
            + "sys.exit(main(['run', '--tasks', '200', '--trace-digest']))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert "trace digest: " in proc.stdout

    def test_run_loads_no_optional_or_subcommand_packages(self):
        proc = _python(
            "import contextlib, io, sys\n"
            "from repro.cli.main import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['run', '--tasks', '200', '--trace-digest'])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'"
            " or m.startswith(('repro.lint', 'repro.analysis'))))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_parser_defaults_match_the_analysis_harness(self):
        from repro.analysis.figures import FIGURES
        from repro.analysis.paperconfig import DEFAULT_SEED, DEFAULT_TASK_SWEEP
        from repro.cli.main import DEFAULT_SEED as parser_seed
        from repro.cli.main import DEFAULT_TASK_SWEEP as parser_sweep
        from repro.cli.main import FIGURE_IDS

        assert parser_seed == DEFAULT_SEED
        assert parser_sweep == DEFAULT_TASK_SWEEP
        assert FIGURE_IDS == tuple(sorted(FIGURES))
