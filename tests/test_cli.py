"""Command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"


class TestSimulate:
    def test_basic_run(self, capsys):
        code = main(["simulate", "--method", "acpsgd", "--model", "ResNet-50",
                     "--gpus", "8", "--rank", "4", "--batch-size", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "total=" in out and "acpsgd" in out

    def test_system_switches(self, capsys):
        code = main(["simulate", "--method", "ssgd", "--model", "ResNet-50",
                     "--batch-size", "16", "--no-wfbp", "--no-tf"])
        assert code == 0

    def test_trace_export(self, tmp_path, capsys):
        trace = tmp_path / "timeline.json"
        code = main(["simulate", "--method", "powersgd_star",
                     "--model", "ResNet-50", "--batch-size", "16",
                     "--rank", "4", "--trace", str(trace)])
        assert code == 0
        with open(trace) as handle:
            doc = json.load(handle)
        assert doc["traceEvents"]

    def test_unknown_model_errors(self, capsys):
        assert main(["simulate", "--model", "AlexNet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro simulate: error: unknown model 'AlexNet'")

    def test_unknown_method_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--method", "magic"])


class TestErrorsAreMessages:
    """Bad argument values end in one ``error:`` line and exit status 2."""

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--model", "Nope"],
         "repro simulate: error: unknown model 'Nope'"),
        (["faults", "--model", "ResNet-50", "--methods", "acpsgd",
          "--gpus", "8", "--iterations", "2", "--drop-rate", "1.0"],
         "repro faults: error: drop_rate must be in [0, 1), got 1.0"),
        (["simulate", "--method", "magic"],
         "repro simulate: error: argument --method: invalid choice: 'magic'"),
        (["elastic", "--workers", "1"],
         "repro elastic: error: --workers must be >= 2, got 1"),
    ], ids=["unknown-model", "faults-drop-rate", "unknown-method",
            "elastic-one-worker"])
    def test_no_traceback(self, argv, message):
        result = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert result.returncode == 2
        assert message in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--gpus", "6", "--nodes", "4"],
         "repro simulate: error: --gpus 6 is not divisible by --nodes 4"),
        (["gossip", "--peers", "4", "--adversaries", "2"],
         "repro gossip: error: --adversaries 2 is not an honest-majority "
         "roster at --peers 4"),
        (["faults", "--methods", "magic"],
         "repro faults: error: unknown method 'magic'; available: ssgd"),
        (["train", "--batch-size", "0", "--samples", "200"],
         "repro train: error: batch_size_per_worker must be >= 1, got 0"),
    ], ids=["nodes", "gossip-majority", "faults-method", "train-batch-size"])
    def test_commands_build_no_error_text_of_their_own(
        self, argv, message, capsys
    ):
        """One road: the command raises ``ValueError``, ``main`` formats it
        (these used to be ``SystemExit`` with exit 1 and a silent
        ``--batch-size 0`` -> 32; ``bench``'s hand-printed line is
        ``TestBench.test_rejects_unknown_worker_backend``)."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1
        assert captured.out == ""


class TestAutotune:
    def test_reports_best_buffer(self, capsys):
        code = main(["autotune", "--method", "ssgd", "--model", "ResNet-50",
                     "--batch-size", "16", "--gpus", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "best buffer" in out and "<-- best" in out


class TestBench:
    def test_hot_path_bench_smoke(self, tmp_path, capsys):
        report_path = tmp_path / "bench.json"
        code = main(["bench", "--world-size", "2", "--base-width", "2",
                     "--iters", "2", "--warmup", "1",
                     "--methods", "ssgd,randomk",
                     "--workers", "none",
                     "--output", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "ssgd" in out and "fused allocs" in out
        with open(report_path) as handle:
            report = json.load(handle)
        assert set(report["aggregate_step"]) == {"ssgd", "randomk"}
        crit = report["criteria"]
        assert crit["arena_fused_allocs_per_step"] == 0

    def test_worker_mode_bench_records_breakdown(self, tmp_path, capsys):
        """`--workers process` compares backends and records the criteria
        (the seq baseline is pulled in automatically)."""
        report_path = tmp_path / "bench.json"
        code = main(["bench", "--world-size", "2", "--base-width", "2",
                     "--iters", "2", "--warmup", "1",
                     "--methods", "ssgd,signsgd,terngrad",
                     "--no-buffer-sweep",
                     "--workers", "process",
                     "--output", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "process vs seq" in out
        with open(report_path) as handle:
            report = json.load(handle)
        modes = report["worker_modes"]
        assert set(modes) == {"ssgd", "signsgd", "terngrad"}
        for row in modes.values():
            assert set(row) == {"seq", "process", "process_vs_seq_speedup"}
            assert row["process"]["broadcast_mean_s"] > 0
        crit = report["criteria"]
        assert set(crit["process_vs_seq_speedup"]) == {
            "ssgd", "signsgd", "terngrad"
        }
        assert crit["cpu_count"] >= 1

    def test_rejects_unknown_worker_backend(self, capsys):
        for backend in ("bogus", "thread"):
            assert main(["bench", "--workers", backend]) == 2
            assert (
                f"repro bench: error: unknown worker backend {backend!r} "
                "(expected seq, process, or none)"
            ) in capsys.readouterr().err

    def test_planner_and_sim_benches_are_gone(self, capsys):
        """perfbench's ``plan_mixed`` measures the planner; argparse answers
        the old flags with its unrecognised-argument exit 2."""
        for flag in ("--planner", "--sim"):
            with pytest.raises(SystemExit) as exit_info:
                main(["bench", flag])
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestTrain:
    def test_tiny_training_run(self, capsys):
        code = main(["train", "--method", "ssgd", "--workers", "2",
                     "--epochs", "1", "--steps-per-epoch", "3",
                     "--samples", "200", "--batch-size", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "final accuracy" in out


class TestDGCMomentum:
    @pytest.mark.parametrize("command", [
        ["train", "--workers", "2", "--samples", "100"],
        ["elastic", "--workers", "2", "--samples", "100", "--fail-call", "1",
         "--rejoin-call", "3", "--join-call", "4"],
    ], ids=["train", "elastic"])
    def test_dgc_trains_under_momentum_free_sgd(self, command, capsys,
                                                 monkeypatch):
        """DGC's momentum correction is its momentum: the optimizer adds none."""
        import repro.optim

        momenta = []

        class RecordingSGD(repro.optim.SGD):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                momenta.append(self.momentum)

        monkeypatch.setattr(repro.optim, "SGD", RecordingSGD)
        code = main(command + ["--method", "dgc", "--epochs", "1",
                               "--steps-per-epoch", "2", "--batch-size", "4"])
        assert code == 0
        assert "final accuracy" in capsys.readouterr().out
        assert momenta == [0.0]


class TestElastic:
    def test_each_roster_change_is_printed_once(self, capsys):
        code = main(["elastic", "--method", "ssgd", "--workers", "2",
                     "--epochs", "1", "--steps-per-epoch", "6",
                     "--samples", "100", "--batch-size", "4",
                     "--fail-call", "1", "--rejoin-call", "3",
                     "--join-call", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "live world 3 (started at 2)" in out
        for line in ("eject  rank 1 -> world 1",
                     "rejoin rank 1 (state from rank 0) -> world 2",
                     "join   rank 2 (state from rank 0) -> world 3"):
            assert out.count(line) == 1, line
        assert out.count("eject") == out.count("rejoin") == 1
        assert "world-size timeline   2@call0 -> 1@call" in out


class TestEvaluateJson:
    def test_json_export_smoke(self, tmp_path, capsys, monkeypatch):
        """`evaluate --json` writes structured results (patched to a tiny
        subset so the test stays fast)."""
        import repro.cli as cli

        written = {}

        def fake_export(path, fast):
            written["path"] = path
            written["fast"] = fast
            with open(path, "w") as handle:
                handle.write("{}")
            return {}

        monkeypatch.setattr("repro.experiments.export.export_json", fake_export)
        path = str(tmp_path / "r.json")
        code = cli.main(["evaluate", "--fast", "--json", path])
        assert code == 0
        assert written == {"path": path, "fast": True}


class TestExtensionMethods:
    def test_simulate_extension_method(self, capsys):
        code = main(["simulate", "--method", "terngrad", "--model",
                     "ResNet-50", "--batch-size", "16", "--gpus", "8"])
        assert code == 0
        assert "terngrad" in capsys.readouterr().out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_link_choices(self):
        args = build_parser().parse_args(
            ["simulate", "--link", "1GbE"]
        )
        assert args.link == "1GbE"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--link", "5GbE"])

    def test_every_flag_is_read_by_its_command(self):
        """A deleted command body cannot leave its flags behind: every
        ``dest`` is read as ``args.<dest>`` by the sub-command's function or
        by one of the module's shared ``_helpers``."""
        import argparse
        import inspect
        import re

        import repro.cli as cli

        shared = "".join(
            inspect.getsource(fn) for name, fn in vars(cli).items()
            if name.startswith("_") and inspect.isfunction(fn)
        )
        commands = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ).choices
        assert len(commands) == 11
        for name, parser in commands.items():
            body = inspect.getsource(parser.get_default("func"))
            read = set(re.findall(r"\bargs\.(\w+)", body + shared))
            flags = {a.dest for a in parser._actions if a.dest != "help"}
            assert flags <= read, (name, sorted(flags - read))


@pytest.mark.serve
class TestPlanJson:
    def test_plan_json_round_trips_through_service_schema(self, capsys):
        """`plan --json` emits exactly the schema the service serves."""
        from repro.serve.schema import plan_from_dict, plan_payload

        code = main(["plan", "--model", "ResNet-18", "--gpus", "4",
                     "--rank", "4", "--no-tune", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.plan/2"
        restored = plan_from_dict(doc)
        assert restored.model == "ResNet-18"
        assert restored.world_size == 4
        # Canonical payload of the parsed plan == canonical payload of a
        # fresh library call: one schema, two frontends.
        from repro.planner import plan

        direct = plan("ResNet-18", gpus=4, link="10GbE", rank=4,
                      tune_buffer=False)
        assert plan_payload(restored) == plan_payload(direct)

    def test_plan_human_output_unchanged(self, capsys):
        code = main(["plan", "--model", "ResNet-18", "--gpus", "4",
                     "--rank", "4", "--no-tune"])
        assert code == 0
        assert "recommended" in capsys.readouterr().out


@pytest.mark.serve
class TestServeCommand:
    def make_query_line(self, gpus):
        return json.dumps({"model": "ResNet-18", "gpus": gpus,
                           "link": "10GbE", "rank": 4,
                           "tune_buffer": False})

    def test_jsonl_file_in_file_out(self, tmp_path, capsys):
        queries = tmp_path / "queries.jsonl"
        plans = tmp_path / "plans.jsonl"
        queries.write_text("\n".join([
            self.make_query_line(4),
            self.make_query_line(8),
            self.make_query_line(4),  # duplicate -> cache/coalesce
        ]) + "\n")
        code = main(["serve", "--input", str(queries),
                     "--output", str(plans), "--workers", "2"])
        assert code == 0
        lines = [json.loads(line)
                 for line in plans.read_text().splitlines()]
        assert len(lines) == 3
        assert lines[0]["plan"]["model"] == "ResNet-18"
        assert lines[0]["key"] == lines[2]["key"]
        # Duplicate answered from the same computation: identical bytes.
        assert lines[0]["plan"] == lines[2]["plan"]

    def test_serve_reports_errors_per_line(self, tmp_path):
        queries = tmp_path / "queries.jsonl"
        plans = tmp_path / "plans.jsonl"
        queries.write_text("garbage\n" + self.make_query_line(4) + "\n")
        code = main(["serve", "--input", str(queries),
                     "--output", str(plans)])
        assert code == 0
        lines = [json.loads(line)
                 for line in plans.read_text().splitlines()]
        assert "error" in lines[0]
        assert "plan" in lines[1]

