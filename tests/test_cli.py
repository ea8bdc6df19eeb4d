"""CLI surface: commands parse, run, and print sane output."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.registry import experiment_ids, get


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_report_flags(self):
        args = build_parser().parse_args(["report", "--fast", "--seed", "3"])
        assert args.fast and args.seed == 3

    def test_experiment_name(self):
        args = build_parser().parse_args(["experiment", "figure3"])
        assert args.name == "figure3"

    def test_trace_flags(self):
        args = build_parser().parse_args(
            ["trace", "figure2", "--fast", "--out-dir", "/tmp/t"]
        )
        assert args.name == "figure2"
        assert args.fast and args.out_dir == "/tmp/t"


class TestCommands:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in experiment_ids():
            assert name in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["experiment", "figure99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_demo_shows_four_paths(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        for start in ("cold", "restore", "warm", "horse"):
            assert start in out

    @pytest.mark.parametrize("name", ["table1", "figure1", "figure2", "figure3"])
    def test_experiment_commands_run_fast(self, capsys, name):
        assert main(["experiment", name, "--fast"]) == 0
        out = capsys.readouterr().out
        assert get(name).title.split(" — ")[0] in out

    def test_overhead_command(self, capsys):
        assert main(["experiment", "overhead", "--fast"]) == 0
        assert "mem delta" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["experiment", "chaos", "--fast", "--shards", "-3"], "shards"),
            (["experiment", "cluster_sharded", "--fast", "--shards", "0"], "shards"),
            (["replay", "--hours", "0.01", "--memory-budget", "nan"],
             "memory_budget_mb"),
            (["replay", "--hours", "0.01", "--sandbox-mb", "inf"], "sandbox_mb"),
            (["replay", "--hours", "inf"], "duration_s"),
            (["replay", "--hours", "nan"], "duration_s"),
            (["check", "figure3", "--fast", "--max-ulps", "-5"], "max_ulps"),
            (["replay", "--policy", "hybrid-0", "--functions", "5",
              "--hours", "0.01"], "bin_width_ns"),
            (["replay", "--policy", "hybrid--60", "--functions", "5",
              "--hours", "0.01"], "bin_width_ns"),
        ],
    )
    def test_out_of_range_value_rejected_by_name(self, capsys, argv, field):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{field} must be")

    @pytest.mark.parametrize(
        "variable, argv",
        [
            ("REPRO_DISPATCH_POLICY", ["demo"]),
            ("REPRO_PREWARM_POLICY", ["replay"]),
        ],
    )
    def test_invalid_policy_env_var_exits_two_naming_it(
        self, capsys, monkeypatch, variable, argv
    ):
        monkeypatch.setenv(variable, "hybird")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{variable}: ")
        assert "'hybird'" in captured.err

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_unsound_result_exits_one_with_unchanged_stdout(
        self, capsys, monkeypatch, json_flag
    ):
        import repro.experiments.chaos as chaos

        class Verdict:
            def __init__(self, ok):
                self.ok = ok

            def rows(self):
                return [{"mode": "retry", "lost": 1}]

        monkeypatch.setattr(chaos, "render_chaos", lambda result: "UNSOUND")

        def run(ok):
            monkeypatch.setattr(chaos, "run_chaos", lambda config: Verdict(ok))
            status = main(["experiment", "chaos", "--fast", *json_flag])
            return status, capsys.readouterr().out

        sound_status, sound_out = run(True)
        unsound_status, unsound_out = run(False)
        assert (sound_status, unsound_status) == (0, 1)
        assert unsound_out == sound_out
        assert ('"lost": 1' if json_flag else "UNSOUND") in unsound_out

    def test_trace_unknown_experiment_fails(self, capsys):
        assert main(["trace", "figure99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_profile_unknown_experiment_fails(self, capsys):
        assert main(["profile", "figure99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", [["--hosts", "2"], ["--requests", "150"], ["--failure-rate", "0.2"]]
    )
    def test_profile_takes_no_chaos_shape_flags(self, capsys, flag):
        # `repro profile chaos` runs the registry's chaos spec: --fast
        # picks its shape, so the old chaos-only flags are usage errors.
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "chaos", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_trace_exports_chrome_json_and_jsonl(self, tmp_path, capsys):
        import json

        from repro.obs import read_jsonl, to_chrome_trace

        out_dir = tmp_path / "traces"
        assert main(
            ["trace", "figure2", "--fast", "--out-dir", str(out_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "== metrics" in out
        assert "resume.total_ns" in out

        chrome_path = out_dir / "figure2.trace.json"
        jsonl_path = out_dir / "figure2.trace.jsonl"
        chrome = json.loads(chrome_path.read_text())
        events = chrome["traceEvents"]
        assert any(e.get("ph") == "X" and e["name"] == "resume"
                   for e in events)
        assert any(e.get("ph") == "X" and e["name"] == "merge"
                   for e in events)
        # the JSONL form round-trips to the identical Chrome export
        assert to_chrome_trace(read_jsonl(str(jsonl_path))) == chrome

    def test_report_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        assert main(["report", "--fast", "--out", str(out_file)]) == 0
        text = out_file.read_text()
        assert "# HORSE reproduction" in text
        assert "Figure 3" in text
