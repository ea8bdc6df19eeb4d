"""The ``python -m repro check`` command."""

from repro.cli import main


class TestCheckCommand:
    def test_clean_check_exits_zero_and_reports(self, capsys):
        code = main(["check", "figure3", "--fast"])
        out = capsys.readouterr().out
        assert code == 0
        assert "pause/resume cycles" in out
        assert "all invariants held" in out

    def test_fault_run_exits_one_with_span_context(self, capsys):
        code = main(
            ["check", "figure3", "--fast", "--fault", "skip_merge_thread"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "injected faults:" in out
        assert "skip_merge_thread" in out
        assert "violations:" in out
        # Span context from the per-cycle check.cycle span.
        assert "span check.cycle#" in out

    def test_unknown_experiment_exits_two(self, capsys):
        code = main(["check", "figure9"])
        err = capsys.readouterr().err
        assert code == 2
        assert "no checked runner" in err

    def test_unknown_fault_kind_is_a_clean_error(self, capsys):
        code = main(["check", "figure3", "--fast", "--fault", "nope"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown fault kind" in err

    def test_unknown_experiment_id_exits_two_listing_the_ids(self, capsys):
        assert main(["check", "figure99"]) == 2
        err = capsys.readouterr().err
        assert "figure99" in err and "prewarm_frontier" in err

    def test_fault_on_another_experiment_exits_two_naming_figure3(self, capsys):
        code = main(["check", "table1", "--fast", "--fault", "stale_arrayb"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "only figure3 takes faults" in captured.err

    def test_any_experiment_reports_what_it_checked(self, capsys):
        code = main(["check", "table1", "--fast"])
        out = capsys.readouterr().out
        assert code == 0
        header, verdict = out.splitlines()
        assert header.startswith("repro check table1 (firecracker): ")
        engines, hosts, pools = (
            int(part.split()[0]) for part in header.split(": ")[1].split(", ")[:3]
        )
        assert engines > 0 and hosts > 0 and pools > 0
        assert verdict == "all invariants held"

    def test_experiment_with_nothing_to_check_says_so(self, capsys):
        code = main(["check", "prewarm_frontier", "--fast"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 engine(s), 0 host(s), 0 pool(s)" in out
        assert "nothing to check" in out

    def test_max_ulps_on_another_experiment_exits_two_naming_the_flag(
        self, capsys
    ):
        code = main(["check", "table1", "--fast", "--max-ulps", "-5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("--max-ulps: only figure3")
        assert "'table1'" in captured.err

    def test_negative_max_ulps_on_figure3_still_exits_two(self, capsys):
        code = main(["check", "figure3", "--max-ulps", "-5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("max_ulps must be")

    def test_figure3_budget_defaults_to_sixteen_ulps(self, capsys, monkeypatch):
        import repro.check
        from repro.check import DEFAULT_MAX_ULPS, check_figure3

        budgets = []

        def spy(**kwargs):
            budgets.append(kwargs["max_ulps"])
            return check_figure3(**kwargs)

        monkeypatch.setattr(repro.check, "check_figure3", spy)
        assert main(["check", "figure3", "--fast"]) == 0
        assert main(["check", "figure3", "--fast", "--max-ulps", "3"]) == 0
        assert budgets == [DEFAULT_MAX_ULPS, 3] == [16, 3]
