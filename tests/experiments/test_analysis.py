"""Analysis renderers produce well-formed tables and series."""

import pytest

from repro.analysis.figures import (
    figure1_series,
    figure4_series,
    render_colocation,
    render_figure1,
    render_figure2,
    render_figure3,
    render_figure4,
)
from repro.analysis.tables import render_table, render_table1
from repro.experiments.colocation import run_colocation
from repro.experiments.figure2 import run_figure2
from repro.experiments.figure3 import run_figure3
from repro.experiments.figure4 import run_figure4
from repro.experiments.table1 import run_table1


@pytest.fixture(scope="module")
def table1():
    return run_table1(repetitions=2, seed=0)


@pytest.fixture(scope="module")
def figure2():
    return run_figure2(vcpu_counts=(1, 36), repetitions=2)


@pytest.fixture(scope="module")
def figure3():
    return run_figure3(vcpu_counts=(1, 36), repetitions=2)


@pytest.fixture(scope="module")
def figure4():
    return run_figure4(repetitions=2, seed=0)


class TestRenderTable:
    def test_header_and_rows(self):
        text = render_table(["a", "b"], [["1", "2"], ["3", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a"], [["1", "2"]])


class TestRenderers:
    def test_table1_contains_all_metrics(self, table1):
        text = render_table1(table1)
        assert "Initialization (us)" in text
        assert "Init. Per. (%)" in text
        assert "firewall/warm" in text

    def test_figure1(self, table1):
        text = render_figure1(table1)
        assert "cold" in text and "warm" in text
        series = figure1_series(table1)
        assert set(series) == {"cold", "restore", "warm"}

    def test_figure2(self, figure2):
        text = render_figure2(figure2)
        assert "4-sorted-merge" in text
        assert "4+5 %" in text

    def test_figure3(self, figure3):
        text = render_figure3(figure3)
        for setup in ("vanil", "ppsm", "coal", "horse"):
            assert setup in text
        assert "1 vCPU" in text and "36 vCPU" in text

    def test_figure4(self, figure4):
        text = render_figure4(figure4)
        assert "horse" in text
        series = figure4_series(figure4)
        assert set(series) == {"cold", "restore", "warm", "horse"}

    def test_colocation(self):
        result = run_colocation(vcpu_counts=(1,), seed=0)
        text = render_colocation(result)
        assert "p99" in text
        assert "vanilla" in text and "horse" in text
