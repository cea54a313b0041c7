"""Tests for the experiment harness (runner, report, scales, insights, CLI)."""

import pytest

from repro.experiments.runner import FigureResult, budget_sweep
from repro.experiments.report import render_table, render_timings
from repro.experiments.scales import PAPER, SCALES, SMALL, TINY


class TestFigureResult:
    def make(self):
        result = FigureResult("figX", "test", "budget", "utility")
        result.add(10, "A", 1.0, 0.1)
        result.add(10, "B", 2.0, 0.2)
        result.add(20, "A", 3.0, 0.3)
        result.add(20, "B", 4.0, 0.4)
        return result

    def test_series(self):
        result = self.make()
        assert result.series("A") == [(10, 1.0), (20, 3.0)]

    def test_algorithms_ordered(self):
        assert self.make().algorithms() == ["A", "B"]

    def test_x_values_ordered(self):
        assert self.make().x_values() == [10, 20]

    def test_value_at(self):
        result = self.make()
        assert result.value_at(20, "B") == 4.0
        assert result.value_at(30, "B") is None

    def test_extra_recorded(self):
        result = FigureResult("f", "t", "x", "v")
        result.add(1, "A", 1.0, 0.0, detail="yes")
        assert result.rows[0].extra["detail"] == "yes"


class TestHelpers:
    def test_budget_sweep(self):
        assert budget_sweep(100.0, (0.1, 0.5)) == [10.0, 50.0]

    def test_budget_sweep_floor(self):
        assert budget_sweep(4.0, (0.01,)) == [1.0]


class TestReport:
    def test_render_table_contains_values(self):
        result = FigureResult("fig9", "demo", "budget", "utility")
        result.add(10, "A^BCC", 12.345, 0.1)
        result.notes.append("hello")
        text = render_table(result)
        assert "fig9" in text
        assert "12.3" in text
        assert "note: hello" in text

    def test_render_table_missing_cell(self):
        result = FigureResult("f", "t", "x", "v")
        result.add(1, "A", 1.0, 0.0)
        result.add(2, "B", 2.0, 0.0)
        text = render_table(result)
        assert "-" in text

    def test_render_timings(self):
        result = FigureResult("f", "t", "x", "v")
        result.add(1, "A", 1.0, 0.25)
        text = render_timings(result)
        assert "0.25s" in text


class TestScales:
    def test_registry(self):
        assert SCALES["tiny"] is TINY
        assert SCALES["small"] is SMALL
        assert SCALES["paper"] is PAPER

    def test_paper_matches_paper_sizes(self):
        assert PAPER.bb_queries == 1000
        assert PAPER.bb_properties == 725
        assert PAPER.p_queries == 5000
        assert PAPER.p_properties == 2000

    def test_sweeps_increasing(self):
        for scale in SCALES.values():
            assert list(scale.sweep_sizes) == sorted(scale.sweep_sizes)


class TestInsights:
    def test_diminishing_returns_detector(self):
        from repro.experiments.insights import diminishing_returns

        concave = [(0.25, 0.5), (0.5, 0.75), (0.75, 0.9), (1.0, 1.0)]
        assert diminishing_returns(concave)
        convex = [(0.25, 0.1), (0.5, 0.3), (0.75, 0.6), (1.0, 1.0)]
        assert not diminishing_returns(convex)

    def test_utility_curve_monotone(self):
        from repro.datasets import generate_bestbuy
        from repro.experiments.insights import utility_curve

        base = generate_bestbuy(n_queries=60, n_properties=70, seed=2)
        curve = utility_curve(base, fractions=(0.3, 1.0))
        values = [v for _, v in curve]
        assert values == sorted(values)
        assert values[-1] <= 1.0 + 1e-9

    def test_coverage_split_sums_to_one(self):
        from repro.datasets import generate_bestbuy
        from repro.experiments.insights import coverage_split_by_length

        base = generate_bestbuy(n_queries=50, n_properties=60, seed=4)
        split = coverage_split_by_length(base, budget=15.0)
        if split:
            assert sum(split.values()) == pytest.approx(1.0)


class TestCli:
    def test_unknown_figure_rejected(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_runs_tiny_figure(self, capsys):
        from repro.experiments.cli import main

        code = main(["fig4e", "--scale", "tiny"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig4e" in out
        assert "A^ECC" in out


class TestRenderBars:
    def test_bars_render(self):
        from repro.experiments.report import render_bars

        result = FigureResult("figZ", "bars", "x", "v")
        result.add(1, "A", 10.0, 0.0)
        result.add(1, "B", 5.0, 0.0)
        text = render_bars(result, width=10)
        assert "figZ" in text
        assert "##########" in text  # the peak bar
        assert "10.0" in text and "5.0" in text

    def test_bars_handle_infinity(self):
        from repro.experiments.report import render_bars

        result = FigureResult("figZ", "bars", "x", "v")
        result.add(1, "A", float("inf"), 0.0)
        result.add(1, "B", 2.0, 0.0)
        text = render_bars(result)
        assert "inf" in text

    def test_bars_empty(self):
        from repro.experiments.report import render_bars

        result = FigureResult("figZ", "bars", "x", "v")
        assert "no finite values" in render_bars(result)
