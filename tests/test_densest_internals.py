"""White-box tests for the densest-subgraph substrate internals."""

import pytest

from repro.densest.exact_flow import _best_for_ratio, _free_positive_subgraph
from repro.graphs import WeightedGraph


def small_graph():
    g = WeightedGraph()
    g.add_node("a", 1.0)
    g.add_node("b", 1.0)
    g.add_node("c", 3.0)
    g.add_edge("a", "b", 4.0)
    g.add_edge("b", "c", 1.0)
    return g


class TestBestForRatio:
    def test_low_lambda_selects_everything_profitable(self):
        profit, selection = _best_for_ratio(small_graph(), lam=0.1)
        assert profit > 0
        assert {"a", "b"} <= selection

    def test_high_lambda_selects_nothing(self):
        profit, selection = _best_for_ratio(small_graph(), lam=100.0)
        assert profit == pytest.approx(0.0, abs=1e-6)
        assert selection == set()

    def test_crossover_drops_weak_node(self):
        # At lambda = 1.5: edge a-b profit 4 - 3 = 1 > 0; adding c costs
        # 4.5 for weight 1 -> excluded.
        profit, selection = _best_for_ratio(small_graph(), lam=1.5)
        assert selection == {"a", "b"}


class TestFreePositiveSubgraph:
    def test_detects_free_weight(self):
        g = WeightedGraph()
        g.add_node("a", 0.0)
        g.add_node("b", 0.0)
        g.add_edge("a", "b", 1.0)
        assert _free_positive_subgraph(g) == frozenset({"a", "b"})

    def test_no_free_weight(self):
        assert _free_positive_subgraph(small_graph()) == frozenset()

    def test_isolated_free_nodes_dont_count(self):
        g = WeightedGraph()
        g.add_node("a", 0.0)
        g.add_node("b", 1.0)
        g.add_edge("a", "b", 1.0)
        assert _free_positive_subgraph(g) == frozenset()


class TestSolutionDescribe:
    def test_describe_contains_summary(self, fig1_b4):
        from repro.core import evaluate, from_letters as fs

        solution = evaluate(fig1_b4, [fs("yz"), fs("xz")])
        text = solution.describe()
        assert "cost: 4" in text
        assert "XZ" in text
        assert "YZ" in text

    def test_describe_truncates(self, fig1_b11):
        from repro.core import evaluate, from_letters as fs

        solution = evaluate(fig1_b11, [fs("x"), fs("y"), fs("z"), fs("yz")])
        text = solution.describe(max_items=2)
        assert "... and 2 more" in text
