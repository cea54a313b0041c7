"""Tests for the QK solvers (repro.qk)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import WeightedGraph
from repro.qk import QKConfig, solve_qk, solve_qk_exact, solve_qk_taylor


def random_qk_graph(seed: int, n: int = 10, p: float = 0.4, max_cost: int = 6):
    rng = random.Random(seed)
    g = WeightedGraph()
    for i in range(n):
        g.add_node(i, cost=float(rng.randint(0, max_cost)))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(i, j, float(rng.randint(1, 9)))
    return g


def path_graph(costs, weights):
    g = WeightedGraph()
    for i, c in enumerate(costs):
        g.add_node(i, cost=float(c))
    for i, w in enumerate(weights):
        g.add_edge(i, i + 1, float(w))
    return g


class TestExactOracle:
    def test_takes_best_edge(self):
        g = path_graph([1, 1, 1], [5, 1])
        best = solve_qk_exact(g, 2.0)
        assert best == frozenset({0, 1})
        assert g.induced_weight(best) == 5.0

    def test_budget_zero(self):
        g = path_graph([1, 1], [5])
        best = solve_qk_exact(g, 0.0)
        assert g.induced_weight(best) == 0.0

    def test_zero_cost_nodes_free(self):
        g = path_graph([0, 0, 1], [5, 1])
        best = solve_qk_exact(g, 0.0)
        assert g.induced_weight(best) == 5.0

    def test_too_large_rejected(self):
        g = random_qk_graph(0, n=25)
        with pytest.raises(ValueError):
            solve_qk_exact(g, 5.0)

    def test_respects_budget(self):
        g = random_qk_graph(1)
        best = solve_qk_exact(g, 7.0)
        assert g.induced_cost(best) <= 7.0 + 1e-9


class TestHeuristicBasics:
    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            solve_qk(WeightedGraph(), -1.0)

    def test_empty_graph(self):
        assert solve_qk(WeightedGraph(), 5.0) == frozenset()

    def test_single_edge(self):
        g = path_graph([1, 1], [5])
        selection = solve_qk(g, 2.0)
        assert g.induced_weight(selection) == 5.0

    def test_zero_cost_nodes_always_selected(self):
        g = path_graph([0, 0, 3], [5, 1])
        selection = solve_qk(g, 0.0)
        assert {0, 1} <= selection
        assert g.induced_weight(selection) == 5.0

    def test_bonus_from_zero_cost_neighbor(self):
        # Node 0 is free; selecting node 1 (cost 2) should be preferred to
        # the 2-3 edge of smaller weight.
        g = WeightedGraph()
        g.add_node(0, 0.0)
        g.add_node(1, 2.0)
        g.add_node(2, 1.0)
        g.add_node(3, 1.0)
        g.add_edge(0, 1, 10.0)
        g.add_edge(2, 3, 3.0)
        selection = solve_qk(g, 2.0)
        assert g.induced_weight(selection) == 10.0

    def test_too_expensive_nodes_pruned(self):
        g = path_graph([100, 100], [5])
        selection = solve_qk(g, 10.0)
        assert selection == frozenset()

    def test_expensive_pair_enumeration(self):
        # The only good solution is two expensive nodes (each >= B/2).
        g = WeightedGraph()
        g.add_node("a", 5.0)
        g.add_node("b", 5.0)
        g.add_edge("a", "b", 100.0)
        g.add_node("c", 1.0)
        g.add_node("d", 1.0)
        g.add_edge("c", "d", 1.0)
        selection = solve_qk(g, 10.0)
        assert {"a", "b"} <= selection

    def test_single_expensive_plus_cheap(self):
        # One expensive hub plus cheap satellites beats anything cheap-only.
        g = WeightedGraph()
        g.add_node("hub", 6.0)
        for i in range(4):
            g.add_node(i, 1.0)
            g.add_edge("hub", i, 10.0)
        g.add_edge(0, 1, 1.0)
        selection = solve_qk(g, 10.0)
        assert "hub" in selection
        assert g.induced_weight(selection) >= 40.0

    def test_budget_respected(self):
        g = random_qk_graph(7)
        selection = solve_qk(g, 8.0)
        assert g.induced_cost(selection) <= 8.0 + 1e-9


class TestHeuristicQuality:
    @given(seed=st.integers(0, 400), budget=st.integers(1, 15))
    @settings(max_examples=30, deadline=None)
    def test_at_least_half_of_optimum(self, seed, budget):
        g = random_qk_graph(seed, n=9, p=0.5, max_cost=5)
        optimal = g.induced_weight(solve_qk_exact(g, budget))
        got = g.induced_weight(solve_qk(g, budget, QKConfig(seed=1)))
        # Theorem 4.7 allows up to (5 alpha); empirically we demand >= 1/2.
        assert got >= optimal / 2.0 - 1e-9

    def test_dense_block_found(self):
        # A cheap dense block against expensive scattered edges.
        g = WeightedGraph()
        for i in range(4):
            g.add_node(("block", i), 1.0)
        for i in range(4):
            for j in range(i + 1, 4):
                g.add_edge(("block", i), ("block", j), 5.0)
        for i in range(6):
            g.add_node(("noise", i), 3.0)
        for i in range(0, 6, 2):
            g.add_edge(("noise", i), ("noise", i + 1), 4.0)
        selection = solve_qk(g, 4.0, QKConfig(seed=0))
        assert g.induced_weight(selection) == pytest.approx(30.0)


class TestTaylor:
    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            solve_qk_taylor(WeightedGraph(), -1.0)

    def test_empty_graph(self):
        assert solve_qk_taylor(WeightedGraph(), 3.0) == frozenset()

    def test_single_edge(self):
        g = path_graph([1, 1], [5])
        selection = solve_qk_taylor(g, 2.0)
        assert g.induced_weight(selection) == 5.0

    def test_budget_respected(self):
        g = random_qk_graph(3)
        selection = solve_qk_taylor(g, 9.0)
        assert g.induced_cost(selection) <= 9.0 + 1e-9

    @given(seed=st.integers(0, 200), budget=st.integers(1, 12))
    @settings(max_examples=20, deadline=None)
    def test_feasible_and_nontrivial(self, seed, budget):
        g = random_qk_graph(seed, n=8, p=0.5, max_cost=4)
        selection = solve_qk_taylor(g, budget)
        assert g.induced_cost(selection) <= budget + 1e-9
        optimal = g.induced_weight(solve_qk_exact(g, budget))
        got = g.induced_weight(selection)
        if optimal > 0:
            # Worst-case algorithm: demand a quarter of the optimum here.
            assert got >= optimal / 4.0 - 1e-9

    def test_heuristic_usually_beats_taylor(self):
        """Ablation sanity: A_H^QK should dominate A_T^QK on most seeds."""
        wins = 0
        for seed in range(10):
            g = random_qk_graph(seed, n=12, p=0.4)
            b = 10.0
            h = g.induced_weight(solve_qk(g, b, QKConfig(seed=0)))
            t = g.induced_weight(solve_qk_taylor(g, b))
            if h >= t - 1e-9:
                wins += 1
        assert wins >= 7
