"""Tests for the SpES heuristic (smallest p-edge subgraph)."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dks import solve_spes
from repro.graphs import WeightedGraph


def clique(n, weight=1.0):
    g = WeightedGraph()
    for i in range(n):
        g.add_node(i, 1.0)
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(i, j, weight)
    return g


def exact_spes(graph, p):
    nodes = sorted(graph.nodes, key=repr)
    for r in range(len(nodes) + 1):
        for combo in itertools.combinations(nodes, r):
            if graph.induced_weight(combo) >= p - 1e-12:
                return r
    return None


class TestSolveSpes:
    def test_trivial_target(self):
        assert solve_spes(clique(4), 0.0) == frozenset()

    def test_single_edge_suffices(self):
        g = clique(5)
        selection = solve_spes(g, 1.0)
        assert selection is not None
        assert len(selection) == 2
        assert g.induced_weight(selection) >= 1.0

    def test_infeasible_returns_none(self):
        g = clique(3)  # 3 edges total
        assert solve_spes(g, 10.0) is None

    def test_reaches_target(self):
        g = clique(6)
        selection = solve_spes(g, 6.0)
        assert selection is not None
        assert g.induced_weight(selection) >= 6.0

    def test_clique_optimal_size(self):
        # p = C(k, 2) needs exactly k clique nodes.
        g = clique(8)
        selection = solve_spes(g, 10.0)  # C(5,2) = 10
        assert selection is not None
        assert len(selection) == 5

    def test_prefers_dense_region(self):
        g = clique(4, weight=2.0)  # 12 weight in 4 nodes
        for i in range(10, 20):
            g.add_node(i, 1.0)
        for i in range(10, 19):
            g.add_edge(i, i + 1, 1.0)  # sparse path
        selection = solve_spes(g, 8.0)
        assert selection is not None
        assert selection <= {0, 1, 2, 3}

    @given(seed=st.integers(0, 500), p=st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_greedy_close_to_exact(self, seed, p):
        rng = random.Random(seed)
        g = WeightedGraph()
        for i in range(8):
            g.add_node(i, 1.0)
        for i in range(8):
            for j in range(i + 1, 8):
                if rng.random() < 0.5:
                    g.add_edge(i, j, 1.0)
        selection = solve_spes(g, float(p))
        optimal = exact_spes(g, float(p))
        if optimal is None:
            assert selection is None
        else:
            assert selection is not None
            assert g.induced_weight(selection) >= p - 1e-12
            # Greedy within 2x the optimal node count on these sizes.
            assert len(selection) <= 2 * optimal
