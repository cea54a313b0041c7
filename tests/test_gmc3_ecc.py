"""Tests for A^GMC3, A^ECC and the densest-subgraph substrate."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import solve_ecc, solve_gmc3
from repro.core import (
    ECCInstance,
    GMC3Instance,
    InfeasibleTargetError,
    from_letters as fs,
)
from repro.densest import solve_densest_exact, solve_densest_peeling
from repro.graphs import Hypergraph, WeightedGraph


def triangle_plus_tail():
    """Dense triangle (ratio 3) with a poor tail edge."""
    g = WeightedGraph()
    for n in ("a", "b", "c"):
        g.add_node(n, 1.0)
    g.add_edge("a", "b", 3.0)
    g.add_edge("b", "c", 3.0)
    g.add_edge("a", "c", 3.0)
    g.add_node("t", 5.0)
    g.add_edge("c", "t", 1.0)
    return g


class TestDensestExact:
    def test_triangle_beats_tail(self):
        ratio, nodes = solve_densest_exact(triangle_plus_tail())
        assert nodes == frozenset({"a", "b", "c"})
        assert ratio == pytest.approx(3.0, rel=1e-4)

    def test_empty_graph(self):
        assert solve_densest_exact(WeightedGraph()) == (0.0, frozenset())

    def test_zero_cost_positive_weight_infinite(self):
        g = WeightedGraph()
        g.add_node("a", 0.0)
        g.add_node("b", 0.0)
        g.add_edge("a", "b", 2.0)
        ratio, nodes = solve_densest_exact(g)
        assert ratio == math.inf
        assert nodes == frozenset({"a", "b"})

    def test_single_edge_ratio(self):
        g = WeightedGraph()
        g.add_node("a", 2.0)
        g.add_node("b", 2.0)
        g.add_edge("a", "b", 6.0)
        ratio, nodes = solve_densest_exact(g)
        assert ratio == pytest.approx(1.5, rel=1e-4)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_exact_at_least_peeling(self, seed):
        import random

        rng = random.Random(seed)
        g = WeightedGraph()
        h = Hypergraph()
        for i in range(8):
            cost = float(rng.randint(1, 5))
            g.add_node(i, cost)
            h.add_node(i, cost)
        for i in range(8):
            for j in range(i + 1, 8):
                if rng.random() < 0.4:
                    w = float(rng.randint(1, 9))
                    g.add_edge(i, j, w)
                    h.add_edge([i, j], w)
        if g.num_edges() == 0:
            return
        exact_ratio, _ = solve_densest_exact(g)
        peel_ratio, _ = solve_densest_peeling(h)
        assert exact_ratio >= peel_ratio - 1e-6
        # Peeling is a 2-approximation on graphs.
        assert peel_ratio >= exact_ratio / 2.0 - 1e-6


class TestDensestPeeling:
    def test_hyperedge_requires_all_nodes(self):
        h = Hypergraph()
        for n in ("a", "b", "c"):
            h.add_node(n, 1.0)
        h.add_edge(["a", "b", "c"], 9.0)
        ratio, nodes = solve_densest_peeling(h)
        assert nodes == frozenset({"a", "b", "c"})
        assert ratio == pytest.approx(3.0)

    def test_empty(self):
        assert solve_densest_peeling(Hypergraph())[0] == 0.0

    def test_zero_cost_infinite(self):
        h = Hypergraph()
        h.add_node("a", 0.0)
        h.add_edge(["a"], 5.0)
        ratio, nodes = solve_densest_peeling(h)
        assert ratio == math.inf


class TestEcc:
    def test_picks_best_single_query_ratio(self):
        queries = [fs("x"), fs("y")]
        utilities = {fs("x"): 10.0, fs("y"): 1.0}
        costs = {fs("x"): 2.0, fs("y"): 5.0}
        instance = ECCInstance(queries, utilities, costs)
        solution = solve_ecc(instance)
        assert solution.ratio == pytest.approx(5.0)
        assert solution.covered == frozenset({fs("x")})

    def test_shared_singletons_beat_pair_classifier(self):
        # Queries xy, xz share X; singletons give utility 12 for cost 3.
        queries = [fs("xy"), fs("xz")]
        utilities = {fs("xy"): 6.0, fs("xz"): 6.0}
        costs = {
            fs("x"): 1.0,
            fs("y"): 1.0,
            fs("z"): 1.0,
            fs("xy"): 3.0,
            fs("xz"): 3.0,
        }
        instance = ECCInstance(queries, utilities, costs)
        solution = solve_ecc(instance)
        assert solution.ratio == pytest.approx(4.0)

    def test_single_pair_classifier_wins_when_cheap(self):
        queries = [fs("xy")]
        utilities = {fs("xy"): 10.0}
        costs = {fs("x"): 8.0, fs("y"): 8.0, fs("xy"): 2.0}
        instance = ECCInstance(queries, utilities, costs)
        solution = solve_ecc(instance)
        assert solution.ratio == pytest.approx(5.0)
        assert solution.classifiers == frozenset({fs("xy")})

    def test_length_three_queries(self):
        queries = [fs("xyz"), fs("xy")]
        utilities = {fs("xyz"): 9.0, fs("xy"): 5.0}
        costs = {
            fs("x"): 1.0,
            fs("y"): 1.0,
            fs("z"): 1.0,
            fs("xy"): 2.0,
            fs("yz"): 2.0,
            fs("xz"): 2.0,
            fs("xyz"): 4.0,
        }
        instance = ECCInstance(queries, utilities, costs)
        solution = solve_ecc(instance)
        # Singletons X,Y,Z: utility 14 at cost 3 -> ratio ~4.67 optimal.
        assert solution.ratio >= 14.0 / 3.0 - 1e-6

    def test_zero_cost_classifier_infinite_ratio(self):
        instance = ECCInstance([fs("x")], costs={fs("x"): 0.0})
        solution = solve_ecc(instance)
        assert solution.ratio == math.inf

    def test_impractical_classifiers_skipped(self):
        costs = {fs("x"): math.inf, fs("y"): 1.0, fs("xy"): math.inf}
        instance = ECCInstance([fs("xy")], costs=costs)
        solution = solve_ecc(instance)
        # Nothing can cover xy: utility 0.
        assert solution.utility == 0.0


class TestGmc3:
    def small(self, target):
        queries = [fs("x"), fs("y"), fs("xy"), fs("yz")]
        utilities = {fs("x"): 5.0, fs("y"): 2.0, fs("xy"): 4.0, fs("yz"): 3.0}
        costs = {
            fs("x"): 2.0,
            fs("y"): 1.0,
            fs("z"): 2.0,
            fs("xy"): 4.0,
            fs("yz"): 3.0,
        }
        return GMC3Instance(queries, utilities, costs, target=target)

    def test_reaches_target(self):
        solution = solve_gmc3(self.small(7.0))
        assert solution.utility >= 7.0
        assert solution.meta["reached_target"]

    def test_full_target_costs_full_cover(self):
        instance = self.small(14.0)
        solution = solve_gmc3(instance)
        assert solution.utility == pytest.approx(14.0)
        # Full cover: X, Y, Z (5) — XY/YZ classifiers cost more.
        assert solution.cost <= 5.0 + 1e-9

    def test_cheaper_than_ig1_baseline(self):
        from repro.baselines import ig1_gmc3

        instance = self.small(11.0)
        ours = solve_gmc3(instance)
        baseline = ig1_gmc3(instance)
        assert ours.utility >= 11.0
        assert ours.cost <= baseline.cost + 1e-9

    def test_infeasible_target_raises(self):
        with pytest.raises(InfeasibleTargetError):
            solve_gmc3(self.small(1000.0))

    def test_target_zero(self):
        solution = solve_gmc3(self.small(0.0))
        assert solution.cost == 0.0

    def test_meta_budget_bound(self):
        solution = solve_gmc3(self.small(5.0))
        assert solution.meta["budget_upper_bound"] >= solution.cost - 1e-9
