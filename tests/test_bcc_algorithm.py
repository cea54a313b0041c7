"""Tests for A^BCC (Algorithm 1) and its components."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    AbccConfig,
    ResidualProblem,
    prune_classifiers,
    solve_bcc,
    solve_bcc_exact,
)
from repro.algorithms.pruning import PruningConfig, prune_qk_graph
from repro.core import BCCInstance, check_budget, from_letters as fs
from tests.conftest import figure1_instance, random_instance


class TestFigure1:
    """A^BCC must find the optimal solutions of the paper's Figure 1."""

    def test_budget_3(self, fig1_b3):
        solution = solve_bcc(fig1_b3)
        check_budget(fig1_b3, solution)
        assert solution.utility == 8.0

    def test_budget_4(self, fig1_b4):
        solution = solve_bcc(fig1_b4)
        check_budget(fig1_b4, solution)
        assert solution.utility == 9.0

    def test_budget_11(self, fig1_b11):
        solution = solve_bcc(fig1_b11)
        check_budget(fig1_b11, solution)
        assert solution.utility == 11.0

    def test_budget_0(self):
        instance = figure1_instance(0.0)
        solution = solve_bcc(instance)
        # Only the free YZ classifier is available; it covers nothing alone.
        assert solution.utility == 0.0
        assert solution.cost == 0.0


class TestBruteForce:
    def test_fig1_optimal(self, fig1_b4):
        solution = solve_bcc_exact(fig1_b4)
        assert solution.utility == 9.0

    def test_too_large_rejected(self):
        from repro.datasets import generate_bestbuy

        instance = generate_bestbuy(n_queries=100, n_properties=80, budget=10)
        with pytest.raises(ValueError):
            solve_bcc_exact(instance)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_exact_at_least_greedy(self, seed):
        instance = random_instance(seed, n_properties=5, n_queries=5, max_length=2)
        from repro.baselines import ig1_bcc

        exact = solve_bcc_exact(instance)
        greedy = ig1_bcc(instance)
        assert exact.utility >= greedy.utility - 1e-9


class TestResidualProblem:
    def test_first_round_knapsack_is_bcc1(self, fig1_b4):
        residual = ResidualProblem(fig1_b4)
        items = residual.knapsack_items(fig1_b4.budget)
        by_key = {item.key: item for item in items}
        # 1-covers: classifiers identical to queries (XY excluded: infinite).
        assert fs("xyz") in by_key and by_key[fs("xyz")].value == 8.0
        assert fs("xz") in by_key and by_key[fs("xz")].value == 1.0
        assert fs("xy") not in by_key

    def test_first_round_qk_graph_is_bcc2(self):
        # Figure 2's instance: queries xy, yz, xz + singleton-ish values.
        queries = [fs("xy"), fs("yz")]
        utilities = {fs("xy"): 2.0, fs("yz"): 1.0}
        costs = {
            fs("x"): 1.0,
            fs("y"): 1.0,
            fs("z"): 2.0,
            fs("xy"): 3.0,
            fs("yz"): 1.0,
        }
        instance = BCCInstance(queries, utilities, costs, budget=3.0)
        graph = ResidualProblem(instance).qk_graph(instance.budget)
        assert graph.has_edge(fs("x"), fs("y"))
        assert graph.weight(fs("x"), fs("y")) == 2.0
        assert graph.has_edge(fs("y"), fs("z"))
        assert graph.cost(fs("z")) == 2.0

    def test_example_4_8_residual_one_covers(self):
        """After selecting Y, both XW and XYW 1-cover the query xyw."""
        instance = BCCInstance([fs("xyw")], budget=10.0)
        residual = ResidualProblem(instance)
        residual.select([fs("y")])
        items = residual.knapsack_items(10.0)
        keys = {item.key for item in items}
        assert fs("xw") in keys
        assert fs("xyw") in keys

    def test_example_4_8_residual_two_covers(self):
        """After selecting Y, the 2-covers of xyw are {X,W}, {XY,W},
        {X,WY}, {XY,WY} — and no 3-covers remain."""
        instance = BCCInstance([fs("xyw")], budget=10.0)
        residual = ResidualProblem(instance)
        residual.select([fs("y")])
        graph = residual.qk_graph(10.0)
        expected_edges = {
            frozenset({fs("x"), fs("w")}),
            frozenset({fs("xy"), fs("w")}),
            frozenset({fs("x"), fs("wy")}),
            frozenset({fs("xy"), fs("wy")}),
        }
        actual = {frozenset({u, v}) for u, v, _ in graph.edges()}
        assert actual == expected_edges

    def test_evaluate_gain_no_side_effects(self, fig1_b4):
        residual = ResidualProblem(fig1_b4)
        gain, cost = residual.evaluate_gain([fs("yz"), fs("xz")])
        assert gain == 9.0
        assert cost == 4.0
        assert residual.selected == frozenset()

    def test_spent_counts_selected(self, fig1_b11):
        residual = ResidualProblem(fig1_b11)
        residual.select([fs("x"), fs("y")])
        assert residual.spent() == 8.0


class TestPruning:
    def test_uniform_costs_prune_to_singletons_paper_rule(self):
        # The paper's aggressive rule collapses uniform-cost instances to
        # singleton classifiers.
        instance = BCCInstance([fs("xyz"), fs("xy")], budget=10.0)
        allowed = prune_classifiers(instance, instance.budget, PruningConfig.paper())
        assert allowed == {fs("x"), fs("y"), fs("z")}

    def test_default_rule_is_cost_neutral(self):
        # With the default (zero-error) rule, a pair classifier is kept
        # unless singletons replace it at no extra cost.
        instance = BCCInstance([fs("xy")], budget=10.0)
        allowed = prune_classifiers(instance, instance.budget)
        assert fs("xy") in allowed
        cheap = BCCInstance(
            [fs("xy")],
            costs={fs("x"): 0.5, fs("y"): 0.5, fs("xy"): 1.0},
            budget=10.0,
        )
        allowed = prune_classifiers(cheap, cheap.budget)
        assert fs("xy") not in allowed

    def test_small_budget_protection(self):
        # Budget 1: only XYZ (cost 1) can cover xyz; the singletons price
        # out at 3 > 1, so the long classifier must be protected.
        costs = {
            fs("x"): 1.0,
            fs("y"): 1.0,
            fs("z"): 1.0,
            fs("xy"): 1.0,
            fs("xz"): 1.0,
            fs("yz"): 1.0,
            fs("xyz"): 1.0,
        }
        instance = BCCInstance([fs("xyz")], costs=costs, budget=1.0)
        allowed = prune_classifiers(instance, instance.budget)
        assert fs("xyz") in allowed

    def test_expensive_long_classifier_kept_when_cheap(self):
        # XYZ cost 1, singletons cost 10 each: 30 > 3*1, keep XYZ.
        costs = {
            fs("x"): 10.0,
            fs("y"): 10.0,
            fs("z"): 10.0,
            fs("xy"): 10.0,
            fs("xz"): 10.0,
            fs("yz"): 10.0,
            fs("xyz"): 1.0,
        }
        instance = BCCInstance([fs("xyz")], costs=costs, budget=50.0)
        allowed = prune_classifiers(instance, instance.budget)
        assert fs("xyz") in allowed

    def test_over_budget_pruned(self, fig1_b3):
        allowed = prune_classifiers(fig1_b3, fig1_b3.budget)
        assert fs("x") not in allowed  # cost 5 > budget 3
        assert fs("xyz") in allowed

    def test_disabled_replaceable(self):
        instance = BCCInstance([fs("xy")], budget=10.0)
        allowed = prune_classifiers(
            instance, instance.budget, PruningConfig(replaceable=False)
        )
        assert fs("xy") in allowed

    def test_qk_graph_pruning_keeps_mass(self):
        from repro.graphs import WeightedGraph

        g = WeightedGraph()
        for i in range(10):
            g.add_node(i, 1.0)
        for i in range(4):
            for j in range(i + 1, 4):
                g.add_edge(i, j, 10.0)
        g.add_edge(8, 9, 0.01)  # negligible-leverage tail
        config = PruningConfig(leverage_keep=0.99, leverage_min_nodes=5)
        pruned = prune_qk_graph(g, config)
        # The dense block survives; the negligible tail is droppable.
        assert pruned.induced_weight(set(range(4))) == pytest.approx(60.0)
        assert len(pruned) < len(g)

    def test_qk_graph_pruning_disabled_below_min_nodes(self):
        from repro.graphs import WeightedGraph

        g = WeightedGraph()
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 0.0001)
        pruned = prune_qk_graph(g, PruningConfig(leverage_min_nodes=1000))
        assert len(pruned) == len(g)

    def test_leverage_scores_track_degree_on_simple_graphs(self):
        from repro.algorithms.pruning import leverage_scores
        from repro.graphs import WeightedGraph

        g = WeightedGraph()
        for i in range(6):
            g.add_node(i, 1.0)
        for i in range(1, 6):
            g.add_edge(0, i, 1.0)  # star: hub 0 dominates
        scores = leverage_scores(g, rank=2)
        assert scores[0] == max(scores.values())


class TestAbccVsOptimal:
    """Figure 3d style: A^BCC close to brute force on small instances."""

    @given(seed=st.integers(0, 120))
    @settings(max_examples=12, deadline=None)
    def test_within_factor_of_optimal(self, seed):
        instance = random_instance(
            seed, n_properties=6, n_queries=6, max_length=2, budget_fraction=0.35
        )
        exact = solve_bcc_exact(instance)
        heuristic = solve_bcc(instance)
        check_budget(instance, heuristic)
        if exact.utility > 0:
            # The paper reports <20% loss on small P subsets; random
            # instances are harsher, demand >= 60% here.
            assert heuristic.utility >= 0.6 * exact.utility - 1e-9

    @given(seed=st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_longer_queries_feasible(self, seed):
        instance = random_instance(
            seed, n_properties=7, n_queries=6, max_length=4, budget_fraction=0.4
        )
        solution = solve_bcc(instance)
        check_budget(instance, solution)


class TestAbccConfigKnobs:
    def test_no_pruning_still_correct(self, fig1_b4):
        solution = solve_bcc(fig1_b4, AbccConfig(pruning=None))
        assert solution.utility == 9.0

    def test_no_mc3_still_feasible(self, fig1_b11):
        solution = solve_bcc(fig1_b11, AbccConfig(use_mc3=False))
        check_budget(fig1_b11, solution)
        assert solution.utility >= 8.0

    def test_single_round(self, fig1_b11):
        solution = solve_bcc(fig1_b11, AbccConfig(max_rounds=1))
        check_budget(fig1_b11, solution)

    def test_meta_records_rounds(self, fig1_b4):
        solution = solve_bcc(fig1_b4)
        assert solution.meta["algorithm"] == "A^BCC"
        assert solution.meta["rounds"] >= 1
