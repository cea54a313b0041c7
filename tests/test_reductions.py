"""Objective-equality tests for the executable hardness reductions."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import solve_bcc_exact
from repro.core import covered_queries, evaluate
from repro.graphs import Hypergraph, WeightedGraph
from repro.knapsack import KnapsackItem, solve_knapsack_dp
from repro.qk import solve_qk_exact
from repro.reductions import (
    bcc2_to_qk,
    bcc_l1_to_knapsack,
    bcc_solution_from_nodes,
    dks_to_bcc,
    dksh_to_bcc,
    knapsack_to_bcc_l1,
    nodes_from_bcc_solution,
    qk_to_bcc2,
    spes_to_gmc3,
)


def random_graph(seed, n=7, p=0.5):
    rng = random.Random(seed)
    g = WeightedGraph()
    for i in range(n):
        g.add_node(i, 1.0)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(i, j, 1.0)
    return g


class TestDksBcc:
    """Theorem 3.3: I_2 and DkS are the same problem."""

    @given(seed=st.integers(0, 500), k=st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_objective_equality(self, seed, k):
        g = random_graph(seed)
        if g.num_edges() == 0:
            return
        instance = dks_to_bcc(g, k)
        # Any node selection: utility == induced edge count.
        rng = random.Random(seed + 1)
        nodes = {v for v in g.nodes if rng.random() < 0.5}
        classifiers = bcc_solution_from_nodes(nodes)
        solution = evaluate(instance, classifiers)
        assert solution.utility == pytest.approx(g.induced_weight(nodes))
        assert solution.cost == pytest.approx(len(nodes))

    @given(seed=st.integers(0, 300), k=st.integers(2, 4))
    @settings(max_examples=15, deadline=None)
    def test_optima_match(self, seed, k):
        g = random_graph(seed, n=6)
        if g.num_edges() == 0:
            return
        instance = dks_to_bcc(g, k)
        bcc_opt = solve_bcc_exact(instance)
        # Exact DkS by enumeration.
        best = 0.0
        for combo in itertools.combinations(list(g.nodes), min(k, len(g))):
            best = max(best, g.induced_weight(combo))
        assert bcc_opt.utility == pytest.approx(best)

    def test_round_trip_nodes(self):
        g = random_graph(1)
        classifiers = bcc_solution_from_nodes([0, 3])
        assert nodes_from_bcc_solution(classifiers) == {"0", "3"}

    def test_non_singleton_rejected_on_back_map(self):
        with pytest.raises(ValueError):
            nodes_from_bcc_solution([frozenset({"a", "b"})])

    def test_edgeless_rejected(self):
        g = WeightedGraph()
        g.add_node(0, 1.0)
        with pytest.raises(ValueError):
            dks_to_bcc(g, 1)


class TestDkshBcc:
    @given(seed=st.integers(0, 300), k=st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_objective_equality(self, seed, k):
        rng = random.Random(seed)
        h = Hypergraph()
        for i in range(6):
            h.add_node(i, 1.0)
        for _ in range(5):
            edge = rng.sample(range(6), 3)
            h.add_edge(edge, 1.0)
        instance = dksh_to_bcc(h, k)
        nodes = {v for v in h.nodes if rng.random() < 0.5}
        classifiers = bcc_solution_from_nodes(nodes)
        solution = evaluate(instance, classifiers)
        assert solution.utility == pytest.approx(h.induced_weight(nodes))


class TestKnapsackBcc:
    @given(seed=st.integers(0, 500), cap=st.integers(0, 20))
    @settings(max_examples=30, deadline=None)
    def test_optima_match(self, seed, cap):
        rng = random.Random(seed)
        items = [
            KnapsackItem(key=i, weight=rng.randint(1, 8), value=rng.randint(1, 9))
            for i in range(7)
        ]
        instance = knapsack_to_bcc_l1(items, cap)
        bcc_opt = solve_bcc_exact(instance)
        knap_value, _ = solve_knapsack_dp(items, cap)
        assert bcc_opt.utility == pytest.approx(knap_value)

    def test_round_trip(self):
        items = [KnapsackItem("a", 2.0, 3.0), KnapsackItem("b", 1.0, 1.0)]
        instance = knapsack_to_bcc_l1(items, 2.0)
        back, capacity = bcc_l1_to_knapsack(instance)
        assert capacity == 2.0
        assert sorted((i.weight, i.value) for i in back) == [(1.0, 1.0), (2.0, 3.0)]

    def test_zero_value_rejected(self):
        with pytest.raises(ValueError):
            knapsack_to_bcc_l1([KnapsackItem("a", 1.0, 0.0)], 1.0)

    def test_long_instance_rejected_backwards(self, fig1_b3):
        with pytest.raises(ValueError):
            bcc_l1_to_knapsack(fig1_b3)


class TestQkBcc:
    @given(seed=st.integers(0, 300), budget=st.integers(1, 10))
    @settings(max_examples=20, deadline=None)
    def test_qk_to_bcc_objective(self, seed, budget):
        rng = random.Random(seed)
        g = WeightedGraph()
        for i in range(6):
            g.add_node(i, float(rng.randint(1, 4)))
        for i in range(6):
            for j in range(i + 1, 6):
                if rng.random() < 0.5:
                    g.add_edge(i, j, float(rng.randint(1, 9)))
        if g.num_edges() == 0:
            return
        instance = qk_to_bcc2(g, budget)
        bcc_opt = solve_bcc_exact(instance)
        qk_opt_nodes = solve_qk_exact(g, budget)
        assert bcc_opt.utility == pytest.approx(g.induced_weight(qk_opt_nodes))

    def test_bcc2_to_qk_structure(self, fig1_b4):
        # fig1 has length 3 -> rejected.
        with pytest.raises(ValueError):
            bcc2_to_qk(fig1_b4)

    def test_bcc2_to_qk_small(self):
        from repro.core import BCCInstance, from_letters as fs

        instance = BCCInstance(
            [fs("xy"), fs("y")],
            {fs("xy"): 4.0, fs("y"): 2.0},
            {fs("x"): 1.0, fs("y"): 2.0, fs("xy"): 3.0},
            budget=5.0,
        )
        graph, budget = bcc2_to_qk(instance)
        assert budget == 5.0
        assert graph.weight(fs("x"), fs("y")) == 4.0
        assert graph.cost(fs("y")) == 2.0


class TestSpesGmc3:
    def test_structure(self):
        g = random_graph(3)
        instance = spes_to_gmc3(g, p=4)
        assert instance.target == 4.0
        assert instance.length == 2
        # Unit utilities and singleton costs.
        assert all(instance.utility(q) == 1.0 for q in instance.queries)

    def test_covering_p_edges_reaches_target(self):
        g = random_graph(5)
        if g.num_edges() < 3:
            return
        instance = spes_to_gmc3(g, p=3)
        # Selecting all nodes covers all edges >= p.
        classifiers = bcc_solution_from_nodes(g.nodes)
        covered = covered_queries(instance, classifiers)
        assert len(covered) >= 3
