"""White-box tests for the A_T^QK worst-case algorithm internals."""

from repro.graphs import WeightedGraph
from repro.qk.taylor import (
    _class_subgraph,
    _normalized_classes,
    _procedure_p1,
    _procedure_p3,
)


def weighted_instance():
    g = WeightedGraph()
    g.add_node("a", 1.0)
    g.add_node("b", 2.0)
    g.add_node("c", 8.0)
    g.add_edge("a", "b", 4.0)
    g.add_edge("b", "c", 16.0)
    g.add_edge("a", "c", 1.0)
    return g


class TestNormalizedClasses:
    def test_every_kept_edge_in_exactly_one_class(self):
        g = weighted_instance()
        classes, scaled_cost, scaled_budget = _normalized_classes(g, 10.0)
        kept = [edge for edges in classes.values() for edge in edges]
        assert len(kept) == len(set(kept))
        assert scaled_budget >= 1

    def test_scaled_costs_are_powers_of_two(self):
        g = weighted_instance()
        _, scaled_cost, _ = _normalized_classes(g, 10.0)
        for value in scaled_cost.values():
            assert value & (value - 1) == 0  # power of two

    def test_light_edges_pruned(self):
        g = WeightedGraph()
        g.add_node(0, 1.0)
        g.add_node(1, 1.0)
        g.add_node(2, 1.0)
        g.add_edge(0, 1, 1000.0)
        g.add_edge(1, 2, 0.0001)  # below w_max / n^2
        classes, _, _ = _normalized_classes(g, 4.0)
        kept = [edge for edges in classes.values() for edge in edges]
        assert (0, 1) in kept or (1, 0) in kept
        assert all(set(edge) != {1, 2} for edge in kept)

    def test_empty_graph(self):
        assert _normalized_classes(WeightedGraph(), 5.0) == ({}, {}, 0)

    def test_class_indices_ordered(self):
        g = weighted_instance()
        classes, _, _ = _normalized_classes(g, 10.0)
        for (i, j, t) in classes:
            assert i >= j >= 0
            assert t >= 0


class TestClassSubgraph:
    def test_costs_come_from_scaled_map(self):
        g = weighted_instance()
        sub = _class_subgraph(g, [("a", "b")], {"a": 2, "b": 4, "c": 8})
        assert sub.cost("a") == 2.0
        assert sub.cost("b") == 4.0
        assert "c" not in sub
        assert sub.weight("a", "b") == 4.0


def bipartite_case():
    """L = unit-cost nodes, R = weight-w nodes, star around r0."""
    sub = WeightedGraph()
    left = [f"l{i}" for i in range(5)]
    right = ["r0", "r1"]
    for node in left:
        sub.add_node(node, 1.0)
    for node in right:
        sub.add_node(node, 4.0)
    for node in left:
        sub.add_edge(node, "r0", 1.0)
    sub.add_edge("l0", "r1", 1.0)
    return sub, left, right


class TestProcedures:
    def test_p1_selects_high_degree(self):
        sub, left, right = bipartite_case()
        chosen = _procedure_p1(sub, left, right, w=4, budget=8)
        assert "r0" in chosen

    def test_p3_star(self):
        sub, left, right = bipartite_case()
        chosen = _procedure_p3(sub, left, right, w=4, budget=8)
        assert chosen is not None
        assert "r0" in chosen
        # Remaining budget 4 buys four left neighbors.
        assert len(chosen - {"r0"}) == 4

    def test_p3_budget_too_small(self):
        sub, left, right = bipartite_case()
        assert _procedure_p3(sub, left, right, w=4, budget=3) is None

    def test_p3_empty_right(self):
        sub, left, _ = bipartite_case()
        assert _procedure_p3(sub, left, [], w=4, budget=8) is None
