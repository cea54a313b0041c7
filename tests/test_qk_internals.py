"""White-box tests for A_H^QK internals (scaling, refill, bonuses)."""

import random

from repro.graphs import WeightedGraph
from repro.qk.heuristic import (
    QKConfig,
    _bonuses,
    _refill_side,
    _scaled_graph,
    _value,
    solve_qk,
)


def simple_graph(costs):
    g = WeightedGraph()
    for name, cost in costs.items():
        g.add_node(name, cost)
    return g


class TestScaledGraph:
    def test_uniform_costs_scale_exactly(self):
        g = simple_graph({"a": 1.0, "b": 1.0, "c": 1.0})
        g.add_edge("a", "b", 5.0)
        scaled, scaled_budget = _scaled_graph(g, 10.0, g.nodes, {}, 256)
        assert all(scaled.cost(v) == 1.0 for v in scaled.nodes)
        assert scaled_budget == 10

    def test_ceiling_preserves_feasibility(self):
        g = simple_graph({"a": 3.3, "b": 6.6})
        g.add_edge("a", "b", 1.0)
        budget = 9.9
        scaled, scaled_budget = _scaled_graph(g, budget, g.nodes, {}, 64)
        # Any scaled-feasible set must be feasible under the true costs.
        granularity = budget / scaled_budget
        for v in scaled.nodes:
            assert g.cost(v) <= scaled.cost(v) * granularity + 1e-6

    def test_copy_target_respected(self):
        g = simple_graph({i: 50.0 for i in range(100)})
        scaled, _ = _scaled_graph(g, 5000.0, g.nodes, {}, 128)
        total_copies = sum(int(scaled.cost(v)) for v in scaled.nodes)
        assert total_copies <= 2 * 128  # coarsening keeps copies bounded

    def test_bonus_node_added(self):
        g = simple_graph({"a": 2.0})
        scaled, scaled_budget = _scaled_graph(g, 4.0, g.nodes, {"a": 7.0}, 64)
        bonus_nodes = [v for v in scaled.nodes if v == ("__bonus__",)]
        assert len(bonus_nodes) == 1
        assert scaled.weight(("__bonus__",), "a") == 7.0

    def test_unaffordable_node_dropped(self):
        g = simple_graph({"a": 100.0, "b": 1.0})
        g.add_edge("a", "b", 1.0)
        scaled, _ = _scaled_graph(g, 10.0, g.nodes, {}, 64)
        assert "a" not in scaled
        assert "b" in scaled


class TestRefillSide:
    def test_mass_conserved_and_concentrated(self):
        g = simple_graph({"a": 3.0, "b": 3.0, "x": 1.0})
        g.add_edge("a", "x", 9.0)  # a has the higher per-copy degree
        g.add_edge("b", "x", 1.0)
        counts = {"a": 1, "b": 2, "x": 1}
        _refill_side(g, ["a", "b"], counts, counts)
        assert counts["a"] + counts["b"] == 3
        assert counts["a"] == 3  # refill fills the best node first

    def test_zero_mass_noop(self):
        g = simple_graph({"a": 2.0})
        counts = {}
        _refill_side(g, ["a"], counts, counts)
        assert counts.get("a", 0) == 0


class TestBonuses:
    def test_bonus_sums_edges_to_preselected(self):
        g = simple_graph({"z1": 0.0, "z2": 0.0, "v": 2.0})
        g.add_edge("z1", "v", 3.0)
        g.add_edge("z2", "v", 4.0)
        bonus = _bonuses(g, {"z1", "z2"}, ["v"])
        assert bonus == {"v": 7.0}

    def test_value_includes_bonuses(self):
        g = simple_graph({"u": 1.0, "v": 1.0})
        g.add_edge("u", "v", 5.0)
        assert _value(g, {"u": 2.0}, {"u", "v"}) == 7.0


class TestSolveQkDeterminism:
    def test_same_seed_same_result(self):
        rng = random.Random(3)
        g = WeightedGraph()
        for i in range(12):
            g.add_node(i, float(rng.randint(1, 5)))
        for i in range(12):
            for j in range(i + 1, 12):
                if rng.random() < 0.4:
                    g.add_edge(i, j, float(rng.randint(1, 9)))
        a = solve_qk(g, 12.0, QKConfig(seed=7))
        b = solve_qk(g, 12.0, QKConfig(seed=7))
        assert a == b

    def test_edge_aware_topup_starts_pairs(self):
        # Without edge-aware top-up, a fresh 2-cover would never start:
        # each single node has zero marginal gain.
        g = WeightedGraph()
        g.add_node("u", 2.0)
        g.add_node("v", 2.0)
        g.add_edge("u", "v", 10.0)
        selection = solve_qk(g, 4.0)
        assert selection == frozenset({"u", "v"})
