"""Tests for the DkS/HkS heuristic suite (repro.dks)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dks import (
    HksPortfolio,
    improve_by_swaps,
    project_capped_simplex,
    solve_exact,
    solve_expansion,
    solve_hks,
    solve_lovasz,
    solve_peeling,
    solve_spectral,
)
from repro.graphs import WeightedGraph

ALL_HEURISTICS = [solve_peeling, solve_expansion, solve_lovasz, solve_spectral]


def random_graph(seed: int, n: int = 10, p: float = 0.4) -> WeightedGraph:
    rng = random.Random(seed)
    g = WeightedGraph()
    for i in range(n):
        g.add_node(i, cost=1.0)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(i, j, rng.randint(1, 9))
    return g


def planted_clique_graph(seed: int, n: int = 20, clique: int = 5) -> WeightedGraph:
    """Sparse noise graph with a planted heavy clique on nodes 0..clique-1."""
    rng = random.Random(seed)
    g = WeightedGraph()
    for i in range(n):
        g.add_node(i, cost=1.0)
    for i in range(clique):
        for j in range(i + 1, clique):
            g.add_edge(i, j, 10.0)
    for _ in range(n):
        u, v = rng.sample(range(n), 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v, 1.0)
    return g


class TestProjection:
    def test_feasibility(self):
        y = np.array([3.0, -1.0, 0.5, 0.2])
        x = project_capped_simplex(y, 2)
        assert x.sum() == pytest.approx(2.0, abs=1e-6)
        assert (x >= -1e-9).all() and (x <= 1 + 1e-9).all()

    def test_already_feasible_unchanged(self):
        y = np.array([0.5, 0.5, 1.0])
        x = project_capped_simplex(y, 2)
        assert np.allclose(x, y, atol=1e-6)

    def test_k_zero(self):
        assert project_capped_simplex(np.array([1.0, 2.0]), 0).sum() == 0.0

    def test_k_equals_n(self):
        x = project_capped_simplex(np.array([0.2, -3.0]), 2)
        assert np.allclose(x, [1.0, 1.0])

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            project_capped_simplex(np.array([1.0]), 2.5)

    @given(seed=st.integers(0, 2000), k=st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_projection_optimality_vs_scipy(self, seed, k):
        """The projection minimizes distance: check against scipy SLSQP."""
        from scipy.optimize import minimize

        rng = np.random.RandomState(seed)
        n = 6
        k = min(k, n)
        y = rng.randn(n) * 2
        x = project_capped_simplex(y, k)
        result = minimize(
            lambda z: ((z - y) ** 2).sum(),
            x0=np.full(n, k / n),
            bounds=[(0, 1)] * n,
            constraints=[{"type": "eq", "fun": lambda z: z.sum() - k}],
        )
        assert ((x - y) ** 2).sum() <= result.fun + 1e-5


class TestHeuristicsFindPlantedClique:
    @pytest.mark.parametrize("solver", ALL_HEURISTICS)
    def test_planted_clique_recovered(self, solver):
        g = planted_clique_graph(3)
        selection = solver(g, 5, random.Random(0))
        # The planted clique has weight 100; heuristics should get close.
        assert g.induced_weight(selection) >= 80.0

    @pytest.mark.parametrize("solver", ALL_HEURISTICS)
    def test_selection_size(self, solver):
        g = random_graph(1)
        selection = solver(g, 4, random.Random(0))
        assert len(selection) <= 4

    @pytest.mark.parametrize("solver", ALL_HEURISTICS)
    def test_k_zero_empty(self, solver):
        g = random_graph(2)
        assert solver(g, 0, random.Random(0)) == frozenset()

    @pytest.mark.parametrize("solver", ALL_HEURISTICS)
    def test_k_at_least_n_returns_all(self, solver):
        g = random_graph(3, n=5)
        assert solver(g, 10, random.Random(0)) == frozenset(range(5))

    @pytest.mark.parametrize("solver", ALL_HEURISTICS)
    def test_edgeless_graph(self, solver):
        g = WeightedGraph()
        for i in range(6):
            g.add_node(i)
        selection = solver(g, 3, random.Random(0))
        assert len(selection) <= 3


class TestExact:
    def test_matches_enumeration_on_triangle_plus(self):
        g = random_graph(11, n=7)
        best = solve_exact(g, 3)
        assert len(best) == 3

    def test_too_large_rejected(self):
        g = random_graph(0, n=30, p=0.1)
        with pytest.raises(ValueError):
            solve_exact(g, 3)


class TestLocalSearch:
    def test_never_decreases_weight(self):
        g = random_graph(5)
        start = frozenset(list(g.nodes)[:4])
        improved = improve_by_swaps(g, start)
        assert g.induced_weight(improved) >= g.induced_weight(start)
        assert len(improved) == len(start)

    def test_empty_selection(self):
        g = random_graph(6)
        assert improve_by_swaps(g, []) == frozenset()

    def test_full_selection_unchanged(self):
        g = random_graph(7, n=5)
        assert improve_by_swaps(g, g.nodes) == frozenset(g.nodes)


class TestPortfolio:
    def test_at_least_as_good_as_each_engine(self):
        g = random_graph(13, n=12)
        k = 5
        portfolio_weight = g.induced_weight(solve_hks(g, k))
        for solver in ALL_HEURISTICS:
            weight = g.induced_weight(solver(g, k, random.Random(0)))
            assert portfolio_weight >= weight - 1e-9

    def test_unknown_engine_rejected(self):
        g = random_graph(1)
        with pytest.raises(ValueError):
            HksPortfolio(engines=("nonsense",)).solve(g, 2)

    @given(seed=st.integers(0, 500), k=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_portfolio_near_exact_on_small_graphs(self, seed, k):
        g = random_graph(seed, n=9, p=0.5)
        k = min(k, len(g))
        heuristic = g.induced_weight(solve_hks(g, k))
        optimal = g.induced_weight(solve_exact(g, k))
        # Portfolio should recover at least 80% of the optimum on small inputs
        # (the paper reports 65%-80%+ for the HkS heuristic it builds on).
        assert heuristic >= 0.8 * optimal - 1e-9


class TestPortfolioMemo:
    """The structural (graph fingerprint, k) solve memo."""

    def test_repeat_solve_returns_same_object(self):
        g = random_graph(3, n=12, p=0.5)
        portfolio = HksPortfolio(seed=0)
        first = portfolio.solve(g, 4)
        second = portfolio.solve(g, 4)
        assert second is first  # object-level hit, arms not re-run

    def test_structural_hit_across_copies(self):
        g = random_graph(4, n=12, p=0.5)
        portfolio = HksPortfolio(seed=0)
        first = portfolio.solve(g, 4)
        assert portfolio.solve(g.copy(), 4) is first

    def test_mutation_misses_and_resolves(self):
        g = random_graph(5, n=12, p=0.5)
        portfolio = HksPortfolio(seed=0)
        first = portfolio.solve(g, 4)
        g.add_edge(0, 1, 100.0)
        second = portfolio.solve(g, 4)
        assert second is not first
        # The mutated graph now has its own memo line.
        assert portfolio.solve(g, 4) is second

    def test_distinct_k_entries_are_independent(self):
        g = random_graph(6, n=12, p=0.5)
        portfolio = HksPortfolio(seed=0)
        three = portfolio.solve(g, 3)
        five = portfolio.solve(g, 5)
        assert len(three) == 3 and len(five) == 5
        assert portfolio.solve(g, 3) is three
        assert portfolio.solve(g, 5) is five

    def test_memo_never_exceeds_its_cap(self, monkeypatch):
        cap = 2
        monkeypatch.setattr(HksPortfolio, "_MEMO_MAX", cap)
        graphs = [random_graph(seed, n=10, p=0.5) for seed in range(5)]
        expected = [HksPortfolio(seed=0).solve(g, 4) for g in graphs]
        portfolio = HksPortfolio(seed=0)
        sizes = []
        for g, answer in zip(graphs * 2, expected * 2):
            assert portfolio.solve(g, 4) == answer
            sizes.append(len(portfolio._memo))
        assert max(sizes) == cap  # driven to the cap, never past it

    def test_pickle_drops_memo_but_solves_identically(self):
        import pickle

        g = random_graph(7, n=12, p=0.5)
        portfolio = HksPortfolio(seed=0)
        answer = portfolio.solve(g, 4)
        clone = pickle.loads(pickle.dumps(portfolio))
        assert clone._memo == {}
        assert clone.solve(g, 4) == answer
