"""Tests for the DkS/HkS heuristic suite (repro.dks)."""

import heapq
import itertools
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
from repro.graphs import IndexedGraph, WeightedGraph
from repro.graphs.graph import node_repr
from repro.profile import PhaseProfiler, activate
from tests.strategies import hks_graphs

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
        selection = solver(IndexedGraph.from_graph(g), 5, random.Random(0))
        # The planted clique has weight 100; heuristics should get close.
        assert g.induced_weight(selection) >= 80.0

    @pytest.mark.parametrize("solver", ALL_HEURISTICS)
    def test_selection_size(self, solver):
        g = random_graph(1)
        selection = solver(IndexedGraph.from_graph(g), 4, random.Random(0))
        assert len(selection) <= 4

    @pytest.mark.parametrize("solver", ALL_HEURISTICS)
    def test_k_zero_empty(self, solver):
        g = random_graph(2)
        assert solver(IndexedGraph.from_graph(g), 0, random.Random(0)) == frozenset()

    @pytest.mark.parametrize("solver", ALL_HEURISTICS)
    def test_k_at_least_n_returns_all(self, solver):
        g = random_graph(3, n=5)
        assert solver(IndexedGraph.from_graph(g), 10, random.Random(0)) == frozenset(range(5))

    @pytest.mark.parametrize("solver", ALL_HEURISTICS)
    def test_edgeless_graph(self, solver):
        g = WeightedGraph()
        for i in range(6):
            g.add_node(i)
        selection = solver(IndexedGraph.from_graph(g), 3, random.Random(0))
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
        improved = improve_by_swaps(IndexedGraph.from_graph(g), start)
        assert g.induced_weight(improved) >= g.induced_weight(start)
        assert len(improved) == len(start)

    def test_empty_selection(self):
        g = random_graph(6)
        assert improve_by_swaps(IndexedGraph.from_graph(g), []) == frozenset()

    def test_full_selection_unchanged(self):
        g = random_graph(7, n=5)
        assert improve_by_swaps(IndexedGraph.from_graph(g), g.nodes) == frozenset(g.nodes)


class TestPortfolio:
    def test_at_least_as_good_as_each_engine(self):
        g = random_graph(13, n=12)
        k = 5
        portfolio_weight = g.induced_weight(solve_hks(g, k))
        for solver in ALL_HEURISTICS:
            weight = g.induced_weight(solver(IndexedGraph.from_graph(g), k, random.Random(0)))
            assert portfolio_weight >= weight - 1e-9

    def test_unknown_engine_rejected(self):
        g = random_graph(1)
        with pytest.raises(ValueError):
            HksPortfolio(engines=("nonsense",)).solve(IndexedGraph.from_graph(g), 2)

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
    """Pool workers receive the portfolio config by pickle."""

    def test_pickle_drops_memo_but_solves_identically(self):
        import pickle

        g = IndexedGraph.from_graph(random_graph(7, n=12, p=0.5))
        portfolio = HksPortfolio(seed=0)
        answer = portfolio.solve(g, 4)
        clone = pickle.loads(pickle.dumps(portfolio))
        assert clone == portfolio
        assert clone.solve(g, 4) == answer


# ----------------------------------------------------------------------
# Byte-identity differentials: each kernel against a test-local reference
# (the bisection that sums with numpy at every step, the O(n) argmax
# expansion, peeling on a private adjacency, swap polish on node dicts).
# ----------------------------------------------------------------------


def _bisection_projection(y, k, tol=1e-10):
    """Capped-simplex projection deciding every bisection step by numpy sum."""
    y = np.asarray(y, dtype=float)
    n = y.size
    if k == 0.0:
        return np.zeros(n)
    if k == float(n):
        return np.ones(n)

    def mass(tau):
        return float(np.clip(y - tau, 0.0, 1.0).sum())

    lo = float(y.min()) - 1.0
    hi = float(y.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mass(mid) > k:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    x = np.clip(y - 0.5 * (lo + hi), 0.0, 1.0)
    residual = k - float(x.sum())
    if abs(residual) > 0:
        interior = (x > 0.0) & (x < 1.0)
        if interior.any():
            x[interior] += residual / int(interior.sum())
            x = np.clip(x, 0.0, 1.0)
    return x


def _argmax_expansion(graph, k):
    """Greedy expansion picking each node by an O(n) ``max`` scan."""
    nodes = list(graph.nodes)
    if len(nodes) <= k:
        return frozenset(nodes)
    best_edge = None
    best_weight = -1.0
    for u, v, w in graph.edges():
        if w > best_weight:
            best_weight = w
            best_edge = (u, v)
    if best_edge is None:
        return frozenset(nodes[:k])
    tie = {u: (graph.weighted_degree(u), node_repr(u)) for u in nodes}
    if k == 1:
        return frozenset({max(nodes, key=tie.__getitem__)})
    selected = set(best_edge)
    gain = {}
    for u in selected:
        for v, w in graph.neighbors(u).items():
            if v not in selected:
                gain[v] = gain.get(v, 0.0) + w
    while len(selected) < k:
        if gain:
            candidate = max(gain, key=lambda u: (gain[u], tie[u]))
        else:
            outside = [u for u in nodes if u not in selected]
            candidate = max(outside, key=tie.__getitem__)
        selected.add(candidate)
        gain.pop(candidate, None)
        for v, w in graph.neighbors(candidate).items():
            if v not in selected:
                gain[v] = gain.get(v, 0.0) + w
    return frozenset(selected)


def _private_adjacency_peeling(graph, k):
    """Peeling on its own repr-ranked adjacency lists."""
    n = len(graph)
    if n <= k:
        return frozenset(graph.nodes)
    ranked = sorted(graph.nodes, key=node_repr)
    index_of = {u: i for i, u in enumerate(ranked)}
    degree = [graph.weighted_degree(u) for u in ranked]
    adj = [[(index_of[v], w) for v, w in graph.neighbors(u).items()] for u in ranked]
    alive = [True] * n
    alive_count = n
    heap = [(degree[i], i) for i in range(n)]
    heapq.heapify(heap)
    while alive_count > k:
        d, i = heapq.heappop(heap)
        if not alive[i] or d > degree[i] + 1e-12:
            continue
        alive[i] = False
        alive_count -= 1
        for j, w in adj[i]:
            if alive[j]:
                degree[j] -= w
                heapq.heappush(heap, (degree[j], j))
    return frozenset(u for i, u in enumerate(ranked) if alive[i])


def _dict_improve_by_swaps(graph, selection, max_passes=50):
    """Swap polish on node dicts, rescanning inside-degrees per swap."""
    selected = set(selection)
    if not selected or len(selected) >= len(graph):
        return frozenset(selected)
    inside_degree = {u: graph.weighted_degree(u, within=selected) for u in graph.nodes}
    for _ in range(max_passes):
        worst = min(selected, key=lambda u: (inside_degree[u], node_repr(u)))
        best_gain = inside_degree[worst]
        best_candidate = None
        worst_nbrs = graph.neighbors(worst)
        for v in graph.nodes:
            if v in selected:
                continue
            gain = inside_degree[v] - worst_nbrs.get(v, 0.0)
            if gain > best_gain + 1e-12:
                best_gain = gain
                best_candidate = v
        if best_candidate is None:
            break
        selected.discard(worst)
        for v, w in worst_nbrs.items():
            inside_degree[v] -= w
        selected.add(best_candidate)
        for v, w in graph.neighbors(best_candidate).items():
            inside_degree[v] += w
    return frozenset(selected)


#: Input shapes for the projection differential: ``integer`` makes the
#: mass equal ``k`` on a whole interval of shifts, ``quarter`` ties
#: coordinates, ``huge`` is past the range the estimate may be used in,
#: ``nonfinite`` plants one ``nan``/``inf``/``-inf``.
_Y_KINDS = ("uniform", "quarter", "integer", "large", "huge", "constant", "nonfinite")


def _draw_y(kind, n, seed):
    rs = np.random.RandomState(seed)
    if kind == "uniform":
        return rs.uniform(-1.0, 2.0, n)
    if kind == "quarter":
        return rs.randint(-8, 9, n) / 4.0
    if kind == "integer":
        return rs.randint(-3, 4, n).astype(float)
    if kind == "large":
        return rs.uniform(-1e6, 1e6, n)
    if kind == "huge":
        return rs.uniform(-1.0, 1.0, n) * 1.7e308
    if kind == "constant":
        return np.full(n, rs.uniform(-2.0, 2.0))
    y = rs.uniform(-1.0, 2.0, n)
    y[rs.randint(n)] = (np.nan, np.inf, -np.inf)[rs.randint(3)]
    return y


def _first_midpoint_mass(y):
    """The numpy mass at the bisection's first midpoint.

    Used as ``k``, it makes step one a tie that only the exact sum
    resolves: the estimate may land an ulp either side of it.
    """
    mid = 0.5 * ((float(y.min()) - 1.0) + float(y.max()))
    return float(np.clip(y - mid, 0.0, 1.0).sum())


def _assert_same_projection(y, k):
    with np.errstate(invalid="ignore", over="ignore"):
        expected = _bisection_projection(y, k)
        actual = project_capped_simplex(y, k)
    # Bytes, not values: a -0.0/0.0 flip or a different nan payload fails.
    assert actual.tobytes() == expected.tobytes()


class TestProjectionMatchesBisection:
    @given(
        n=st.integers(1, 300),
        kind=st.sampled_from(_Y_KINDS),
        seed=st.integers(0, 2**31 - 1),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_vectors(self, n, kind, seed, data):
        twice_k = data.draw(st.integers(0, 2 * n))
        k = twice_k // 2 if twice_k % 2 == 0 else twice_k / 2.0
        _assert_same_projection(_draw_y(kind, n, seed), k)

    @given(n=st.integers(2, 300), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=300, deadline=None)
    def test_ties_at_the_first_midpoint(self, n, seed):
        y = _draw_y("uniform", n, seed)
        _assert_same_projection(y, _first_midpoint_mass(y))

    @given(n=st.integers(2, 8), seed=st.integers(0, 2**31 - 1), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_overflow_range_vectors(self, n, seed, data):
        # Prefix sums near the float limit overflow, so the estimate
        # must not decide these steps.
        k = data.draw(st.integers(1, n - 1))
        _assert_same_projection(_draw_y("huge", n, seed), k)

    @pytest.mark.parametrize("n", [8, 900, 3377])
    @pytest.mark.parametrize("kind", _Y_KINDS)
    def test_fixed_sizes(self, n, kind):
        for seed, k in enumerate((1, n // 3, n // 2 + 0.5, n - 1)):
            _assert_same_projection(_draw_y(kind, n, seed), k)
        if kind not in ("huge", "nonfinite"):
            y = _draw_y(kind, n, 7)
            k = _first_midpoint_mass(y)
            if 0.0 < k < n:
                _assert_same_projection(y, k)

    def test_nonfinite_input_sums_every_step(self):
        prof = PhaseProfiler()
        with activate(prof), np.errstate(invalid="ignore"):
            project_capped_simplex(np.array([0.2, np.nan, 0.7, 1.5]), 2)
            project_capped_simplex(np.array([0.2, np.inf, 0.7, 1.5]), 2)
        assert prof.counts["projection_steps"] > 0
        assert prof.counts["projection_exact"] == prof.counts["projection_steps"]


class TestCombinatorialArmsMatchReference:
    # Iteration order too: later float sums walk the returned frozenset,
    # and its order follows the order the arm inserted its members in.
    @given(graph=hks_graphs(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_expansion_matches_argmax_scan(self, graph, data):
        k = data.draw(st.integers(1, len(graph)))
        ours = solve_expansion(IndexedGraph.from_graph(graph), k)
        assert list(ours) == list(_argmax_expansion(graph, k))

    @given(graph=hks_graphs(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_peeling_matches_private_adjacency(self, graph, data):
        k = data.draw(st.integers(1, len(graph)))
        ours = solve_peeling(IndexedGraph.from_graph(graph), k)
        assert list(ours) == list(_private_adjacency_peeling(graph, k))

    # Dyadic weights keep every sum exact, so the reference's builtin
    # ``sum`` (compensated on Python 3.12) and the polish's ``+=`` agree.
    @given(graph=hks_graphs(tied=True), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_swap_polish_matches_dict_scan(self, graph, data):
        selection = data.draw(st.sets(st.sampled_from(list(graph.nodes)), min_size=1))
        snapshot = IndexedGraph.from_graph(graph)
        assert improve_by_swaps(snapshot, selection) == _dict_improve_by_swaps(graph, selection)


def _pinned_graph(seed, n):
    """Sparse integer-weighted graph with a planted heavy group.

    Integer weights keep every float sum exact, so the pinned answers do
    not depend on how a Python version rounds ``sum``.
    """
    rng = random.Random(seed)
    g = WeightedGraph()
    for i in range(n):
        g.add_node(i, cost=1.0)
    group = rng.sample(range(n), max(3, n // 20))
    for a, b in itertools.combinations(group, 2):
        if rng.random() < 0.6:
            g.add_edge(a, b, rng.randint(3, 9))
    for _ in range(2 * n):
        u, v = rng.sample(range(n), 2)
        g.add_edge(u, v, rng.randint(1, 4))
    return g


#: (seed, n, k, solve_lovasz answer, HksPortfolio(seed).solve answer),
#: recorded with the plain kernels: a numpy sum at every bisection step,
#: two matvecs per ascent step, the argmax expansion and peeling on a
#: private adjacency.
_PINNED = [
    (
        0, 8, 3,
        (3, 6, 7),
        (3, 6, 7),
    ),
    (
        1, 8, 5,
        (0, 2, 3, 4, 6),
        (0, 2, 3, 4, 6),
    ),
    (
        2, 12, 4,
        (4, 7, 8, 11),
        (4, 7, 8, 11),
    ),
    (
        3, 16, 6,
        (6, 7, 8, 9, 11, 13),
        (6, 7, 8, 9, 13, 15),
    ),
    (
        4, 20, 5,
        (3, 6, 9, 10, 13),
        (3, 5, 7, 9, 10),
    ),
    (
        5, 30, 8,
        (2, 4, 8, 9, 19, 21, 26, 29),
        (2, 4, 8, 9, 19, 21, 26, 29),
    ),
    (
        6, 40, 10,
        (5, 10, 12, 16, 17, 26, 28, 32, 38, 39),
        (5, 10, 12, 16, 17, 26, 28, 32, 38, 39),
    ),
    (
        7, 60, 12,
        (5, 6, 9, 14, 20, 25, 35, 36, 37, 40, 48, 58),
        (5, 6, 9, 15, 16, 20, 25, 34, 35, 47, 49, 51),
    ),
    (
        8, 80, 16,
        (16, 17, 19, 27, 29, 40, 47, 48, 60, 62, 64, 72, 73, 74, 76, 77),
        (16, 17, 19, 27, 29, 40, 47, 48, 60, 62, 64, 72, 73, 74, 76, 77),
    ),
    (
        9, 100, 20,
        (1, 6, 7, 10, 17, 18, 22, 25, 31, 34, 36, 42, 47, 58, 59, 68, 78, 81, 85, 94),
        (1, 6, 7, 17, 18, 25, 29, 31, 32, 34, 36, 47, 58, 59, 60, 68, 78, 81, 85, 94),
    ),
    (
        10, 150, 15,
        (3, 8, 9, 18, 19, 50, 52, 92, 101, 109, 116, 123, 144, 146, 147),
        (3, 8, 19, 52, 76, 92, 102, 109, 116, 118, 123, 125, 143, 146, 147),
    ),
    (
        11, 200, 25,
        (
            19, 31, 40, 47, 48, 51, 53, 63, 72, 79, 91, 93, 99, 115, 118, 119, 121, 130, 131, 134,
            143, 150, 153, 175, 199,
        ),
        (
            19, 31, 40, 46, 47, 48, 51, 63, 72, 91, 93, 99, 113, 115, 118, 119, 121, 130, 131, 134,
            143, 150, 168, 175, 199,
        ),
    ),
    (
        12, 300, 30,
        (
            0, 5, 10, 11, 55, 73, 74, 82, 102, 112, 113, 116, 128, 136, 137, 140, 172, 179, 191,
            195, 200, 218, 235, 242, 247, 254, 270, 281, 285, 287,
        ),
        (
            0, 5, 10, 11, 55, 73, 74, 82, 102, 112, 113, 116, 128, 136, 137, 140, 172, 179, 191,
            195, 200, 218, 235, 242, 247, 254, 270, 281, 285, 287,
        ),
    ),
    (
        13, 400, 20,
        (
            15, 36, 64, 66, 75, 95, 109, 115, 118, 132, 148, 150, 220, 272, 328, 333, 341, 350, 375,
            381,
        ),
        (
            15, 36, 64, 66, 75, 95, 109, 115, 118, 132, 148, 150, 220, 272, 328, 333, 341, 350, 375,
            381,
        ),
    ),
    (
        14, 500, 40,
        (
            6, 22, 36, 37, 42, 54, 60, 66, 126, 130, 131, 138, 149, 155, 201, 202, 203, 230, 234,
            238, 257, 264, 269, 293, 300, 315, 333, 337, 350, 357, 359, 375, 376, 385, 386, 398,
            446, 465, 481, 487,
        ),
        (
            6, 36, 37, 54, 60, 66, 126, 130, 131, 138, 149, 155, 186, 189, 201, 202, 203, 230, 234,
            238, 252, 269, 292, 293, 300, 315, 333, 337, 350, 359, 375, 376, 385, 386, 398, 417,
            446, 457, 465, 481,
        ),
    ),
    (
        15, 600, 30,
        (
            11, 17, 37, 56, 119, 150, 161, 211, 213, 228, 234, 236, 244, 245, 269, 287, 312, 320,
            346, 352, 363, 364, 376, 401, 430, 466, 477, 523, 533, 591,
        ),
        (
            11, 17, 37, 56, 119, 150, 161, 211, 213, 228, 234, 236, 244, 245, 269, 287, 312, 320,
            346, 352, 363, 364, 376, 401, 430, 466, 477, 523, 533, 591,
        ),
    ),
    (
        16, 700, 35,
        (
            5, 10, 20, 22, 28, 145, 157, 225, 227, 232, 243, 259, 265, 291, 303, 309, 317, 343, 370,
            419, 426, 457, 467, 475, 480, 492, 613, 616, 617, 620, 646, 650, 673, 682, 683,
        ),
        (
            5, 10, 20, 22, 28, 145, 157, 225, 227, 232, 243, 259, 265, 291, 303, 309, 317, 343, 370,
            419, 426, 457, 467, 475, 480, 492, 613, 616, 617, 620, 646, 650, 673, 682, 683,
        ),
    ),
    (
        17, 800, 24,
        (
            126, 140, 143, 154, 215, 254, 284, 310, 325, 338, 411, 424, 429, 513, 534, 552, 564,
            572, 677, 700, 721, 722, 732, 784,
        ),
        (
            126, 140, 143, 154, 215, 254, 258, 284, 296, 310, 374, 393, 411, 424, 429, 513, 534,
            552, 572, 677, 700, 721, 722, 732,
        ),
    ),
    (
        18, 900, 45,
        (
            120, 125, 173, 178, 185, 187, 200, 202, 205, 206, 221, 240, 243, 245, 259, 270, 271,
            302, 306, 332, 342, 374, 459, 469, 491, 501, 505, 519, 534, 589, 643, 677, 691, 693,
            708, 733, 752, 774, 780, 806, 829, 830, 855, 886, 894,
        ),
        (
            120, 125, 173, 178, 185, 187, 200, 202, 205, 206, 221, 240, 243, 245, 259, 270, 271,
            302, 306, 332, 342, 374, 459, 469, 491, 501, 505, 519, 534, 589, 643, 677, 691, 693,
            708, 733, 752, 774, 780, 806, 829, 830, 855, 886, 894,
        ),
    ),
    (
        19, 900, 18,
        (44, 72, 75, 123, 151, 206, 274, 335, 402, 421, 424, 433, 532, 555, 592, 609, 745, 886),
        (44, 72, 75, 123, 151, 206, 274, 335, 402, 421, 424, 433, 532, 555, 592, 609, 745, 886),
    ),
]


class TestPinnedAnswers:
    @pytest.mark.parametrize("seed,n,k,lovasz,portfolio", _PINNED)
    def test_lovasz_and_portfolio(self, seed, n, k, lovasz, portfolio):
        graph = IndexedGraph.from_graph(_pinned_graph(seed, n))
        assert solve_lovasz(graph, k, random.Random(seed)) == frozenset(lovasz)
        assert HksPortfolio(seed=seed).solve(graph, k) == frozenset(portfolio)
