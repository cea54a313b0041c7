"""Unit and property tests for the graph substrate (repro.graphs)."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix

from repro.graphs import (
    BipartiteGraph,
    BlowupGraph,
    Hypergraph,
    IndexedGraph,
    WeightedGraph,
    blow_up,
    random_bipartition,
)
from repro.graphs import graph as graph_module
from repro.graphs.bipartite import all_bipartitions, bipartition_rounds
from repro.graphs.blowup import total_integer_cost
from repro.graphs.graph import edge_key, node_repr
from tests.strategies import hks_graphs


def triangle() -> WeightedGraph:
    g = WeightedGraph()
    g.add_node("a", 1.0)
    g.add_node("b", 2.0)
    g.add_node("c", 3.0)
    g.add_edge("a", "b", 1.0)
    g.add_edge("b", "c", 2.0)
    g.add_edge("a", "c", 3.0)
    return g


class TestWeightedGraph:
    def test_add_and_len(self):
        g = triangle()
        assert len(g) == 3
        assert g.num_edges() == 3

    def test_negative_cost_rejected(self):
        g = WeightedGraph()
        with pytest.raises(ValueError):
            g.add_node("a", -1.0)

    def test_self_loop_rejected(self):
        g = WeightedGraph()
        with pytest.raises(ValueError):
            g.add_edge("a", "a")

    def test_nonpositive_weight_rejected(self):
        g = WeightedGraph()
        with pytest.raises(ValueError):
            g.add_edge("a", "b", 0.0)

    def test_parallel_edges_accumulate(self):
        g = WeightedGraph()
        g.add_edge("a", "b", 1.0)
        g.add_edge("a", "b", 2.5)
        assert g.weight("a", "b") == pytest.approx(3.5)
        assert g.num_edges() == 1

    def test_auto_created_endpoints_cost_zero(self):
        g = WeightedGraph()
        g.add_edge("a", "b", 1.0)
        assert g.cost("a") == 0.0

    def test_remove_node(self):
        g = triangle()
        g.remove_node("b")
        assert len(g) == 2
        assert g.num_edges() == 1
        assert g.has_edge("a", "c")

    def test_induced_weight(self):
        g = triangle()
        assert g.induced_weight({"a", "b"}) == pytest.approx(1.0)
        assert g.induced_weight({"a", "b", "c"}) == pytest.approx(6.0)
        assert g.induced_weight({"a"}) == 0.0

    def test_induced_cost(self):
        g = triangle()
        assert g.induced_cost({"a", "c"}) == pytest.approx(4.0)

    def test_weighted_degree_restricted(self):
        g = triangle()
        assert g.weighted_degree("a") == pytest.approx(4.0)
        assert g.weighted_degree("a", within={"b"}) == pytest.approx(1.0)

    def test_subgraph(self):
        g = triangle()
        sub = g.subgraph({"a", "c"})
        assert len(sub) == 2
        assert sub.weight("a", "c") == pytest.approx(3.0)
        assert sub.cost("c") == 3.0

    def test_copy_independent(self):
        g = triangle()
        clone = g.copy()
        clone.remove_node("a")
        assert "a" in g

    def test_connected_components(self):
        g = triangle()
        g.add_node("lonely", 0.0)
        components = sorted(map(sorted, g.connected_components()))
        assert components == [["a", "b", "c"], ["lonely"]]

    def test_edges_iterate_once(self):
        g = triangle()
        assert len(list(g.edges())) == 3


#: Classifier-like and integer nodes: frozensets order by inclusion and
#: mixed pairs fall back to ``repr``, so both orientation rules run.
_NODES = st.one_of(
    st.frozensets(st.sampled_from("abcd"), min_size=1), st.integers(0, 5)
)
_TRIPLES = st.lists(
    st.tuples(_NODES, _NODES, st.sampled_from([0.5, 1.0, 2.0, 3.25])).filter(
        lambda t: t[0] != t[1]
    ),
    max_size=30,
)


def _keyed_edges(graph):
    """Reference snapshot: each edge keyed by :func:`edge_key` at its first
    directed encounter."""
    edges, visited = [], set()
    for u in graph.nodes:
        visited.add(u)
        for v, w in graph.neighbors(u).items():
            if v not in visited:
                a, b = edge_key(u, v)
                edges.append((a, b, w))
    return edges


class TestBulkBuildReference:
    """The bulk builds against the per-edge builds they replaced."""

    @settings(max_examples=60, deadline=None)
    @given(triples=_TRIPLES)
    def test_add_edges_matches_per_edge_inserts(self, triples):
        bulk, loop = WeightedGraph(), WeightedGraph()
        bulk.add_edges(triples)
        for u, v, w in triples:
            loop.add_edge(u, v, w)
        assert list(bulk.nodes) == list(loop.nodes)
        for u in loop.nodes:
            assert bulk.cost(u) == loop.cost(u)
            assert list(bulk.neighbors(u).items()) == list(loop.neighbors(u).items())
            assert bulk.weighted_degree(u) == loop.weighted_degree(u)
        assert list(bulk.edges()) == list(loop.edges())

    @settings(max_examples=60, deadline=None)
    @given(triples=_TRIPLES)
    def test_edges_snapshot_matches_keyed_reference(self, triples):
        graph = WeightedGraph()
        graph.add_edges(triples)
        assert list(graph.edges()) == _keyed_edges(graph)


class TestBipartite:
    def test_crossing_edges_only(self):
        g = triangle()
        bi = BipartiteGraph(g, frozenset({"a"}), frozenset({"b", "c"}))
        assert bi.graph.has_edge("a", "b")
        assert bi.graph.has_edge("a", "c")
        assert not bi.graph.has_edge("b", "c")

    def test_overlap_rejected(self):
        g = triangle()
        with pytest.raises(ValueError):
            BipartiteGraph(g, frozenset({"a"}), frozenset({"a", "b"}))

    def test_side_lookup(self):
        g = triangle()
        bi = BipartiteGraph(g, frozenset({"a"}), frozenset({"b", "c"}))
        assert bi.side("a") == "L"
        assert bi.side("c") == "R"
        with pytest.raises(KeyError):
            bi.side("zzz")

    def test_random_bipartition_partitions_all(self):
        g = triangle()
        bi = random_bipartition(g, random.Random(0))
        assert bi.left | bi.right == frozenset({"a", "b", "c"})
        assert not (bi.left & bi.right)

    def test_rounds_logarithmic(self):
        assert bipartition_rounds(1) == 1
        assert bipartition_rounds(2) == 1
        assert bipartition_rounds(1024) == 10

    def test_all_bipartitions_count(self):
        g = triangle()
        splits = all_bipartitions(g, random.Random(1), rounds=5)
        assert len(splits) == 5

    def test_some_split_keeps_half_weight(self):
        # Over enough rounds, some bipartition keeps >= half the total
        # weight of any fixed solution, here the whole triangle.
        g = triangle()
        total = g.total_edge_weight()
        splits = all_bipartitions(g, random.Random(7), rounds=20)
        best = max(s.graph.total_edge_weight() for s in splits)
        assert best >= total / 2.0 - 1e-12


class TestHypergraph:
    def test_add_and_measure(self):
        h = Hypergraph()
        h.add_node("x", 1.0)
        h.add_edge(["x", "y", "z"], 5.0)
        assert len(h) == 3
        assert h.num_edges() == 1
        assert h.induced_weight({"x", "y", "z"}) == 5.0
        assert h.induced_weight({"x", "y"}) == 0.0

    def test_duplicate_edge_accumulates(self):
        h = Hypergraph()
        h.add_edge(["x", "y"], 1.0)
        h.add_edge(["y", "x"], 2.0)
        assert h.num_edges() == 1
        assert h.edge_weight(frozenset({"x", "y"})) == pytest.approx(3.0)

    def test_weighted_degree(self):
        h = Hypergraph()
        h.add_edge(["x", "y"], 1.0)
        h.add_edge(["x", "z"], 2.0)
        assert h.weighted_degree("x") == pytest.approx(3.0)
        assert h.weighted_degree("y") == pytest.approx(1.0)

    def test_remove_node_drops_incident_edges(self):
        h = Hypergraph()
        h.add_edge(["x", "y"], 1.0)
        h.add_edge(["y", "z"], 1.0)
        h.remove_node("y")
        assert h.num_edges() == 0
        assert "x" in h

    def test_max_edge_cardinality(self):
        h = Hypergraph()
        h.add_edge(["x", "y", "z"], 1.0)
        h.add_edge(["x", "y"], 1.0)
        assert h.max_edge_cardinality() == 3

    def test_subhypergraph(self):
        h = Hypergraph()
        h.add_node("x", 2.0)
        h.add_edge(["x", "y"], 1.0)
        h.add_edge(["x", "z"], 4.0)
        sub = h.subhypergraph({"x", "z"})
        assert sub.num_edges() == 1
        assert sub.cost("x") == 2.0

    def test_singleton_edge_allowed(self):
        h = Hypergraph()
        h.add_edge(["x"], 2.0)
        assert h.induced_weight({"x"}) == 2.0


class TestBlowup:
    def test_copy_counts(self):
        g = WeightedGraph()
        g.add_node("a", 2.0)
        g.add_node("b", 3.0)
        g.add_edge("a", "b", 6.0)
        blown = blow_up(g)
        assert blown.num_copies("a") == 2
        assert blown.num_copies("b") == 3
        assert blown.size() == 5

    def test_edge_weight_preserved_in_total(self):
        g = WeightedGraph()
        g.add_node("a", 2.0)
        g.add_node("b", 3.0)
        g.add_edge("a", "b", 6.0)
        blown = blow_up(g)
        # Selecting all copies recovers the original weight.
        assert blown.graph.induced_weight(set(blown.graph.nodes)) == pytest.approx(6.0)

    def test_all_copies_unit_cost(self):
        # Each copy stands for one unit of cost, so k copies fit budget k.
        g = WeightedGraph()
        g.add_node("a", 4.0)
        blown = blow_up(g)
        assert blown.graph.nodes == [("a", 0), ("a", 1), ("a", 2), ("a", 3)]
        assert blown.group_selection(blown.graph.nodes) == {"a": 4}

    def test_non_integer_cost_rejected(self):
        g = WeightedGraph()
        g.add_node("a", 1.5)
        with pytest.raises(ValueError):
            blow_up(g)

    def test_zero_cost_rejected(self):
        g = WeightedGraph()
        g.add_node("a", 0.0)
        with pytest.raises(ValueError):
            blow_up(g)

    def test_group_selection(self):
        g = WeightedGraph()
        g.add_node("a", 2.0)
        g.add_node("b", 1.0)
        g.add_edge("a", "b", 1.0)
        blown = blow_up(g)
        counts = blown.group_selection([("a", 0), ("a", 1), ("b", 0)])
        assert counts == {"a": 2, "b": 1}

    def test_total_integer_cost(self):
        g = WeightedGraph()
        g.add_node("a", 2.0)
        g.add_node("b", 3.0)
        assert total_integer_cost(g) == 5


def _reference_blowup(original):
    """The blow-up as a unit-cost ``WeightedGraph``, built copy edge by copy edge."""
    graph = WeightedGraph()
    copies = {}
    for node in original.nodes:
        copies[node] = [(node, i) for i in range(int(original.cost(node)))]
        for copy in copies[node]:
            graph.add_node(copy, cost=1.0)
    graph.add_edges(
        (cu, cv, w / (len(copies[u]) * len(copies[v])))
        for u, v, w in original.edges()
        for cu in copies[u]
        for cv in copies[v]
    )
    return graph


def _reference_view(graph):
    """``(nodes, reprs, rows, degrees, csr)`` read off a ``WeightedGraph``.

    Insertion-order nodes, ``node_repr`` strings, ``neighbors`` rows,
    ``weighted_degree`` totals and the COO -> CSR adjacency of the edge
    snapshot.  Numbers are compared by ``repr``, which round-trips floats
    exactly and tells an isolated node's int ``0`` from ``0.0``.
    """
    nodes = list(graph.nodes)
    index = {u: i for i, u in enumerate(nodes)}
    rows = [[(index[v], repr(w)) for v, w in graph.neighbors(u).items()] for u in nodes]
    degrees = [repr(graph.weighted_degree(u)) for u in nodes]
    coo_rows, coo_cols, vals = [], [], []
    for u, v, w in graph.edges():
        coo_rows.extend((index[u], index[v]))
        coo_cols.extend((index[v], index[u]))
        vals.extend((w, w))
    csr = coo_matrix((vals, (coo_rows, coo_cols)), shape=(len(nodes), len(nodes))).tocsr()
    return nodes, [node_repr(u) for u in nodes], rows, degrees, csr


def _assert_snapshot_matches(snapshot, graph, selection):
    nodes, reprs, rows, degrees, csr = _reference_view(graph)
    assert snapshot.nodes == nodes
    assert snapshot.reprs == reprs
    assert [[(j, repr(w)) for j, w in row] for row in snapshot.adj] == rows
    assert [repr(d) for d in snapshot.degrees] == degrees
    matrix = snapshot.matrix()
    for field in ("indptr", "indices", "data"):
        ours, theirs = getattr(matrix, field), getattr(csr, field)
        assert ours.dtype == theirs.dtype
        assert ours.tobytes() == theirs.tobytes()
    assert repr(snapshot.induced_weight(selection)) == repr(graph.induced_weight(selection))


def _respell_frozenset_names(original):
    """Cache the other spelling of every frozenset name and of its copies.

    An equal twin built in the other order prints its members the other
    way round, so a snapshot that calls ``repr`` instead of ``node_repr``
    disagrees with the cached strings.
    """
    for node in original.nodes:
        if isinstance(node, frozenset):
            twin = frozenset(sorted(node, reverse=True))
            node_repr(twin)
            for i in range(int(original.cost(node))):
                node_repr((twin, i))


class TestIndexedGraph:
    @given(original=hks_graphs(max_cost=4), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_blowup_snapshot_matches_the_copy_graph(self, original, data):
        _respell_frozenset_names(original)
        blown = BlowupGraph(original)
        reference = _reference_blowup(original)
        selection = data.draw(st.sets(st.sampled_from(list(reference.nodes))))
        _assert_snapshot_matches(blown.graph, reference, selection)

    @given(graph=hks_graphs(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_from_graph_matches_the_graph(self, graph, data):
        selection = data.draw(st.sets(st.sampled_from(list(graph.nodes))))
        _assert_snapshot_matches(IndexedGraph.from_graph(graph), graph, selection)

    def test_snapshot_pickles(self):
        g = triangle()
        blown = BlowupGraph(g)
        blown.graph.matrix()
        clone = pickle.loads(pickle.dumps(blown.graph))
        for field in ("nodes", "index_of", "reprs", "adj", "degrees"):
            assert getattr(clone, field) == getattr(blown.graph, field)
        assert (clone.matrix() != blown.graph.matrix()).nnz == 0


class TestReprCacheBound:
    def test_repr_memo_never_exceeds_its_cap(self, monkeypatch):
        """``node_repr``'s memo clears wholesale at its cap."""
        cap = 3
        monkeypatch.setattr(graph_module, "_REPR_CACHE", {})
        monkeypatch.setattr(graph_module, "_REPR_CACHE_CAP", cap)
        nodes = ["a", ("b", 0), 7, frozenset({"x"}), ("__bonus__",), 2.5, "z"]
        sizes = []
        for node in nodes * 2:
            assert node_repr(node) == repr(node)
            sizes.append(len(graph_module._REPR_CACHE))
        assert max(sizes) == cap  # driven to the cap, never past it
        # Equal frozensets share the first spelling until a clear; the
        # next one to arrive after it sets the spelling anew.
        a, b = 1_000_001, 1_000_009
        first, twin = frozenset((a, b)), frozenset((b, a))
        graph_module._REPR_CACHE.clear()
        assert node_repr(first) == node_repr(twin) == repr(first)
        for node in nodes[:cap]:  # the cap-th insert clears the memo
            node_repr(node)
        assert node_repr(twin) == repr(twin)


class TestKeyCacheBound:
    def test_key_memo_never_exceeds_its_cap(self, monkeypatch):
        """``edge_key``'s memo clears wholesale at its cap."""
        cap = 3
        monkeypatch.setattr(graph_module, "_KEY_CACHE", {})
        monkeypatch.setattr(graph_module, "_KEY_CACHE_CAP", cap)
        bonus = ("__bonus__",)
        cases = [
            (("a", "b"), ("a", "b")),
            (("b", "a"), ("a", "b")),
            ((("c", 1), ("c", 0)), (("c", 0), ("c", 1))),
            ((bonus, "a"), ("a", bonus)),  # no order: by repr, "'a'" < "("
            (("a", bonus), ("a", bonus)),
            ((2, 1), (1, 2)),
            ((1, 3), (1, 3)),
        ]
        sizes = []
        for (u, v), key in cases * 2:
            assert edge_key(u, v) == key
            sizes.append(len(graph_module._KEY_CACHE))
        assert max(sizes) == cap  # driven to the cap, never past it


@given(seed=st.integers(0, 5000))
@settings(max_examples=40, deadline=None)
def test_induced_weight_matches_manual(seed):
    rng = random.Random(seed)
    g = WeightedGraph()
    nodes = [f"v{i}" for i in range(8)]
    for node in nodes:
        g.add_node(node, rng.randint(0, 5))
    for _ in range(12):
        u, v = rng.sample(nodes, 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v, rng.randint(1, 9))
    selection = {n for n in nodes if rng.random() < 0.5}
    manual = sum(
        w for u, v, w in g.edges() if u in selection and v in selection
    )
    assert g.induced_weight(selection) == pytest.approx(manual)
