"""Undirected weighted graph with node costs and edge weights.

This is the shared data structure for the Quadratic Knapsack (QK) instances
produced by the BCC(2) reduction (Observation 4.4 in the paper): nodes are
singleton classifiers with costs, edges are length-2 queries with utilities.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

Node = Hashable
Edge = Tuple[Node, Node]


#: Memoized canonical orientations.  Blow-up copy nodes compare via the
#: ``repr`` fallback (a ``TypeError`` raise plus two reprs per call), and
#: the DkS loops sweep the same graphs many times, so the pair → key map
#: pays for itself quickly.  Bounded by a wholesale clear at
#: :data:`_KEY_CACHE_CAP` entries.
_KEY_CACHE: Dict[Tuple[Node, Node], Edge] = {}
_KEY_CACHE_CAP = 1_000_000


#: Memoized node reprs.  QK/DkS heuristics break float ties by ``repr``
#: so selections are deterministic across hash seeds; heap pushing and
#: greedy sweeps request the same node strings millions of times per
#: solve, so the string is computed once per node.  Bounded by a
#: wholesale clear at :data:`_REPR_CACHE_CAP` entries; equal frozensets
#: can print their members in different orders, so after a clear the
#: next equal node to arrive sets the spelling.
_REPR_CACHE: Dict[Node, str] = {}
_REPR_CACHE_CAP = 1_000_000


def node_repr(v: Node) -> str:
    """Memoized ``repr(v)`` for deterministic tiebreaks in hot loops."""
    cached = _REPR_CACHE.get(v)
    if cached is None:
        if len(_REPR_CACHE) >= _REPR_CACHE_CAP:
            _REPR_CACHE.clear()
        cached = _REPR_CACHE[v] = repr(v)
    return cached


def edge_key(u: Node, v: Node) -> Edge:
    """Canonical (order-independent) key for the undirected edge ``{u, v}``.

    Nodes of mixed, non-comparable types are ordered by ``repr`` as a
    deterministic tiebreak.
    """
    key = _KEY_CACHE.get((u, v))
    if key is not None:
        return key
    if u == v:
        raise ValueError(f"self-loops are not allowed: {u!r}")
    try:
        key = (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        key = (u, v) if repr(u) <= repr(v) else (v, u)
    if len(_KEY_CACHE) >= _KEY_CACHE_CAP:
        _KEY_CACHE.clear()
    _KEY_CACHE[(u, v)] = key
    return key


class WeightedGraph:
    """Undirected graph with non-negative node costs and positive edge weights.

    The graph rejects self-loops and parallel edges (adding an existing edge
    *accumulates* its weight, which is the semantics the BCC(2) reduction
    needs when several queries map to the same classifier pair).
    """

    def __init__(self) -> None:
        self._cost: Dict[Node, float] = {}
        self._adj: Dict[Node, Dict[Node, float]] = {}
        # Cached edges() snapshot; dropped whenever the edge set changes.
        self._edge_list: Optional[List[Tuple[Node, Node, float]]] = None
        # Cached total weighted degrees; entries drop on incident change.
        self._wdeg: Dict[Node, float] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node, cost: float = 0.0) -> None:
        """Add ``node`` with the given cost; re-adding overwrites the cost."""
        if cost < 0:
            raise ValueError(f"node cost must be non-negative, got {cost}")
        self._cost[node] = float(cost)
        self._adj.setdefault(node, {})

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Add the undirected edge ``{u, v}``, accumulating weight if present.

        Endpoints missing from the graph are created with cost 0.
        """
        if weight <= 0:
            raise ValueError(f"edge weight must be positive, got {weight}")
        if u == v:
            raise ValueError(f"self-loops are not allowed: {u!r}")
        for node in (u, v):
            if node not in self._cost:
                self.add_node(node)
        self._adj[u][v] = self._adj[u].get(v, 0.0) + float(weight)
        self._adj[v][u] = self._adj[v].get(u, 0.0) + float(weight)
        self._edge_list = None
        self._wdeg.pop(u, None)
        self._wdeg.pop(v, None)

    def add_edges(self, edges: Iterable[Tuple[Node, Node, float]]) -> None:
        """Bulk :meth:`add_edge` with identical semantics per triple.

        Validation, weight accumulation, auto-created endpoints and
        insertion order all match a per-edge :meth:`add_edge` loop; the
        difference is one cache invalidation and no per-edge method
        dispatch, which is what the QK graph builders (bipartition, cost
        scaling) need when emitting tens of thousands of edges per round.
        """
        cost = self._cost
        adj = self._adj
        wdeg = self._wdeg
        # Invalidate up front: a mid-batch validation error must not
        # leave caches describing the pre-batch structure.
        self._edge_list = None
        for u, v, weight in edges:
            if weight <= 0:
                raise ValueError(f"edge weight must be positive, got {weight}")
            if u == v:
                raise ValueError(f"self-loops are not allowed: {u!r}")
            if u not in cost:
                cost[u] = 0.0
                adj[u] = {}
            if v not in cost:
                cost[v] = 0.0
                adj[v] = {}
            w = float(weight)
            row = adj[u]
            row[v] = row.get(v, 0.0) + w
            row = adj[v]
            row[u] = row.get(u, 0.0) + w
            wdeg.pop(u, None)
            wdeg.pop(v, None)

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and all incident edges."""
        for neighbor in list(self._adj[node]):
            del self._adj[neighbor][node]
            self._wdeg.pop(neighbor, None)
        del self._adj[node]
        del self._cost[node]
        self._edge_list = None
        self._wdeg.pop(node, None)

    def copy(self) -> "WeightedGraph":
        """Deep copy (costs and adjacency are independent of the original)."""
        clone = WeightedGraph()
        clone._cost = dict(self._cost)
        clone._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        return clone

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._cost

    def __len__(self) -> int:
        return len(self._cost)

    @property
    def nodes(self) -> Iterable[Node]:
        """View of all nodes (insertion order)."""
        return self._cost.keys()

    def cost(self, node: Node) -> float:
        """The cost of ``node``."""
        return self._cost[node]

    def set_cost(self, node: Node, cost: float) -> None:
        """Overwrite the cost of an existing node."""
        if node not in self._cost:
            raise KeyError(node)
        if cost < 0:
            raise ValueError(f"node cost must be non-negative, got {cost}")
        self._cost[node] = float(cost)

    def neighbors(self, node: Node) -> Dict[Node, float]:
        """Mapping neighbor -> edge weight for ``node``."""
        return self._adj[node]

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        return u in self._adj and v in self._adj[u]

    def weight(self, u: Node, v: Node) -> float:
        """The weight of the edge ``{u, v}``."""
        return self._adj[u][v]

    def edges(self) -> Iterator[Tuple[Node, Node, float]]:
        """Iterate each undirected edge once as ``(u, v, weight)``.

        Each edge appears at its first directed encounter (the node whose
        adjacency row comes first), canonically oriented — the same
        sequence the historical seen-set produced.  The snapshot is
        cached until the edge set changes, so repeated full sweeps (the
        DkS inner loops) skip the :func:`edge_key` canonicalization.
        """
        cached = self._edge_list
        if cached is None:
            cached = []
            append = cached.append
            visited = set()
            for u, nbrs in self._adj.items():
                visited.add(u)
                for v, w in nbrs.items():
                    if v not in visited:
                        # Inline edge_key's orientation rule (same
                        # comparisons, same fallback) — the snapshot is
                        # the canonicalization cache here, so routing
                        # every edge through the keyed cache only adds
                        # dict traffic to the one-time build.
                        try:
                            append((u, v, w) if u <= v else (v, u, w))
                        except TypeError:
                            key = edge_key(u, v)
                            append((key[0], key[1], w))
            self._edge_list = cached
        return iter(cached)

    def num_edges(self) -> int:
        """Number of undirected edges."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def degree(self, node: Node) -> int:
        """Number of neighbors of ``node``."""
        return len(self._adj[node])

    def weighted_degree(self, node: Node, within: Optional[set] = None) -> float:
        """Sum of incident edge weights, optionally restricted to ``within``.

        The unrestricted total is cached per node (the DkS heuristics ask
        for it inside tiebreak keys, millions of times per solve on a
        graph that never changes mid-solve).
        """
        nbrs = self._adj[node]
        if within is None:
            total = self._wdeg.get(node)
            if total is None:
                total = self._wdeg[node] = sum(nbrs.values())
            return total
        return sum(w for v, w in nbrs.items() if v in within)

    # ------------------------------------------------------------------
    # subgraph measures
    # ------------------------------------------------------------------
    def induced_weight(self, nodes: Iterable[Node]) -> float:
        """Total edge weight of the subgraph induced by ``nodes``."""
        selected = set(nodes)
        total = 0.0
        for u in selected:
            for v, w in self._adj[u].items():
                if v in selected:
                    total += w
        return total / 2.0

    def induced_cost(self, nodes: Iterable[Node]) -> float:
        """Total node cost of ``nodes``."""
        return sum(self._cost[u] for u in nodes)

    def subgraph(self, nodes: Iterable[Node]) -> "WeightedGraph":
        """New graph induced by ``nodes`` (costs and weights preserved)."""
        selected = set(nodes)
        sub = WeightedGraph()
        for u in selected:
            sub.add_node(u, self._cost[u])
        for u in selected:
            for v, w in self._adj[u].items():
                if v in selected and not sub.has_edge(u, v):
                    sub.add_edge(u, v, w)
        return sub

    def total_edge_weight(self) -> float:
        """Sum of all edge weights."""
        return sum(w for _, _, w in self.edges())

    def connected_components(self) -> Iterator[set]:
        """Yield node sets of connected components (iterative DFS)."""
        unvisited = set(self._cost)
        while unvisited:
            root = next(iter(unvisited))
            component = {root}
            stack = [root]
            unvisited.discard(root)
            while stack:
                u = stack.pop()
                for v in self._adj[u]:
                    if v in unvisited:
                        unvisited.discard(v)
                        component.add(v)
                        stack.append(v)
            yield component

    def __repr__(self) -> str:
        return f"WeightedGraph(n={len(self)}, m={self.num_edges()})"
