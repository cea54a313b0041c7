"""Greedy forward-expansion heuristic for HkS.

Seed the solution with the heaviest edge, then repeatedly add the node with
the largest weighted degree *into the current selection*, breaking ties by
overall weighted degree so early picks prefer well-connected nodes.

Nodes are ranked once by their ``(weighted_degree, node_repr)`` tie key, so
"largest ``(gain, tie)``" is "largest ``(gain, rank)``".  A lazy max-heap of
``(-gain, -rank)`` entries, pushed on every gain update, yields that node
in ``O(log n)``: gains only grow, so an entry whose gain no longer matches
the node's current gain (or whose node is already selected) is skipped when
popped.  ``O(m log n)`` in place of an ``O(n)`` argmax per pick, with the
same pick at every step.

The seed edge is the first heaviest in ``WeightedGraph.edges()`` order
(row ``i``, neighbour ``j > i``), oriented as that method orients it, and
the selection set receives the same insertions in the same order, so the
returned frozenset iterates like the dict-based version's.
"""

from __future__ import annotations

import heapq
import random
from typing import FrozenSet, Optional

from repro.graphs.graph import Node, edge_key
from repro.graphs.indexed import IndexedGraph


def solve_expansion(
    graph: IndexedGraph, k: int, rng: Optional[random.Random] = None
) -> FrozenSet[Node]:
    """Heaviest-k-subgraph by greedy node addition from the heaviest edge."""
    if k <= 0:
        return frozenset()
    nodes, adj = graph.nodes, graph.adj
    n = len(nodes)
    if n <= k:
        return frozenset(nodes)

    best_edge = None
    best_weight = -1.0
    for i, row in enumerate(adj):
        for j, w in row:
            if j > i and w > best_weight:
                best_weight = w
                best_edge = (i, j)

    if best_edge is None:
        # Edgeless graph: any k nodes induce weight 0.
        return frozenset(nodes[:k])

    i, j = best_edge
    u, v = nodes[i], nodes[j]
    try:
        seed = best_edge if u <= v else (j, i)
    except TypeError:
        seed = best_edge if edge_key(u, v) == (u, v) else (j, i)

    # Rank table, built once: rank order is (weighted degree, repr) order,
    # so the heap compares floats and ints, never strings.
    degrees, reprs = graph.degrees, graph.reprs
    ranked = sorted(range(n), key=lambda i: (degrees[i], reprs[i]))
    rank_of = [0] * n
    for r, i in enumerate(ranked):
        rank_of[i] = r
    top = n - 1

    if k == 1:
        # A single node induces no edges; pick the max-degree node anyway so
        # downstream local search has a sensible start.
        return frozenset({nodes[ranked[top]]})

    picked = list(seed)
    selected = [False] * n
    # gain[u] = weighted degree of u into the selection
    gain = {}
    for i in picked:
        selected[i] = True
    for i in picked:
        for j, w in adj[i]:
            if not selected[j]:
                gain[j] = gain.get(j, 0.0) + w
    heap = [(-g, -rank_of[j]) for j, g in gain.items()]
    heapq.heapify(heap)

    while len(picked) < k:
        candidate = -1
        while heap:
            neg_gain, neg_rank = heapq.heappop(heap)
            i = ranked[-neg_rank]
            if gain.get(i) == -neg_gain:
                candidate = i
                break
        if candidate < 0:
            # No unselected node touches the selection: take the
            # highest-ranked outsider.
            while selected[ranked[top]]:
                top -= 1
            candidate = ranked[top]
        picked.append(candidate)
        selected[candidate] = True
        gain.pop(candidate, None)
        for j, w in adj[candidate]:
            if not selected[j]:
                g = gain[j] = gain.get(j, 0.0) + w
                heapq.heappush(heap, (-g, -rank_of[j]))
    return frozenset(set(nodes[i] for i in picked))
