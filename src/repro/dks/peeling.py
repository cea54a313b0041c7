"""Greedy peeling heuristic for HkS.

Repeatedly remove the node of minimum weighted degree until exactly ``k``
nodes remain.  This is the classic Asahiro/Charikar-style "remove the worst"
strategy; with a lazy heap the running time is ``O(m log n)``.

Because the induced weight is monotone under adding nodes, the heaviest
subgraph on *at most* ``k`` nodes can be assumed to have exactly
``min(k, n)`` nodes, so peeling down to ``k`` is the natural stopping rule.

The queue is int-indexed: nodes are ranked once by :func:`node_repr`, so
heap entries are plain ``(degree, rank)`` pairs whose comparisons resolve
ties exactly like the historical ``(degree, repr, node)`` tuples — the
rank order *is* the repr order — while every push/pop compares two
machine ints instead of two Python strings.  Adjacency and degrees come
from the :class:`~repro.graphs.indexed.IndexedGraph` snapshot, read
through the rank permutation, so the rows — and every degree update —
keep their neighbour order.
"""

from __future__ import annotations

import heapq
import random
from typing import FrozenSet, Optional

from repro.graphs.graph import Node
from repro.graphs.indexed import IndexedGraph


def solve_peeling(
    graph: IndexedGraph, k: int, rng: Optional[random.Random] = None
) -> FrozenSet[Node]:
    """Heaviest-k-subgraph by greedy min-weighted-degree peeling."""
    if k <= 0:
        return frozenset()
    n = len(graph)
    if n <= k:
        return frozenset(graph.nodes)

    # Index i is the node's snapshot position; rank[i] its repr rank,
    # and order[r] the index of rank r.  The heap sees only ints.
    nodes, reprs, adj = graph.nodes, graph.reprs, graph.adj
    order = sorted(range(n), key=reprs.__getitem__)
    rank = [0] * n
    for r, i in enumerate(order):
        rank[i] = r
    degree = list(graph.degrees)
    alive = [True] * n
    alive_count = n
    heap = [(degree[i], r) for r, i in enumerate(order)]
    heapq.heapify(heap)

    while alive_count > k:
        d, r = heapq.heappop(heap)
        i = order[r]
        if not alive[i] or d > degree[i] + 1e-12:
            continue  # stale heap entry
        alive[i] = False
        alive_count -= 1
        for j, w in adj[i]:
            if alive[j]:
                degree[j] -= w
                heapq.heappush(heap, (degree[j], rank[j]))
    return frozenset(nodes[i] for i in order if alive[i])
