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
"""

from __future__ import annotations

import heapq
import random
from typing import FrozenSet, Optional

from repro.graphs.graph import Node, WeightedGraph, node_repr


def solve_expansion(
    graph: WeightedGraph, k: int, rng: Optional[random.Random] = None
) -> FrozenSet[Node]:
    """Heaviest-k-subgraph by greedy node addition from the heaviest edge."""
    if k <= 0:
        return frozenset()
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
        # Edgeless graph: any k nodes induce weight 0.
        return frozenset(nodes[:k])

    # Rank table, built once: rank order is (weighted degree, repr) order,
    # so the heap compares floats and ints, never strings.
    ranked = sorted(nodes, key=lambda u: (graph.weighted_degree(u), node_repr(u)))
    rank_of = {u: r for r, u in enumerate(ranked)}
    top = len(ranked) - 1

    if k == 1:
        # A single node induces no edges; pick the max-degree node anyway so
        # downstream local search has a sensible start.
        return frozenset({ranked[top]})

    selected = set(best_edge)
    # gain[u] = weighted degree of u into `selected`
    gain = {}
    heap = []
    for u in selected:
        for v, w in graph.neighbors(u).items():
            if v not in selected:
                gain[v] = gain.get(v, 0.0) + w
    for v, g in gain.items():
        heap.append((-g, -rank_of[v]))
    heapq.heapify(heap)

    while len(selected) < k:
        candidate = None
        while heap:
            neg_gain, neg_rank = heapq.heappop(heap)
            u = ranked[-neg_rank]
            if gain.get(u) == -neg_gain:
                candidate = u
                break
        if candidate is None:
            # No unselected node touches the selection: take the
            # highest-ranked outsider.
            while ranked[top] in selected:
                top -= 1
            candidate = ranked[top]
        selected.add(candidate)
        gain.pop(candidate, None)
        for v, w in graph.neighbors(candidate).items():
            if v not in selected:
                g = gain[v] = gain.get(v, 0.0) + w
                heapq.heappush(heap, (-g, -rank_of[v]))
    return frozenset(selected)
