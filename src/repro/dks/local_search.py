"""Swap-based local search polish for HkS solutions.

Given a k-node selection, repeatedly swap the selected node with the lowest
weighted degree into the selection for the unselected node with the highest,
as long as the induced weight strictly improves.  Each pass is ``O(m)``;
the number of passes is capped to keep worst-case time bounded.

Inside-degrees are maintained *incrementally*: a swap only touches the two
swapped nodes' neighborhoods, so each pass re-reads dense float arrays
instead of recomputing ``weighted_degree(·, within=...)`` from scratch, and
the departing node's edge weights are scattered into a dense row so the
candidate scan does array reads instead of per-node hash lookups.  The
scan itself still walks every node in insertion order with the same
sequential-record ``> best + 1e-12`` rule, so the chosen swap — and every
accumulated float — is bit-identical to the dict-based version.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable

from repro.graphs.graph import Node
from repro.graphs.indexed import IndexedGraph


def improve_by_swaps(
    graph: IndexedGraph,
    selection: Iterable[Node],
    max_passes: int = 50,
) -> FrozenSet[Node]:
    """Improve ``selection`` by single-node swaps until a local optimum."""
    chosen = set(selection)
    if not chosen or len(chosen) >= len(graph):
        return frozenset(chosen)

    nodes, reprs, adj = graph.nodes, graph.reprs, graph.adj
    n = len(nodes)
    in_selected = [u in chosen for u in nodes]
    selected_idx = {i for i in range(n) if in_selected[i]}
    # Per-node gather in adjacency-row order: the accumulation order (and
    # so every float) matches weighted_degree(u, within=selected).
    inside = [0.0] * n
    for i in range(n):
        total = 0.0
        for j, w in adj[i]:
            if in_selected[j]:
                total += w
        inside[i] = total

    scatter = [0.0] * n  # dense row of the departing node's edge weights

    for _ in range(max_passes):
        worst = min(selected_idx, key=lambda i: (inside[i], reprs[i]))
        # Gain of bringing v in after removing `worst`: its degree into the
        # selection minus any edge it has to `worst` (which leaves).
        best_gain = inside[worst]
        best_candidate = -1
        worst_adj = adj[worst]
        for j, w in worst_adj:
            scatter[j] = w
        for j in range(n):
            if in_selected[j]:
                continue
            gain = inside[j] - scatter[j]
            if gain > best_gain + 1e-12:
                best_gain = gain
                best_candidate = j
        for j, _ in worst_adj:
            scatter[j] = 0.0
        if best_candidate < 0:
            break
        # Perform the swap and update inside-degrees incrementally.
        in_selected[worst] = False
        selected_idx.discard(worst)
        for j, w in worst_adj:
            inside[j] -= w
        in_selected[best_candidate] = True
        selected_idx.add(best_candidate)
        for j, w in adj[best_candidate]:
            inside[j] += w
    return frozenset(nodes[i] for i in selected_idx)
