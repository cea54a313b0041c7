"""Spectral (low-rank bilinear) HkS heuristic in the spirit of [53].

Papailiopoulos et al. approximate DkS by optimizing over a low-rank
approximation of the adjacency matrix.  We take the top eigenvectors of the
weighted adjacency, generate candidate selections from the top-``k``
coordinates of each (both sign orientations), and polish the best candidate
with swap local search.
"""

from __future__ import annotations

import random
from typing import FrozenSet, Optional

import numpy as np

from repro.dks.local_search import improve_by_swaps
from repro.dks.projection import top_k_indices
from repro.graphs.graph import Node
from repro.graphs.indexed import IndexedGraph


def solve_spectral(
    graph: IndexedGraph,
    k: int,
    rng: Optional[random.Random] = None,
    rank: int = 3,
) -> FrozenSet[Node]:
    """HkS from the top-``rank`` eigenvectors of the adjacency matrix."""
    if k <= 0:
        return frozenset()
    nodes = graph.nodes
    n = len(nodes)
    if n <= k:
        return frozenset(nodes)
    if not any(graph.adj):
        return frozenset(nodes[:k])

    W = graph.matrix()
    rank = max(1, min(rank, n - 2))
    try:
        from scipy.sparse.linalg import eigsh

        # Fixed ARPACK start vector: the default draws from numpy's global
        # RNG, which both advances shared state and makes near-tie
        # selections vary between otherwise identical runs.
        v0 = np.random.RandomState(0).uniform(-1.0, 1.0, n)
        _, vectors = eigsh(W.asfptype(), k=rank, which="LA", v0=v0)
    except Exception:
        dense = W.toarray()
        eigenvalues, all_vectors = np.linalg.eigh(dense)
        order = np.argsort(-eigenvalues)[:rank]
        vectors = all_vectors[:, order]

    best_set: FrozenSet[Node] = frozenset()
    best_weight = -1.0
    for col in range(vectors.shape[1]):
        for sign in (1.0, -1.0):
            scores = sign * vectors[:, col]
            chosen = frozenset(nodes[i] for i in top_k_indices(scores, k))
            weight = graph.induced_weight(chosen)
            if weight > best_weight:
                best_weight = weight
                best_set = chosen
    return improve_by_swaps(graph, best_set)
