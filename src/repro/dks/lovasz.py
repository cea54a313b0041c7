"""Continuous-relaxation HkS heuristic in the spirit of Konar & Sidiropoulos.

The induced-weight set function ``f(S) = sum_{uv in E, u,v in S} w_uv`` is
supermodular; its natural continuous surrogate is the quadratic
``F(x) = 0.5 x^T W x`` over the capped simplex ``{x in [0,1]^n, sum x = k}``
(on integral points ``F`` coincides with ``f``, and the maximum of ``F`` over
the polytope is attained at a vertex, i.e. an integral selection).  We run
projected supergradient ascent ``x <- Proj(x + eta * W x)`` from several
random starts, round each stationary point to its top-``k`` coordinates, and
polish with swap local search.  This mirrors the Lovász-extension /
Frank-Wolfe scheme of [41] while remaining dependency-light.
"""

from __future__ import annotations

import random
from typing import FrozenSet, Optional

import numpy as np

from repro.dks.local_search import improve_by_swaps
from repro.dks.projection import project_capped_simplex, top_k_indices
from repro.graphs.graph import Node
from repro.graphs.indexed import IndexedGraph


def solve_lovasz(
    graph: IndexedGraph,
    k: int,
    rng: Optional[random.Random] = None,
    restarts: int = 3,
    max_iters: int = 120,
    tol: float = 1e-7,
) -> FrozenSet[Node]:
    """HkS via projected supergradient ascent on the quadratic relaxation."""
    if k <= 0:
        return frozenset()
    nodes = graph.nodes
    n = len(nodes)
    if n <= k:
        return frozenset(nodes)
    if not any(graph.adj):
        return frozenset(nodes[:k])
    rng = rng or random.Random(0)

    W = graph.matrix()
    npr = np.random.RandomState(rng.randrange(2**31 - 1))

    # Lipschitz-style step size from the largest row sum of W.
    row_sums = np.asarray(np.abs(W).sum(axis=1)).ravel()
    lip = float(row_sums.max()) or 1.0
    eta = 1.0 / lip

    best_set: FrozenSet[Node] = frozenset()
    best_weight = -1.0
    for restart in range(max(1, restarts)):
        if restart == 0:
            # Warm start from degrees: informative and deterministic.
            x = row_sums / row_sums.sum() * k
            x = project_capped_simplex(x, k)
        else:
            x = project_capped_simplex(npr.rand(n), k)
        prev_value = -np.inf
        # One matvec per iteration: the W x that prices the objective at
        # the new point is the next step's (super)gradient.
        grad = W.dot(x)
        for _ in range(max_iters):
            x = project_capped_simplex(x + eta * grad, k)
            grad = W.dot(x)
            value = 0.5 * float(x @ grad)
            if value - prev_value < tol * max(1.0, abs(prev_value)):
                break
            prev_value = value
        chosen = frozenset(nodes[i] for i in top_k_indices(x, k))
        chosen = improve_by_swaps(graph, chosen)
        weight = graph.induced_weight(chosen)
        if weight > best_weight:
            best_weight = weight
            best_set = chosen
    return best_set
