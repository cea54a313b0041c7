"""Preprocessing / pruning (line 1 of Algorithm 1).

Two procedures, both with bounded objective error (Section 4.2):

1. **Replaceable-classifier rule** — drop a classifier of length ``r > 1``
   whenever strictly shorter relevant classifiers can cover the same
   properties for at most ``r`` times its cost (in uniform-cost instances
   this collapses the solution space to singleton classifiers).  A
   *small-budget protection* keeps a long classifier when pruning it would
   leave some query with no within-budget cover.
2. **Leverage-score rule** — spectral pruning of the BCC(2)/QK graph: node
   importance is its weighted leverage in a low-rank approximation of the
   adjacency matrix; nodes in the negligible tail (and the edges through
   them) are dropped, shrinking the QK instance at a provably small cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set

import numpy as np

from repro.core.model import Classifier, ClassifierWorkload, powerset_classifiers
from repro.graphs.graph import Node, WeightedGraph
from repro.mc3.greedy import cheapest_residual_cover


@dataclass
class PruningConfig:
    """Knobs for the two pruning procedures.

    Attributes:
        replaceable: run the replaceable-classifier rule.
        replaceable_scale_by_length: let shorter classifiers replace a
            length-``r`` classifier within ``r`` times its cost (the
            paper's rule) instead of within its cost.
        leverage_keep: fraction of total leverage mass that must be kept.
        leverage_min_nodes: only prune QK graphs at least this large —
            on small graphs the spectral tail still carries real utility
            and the speedup is irrelevant.
    """

    replaceable: bool = True
    replaceable_scale_by_length: bool = False
    leverage_keep: float = 0.995
    leverage_min_nodes: int = 3000

    @classmethod
    def paper(cls) -> "PruningConfig":
        """The paper's aggressive variant: a length-``r`` classifier is
        pruned when shorter ones replace it within ``r`` times its cost.
        Fast (uniform-cost instances collapse to singletons) but pays a
        real objective factor under tight budgets; used by the
        scalability experiments (Figures 3e/3f)."""
        return cls(replaceable_scale_by_length=True)


def prune_classifiers(
    workload: ClassifierWorkload,
    budget: float,
    config: Optional[PruningConfig] = None,
) -> FrozenSet[Classifier]:
    """The allowed classifier set after preprocessing.

    Always removes classifiers with cost above the budget or infinite cost.
    With ``config.replaceable`` also applies the replaceable-classifier
    rule with small-budget protection.
    """
    config = config or PruningConfig()
    from repro.core.bitset import active_engine

    compiled = workload.compiled() if active_engine() == "bits" else None
    relevant = workload.relevant_classifiers()
    allowed: Set[Classifier] = {
        c
        for c in relevant
        if not math.isinf(workload.cost(c)) and workload.cost(c) <= budget + 1e-9
    }
    if not config.replaceable:
        return frozenset(allowed)

    # Replaceable rule: try to prune long classifiers.
    by_length = sorted(
        (c for c in allowed if len(c) > 1), key=lambda c: (-len(c), sorted(c))
    )
    pruned: Set[Classifier] = set()
    for classifier in by_length:
        shorter = [
            (c, workload.cost(c))
            for c in powerset_classifiers(classifier)
            if len(c) < len(classifier) and c in allowed and c not in pruned
        ]
        found = cheapest_residual_cover(classifier, shorter, set(), compiled)
        if found is None:
            continue
        replacement_cost, _ = found
        threshold = workload.cost(classifier)
        if config.replaceable_scale_by_length:
            threshold *= len(classifier)
        if replacement_cost <= threshold + 1e-9:
            pruned.add(classifier)

    # Small-budget protection: a query whose every cover from the retained
    # classifiers exceeds the budget re-protects its pruned classifiers.
    retained = allowed - pruned
    for query in workload.queries:
        candidates = [
            (c, workload.cost(c)) for c in powerset_classifiers(query) if c in retained
        ]
        found = cheapest_residual_cover(query, candidates, set(), compiled)
        if found is None or found[0] > budget + 1e-9:
            for c in powerset_classifiers(query):
                if c in pruned:
                    pruned.discard(c)
                    retained.add(c)
    return frozenset(retained)


#: Rank of the spectral approximation behind the leverage scores.
LEVERAGE_RANK = 8


def leverage_scores(graph: WeightedGraph, rank: int = LEVERAGE_RANK) -> Dict[Node, float]:
    """Weighted leverage score of each node from a rank-``k`` eigenbasis.

    Score of node ``i`` is ``sum_j lambda_j * v_j(i)^2`` over the top
    ``rank`` eigenpairs (by absolute eigenvalue) of the weighted adjacency
    matrix — the spectral mass the node carries.
    """
    nodes = list(graph.nodes)
    n = len(nodes)
    if n == 0:
        return {}
    index = {u: i for i, u in enumerate(nodes)}
    rank = max(1, min(rank, n - 1 if n > 1 else 1))

    if n <= 3 or graph.num_edges() == 0:
        return {u: graph.weighted_degree(u) for u in nodes}

    try:
        from scipy.sparse import coo_matrix
        from scipy.sparse.linalg import eigsh

        rows, cols, vals = [], [], []
        for u, v, w in graph.edges():
            rows.extend((index[u], index[v]))
            cols.extend((index[v], index[u]))
            vals.extend((w, w))
        matrix = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        k = min(rank, n - 2)
        # Fixed ARPACK start vector: the default draws from numpy's global
        # RNG, which both advances shared state and makes near-tie
        # selections vary between otherwise identical runs.
        v0 = np.random.RandomState(0).uniform(-1.0, 1.0, n)
        eigenvalues, vectors = eigsh(
            matrix.asfptype(), k=max(1, k), which="LM", v0=v0
        )
    except Exception:
        dense = np.zeros((n, n))
        for u, v, w in graph.edges():
            dense[index[u], index[v]] = w
            dense[index[v], index[u]] = w
        eigenvalues, vectors = np.linalg.eigh(dense)
        order = np.argsort(-np.abs(eigenvalues))[:rank]
        eigenvalues, vectors = eigenvalues[order], vectors[:, order]

    scores = (vectors**2) @ np.abs(eigenvalues)
    return {u: float(scores[index[u]]) for u in nodes}


def prune_qk_graph(
    graph: WeightedGraph, config: Optional[PruningConfig] = None
) -> WeightedGraph:
    """Drop the negligible-leverage tail of a QK graph's nodes.

    Nodes are ranked by leverage; the smallest-score tail whose cumulative
    share is below ``1 - leverage_keep`` is removed together with its
    edges.  Returns a (possibly) smaller copy; the input is not modified.
    """
    config = config or PruningConfig()
    if len(graph) < max(5, config.leverage_min_nodes):
        return graph.copy()
    scores = leverage_scores(graph)
    total = sum(scores.values())
    if total <= 0:
        return graph.copy()
    ranked = sorted(scores, key=lambda u: scores[u])
    budget_mass = (1.0 - config.leverage_keep) * total
    dropped: Set[Node] = set()
    accumulated = 0.0
    for node in ranked:
        accumulated += scores[node]
        if accumulated > budget_mass:
            break
        dropped.add(node)
    if not dropped:
        return graph.copy()
    return graph.subgraph([u for u in graph.nodes if u not in dropped])
