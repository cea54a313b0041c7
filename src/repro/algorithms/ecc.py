"""``A^ECC`` — maximize utility/cost ratio via densest-subgraph reductions.

Theorem 5.4's construction, reproduced in full:

- **Graph reduction (l <= 2)** — singleton classifiers are nodes weighted
  by cost; a pair query ``xy`` is the edge ``(X, Y)`` weighted by its
  utility; a special zero-cost node ``v*`` hosts an edge ``(X, v*)`` per
  singleton query ``x``.  Solved *exactly* by parametric min-cut.
- **Hypergraph reduction (any l)** — classifiers of length <= l-1 are
  nodes; every minimal cover of a query is a hyperedge with the query's
  utility (the O(1) overcount per query is why this arm is O(1)-approx).
  Solved by greedy peeling, as in the paper's own experiments.
- **Single long classifier** — the best ratio among classifiers identical
  to a query (the solution family the reductions cannot express).

All arms are re-scored with true coverage semantics and the best true
ratio wins.
"""

from __future__ import annotations

import math
from typing import FrozenSet, List, Optional, Tuple

from repro.core.coverage import minimal_covers
from repro.core.model import Classifier, ECCInstance, powerset_classifiers
from repro.core.solution import Solution, evaluate
from repro.densest import solve_densest_exact, solve_densest_peeling
from repro.graphs.graph import WeightedGraph
from repro.graphs.hypergraph import Hypergraph

_VSTAR = ("__vstar__",)


def _graph_arm(instance: ECCInstance) -> Optional[FrozenSet[Classifier]]:
    """Exact DS over the singleton-classifier graph (length <= 2 queries)."""
    graph = WeightedGraph()
    graph.add_node(_VSTAR, 0.0)
    added_edges = 0
    for query in instance.queries:
        if len(query) > 2:
            continue
        utility = instance.utility(query)
        endpoints = []
        feasible = True
        for prop in query:
            classifier = frozenset({prop})
            cost = instance.cost(classifier)
            if math.isinf(cost):
                feasible = False
                break
            if classifier not in graph:
                graph.add_node(classifier, cost)
            endpoints.append(classifier)
        if not feasible:
            continue
        if len(endpoints) == 1:
            graph.add_edge(endpoints[0], _VSTAR, utility)
        else:
            graph.add_edge(endpoints[0], endpoints[1], utility)
        added_edges += 1
    if added_edges == 0:
        return None
    _, selection = solve_densest_exact(graph)
    return frozenset(c for c in selection if c != _VSTAR)


def _hypergraph_arm(
    instance: ECCInstance, max_cover_size: Optional[int] = None
) -> Optional[FrozenSet[Classifier]]:
    """Greedy DS over the minimal-cover hypergraph (all query lengths)."""
    hypergraph = Hypergraph()
    length = instance.length
    added = 0
    for query in instance.queries:
        utility = instance.utility(query)
        available = [
            c
            for c in powerset_classifiers(query)
            if len(c) <= max(1, length - 1) or len(query) == 1
            if not math.isinf(instance.cost(c))
        ]
        for cover in minimal_covers(query, available=available, max_size=max_cover_size):
            for classifier in cover:
                if classifier not in hypergraph:
                    hypergraph.add_node(classifier, instance.cost(classifier))
            hypergraph.add_edge(cover, utility)
            added += 1
    if added == 0:
        return None
    _, selection = solve_densest_peeling(hypergraph)
    return frozenset(selection)


def _single_classifier_arm(instance: ECCInstance) -> Optional[FrozenSet[Classifier]]:
    """The best single classifier identical to a query."""
    best: Optional[Classifier] = None
    best_ratio = -1.0
    for query in instance.queries:
        cost = instance.cost(query)
        if math.isinf(cost):
            continue
        utility = instance.utility(query)
        ratio = math.inf if cost == 0 else utility / cost
        if ratio > best_ratio:
            best_ratio = ratio
            best = query
    return frozenset({best}) if best is not None else None


def _compress(instance: ECCInstance, selection: FrozenSet[Classifier]) -> FrozenSet[Classifier]:
    """Re-cover the same queries at minimum cost (drops the overcounted
    redundancy the hypergraph reduction introduces)."""
    from repro.core.coverage import covered_queries
    from repro.mc3 import InfeasibleCoverError, solve_mc3

    covered = covered_queries(instance, selection)
    if not covered:
        return selection
    try:
        compressed = solve_mc3(instance, queries=covered)
    except InfeasibleCoverError:
        return selection
    return compressed


def solve_ecc(instance: ECCInstance) -> Solution:
    """Run ``A^ECC`` and return the evaluated best-ratio solution."""
    arms: List[Tuple[str, Optional[FrozenSet[Classifier]]]] = [
        ("graph-exact", _graph_arm(instance)),
        ("hypergraph-peeling", _hypergraph_arm(instance)),
        ("single-classifier", _single_classifier_arm(instance)),
    ]
    best: Optional[Solution] = None
    for name, selection in arms:
        if not selection:
            continue
        for variant, chosen in (
            (name, selection),
            (name + "+mc3", _compress(instance, selection)),
        ):
            candidate = evaluate(
                instance, chosen, meta={"algorithm": "A^ECC", "arm": variant}
            )
            if best is None or candidate.ratio > best.ratio:
                best = candidate
    if best is None:
        best = evaluate(instance, [], meta={"algorithm": "A^ECC", "arm": "empty"})
    return best
