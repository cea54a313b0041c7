"""``A_T^QK`` — the worst-case ``Õ(n^{1/3})`` QK algorithm (Lemma 4.6).

A reproduction of the modified Taylor [62] algorithm the paper describes:

1. *Normalization* — edge weights are rescaled by ``w_max / n^2``; edges
   below weight 1 are dropped (loses a factor <= 2); weights round down and
   node costs round up to powers of two; the budget rounds down.
2. *Partition* — edges split into classes ``G_{i,j,t}`` by endpoint cost
   classes ``(2^i, 2^j)`` and weight class ``2^t``; each class is solved
   separately and the best class solution wins (loses ``O(log^3 n)``).
3. *Uniform classes* (``i = j``) — the budget becomes a cardinality bound
   and a DkS engine applies directly.
4. *Bipartite classes* (``i > j``) — after dividing by ``2^j`` the left
   side costs 1 and the right side costs ``w = 2^{i-j}``; we run the three
   procedures and keep the best:

   - **P1**: top ``B/(2w)`` right nodes by degree, then the top ``B/2``
     left nodes by degree into them — an ``O(n/B)`` approximation.
   - **P2**: blow each right node into ``w`` unit copies, run DkS with
     ``k = B``, keep the selected left nodes, and spend the remaining
     budget on the right nodes with the highest degree into them — an
     ``Õ((nw)^{1/4})`` approximation.
   - **P3** (the paper's modification): the highest-degree right node plus
     as many of its left neighbors as fit — an ``O(B/w)`` approximation.

   Together: ``O(min(n/B, (nw)^{1/4}, B/w)) = Õ(n^{1/3})``.

The paper itself concludes ``A_T^QK`` is impractical and worst-case
oriented; it is reproduced here for completeness and as an ablation
baseline against ``A_H^QK``.  The DkS engine substitutes our portfolio for
the Bhaskara et al. algorithm (see DESIGN.md).
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.dks.portfolio import HksPortfolio
from repro.graphs.blowup import BlowupGraph
from repro.graphs.graph import Node, WeightedGraph
from repro.graphs.indexed import IndexedGraph
from repro.qk.heuristic import _greedy_fill

# P2 blow-up guard: skip the procedure when it would explode.
_MAX_P2_COPIES = 30_000


def _normalized_classes(
    graph: WeightedGraph, budget: float
) -> Tuple[Dict[Tuple[int, int, int], List[Tuple[Node, Node]]], Dict[Node, int], int]:
    """Partition edges into ``G_{i,j,t}`` classes.

    Returns (edge classes, power-of-two scaled node costs, scaled budget).
    """
    n = max(len(graph), 2)
    weights = [w for _, _, w in graph.edges()]
    if not weights:
        return {}, {}, 0
    w_max = max(weights)
    weight_unit = w_max / (n * n)

    cost_unit = budget / n
    scaled_cost: Dict[Node, int] = {}
    for node in graph.nodes:
        cost = graph.cost(node) / cost_unit
        power = max(0, math.ceil(math.log2(cost))) if cost > 1 else 0
        scaled_cost[node] = 2**power
    scaled_budget = 2 ** int(math.floor(math.log2(n)))

    classes: Dict[Tuple[int, int, int], List[Tuple[Node, Node]]] = {}
    for u, v, w in graph.edges():
        normalized = w / weight_unit
        if normalized < 1.0:
            continue  # pruned light edge
        t = int(math.floor(math.log2(normalized)))
        cu, cv = scaled_cost[u], scaled_cost[v]
        i, j = int(math.log2(max(cu, cv))), int(math.log2(min(cu, cv)))
        classes.setdefault((i, j, t), []).append((u, v))
    return classes, scaled_cost, scaled_budget


def _class_subgraph(
    graph: WeightedGraph, edges: List[Tuple[Node, Node]], scaled_cost: Dict[Node, int]
) -> WeightedGraph:
    sub = WeightedGraph()
    for u, v in edges:
        for node in (u, v):
            if node not in sub:
                sub.add_node(node, float(scaled_cost[node]))
        sub.add_edge(u, v, graph.weight(u, v))
    return sub


def _procedure_p1(
    sub: WeightedGraph, left: List[Node], right: List[Node], w: int, budget: int
) -> Set[Node]:
    take_right = max(1, budget // (2 * w))
    ranked_right = sorted(right, key=lambda u: (-sub.degree(u), repr(u)))
    r_chosen = set(ranked_right[:take_right])
    take_left = max(1, budget // 2)
    ranked_left = sorted(
        left,
        key=lambda u: (-sum(1 for x in sub.neighbors(u) if x in r_chosen), repr(u)),
    )
    l_chosen = set(ranked_left[:take_left])
    return l_chosen | r_chosen


def _procedure_p2(
    sub: WeightedGraph,
    left: List[Node],
    right: List[Node],
    w: int,
    budget: int,
    dks: HksPortfolio,
) -> Optional[Set[Node]]:
    if len(left) + len(right) * w > _MAX_P2_COPIES:
        return None
    unit = WeightedGraph()
    for u in left:
        unit.add_node(u, 1.0)
    for v in right:
        unit.add_node(v, float(w))
    for u, v, weight in sub.edges():
        unit.add_edge(u, v, weight)
    blown = BlowupGraph(unit)
    k = min(budget, blown.size())
    selection = dks.solve(blown.graph, k)
    counts = blown.group_selection(selection)
    l_chosen = {u for u in left if counts.get(u, 0) > 0}
    spent = len(l_chosen)
    remaining = max(0, budget - spent)
    take_right = remaining // w
    ranked_right = sorted(
        right,
        key=lambda v: (-sum(1 for x in sub.neighbors(v) if x in l_chosen), repr(v)),
    )
    return l_chosen | set(ranked_right[:take_right])


def _procedure_p3(
    sub: WeightedGraph, left: List[Node], right: List[Node], w: int, budget: int
) -> Optional[Set[Node]]:
    if not right or budget < w:
        return None
    star = max(right, key=lambda v: (sub.degree(v), repr(v)))
    remaining = budget - w
    neighbors = sorted(sub.neighbors(star), key=repr)
    return {star} | set(neighbors[: max(0, remaining)])


def solve_qk_taylor(
    graph: WeightedGraph,
    budget: float,
    dks: Optional[HksPortfolio] = None,
    seed: int = 0,
) -> FrozenSet[Node]:
    """Solve QK with the worst-case-oriented ``A_T^QK`` algorithm."""
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    dks = dks or HksPortfolio(seed=seed)

    work = WeightedGraph()
    for node in graph.nodes:
        cost = graph.cost(node)
        if not math.isinf(cost) and cost <= budget + 1e-9:
            work.add_node(node, cost)
    for u, v, w in graph.edges():
        if u in work and v in work:
            work.add_edge(u, v, w)
    zero = {v for v in work.nodes if work.cost(v) == 0.0}
    if budget == 0 or len(work) == 0:
        return frozenset(zero)

    classes, scaled_cost, scaled_budget = _normalized_classes(work, budget)

    candidates: List[Set[Node]] = [set(zero)]
    for (i, j, t), edges in classes.items():
        sub = _class_subgraph(work, edges, scaled_cost)
        if i == j:
            node_cost = 2**i
            k = scaled_budget // node_cost
            if k >= 1:
                selection = dks.solve(IndexedGraph.from_graph(sub), min(k, len(sub)))
                candidates.append(set(selection))
            continue
        w = 2 ** (i - j)
        class_budget = scaled_budget // (2**j)
        left = [u for u in sub.nodes if scaled_cost[u] == 2**j]
        right = [u for u in sub.nodes if scaled_cost[u] == 2**i]
        candidates.append(_procedure_p1(sub, left, right, w, class_budget))
        p2 = _procedure_p2(sub, left, right, w, class_budget, dks)
        if p2 is not None:
            candidates.append(p2)
        p3 = _procedure_p3(sub, left, right, w, class_budget)
        if p3 is not None:
            candidates.append(p3)

    def trim(selection: Set[Node]) -> Set[Node]:
        """Drop lowest-contribution nodes until the true budget holds."""
        chosen = set(selection) | zero
        while sum(work.cost(v) for v in chosen) > budget + 1e-9:
            victim = min(
                (v for v in chosen if work.cost(v) > 0),
                key=lambda v: (
                    work.weighted_degree(v, within=chosen) / work.cost(v),
                    repr(v),
                ),
            )
            chosen.discard(victim)
        return chosen

    best: Set[Node] = set(zero)
    best_weight = work.induced_weight(best)
    for candidate in candidates:
        feasible = trim(candidate)
        weight = work.induced_weight(feasible)
        if weight > best_weight:
            best_weight = weight
            best = feasible

    return frozenset(_greedy_fill(work, best, budget - sum(work.cost(v) for v in best)))
