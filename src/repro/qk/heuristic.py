"""``A_H^QK`` — the paper's practical Quadratic Knapsack heuristic (Section 4.1).

Pipeline (mirroring the paper, with each stage a private helper below):

1. **Preprocessing** — zero-cost nodes are always selected; nodes costing
   more than ``B`` are pruned; *expensive* nodes (cost in ``[B/2, B]``) are
   handled by enumeration since an optimal solution holds at most two of
   them: we try pairs of expensive nodes, single expensive nodes combined
   with a recursive solve over the cheap residual graph, and the purely
   cheap solve.
2. **Integer cost scaling** — costs are rounded up to multiples of a
   granularity ``g`` chosen so the scaled budget (= number of unit copies)
   stays small; ceiling-rounding keeps every scaled-feasible set feasible
   under the true costs.
3. **Random bipartition** — ``log n`` independent splits; only crossing
   edges are kept (loses at most a factor 2 w.h.p.).
4. **Blow-up + HkS** — each node becomes ``c(v)`` unit copies and the HkS
   engine runs with ``k = B/2`` copies (half the budget is reserved for the
   completion step, Theorem 4.7).
5. **Copy redistribution** — because all copies of a node have identical
   per-copy weighted degree, the paper's two-phase swapping procedure is
   equivalent to refilling each side's copy mass into its nodes in
   decreasing per-copy-degree order, leaving at most one partially selected
   node per side; the induced weight never decreases.
6. **Final selection** — the paper's case analysis (complete the partials
   if affordable; otherwise case I drops them / case II keeps only the two
   partial nodes).  We evaluate *all* of these candidates on the true graph
   and keep the best, which dominates the paper's case split.
7. **Greedy top-up** — leftover true budget is spent on the nodes with the
   best marginal weight per cost (harmless, strictly improving).

Preselected nodes (zero-cost or an enumerated expensive node) contribute
*bonuses* to their neighbors; bonuses enter the HkS instance through a
single virtual unit-cost node connected with the bonus weights.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.dks.portfolio import HksPortfolio
from repro.graphs.bipartite import bipartition_rounds, random_bipartition
from repro.graphs.blowup import BlowupGraph
from repro.graphs.graph import Node, WeightedGraph, node_repr as _node_repr

_BONUS_NODE = ("__bonus__",)

@dataclass
class QKConfig:
    """Tuning knobs for ``A_H^QK``.

    Attributes:
        hks: the HkS engine (defaults to the full portfolio).
        rounds: random-bipartition repetitions (0 = ``ceil(log2 n)``).
        seed: RNG seed (bipartitions and engine restarts).
    """

    hks: HksPortfolio = field(default_factory=HksPortfolio)
    rounds: int = 0
    seed: int = 0


#: Single-expensive-node residual solves to run.  The paper runs one per
#: expensive node; the cap is a documented deviation for scalability.
MAX_EXPENSIVE_SOLVES = 4

#: Cap on enumerated expensive pairs.
MAX_EXPENSIVE_PAIRS = 400


def _bonuses(
    graph: WeightedGraph, preselected: Iterable[Node], candidates: Iterable[Node]
) -> Dict[Node, float]:
    """Edge weight each candidate gains from already-selected nodes."""
    chosen = set(preselected)
    bonus: Dict[Node, float] = {}
    for v in candidates:
        total = sum(w for u, w in graph.neighbors(v).items() if u in chosen)
        if total > 0:
            bonus[v] = total
    return bonus


def _value(
    graph: WeightedGraph, bonuses: Dict[Node, float], selection: Set[Node]
) -> float:
    return graph.induced_weight(selection) + sum(
        bonuses.get(v, 0.0) for v in selection
    )


def _scaled_graph(
    graph: WeightedGraph,
    budget: float,
    nodes: Iterable[Node],
    bonuses: Dict[Node, float],
    target_copies: int,
) -> Tuple[WeightedGraph, int]:
    """Integer-cost copy of ``graph`` plus the virtual bonus node.

    Costs are rounded *up* to multiples of a granularity ``g`` so that
    scaled feasibility implies true feasibility.  ``g`` is the minimum
    positive cost when the copy budget allows (then near-uniform costs
    scale *exactly*), clamped to ``[budget / target_copies, budget / 16]``
    so the blow-up stays bounded while keeping at least ~16 budget steps
    of resolution.  Returns the scaled graph and the scaled budget.
    """
    node_list = list(nodes)
    finest = budget / target_copies
    positive = [graph.cost(v) for v in node_list if graph.cost(v) > 0]
    anchor = min(positive) if positive else budget / 8.0
    granularity = max(anchor, finest)
    if budget / granularity < 8:
        # Too few budget steps (min cost near the budget scale): refine so
        # the scaled budget keeps at least ~8 units of resolution.
        granularity = max(finest, budget / 8.0)
    # The blow-up size is the total scaled cost, not the scaled budget:
    # coarsen if the copy count would exceed the target.
    total_copies = sum(
        max(1, math.ceil(graph.cost(v) / granularity - 1e-9)) for v in node_list
    )
    if total_copies > target_copies:
        granularity *= total_copies / target_copies
    nodes = node_list
    scaled = WeightedGraph()
    scaled_budget = int(math.floor(budget / granularity + 1e-9))
    kept: List[Node] = []
    for node in nodes:
        scaled_cost = max(1, int(math.ceil(graph.cost(node) / granularity - 1e-9)))
        if scaled_cost <= scaled_budget:
            scaled.add_node(node, float(scaled_cost))
            kept.append(node)
    kept_set = set(kept)
    scaled.add_edges(
        (u, v, w)
        for u, v, w in graph.edges()
        if u in kept_set and v in kept_set
    )
    if any(bonuses.get(v, 0.0) > 0 for v in kept):
        scaled.add_node(_BONUS_NODE, 1.0)
        scaled_budget += 1  # the virtual node must not eat real budget
        for v in kept:
            bonus = bonuses.get(v, 0.0)
            if bonus > 0:
                scaled.add_edge(_BONUS_NODE, v, bonus)
    return scaled, scaled_budget


def _per_copy_degree(
    scaled: WeightedGraph, node: Node, counts: Dict[Node, int]
) -> float:
    """Weighted degree of one copy of ``node`` into the selected copies."""
    own_cost = scaled.cost(node)
    total = 0.0
    for neighbor, weight in scaled.neighbors(node).items():
        selected = counts.get(neighbor, 0)
        if selected:
            total += weight * selected / (own_cost * scaled.cost(neighbor))
    return total


def _refill_side(
    scaled: WeightedGraph,
    side_nodes: List[Node],
    counts: Dict[Node, int],
    other_counts: Dict[Node, int],
) -> None:
    """Redistribute one side's copy mass by decreasing per-copy degree.

    Equivalent to the paper's two swap phases: at most one node per side
    remains partially selected and the induced weight never decreases.
    """
    mass = sum(counts.get(u, 0) for u in side_nodes)
    if mass == 0:
        return
    ranked = sorted(
        side_nodes,
        key=lambda u: (-_per_copy_degree(scaled, u, other_counts), _node_repr(u)),
    )
    for u in side_nodes:
        counts[u] = 0
    for u in ranked:
        if mass <= 0:
            break
        capacity = int(scaled.cost(u))
        take = min(capacity, mass)
        counts[u] = take
        mass -= take


def _core_candidates(
    scaled: WeightedGraph,
    scaled_budget: int,
    config: QKConfig,
    rng: random.Random,
) -> List[Set[Node]]:
    """Run bipartition -> blow-up -> HkS -> redistribution -> case analysis.

    Returns candidate selections over the *scaled* graph's nodes (the
    virtual bonus node may appear; callers strip it).
    """
    n = len(scaled)
    if n == 0 or scaled_budget <= 0:
        return []
    # Auto mode caps the paper's log(n) repetitions at 4: the whp bound is
    # a worst-case device and in practice a handful of splits suffice.
    rounds = config.rounds if config.rounds > 0 else min(4, bipartition_rounds(n))
    candidates: List[Set[Node]] = []
    for _ in range(rounds):
        split = random_bipartition(scaled, rng)
        if split.graph.num_edges() == 0:
            continue
        blown = BlowupGraph(split.graph)
        k = max(1, scaled_budget // 2)
        selection = config.hks.solve(blown.graph, min(k, blown.size()))
        counts = blown.group_selection(selection)

        left = [u for u in split.left if u in split.graph]
        right = [u for u in split.right if u in split.graph]
        _refill_side(split.graph, left, counts, counts)
        _refill_side(split.graph, right, counts, counts)

        full = {
            u for u, taken in counts.items() if taken >= int(split.graph.cost(u))
        }
        partial = [
            u
            for u, taken in counts.items()
            if 0 < taken < int(split.graph.cost(u))
        ]
        used = sum(counts.values())
        leftover = scaled_budget - used

        candidates.append(set(full))
        if partial:
            # Complete as many partials as the reserved half-budget allows,
            # richer-degree first; also consider each completion separately
            # and (case II) the partial pair alone.
            partial.sort(
                key=lambda u: (-_per_copy_degree(split.graph, u, counts), _node_repr(u))
            )
            budget_left = leftover
            completed = set(full)
            for u in partial:
                need = int(split.graph.cost(u)) - counts[u]
                if need <= budget_left:
                    completed.add(u)
                    budget_left -= need
            candidates.append(completed)
            for u in partial:
                need = int(split.graph.cost(u)) - counts[u]
                if need <= leftover:
                    candidates.append(set(full) | {u})
            if len(partial) == 2:
                candidates.append(set(partial))
    return candidates


def _greedy_fill(
    graph: WeightedGraph,
    start: Set[Node],
    budget_left: float,
    bonuses: Optional[Dict[Node, float]] = None,
) -> Set[Node]:
    """Greedy marginal-weight-per-cost filling with a lazy max-heap.

    Considers single nodes AND whole edges (both endpoints at once — a
    fresh 2-cover has zero single-node marginal gain, so a node-only
    greedy would never start one).  Gains only grow as the selection
    grows, and every growth pushes a fresh heap entry, so stale entries
    can be discarded on pop.  ``bonuses`` adds selection-independent value
    to nodes (used for preselected-neighbor credit).
    """
    import heapq

    bonuses = bonuses or {}
    selection = set(start)
    remaining = budget_left
    gain: Dict[Node, float] = {}
    for v in graph.nodes:
        if v not in selection:
            gain[v] = graph.weighted_degree(v, within=selection) + bonuses.get(v, 0.0)

    heap: list = []

    def push_node(v: Node) -> None:
        g = gain[v]
        if g <= 0:
            return
        cost = graph.cost(v)
        ratio = g / cost if cost > 0 else math.inf
        heapq.heappush(heap, (-ratio, 1, _node_repr(v), "n", v, g))

    def push_edge(u: Node, v: Node) -> None:
        if u in selection or v in selection:
            return
        g = graph.weight(u, v) + gain[u] + gain[v]
        if g <= 0:
            return
        cost = graph.cost(u) + graph.cost(v)
        ratio = g / cost if cost > 0 else math.inf
        heapq.heappush(heap, (-ratio, 0, _node_repr(u) + _node_repr(v), "e", (u, v), g))

    for v in gain:
        push_node(v)
    for u, v, _ in graph.edges():
        push_edge(u, v)

    def add(x: Node) -> None:
        nonlocal remaining
        selection.add(x)
        remaining -= graph.cost(x)
        for neighbor, weight in graph.neighbors(x).items():
            if neighbor in selection:
                continue
            gain[neighbor] += weight
            push_node(neighbor)
            for other in graph.neighbors(neighbor):
                if other not in selection and other != x:
                    push_edge(neighbor, other)

    while heap and remaining > 1e-9:
        _, _, _, kind, payload, pushed_gain = heapq.heappop(heap)
        if kind == "n":
            v = payload
            if v in selection or gain[v] != pushed_gain or gain[v] <= 0:
                continue  # selected or stale (a fresher entry exists)
            if graph.cost(v) > remaining + 1e-9:
                continue  # the budget only shrinks: never affordable again
            add(v)
        else:
            u, v = payload
            if u in selection or v in selection:
                continue
            current = graph.weight(u, v) + gain[u] + gain[v]
            if current != pushed_gain or current <= 0:
                continue
            if graph.cost(u) + graph.cost(v) > remaining + 1e-9:
                continue  # the single-node entries remain available
            add(u)
            add(v)
    return selection


def _solve_core(
    graph: WeightedGraph,
    budget: float,
    preselected: Set[Node],
    all_nodes_graph: WeightedGraph,
    config: QKConfig,
    rng: random.Random,
) -> Set[Node]:
    """Best selection from ``graph`` (cheap nodes only) within ``budget``.

    ``all_nodes_graph`` still contains ``preselected`` so bonuses can be
    computed; the returned set contains only nodes of ``graph``.
    """
    if budget <= 0 or len(graph) == 0:
        return set()
    bonuses = _bonuses(all_nodes_graph, preselected, graph.nodes)
    # Cap on the blow-up's unit copies.
    target = min(max(2 * len(graph), 256), 8192)
    scaled, scaled_budget = _scaled_graph(
        graph, budget, graph.nodes, bonuses, target
    )
    raw_candidates = _core_candidates(scaled, scaled_budget, config, rng)
    best: Set[Node] = set()
    best_value = 0.0
    for candidate in raw_candidates:
        candidate.discard(_BONUS_NODE)
        cost = sum(graph.cost(v) for v in candidate)
        if cost > budget + 1e-9:
            continue
        value = _value(graph, bonuses, candidate)
        if value > best_value:
            best_value = value
            best = candidate
    return _greedy_fill(
        graph,
        best,
        budget - sum(graph.cost(v) for v in best),
        bonuses,
    )


def solve_qk(
    graph: WeightedGraph, budget: float, config: Optional[QKConfig] = None
) -> FrozenSet[Node]:
    """Solve Quadratic Knapsack with ``A_H^QK``.

    Returns a node set whose total cost is within ``budget``, chosen to
    (heuristically) maximize the induced edge weight.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    config = config or QKConfig()
    rng = random.Random(config.seed)

    work = WeightedGraph()
    for node in graph.nodes:
        cost = graph.cost(node)
        if not math.isinf(cost) and cost <= budget + 1e-9:
            work.add_node(node, cost)
    for u, v, w in graph.edges():
        if u in work and v in work:
            work.add_edge(u, v, w)

    zero = {v for v in work.nodes if work.cost(v) == 0.0}
    expensive = [
        v for v in work.nodes if v not in zero and work.cost(v) >= budget / 2.0
    ]
    cheap_nodes = [
        v for v in work.nodes if v not in zero and work.cost(v) < budget / 2.0
    ]
    cheap = work.subgraph(cheap_nodes)

    def evaluate(selection: Set[Node]) -> Tuple[float, float]:
        full = selection | zero
        return work.induced_weight(full), sum(work.cost(v) for v in selection)

    candidates: List[Set[Node]] = [set()]

    # Expensive pairs (an optimal solution has at most two expensive nodes,
    # and with two of them it has nothing else).
    ranked_expensive = sorted(
        expensive, key=lambda v: (-work.weighted_degree(v), _node_repr(v))
    )
    pair_pool = ranked_expensive[: max(2, int(math.isqrt(MAX_EXPENSIVE_PAIRS * 2)))]
    pairs_tried = 0
    for i in range(len(pair_pool)):
        for j in range(i + 1, len(pair_pool)):
            if pairs_tried >= MAX_EXPENSIVE_PAIRS:
                break
            u, v = pair_pool[i], pair_pool[j]
            if work.cost(u) + work.cost(v) <= budget + 1e-9:
                candidates.append({u, v})
                pairs_tried += 1

    # Single expensive node + residual solve over the cheap subgraph.
    for v in ranked_expensive[:MAX_EXPENSIVE_SOLVES]:
        candidates.append({v})
        residual_budget = budget - work.cost(v)
        extra = _solve_core(cheap, residual_budget, zero | {v}, work, config, rng)
        candidates.append(extra | {v})

    # No expensive node at all.
    candidates.append(_solve_core(cheap, budget, zero, work, config, rng))

    best: Set[Node] = set()
    best_weight = -1.0
    for candidate in candidates:
        weight, cost = evaluate(candidate)
        if cost <= budget + 1e-9 and weight > best_weight:
            best_weight = weight
            best = candidate

    # Top up the best structural candidate AND run pure greedy from
    # scratch; keep the heavier.  The latter guarantees the heuristic
    # never falls below the natural node/edge greedy on the instance.
    topped = _greedy_fill(
        work,
        set(best) | zero,
        budget - sum(work.cost(v) for v in best),
    )
    greedy_only = _greedy_fill(work, set(zero), budget)
    if work.induced_weight(greedy_only) > work.induced_weight(topped):
        topped = greedy_only
    best = topped - zero

    return frozenset(best | zero)
