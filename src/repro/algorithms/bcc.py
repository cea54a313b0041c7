"""``A^BCC`` — Algorithm 1 of the paper.

High-level scheme (verbatim from the paper):

1. preprocessing: apply two pruning methods to reduce the classifier set;
2. allocate half of the budget to solve the BCC(1) and BCC(2) subproblems
   via the algorithm for ``BCC_{l=2}`` (Knapsack + ``A_H^QK``);
3. test whether the produced solution can be improved cost-wise via the
   MC3 algorithm of [23] (a local-search optimization);
4.-6. while the budget allows covering more queries: compute the residual
   problem and repeat steps 2-3 with the *remaining* budget.

Free (zero-cost) classifiers are selected up front; every candidate
extension is re-scored with true coverage semantics before acceptance, so
the Knapsack/QK objective overcounts can never inflate the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.algorithms.pruning import PruningConfig, prune_classifiers, prune_qk_graph
from repro.algorithms.residual import ResidualProblem
from repro.core.bitset import active_engine
from repro.core.model import BCCInstance, Classifier, Query
from repro.core.solution import Solution, evaluate
from repro.knapsack.solvers import solve_knapsack
from repro.mc3 import InfeasibleCoverError, solve_mc3
from repro.profile import current_profiler, phase
from repro.qk import QKConfig, solve_qk


@dataclass
class AbccConfig:
    """Tuning knobs for ``A^BCC``.

    Attributes:
        qk: configuration of the inner ``A_H^QK`` solver.
        pruning: preprocessing configuration (line 1); ``None`` disables
            preprocessing entirely (the Figure 3e/3f ablation).
        use_mc3: run the MC3 local-search improvement (line 3).
        max_rounds: hard cap on residual iterations.
        final_polish: run the bounded swap polish on the final selection.
    """

    qk: QKConfig = field(default_factory=QKConfig)
    pruning: Optional[PruningConfig] = field(default_factory=PruningConfig)
    use_mc3: bool = True
    max_rounds: int = 12
    final_polish: bool = True


#: Budget share of the first BCC(1)/BCC(2) round (Algorithm 1, line 2: half
#: the budget, saving the rest for the residual rounds).
FIRST_ROUND_FRACTION = 0.5

#: The cover-greedy arm runs in a round only when at least this share of
#: the uncovered utility sits in queries whose missing set has three or
#: more properties (the covers the Knapsack and QK arms cannot express).
#: On short-query workloads the arm is unnecessary and its greedy picks
#: can derail the Knapsack/QK trajectory.
COVER_ARM_THRESHOLD = 0.08

#: Cap on the swap trials of the final swap polish.
POLISH_EVAL_CAP = 400


_SINGLETON_BONUS = ("__singleton_bonus__",)


def _augment_with_singleton_bonus(residual, graph, budget: float):
    """Attach 1-cover utilities to the QK graph via a zero-cost virtual node.

    For each uncovered query ``q`` with missing set ``M`` and each usable
    classifier ``c`` with ``M ⊆ c ⊆ q``, an edge (virtual, c) of weight
    ``U(q)`` is added — classifiers not yet in the graph join it with
    their cost.  ``solve_qk`` always selects zero-cost nodes, so these
    edges act as node bonuses inside the HkS engine, letting one QK run
    optimize 1-cover and 2-cover gains jointly: the singleton/pair
    synergy the paper observes ("the QK solution also tends to cover many
    popular queries of length 1").  Candidate picks are still scored with
    true coverage.
    """
    bonus_edges = []
    for query in residual.uncovered_queries():
        missing = residual.missing(query)
        utility = residual.workload.utility(query)
        # Credit exactly the two residual 1-covers the paper's construction
        # uses (the full query classifier and the missing-set classifier);
        # crediting intermediate supersets of M(q) invites greedy traps.
        for classifier in {query, missing}:
            if classifier and (
                classifier in graph or residual.usable(classifier, budget)
            ):
                bonus_edges.append((classifier, utility))
    if not bonus_edges:
        return graph
    augmented = graph.copy()
    augmented.add_node(_SINGLETON_BONUS, 0.0)
    for classifier, utility in bonus_edges:
        if classifier not in augmented:
            augmented.add_node(classifier, residual.workload.cost(classifier))
        augmented.add_edge(_SINGLETON_BONUS, classifier, utility)
    return augmented


def _cover_greedy_pick(
    residual: ResidualProblem, budget: float
) -> FrozenSet[Classifier]:
    """Greedy whole-cover selection on the residual problem.

    Repeatedly buys the uncovered query's cheapest residual minimal cover
    with the best utility-per-incremental-cost ratio until the budget is
    exhausted.  Uses the same minimal-cover search as the MC3 greedy; a
    lazy heap re-validates each query's cached cover on pop (costs only
    drop as classifiers accumulate).  It reaches covers of three or more
    classifiers in one step, which the Knapsack/QK split only reaches
    after residual unlocking — important on sparse workloads with long
    queries.

    Entries popped while unaffordable are *parked*, not dropped: a later
    purchase can make cover members free (or cover missing properties),
    shrinking the cover's residual cost, so parked entries re-enter the
    heap after every purchase and late-affordable covers are still bought.
    """
    import heapq

    from repro.core.model import powerset_classifiers
    from repro.mc3.greedy import cheapest_residual_cover

    workload = residual.workload
    compiled = workload.compiled() if active_engine() == "bits" else None
    picked: Set[Classifier] = set()
    covered_props: Dict[Query, Set[str]] = {
        q: set(q) - set(residual.missing(q)) for q in residual.uncovered_queries()
    }
    remaining = budget

    def cover_of(query):
        candidates = []
        for classifier in powerset_classifiers(query):
            if classifier in picked or residual.tracker.is_selected(classifier):
                candidates.append((classifier, 0.0))
            elif residual.usable(classifier, budget):
                candidates.append((classifier, workload.cost(classifier)))
        return cheapest_residual_cover(query, candidates, covered_props[query], compiled)

    def ratio_of(query, cost: float) -> float:
        return -math.inf if cost <= 0 else -workload.utility(query) / cost

    heap: List[Tuple[float, float, int, Query]] = []
    for index, query in enumerate(covered_props):
        found = cover_of(query)
        if found is None:
            continue
        cost, _ = found
        heapq.heappush(heap, (ratio_of(query, cost), cost, index, query))

    parked: List[Tuple[float, float, int, Query]] = []

    while heap and remaining > 1e-9:
        ratio, cached_cost, index, query = heapq.heappop(heap)
        if covered_props[query] == set(query):
            continue
        found = cover_of(query)
        if found is None:
            continue
        cost, cover = found
        if cost < cached_cost - 1e-12:
            heapq.heappush(heap, (ratio_of(query, cost), cost, index, query))
            continue
        if cost > remaining + 1e-9:
            # Currently unaffordable: park the entry instead of dropping
            # it; the next purchase re-queues it with fresh costs.
            parked.append((ratio, cost, index, query))
            continue
        for classifier in cover:
            if classifier not in picked and not residual.tracker.is_selected(classifier):
                picked.add(classifier)
                remaining -= workload.cost(classifier)
            for other in workload.queries_containing(classifier):
                if other in covered_props:
                    covered_props[other] |= classifier
        if parked:
            for entry in parked:
                heapq.heappush(heap, entry)
            parked = []
    return frozenset(picked)


def _mc3_improve(residual: ResidualProblem, instance: BCCInstance) -> None:
    """Line 3: try to re-cover the same queries at lower cost.

    The MC3 output replaces the current selection only when it is strictly
    cheaper and verifiably covers the same query set; otherwise the current
    selection is kept (the paper: MC3 is a local-search optimization, not
    guaranteed to improve).
    """
    covered = set(residual.tracker.covered)
    if not covered:
        return
    current = residual.selected
    current_cost = residual.spent()
    try:
        alternative = solve_mc3(instance, queries=covered)
    except InfeasibleCoverError:
        return
    alt_cost = sum(instance.cost(c) for c in alternative)
    if alt_cost >= current_cost - 1e-9:
        return
    # Swap the cheaper selection in through the engine's reset (never
    # re-__init__ the residual in place); revert if it fails to re-cover
    # everything the current selection covers.
    residual.reset(alternative)
    if not covered <= set(residual.tracker.covered):
        residual.reset(current)


def _swap_polish(
    instance: BCCInstance,
    selection: Set[Classifier],
    allowed: FrozenSet[Classifier],
    eval_cap: int,
) -> Set[Classifier]:
    """Bounded 1-for-1 swap local search on the final selection.

    Tries to swap a low-marginal selected classifier for an unselected one
    when the true utility strictly improves within the budget.  Coverage
    tests run off a contributor map (the selected subsets of each affected
    query, maintained across accepted swaps) instead of re-enumerating
    ``2^q`` per trial, and the running spend is maintained incrementally
    by the tracker.  Under the ``bits`` engine the per-query coverage
    test runs on int masks from the compiled workload; affected-query
    utility deltas accumulate in workload order under both engines, so
    the engines accept identical swap sequences.
    """
    from repro.core.coverage import CoverageTracker

    tracker = CoverageTracker(instance)
    tracker.add_all(selection)
    current = set(selection)

    contributors: Dict[Query, Set[Classifier]] = {}
    for classifier in current:
        for query in instance.queries_containing(classifier):
            contributors.setdefault(query, set()).add(classifier)

    compiled = instance.compiled() if active_engine() == "bits" else None

    def covered_after_sets(
        query: Query, out: Optional[Classifier], incoming: Optional[Classifier]
    ) -> bool:
        """Coverage of ``(current - {out}) | {incoming}`` restricted to ``query``."""
        union: Set[str] = set()
        if incoming is not None and incoming <= query:
            union |= incoming
        target = set(query)
        if target <= union:
            return True
        for c in contributors.get(query, ()):
            if c != out:
                union |= c
                if target <= union:
                    return True
        return False

    def covered_after_bits(
        query: Query, out: Optional[Classifier], incoming: Optional[Classifier]
    ) -> bool:
        qmask = compiled.query_masks[compiled.query_pos[query]]
        union = 0
        if incoming is not None:
            mask = compiled.mask_of(incoming)
            if mask is not None and not mask & ~qmask:
                union = mask
                if not qmask & ~union:
                    return True
        for c in contributors.get(query, ()):
            if c != out:
                union |= compiled.mask_of(c)
                if not qmask & ~union:
                    return True
        return False

    covered_after = covered_after_bits if compiled is not None else covered_after_sets

    def affected_queries(
        out: Optional[Classifier], incoming: Classifier
    ) -> List[Query]:
        """Queries either classifier touches, in workload order, deduped."""
        affected = list(instance.queries_containing(incoming))
        if out is not None:
            seen = set(affected)
            for query in instance.queries_containing(out):
                if query not in seen:
                    affected.append(query)
        return affected

    def swap_delta(out: Optional[Classifier], incoming: Classifier) -> float:
        delta = 0.0
        for query in affected_queries(out, incoming):
            before = tracker.is_query_covered(query)
            after = covered_after(query, out, incoming)
            if before != after:
                delta += instance.utility(query) * (1.0 if after else -1.0)
        return delta

    # Swap-in candidates ranked by optimistic completion value per cost
    # (the classifier→query index replaces the per-query power-set walk).
    gain_hint: Dict[Classifier, float] = {}
    for c in allowed:
        if c in current:
            continue
        hint = sum(instance.utility(q) for q in instance.queries_containing(c))
        if hint > 0:
            gain_hint[c] = hint
    candidates = sorted(
        gain_hint,
        key=lambda c: (-gain_hint[c] / max(instance.cost(c), 1e-12), sorted(c)),
    )[:60]

    trials = 0
    improved = True
    while improved and trials < eval_cap:
        improved = False
        # Selected classifiers by marginal contribution per cost.
        marginal = {}
        for out in current:
            if instance.cost(out) <= 0:
                continue
            loss = 0.0
            for query in instance.queries_containing(out):
                if tracker.is_query_covered(query) and not covered_after(query, out, None):
                    loss += instance.utility(query)
            marginal[out] = loss
        removable = sorted(
            marginal,
            key=lambda c: (marginal[c] / max(instance.cost(c), 1e-12), sorted(c)),
        )[:10]
        for out in removable:
            refund = instance.cost(out)
            for incoming in candidates:
                if incoming in current:
                    continue
                cost_in = instance.cost(incoming)
                if tracker.spent - refund + cost_in > instance.budget + 1e-9:
                    continue
                if trials >= eval_cap:
                    break
                trials += 1
                delta = swap_delta(out, incoming)
                if delta > 1e-9:
                    tracker.remove(out)
                    tracker.add(incoming)
                    for query in instance.queries_containing(out):
                        contributors.get(query, set()).discard(out)
                    for query in instance.queries_containing(incoming):
                        contributors.setdefault(query, set()).add(incoming)
                    current = (current - {out}) | {incoming}
                    improved = True
                    break
            if improved:
                break
    return current


def solve_bcc(
    instance: BCCInstance, config: Optional[AbccConfig] = None
) -> Solution:
    """Run ``A^BCC`` on ``instance`` and return an evaluated solution.

    The solve reports its stage seconds and its tracker counters to the
    active :mod:`repro.profile` profiler, if a caller activated one, and
    nowhere else: the solution is the same with or without one.
    """
    config = config or AbccConfig()

    # ------------------------------------------------------------------
    # line 1: preprocessing
    # ------------------------------------------------------------------
    with phase("prune"):
        if config.pruning is not None:
            allowed = prune_classifiers(instance, instance.budget, config.pruning)
        else:
            allowed = frozenset(
                c
                for c in instance.relevant_classifiers()
                if not math.isinf(instance.cost(c))
                and instance.cost(c) <= instance.budget + 1e-9
            )
    residual = ResidualProblem(instance, allowed=allowed)

    # Zero-cost classifiers are free utility: select them all up front.
    residual.select([c for c in allowed if instance.cost(c) == 0.0])

    rounds = 0
    while rounds < config.max_rounds:
        rounds += 1
        remaining = instance.budget - residual.spent()
        if remaining <= 1e-9:
            break
        # Only the first round is throttled, unless it is also the
        # last chance to spend whatever remains.
        round_throttled = rounds == 1 and rounds < config.max_rounds - 1
        round_budget = remaining * FIRST_ROUND_FRACTION if round_throttled else remaining

        # --------------------------------------------------------------
        # line 2: BCC(1) via Knapsack and BCC(2) via A_H^QK, best of two
        # --------------------------------------------------------------
        with phase("knapsack"):
            items = residual.knapsack_items(round_budget)
            _, chosen_items = solve_knapsack(items, round_budget)
            knapsack_pick = frozenset(item.key for item in chosen_items)

        with phase("qk_build"):
            qk_graph = residual.qk_graph(round_budget)
            if config.pruning is not None:
                qk_graph = prune_qk_graph(qk_graph, config.pruning)
            qk_graph = _augment_with_singleton_bonus(residual, qk_graph, round_budget)
        qk_pick: FrozenSet[Classifier] = frozenset()
        if qk_graph.num_edges() > 0:
            with phase("qk_solve"):
                qk_pick = frozenset(
                    c for c in solve_qk(qk_graph, round_budget, config.qk)
                    if c != _SINGLETON_BONUS
                )

        picks = [knapsack_pick, qk_pick]
        uncovered = residual.uncovered_queries()
        total_uncovered = sum(instance.utility(q) for q in uncovered)
        deep = sum(instance.utility(q) for q in uncovered if len(residual.missing(q)) >= 3)
        if total_uncovered > 0 and deep / total_uncovered >= COVER_ARM_THRESHOLD:
            with phase("cover_greedy"):
                picks.append(_cover_greedy_pick(residual, round_budget))

        # True-coverage comparison; infeasible picks are discarded.
        # Each pick is probed read-only against the current selection.
        best_pick: FrozenSet[Classifier] = frozenset()
        best_gain = 0.0
        best_cost = 0.0
        with phase("pick_eval"):
            pick_scores = [residual.evaluate_gain(pick) for pick in picks]
        for pick, (gain, cost) in zip(picks, pick_scores):
            if cost <= remaining + 1e-9 and (
                gain > best_gain + 1e-9
                or (gain > 0 and abs(gain - best_gain) <= 1e-9 and cost < best_cost)
            ):
                best_pick, best_gain, best_cost = pick, gain, cost

        if best_gain <= 0:
            if round_throttled:
                # The throttled round found nothing affordable; retry
                # with the full remaining budget before giving up.
                continue
            break
        residual.select(best_pick)

        # --------------------------------------------------------------
        # line 3: MC3 local-search improvement
        # --------------------------------------------------------------
        if config.use_mc3:
            with phase("mc3"):
                _mc3_improve(residual, instance)

    final_selection: Set[Classifier] = set(residual.selected)
    if config.final_polish:
        with phase("swap_polish"):
            final_selection = _swap_polish(
                instance, final_selection, allowed, POLISH_EVAL_CAP
            )

    prof = current_profiler()
    if prof is not None:
        # Probe/rebuild telemetry folded from the tracker's own counters —
        # the probe paths never call into the profiler, so disabled runs
        # pay nothing there.
        prof.add_count("tracker_probes", residual.tracker.rollbacks)
        prof.add_count("transpose_rebuilds", residual.tracker.transpose_rebuilds)
        prof.add_count("rebuilds_avoided", residual.stats["rebuilds_avoided"])
        prof.add_count("tracker_resets", residual.stats["resets"])

    return evaluate(
        instance,
        final_selection,
        meta={
            "algorithm": "A^BCC",
            "rounds": rounds,
            "allowed_classifiers": len(allowed),
        },
    )
