"""``A^GMC3`` — minimum-cost classifier set reaching a utility target.

Theorem 5.3's scheme: with an alpha-approximate BCC solver, repeatedly run
it with budget ``B`` on the residual workload (covered queries removed,
already-built classifiers free) until the accumulated utility reaches the
target; geometric decay bounds the iteration count.  The optimal budget is
unknown, so — following the paper's practical variant — we binary-search
budgets below the MC3 full-cover cost and keep the cheapest accumulated
solution that reaches the target.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Set, Tuple

from repro.algorithms.bcc import AbccConfig, solve_bcc
from repro.core.errors import InfeasibleTargetError
from repro.core.model import BCCInstance, Classifier, GMC3Instance
from repro.core.solution import Solution, evaluate
from repro.mc3 import full_cover_cost
from repro.qk import QKConfig

#: The inner ``A^BCC`` setup.  The binary search discards most iterations,
#: so each run is lighter (fewer bipartition rounds, no final polish); the
#: quality loss per run is small and the search dominates the outcome.
_INNER_BCC = AbccConfig(final_polish=False, qk=QKConfig(rounds=2))

#: Binary-search iterations over the budget.
SEARCH_STEPS = 5

#: Cap on successive ``A^BCC`` invocations per budget guess (the paper
#: observes 2-4 suffice).
MAX_BCC_ROUNDS = 4


def _trim(
    instance: GMC3Instance, selection: FrozenSet[Classifier]
) -> FrozenSet[Classifier]:
    """Drop overshoot: remove classifiers while the target still holds,
    then re-cover the surviving query set at minimum cost via MC3."""
    from repro.mc3 import InfeasibleCoverError, solve_mc3

    current = set(selection)
    # Bounded pass: only the most expensive classifiers are candidates for
    # removal (full O(|S|^2 m) trimming is too slow at scale).
    removal_candidates = sorted(current, key=lambda c: -instance.cost(c))[:40]
    for classifier in removal_candidates:
        if instance.cost(classifier) == 0:
            continue
        without = current - {classifier}
        reduced = evaluate(instance, without)
        if reduced.utility >= instance.target - 1e-9:
            current = without
    covered = evaluate(instance, current).covered
    if covered:
        try:
            compressed = solve_mc3(instance, queries=covered)
        except InfeasibleCoverError:
            return frozenset(current)
        if sum(instance.cost(c) for c in compressed) < sum(
            instance.cost(c) for c in current
        ):
            check = evaluate(instance, compressed)
            if check.utility >= instance.target - 1e-9:
                return frozenset(compressed)
    return frozenset(current)


def _greedy_candidate(instance: GMC3Instance) -> Optional[FrozenSet[Classifier]]:
    """Per-classifier greedy until the target, then trimmed.

    A cheap seeding candidate: repeatedly select the classifier with the
    best uncovered-utility-per-cost ratio until the target is reached.
    Guarantees ``A^GMC3`` never returns a costlier solution than the
    natural greedy on the same instance.
    """
    import math as _math

    from repro.core.coverage import CoverageTracker

    tracker = CoverageTracker(instance)
    pool = [
        c
        for c in instance.relevant_classifiers()
        if not _math.isinf(instance.cost(c))
    ]
    spent = 0.0
    while tracker.utility < instance.target - 1e-9:
        best, best_key = None, (-1.0, -1.0)
        for classifier in pool:
            if tracker.is_selected(classifier):
                continue
            gain = sum(
                instance.utility(q)
                for q in instance.queries_containing(classifier)
                if not tracker.is_query_covered(q)
            )
            if gain <= 0:
                continue
            cost = instance.cost(classifier)
            ratio = _math.inf if cost == 0 else gain / cost
            if (ratio, gain) > best_key:
                best_key, best = (ratio, gain), classifier
        if best is None:
            return None
        spent += instance.cost(best)
        tracker.add(best)
    return _trim(instance, tracker.selected)


def _attempt(
    instance: GMC3Instance, budget: float
) -> Tuple[FrozenSet[Classifier], float, bool]:
    """Accumulate A^BCC solutions at ``budget`` until the target is reached.

    Returns ``(selection, true cost, reached_target)``.
    """
    selected: Set[Classifier] = set()
    for _ in range(MAX_BCC_ROUNDS):
        baseline = evaluate(instance, selected)
        if baseline.utility >= instance.target - 1e-9:
            break
        uncovered = [q for q in instance.queries if q not in baseline.covered]
        if not uncovered:
            break
        residual_costs = dict(instance._costs)
        for classifier in selected:
            residual_costs[classifier] = 0.0
        residual = BCCInstance(
            uncovered,
            {q: instance.utility(q) for q in uncovered},
            residual_costs,
            budget=budget,
            default_utility=instance.default_utility,
            default_cost=instance.default_cost,
        )
        round_solution = solve_bcc(residual, _INNER_BCC)
        if round_solution.utility <= 0:
            break
        selected |= round_solution.classifiers
    trimmed = _trim(instance, frozenset(selected))
    final = evaluate(instance, trimmed)
    if final.utility >= instance.target - 1e-9:
        return trimmed, final.cost, True
    untrimmed = evaluate(instance, selected)
    return (
        frozenset(selected),
        untrimmed.cost,
        untrimmed.utility >= instance.target - 1e-9,
    )


def solve_gmc3(instance: GMC3Instance) -> Solution:
    """Run ``A^GMC3`` and return the cheapest target-reaching solution found.

    Raises:
        InfeasibleTargetError: if the target exceeds the total utility of
            the workload, or the utility coverable at finite cost — in
            either case no classifier set can reach it.
    """
    total = instance.total_utility()
    if instance.target > total + 1e-9:
        raise InfeasibleTargetError(
            f"target {instance.target} exceeds total utility {total}"
        )
    coverable = instance.coverable_queries()
    if len(coverable) < len(instance.queries):
        # Queries walled off by infinite costs shrink both the reachable
        # utility and the MC3 upper bound; covering them is impossible at
        # any budget, so they must not make the budget search crash.
        coverable_total = sum(instance.utility(q) for q in coverable)
        if instance.target > coverable_total + 1e-9:
            raise InfeasibleTargetError(
                f"target {instance.target} exceeds coverable utility "
                f"{coverable_total} ({len(instance.queries) - len(coverable)} "
                f"queries have no finite-cost cover)"
            )
        from repro.mc3 import solve_mc3

        high = sum(
            instance.cost(c) for c in solve_mc3(instance, queries=coverable)
        )
    else:
        high = full_cover_cost(instance)
    best: Optional[Tuple[FrozenSet[Classifier], float]] = None

    seeded = _greedy_candidate(instance)
    if seeded is not None:
        seeded_cost = evaluate(instance, seeded).cost
        best = (seeded, seeded_cost)

    # The full-cover budget always reaches any feasible target in one round.
    selection, cost, reached = _attempt(instance, high)
    if reached and (best is None or cost < best[1]):
        best = (selection, cost)

    lo, hi = 0.0, high
    for _ in range(SEARCH_STEPS):
        mid = 0.5 * (lo + hi)
        selection, cost, reached = _attempt(instance, mid)
        if reached:
            hi = mid
            if best is None or cost < best[1]:
                best = (selection, cost)
        else:
            lo = mid

    if best is None:
        # Numerically pathological; fall back to covering everything that
        # can be covered.
        from repro.mc3 import solve_mc3

        best = (solve_mc3(instance, queries=coverable), 0.0)
    return evaluate(
        instance,
        best[0],
        meta={
            "algorithm": "A^GMC3",
            "budget_upper_bound": high,
            "reached_target": True,
        },
    )
