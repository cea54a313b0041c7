"""Greedy MC3 heuristic for general query length (NP-hard regime).

Strategy: repeatedly take the uncovered query whose *residual* cheapest
cover is the least expensive, buy that cover, and update.  Residual costs
only decrease as classifiers accumulate, so a lazy heap with on-pop
re-validation keeps the loop near ``O(m log m)`` cover computations.

This mirrors the minimal-cover greedy of [23] (Theorem 2.5 gives it a
``min(2^{l-1}, O(log n))`` factor); here it also serves as the local-search
optimizer inside ``A^BCC`` (line 3 of Algorithm 1).
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.bitset import QueryInterner, active_engine
from repro.core.coverage import CoverageTracker
from repro.core.model import Classifier, ClassifierWorkload, Query
from repro.mc3.errors import InfeasibleCoverError


def _mask_cover_search(
    missing: int,
    usable: List[Tuple[Classifier, int, float]],
) -> Optional[Tuple[float, FrozenSet[Classifier]]]:
    """Branch-and-bound over mask candidates (cost-sorted, missing-relevant).

    Pivots on the lowest set bit of the still-missing mask — in both the
    per-query and the compiled global bit layout that is the
    lexicographically smallest missing property, so the traversal (and
    therefore every equal-cost tie) matches the set reference exactly.
    """
    # Pivot buckets are built lazily: the search usually reaches only one
    # or two distinct pivot bits, so indexing every candidate under every
    # bit up front (as the set reference does per property) is wasted work.
    # A bucket keeps ``usable``'s cost-sorted order, so the traversal — and
    # therefore every equal-cost tie — matches the eager build exactly.
    by_bit: Dict[int, List[Tuple[Classifier, int, float]]] = {}

    def bucket(pivot: int) -> List[Tuple[Classifier, int, float]]:
        got = by_bit.get(pivot)
        if got is None:
            pbit = 1 << pivot
            got = [item for item in usable if item[1] & pbit]
            by_bit[pivot] = got
        return got

    best: List[Optional[Tuple[float, Tuple[Classifier, ...]]]] = [None]

    def search(still_missing: int, chosen: Tuple[Classifier, ...], spent: float) -> None:
        if best[0] is not None and spent >= best[0][0]:
            return
        if not still_missing:
            best[0] = (spent, chosen)
            return
        pivot = (still_missing & -still_missing).bit_length() - 1
        for classifier, mask, cost in bucket(pivot):
            cur = best[0]
            if cur is not None and spent + cost >= cur[0]:
                # Bucket entries are cost-sorted, so no later entry can
                # strictly improve either; their recursive calls would
                # return immediately at the bound check above, and a best
                # update needs a strictly cheaper total — skipping them
                # cannot change which cover is found.
                break
            if classifier in chosen:
                continue
            search(still_missing & ~mask, chosen + (classifier,), spent + cost)

    search(missing, (), 0.0)
    if best[0] is None:
        return None
    spent, chosen = best[0]
    return spent, frozenset(chosen)


def cover_from_missing_mask(
    candidates: List[Tuple[Classifier, float]],
    missing: int,
    compiled,
) -> Optional[Tuple[float, FrozenSet[Classifier]]]:
    """Cheapest cover of a compiled-layout ``missing`` mask.

    The fast entry for callers that already hold the residual mask (e.g.
    straight off a :class:`BitsetCoverageTracker`), skipping the
    property-set translation of :func:`cheapest_residual_cover`.
    """
    if not missing:
        return 0.0, frozenset()
    mask_of = compiled.mask_of
    clip = compiled.space.clip_mask
    usable = []
    for classifier, cost in candidates:
        if math.isinf(cost):
            continue
        mask = mask_of(classifier)
        if mask is None:
            mask = clip(classifier)
        if mask & missing:
            usable.append((classifier, mask, cost))
    # Cheap upper bound first: sort candidates by cost for pruning.
    usable.sort(key=lambda item: item[2])
    return _mask_cover_search(missing, usable)


def cover_from_masked_usable(
    missing: int,
    usable: List[Tuple[Classifier, int, float]],
) -> Optional[Tuple[float, FrozenSet[Classifier]]]:
    """Cheapest cover when the caller already holds mask triples.

    ``usable`` must be ``(classifier, mask, cost)`` triples with finite
    costs, ordered by ``(cost, original candidate position)`` — the exact
    order :func:`cover_from_missing_mask`'s stable sort produces — and
    every entry intersecting ``missing``.  Hot callers (the IG1 selector)
    keep these triples precomputed per query so the per-step cover search
    skips mask translation and re-sorting entirely.
    """
    if not missing:
        return 0.0, frozenset()
    return _mask_cover_search(missing, usable)


def _cheapest_residual_cover_bits(
    query: Query,
    candidates: List[Tuple[Classifier, float]],
    covered_props: Set[str],
    compiled=None,
) -> Optional[Tuple[float, FrozenSet[Classifier]]]:
    """Mask backend of :func:`cheapest_residual_cover`.

    With a ``compiled`` workload view the query and candidate masks come
    from its memoized translation tables (warm after the first call per
    classifier); otherwise a throwaway :class:`QueryInterner` pays the
    interning cost per call.
    """
    if compiled is not None:
        qmask = compiled.mask_of(query)
        if qmask is not None:
            clip = compiled.space.clip_mask
            missing = qmask & ~clip(covered_props) if covered_props else qmask
            return cover_from_missing_mask(candidates, missing, compiled)
    interner = QueryInterner(query)
    missing = interner.full & ~interner.clip(covered_props)
    if not missing:
        return 0.0, frozenset()
    usable = [
        (classifier, interner.clip(classifier), cost)
        for classifier, cost in candidates
        if not math.isinf(cost)
    ]
    usable = [(c, m, cost) for c, m, cost in usable if m & missing]
    usable.sort(key=lambda item: item[2])
    return _mask_cover_search(missing, usable)


def cheapest_residual_cover(
    query: Query,
    candidates: List[Tuple[Classifier, float]],
    covered_props: Set[str],
    compiled=None,
) -> Optional[Tuple[float, FrozenSet[Classifier]]]:
    """Cheapest classifier set (from ``candidates``) covering what's missing.

    ``candidates`` are ``(classifier, cost)`` pairs with each classifier a
    subset of ``query``; already-covered properties cost nothing to re-test.
    Branch-and-bound on the lexicographically smallest missing property.

    Returns ``None`` when the missing part cannot be covered.

    ``compiled`` (a :class:`~repro.core.bitset.CompiledWorkload`) lets the
    ``bits`` engine reuse memoized masks across calls; pass it whenever a
    workload is in scope.
    """
    if active_engine() == "bits":
        return _cheapest_residual_cover_bits(query, candidates, covered_props, compiled)
    missing = frozenset(query) - covered_props
    if not missing:
        return 0.0, frozenset()
    ordered_missing = sorted(missing)
    usable = [(c, cost) for c, cost in candidates if c & missing and not math.isinf(cost)]
    # Cheap upper bound first: sort candidates by cost for better pruning.
    usable.sort(key=lambda item: item[1])

    by_prop: Dict[str, List[Tuple[Classifier, float]]] = {p: [] for p in ordered_missing}
    for classifier, cost in usable:
        for prop in classifier & missing:
            by_prop[prop].append((classifier, cost))

    best: List[Optional[Tuple[float, Tuple[Classifier, ...]]]] = [None]

    def search(still_missing: FrozenSet[str], chosen: Tuple[Classifier, ...], spent: float) -> None:
        if best[0] is not None and spent >= best[0][0]:
            return
        if not still_missing:
            best[0] = (spent, chosen)
            return
        pivot = min(still_missing)
        for classifier, cost in by_prop[pivot]:
            if classifier in chosen:
                continue
            search(still_missing - classifier, chosen + (classifier,), spent + cost)

    search(missing, (), 0.0)
    if best[0] is None:
        return None
    spent, chosen = best[0]
    return spent, frozenset(chosen)


def solve_mc3_greedy(
    workload: ClassifierWorkload,
    queries: Optional[Iterable[Query]] = None,
    available: Optional[Iterable[Classifier]] = None,
    preselected: FrozenSet[Classifier] = frozenset(),
) -> FrozenSet[Classifier]:
    """Greedy minimum-cost cover of all target queries (any length).

    Same contract as :func:`repro.mc3.exact_l2.solve_mc3_l2` but heuristic.

    Raises:
        InfeasibleCoverError: if some query has no finite-cost cover.
    """
    targets = list(queries) if queries is not None else list(workload.queries)
    available_set = None if available is None else set(available)
    compiled = workload.compiled() if active_engine() == "bits" else None

    # The shared coverage engine supplies per-query covered-property state;
    # target coverage and residual missing sets come from its indexes.
    state = CoverageTracker(workload)
    state.add_all(preselected)

    def cost(classifier: Classifier) -> float:
        if classifier in preselected or state.is_selected(classifier):
            return 0.0
        if available_set is not None and classifier not in available_set:
            return math.inf
        return workload.cost(classifier)

    def candidates_for(query: Query) -> List[Tuple[Classifier, float]]:
        from repro.core.model import powerset_classifiers

        result = []
        for classifier in powerset_classifiers(query):
            c = cost(classifier)
            if not math.isinf(c):
                result.append((classifier, c))
        return result

    def covered_props(query: Query) -> Set[str]:
        return set(query) - set(state.missing_properties(query))

    heap: List[Tuple[float, int, Query]] = []
    for index, query in enumerate(targets):
        if state.is_query_covered(query):
            continue
        found = cheapest_residual_cover(
            query, candidates_for(query), covered_props(query), compiled
        )
        if found is None:
            raise InfeasibleCoverError(f"query {sorted(query)} has no finite-cost cover")
        heapq.heappush(heap, (found[0], index, query))

    chosen: Set[Classifier] = set()
    while heap:
        cached_cost, index, query = heapq.heappop(heap)
        if state.is_query_covered(query):
            continue
        found = cheapest_residual_cover(
            query, candidates_for(query), covered_props(query), compiled
        )
        if found is None:
            raise InfeasibleCoverError(f"query {sorted(query)} has no finite-cost cover")
        current_cost, cover = found
        if current_cost > cached_cost + 1e-12:
            # Should not happen (costs only decrease), but stay safe.
            heapq.heappush(heap, (current_cost, index, query))
            continue
        if current_cost < cached_cost - 1e-12:
            heapq.heappush(heap, (current_cost, index, query))
            continue
        for classifier in cover:
            if classifier not in preselected:
                chosen.add(classifier)
            state.add(classifier)
    return frozenset(chosen)
