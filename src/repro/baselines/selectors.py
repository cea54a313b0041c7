"""Step selectors for the RAND / IG1 / IG2 baselines.

A selector owns a :class:`~repro.core.coverage.CoverageTracker` and exposes
``step(remaining)``: the next classifier set to add given the remaining
budget (``None`` = unconstrained), or ``None`` when no affordable move is
left.  The three stopping-mode drivers in :mod:`repro.baselines.runners`
share these selectors.
"""

from __future__ import annotations

import math
import random
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.bitset import active_engine
from repro.core.coverage import CoverageTracker
from repro.core.model import Classifier, ClassifierWorkload, Query
from repro.mc3.greedy import cheapest_residual_cover, cover_from_masked_usable


class BaseSelector:
    """Shared state: tracker, feasible classifier pool, cost lookup."""

    def __init__(self, workload: ClassifierWorkload) -> None:
        self.workload = workload
        self.tracker = CoverageTracker(workload)
        # Canonically ordered: selectors break score ties by pool position,
        # and set iteration order is not stable across a pickle round-trip
        # (process fan-out ships workloads to workers by pickling), so the
        # pool must not inherit frozenset layout.
        self.pool: List[Classifier] = sorted(
            (
                c
                for c in workload.relevant_classifiers()
                if not math.isinf(workload.cost(c))
            ),
            key=sorted,
        )

    @property
    def selected(self) -> FrozenSet[Classifier]:
        """The classifiers selected so far."""
        return self.tracker.selected

    @property
    def utility(self) -> float:
        """Total utility of the covered queries."""
        return self.tracker.utility

    def cost_of(self, classifier: Classifier) -> float:
        """Incremental cost of ``classifier`` (0 once selected)."""
        if self.tracker.is_selected(classifier):
            return 0.0
        return self.workload.cost(classifier)

    @property
    def spent(self) -> float:
        """Total cost paid so far (maintained incrementally by the tracker)."""
        return self.tracker.spent

    def add(self, classifiers: FrozenSet[Classifier]) -> float:
        """Select ``classifiers``; returns the incremental cost paid."""
        spent = 0.0
        for classifier in classifiers:
            spent += self.cost_of(classifier)
            self.tracker.add(classifier)
        return spent

    def all_covered(self) -> bool:
        """Whether every workload query is covered."""
        return len(self.tracker.covered) == self.workload.num_queries

    def step(self, remaining: Optional[float]) -> Optional[FrozenSet[Classifier]]:
        raise NotImplementedError


class RandomSelector(BaseSelector):
    """RAND: a uniformly random affordable unselected classifier."""

    def __init__(self, workload: ClassifierWorkload, seed: int = 0) -> None:
        super().__init__(workload)
        self._rng = random.Random(seed)
        self._order = sorted(self.pool, key=sorted)
        self._rng.shuffle(self._order)
        self._cursor = 0

    def step(self, remaining: Optional[float]) -> Optional[FrozenSet[Classifier]]:
        # A pre-shuffled order is a uniform random permutation; skipping
        # unaffordable entries preserves uniformity among affordable ones
        # closely enough for a baseline while staying O(1) amortized.
        skipped: List[Classifier] = []
        chosen: Optional[Classifier] = None
        while self._cursor < len(self._order):
            candidate = self._order[self._cursor]
            self._cursor += 1
            if self.tracker.is_selected(candidate):
                continue
            if remaining is not None and self.workload.cost(candidate) > remaining + 1e-9:
                skipped.append(candidate)
                continue
            chosen = candidate
            break
        # Unaffordable-now items go back behind the cursor: the remaining
        # budget only shrinks, but other stopping modes may still use them.
        self._order.extend(skipped)
        return frozenset({chosen}) if chosen is not None else None


class IG1Selector(BaseSelector):
    """IG1: per-query greedy by utility / cheapest-residual-cover cost."""

    def __init__(self, workload: ClassifierWorkload) -> None:
        super().__init__(workload)
        self._cover_cache: Dict[Query, Optional[Tuple[float, FrozenSet[Classifier]]]] = {}
        self._compiled = workload.compiled() if active_engine() == "bits" else None
        # Per-query powerset with base costs; only the selected→0 cost
        # override changes between steps, so the enumeration is hoisted.
        self._static_candidates: Dict[Query, List[Tuple[Classifier, float]]] = {}
        # Bits engine: the same candidates as (classifier, mask, cost)
        # triples, both in powerset order and pre-sorted by (cost, powerset
        # position) — the per-step cover search then partitions instead of
        # translating and sorting.
        self._masked_candidates: Dict[
            Query,
            Tuple[
                List[Tuple[Classifier, int, float]],
                List[Tuple[Classifier, int, float]],
            ],
        ] = {}

    def _candidates(self, query: Query) -> List[Tuple[Classifier, float]]:
        from repro.core.model import powerset_classifiers

        static = self._static_candidates.get(query)
        if static is None:
            static = [
                (c, self.workload.cost(c)) for c in powerset_classifiers(query)
            ]
            self._static_candidates[query] = static
        is_selected = self.tracker.is_selected
        result = []
        for classifier, cost in static:
            if is_selected(classifier):
                result.append((classifier, 0.0))
            elif not math.isinf(cost):
                result.append((classifier, cost))
        return result

    def _masked(
        self, query: Query
    ) -> Tuple[
        List[Tuple[Classifier, int, float]], List[Tuple[Classifier, int, float]]
    ]:
        got = self._masked_candidates.get(query)
        if got is None:
            from repro.core.model import powerset_classifiers

            compiled = self._compiled
            clip = compiled.space.clip_mask
            by_pos: List[Tuple[Classifier, int, float]] = []
            for classifier in powerset_classifiers(query):
                cost = self.workload.cost(classifier)
                if math.isinf(cost):
                    continue
                mask = compiled.mask_of(classifier)
                if mask is None:
                    mask = clip(classifier)
                by_pos.append((classifier, mask, cost))
            # Stable, so ties keep powerset position — the same order the
            # reference path's per-call sort produces.
            by_cost = sorted(by_pos, key=lambda item: item[2])
            got = self._masked_candidates[query] = (by_pos, by_cost)
        return got

    def _cover(self, query: Query) -> Optional[Tuple[float, FrozenSet[Classifier]]]:
        if query not in self._cover_cache:
            if self._compiled is not None:
                # Bits: the tracker's residual mask feeds the kernel
                # directly — no property-set round trip, no per-call mask
                # translation or sort.  Selected classifiers cost 0, so
                # they join the zero-cost block (in powerset order) ahead
                # of the pre-sorted positive-cost remainder; the
                # concatenation is exactly the stable (cost, position)
                # sort of the reference candidate list.
                missing = self.tracker.missing_mask(query)
                by_pos, by_cost = self._masked(query)
                is_selected = self.tracker.is_selected
                zero = [
                    (classifier, mask, 0.0)
                    for classifier, mask, cost in by_pos
                    if (cost == 0.0 or is_selected(classifier)) and mask & missing
                ]
                rest = [
                    entry
                    for entry in by_cost
                    if entry[2] != 0.0
                    and entry[1] & missing
                    and not is_selected(entry[0])
                ]
                found = cover_from_masked_usable(missing, zero + rest)
            else:
                covered = set(query) - set(self.tracker.missing_properties(query))
                found = cheapest_residual_cover(
                    query, self._candidates(query), covered, self._compiled
                )
            self._cover_cache[query] = found
        return self._cover_cache[query]

    def _invalidate(self, classifiers: FrozenSet[Classifier]) -> None:
        touched = set()
        for classifier in classifiers:
            touched |= classifier
        stale = [
            q for q in self._cover_cache if touched & q
        ]
        for query in stale:
            del self._cover_cache[query]

    def step(self, remaining: Optional[float]) -> Optional[FrozenSet[Classifier]]:
        best_ratio = -1.0
        best_cover: Optional[FrozenSet[Classifier]] = None
        for query in self.workload.queries:
            if self.tracker.is_query_covered(query):
                continue
            found = self._cover(query)
            if found is None:
                continue
            cost, cover = found
            if remaining is not None and cost > remaining + 1e-9:
                continue
            utility = self.workload.utility(query)
            ratio = math.inf if cost == 0 else utility / cost
            if ratio > best_ratio:
                best_ratio = ratio
                best_cover = cover
        if best_cover is None:
            return None
        self._invalidate(best_cover)
        return best_cover


class IG2Selector(BaseSelector):
    """IG2: per-classifier greedy by contained-uncovered-utility / cost."""

    def __init__(self, workload: ClassifierWorkload) -> None:
        super().__init__(workload)
        # Bits engine: the compiled inverted index flattens into a CSR-style
        # (row starts, query-index columns) pair, so the whole pool scores
        # in one ``np.add.reduceat`` sweep per step.  Each row is in
        # ascending query-index (= workload) order and covered queries
        # contribute an exact 0.0, so every per-classifier sum accumulates
        # the same doubles in the same order as the reference loop.
        self._csr = None
        if active_engine() == "bits" and self.pool:
            import numpy as np

            compiled = workload.compiled()
            rows = [
                compiled.containing(compiled.mask_of(classifier))
                for classifier in self.pool
            ]
            starts = np.cumsum([0] + [len(row) for row in rows[:-1]])
            cols = np.fromiter(
                (qidx for row in rows for qidx in row), dtype=np.intp
            )
            utilities = np.asarray(compiled.utilities, dtype=np.float64)
            costs = np.asarray(
                [workload.cost(c) for c in self.pool], dtype=np.float64
            )
            pos_of = {c: i for i, c in enumerate(self.pool)}
            self._csr = (np, compiled.query_pos, starts, cols, utilities, costs, pos_of)

    def _score(self, classifier: Classifier) -> float:
        # Delegated to the coverage engine: the bits backend sums straight
        # off the compiled inverted index and per-query missing masks.
        return self.tracker.uncovered_contained_utility(classifier)

    def _vector_step(self, remaining: Optional[float]) -> Optional[Classifier]:
        np, query_pos, starts, cols, utilities, costs, pos_of = self._csr
        uncovered = utilities.copy()
        covered = [query_pos[q] for q in self.tracker.covered]
        if covered:
            uncovered[covered] = 0.0
        scores = np.add.reduceat(uncovered[cols], starts)
        valid = scores > 0.0
        selected = [pos_of[c] for c in self.tracker.selected if c in pos_of]
        if selected:
            valid[selected] = False
        if remaining is not None:
            valid &= costs <= remaining + 1e-9
        if not valid.any():
            return None
        # invalid: 0/0 for zero-cost zero-score entries, masked below.
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.divide(scores, costs)
        ratio[costs == 0.0] = np.inf
        ratio = np.where(valid, ratio, -np.inf)
        # Lexicographic (ratio, utility) argmax; np.argmax takes the first
        # index of the max, matching the reference loop's strict-``>`` ties.
        best_ratio = ratio.max()
        return self.pool[
            int(np.argmax(np.where(ratio == best_ratio, scores, -np.inf)))
        ]

    def step(self, remaining: Optional[float]) -> Optional[FrozenSet[Classifier]]:
        if self._csr is not None:
            best = self._vector_step(remaining)
            return frozenset({best}) if best is not None else None
        best: Optional[Classifier] = None
        best_key: Tuple[float, float] = (-1.0, -1.0)
        for classifier in self.pool:
            if self.tracker.is_selected(classifier):
                continue
            cost = self.workload.cost(classifier)
            if remaining is not None and cost > remaining + 1e-9:
                continue
            utility_sum = self._score(classifier)
            if utility_sum <= 0:
                continue
            ratio = math.inf if cost == 0 else utility_sum / cost
            key = (ratio, utility_sum)
            if key > best_key:
                best_key = key
                best = classifier
        if best is None:
            return None
        return frozenset({best})
