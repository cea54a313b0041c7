"""Residual-problem views: BCC(1) and BCC(2) instances given a selection.

Section 4.2 observes that after selecting classifiers, the residual problem
exposes *new* 1- and 2-covers: e.g. once ``Y`` is selected, ``XW`` becomes
a 1-cover of the query ``xyw`` (Example 4.8).  This module captures that:

- For each uncovered query ``q``, the *missing set* ``M(q)`` is ``q`` minus
  the union of the selected classifiers that are subsets of ``q``.
- A classifier ``c`` is a residual 1-cover of ``q`` iff ``M(q) ⊆ c ⊆ q``;
  the Knapsack instance gives each classifier the summed utility of the
  queries it 1-covers (Observation 4.3, generalized).
- A pair ``{A, B}`` is a residual 2-cover of ``q`` iff ``A, B ⊆ q``,
  ``M(q) ⊆ A ∪ B`` and neither alone contains ``M(q)``; the QK graph gives
  the pair edge the summed utility of the queries it 2-covers
  (Observation 4.4, generalized — for ``l > 2`` the same query can induce
  several edges, the overcount the MC3 local search later removes).

On the very first iteration (nothing selected), these constructions are
exactly the paper's BCC(1) Knapsack and BCC(2) QK instances.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.bitset import active_engine
from repro.core.coverage import CoverageTracker
from repro.core.model import Classifier, ClassifierWorkload, Query, powerset_classifiers
from repro.graphs.graph import WeightedGraph
from repro.knapsack.items import KnapsackItem


class ResidualProblem:
    """The residual BCC problem after selecting some classifiers.

    Args:
        workload: the full instance.
        allowed: optional classifier whitelist (post-pruning); classifiers
            outside it are ignored.  Selected classifiers are always valid.
    """

    def __init__(
        self,
        workload: ClassifierWorkload,
        allowed: Optional[Iterable[Classifier]] = None,
    ) -> None:
        self.workload = workload
        self.tracker = CoverageTracker(workload)
        self._allowed: Optional[Set[Classifier]] = (
            None if allowed is None else set(allowed)
        )
        #: Engine telemetry: candidate evaluations served by the undo log
        #: (each one a full tracker rebuild avoided) and selection resets.
        self.stats: Dict[str, int] = {"rebuilds_avoided": 0, "resets": 0}

    # ------------------------------------------------------------------
    # selection state
    # ------------------------------------------------------------------
    @property
    def selected(self) -> FrozenSet[Classifier]:
        """The classifiers selected so far."""
        return self.tracker.selected

    @property
    def utility(self) -> float:
        """Total utility of the queries covered so far."""
        return self.tracker.utility

    def spent(self) -> float:
        """Total cost of the selected classifiers (tracked incrementally)."""
        return self.tracker.spent

    def select(self, classifiers: Iterable[Classifier]) -> List[Query]:
        """Select classifiers; returns the newly covered queries."""
        return self.tracker.add_all(classifiers)

    def reset(self, classifiers: Iterable[Classifier]) -> List[Query]:
        """Replace the whole selection with ``classifiers`` in place.

        Restores the tracker's pristine state and re-selects, so callers
        (the MC3 swap-in) never re-``__init__`` the residual object; the
        allowed whitelist is preserved.  Returns the covered queries.
        """
        self.tracker.reset()
        self.stats["resets"] += 1
        return self.select(classifiers)

    def uncovered_queries(self) -> List[Query]:
        """Queries not yet covered, in workload order."""
        return [
            q for q in self.workload.queries if not self.tracker.is_query_covered(q)
        ]

    def missing(self, query: Query) -> FrozenSet[str]:
        """The missing set ``M(q)``: properties no selected subset covers."""
        return self.tracker.missing_properties(query)

    # ------------------------------------------------------------------
    # classifier availability
    # ------------------------------------------------------------------
    def usable(self, classifier: Classifier, budget: float) -> bool:
        """Unselected, allowed, finite cost within ``budget``."""
        if self.tracker.is_selected(classifier):
            return False
        if self._allowed is not None and classifier not in self._allowed:
            return False
        cost = self.workload.cost(classifier)
        return not math.isinf(cost) and cost <= budget + 1e-9

    def _query_candidates(self, query: Query, budget: float) -> List[Classifier]:
        return [
            c for c in powerset_classifiers(query) if self.usable(c, budget)
        ]

    # ------------------------------------------------------------------
    # BCC(1): residual Knapsack instance
    # ------------------------------------------------------------------
    def knapsack_items(self, budget: float) -> List[KnapsackItem]:
        """One item per classifier that residual-1-covers some query.

        Following the paper's construction, a query ``q`` credits exactly
        two classifiers: the one identical to ``q`` (the original 1-cover)
        and the one identical to its missing set ``M(q)`` (the transferred
        item of the preprocessing step / Example 4.8's residual 1-cover).
        Intermediate supersets of ``M(q)`` would also complete ``q`` but
        crediting them invites greedy traps; they stay reachable through
        the QK bonus augmentation.  Values overlap when one query credits
        both classifiers (the paper's factor-2 loss in the transferred
        instance); produced solutions are always re-scored with true
        coverage.
        """
        value: Dict[Classifier, float] = {}
        for query in self.uncovered_queries():
            missing = self.missing(query)
            utility = self.workload.utility(query)
            for classifier in {query, missing}:
                if classifier and self.usable(classifier, budget):
                    value[classifier] = value.get(classifier, 0.0) + utility
        return [
            KnapsackItem(key=classifier, weight=self.workload.cost(classifier), value=val)
            for classifier, val in value.items()
        ]

    # ------------------------------------------------------------------
    # BCC(2): residual QK instance
    # ------------------------------------------------------------------
    def qk_graph(self, budget: float) -> WeightedGraph:
        """QK graph over residual 2-covers.

        Nodes are usable classifiers participating in some 2-cover (node
        cost = classifier cost); an edge ``{A, B}`` accumulates the utility
        of every uncovered query the pair 2-covers.  For length-2 queries
        with nothing selected this is exactly Observation 4.4's graph.
        """
        graph = WeightedGraph()
        bits = active_engine() == "bits"
        compiled = self.workload.compiled() if bits else None
        for query in self.uncovered_queries():
            missing = self.missing(query)
            if len(missing) < 2:
                continue  # 1-coverable; BCC(1) owns it
            utility = self.workload.utility(query)
            if bits:
                # Same candidate order as the set reference; only the
                # intersection/subset tests run on masks.
                mmask = compiled.mask_of(missing)
                pairs = [
                    (c, compiled.mask_of(c))
                    for c in self._query_candidates(query, budget)
                ]
                pairs = [
                    (c, m)
                    for c, m in pairs
                    if m & mmask and mmask & ~m
                ]
                for (a, amask), (b, bmask) in itertools.combinations(pairs, 2):
                    if not mmask & ~(amask | bmask):
                        for node in (a, b):
                            if node not in graph:
                                graph.add_node(node, self.workload.cost(node))
                        graph.add_edge(a, b, utility)
                continue
            candidates = [
                c
                for c in self._query_candidates(query, budget)
                if c & missing and not missing <= c
            ]
            for a, b in itertools.combinations(candidates, 2):
                if missing <= (a | b):
                    for node in (a, b):
                        if node not in graph:
                            graph.add_node(node, self.workload.cost(node))
                    graph.add_edge(a, b, utility)
        return graph

    # ------------------------------------------------------------------
    def evaluate_gain(self, classifiers: Iterable[Classifier]) -> Tuple[float, float]:
        """True (utility gain, cost) of adding ``classifiers`` — no side effects.

        Runs the tracker's read-only ``probe_gain`` kernel: missing-set
        deltas are applied and replayed back in place, so the cost is
        proportional to the trial addition rather than to a full coverage
        rebuild of the current selection.
        """
        addition = [c for c in classifiers if not self.tracker.is_selected(c)]
        cost = sum(self.workload.cost(c) for c in addition)
        gain = self.tracker.probe_gain(addition)
        self.stats["rebuilds_avoided"] += 1
        return gain, cost
