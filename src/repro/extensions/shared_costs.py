"""Shared-construction-cost extension (future work in Section 8).

The base model sums independent classifier costs.  In practice training
data overlaps: once labeled examples exist for the property "wooden",
every classifier testing "wooden" reuses them.  This extension makes the
cost of a classifier *set* subadditive through a concrete two-part model:

- each property ``p`` has a one-time *data-collection* cost ``d(p)``,
  paid once if any selected classifier tests ``p``;
- each classifier ``c`` has a *marginal* training cost ``m(c)``.

``C(S) = sum_{p in union(S)} d(p) + sum_{c in S} m(c)`` — monotone and
submodular in ``S``, with the base model as the special case ``d = 0``.

The solver greedily adds classifiers by true marginal covered utility per
*marginal shared cost*, which correctly prefers classifiers whose
properties were already paid for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Mapping, Set

from repro.core.coverage import CoverageTracker
from repro.core.errors import InvalidInstanceError
from repro.core.model import BCCInstance, Classifier


@dataclass
class SharedCostModel:
    """A BCC instance whose selection cost is the shared-cost objective.

    Args:
        instance: the underlying workload and budget.  The instance's own
            classifier costs are used as the *marginal* costs ``m(c)``.
        property_costs: one-time data-collection cost per property
            (missing properties default to ``default_property_cost``).
        default_property_cost: see above.
    """

    instance: BCCInstance
    property_costs: Mapping[str, float] = field(default_factory=dict)
    default_property_cost: float = 0.0

    def __post_init__(self) -> None:
        for prop, cost in self.property_costs.items():
            if cost < 0:
                raise InvalidInstanceError(
                    f"property cost must be >= 0, got {cost} for {prop!r}"
                )
        if self.default_property_cost < 0:
            raise InvalidInstanceError("default property cost must be >= 0")

    def property_cost(self, prop: str) -> float:
        """One-time data-collection cost of ``prop``."""
        return float(self.property_costs.get(prop, self.default_property_cost))

    def cost_of(self, selection: Iterable[Classifier]) -> float:
        chosen = set(selection)
        paid_properties: Set[str] = set()
        total = 0.0
        for classifier in chosen:
            total += self.instance.cost(classifier)
            paid_properties |= classifier
        total += sum(self.property_cost(p) for p in paid_properties)
        return total

    def marginal_cost(
        self, classifier: Classifier, paid_properties: Set[str]
    ) -> float:
        extra = sum(
            self.property_cost(p) for p in classifier if p not in paid_properties
        )
        return self.instance.cost(classifier) + extra

    def utility_of(self, selection: Iterable[Classifier]) -> float:
        """Covered utility of ``selection`` (base coverage semantics)."""
        tracker = CoverageTracker(self.instance)
        tracker.add_all(selection)
        return tracker.utility


def certify_shared_cost(
    model: SharedCostModel, selection: Iterable[Classifier]
) -> float:
    """First-principles check of a shared-cost selection; returns its cost.

    Recomputes the subadditive cost from the model definition (one-time
    property costs plus marginal classifier costs — no solver state) and
    checks budget feasibility and finiteness.

    Raises:
        BudgetCertificateError: the selection exceeds the budget.
        CostCertificateError: an infinite-cost classifier was selected.
    """
    from repro.core.errors import BudgetCertificateError, CostCertificateError

    chosen = set(selection)
    for classifier in chosen:
        if math.isinf(model.instance.cost(classifier)):
            raise CostCertificateError(
                f"shared-cost selection includes the infinite-cost classifier "
                f"{sorted(map(str, classifier))}"
            )
    total = model.cost_of(chosen)
    budget = model.instance.budget
    if total > budget * (1.0 + 1e-9) + 1e-9:
        raise BudgetCertificateError(
            f"shared cost {total} exceeds budget {budget}"
        )
    return total


def solve_shared_cost_bcc(
    model: SharedCostModel, max_steps: int = 10_000
) -> FrozenSet[Classifier]:
    """Greedy for the shared-cost model: utility per *marginal* cost.

    Pair-aware: also considers buying a whole 2-cover in one step (a
    fresh pair has zero single-classifier gain), mirroring the greedy
    fill of the base solver.  :func:`certify_shared_cost` re-checks the
    returned selection against the shared-cost objective.
    """
    instance = model.instance
    tracker = CoverageTracker(instance)
    selection: Set[Classifier] = set()
    paid: Set[str] = set()
    spent = 0.0

    candidates = [
        c
        for c in instance.relevant_classifiers()
        if not math.isinf(instance.cost(c))
    ]

    def gain_of(addition) -> float:
        # Trial additions run against the live tracker under a checkpoint
        # and roll back — no per-candidate tracker rebuild.
        before = tracker.utility
        tracker.checkpoint()
        tracker.add_all(addition)
        gain = tracker.utility - before
        tracker.rollback()
        return gain

    for _ in range(max_steps):
        remaining = instance.budget - spent
        best_rate = 0.0
        best_addition = None
        best_cost = 0.0
        for classifier in candidates:
            if classifier in selection:
                continue
            cost = model.marginal_cost(classifier, paid)
            if cost > remaining + 1e-9:
                continue
            gain = gain_of([classifier])
            if gain <= 1e-12:
                continue
            rate = gain / cost if cost > 0 else math.inf
            if rate > best_rate:
                best_rate, best_addition, best_cost = rate, (classifier,), cost
        # Pair-aware step over the uncovered queries' cheapest 2-covers.
        from repro.core.coverage import i_covers

        for query in instance.queries:
            if tracker.is_query_covered(query):
                continue
            for cover in i_covers(query, 2, available=candidates):
                addition = tuple(c for c in cover if c not in selection)
                if not addition:
                    continue
                cost = 0.0
                provisional = set(paid)
                for classifier in addition:
                    cost += model.marginal_cost(classifier, provisional)
                    provisional |= classifier
                if cost > remaining + 1e-9:
                    continue
                gain = gain_of(addition)
                if gain <= 1e-12:
                    continue
                rate = gain / cost if cost > 0 else math.inf
                if rate > best_rate:
                    best_rate, best_addition, best_cost = rate, addition, cost
        if best_addition is None:
            break
        for classifier in best_addition:
            selection.add(classifier)
            tracker.add(classifier)
            paid |= classifier
        spent += best_cost
    return frozenset(selection)
