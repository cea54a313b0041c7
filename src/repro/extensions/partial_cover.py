"""Partial-cover utility extension (future work in Section 8).

The base model pays a query's utility only when its property set is
covered *exactly* (Section 2: partial conformance can be worse than
nothing).  This extension parameterizes that choice with a *credit
function* ``phi: [0, 1] -> [0, 1]`` mapping the covered-property fraction
to a utility fraction, with ``phi(1) = 1``:

- ``step_credit``    — the base model (0 below full coverage);
- ``threshold_credit(t)`` — full credit at 1, partial credit above ``t``;
- ``linear_credit``  — proportional credit;
- ``quadratic_credit`` — discourages shallow partial covers.

The solver is an exchange-greedy over classifiers with credit-aware
marginal gains, warm-started from the base-model ``A^BCC`` solution
(with a step credit the two coincide).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterable, List, Optional, Set

from repro.algorithms import solve_bcc
from repro.core.errors import InvalidInstanceError
from repro.core.model import BCCInstance, Classifier, Query

CreditFunction = Callable[[float], float]


def step_credit(fraction: float) -> float:
    """The base model: utility only for complete coverage."""
    return 1.0 if fraction >= 1.0 - 1e-12 else 0.0


def linear_credit(fraction: float) -> float:
    """Proportional credit for partial coverage."""
    return max(0.0, min(1.0, fraction))


def quadratic_credit(fraction: float) -> float:
    """Convex credit: shallow partial covers earn very little."""
    clipped = max(0.0, min(1.0, fraction))
    return clipped * clipped


def threshold_credit(threshold: float) -> CreditFunction:
    """Linear credit above ``threshold``, nothing below.

    Models the finding of [31] that *mildly* incomplete filtering is
    tolerable but badly incomplete filtering is worse than nothing.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")

    def credit(fraction: float) -> float:
        if fraction >= 1.0 - 1e-12:
            return 1.0
        if fraction < threshold:
            return 0.0
        if threshold >= 1.0:
            return 0.0
        return (fraction - threshold) / (1.0 - threshold)

    return credit


def _validate(credit: CreditFunction) -> None:
    if abs(credit(1.0) - 1.0) > 1e-9:
        raise InvalidInstanceError("credit function must satisfy phi(1) = 1")
    if credit(0.0) < -1e-12:
        raise InvalidInstanceError("credit function must be non-negative")


@dataclass
class PartialCoverModel:
    """A BCC instance re-scored under a partial-cover credit function."""

    instance: BCCInstance
    credit: CreditFunction = step_credit

    def __post_init__(self) -> None:
        _validate(self.credit)

    def covered_fraction(self, query: Query, selection: Iterable[Classifier]) -> float:
        """Fraction of the query properties the selection covers."""
        covered: Set[str] = set()
        for classifier in selection:
            if classifier <= query:
                covered |= classifier
        return len(covered) / len(query)

    def utility_of(self, selection: Iterable[Classifier]) -> float:
        """Credited utility of ``selection`` over the whole workload."""
        chosen = list(selection)
        total = 0.0
        for query in self.instance.queries:
            fraction = self.covered_fraction(query, chosen)
            total += self.instance.utility(query) * self.credit(fraction)
        return total

    def cost_of(self, selection: Iterable[Classifier]) -> float:
        """Total construction cost (each classifier counted once)."""
        return sum(self.instance.cost(c) for c in set(selection))


def certify_partial_cover(
    model: PartialCoverModel, selection: Iterable[Classifier]
) -> float:
    """First-principles check of a partial-cover selection; returns its
    credited utility.

    Checks budget feasibility under the (plain, additive) cost model and
    the credit invariant ``phi(f) in [0, 1]`` with fully covered queries
    earning full utility — so the credited total always dominates the
    base-model utility of the same selection.

    Raises:
        BudgetCertificateError: the selection exceeds the budget.
        UtilityCertificateError: the credited utility falls below the
            base-model (step-credit) utility of the same selection.
    """
    from repro.core.errors import BudgetCertificateError, UtilityCertificateError
    from repro.core.solution import evaluate

    chosen = list(selection)
    cost = model.cost_of(chosen)
    budget = model.instance.budget
    if cost > budget * (1.0 + 1e-9) + 1e-9:
        raise BudgetCertificateError(
            f"partial-cover cost {cost} exceeds budget {budget}"
        )
    credited = model.utility_of(chosen)
    base = evaluate(model.instance, chosen).utility
    if credited < base - 1e-9 * max(1.0, base):
        raise UtilityCertificateError(
            f"credited utility {credited} falls below the base-model utility "
            f"{base} of the same selection (phi(1) = 1 forbids this)"
        )
    return credited


def solve_partial_bcc(
    model: PartialCoverModel,
    warm_start: bool = True,
    max_steps: int = 10_000,
) -> FrozenSet[Classifier]:
    """Credit-aware greedy for the partial-cover model.

    Runs the credit-aware greedy from two starts — the base-model
    ``A^BCC`` solution (when ``warm_start`` is set) and an empty set —
    and keeps whichever scores better under the model: the warm start is
    exactly right under a step credit, but under partial credit it can
    lock the budget into all-or-nothing picks a cold greedy avoids.
    :func:`certify_partial_cover` re-checks the returned selection
    against the credited objective.
    """
    instance = model.instance
    starts: List[Set[Classifier]] = [set()]
    if warm_start:
        starts.append(set(solve_bcc(instance).classifiers))
    best_selection: Set[Classifier] = set()
    best_utility = -1.0
    for start in starts:
        selection = _greedy_from(model, start, max_steps)
        utility = model.utility_of(selection)
        if utility > best_utility:
            best_utility = utility
            best_selection = selection
    return frozenset(best_selection)


def _greedy_from(
    model: PartialCoverModel, start: Set[Classifier], max_steps: int
) -> Set[Classifier]:
    """Credit-aware greedy fill from a given starting selection."""
    instance = model.instance
    selection: Set[Classifier] = set(start)
    spent = model.cost_of(selection)
    current = model.utility_of(selection)

    candidates = [
        c
        for c in instance.relevant_classifiers()
        if not math.isinf(instance.cost(c))
    ]
    for _ in range(max_steps):
        remaining = instance.budget - spent
        best_gain_rate = 0.0
        best_choice: Optional[Classifier] = None
        best_utility = current
        for classifier in candidates:
            if classifier in selection:
                continue
            cost = instance.cost(classifier)
            if cost > remaining + 1e-9:
                continue
            utility = model.utility_of(selection | {classifier})
            gain = utility - current
            if gain <= 1e-12:
                continue
            rate = gain / cost if cost > 0 else math.inf
            if rate > best_gain_rate:
                best_gain_rate = rate
                best_choice = classifier
                best_utility = utility
        if best_choice is None:
            break
        selection.add(best_choice)
        spent += instance.cost(best_choice)
        current = best_utility
    return frozenset(selection)
