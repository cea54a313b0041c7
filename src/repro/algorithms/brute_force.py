"""Exact BCC oracle by branch-and-bound (Figure 3d and the test suite).

Enumerates include/exclude decisions over the feasible relevant classifiers
ordered by potential utility, with an optimistic bound (utility of every
query still coverable by the remaining classifier suffix).  Node utilities
come from one shared :class:`CoverageTracker` driven through its
checkpoint/rollback undo log — the search never re-derives coverage of the
current prefix from scratch.
"""

from __future__ import annotations

import math
from typing import List, Set, Tuple

from repro.core.coverage import CoverageTracker
from repro.core.model import BCCInstance, Classifier
from repro.core.solution import Solution, evaluate

_MAX_CLASSIFIERS = 24


def solve_bcc_exact(instance: BCCInstance) -> Solution:
    """Provably optimal BCC solution (small instances only).

    Raises:
        ValueError: if the feasible classifier set is too large.
    """
    classifiers: List[Classifier] = sorted(
        (
            c
            for c in instance.relevant_classifiers()
            if not math.isinf(instance.cost(c)) and instance.cost(c) <= instance.budget
        ),
        key=lambda c: (instance.cost(c), sorted(c)),
    )
    if len(classifiers) > _MAX_CLASSIFIERS:
        raise ValueError(
            f"exact BCC limited to {_MAX_CLASSIFIERS} classifiers, got {len(classifiers)}"
        )

    # Optimistic bound: utility of queries whose properties are coverable
    # by the classifiers from position i on plus anything already selected.
    suffix_props: List[Set[str]] = [set() for _ in range(len(classifiers) + 1)]
    for i in range(len(classifiers) - 1, -1, -1):
        suffix_props[i] = suffix_props[i + 1] | classifiers[i]

    best_utility = -1.0
    best_selection: Tuple[Classifier, ...] = ()

    tracker = CoverageTracker(instance)

    def search(index: int, chosen: List[Classifier], cost: float) -> None:
        nonlocal best_utility, best_selection
        if tracker.utility > best_utility:
            best_utility = tracker.utility
            best_selection = tuple(chosen)
        if index == len(classifiers):
            return
        chosen_props = set().union(*chosen) if chosen else set()
        available = chosen_props | suffix_props[index]
        bound = sum(
            instance.utility(q) for q in instance.queries if set(q) <= available
        )
        if bound <= best_utility:
            return
        classifier = classifiers[index]
        if cost + instance.cost(classifier) <= instance.budget + 1e-9:
            chosen.append(classifier)
            tracker.checkpoint()
            tracker.add(classifier)
            search(index + 1, chosen, cost + instance.cost(classifier))
            tracker.rollback()
            chosen.pop()
        search(index + 1, chosen, cost)

    search(0, [], 0.0)
    return evaluate(instance, best_selection, meta={"algorithm": "brute-force"})
