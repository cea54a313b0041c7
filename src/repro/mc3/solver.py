"""MC3 dispatcher and the full-cover budget bound used by the experiments.

Strategy (mirroring [23]): solve the dominant ``l <= 2`` query subset
*exactly* with the min-cut solver, preselect its output, then extend to the
longer queries with the greedy minimal-cover heuristic.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional

from repro.core.model import Classifier, ClassifierWorkload, Query
from repro.mc3.exact_l2 import solve_mc3_l2
from repro.mc3.greedy import solve_mc3_greedy


def solve_mc3(
    workload: ClassifierWorkload,
    queries: Optional[Iterable[Query]] = None,
    available: Optional[Iterable[Classifier]] = None,
    preselected: FrozenSet[Classifier] = frozenset(),
) -> FrozenSet[Classifier]:
    """Minimum-cost classifier set covering all target queries.

    Exact for workloads with ``l <= 2``; hybrid exact + greedy otherwise.
    :func:`repro.verify.certificate.verify_cover` re-checks a full cover
    from first principles.

    Raises:
        InfeasibleCoverError: if some query has no finite-cost cover.
    """
    targets = (
        sorted(queries, key=sorted) if queries is not None else list(workload.queries)
    )
    short = [q for q in targets if len(q) <= 2]
    long_queries = [q for q in targets if len(q) > 2]

    selected: FrozenSet[Classifier] = frozenset()
    if short:
        selected = solve_mc3_l2(workload, short, available, preselected)
    if long_queries:
        extension = solve_mc3_greedy(
            workload,
            long_queries,
            available,
            preselected=preselected | selected,
        )
        selected = selected | extension
    return selected


def full_cover_cost(workload: ClassifierWorkload) -> float:
    """Cost of an MC3 solution covering every query.

    The paper uses this value as the upper end of the budget sweeps
    (Section 6.1: "To compute an upper bound on this range, we solved the
    MC3 problem").
    """
    solution = solve_mc3(workload)
    return sum(workload.cost(c) for c in solution)
