"""Fragmented synthetic workloads: many independent components by design.

Real classifier workloads are often topically clustered — camera queries
share camera properties, refrigerator queries share refrigerator
properties, and nothing bridges the two.  Such workloads decompose into
independent components that :func:`repro.incremental.solve_bcc_sharded`
solves shard by shard.  This generator builds that structure explicitly:
``n_components`` disjoint property pools, each populated by an
independent synthetic sub-workload (same length/cost/utility marginals
as :func:`repro.datasets.synthetic.generate_synthetic`), so the
component count of the result is known by construction and the
decomposition engine has something honest to chew on.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Set

from repro.core.model import BCCInstance, powerset_classifiers
from repro.datasets.lengths import plan_length_counts
from repro.datasets.synthetic import MAX_LENGTH, _LENGTH_WEIGHTS


def generate_fragmented(
    n_components: int = 8,
    queries_per_component: int = 40,
    properties_per_component: int = 30,
    budget: float = 400.0,
    seed: int = 0,
    max_cost: int = 50,
    max_utility: int = 50,
) -> BCCInstance:
    """Generate a BCC instance with exactly ``n_components`` components.

    Each component draws its queries from a private property pool
    (``c{k}_p{i}`` names), so no property — and hence no classifier — is
    shared across components; ``partition_workload`` recovers exactly
    ``n_components`` shards.  Marginals within a component follow the
    paper's synthetic spec: truncated-geometric lengths, integer costs in
    ``[0, max_cost]``, integer utilities in ``[1, max_utility]``.
    """
    if n_components <= 0:
        raise ValueError(f"n_components must be positive, got {n_components}")
    if queries_per_component <= 0:
        raise ValueError(
            f"queries_per_component must be positive, got {queries_per_component}"
        )
    if properties_per_component < MAX_LENGTH:
        raise ValueError(
            f"need at least {MAX_LENGTH} properties per component, "
            f"got {properties_per_component}"
        )
    rng = random.Random(seed)

    query_list: List[FrozenSet[str]] = []
    utilities: Dict[FrozenSet[str], float] = {}
    costs: Dict[FrozenSet[str], float] = {}
    for component in range(n_components):
        pool = [f"c{component}_p{i}" for i in range(properties_per_component)]
        counts = plan_length_counts(
            queries_per_component, _LENGTH_WEIGHTS, properties_per_component
        )
        queries: Set[FrozenSet[str]] = set()
        for length, count in sorted(counts.items()):
            while count > 0:
                candidate = frozenset(rng.sample(pool, length))
                if candidate not in queries:
                    queries.add(candidate)
                    count -= 1
        for query in sorted(queries, key=sorted):
            query_list.append(query)
            utilities[query] = float(rng.randint(1, max_utility))
            for classifier in powerset_classifiers(query):
                if classifier not in costs:
                    costs[classifier] = float(rng.randint(0, max_cost))
    return BCCInstance(query_list, utilities, costs, budget=budget)
