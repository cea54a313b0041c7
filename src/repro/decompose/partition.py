"""Connected components of ``Q`` under shared-usable-classifier overlap.

A classifier ``c`` can only help cover queries ``q ⊇ c``, so two queries
interact iff some *usable* (finite-cost) classifier is a subset of both —
i.e. iff some non-empty subset of their intersection has finite cost.
Components of that relation never interact except through the shared
budget (PAPER.md §2–3), which is exactly what the sharded solver
(:func:`repro.incremental.solve_bcc_sharded`) exploits; its warm
re-plans (:class:`repro.incremental.IncrementalSolver`) re-run
:func:`partition_workload` after every workload edit.

The partition computed here unions queries per shared property, walking
the workload's property→query inverted index (the ``CompiledWorkload``
``bit_queries`` table under the ``bits`` engine, a locally built name
index under ``sets`` — identical output either way).  A property is
skipped when *no* finite-cost relevant classifier tests it: such a
property can never appear in a selected classifier, hence never couples
two queries.  Property-sharing is otherwise a conservative superset of
the classifier relation (the shared singleton may itself be priced
infinite while a larger shared subset is finite, and over-merging is
always exact — it only forfeits parallelism, never correctness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.bitset import active_engine
from repro.core.model import BCCInstance, ClassifierWorkload, Query


class _UnionFind:
    """Path-halving union-find over ``range(n)``."""

    __slots__ = ("parent",)

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Anchor to the smaller root so roots stay workload-ordered.
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def connected_components(n: int, rows: Iterable[Sequence[int]]) -> List[List[int]]:
    """Components of ``range(n)`` where each row's members are connected.

    Components come in order of their first member, and members in
    ascending order, so the output depends only on the rows' contents.
    """
    uf = _UnionFind(n)
    for row in rows:
        first = row[0]
        for other in row[1:]:
            uf.union(first, other)
    members: Dict[int, List[int]] = {}
    for position in range(n):
        members.setdefault(uf.find(position), []).append(position)
    return list(members.values())


def property_usable(workload: ClassifierWorkload, prop: str) -> bool:
    """Whether any finite-cost relevant classifier tests ``prop``.

    Fast path: the singleton ``{prop}`` (relevant whenever the property
    occurs in a query) at finite cost.  Only when the singleton is
    explicitly priced infinite does the property→classifier index get
    consulted.
    """
    if not math.isinf(workload.cost(frozenset({prop}))):
        return True
    return any(
        not math.isinf(workload.cost(classifier))
        for classifier in workload.classifiers_containing_property(prop)
    )


@dataclass(frozen=True)
class WorkloadPartition:
    """The decomposition of a workload into independent shards.

    Attributes:
        workload: the partitioned workload.
        shards: per-shard query tuples; shards are ordered by their first
            query's workload position and queries within a shard keep
            workload order, so the partition is deterministic and
            engine-identical.
    """

    workload: ClassifierWorkload
    shards: Tuple[Tuple[Query, ...], ...]

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_workload(self, index: int) -> ClassifierWorkload:
        """The shard's sub-workload view (same class; budget preserved
        for :class:`~repro.core.model.BCCInstance` workloads)."""
        return self.workload.restrict(self.shards[index])

    def shard_instance(self, index: int, budget: float) -> BCCInstance:
        """The shard as a :class:`BCCInstance` at ``budget``."""
        view = self.shard_workload(index)
        if isinstance(view, BCCInstance):
            return view.with_budget(budget)
        return BCCInstance(
            view.queries,
            view._utilities,
            view._costs,
            budget=budget,
            default_utility=view.default_utility,
            default_cost=view.default_cost,
        )


def _property_rows(workload: ClassifierWorkload) -> List[Tuple[str, Sequence[int]]]:
    """(property, ascending query indexes) rows of the inverted index.

    Under ``bits`` this is the compiled workload's ``bit_queries`` table;
    under ``sets`` a locally built name index over the same workload
    order.  Rows are emitted in sorted property-name order either way
    (the bit layout *is* sorted name order), so union order — and hence
    the whole partition — is engine-identical.
    """
    if active_engine() == "bits":
        compiled = workload.compiled()
        names = compiled.space.names
        return [(names[bit], row) for bit, row in enumerate(compiled.bit_queries)]
    index: Dict[str, List[int]] = {}
    for position, query in enumerate(workload.queries):
        for prop in query:
            index.setdefault(prop, []).append(position)
    return [(prop, index[prop]) for prop in sorted(index)]


def partition_workload(workload: ClassifierWorkload) -> WorkloadPartition:
    """Partition ``workload.queries`` into independent shards.

    Linear in the total query size plus one usability probe per shared
    property; the probe touches the property→classifier index only for
    properties whose singleton is explicitly priced infinite.
    """
    queries = workload.queries
    rows = (
        row
        for prop, row in _property_rows(workload)
        if len(row) > 1 and property_usable(workload, prop)
    )
    shards = tuple(
        tuple(queries[position] for position in component)
        for component in connected_components(len(queries), rows)
    )
    return WorkloadPartition(workload=workload, shards=shards)
