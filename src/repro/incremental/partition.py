"""Dynamically maintained workload partition for the delta engine.

:func:`repro.decompose.partition.partition_workload` recomputes the
shared-usable-property components from scratch — linear, but linear *per
delta* adds up when re-planning after every workload edit.
:class:`DynamicPartition` maintains the same components incrementally:

- **adds** are classic incremental union-find edge insertions — the new
  query's component unions with every component sharing a usable
  property, cost proportional to the query size;
- **deletes** trigger a *local* rebuild of the removed query's component
  only (union-find cannot un-union): the shared
  :func:`~repro.decompose.partition.connected_components` routine re-run
  over that component's members;
- **cost reprices** that may flip a property's usability merge (newly
  finite) or locally rebuild (newly infinite) the components touching
  the classifier's properties, and always dirty the components of the
  queries the classifier could help cover;
- **utility reprices** just dirty the owning component.

Components touched by any of the above are tracked in a *dirty* set so
the engine knows which shard solutions are stale; :meth:`materialize`
freezes the current components into the same canonical
:class:`~repro.decompose.partition.WorkloadPartition` shape the cold
partitioner produces (shards ordered by first-member workload position,
members in workload order), and :meth:`check` asserts equality against a
cold :func:`partition_workload` run — the debugging backstop for the
maintenance logic.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set, Tuple

from repro.core.model import Classifier, ClassifierWorkload, Query
from repro.decompose.partition import (
    WorkloadPartition,
    connected_components,
    partition_workload,
    property_usable,
)


class DynamicPartition:
    """Incrementally maintained connected components of a mutable workload."""

    def __init__(self, workload: ClassifierWorkload) -> None:
        self.workload = workload
        #: query → component id
        self._member: Dict[Query, int] = {}
        #: component id → member queries
        self._components: Dict[int, Set[Query]] = {}
        #: property → queries containing it (maintained across mutations)
        self._prop_queries: Dict[str, Set[Query]] = {}
        #: component ids whose shard solution is stale
        self._dirty: Set[int] = set()
        self._next_id = 0
        cold = partition_workload(workload)
        for shard in cold.shards:
            cid = self._fresh_id()
            members = set(shard)
            self._components[cid] = members
            for query in members:
                self._member[query] = cid
        for query in workload.queries:
            for prop in query:
                self._prop_queries.setdefault(prop, set()).add(query)
        # A fresh partition starts fully dirty: nothing is solved yet.
        self._dirty = set(self._components)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _fresh_id(self) -> int:
        cid = self._next_id
        self._next_id += 1
        return cid

    @property
    def num_components(self) -> int:
        return len(self._components)

    @property
    def num_dirty(self) -> int:
        return len(self._dirty)

    def component_of(self, query: Query) -> int:
        return self._member[query]

    def mark_clean(self) -> None:
        """All current components have up-to-date solutions."""
        self._dirty.clear()

    def _merge(self, cids: Iterable[int]) -> int:
        """Union several components into the largest one; result is dirty."""
        distinct = sorted(set(cids))
        target = max(distinct, key=lambda cid: (len(self._components[cid]), -cid))
        for cid in distinct:
            if cid == target:
                continue
            members = self._components.pop(cid)
            self._dirty.discard(cid)
            for query in members:
                self._member[query] = target
            self._components[target].update(members)
        self._dirty.add(target)
        return target

    def _rebuild_local(self, members: Set[Query]) -> None:
        """Re-split ``members`` into components (post-deletion / cost kill).

        :func:`connected_components` over just these queries, joined by
        their usable shared properties — the rest of the partition is
        untouched.  All resulting components are fresh ids and dirty.
        """
        for query in members:
            old = self._member.pop(query)
            component = self._components.get(old)
            if component is not None:
                component.discard(query)
                if not component:
                    del self._components[old]
                    self._dirty.discard(old)
                else:
                    self._dirty.add(old)
        ordered = list(members)
        index = {query: position for position, query in enumerate(ordered)}
        rows = []
        for prop in {prop for query in ordered for prop in query}:
            row = [index[q] for q in self._prop_queries.get(prop, ()) if q in index]
            if len(row) > 1 and property_usable(self.workload, prop):
                rows.append(row)
        for component in connected_components(len(ordered), rows):
            cid = self._fresh_id()
            group = {ordered[position] for position in component}
            self._components[cid] = group
            for query in group:
                self._member[query] = cid
            self._dirty.add(cid)

    # ------------------------------------------------------------------
    # mutation notifications (call *after* the workload mutated)
    # ------------------------------------------------------------------
    def note_added(self, query: Query) -> int:
        """Incremental edge insertion for a freshly added query."""
        cid = self._fresh_id()
        self._components[cid] = {query}
        self._member[query] = cid
        self._dirty.add(cid)
        for prop in query:
            self._prop_queries.setdefault(prop, set()).add(query)
        neighbours = {cid}
        for prop in query:
            peers = self._prop_queries[prop]
            if len(peers) < 2 or not property_usable(self.workload, prop):
                continue
            neighbours.update(self._member[other] for other in peers)
        if len(neighbours) > 1:
            return self._merge(neighbours)
        return cid

    def note_removed(self, query: Query) -> None:
        """Deletion: rebuild the removed query's component locally."""
        for prop in query:
            peers = self._prop_queries.get(prop)
            if peers is not None:
                peers.discard(query)
                if not peers:
                    del self._prop_queries[prop]
        cid = self._member.pop(query)
        members = self._components.pop(cid)
        self._dirty.discard(cid)
        members.discard(query)
        if members:
            self._rebuild_local(members)

    def note_utility(self, query: Query) -> None:
        """Utility reprice: the owning shard's solution is stale."""
        self._dirty.add(self._member[query])

    def note_cost(self, classifier: Classifier, old_cost: float, new_cost: float) -> None:
        """Cost reprice: dirty affected shards, fix connectivity if usability flipped.

        ``old_cost``/``new_cost`` are the *effective* prices before and
        after the mutation.  A price drop can only merge (a property may
        become usable), a price rise can only split (a usable property
        may die) — both restricted to the components touching the
        classifier's properties.
        """
        for query in self.workload.queries_containing(classifier):
            self._dirty.add(self._member[query])
        if new_cost == old_cost:
            return
        touched: Set[Query] = set()
        for prop in classifier:
            touched.update(self._prop_queries.get(prop, ()))
        if not touched:
            return
        if new_cost < old_cost:
            # Possibly newly-usable properties: union per shared property.
            for prop in classifier:
                peers = self._prop_queries.get(prop, ())
                if len(peers) < 2 or not property_usable(self.workload, prop):
                    continue
                cids = {self._member[other] for other in peers}
                if len(cids) > 1:
                    self._merge(cids)
        else:
            # Possibly newly-dead properties: if any shared property of the
            # classifier lost usability, re-split the touched components.
            died = [
                prop
                for prop in classifier
                if len(self._prop_queries.get(prop, ())) > 1
                and not property_usable(self.workload, prop)
            ]
            if died:
                members: Set[Query] = set()
                for query in touched:
                    members.update(self._components[self._member[query]])
                self._rebuild_local(members)

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------
    def materialize(self) -> Tuple[WorkloadPartition, Tuple[int, ...]]:
        """Freeze into a canonical partition; returns ``(partition, dirty)``.

        The partition is byte-for-byte what :func:`partition_workload`
        would produce on the current workload (shards by first-member
        position, members in workload order); ``dirty`` holds the shard
        indexes whose solutions are stale since the last
        :meth:`mark_clean`.
        """
        position = {query: i for i, query in enumerate(self.workload.queries)}
        ordered = sorted(
            self._components.items(),
            key=lambda item: min(position[q] for q in item[1]),
        )
        shards = tuple(
            tuple(sorted(members, key=position.__getitem__))
            for _, members in ordered
        )
        query_to_shard = {
            query: index for index, shard in enumerate(shards) for query in shard
        }
        dirty = tuple(
            index for index, (cid, _) in enumerate(ordered) if cid in self._dirty
        )
        partition = WorkloadPartition(
            workload=self.workload, shards=shards, query_to_shard=query_to_shard
        )
        return partition, dirty

    def check(self) -> None:
        """Assert equality with a cold :func:`partition_workload` run."""
        cold = partition_workload(self.workload)
        warm, _ = self.materialize()
        if warm.shards != cold.shards:
            raise AssertionError(
                f"dynamic partition diverged: {len(warm.shards)} warm shards "
                f"vs {len(cold.shards)} cold — {warm.shards} != {cold.shards}"
            )
