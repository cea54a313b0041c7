"""``WorkloadDelta`` — a validated batch of workload mutations.

A delta is the unit of change of the dynamic-BCC layer: a frozen record
of query additions and removals, utility reprices and classifier cost
reprices, applied atomically by
:meth:`repro.core.model.ClassifierWorkload.apply_delta` in the fixed
order *removals → additions → utilities → costs*.  The class carries
its own validation (:meth:`WorkloadDelta.validate` simulates the full
application before the first mutation happens) and its own inverse
(:meth:`WorkloadDelta.inverse`, computed against the pre-application
workload so a delta followed by its inverse restores the exact original
instance, explicit/default splits included).

``None`` values mean "revert to the workload default": an added query
with utility ``None`` uses ``default_utility``, a cost entry ``(c,
None)`` deletes the explicit price of ``c``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from random import Random
from typing import Iterable, Mapping, Optional, Set, Tuple, Union

from repro.core.errors import InvalidDeltaError
from repro.core.model import Classifier, ClassifierWorkload, Query

_QueryEntry = Tuple[Query, Optional[float]]
_CostEntry = Tuple[Classifier, Optional[float]]


def _as_query(value: Iterable[str]) -> Query:
    query = frozenset(value)
    if not query or not all(isinstance(p, str) for p in query):
        raise InvalidDeltaError(f"queries must be non-empty property sets, got {value!r}")
    return query


def _entries(
    source: Union[None, Mapping, Iterable], kind: str
) -> Tuple[Tuple[frozenset, Optional[float]], ...]:
    """Normalize a mapping / pair-iterable / bare-key-iterable to entry tuples."""
    if source is None:
        return ()
    if isinstance(source, Mapping):
        pairs = source.items()
    else:
        pairs = []
        for item in source:
            if isinstance(item, tuple) and len(item) == 2 and not isinstance(item[0], str):
                pairs.append(item)
            else:
                pairs.append((item, None))
    out = []
    for key, value in pairs:
        out.append((_as_query(key), None if value is None else float(value)))
    seen: Set[frozenset] = set()
    for key, _ in out:
        if key in seen:
            raise InvalidDeltaError(f"duplicate {kind} entry {sorted(key)}")
        seen.add(key)
    return tuple(out)


@dataclass(frozen=True)
class WorkloadDelta:
    """One atomic batch of workload mutations (all fields normalized tuples).

    Attributes:
        add: ``(query, explicit utility or None)`` pairs to append.
        remove: queries to drop.
        utilities: ``(query, utility or None)`` reprices; ``None`` reverts
            to the default utility.
        costs: ``(classifier, cost or None)`` reprices; ``None`` reverts
            to the default cost.
    """

    add: Tuple[_QueryEntry, ...] = field(default=())
    remove: Tuple[Query, ...] = field(default=())
    utilities: Tuple[_QueryEntry, ...] = field(default=())
    costs: Tuple[_CostEntry, ...] = field(default=())

    @classmethod
    def of(
        cls,
        add: Union[None, Mapping, Iterable] = None,
        remove: Optional[Iterable[Iterable[str]]] = None,
        utilities: Union[None, Mapping, Iterable] = None,
        costs: Union[None, Mapping, Iterable] = None,
    ) -> "WorkloadDelta":
        """Build a delta from loose inputs (mappings, pair lists, bare sets)."""
        removed = tuple(_as_query(q) for q in (remove or ()))
        seen: Set[Query] = set()
        for query in removed:
            if query in seen:
                raise InvalidDeltaError(f"duplicate removal of {sorted(query)}")
            seen.add(query)
        return cls(
            add=_entries(add, "add"),
            remove=removed,
            utilities=_entries(utilities, "utility"),
            costs=_entries(costs, "cost"),
        )

    @property
    def is_empty(self) -> bool:
        return not (self.add or self.remove or self.utilities or self.costs)

    @property
    def num_edits(self) -> int:
        """Individual mutations this delta performs when applied."""
        return len(self.add) + len(self.remove) + len(self.utilities) + len(self.costs)

    def validate(self, workload: ClassifierWorkload) -> None:
        """Simulate the full application; raise before any real mutation.

        Checks exactly what :meth:`ClassifierWorkload.apply_delta` would
        hit mid-flight — unknown removals, duplicate additions, reprices
        of absent queries, invalid values, an emptied query set — so a
        delta either applies completely or not at all.
        """
        present = set(workload.queries)
        for query in self.remove:
            if query not in present:
                raise InvalidDeltaError(f"remove of unknown query {sorted(query)}")
            present.discard(query)
        if not present and not self.add:
            raise InvalidDeltaError("delta would leave an empty query set")
        for query, utility in self.add:
            if query in present:
                raise InvalidDeltaError(f"add of duplicate query {sorted(query)}")
            present.add(query)
            _check_utility(query, utility)
        for query, utility in self.utilities:
            if query not in present:
                raise InvalidDeltaError(
                    f"utility reprice of absent query {sorted(query)}"
                )
            _check_utility(query, utility)
        for classifier, cost in self.costs:
            if not classifier:
                raise InvalidDeltaError("cost reprice of the empty classifier")
            if cost is not None and (math.isnan(cost) or cost < 0):
                raise InvalidDeltaError(
                    f"costs must be >= 0 (math.inf allowed), got {cost}"
                )

    def inverse(self, workload: ClassifierWorkload) -> "WorkloadDelta":
        """The delta undoing this one, captured *before* application.

        Removed queries come back with their prior explicit utility (or
        none), added queries are removed, reprices revert to the prior
        explicit value or to the default — so ``w.apply_delta(d)`` then
        ``w.apply_delta(inv)`` restores the original instance exactly,
        fingerprint token stream included.  Queries this delta adds or
        removes need no utility reverts (the add/remove pair carries the
        explicit split), so those entries are dropped.
        """
        self.validate(workload)
        moved = {query for query, _ in self.add} | set(self.remove)
        return WorkloadDelta(
            add=tuple(
                (query, workload._utilities.get(query)) for query in self.remove
            ),
            remove=tuple(query for query, _ in self.add),
            utilities=tuple(
                (query, workload._utilities.get(query))
                for query, _ in self.utilities
                if query not in moved
            ),
            costs=tuple(
                (classifier, workload._costs.get(classifier))
                for classifier, _ in self.costs
            ),
        )

    def to_json(self) -> dict:
        """A JSON-compatible dict round-tripping through :meth:`from_json`.

        Property sets become sorted lists and infinite costs the string
        ``"inf"`` (mirroring :mod:`repro.datasets.schema`), so serialized
        traffic traces stay human-readable and diff-stable.
        """

        def encode(entries):
            return [
                {
                    "props": sorted(key),
                    "value": "inf"
                    if value is not None and math.isinf(value)
                    else value,
                }
                for key, value in entries
            ]

        return {
            "add": encode(self.add),
            "remove": [sorted(query) for query in self.remove],
            "utilities": encode(self.utilities),
            "costs": encode(self.costs),
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> "WorkloadDelta":
        """Rebuild the delta stored by :meth:`to_json`."""

        def decode(entries):
            return [
                (
                    frozenset(entry["props"]),
                    math.inf
                    if entry["value"] == "inf"
                    else entry["value"],
                )
                for entry in entries
            ]

        return cls.of(
            add=decode(payload.get("add", ())),
            remove=[frozenset(props) for props in payload.get("remove", ())],
            utilities=decode(payload.get("utilities", ())),
            costs=decode(payload.get("costs", ())),
        )


def _check_utility(query: Query, utility: Optional[float]) -> None:
    if utility is not None and not (utility > 0 and not math.isinf(utility)):
        raise InvalidDeltaError(
            f"utilities must be finite and positive, got {utility} for {sorted(query)}"
        )


def random_delta(
    workload: ClassifierWorkload,
    rng: Random,
    fraction: float = 0.01,
    reprice: bool = True,
) -> WorkloadDelta:
    """A valid random delta touching about ``fraction`` of the queries.

    The bench / fuzz workhorse: picks ``max(1, round(fraction · m))``
    distinct existing queries and for each (deterministically from
    ``rng``) removes it, reprices its utility, or replaces it with a
    fresh query over the same property vocabulary; with ``reprice`` one
    singleton classifier cost reprice rides along.  The result always
    passes :meth:`WorkloadDelta.validate` on ``workload``.
    """
    queries = list(workload.queries)
    k = max(1, round(fraction * len(queries)))
    k = min(k, len(queries) - 1)  # never empty the workload
    picked = rng.sample(queries, k) if k else []
    properties = sorted({prop for query in queries for prop in query})
    existing = set(queries)

    add = []
    remove = []
    utilities = []
    for query in picked:
        roll = rng.random()
        if roll < 0.4:
            remove.append(query)
        elif roll < 0.7 and reprice:
            utilities.append((query, round(workload.utility(query) * (1 + rng.random()), 6)))
        else:
            remove.append(query)
            for _ in range(8):
                size = rng.randint(1, min(4, len(properties)))
                fresh = frozenset(rng.sample(properties, size))
                if fresh not in existing and fresh not in {q for q, _ in add}:
                    add.append((fresh, round(1.0 + rng.random(), 6)))
                    break
    costs = []
    if reprice and properties:
        prop = rng.choice(properties)
        singleton = frozenset({prop})
        costs.append((singleton, round(workload.cost(singleton) * (1 + rng.random()), 6)))
    return WorkloadDelta.of(add=add, remove=remove, utilities=utilities, costs=costs)
