"""Problem instances: BCC, GMC3 and ECC.

The input to the Budgeted Classifier Construction problem is the tuple
``⟨Q, U, C, B⟩`` (Section 2.1): queries ``Q ⊆ 2^P``, utilities
``U : Q → R+``, classifier costs ``C : CL → [0, ∞]`` and budget ``B``.
The relevant classifier set ``CL = ⋃_{q∈Q} 2^q \\ ∅`` is derived, never
supplied.  A cost of ``math.inf`` marks a classifier whose construction is
impractical (excluded from every solution); a cost of ``0`` marks one that
already exists.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.errors import InvalidDeltaError, InvalidInstanceError
from repro.core.properties import PropertySet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.incremental.delta import WorkloadDelta  # noqa: F401

Query = PropertySet
Classifier = PropertySet


def _validate_query(query: Query) -> None:
    if not isinstance(query, frozenset):
        raise InvalidInstanceError(f"queries must be frozensets, got {type(query).__name__}")
    if not query:
        raise InvalidInstanceError("queries must contain at least one property")


def powerset_classifiers(query: Query) -> Iterator[Classifier]:
    """All classifiers relevant to ``query``: ``2^q`` minus the empty set."""
    items = sorted(query)
    for size in range(1, len(items) + 1):
        for combo in itertools.combinations(items, size):
            yield frozenset(combo)


class _PayloadMemo:
    """One-slot box for a workload's encoded fingerprint payload.

    :mod:`repro.parallel.fingerprint` fills it with the UTF-8 encoding of
    ``workload_tokens`` — the budget-free part of every canonical
    fingerprint — so a budget sweep or a warm serving read encodes
    ``⟨Q, U, C⟩`` once per workload version and appends only its
    ``B=``/``T=`` token.  Every holder of one box has identical token
    content: ``_bump_version`` gives the mutated workload a fresh box, and
    only :meth:`BCCInstance.with_budget` twins share one.  Pickling drops
    the payload; the copy re-derives it on first use.
    """

    __slots__ = ("payload",)

    def __init__(self) -> None:
        self.payload: Optional[bytes] = None

    def __reduce__(self):
        return (_PayloadMemo, ())


class ClassifierWorkload:
    """The budget-free part of an instance: queries, utilities, costs.

    Args:
        queries: the query set (duplicates are rejected).
        utilities: query -> positive utility.  Queries missing from the
            mapping get ``default_utility``.
        costs: classifier -> cost in ``[0, ∞]``.  Classifiers missing from
            the mapping get ``default_cost`` (the paper's uniform-cost
            convention when analysts supplied no estimates).
        default_utility: utility for unlisted queries (must be positive).
        default_cost: cost for unlisted classifiers (must be >= 0).
    """

    def __init__(
        self,
        queries: Iterable[Query],
        utilities: Optional[Mapping[Query, float]] = None,
        costs: Optional[Mapping[Classifier, float]] = None,
        default_utility: float = 1.0,
        default_cost: float = 1.0,
    ) -> None:
        query_list = list(queries)
        seen = set()
        for query in query_list:
            _validate_query(query)
            if query in seen:
                raise InvalidInstanceError(f"duplicate query {sorted(query)}")
            seen.add(query)
        if not query_list:
            raise InvalidInstanceError("the query set must not be empty")
        if default_utility <= 0:
            raise InvalidInstanceError("default utility must be positive")
        if default_cost < 0:
            raise InvalidInstanceError("default cost must be non-negative")

        self.queries: Tuple[Query, ...] = tuple(query_list)
        self._query_set = frozenset(query_list)
        self._utilities: Dict[Query, float] = {}
        for query, value in (utilities or {}).items():
            if query not in self._query_set:
                raise InvalidInstanceError(
                    f"utility given for unknown query {sorted(query)}"
                )
            if not value > 0 or math.isinf(value):
                raise InvalidInstanceError(
                    f"utilities must be finite and positive, got {value} for {sorted(query)}"
                )
            self._utilities[query] = float(value)
        self._costs: Dict[Classifier, float] = {}
        for classifier, value in (costs or {}).items():
            if not isinstance(classifier, frozenset) or not classifier:
                raise InvalidInstanceError(
                    f"classifier keys must be non-empty frozensets, got {classifier!r}"
                )
            if value < 0:
                raise InvalidInstanceError(
                    f"costs must be >= 0 (math.inf allowed), got {value}"
                )
            self._costs[classifier] = float(value)
        self.default_utility = float(default_utility)
        self.default_cost = float(default_cost)
        #: Mutation counter: bumped by every in-place mutation (the delta
        #: API).  Derived views — the compiled bitmask workload, coverage
        #: trackers — record the version they were built against; a stale
        #: view raises :class:`~repro.core.errors.StaleWorkloadError`
        #: instead of serving coverage for a query set that no longer
        #: exists.
        self.version: int = 0
        self._relevant_cache: Optional[FrozenSet[Classifier]] = None
        self._property_index: Optional[Dict[str, List[Query]]] = None
        self._classifier_index: Optional[Dict[str, List[Classifier]]] = None
        self._containing_cache: Dict[PropertySet, Tuple[Query, ...]] = {}
        #: Version the memoized containing/index caches were filled at.
        self._containing_version: int = 0
        self._payload_memo = _PayloadMemo()

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def properties(self) -> PropertySet:
        """The property universe ``P`` (union of all queries)."""
        result: FrozenSet[str] = frozenset()
        for query in self.queries:
            result = result | query
        return result

    @property
    def num_queries(self) -> int:
        """Number of queries ``m``."""
        return len(self.queries)

    @property
    def length(self) -> int:
        """The length parameter ``l``: maximum query cardinality."""
        return max(len(q) for q in self.queries)

    def has_query(self, query: Query) -> bool:
        """Whether ``query`` belongs to the workload."""
        return query in self._query_set

    def utility(self, query: Query) -> float:
        """The utility of a workload query (default for unlisted ones)."""
        if query not in self._query_set:
            raise KeyError(f"unknown query {sorted(query)}")
        return self._utilities.get(query, self.default_utility)

    def cost(self, classifier: Classifier) -> float:
        """The construction cost of ``classifier`` (default for unlisted ones)."""
        return self._costs.get(classifier, self.default_cost)

    def total_utility(self) -> float:
        """Sum of all query utilities (the utility of covering everything)."""
        return sum(self.utility(q) for q in self.queries)

    # ------------------------------------------------------------------
    # derived structure
    # ------------------------------------------------------------------
    def relevant_classifiers(self) -> FrozenSet[Classifier]:
        """``CL = ⋃_{q∈Q} 2^q \\ ∅`` — every classifier that can help cover."""
        if self._relevant_cache is None:
            classifiers = set()
            for query in self.queries:
                classifiers.update(powerset_classifiers(query))
            self._relevant_cache = frozenset(classifiers)
        return self._relevant_cache

    def feasible_classifiers(self) -> Iterator[Classifier]:
        """Relevant classifiers of finite cost."""
        for classifier in self.relevant_classifiers():
            if not math.isinf(self.cost(classifier)):
                yield classifier

    def coverable_queries(self) -> List[Query]:
        """Queries fully coverable by finite-cost classifiers, workload order.

        A query is coverable iff the union of its finite-cost subsets
        equals the query itself; no budget can change this, so the
        complement is permanently out of reach for every solver.
        """
        coverable: List[Query] = []
        for query in self.queries:
            union: set = set()
            for classifier in powerset_classifiers(query):
                if not math.isinf(self.cost(classifier)):
                    union |= classifier
                    if len(union) == len(query):
                        break
            if len(union) == len(query):
                coverable.append(query)
        return coverable

    def compiled(self) -> "CompiledWorkload":
        """The memoized bitmask view of this workload (``bits`` engine)."""
        from repro.core.bitset import compile_workload

        return compile_workload(self)

    def queries_containing(self, properties: PropertySet) -> Sequence[Query]:
        """Queries that are supersets of ``properties`` (candidate beneficiaries).

        Results are memoized per classifier: the coverage engine calls this
        on every add/remove/rollback, and the classifier→query index turns
        those calls into dictionary lookups after the first one.  The
        returned tuple is shared — iterate it, do not mutate.

        Only non-empty results are memoized.  A non-empty result means
        ``properties`` is a subset of some query, i.e. a relevant
        classifier, so the cache can never grow beyond ``|CL|`` entries
        no matter what callers probe; irrelevant probes (empty result)
        are recomputed, which is cheap through the rarest-property list.

        The memo is keyed on :attr:`version`: mutations clear it eagerly,
        and the version recorded at fill time is re-checked on every read
        so a row filled against an older query set can never be served
        (belt and braces — a subclass that mutated state without going
        through the mutators would otherwise leak stale coverage).
        """
        if self._containing_version != self.version:
            self._containing_cache.clear()
            self._property_index = None
            self._containing_version = self.version
        cached = self._containing_cache.get(properties)
        if cached is not None:
            return cached
        from repro.core.bitset import active_engine

        if active_engine() == "bits":
            compiled = self.compiled()
            mask = compiled.mask_of(properties)
            if not mask:
                return ()
            result = tuple(compiled.queries[i] for i in compiled.containing(mask))
            if result:
                self._containing_cache[properties] = result
            return result
        if self._property_index is None:
            index: Dict[str, List[Query]] = {}
            for query in self.queries:
                for prop in query:
                    index.setdefault(prop, []).append(query)
            self._property_index = index
        rarest = min(properties, key=lambda p: len(self._property_index.get(p, [])))
        result = tuple(q for q in self._property_index.get(rarest, []) if properties <= q)
        if result:
            self._containing_cache[properties] = result
        return result

    def _classifier_index_map(self) -> Dict[str, List[Classifier]]:
        """The lazily built property→classifier inverted index (shared)."""
        if self._classifier_index is None:
            index: Dict[str, List[Classifier]] = {}
            for classifier in self.relevant_classifiers():
                for p in classifier:
                    index.setdefault(p, []).append(classifier)
            self._classifier_index = index
        return self._classifier_index

    def classifiers_containing_property(self, prop: str) -> List[Classifier]:
        """Relevant classifiers testing ``prop`` (inverted property→classifier index)."""
        return list(self._classifier_index_map().get(prop, []))

    def subset_classifiers(self, query: Query, pool: Iterable[Classifier]) -> List[Classifier]:
        """Members of ``pool`` that are subsets of ``query``.

        For large pools this walks the property→classifier index over the
        query's properties (every subset classifier tests at least one of
        them) instead of scanning the whole pool; small pools — e.g. the
        current selection of a tracker — are scanned directly without
        forcing the index to exist.
        """
        pool_set = pool if isinstance(pool, (set, frozenset)) else set(pool)
        if len(pool_set) > 64:
            index = self._classifier_index_map()
            candidate_lists = [index.get(p, []) for p in query]
            if sum(len(lst) for lst in candidate_lists) < len(pool_set):
                seen: set = set()
                result: List[Classifier] = []
                for lst in candidate_lists:
                    for classifier in lst:
                        if classifier not in seen:
                            seen.add(classifier)
                            if classifier in pool_set and classifier <= query:
                                result.append(classifier)
                return result
        from repro.core.bitset import active_engine

        if active_engine() == "bits":
            compiled = self.compiled()
            qmask = compiled.mask_of(query)
            if qmask is not None:
                mask_of = compiled.mask_of
                masked: List[Classifier] = []
                for classifier in pool_set:
                    cmask = mask_of(classifier)
                    if cmask is not None and not cmask & ~qmask:
                        masked.append(classifier)
                return masked
        return [c for c in pool_set if c <= query]

    def restrict(self, queries: Iterable[Query]) -> "ClassifierWorkload":
        """The sub-workload over ``queries`` (workload order preserved).

        Explicit utilities carry over for the kept queries; explicit costs
        carry over for every classifier still relevant to some kept query
        (including infinite-cost entries — they keep constraining the
        sub-problem).  Defaults are inherited, so ``restrict`` followed by
        ``cost``/``utility`` agrees with the parent workload on everything
        the sub-workload can see.  This is the shard view the
        decomposition engine solves independently.
        """
        kept_set = set()
        for query in queries:
            if query not in self._query_set:
                raise InvalidInstanceError(
                    f"restrict() given a query outside the workload: {sorted(query)}"
                )
            kept_set.add(query)
        ordered = [q for q in self.queries if q in kept_set]
        utilities = {q: self._utilities[q] for q in ordered if q in self._utilities}
        costs: Dict[Classifier, float] = {}
        for classifier, value in self._costs.items():
            for query in self.queries_containing(classifier):
                if query in kept_set:
                    costs[classifier] = value
                    break
        return self._restricted(ordered, utilities, costs)

    def _restricted(
        self,
        queries: List[Query],
        utilities: Dict[Query, float],
        costs: Dict[Classifier, float],
    ) -> "ClassifierWorkload":
        """Build the restricted view (subclasses re-attach budget/target)."""
        return ClassifierWorkload(
            queries,
            utilities,
            costs,
            default_utility=self.default_utility,
            default_cost=self.default_cost,
        )

    # ------------------------------------------------------------------
    # mutation: the WorkloadDelta API (dynamic BCC)
    # ------------------------------------------------------------------
    def _bump_version(self) -> None:
        """Invalidate every derived cache after an in-place mutation."""
        self.version += 1
        self._relevant_cache = None
        self._property_index = None
        self._classifier_index = None
        self._containing_cache.clear()
        self._containing_version = self.version
        # Replaced, not cleared: ``with_budget`` twins still hold the old
        # box, and its payload is still their content.
        self._payload_memo = _PayloadMemo()

    def add_query(self, query: Query, utility: Optional[float] = None) -> None:
        """Append ``query`` to the workload (optionally with an explicit utility).

        Bumps :attr:`version`; the new query takes the last workload
        position, so positions of existing queries — and every tie-break
        that depends on workload order — are unchanged.
        """
        _validate_query(query)
        if query in self._query_set:
            raise InvalidDeltaError(f"add of duplicate query {sorted(query)}")
        if utility is not None:
            if not utility > 0 or math.isinf(utility):
                raise InvalidDeltaError(
                    f"utilities must be finite and positive, got {utility} "
                    f"for {sorted(query)}"
                )
        self.queries = self.queries + (query,)
        self._query_set = frozenset(self.queries)
        if utility is not None:
            self._utilities[query] = float(utility)
        self._bump_version()

    def remove_query(self, query: Query) -> None:
        """Drop ``query`` from the workload (its explicit utility with it).

        Explicit classifier costs are kept even when the removed query was
        the last one making them relevant: a cost is a statement about the
        classifier, not about any query, and keeping it means an
        add-then-remove round trip restores the exact original instance.
        """
        if query not in self._query_set:
            raise InvalidDeltaError(f"remove of unknown query {sorted(query)}")
        if len(self.queries) == 1:
            raise InvalidDeltaError("removal would leave an empty query set")
        self.queries = tuple(q for q in self.queries if q != query)
        self._query_set = frozenset(self.queries)
        self._utilities.pop(query, None)
        self._bump_version()

    def set_utility(self, query: Query, utility: Optional[float]) -> None:
        """Reprice a query's utility; ``None`` reverts to the default.

        Reverting deletes the explicit entry (rather than writing the
        default's value) so a reprice-then-revert round trip restores the
        original explicit/default split — and hence the original
        fingerprint token stream.
        """
        if query not in self._query_set:
            raise InvalidDeltaError(f"utility for unknown query {sorted(query)}")
        if utility is None:
            self._utilities.pop(query, None)
        else:
            if not utility > 0 or math.isinf(utility):
                raise InvalidDeltaError(
                    f"utilities must be finite and positive, got {utility} "
                    f"for {sorted(query)}"
                )
            self._utilities[query] = float(utility)
        self._bump_version()

    def set_cost(self, classifier: Classifier, cost: Optional[float]) -> None:
        """Reprice a classifier; ``None`` reverts to the default cost."""
        if not isinstance(classifier, frozenset) or not classifier:
            raise InvalidDeltaError(
                f"classifier keys must be non-empty frozensets, got {classifier!r}"
            )
        if cost is None:
            self._costs.pop(classifier, None)
        else:
            if cost < 0:
                raise InvalidDeltaError(
                    f"costs must be >= 0 (math.inf allowed), got {cost}"
                )
            self._costs[classifier] = float(cost)
        self._bump_version()

    def apply_delta(self, delta: "WorkloadDelta") -> "ClassifierWorkload":
        """Apply a :class:`~repro.incremental.delta.WorkloadDelta` in place.

        The delta is validated in full before the first mutation, so an
        invalid delta raises :class:`~repro.core.errors.InvalidDeltaError`
        without touching the workload.  Application order is removals,
        additions, utility reprices, cost reprices; :attr:`version` is
        bumped once per individual mutation.  Returns ``self``.
        """
        delta.validate(self)
        for query in delta.remove:
            self.remove_query(query)
        for query, utility in delta.add:
            self.add_query(query, utility)
        for query, utility in delta.utilities:
            self.set_utility(query, utility)
        for classifier, cost in delta.costs:
            self.set_cost(classifier, cost)
        return self

    def clone(self) -> "ClassifierWorkload":
        """An independent copy sharing no mutable state (version reset).

        The copy preserves query order, the explicit/default utility and
        cost splits, and the budget/target of instance subclasses — it is
        the cold-solve baseline of the incremental engine's equivalence
        harness.
        """
        return self._restricted(
            list(self.queries), dict(self._utilities), dict(self._costs)
        )

    def length_histogram(self) -> Counter:
        """Counter of query lengths."""
        return Counter(len(q) for q in self.queries)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(m={self.num_queries}, n={len(self.properties)}, "
            f"l={self.length})"
        )


class BCCInstance(ClassifierWorkload):
    """A full BCC input ``⟨Q, U, C, B⟩`` (Section 2.1)."""

    def __init__(
        self,
        queries: Iterable[Query],
        utilities: Optional[Mapping[Query, float]] = None,
        costs: Optional[Mapping[Classifier, float]] = None,
        budget: float = 0.0,
        default_utility: float = 1.0,
        default_cost: float = 1.0,
    ) -> None:
        super().__init__(queries, utilities, costs, default_utility, default_cost)
        if budget < 0 or math.isinf(budget) or math.isnan(budget):
            raise InvalidInstanceError(f"budget must be finite and >= 0, got {budget}")
        self.budget = float(budget)

    def with_budget(self, budget: float) -> "BCCInstance":
        """Same workload, different budget.

        The twin copies the queries and the utility and cost maps; the one
        state it shares is the fingerprint payload memo, which a mutation
        of either side replaces on that side only.  The twin of a subclass
        instance is a plain :class:`BCCInstance`, whose type token differs,
        so it starts with its own memo.
        """
        twin = BCCInstance(
            self.queries,
            self._utilities,
            self._costs,
            budget=budget,
            default_utility=self.default_utility,
            default_cost=self.default_cost,
        )
        if type(self) is BCCInstance:
            twin._payload_memo = self._payload_memo
        return twin

    def _restricted(
        self,
        queries: List[Query],
        utilities: Dict[Query, float],
        costs: Dict[Classifier, float],
    ) -> "BCCInstance":
        return BCCInstance(
            queries,
            utilities,
            costs,
            budget=self.budget,
            default_utility=self.default_utility,
            default_cost=self.default_cost,
        )


class GMC3Instance(ClassifierWorkload):
    """Generalized MC3 input ``⟨Q, U, C, T⟩`` (Definition 5.1)."""

    def __init__(
        self,
        queries: Iterable[Query],
        utilities: Optional[Mapping[Query, float]] = None,
        costs: Optional[Mapping[Classifier, float]] = None,
        target: float = 0.0,
        default_utility: float = 1.0,
        default_cost: float = 1.0,
    ) -> None:
        super().__init__(queries, utilities, costs, default_utility, default_cost)
        if target < 0 or math.isnan(target):
            raise InvalidInstanceError(f"target must be >= 0, got {target}")
        self.target = float(target)

    def as_bcc(self, budget: float) -> BCCInstance:
        """The same workload viewed as a BCC instance with ``budget``."""
        return BCCInstance(
            self.queries,
            self._utilities,
            self._costs,
            budget=budget,
            default_utility=self.default_utility,
            default_cost=self.default_cost,
        )

    def _restricted(
        self,
        queries: List[Query],
        utilities: Dict[Query, float],
        costs: Dict[Classifier, float],
    ) -> "GMC3Instance":
        return GMC3Instance(
            queries,
            utilities,
            costs,
            target=self.target,
            default_utility=self.default_utility,
            default_cost=self.default_cost,
        )


class ECCInstance(ClassifierWorkload):
    """Effective Classifier Construction input ``⟨Q, U, C⟩`` (Definition 5.2)."""

    def _restricted(
        self,
        queries: List[Query],
        utilities: Dict[Query, float],
        costs: Dict[Classifier, float],
    ) -> "ECCInstance":
        return ECCInstance(
            queries,
            utilities,
            costs,
            default_utility=self.default_utility,
            default_cost=self.default_cost,
        )

    def as_bcc(self, budget: float) -> BCCInstance:
        return BCCInstance(
            self.queries,
            self._utilities,
            self._costs,
            budget=budget,
            default_utility=self.default_utility,
            default_cost=self.default_cost,
        )
