"""Coverage semantics and minimal-cover enumeration.

A query ``q`` is *covered* by a classifier set ``S`` iff some ``T ⊆ S`` has
``⋃ T = q``.  Because only classifiers that are subsets of ``q`` can appear
in such a ``T`` (anything else would add foreign properties), the test
reduces to: the union of ``{c ∈ S : c ⊆ q}`` equals ``q``.

An *i-cover* of ``q`` (Section 4.1) is a set of ``i`` classifiers covering
``q`` such that no proper subset covers ``q`` — equivalently, every member
contributes a property no other member has.

Two interchangeable backends implement the algebra (see
:mod:`repro.core.bitset`): the ``sets`` reference runs on frozensets, the
default ``bits`` engine interns properties to bit positions and runs the
same algorithms on Python ints.  Both produce identical results — the
differential suite (``tests/test_engines.py``) holds them to it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.bitset import QueryInterner, active_engine, compile_workload
from repro.core.model import Classifier, ClassifierWorkload, Query

ClassifierSet = FrozenSet[Classifier]


def is_covered(query: Query, classifiers: Iterable[Classifier]) -> bool:
    """Whether ``query`` is covered by the classifier collection."""
    if active_engine() == "bits":
        interner = QueryInterner(query)
        remaining = interner.full
        for classifier in classifiers:
            mask = interner.mask(classifier)
            if mask is not None:
                remaining &= ~mask
                if not remaining:
                    return True
        return not remaining
    remaining = set(query)
    for classifier in classifiers:
        if classifier <= query:
            remaining -= classifier
            if not remaining:
                return True
    return not remaining


def covered_queries(
    workload: ClassifierWorkload, classifiers: Iterable[Classifier]
) -> Set[Query]:
    """All workload queries covered by ``classifiers``.

    Routed through the classifier→query inverted index: each classifier
    contributes its properties only to the queries containing it, so the
    cost is ``O(Σ_c |containing(c)|)`` instead of re-scanning every
    workload query against the full classifier list with repeated subset
    tests.
    """
    selected = {c for c in classifiers if c}
    if active_engine() == "bits":
        # Accumulate each touched query's covered-property mask (small
        # ints) over the memoized ``containing`` rows; a query is covered
        # when its accumulated union equals its own mask.
        compiled = compile_workload(workload)
        query_masks = compiled.query_masks
        accumulated: Dict[int, int] = {}
        for classifier in selected:
            cmask = compiled.mask_of(classifier)
            if not cmask:
                continue
            for qidx in compiled.containing(cmask):
                accumulated[qidx] = accumulated.get(qidx, 0) | cmask
        queries = compiled.queries
        return {
            queries[qidx]
            for qidx, union in accumulated.items()
            if union == query_masks[qidx]
        }
    union_by_query: Dict[Query, Set[str]] = {}
    for classifier in selected:
        for query in workload.queries_containing(classifier):
            union_by_query.setdefault(query, set()).update(classifier)
    return {q for q, union in union_by_query.items() if union == set(q)}


def is_minimal_cover(query: Query, cover: Iterable[Classifier]) -> bool:
    """Whether ``cover`` covers ``query`` with no redundant member.

    A member is redundant iff the others already union to ``query`` —
    equivalently, iff it contributes no property covered exactly once.
    One counting pass over the members replaces the quadratic
    rest-union-per-member recomputation.
    """
    members = list(cover)
    counts: Dict[str, int] = {}
    for classifier in members:
        if not classifier <= query:
            return False
        for prop in classifier:
            counts[prop] = counts.get(prop, 0) + 1
    if len(counts) != len(query):
        return False
    for classifier in members:
        if all(counts[prop] > 1 for prop in classifier):
            return False
    return True


def _masks_minimal(masks: Tuple[int, ...], target: int) -> bool:
    """Mask form of the minimality test: union is ``target`` and every
    member owns a bit set exactly once."""
    union = 0
    once = 0  # bits seen exactly once so far
    for mask in masks:
        once = (once & ~mask) | (mask & ~union)
        union |= mask
    if union != target:
        return False
    for mask in masks:
        if not mask & once:
            return False
    return True


def _minimal_covers_sets(
    query: Query,
    candidates: List[Classifier],
    max_size: int,
) -> List[ClassifierSet]:
    """Reference set-algebra minimal-cover search (``sets`` engine)."""
    ordered_props = sorted(query)
    by_property: Dict[str, List[Classifier]] = {p: [] for p in ordered_props}
    for classifier in candidates:
        for prop in classifier:
            by_property[prop].append(classifier)

    results: Set[ClassifierSet] = set()
    target = set(query)

    def search(covered: Set[str], chosen: Tuple[Classifier, ...]) -> None:
        if covered == target:
            cover = frozenset(chosen)
            if is_minimal_cover(query, cover):
                results.add(cover)
            return
        if len(chosen) >= max_size:
            return
        # Branch on the first property not yet covered.
        pivot = next(p for p in ordered_props if p not in covered)
        for classifier in by_property[pivot]:
            if classifier in chosen:
                continue
            # Skip classifiers that add nothing new (cannot be minimal).
            if classifier <= covered:
                continue
            search(covered | classifier, chosen + (classifier,))

    search(set(), ())
    return sorted(results, key=lambda cover: (len(cover), sorted(map(sorted, cover))))


def _minimal_covers_bits(
    query: Query,
    candidates: List[Classifier],
    max_size: int,
) -> List[ClassifierSet]:
    """Mask minimal-cover search: identical branching on lowest unset bit."""
    interner = QueryInterner(query)
    target = interner.full
    by_bit: List[List[Tuple[Classifier, int]]] = [[] for _ in interner.props]
    for classifier in candidates:
        mask = interner.mask(classifier)
        remaining = mask
        while remaining:
            low = remaining & -remaining
            by_bit[low.bit_length() - 1].append((classifier, mask))
            remaining ^= low

    results: Set[ClassifierSet] = set()

    def search(covered: int, chosen: Tuple[Tuple[Classifier, int], ...]) -> None:
        if covered == target:
            if _masks_minimal(tuple(m for _, m in chosen), target):
                results.add(frozenset(c for c, _ in chosen))
            return
        if len(chosen) >= max_size:
            return
        uncovered = ~covered & target
        pivot = (uncovered & -uncovered).bit_length() - 1
        for classifier, mask in by_bit[pivot]:
            if any(mask == m for _, m in chosen):
                continue
            if not mask & ~covered:
                continue
            search(covered | mask, chosen + ((classifier, mask),))

    search(0, ())
    return sorted(results, key=lambda cover: (len(cover), sorted(map(sorted, cover))))


def minimal_covers(
    query: Query,
    available: Optional[Iterable[Classifier]] = None,
    max_size: Optional[int] = None,
) -> List[ClassifierSet]:
    """All minimal covers of ``query`` from ``available`` classifiers.

    ``available`` defaults to the full power set ``2^q \\ ∅``.  The search
    branches on the smallest uncovered property and keeps only covers that
    pass the minimality check, so each returned set is a genuine minimal
    cover and every minimal cover is returned exactly once.
    """
    if available is None:
        from repro.core.model import powerset_classifiers

        candidates = [c for c in powerset_classifiers(query)]
    else:
        candidates = [c for c in set(available) if c <= query]
    if max_size is None:
        max_size = len(query)
    if active_engine() == "bits":
        return _minimal_covers_bits(query, candidates, max_size)
    return _minimal_covers_sets(query, candidates, max_size)


def i_covers(
    query: Query,
    size: int,
    available: Optional[Iterable[Classifier]] = None,
) -> List[ClassifierSet]:
    """Minimal covers of ``query`` with exactly ``size`` classifiers."""
    return [c for c in minimal_covers(query, available, max_size=size) if len(c) == size]


class CoverageTracker:
    """Incrementally tracks which queries a growing classifier set covers.

    Adding a classifier updates, for each query that contains it, the set of
    properties already covered; a query flips to covered when its missing
    set empties.  Selection order does not matter and re-adding a classifier
    is a no-op.

    The tracker is the shared *coverage engine* of every solver arm: besides
    plain adds it supports

    - :meth:`checkpoint` / :meth:`rollback` — an undo log of per-add deltas,
      so candidate evaluations (``evaluate_gain``, branch-and-bound probes)
      run against the live tracker and unwind in time proportional to the
      trial, never rebuilding from scratch;
    - :meth:`remove` — incremental deselection touching only the queries
      that contain the removed classifier (used by the swap-polish local
      search), with :meth:`contributors` computed on demand so plain adds
      pay nothing for the removal machinery;
    - :meth:`reset` — restore the pristine empty selection in one pass
      (used to swap in a cheaper MC3 selection without re-``__init__``);
    - an incrementally maintained :attr:`spent` total, and engine counters
      (``constructed`` class-wide, ``rollbacks`` per instance) surfaced in
      ``Solution.meta`` by the solvers.

    ``CoverageTracker(workload)`` dispatches on the active engine: the
    ``bits`` backend (:class:`BitsetCoverageTracker`) keeps per-query
    missing sets as int masks over the compiled workload, the ``sets``
    reference (:class:`SetCoverageTracker`, also this base class) keeps
    them as property sets.  Checkpoint/rollback semantics are preserved
    bit-for-bit — the undo log stores mask deltas instead of set deltas.
    """

    #: Class-wide count of tracker constructions (engine telemetry; tests
    #: assert hot paths stay rebuild-free by snapshotting this counter).
    constructed: int = 0

    #: Backend name, as ``REPRO_ENGINE`` spells it.
    engine_name: str = "sets"

    def __new__(cls, workload: Optional[ClassifierWorkload] = None):
        if cls is CoverageTracker and active_engine() == "bits":
            return super().__new__(BitsetCoverageTracker)
        return super().__new__(cls)

    def __init__(self, workload: ClassifierWorkload) -> None:
        CoverageTracker.constructed += 1
        self._workload = workload
        # Workload version this tracker was built against: any mutation of
        # the workload (the delta API) invalidates every per-query missing
        # set here, so reads after a mutation raise instead of answering
        # for a query set that no longer exists.
        self._workload_version = getattr(workload, "version", 0)
        self._covered: Set[Query] = set()
        self._selected: Set[Classifier] = set()
        self._utility = 0.0
        self._spent = 0.0
        # Insertion-order histories backing :meth:`remove`'s total
        # recomputation: classifiers in the order they were added, and
        # covered queries in the order they flipped covered (the bits
        # backend stores compiled positions).  ``remove`` replays these to
        # rebuild ``spent``/``utility`` instead of subtracting floats, so
        # remove/add round-trips restore the totals bit-for-bit.
        self._add_order: List[Classifier] = []
        self._covered_order: List = []
        # Undo log: entries appended only while a checkpoint is active.
        # Each entry is (classifier, newly_covered, {query-key: props/mask
        # removed}) — the per-query delta representation is backend-owned.
        self._undo: List[Tuple[Classifier, List[Query], Dict]] = []
        # Checkpoint stack: (undo-log mark, utility snapshot, spent snapshot).
        self._checkpoints: List[Tuple[int, float, float]] = []
        #: Number of rollbacks performed (engine telemetry).
        self.rollbacks: int = 0
        #: Full transpose rebuild walks performed (engine telemetry; the
        #: bits backend increments this in :meth:`_transpose`, so solver
        #: loops can assert the incremental maintenance keeps it at the
        #: one cold build instead of one per mutation).
        self.transpose_rebuilds: int = 0
        # Query → workload position, built on the first gain probe: both
        # backends sum probe gains in ascending workload order so the
        # returned float is engine-identical.
        self._query_order: Optional[Dict[Query, int]] = None
        self._init_missing()

    def _init_missing(self) -> None:
        self._missing: Dict[Query, Set[str]] = {
            q: set(q) for q in self._workload.queries
        }

    def _check_current(self) -> None:
        """Raise if the workload mutated after this tracker was built."""
        if getattr(self._workload, "version", 0) != self._workload_version:
            from repro.core.errors import StaleWorkloadError

            raise StaleWorkloadError(
                f"tracker built at workload version {self._workload_version} "
                f"used after mutation to version {self._workload.version}; "
                f"build a fresh CoverageTracker for the mutated workload"
            )

    @property
    def selected(self) -> FrozenSet[Classifier]:
        """The classifiers selected so far."""
        return frozenset(self._selected)

    @property
    def covered(self) -> FrozenSet[Query]:
        """The queries covered so far."""
        return frozenset(self._covered)

    @property
    def utility(self) -> float:
        """Total utility of the covered queries."""
        return self._utility

    @property
    def spent(self) -> float:
        """Total construction cost of the selected classifiers."""
        return self._spent

    @property
    def num_selected(self) -> int:
        """Number of selected classifiers (no frozenset materialization)."""
        return len(self._selected)

    def is_selected(self, classifier: Classifier) -> bool:
        """Whether ``classifier`` is currently selected (O(1))."""
        return classifier in self._selected

    def is_query_covered(self, query: Query) -> bool:
        """Whether ``query`` is covered by the current selection."""
        return query in self._covered

    def missing_properties(self, query: Query) -> FrozenSet[str]:
        """Properties of ``query`` not yet covered by any selected subset classifier."""
        return frozenset(self._missing[query])

    def contributors(self, query: Query) -> FrozenSet[Classifier]:
        """Selected classifiers that are subsets of ``query``.

        Exactly the classifiers whose union determines whether ``query`` is
        covered; swap local searches test "covered without ``c``" from this
        set instead of re-enumerating ``2^q``.  Computed on demand — the
        add hot path keeps no per-query contributor bookkeeping.
        """
        return frozenset(self._workload.subset_classifiers(query, self._selected))

    def uncovered_contained_utility(self, classifier: Classifier) -> float:
        """Summed utility of uncovered queries containing ``classifier``.

        The IG2 scoring kernel, summed in workload order under both
        backends so float accumulation is engine-identical.
        """
        self._check_current()
        total = 0.0
        for query in self._workload.queries_containing(classifier):
            if query not in self._covered:
                total += self._workload.utility(query)
        return total

    def probe_gain(self, additions: Iterable[Classifier]) -> float:
        """Utility gained by adding ``additions`` — read-only, no side effects.

        The gain-evaluation kernel: applies the missing-set deltas in add
        order, collects the queries that become covered, then restores
        every delta — without touching the selection, the spent total, or
        the undo log.  Both backends sum the collected utilities in
        ascending workload order starting from 0.0, so the returned float
        is engine-identical.  Counted as a rollback in the engine
        telemetry (state is restored by delta replay).
        """
        self._check_current()
        newly: List[Query] = []
        touched: List[Tuple[Set[str], Set[str]]] = []
        workload = self._workload
        missing_by_query = self._missing
        for classifier in additions:
            if not classifier:
                continue
            for query in workload.queries_containing(classifier):
                missing = missing_by_query[query]
                if not missing:
                    continue
                delta = missing & classifier
                if not delta:
                    continue
                missing -= delta
                touched.append((missing, delta))
                if not missing:
                    newly.append(query)
        for missing, delta in touched:
            missing |= delta
        self.rollbacks += 1
        if not newly:
            return 0.0
        if self._query_order is None:
            self._query_order = {q: i for i, q in enumerate(workload.queries)}
        newly.sort(key=self._query_order.__getitem__)
        gain = 0.0
        for query in newly:
            gain += workload.utility(query)
        return gain

    def add(self, classifier: Classifier) -> List[Query]:
        """Select ``classifier``; return queries that became covered."""
        self._check_current()
        if classifier in self._selected:
            return []
        self._selected.add(classifier)
        self._add_order.append(classifier)
        self._spent += self._workload.cost(classifier)
        logging = bool(self._checkpoints)
        removed: Dict[Query, Set[str]] = {}
        newly_covered: List[Query] = []
        for query in self._workload.queries_containing(classifier):
            if query in self._covered:
                continue
            missing = self._missing[query]
            if logging:
                delta = missing & classifier
                if delta:
                    removed[query] = delta
                    missing -= delta
            else:
                missing -= classifier
            if not missing:
                self._covered.add(query)
                self._utility += self._workload.utility(query)
                newly_covered.append(query)
        if logging:
            self._undo.append((classifier, newly_covered, removed))
        self._covered_order.extend(newly_covered)
        return newly_covered

    def add_all(self, classifiers: Iterable[Classifier]) -> List[Query]:
        """Select several classifiers; return all newly covered queries."""
        newly: List[Query] = []
        for classifier in classifiers:
            newly.extend(self.add(classifier))
        return newly

    # ------------------------------------------------------------------
    # incremental engine: checkpoint / rollback / remove / reset
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Start recording undo deltas; returns the checkpoint depth.

        Checkpoints nest: each :meth:`rollback` unwinds to the most recent
        one.  While any checkpoint is active, :meth:`remove` is forbidden
        (the undo log only records additive deltas).
        """
        self._check_current()
        self._checkpoints.append((len(self._undo), self._utility, self._spent))
        return len(self._checkpoints)

    def _undo_one(self) -> None:
        classifier, newly_covered, removed = self._undo.pop()
        self._selected.discard(classifier)
        # Unwinding is LIFO and remove() is forbidden inside a checkpoint,
        # so this add's history entries are exactly the list tails.
        self._add_order.pop()
        if newly_covered:
            del self._covered_order[-len(newly_covered):]
        for query in newly_covered:
            self._covered.discard(query)
        for query, delta in removed.items():
            self._missing[query] |= delta

    def rollback(self) -> None:
        """Undo every :meth:`add` since the most recent :meth:`checkpoint`.

        Restores ``selected`` / ``covered`` / per-query missing sets exactly,
        and ``utility`` / ``spent`` bit-identically (from the checkpoint
        snapshot, immune to floating-point re-accumulation drift).
        """
        if not self._checkpoints:
            raise RuntimeError("rollback() without an active checkpoint")
        mark, utility_snapshot, spent_snapshot = self._checkpoints.pop()
        while len(self._undo) > mark:
            self._undo_one()
        self._utility = utility_snapshot
        self._spent = spent_snapshot
        self.rollbacks += 1

    def _replay_utility(self) -> float:
        """Re-sum covered utility in original coverage order (backend hook)."""
        total = 0.0
        for query in self._covered_order:
            total += self._workload.utility(query)
        return total

    def _replay_totals(self) -> None:
        """Recompute ``spent``/``utility`` by replaying insertion order.

        Re-running the exact additions the surviving history performed —
        in their original order, minus the removed entries — produces the
        floats a tracker that never saw the removed classifier would hold.
        That makes remove/add round-trips restore totals bit-for-bit under
        both engines, with no ``-=`` accumulation drift and no
        ``inf - inf`` hazard for unbuildable classifiers.
        """
        workload = self._workload
        spent = 0.0
        for classifier in self._add_order:
            spent += workload.cost(classifier)
        self._spent = spent
        self._utility = self._replay_utility()

    def remove(self, classifier: Classifier) -> List[Query]:
        """Deselect ``classifier``; return queries that became uncovered.

        Missing sets are recomputed only for the queries containing
        ``classifier``, from the remaining selected subset classifiers;
        ``spent``/``utility`` are rebuilt by :meth:`_replay_totals`.
        Not allowed while a checkpoint is active.
        """
        self._check_current()
        if self._checkpoints:
            raise RuntimeError("remove() is not allowed inside a checkpoint")
        if classifier not in self._selected:
            return []
        self._selected.discard(classifier)
        self._add_order.remove(classifier)
        newly_uncovered: List[Query] = []
        for query in self._workload.queries_containing(classifier):
            union: Set[str] = set()
            for other in self._workload.subset_classifiers(query, self._selected):
                union |= other
            missing = set(query) - union
            self._missing[query] = missing
            if missing and query in self._covered:
                self._covered.discard(query)
                newly_uncovered.append(query)
        if newly_uncovered:
            gone = set(newly_uncovered)
            self._covered_order = [q for q in self._covered_order if q not in gone]
        self._replay_totals()
        return newly_uncovered

    def reset(self) -> None:
        """Restore the pristine empty-selection state in one pass."""
        self._init_missing()
        self._covered.clear()
        self._selected.clear()
        self._utility = 0.0
        self._spent = 0.0
        self._add_order.clear()
        self._covered_order.clear()
        self._undo.clear()
        self._checkpoints.clear()


class SetCoverageTracker(CoverageTracker):
    """The set-algebra reference backend, regardless of the active engine."""


class BitsetCoverageTracker(CoverageTracker):
    """The ``bits`` backend: per-query missing sets as int masks.

    State layout: ``_missing`` is a list of masks indexed by query
    position in the compiled workload; the undo log stores mask deltas
    keyed by query index, so ``rollback`` is the same ``|=`` replay as
    the reference.  Public accessors translate at the boundary.
    """

    engine_name = "bits"

    def _init_missing(self) -> None:
        self._compiled = compile_workload(self._workload)
        self._missing: List[int] = list(self._compiled.query_masks)  # type: ignore[assignment]
        self._selected_masks: Dict[Classifier, int] = {}
        # Covered queries live as compiled positions (ints hash faster than
        # frozensets in the add hot loop); a parallel Query set serves the
        # membership probes so they stay one hash lookup like the reference.
        self._covered: Set[int] = set()  # type: ignore[assignment]
        self._covered_queries: Set[Query] = set()
        # Transposed residual state for the probe kernel: property bit →
        # bitmap over query positions still missing that property, plus
        # the uncovered-query bitmap.  Built lazily on the first probe that
        # wants it and from then on maintained *incrementally*: ``add``
        # clears the flipped bits it already computes, the undo log's
        # ``(qidx, old-mask)`` entries replay the exact inverse deltas on
        # rollback, and ``remove`` applies its recomputed per-query masks
        # as set/clear deltas — so solver loops that alternate
        # mutate/probe never pay a full rebuild walk again.  ``None`` =
        # never built (a tracker that only adds, or probes through row
        # replay, never pays for it), so the maintenance in the mutation
        # hot paths is a single ``is None`` test.
        self._t_by_prop: Optional[Dict[int, int]] = None
        self._t_uncovered: int = 0

    @property
    def covered(self) -> FrozenSet[Query]:
        return frozenset(self._covered_queries)

    def is_query_covered(self, query: Query) -> bool:
        return query in self._covered_queries

    def missing_properties(self, query: Query) -> FrozenSet[str]:
        compiled = self._compiled
        return compiled.props_of(self._missing[compiled.query_pos[query]])

    def missing_mask(self, query: Query) -> int:
        """The query's residual mask in the compiled global bit layout."""
        return self._missing[self._compiled.query_pos[query]]

    def contributors(self, query: Query) -> FrozenSet[Classifier]:
        qmask = self._compiled.mask_of(query)
        if qmask is None:
            return frozenset()
        return frozenset(
            c for c, m in self._selected_masks.items() if not m & ~qmask
        )

    def _replay_utility(self) -> float:
        utilities = self._compiled.utilities
        total = 0.0
        for qidx in self._covered_order:
            total += utilities[qidx]
        return total

    def uncovered_contained_utility(self, classifier: Classifier) -> float:
        self._check_current()
        compiled = self._compiled
        cmask = compiled.mask_of(classifier)
        if not cmask:
            return 0.0
        total = 0.0
        missing = self._missing
        utilities = compiled.utilities
        for qidx in compiled.containing(cmask):
            if missing[qidx]:
                total += utilities[qidx]
        return total

    def _transpose(self) -> Tuple[Dict[int, int], int]:
        by_prop = self._t_by_prop
        if by_prop is None:
            self.transpose_rebuilds += 1
            by_prop = {}
            uncovered = 0
            for qidx, miss in enumerate(self._missing):
                if not miss:
                    continue
                qbit = 1 << qidx
                uncovered |= qbit
                while miss:
                    low = miss & -miss
                    pidx = low.bit_length() - 1
                    by_prop[pidx] = by_prop.get(pidx, 0) | qbit
                    miss ^= low
            self._t_by_prop = by_prop
            self._t_uncovered = uncovered
        return by_prop, self._t_uncovered

    def probe_gain(self, additions: Iterable[Classifier]) -> float:
        # Bit-parallel over *queries*: property ``p`` of query ``q`` is
        # cleared by addition ``c`` iff ``p ∈ c`` and ``q`` contains ``c``
        # (its row-bitmap bit), so one ``&~`` per (addition, property)
        # pair applies the whole trial to every query at once.  Queries
        # with no remaining missing property across all per-property
        # bitmaps became covered.
        self._check_current()
        self.rollbacks += 1
        compiled = self._compiled
        mask_of = compiled.mask_of
        masks = [m for c in additions if (m := mask_of(c))]
        if self._t_by_prop is None:
            # Cold transpose: a rebuild walks every uncovered query.  When
            # the slate's inverted-index rows are short (the solve-side
            # pattern of one or two trial classifiers between commits),
            # replaying just those rows is cheaper than rebuilding.
            rows = sum(len(compiled.containing(m)) for m in masks)
            if 4 * rows < len(self._missing) - len(self._covered):
                return self._probe_gain_rows(masks)
        by_prop, uncovered = self._transpose()
        if not uncovered:
            return 0.0
        row_bitmap = compiled.row_bitmap
        local: Dict[int, int] = {}
        for cmask in masks:
            nrow = None
            bits = cmask
            while bits:
                low = bits & -bits
                bits ^= low
                pidx = low.bit_length() - 1
                cur = local.get(pidx)
                if cur is None:
                    cur = by_prop.get(pidx)
                    if cur is None:
                        continue
                if nrow is None:
                    nrow = ~row_bitmap(cmask)
                local[pidx] = cur & nrow
        if not local:
            return 0.0
        still = 0
        for pidx, bitmap in by_prop.items():
            got = local.get(pidx)
            still |= bitmap if got is None else got
        newly = uncovered & ~still
        gain = 0.0
        utilities = compiled.utilities
        while newly:
            low = newly & -newly
            gain += utilities[low.bit_length() - 1]
            newly ^= low
        return gain

    def _probe_gain_rows(self, masks: List[int]) -> float:
        """Row-replay probe: apply trial masks per containing query.

        Same result as the transposed kernel (newly covered utilities
        summed in ascending workload order), used when rebuilding the
        transpose would cost more than walking the slate's rows.
        """
        compiled = self._compiled
        missing = self._missing
        local: Dict[int, int] = {}
        for cmask in masks:
            for qidx in compiled.containing(cmask):
                cur = local.get(qidx)
                if cur is None:
                    cur = missing[qidx]
                if cur:
                    local[qidx] = cur & ~cmask
        newly = [
            qidx for qidx, left in local.items() if not left and missing[qidx]
        ]
        if not newly:
            return 0.0
        newly.sort()
        utilities = compiled.utilities
        return sum(utilities[qidx] for qidx in newly)

    def add(self, classifier: Classifier) -> List[Query]:
        self._check_current()
        if classifier in self._selected:
            return []
        self._selected.add(classifier)
        self._add_order.append(classifier)
        self._spent += self._workload.cost(classifier)
        logging = bool(self._checkpoints)
        removed: List[Tuple[int, int]] = []
        newly_idx: List[int] = []
        compiled = self._compiled
        cmask = compiled.mask_of(classifier)
        if cmask:
            self._selected_masks[classifier] = cmask
            missing = self._missing
            covered = self._covered
            covered_queries = self._covered_queries
            queries = compiled.queries
            utilities = compiled.utilities
            utility = self._utility
            ncmask = ~cmask
            # Live transpose: clear each flipped (property, query) bit as
            # we go — the delta ``miss & cmask`` is exactly the bits this
            # add removes from the query's residual, so the transpose
            # stays cold-rebuild-identical (zero entries deleted) without
            # ever walking unaffected queries.
            by_prop = self._t_by_prop
            t_uncovered = self._t_uncovered
            for qidx in compiled.containing(cmask):
                miss = missing[qidx]
                new = miss & ncmask
                if new == miss:
                    continue
                missing[qidx] = new
                if logging:
                    removed.append((qidx, miss))
                if by_prop is not None:
                    qbit = 1 << qidx
                    nqbit = ~qbit
                    delta = miss & cmask
                    while delta:
                        low = delta & -delta
                        delta ^= low
                        pidx = low.bit_length() - 1
                        left = by_prop[pidx] & nqbit
                        if left:
                            by_prop[pidx] = left
                        else:
                            del by_prop[pidx]
                    if not new:
                        t_uncovered &= nqbit
                if not new:
                    covered.add(qidx)
                    covered_queries.add(queries[qidx])
                    utility += utilities[qidx]
                    newly_idx.append(qidx)
            self._utility = utility
            if by_prop is not None:
                self._t_uncovered = t_uncovered
        if logging:
            self._undo.append((classifier, newly_idx, removed))
        self._covered_order.extend(newly_idx)
        queries = compiled.queries
        return [queries[i] for i in newly_idx]

    def _undo_one(self) -> None:
        classifier, newly_idx, removed = self._undo.pop()
        self._selected.discard(classifier)
        self._add_order.pop()
        if newly_idx:
            del self._covered_order[-len(newly_idx):]
        self._selected_masks.pop(classifier, None)
        covered = self._covered
        covered_queries = self._covered_queries
        queries = self._compiled.queries
        for qidx in newly_idx:
            covered.discard(qidx)
            covered_queries.discard(queries[qidx])
        missing = self._missing
        by_prop = self._t_by_prop
        if by_prop is None:
            for qidx, old in removed:
                missing[qidx] = old
        else:
            # Replay the inverse transpose deltas from the undo log: the
            # bits this add cleared from a query are ``old & ~current``,
            # and ``old`` is always nonzero (zero-missing queries never
            # log), so the query's uncovered bit is re-set unconditionally.
            t_uncovered = self._t_uncovered
            for qidx, old in removed:
                qbit = 1 << qidx
                delta = old & ~missing[qidx]
                missing[qidx] = old
                t_uncovered |= qbit
                while delta:
                    low = delta & -delta
                    delta ^= low
                    pidx = low.bit_length() - 1
                    by_prop[pidx] = by_prop.get(pidx, 0) | qbit
            self._t_uncovered = t_uncovered

    def remove(self, classifier: Classifier) -> List[Query]:
        self._check_current()
        if self._checkpoints:
            raise RuntimeError("remove() is not allowed inside a checkpoint")
        if classifier not in self._selected:
            return []
        self._selected.discard(classifier)
        self._add_order.remove(classifier)
        newly_uncovered: List[Query] = []
        uncovered_idx: List[int] = []
        compiled = self._compiled
        cmask = self._selected_masks.pop(classifier, None)
        if cmask:
            selected_masks = self._selected_masks
            query_masks = compiled.query_masks
            by_prop = self._t_by_prop
            for qidx in compiled.containing(cmask):
                qmask = query_masks[qidx]
                union = 0
                for mask in selected_masks.values():
                    if not mask & ~qmask:
                        union |= mask
                miss = qmask & ~union
                old = self._missing[qidx]
                self._missing[qidx] = miss
                if by_prop is not None and miss != old:
                    # Two-direction transpose delta: bits this removal
                    # resurrects (now missing, weren't) get the query bit
                    # set; bits it retires get it cleared.
                    qbit = 1 << qidx
                    added = miss & ~old
                    while added:
                        low = added & -added
                        added ^= low
                        pidx = low.bit_length() - 1
                        by_prop[pidx] = by_prop.get(pidx, 0) | qbit
                    cleared = old & ~miss
                    nqbit = ~qbit
                    while cleared:
                        low = cleared & -cleared
                        cleared ^= low
                        pidx = low.bit_length() - 1
                        left = by_prop[pidx] & nqbit
                        if left:
                            by_prop[pidx] = left
                        else:
                            del by_prop[pidx]
                    if miss:
                        self._t_uncovered |= qbit
                    else:
                        self._t_uncovered &= nqbit
                if miss and qidx in self._covered:
                    self._covered.discard(qidx)
                    self._covered_queries.discard(compiled.queries[qidx])
                    uncovered_idx.append(qidx)
                    newly_uncovered.append(compiled.queries[qidx])
        if uncovered_idx:
            gone = set(uncovered_idx)
            self._covered_order = [q for q in self._covered_order if q not in gone]
        self._replay_totals()
        return newly_uncovered

