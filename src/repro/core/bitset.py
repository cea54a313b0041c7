"""Bitset kernels: the workload compiled to integer bitmasks.

Every coverage-algebra hot path — subset tests, missing-set updates,
minimal-cover searches — ultimately manipulates small sets of property
names.  The paper's instances have a fixed, modest property universe per
workload (``l <= 5``, a few hundred properties), which is exactly the
regime where interning properties to bit positions and replacing
``frozenset`` algebra with single-word ``&``/``|``/``==`` on Python ints
pays an order of magnitude in the kernels.

Three layers:

- :class:`PropertySpace` interns a property universe into bit positions
  (sorted name order, so bit layout is deterministic across processes);
- :class:`CompiledWorkload` is a per-workload view materializing every
  query as an ``int`` mask plus mask-keyed utility and inverted-index
  tables (property→query becomes lists of ints), memoized per workload
  via :func:`compile_workload`;
- :class:`QueryInterner` is the throwaway per-query variant used by
  kernels that receive a bare query and no workload (``is_covered``,
  ``minimal_covers``, ``cheapest_residual_cover``).

The engine switch: ``REPRO_ENGINE=sets|bits`` (default ``bits``) selects
which backend the kernels run; :func:`use_engine` overrides it
in-process for differential tests.  Mask kernels gate on
``active_engine() == "bits"``; the ``sets`` reference runs the same
algorithms on frozensets.  The public API everywhere stays ``frozenset``
— translation happens once at compile time and at result boundaries, so
solutions, certificates and cache fingerprints see identical objects
under either engine.
"""

from __future__ import annotations

import os
import weakref
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.core.properties import PropertySet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.model import ClassifierWorkload

ENGINES: Tuple[str, ...] = ("sets", "bits")
_DEFAULT_ENGINE = "bits"
_OVERRIDE: Optional[str] = None

#: Entry cap for :meth:`CompiledWorkload.row_bitmap`'s memo.
_ROW_BITMAP_CAP = 8192


def active_engine() -> str:
    """The coverage-algebra backend in effect: ``sets`` or ``bits``.

    Reads ``REPRO_ENGINE`` (default ``bits``) unless :func:`use_engine`
    is overriding it.  Components bind a backend at construction time
    (e.g. a tracker), so flipping the engine mid-object is a no-op for
    already-built objects.
    """
    if _OVERRIDE is not None:
        return _OVERRIDE
    name = os.environ.get("REPRO_ENGINE", _DEFAULT_ENGINE).strip().lower()
    if name not in ENGINES:
        raise ValueError(f"REPRO_ENGINE must be one of {ENGINES}, got {name!r}")
    return name


@contextmanager
def use_engine(name: str) -> Iterator[None]:
    """Force the engine within a ``with`` block (differential testing)."""
    global _OVERRIDE
    if name not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {name!r}")
    previous = _OVERRIDE
    _OVERRIDE = name
    try:
        yield
    finally:
        _OVERRIDE = previous


class PropertySpace:
    """Deterministic property↔bit interning over a fixed universe.

    Bit ``i`` is the ``i``-th property in sorted name order, so the same
    universe always compiles to the same layout (mask equality is
    meaningful across processes and cache entries).
    """

    __slots__ = ("names", "index", "universe_mask")

    def __init__(self, names: Iterable[str]) -> None:
        self.names: Tuple[str, ...] = tuple(sorted(set(names)))
        self.index: Dict[str, int] = {p: i for i, p in enumerate(self.names)}
        self.universe_mask: int = (1 << len(self.names)) - 1

    @classmethod
    def from_collections(cls, collections: Iterable[PropertySet]) -> "PropertySpace":
        names: set = set()
        for properties in collections:
            names.update(properties)
        return cls(names)

    def __len__(self) -> int:
        return len(self.names)

    def mask_of(self, properties: Iterable[str]) -> Optional[int]:
        """The mask of ``properties``; ``None`` if any name is foreign."""
        mask = 0
        index = self.index
        for prop in properties:
            bit = index.get(prop)
            if bit is None:
                return None
            mask |= 1 << bit
        return mask

    def clip_mask(self, properties: Iterable[str]) -> int:
        """The mask of the known subset of ``properties`` (foreign names drop)."""
        mask = 0
        index = self.index
        for prop in properties:
            bit = index.get(prop)
            if bit is not None:
                mask |= 1 << bit
        return mask

    def props_of(self, mask: int) -> PropertySet:
        """The property set a mask denotes."""
        names = self.names
        result = []
        while mask:
            low = mask & -mask
            result.append(names[low.bit_length() - 1])
            mask ^= low
        return frozenset(result)


class QueryInterner:
    """Bit positions for one query's properties (sorted order).

    The lowest set bit of a mask is always the lexicographically smallest
    property, so branch-and-bound pivots match the set-algebra reference
    exactly.
    """

    __slots__ = ("props", "index", "full")

    def __init__(self, query: PropertySet) -> None:
        self.props: Tuple[str, ...] = tuple(sorted(query))
        self.index: Dict[str, int] = {p: i for i, p in enumerate(self.props)}
        self.full: int = (1 << len(self.props)) - 1

    def mask(self, properties: Iterable[str]) -> Optional[int]:
        """Mask of ``properties``; ``None`` when not a subset of the query."""
        mask = 0
        index = self.index
        for prop in properties:
            bit = index.get(prop)
            if bit is None:
                return None
            mask |= 1 << bit
        return mask

    def clip(self, properties: Iterable[str]) -> int:
        """Mask of ``properties ∩ query`` (foreign names drop silently)."""
        mask = 0
        index = self.index
        for prop in properties:
            bit = index.get(prop)
            if bit is not None:
                mask |= 1 << bit
        return mask

    def props_of(self, mask: int) -> PropertySet:
        props = self.props
        result = []
        while mask:
            low = mask & -mask
            result.append(props[low.bit_length() - 1])
            mask ^= low
        return frozenset(result)


class CompiledWorkload:
    """A workload's queries, utilities and indexes as integer bitmasks.

    Built once per workload (see :func:`compile_workload`); translation
    caches are append-only and hold only property sets over the
    workload's own names (a set naming a foreign property is recomputed
    on every ask).
    """

    def __init__(self, workload: "ClassifierWorkload") -> None:
        # Weak: the workload is the key of the weak-keyed ``_COMPILED``
        # memo, and a strong back-reference from the value would keep
        # the entry alive forever.
        self._workload = weakref.ref(workload)
        #: Workload version this view was compiled against; a mutation
        #: bumps the workload's counter, `compile_workload` then drops
        #: this view, and any holder that kept it raises through
        #: :meth:`assert_current` instead of serving pre-mutation masks.
        self.version: int = getattr(workload, "version", 0)
        self.queries: Tuple = workload.queries
        self.space = PropertySpace.from_collections(self.queries)
        space = self.space
        self.query_masks: List[int] = [space.clip_mask(q) for q in self.queries]
        self.query_pos: Dict[PropertySet, int] = {
            q: i for i, q in enumerate(self.queries)
        }
        self.utilities: List[float] = [workload.utility(q) for q in self.queries]
        # property-bit → ascending query indexes (the property→query
        # inverted index as a list of ints, in workload order).
        self.bit_queries: List[List[int]] = [[] for _ in range(len(space))]
        for qidx, mask in enumerate(self.query_masks):
            remaining = mask
            while remaining:
                low = remaining & -remaining
                self.bit_queries[low.bit_length() - 1].append(qidx)
                remaining ^= low
        # Translation caches (mask_of: propset → mask, never None;
        # props_of: mask → propset).  Query masks are pre-seeded.
        self._mask_cache: Dict[PropertySet, int] = dict(
            zip(self.queries, self.query_masks)
        )
        self._props_cache: Dict[int, PropertySet] = {
            m: q for q, m in zip(self.queries, self.query_masks)
        }
        # classifier-mask → ascending query indexes (supersets).
        self._containing: Dict[int, Tuple[int, ...]] = {}
        # classifier-mask → the same superset rows as one bitmap over
        # query positions (bit ``i`` set ⇔ query ``i`` contains it).
        # Bounded: every value is a |Q|-bit int, so on a long-lived
        # interned workload probed with many distinct slate masks this
        # memo would otherwise hold O(entries · |Q|) bytes forever; at
        # the cap it clears wholesale (same discipline as the model's
        # containing memo) and the next probe re-derives.
        self._row_bitmaps: Dict[int, int] = {}
        # property-bit → bitmap of the query positions containing it.
        self.prop_bitmaps: List[int] = [
            sum(1 << qidx for qidx in row) for row in self.bit_queries
        ]

    def assert_current(self) -> None:
        """Raise :class:`StaleWorkloadError` if the workload mutated since compile.

        A freed workload counts as stale: its last version is unknown.
        """
        workload = self._workload()
        if workload is None or getattr(workload, "version", 0) != self.version:
            from repro.core.errors import StaleWorkloadError

            now = "freed" if workload is None else f"at version {workload.version}"
            raise StaleWorkloadError(
                f"compiled workload built at version {self.version} read after "
                f"its workload changed ({now}); recompile via compile_workload()"
            )

    # ------------------------------------------------------------------
    # translation
    # ------------------------------------------------------------------
    def mask_of(self, properties: PropertySet) -> Optional[int]:
        """Memoized mask of a property set (``None`` for foreign names).

        Only masks are stored: a set naming a foreign property is
        re-translated on every ask, so junk probes cannot grow the memo
        (the non-empty-only rule of the ``containing`` memos).
        """
        cached = self._mask_cache.get(properties)
        if cached is not None:
            return cached
        mask = self.space.mask_of(properties)
        if mask is not None:
            self._mask_cache[properties] = mask
        return mask

    def props_of(self, mask: int) -> PropertySet:
        """Memoized property set of a mask."""
        cached = self._props_cache.get(mask)
        if cached is None:
            cached = self.space.props_of(mask)
            self._props_cache[mask] = cached
        return cached

    # ------------------------------------------------------------------
    # inverted indexes
    # ------------------------------------------------------------------
    def containing(self, cmask: int) -> Tuple[int, ...]:
        """Query indexes whose mask is a superset of ``cmask`` (ascending).

        Rarest-bit filtering, memoized per mask; ascending index order is
        workload order, matching the set-algebra reference exactly.
        """
        cached = self._containing.get(cmask)
        if cached is not None:
            return cached
        if not cmask:
            raise ValueError("containing() requires a non-empty mask")
        best: Optional[List[int]] = None
        remaining = cmask
        bit_queries = self.bit_queries
        while remaining:
            low = remaining & -remaining
            candidates = bit_queries[low.bit_length() - 1]
            if best is None or len(candidates) < len(best):
                best = candidates
            remaining ^= low
        masks = self.query_masks
        result = tuple(i for i in best if not (cmask & ~masks[i]))
        if result:
            # Non-empty ⇒ cmask is a subset of some query ⇒ a relevant
            # classifier mask, so the memo stays bounded by |CL|.
            self._containing[cmask] = result
        return result

    def row_bitmap(self, cmask: int) -> int:
        """The :meth:`containing` row of ``cmask`` as a query-position bitmap.

        Bit ``i`` is set iff query ``i`` contains ``cmask``; the probe-gain
        kernel intersects these with per-property missing bitmaps so a
        whole trial addition applies in a handful of big-int operations.
        Memoized under the same non-empty-only rule as :meth:`containing`.
        """
        cached = self._row_bitmaps.get(cmask)
        if cached is not None:
            return cached
        bitmap = 0
        for qidx in self.containing(cmask):
            bitmap |= 1 << qidx
        if bitmap:
            if len(self._row_bitmaps) >= _ROW_BITMAP_CAP:
                self._row_bitmaps.clear()
            self._row_bitmaps[cmask] = bitmap
        return bitmap


_COMPILED: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def compile_workload(workload: "ClassifierWorkload") -> CompiledWorkload:
    """The memoized compiled view of ``workload`` (one per instance version).

    Held in a weak-keyed side table so workload pickling (process
    fan-out) and fingerprinting never see the compiled state.  The memo
    is keyed on the workload's mutation counter: a delta application
    bumps ``workload.version``, the stale view is dropped here, and a
    fresh compile replaces it — callers holding the old view directly
    (e.g. a coverage tracker built before the mutation) raise
    :class:`~repro.core.errors.StaleWorkloadError` instead of reading
    pre-mutation masks.
    """
    compiled = _COMPILED.get(workload)
    if compiled is None or compiled.version != getattr(workload, "version", 0):
        compiled = CompiledWorkload(workload)
        _COMPILED[workload] = compiled
    return compiled
