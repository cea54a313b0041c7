"""Deterministic on-disk result cache for solve tasks.

Two callers hold one: :func:`repro.parallel.pool.run_tasks`, for
``python -m repro.experiments --cache``, and the serving façade, for the
answers of its coalesced ``plan`` / ``what_if`` groups.  Re-plans never
reach it: their shard solves live in the tenant's profile store.

One JSON file per fingerprint under ``.repro-cache/`` (override with
``REPRO_CACHE_DIR``).  Entries hold the full
:class:`~repro.core.solution.Solution` payload — classifier
sets, covered queries, cost/utility as exact round-trip floats — plus the
original solve's wall seconds, so a cache hit reproduces the original
result byte for byte, timing included.  That is what makes repeated
sweeps deterministic: warm runs of a figure return *identical* rows, not
merely equal utilities.  Both callers re-verify every hit and
:meth:`ResultCache.reject` the ones that fail, so ``stats.hits`` counts
only the hits that were served.

The cache is LRU-bounded: reads bump the entry's mtime and writes evict
the oldest entries beyond ``max_entries``.  All cache I/O happens in the
coordinating process — worker processes never touch the directory, so no
cross-process locking is needed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.solution import Solution

#: Bump when the payload layout changes; stale-version entries are misses.
CACHE_VERSION = 1

DEFAULT_CACHE_DIR = ".repro-cache"
DEFAULT_MAX_ENTRIES = 512

_JSON_SAFE = (str, int, float, bool, type(None))


def _meta_payload(meta) -> Dict[str, object]:
    """The JSON-safe subset of a solution's meta mapping.

    Solver telemetry is plain scalars/containers and survives; opaque
    objects (certificates, trackers) are dropped — a cache hit re-derives
    certificates on demand instead of trusting stored ones.
    """

    def safe(value):
        if isinstance(value, _JSON_SAFE):
            return value
        if isinstance(value, dict):
            entries = {str(k): safe(v) for k, v in value.items()}
            return {k: v for k, v in entries.items() if v is not _DROP}
        if isinstance(value, (list, tuple)):
            converted = [safe(v) for v in value]
            return [v for v in converted if v is not _DROP]
        return _DROP

    _DROP = object()
    payload = {}
    for key, value in dict(meta).items():
        converted = safe(value)
        if converted is not _DROP:
            payload[str(key)] = converted
    return payload


def solution_to_payload(solution: Solution) -> dict:
    """A JSON dict that round-trips ``solution`` exactly (floats included)."""
    return {
        "classifiers": sorted(sorted(str(p) for p in c) for c in solution.classifiers),
        "covered": sorted(sorted(str(p) for p in q) for q in solution.covered),
        "cost": solution.cost,
        "utility": solution.utility,
        "meta": _meta_payload(solution.meta),
    }


def solution_from_payload(payload: dict) -> Solution:
    """Rebuild the :class:`Solution` stored by :func:`solution_to_payload`."""
    return Solution(
        classifiers=frozenset(frozenset(c) for c in payload["classifiers"]),
        covered=frozenset(frozenset(q) for q in payload["covered"]),
        cost=float(payload["cost"]),
        utility=float(payload["utility"]),
        meta=dict(payload.get("meta", {})),
    )


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0


@dataclass
class ResultCache:
    """Fingerprint → solved-task payload store (JSON files, LRU-bounded).

    Attributes:
        directory: cache root (created lazily on first store).
        max_entries: LRU bound; oldest-read entries are evicted on store.
        stats: hit/miss/store/eviction counters for this handle.
    """

    directory: Path = field(default_factory=lambda: Path(DEFAULT_CACHE_DIR))
    max_entries: int = DEFAULT_MAX_ENTRIES
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)
        if self.max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {self.max_entries}")

    def _path(self, fingerprint: str, suffix: str = ".json") -> str:
        return os.path.join(self.directory, fingerprint + suffix)

    def get(self, fingerprint: str) -> Optional[Tuple[Solution, float]]:
        """The cached ``(solution, seconds)`` for ``fingerprint``, or None."""
        path = self._path(fingerprint)
        try:
            with open(path, "rb") as handle:
                payload = json.loads(handle.read())
        except (OSError, ValueError):
            self.stats.misses += 1
            return None
        if not isinstance(payload, dict) or payload.get("version") != CACHE_VERSION:
            self.stats.misses += 1
            return None
        try:
            solution = solution_from_payload(payload["solution"])
            seconds = float(payload["seconds"])
        except (KeyError, TypeError, ValueError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        try:
            os.utime(path)  # bump recency for LRU eviction
        except OSError:
            pass
        return solution, seconds

    def reject(self, fingerprint: str) -> None:
        """Refuse the hit :meth:`get` just served: a caller's check of it
        failed, so it counts as a miss and the entry is deleted."""
        self.stats.hits -= 1
        self.stats.misses += 1
        try:
            os.unlink(self._path(fingerprint))
        except OSError:
            pass

    def put(self, fingerprint: str, solution: Solution, seconds: float) -> None:
        """Store one solved task and evict beyond the LRU bound."""
        if not math.isfinite(seconds):
            raise ValueError(f"seconds must be finite, got {seconds}")
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": CACHE_VERSION,
            "fingerprint": fingerprint,
            "seconds": seconds,
            "solution": solution_to_payload(solution),
        }
        tmp = self._path(fingerprint, ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, sort_keys=True))
        os.replace(tmp, self._path(fingerprint))  # atomic: readers never see partial JSON
        self.stats.stores += 1
        self._evict()

    def _names(self) -> List[str]:
        """File names of the stored entries (no per-entry ``stat``)."""
        try:
            return [name for name in os.listdir(self.directory) if name.endswith(".json")]
        except OSError:
            return []

    def _evict(self) -> None:
        # Rescan on every put: another handle on the same directory may
        # have stored entries this one never saw, so a per-handle count
        # could stay under the bound while the directory exceeds it.
        names = self._names()
        excess = len(names) - self.max_entries
        if excess <= 0:
            return
        def mtime(name: str) -> Tuple[float, str]:
            try:
                return (os.stat(os.path.join(self.directory, name)).st_mtime, name)
            except OSError:
                return (0.0, name)
        for name in sorted(names, key=mtime)[:excess]:
            try:
                os.unlink(os.path.join(self.directory, name))
                self.stats.evictions += 1
            except OSError:
                pass

    def __len__(self) -> int:
        return len(self._names())

    def clear(self) -> None:
        for name in self._names():
            try:
                os.unlink(os.path.join(self.directory, name))
            except OSError:
                pass


def default_cache(directory: Optional[str] = None) -> ResultCache:
    """A cache in ``directory``, else ``REPRO_CACHE_DIR``, else ``.repro-cache/``."""
    root = directory or os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
    return ResultCache(directory=Path(root))
