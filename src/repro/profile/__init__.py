"""Phase-attribution profiling for the solver hot paths.

A :class:`PhaseProfiler` accumulates seconds per named phase (read from an
injected :class:`~repro.parallel.clock.Clock`, so tests can drive it
deterministically) plus free-form integer counters (probe counts,
transpose rebuilds, memo hits).
``solve_bcc``, the tracker probe paths, and the HkS portfolio report into
whichever profiler is *active*; when none is, every hook is a single
``is None`` test — near-zero overhead on the paths this module exists to
measure.  The caller that activates a profiler is the only reader of what
it records::

    with activate(PhaseProfiler()) as prof:
        solve_bcc(instance)
    print(prof.snapshot())

Nothing of it reaches a solution, so profiled and unprofiled solves return
the same answer, meta included.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional

if TYPE_CHECKING:  # importing repro.parallel here would be circular
    from repro.parallel.clock import Clock

__all__ = [
    "PhaseProfiler",
    "activate",
    "current_profiler",
    "phase",
    "add_count",
]


class PhaseProfiler:
    """Accumulates per-phase seconds and named counters.

    Phases nest: entering ``phase("qk")`` inside ``phase("round")``
    charges the inner span to both (each phase records its own inclusive
    time).  ``calls`` counts phase entries, ``counts`` holds free-form
    integer telemetry.
    """

    def __init__(self, clock: Optional[Clock] = None) -> None:
        if clock is None:
            from repro.parallel.clock import SYSTEM_CLOCK

            clock = SYSTEM_CLOCK
        self.clock = clock
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}

    def add_count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = self.clock.now()
        try:
            yield
        finally:
            elapsed = self.clock.now() - start
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
            self.calls[name] = self.calls.get(name, 0) + 1

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready view: per-phase seconds/calls plus counters."""
        return {
            "phases": {
                name: {"seconds": self.seconds[name], "calls": self.calls.get(name, 0)}
                for name in sorted(self.seconds)
            },
            "counts": dict(sorted(self.counts.items())),
        }


# Active-profiler stack: module-level so the solver layers report into the
# caller's profiler without threading it through every signature.
_ACTIVE: List[PhaseProfiler] = []


def current_profiler() -> Optional[PhaseProfiler]:
    """The innermost active profiler, or ``None`` (the common case)."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def activate(profiler: PhaseProfiler) -> Iterator[PhaseProfiler]:
    """Make ``profiler`` the active sink for the enclosed block."""
    _ACTIVE.append(profiler)
    try:
        yield profiler
    finally:
        _ACTIVE.pop()


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Time a span against the active profiler; no-op when none is."""
    prof = _ACTIVE[-1] if _ACTIVE else None
    if prof is None:
        yield
        return
    with prof.phase(name):
        yield


def add_count(name: str, amount: int = 1) -> None:
    """Bump a counter on the active profiler; no-op when none is."""
    if _ACTIVE:
        _ACTIVE[-1].add_count(name, amount)
