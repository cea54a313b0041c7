"""Injected time: the ``Clock`` protocol, system and virtual clocks.

Every timing decision in the execution layer — per-task elapsed seconds
in :func:`repro.parallel.pool.run_tasks`, the deadline arithmetic of the
anytime meta-solver in :mod:`repro.slo` — goes through a :class:`Clock`
instead of calling ``time.perf_counter`` inline.  Production code runs on
the shared :data:`SYSTEM_CLOCK`; tests install a :class:`VirtualClock`
whose time advances only when told to, which makes every scheduling
decision (and therefore every test of one) deterministic: the same
portfolio and the same deadline produce the same arm schedule on
every run, every platform, every engine.

A virtual clock simulates task runtimes through its ``task_seconds``
hook: executing a task advances virtual time by the hook's answer
instead of by wall time.  Virtual time is serial by construction — a
pool given a virtual clock must not fan out (out-of-order completion has
no meaning when time is a single shared counter), so
:func:`~repro.parallel.pool.run_tasks` forces ``jobs=1`` under one.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple, TypeVar

R = TypeVar("R")


class Clock:
    """The injected-time interface (base class doubles as the protocol).

    Attributes:
        virtual: True when time is simulated; schedulers must not assume
            wall time passes while they compute, and pools must stay
            serial.
    """

    virtual: bool = False

    def now(self) -> float:
        """Current time in seconds (monotonic; origin is unspecified)."""
        raise NotImplementedError

    def run_task(self, task: object, fn: Callable[[], R]) -> Tuple[R, float]:
        """Execute ``fn`` on behalf of ``task`` and return ``(result, seconds)``.

        The single timing primitive of the task layer: real clocks
        measure wall seconds around the call, virtual clocks charge the
        simulated duration of ``task`` instead.
        """
        raise NotImplementedError


class SystemClock(Clock):
    """Wall time via ``time.perf_counter`` (the production clock)."""

    def now(self) -> float:
        return time.perf_counter()

    def run_task(self, task: object, fn: Callable[[], R]) -> Tuple[R, float]:
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start


class VirtualClock(Clock):
    """Deterministic simulated time for scheduling tests.

    Time starts at ``start`` and advances only through :meth:`advance`
    or :meth:`run_task`.  ``task_seconds`` maps a task to its simulated
    duration (default: every task is instantaneous); whatever the hook
    returns is both charged to the clock and reported as the task's
    elapsed seconds, so downstream telemetry sees a coherent timeline.
    """

    virtual = True

    def __init__(
        self,
        start: float = 0.0,
        task_seconds: Optional[Callable[[object], float]] = None,
    ) -> None:
        self._now = float(start)
        self._task_seconds = task_seconds

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        """Move time forward by ``seconds`` (must be non-negative)."""
        if seconds < 0:
            raise ValueError(f"cannot advance time backwards ({seconds})")
        self._now += float(seconds)

    def run_task(self, task: object, fn: Callable[[], R]) -> Tuple[R, float]:
        result = fn()
        seconds = 0.0
        if self._task_seconds is not None:
            seconds = float(self._task_seconds(task))
            if seconds < 0:
                raise ValueError(f"task_seconds returned {seconds} (< 0)")
        self._now += seconds
        return result, seconds


#: The shared production clock (stateless, safe to share everywhere).
SYSTEM_CLOCK = SystemClock()
