"""Latency-SLO serving: the anytime meta-solver.

The serving question is "best certified answer within X ms", not "run
all arms to completion".  :class:`~repro.slo.meta.AnytimeMetaSolver`
answers it: it charges every arm its registry tier prior as its
predicted runtime, races cheap arms first through the task pool,
escalates while predicted time remains, and always holds a certified
incumbent it can return on timeout.

Time is injected via the :class:`~repro.parallel.clock.Clock` protocol;
:func:`~repro.slo.meta.tier_prior_clock` is the
:class:`~repro.parallel.clock.VirtualClock` that charges each arm its
tier prior, which makes every scheduling decision deterministic.
``python -m repro.slo --deadline-ms 50`` runs the solver from the
command line.
"""

from repro.parallel.clock import SYSTEM_CLOCK, Clock, SystemClock, VirtualClock
from repro.slo.figure import figslo
from repro.slo.meta import (
    DEFAULT_ARMS,
    AnytimeMetaSolver,
    SloConfig,
    solve_slo,
    tier_prior_clock,
)

__all__ = [
    "Clock",
    "SystemClock",
    "VirtualClock",
    "SYSTEM_CLOCK",
    "figslo",
    "AnytimeMetaSolver",
    "SloConfig",
    "solve_slo",
    "tier_prior_clock",
    "DEFAULT_ARMS",
]
