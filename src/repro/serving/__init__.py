"""Multi-tenant serving façade over the solver stack.

Public surface:

- :class:`~repro.serving.facade.ServingFacade` /
  :class:`~repro.serving.facade.ServingConfig` — the asyncio request
  loop (register tenants, ``submit``/``tick``/``run``, deterministic
  ``replay``);
- :func:`~repro.slo.meta.tier_prior_clock` — the standard virtual
  clock for deterministic serving simulations;
- the typed requests/responses of :mod:`repro.serving.requests`;
- :func:`~repro.serving.traffic.generate_trace` and the trace file
  helpers of :mod:`repro.serving.traffic`;
- ``python -m repro.serving`` — trace replay CLI.
"""

from repro.serving.facade import ServingConfig, ServingCounters, ServingFacade
from repro.serving.requests import (
    KINDS,
    PlanRequest,
    ReplanRequest,
    ServeRequest,
    ServeResponse,
    WhatIfRequest,
    request_from_json,
    request_to_json,
)
from repro.serving.traffic import (
    ServingTrace,
    TraceItem,
    generate_trace,
    load_trace,
    save_trace,
    trace_from_json,
    trace_to_json,
)
from repro.slo.meta import tier_prior_clock

__all__ = [
    "KINDS",
    "PlanRequest",
    "ReplanRequest",
    "ServeRequest",
    "ServeResponse",
    "ServingConfig",
    "ServingCounters",
    "ServingFacade",
    "ServingTrace",
    "TraceItem",
    "WhatIfRequest",
    "generate_trace",
    "load_trace",
    "request_from_json",
    "request_to_json",
    "save_trace",
    "tier_prior_clock",
    "trace_from_json",
    "trace_to_json",
]
