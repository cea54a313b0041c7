"""Typed requests and responses of the serving façade.

Three request kinds cover the deployment-time question spectrum:

- :class:`PlanRequest` — *"best certified plan for my workload right
  now"*, optionally at an overriding budget and under a latency SLO;
- :class:`ReplanRequest` — *"my workload changed, re-plan"*: carries a
  :class:`~repro.incremental.delta.WorkloadDelta` that mutates the
  tenant's workload and re-solves warm through the incremental engine;
- :class:`WhatIfRequest` — *"what would I get if…"*: a hypothetical
  budget and/or delta evaluated against a clone, never committed.

Responses are :class:`ServeResponse` records: either a certified
:class:`~repro.core.solution.Solution` or a typed error (one tenant's
failure is *that tenant's response*, never an exception into another
tenant's in-flight request), plus per-request telemetry — arrival /
start / finish timestamps on the façade's clock, queue wait, coalesced
batch size, cache disposition and the arm that produced the answer.

:meth:`ServeResponse.canonical` is the determinism contract: the
byte-exact JSON encoding of everything that must be identical when a
trace replays under a virtual clock — across runs, engines and worker
counts.  ``service_s`` and the solution's meta, where the solvers keep
their own diagnostics, deliberately stay outside it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from repro.core.solution import Solution
from repro.incremental.delta import WorkloadDelta

#: Request kinds, in the order ``kind`` reports them.
KINDS = ("plan", "replan", "what_if")


def _check_common(tenant: str, budget: Optional[float], deadline_ms: Optional[float]) -> None:
    if not tenant or not isinstance(tenant, str):
        raise ValueError(f"tenant must be a non-empty string, got {tenant!r}")
    if budget is not None and not budget >= 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if deadline_ms is not None and not deadline_ms >= 0:
        raise ValueError(f"deadline_ms must be >= 0, got {deadline_ms}")


@dataclass(frozen=True)
class PlanRequest:
    """Plan the tenant's current workload (read-only).

    Attributes:
        tenant: registered tenant name.
        budget: overriding budget; ``None`` uses the tenant's own.
        deadline_ms: latency SLO for a cold solve; ``None`` is unbounded.
    """

    tenant: str
    budget: Optional[float] = None
    deadline_ms: Optional[float] = None

    kind = "plan"

    def __post_init__(self) -> None:
        _check_common(self.tenant, self.budget, self.deadline_ms)


@dataclass(frozen=True)
class ReplanRequest:
    """Mutate the tenant's workload by ``delta`` and re-plan warm.

    Attributes:
        tenant: registered tenant name.
        delta: the workload edit batch to apply (validated at service
            time; an invalid delta is an error response, not a crash).
        expected_version: optimistic-concurrency guard — when set, the
            tenant's workload version must still equal it at service
            time, otherwise the request fails with a
            :class:`~repro.core.errors.StaleWorkloadError` response (the
            delta was built against a state another replan has since
            replaced).
        deadline_ms: advisory latency SLO recorded in telemetry.
    """

    tenant: str
    delta: WorkloadDelta
    expected_version: Optional[int] = None
    deadline_ms: Optional[float] = None

    kind = "replan"

    def __post_init__(self) -> None:
        _check_common(self.tenant, None, self.deadline_ms)
        if not isinstance(self.delta, WorkloadDelta):
            raise ValueError(f"delta must be a WorkloadDelta, got {type(self.delta).__name__}")
        if self.expected_version is not None and self.expected_version < 0:
            raise ValueError(f"expected_version must be >= 0, got {self.expected_version}")


@dataclass(frozen=True)
class WhatIfRequest:
    """Hypothetical plan: optional delta and/or budget against a clone.

    Nothing is committed — the tenant's workload, version and warm solver
    state are untouched no matter what the what-if explores.
    """

    tenant: str
    budget: Optional[float] = None
    delta: Optional[WorkloadDelta] = None
    deadline_ms: Optional[float] = None

    kind = "what_if"

    def __post_init__(self) -> None:
        _check_common(self.tenant, self.budget, self.deadline_ms)
        if self.delta is not None and not isinstance(self.delta, WorkloadDelta):
            raise ValueError(f"delta must be a WorkloadDelta, got {type(self.delta).__name__}")


ServeRequest = Union[PlanRequest, ReplanRequest, WhatIfRequest]


@dataclass(frozen=True)
class ServeResponse:
    """One answered request: a certified solution or a typed error.

    Attributes:
        request_id: the trace sequence id (or submission counter).
        tenant: the requesting tenant.
        kind: ``plan`` / ``replan`` / ``what_if``.
        status: ``"ok"`` or ``"error"``.
        solution: the certified solution (``meta["certificate"]`` always
            present) when ``status == "ok"``.
        error: the error's class name when ``status == "error"``.
        detail: the error message (diagnostic, excluded from canonical).
        telemetry: per-request serving record: timestamps on the façade
            clock, ``queue_wait_s``, ``service_s``, ``batch_size``,
            ``cache``, ``path``, ``arm`` and ``tick``.  The solver's own
            diagnostics stay in ``solution.meta`` (``"slo"`` for a group
            solve, ``"incremental"`` for a re-plan).
    """

    request_id: int
    tenant: str
    kind: str
    status: str
    solution: Optional[Solution] = None
    error: Optional[str] = None
    detail: Optional[str] = None
    telemetry: Mapping[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def canonical(self) -> str:
        """The byte-exact deterministic encoding of this response.

        Two replays of the same trace under a virtual clock must produce
        identical canonical strings position by position — across runs,
        across ``REPRO_JOBS`` settings and across coverage engines.  The
        encoding covers the request identity, the full solution content
        (classifiers, covered queries, exact cost/utility floats), the
        error type, the simulated timeline and the serving disposition
        (batch size, cache hit/miss, solve path, arm chosen).
        """
        solution = None
        if self.solution is not None:
            solution = {
                "classifiers": sorted(
                    sorted(str(p) for p in c) for c in self.solution.classifiers
                ),
                "covered": sorted(
                    sorted(str(p) for p in q) for q in self.solution.covered
                ),
                "cost": repr(self.solution.cost),
                "utility": repr(self.solution.utility),
            }
        deterministic = {
            key: self.telemetry.get(key)
            for key in (
                "arrival_s",
                "start_s",
                "finish_s",
                "queue_wait_s",
                "batch_size",
                "cache",
                "path",
                "arm",
                "tick",
            )
        }
        payload = {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "kind": self.kind,
            "status": self.status,
            "error": self.error,
            "solution": solution,
            "telemetry": deterministic,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def request_to_json(request: ServeRequest) -> dict:
    """A JSON-compatible dict round-tripping through :func:`request_from_json`."""
    payload: dict = {"kind": request.kind, "tenant": request.tenant}
    if request.kind in ("plan", "what_if") and request.budget is not None:
        payload["budget"] = request.budget
    if request.deadline_ms is not None:
        payload["deadline_ms"] = request.deadline_ms
    if request.kind == "replan":
        payload["delta"] = request.delta.to_json()
        if request.expected_version is not None:
            payload["expected_version"] = request.expected_version
    elif request.kind == "what_if" and request.delta is not None:
        payload["delta"] = request.delta.to_json()
    return payload


def request_from_json(payload: Mapping) -> ServeRequest:
    """Rebuild the request stored by :func:`request_to_json`."""
    kind = payload.get("kind")
    tenant = payload.get("tenant")
    deadline = payload.get("deadline_ms")
    if kind == "plan":
        return PlanRequest(tenant, budget=payload.get("budget"), deadline_ms=deadline)
    if kind == "replan":
        return ReplanRequest(
            tenant,
            WorkloadDelta.from_json(payload["delta"]),
            expected_version=payload.get("expected_version"),
            deadline_ms=deadline,
        )
    if kind == "what_if":
        delta = payload.get("delta")
        return WhatIfRequest(
            tenant,
            budget=payload.get("budget"),
            delta=None if delta is None else WorkloadDelta.from_json(delta),
            deadline_ms=deadline,
        )
    raise ValueError(f"unknown request kind {kind!r}")
