"""The multi-tenant serving façade: an asyncio request loop over the stack.

:class:`ServingFacade` is the thin service layer the ROADMAP calls the
repo's forcing function: it accepts typed ``plan`` / ``replan`` /
``what_if`` requests (:mod:`repro.serving.requests`) for many registered
tenants and answers every one with a certificate-carrying solution or a
typed error, routed through the machinery the previous PRs built:

- **per-tick coalescing** — requests queued in the same tick whose
  effective instances share a canonical fingerprint (same workload
  content, same budget) and the same deadline collapse into *one* solve
  fanned to every waiter, across tenants;
- **cache short-circuit** — a coalesced group consults the PR-3
  :class:`~repro.parallel.cache.ResultCache` first and a warm hit never
  touches the pool.  Certificates are **never stored**: every hit is
  re-verified from first principles against the live instance
  (:func:`~repro.verify.certificate.attach_certificate`), so a tampered
  cache payload is rejected at the serving layer and the request falls
  back to a cold solve.  The cache holds group answers only;
- **warm re-plans** — ``replan`` requests mutate the tenant's workload
  through its own :class:`~repro.incremental.engine.IncrementalSolver`,
  reusing every untouched shard profile from that solver's store (never
  from the cache), and the façade certifies the answer as it does a
  cache hit;
- **deadline-policy cold solves** — cache misses go through the PR-8
  :class:`~repro.slo.meta.AnytimeMetaSolver`, which admits arms through
  the PR-3 task pool under the request's latency SLO and always returns
  a certified incumbent.

Determinism is the design driver, not an afterthought: every timestamp
the façade takes goes through the injected
:class:`~repro.parallel.clock.Clock`, and the tick loop services queued
requests in a single total order (arrival sequence, with coalesce groups
executing at their earliest member's position).  Under a
:class:`~repro.parallel.clock.VirtualClock` an entire traffic trace —
arrivals, batching, queue waits, schedules, answers — is bit-identical
across runs, across ``REPRO_JOBS`` settings (a virtual clock forces the
pool serial) and across coverage engines (floats are engine-identical by
construction).  :meth:`ServingFacade.replay` drives a recorded trace
through the real asyncio loop under exactly that regime.

Failures are responses, not exceptions: one tenant's
:class:`~repro.core.errors.StaleWorkloadError` (or invalid delta, or
unknown-tenant reference) becomes *that request's* error response and
never disturbs another tenant's in-flight work.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.errors import (
    CertificateError,
    ReproError,
    StaleWorkloadError,
    UnknownTenantError,
)
from repro.core.model import BCCInstance
from repro.core.solution import Solution
from repro.incremental.engine import INNER_SOLVER, IncrementalConfig, IncrementalSolver
from repro.parallel.cache import ResultCache
from repro.parallel.clock import SYSTEM_CLOCK, Clock
from repro.parallel.fingerprint import task_fingerprint
from repro.serving.requests import ReplanRequest, ServeRequest, ServeResponse
from repro.serving.traffic import ServingTrace
from repro.slo.meta import DEFAULT_ARMS, AnytimeMetaSolver, SloConfig
from repro.verify.certificate import attach_certificate

#: Slack for arrival/window comparisons (float accumulation, not policy).
_TOL = 1e-12


@dataclass(frozen=True)
class ServingConfig:
    """Policy knobs for one façade.

    Attributes:
        arms: the cold-solve portfolio handed to the meta-solver.
        clock: injected time; ``None`` uses the system clock.  Install a
            virtual clock (e.g. :func:`~repro.slo.meta.tier_prior_clock`) for
            deterministic replays.
        cache: result cache for the answers of coalesced ``plan`` /
            ``what_if`` groups, one entry per meta-solver solve; ``None``
            makes every group solve cold.  Re-plans never touch it: a
            tenant's shard solves live in its own profile store.
        jobs: pool width for cold solves and dirty-shard fan-out
            (``None`` defers to ``REPRO_JOBS``; a virtual clock forces 1).
        tick_seconds: width of one coalescing window on the clock.

    A request that carries no deadline is unbounded.
    """

    arms: Tuple[str, ...] = DEFAULT_ARMS
    clock: Optional[Clock] = field(default=None, repr=False)
    cache: Optional[ResultCache] = field(default=None, repr=False)
    jobs: Optional[int] = None
    tick_seconds: float = 0.02

    def __post_init__(self) -> None:
        if self.tick_seconds < 0:
            raise ValueError(f"tick_seconds must be >= 0, got {self.tick_seconds}")


@dataclass
class ServingCounters:
    """Aggregate serving telemetry (monotonic over the façade's lifetime)."""

    requests: int = 0
    responses: int = 0
    errors: int = 0
    ticks: int = 0
    solves: int = 0
    replans: int = 0
    coalesced: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_rejected: int = 0

    def hit_rate(self) -> float:
        """Cache hits over cache-consulting requests (0.0 when none ran)."""
        total = self.cache_hits + self.cache_misses + self.cache_rejected
        return self.cache_hits / total if total else 0.0

    def snapshot(self) -> Dict[str, float]:
        payload = dict(vars(self))
        payload["hit_rate"] = self.hit_rate()
        return payload


@dataclass
class _Pending:
    """One enqueued request awaiting its tick."""

    seq: int
    request: ServeRequest
    arrival_s: float
    future: "asyncio.Future[ServeResponse]"


@dataclass
class _Group:
    """A coalesced solve unit: identical effective instances, one solve."""

    #: The coalescing key, which is also the group's result-cache key.
    fingerprint: str
    instance: BCCInstance
    deadline_ms: Optional[float]
    members: List[_Pending] = field(default_factory=list)

    def tenants(self) -> set:
        return {pending.request.tenant for pending in self.members}


class ServingFacade:
    """Async multi-tenant request loop over the solver stack.

    Production use: ``await facade.submit(request)`` from client
    coroutines while ``facade.run()`` ticks on real time.  Deterministic
    use: :meth:`replay` drives a recorded
    :class:`~repro.serving.traffic.ServingTrace` through the same loop
    under the façade's (virtual) clock.
    """

    def __init__(self, config: Optional[ServingConfig] = None) -> None:
        self.config = config or ServingConfig()
        self.clock = self.config.clock or SYSTEM_CLOCK
        self.cache = self.config.cache
        self.counters = ServingCounters()
        self._meta = AnytimeMetaSolver(
            SloConfig(arms=self.config.arms, clock=self.clock, jobs=self.config.jobs)
        )
        #: Each tenant's warm solver, which owns the tenant's workload.
        self._tenants: Dict[str, IncrementalSolver] = {}
        self._inbox: List[_Pending] = []
        self._seq = 0
        self._running = False

    # ------------------------------------------------------------------
    # tenant lifecycle
    # ------------------------------------------------------------------
    def register_tenant(self, name: str, instance: BCCInstance) -> int:
        """Adopt ``instance`` (cloned — the façade owns its copy) for
        ``name`` and return the workload version clients should replan
        against.  Re-registering replaces the tenant's state wholesale.
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"tenant name must be a non-empty string, got {name!r}")
        if not isinstance(instance, BCCInstance):
            raise ValueError(
                f"tenant workload must be a BCCInstance, got {type(instance).__name__}"
            )
        solver = IncrementalSolver(
            instance.clone(),
            config=IncrementalConfig(jobs=self.config.jobs, clock=self.clock),
        )
        self._tenants[name] = solver
        return solver.instance.version

    def tenant_version(self, name: str) -> int:
        """The tenant's current workload version (for optimistic replans)."""
        if name not in self._tenants:
            raise UnknownTenantError(f"unknown tenant {name!r}")
        return self._tenants[name].instance.version

    def tenants(self) -> List[str]:
        return sorted(self._tenants)

    # ------------------------------------------------------------------
    # the asyncio loop
    # ------------------------------------------------------------------
    def enqueue(
        self,
        request: ServeRequest,
        request_id: Optional[int] = None,
        arrival_s: Optional[float] = None,
    ) -> "asyncio.Future[ServeResponse]":
        """Queue ``request`` for the next tick; resolves to its response.

        Must be called inside a running event loop.  ``request_id``
        defaults to the submission sequence number; ``arrival_s``
        defaults to the clock's now (replay drivers pass the trace's
        recorded arrival so queue waits are simulated faithfully).
        """
        future: "asyncio.Future[ServeResponse]" = (
            asyncio.get_running_loop().create_future()
        )
        seq = self._seq if request_id is None else request_id
        self._seq += 1
        self.counters.requests += 1
        self._inbox.append(
            _Pending(
                seq=seq,
                request=request,
                arrival_s=self.clock.now() if arrival_s is None else float(arrival_s),
                future=future,
            )
        )
        return future

    async def submit(self, request: ServeRequest) -> ServeResponse:
        """Queue ``request`` and await its response (client entry point)."""
        return await self.enqueue(request)

    async def tick(self) -> List[ServeResponse]:
        """Service everything queued right now, resolving the futures."""
        batch, self._inbox = self._inbox, []
        responses = self._service_tick(batch)
        for pending, response in zip(batch, responses):
            if not pending.future.done():
                pending.future.set_result(response)
        return responses

    async def run(self) -> None:
        """The production loop: tick on real time until :meth:`stop`.

        Solves execute inline in the loop (a CPython solve cannot be
        preempted anyway); concurrency comes from the task pool *inside*
        a solve, not from overlapping solves.
        """
        self._running = True
        try:
            while self._running:
                await asyncio.sleep(self.config.tick_seconds)
                if self._inbox:
                    await self.tick()
        finally:
            self._running = False

    def stop(self) -> None:
        self._running = False

    # ------------------------------------------------------------------
    # trace replay
    # ------------------------------------------------------------------
    def replay(self, trace: ServingTrace, register: bool = True) -> List[ServeResponse]:
        """Serve a recorded trace end to end; responses in trace order.

        Arrivals are grouped into ticks of ``tick_seconds`` starting at
        each window's first arrival.  Under a virtual clock the loop
        advances simulated time to each window close before servicing, so
        the whole timeline — queue waits included — is deterministic;
        under the system clock the trace is served as fast as the façade
        can tick (throughput mode, no artificial pacing).
        """
        return asyncio.run(self.replay_async(trace, register=register))

    async def replay_async(
        self, trace: ServingTrace, register: bool = True
    ) -> List[ServeResponse]:
        if register:
            for name in sorted(trace.tenants):
                self.register_tenant(name, trace.tenants[name])
        items = sorted(trace.items, key=lambda item: (item.arrival_s, item.seq))
        futures: List["asyncio.Future[ServeResponse]"] = []
        index = 0
        while index < len(items):
            window_close = items[index].arrival_s + self.config.tick_seconds
            while index < len(items) and items[index].arrival_s <= window_close + _TOL:
                item = items[index]
                futures.append(
                    self.enqueue(
                        item.request,
                        request_id=item.seq,
                        arrival_s=item.arrival_s if self.clock.virtual else None,
                    )
                )
                index += 1
            if self.clock.virtual:
                now = self.clock.now()
                if window_close > now:
                    self.clock.advance(window_close - now)
            await self.tick()
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # the deterministic service core
    # ------------------------------------------------------------------
    def _service_tick(self, batch: List[_Pending]) -> List[ServeResponse]:
        """Service one tick's batch in a single deterministic total order.

        Walks the batch in sequence order.  Non-mutating requests
        accumulate into coalesce groups keyed by the canonical
        fingerprint of their *effective* instance (tenant workload with
        the request's budget / hypothetical delta applied) plus the
        deadline.  A ``replan`` is a mutation barrier: before it
        executes, every pending group containing a request from its
        tenant is flushed, so earlier requests answer against
        pre-delta state and later ones against post-delta state.
        """
        tick = self.counters.ticks
        self.counters.ticks += 1
        ordered = sorted(batch, key=lambda pending: pending.seq)
        responses: Dict[int, ServeResponse] = {}
        groups: Dict[str, _Group] = {}
        order: List[str] = []

        def flush(tenant: Optional[str]) -> None:
            kept: List[str] = []
            for key in order:
                group = groups[key]
                if tenant is None or tenant in group.tenants():
                    self._execute_group(group, tick, responses)
                    del groups[key]
                else:
                    kept.append(key)
            order[:] = kept

        for pending in ordered:
            request = pending.request
            solver = self._tenants.get(request.tenant)
            if solver is None:
                responses[pending.seq] = self._error_response(
                    pending,
                    UnknownTenantError(f"unknown tenant {request.tenant!r}"),
                    tick,
                )
                continue
            if isinstance(request, ReplanRequest):
                flush(request.tenant)
                responses[pending.seq] = self._execute_replan(pending, solver, tick)
                continue
            try:
                instance = self._effective_instance(request, solver.instance)
            except ReproError as exc:
                responses[pending.seq] = self._error_response(pending, exc, tick)
                continue
            # plan and what_if requests with the same effective instance
            # and deadline share one solve — the key is content, not kind.
            key = self._solve_fingerprint(instance, request.deadline_ms)
            if key not in groups:
                groups[key] = _Group(
                    fingerprint=key, instance=instance, deadline_ms=request.deadline_ms
                )
                order.append(key)
            groups[key].members.append(pending)
        flush(None)

        out = []
        for pending in batch:
            response = responses[pending.seq]
            self.counters.responses += 1
            if not response.ok:
                self.counters.errors += 1
            out.append(response)
        return out

    def _effective_instance(
        self, request: ServeRequest, instance: BCCInstance
    ) -> BCCInstance:
        """The instance a non-mutating request asks about, given the tenant's."""
        if getattr(request, "delta", None) is not None:
            hypothetical = instance.clone()
            hypothetical.apply_delta(request.delta)
            instance = hypothetical
        if getattr(request, "budget", None) is not None:
            instance = instance.with_budget(request.budget)
        return instance

    def _solve_fingerprint(
        self, instance: BCCInstance, deadline_ms: Optional[float]
    ) -> str:
        """The serving-level cache/coalesce key of one effective solve."""
        return task_fingerprint(
            instance,
            "serving-slo",
            None,
            params=(
                ("arms", ",".join(self.config.arms)),
                ("deadline_ms", "inf" if deadline_ms is None else repr(float(deadline_ms))),
            ),
        )

    # ------------------------------------------------------------------
    # execution paths
    # ------------------------------------------------------------------
    def _execute_group(
        self,
        group: _Group,
        tick: int,
        responses: Dict[int, ServeResponse],
    ) -> None:
        """One solve for a coalesced group, fanned to every waiter."""
        start = self.clock.now()
        solution: Optional[Solution] = None
        cache_state: Optional[str] = None
        if self.cache is not None:
            hit = self.cache.get(group.fingerprint)
            if hit is not None:
                cached, _seconds = hit
                try:
                    # PR-3 contract: certificates are never stored — every
                    # hit re-derives one against the live instance, so a
                    # tampered payload is rejected right here.
                    solution = attach_certificate(
                        group.instance, cached, budget=group.instance.budget
                    )
                    cache_state = "hit"
                    self.counters.cache_hits += 1
                except CertificateError:
                    self.cache.reject(group.fingerprint)
                    cache_state = "rejected"
                    self.counters.cache_rejected += 1
            else:
                cache_state = "miss"
                self.counters.cache_misses += 1

        if solution is None:
            solution = self._meta.solve(group.instance, deadline_ms=group.deadline_ms)
            self.counters.solves += 1
            if self.cache is not None:
                self.cache.put(
                    group.fingerprint, solution, max(self.clock.now() - start, 0.0)
                )

        finish = self.clock.now()
        self.counters.coalesced += len(group.members) - 1
        arm = _chosen_arm(solution)
        for pending in group.members:
            responses[pending.seq] = ServeResponse(
                request_id=pending.seq,
                tenant=pending.request.tenant,
                kind=pending.request.kind,
                status="ok",
                solution=solution,
                telemetry=self._telemetry(
                    pending,
                    start,
                    finish,
                    tick,
                    batch_size=len(group.members),
                    cache=cache_state,
                    path="cache" if cache_state == "hit" else "slo",
                    arm=arm,
                ),
            )

    def _execute_replan(
        self, pending: _Pending, solver: IncrementalSolver, tick: int
    ) -> ServeResponse:
        """Apply the delta through the tenant's warm incremental solver."""
        request = pending.request
        start = self.clock.now()
        try:
            version = solver.instance.version
            if (
                request.expected_version is not None
                and request.expected_version != version
            ):
                raise StaleWorkloadError(
                    f"tenant {request.tenant!r} is at version {version}, "
                    f"replan expected {request.expected_version}"
                )
            solution = solver.resolve_delta(request.delta)
            solution = attach_certificate(
                solver.instance, solution, budget=solver.instance.budget
            )
        except ReproError as exc:
            return self._error_response(pending, exc, tick)
        self.counters.replans += 1
        finish = self.clock.now()
        return ServeResponse(
            request_id=pending.seq,
            tenant=request.tenant,
            kind=request.kind,
            status="ok",
            solution=solution,
            telemetry=self._telemetry(
                pending,
                start,
                finish,
                tick,
                batch_size=1,
                cache=None,
                path="incremental",
                arm=INNER_SOLVER,
            ),
        )

    # ------------------------------------------------------------------
    # response assembly
    # ------------------------------------------------------------------
    def _telemetry(
        self,
        pending: _Pending,
        start: float,
        finish: float,
        tick: int,
        batch_size: int,
        cache: Optional[str],
        path: Optional[str],
        arm: Optional[str],
    ) -> Dict[str, object]:
        return {
            "arrival_s": pending.arrival_s,
            "start_s": start,
            "finish_s": finish,
            "queue_wait_s": max(start - pending.arrival_s, 0.0),
            "service_s": finish - start,
            "batch_size": batch_size,
            "cache": cache,
            "path": path,
            "arm": arm,
            "tick": tick,
        }

    def _error_response(
        self, pending: _Pending, exc: ReproError, tick: int
    ) -> ServeResponse:
        now = self.clock.now()
        return ServeResponse(
            request_id=pending.seq,
            tenant=pending.request.tenant,
            kind=pending.request.kind,
            status="error",
            error=type(exc).__name__,
            detail=str(exc),
            telemetry=self._telemetry(
                pending, now, now, tick, batch_size=1, cache=None, path=None, arm=None
            ),
        )


def _chosen_arm(solution: Solution) -> str:
    """The arm that produced the incumbent (``"empty"`` when none improved)."""
    slo = solution.meta.get("slo")
    if not isinstance(slo, dict):
        return str(solution.meta.get("algorithm", "unknown"))
    chosen = "empty"
    for entry in slo.get("arms_tried", ()):
        if entry.get("improved"):
            chosen = entry.get("arm", chosen)
    return chosen
