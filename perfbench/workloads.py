"""The benchmark's workloads: seeded inputs, one timed pass, its checks.

Every workload builds its inputs from the seed alone, so one seed always
means the same work.  A pass runs the whole op list once; ``run.py``
repeats passes to fill the run.  At each break of a pass, outside its
timed region, a pass calls ``between()``, where ``run.py`` times
``setups_per_break`` more set-ups.  Each pass returns what it measured, a
digest of what the program answered, and the number of answers that
failed the first-principles check (:func:`repro.verify.verify_solution`
against the instance the answer was for).

- ``serve-warm``: one fixed 8-tenant Zipf trace of ``plan``/``what_if``
  requests, whose properties the seed renames, replayed through
  :class:`ServingFacade` against a result cache filled during set-up, so
  every coalesced group is a cache hit.
- ``serve-churn``: the same façade and client with a cold cache, and a
  ``replan`` (a write that mutates its tenant) at every
  ``CHURN_REPLAN_EVERY``-th request of one fixed trace whose tenants the
  seed renames.
- ``solve-wide``: ``solve_bcc`` on the fig3c Synthetic dataset at the
  SMALL scale (1500 queries, 950 properties) at the four fig3c budget
  fractions, with no serving, cache or meta-solver code.  The dataset is
  drawn once; the seed renames its properties.

Both serving workloads drive the façade through its own trace replay,
one client in a closed loop: it sends the requests of one trace window
(the façade's tick), waits until the tick has answered all of them, and
only then sends the next window.  A response is released when its tick
ends, so a request's latency is its tick's wall time.  The façade itself runs on the
tier-prior virtual clock (:func:`repro.serving.tier_prior_clock`): its
deadline admission is then a function of the seed alone, and a slow
moment on the machine cannot change which arms a cold solve runs.  All
timing here is on the wall clock, outside the façade.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import hashlib
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Tuple

import repro.algorithms
from repro.core.errors import CertificateError
from repro.core.model import BCCInstance
from repro.core.solution import Solution
from repro.datasets.synthetic import generate_synthetic
from repro.experiments.figures import BCC_FRACTIONS
from repro.experiments.runner import budget_sweep
from repro.experiments.scales import SMALL
from repro.incremental.delta import random_delta
from repro.mc3 import full_cover_cost
from repro.parallel.cache import ResultCache
from repro.parallel.seeding import derive_rng
from repro.serving import (
    ReplanRequest,
    ServeResponse,
    ServingConfig,
    ServingFacade,
    ServingTrace,
    TraceItem,
    generate_trace,
    tier_prior_clock,
)
from repro.verify import verify_solution

#: Pool width passed to every layer explicitly, whatever ``REPRO_JOBS`` says.
JOBS = 1
N_TENANTS = 8
DEADLINE_MS = 20.0
WARM_REQUESTS = 3000
CHURN_REQUESTS = 120
CHURN_REPLAN_EVERY = 40
#: Every workload renames one fixed source by the seed.
SOURCE_SEED = 0


@dataclass
class PassResult:
    """What one timed pass measured and answered."""

    ops: int
    wall_s: float
    cpu_s: float
    #: One (seconds, ops answered) per independent timing: a façade tick
    #: for serving, a solve for solve-wide.
    samples: List[Tuple[float, int]]
    utility: float
    errors: int
    invalid: int
    digest: str
    counters: Dict[str, float] = field(default_factory=dict)


def _solution_key(solution: Solution) -> list:
    """The answer content a digest covers: selection, cost, utility, arms."""
    slo = solution.meta.get("slo") if isinstance(solution.meta, dict) else None
    return [
        sorted(sorted(str(p) for p in c) for c in solution.classifiers),
        repr(solution.cost),
        repr(solution.utility),
        slo.get("schedule") if isinstance(slo, dict) else None,
    ]


def _digest(rows: List[list]) -> str:
    payload = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _is_valid(instance: BCCInstance, solution: Solution) -> bool:
    try:
        verify_solution(instance, solution, budget=instance.budget)
    except CertificateError:
        return False
    return True


class _Timer:
    """Wall and process CPU time of one timed region."""

    def __enter__(self) -> "_Timer":
        gc.collect()
        self.wall = time.perf_counter()
        self.cpu = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self.wall
        self.cpu = time.process_time() - self.cpu


# ----------------------------------------------------------------------
# the serving client
# ----------------------------------------------------------------------
def _facade(cache_dir: Path) -> ServingFacade:
    return ServingFacade(
        ServingConfig(
            clock=tier_prior_clock(),
            cache=ResultCache(directory=cache_dir, max_entries=8192),
            jobs=JOBS,
        )
    )


def _replay(
    facade: ServingFacade, trace: ServingTrace
) -> Tuple[List[ServeResponse], List[Tuple[float, int]]]:
    """Replay ``trace`` through the façade's own loop, timing every tick.

    :meth:`ServingFacade.replay_async` is the one client: it sends a
    window of requests, awaits the tick that answers them, then sends the
    next window.  A response is released when its tick ends, so each
    request's latency is its tick's wall time.  One tick is one timing
    sample, weighed by the requests it answered.
    """
    ticks: List[Tuple[float, int]] = []

    async def timed_tick() -> List[ServeResponse]:
        start = time.perf_counter()
        # Read from the class at call time, so a traced run sees its wrapper.
        responses = await ServingFacade.tick(facade)
        ticks.append((time.perf_counter() - start, len(responses)))
        return responses

    facade.tick = timed_tick
    try:
        responses = asyncio.run(facade.replay_async(trace, register=False))
    finally:
        del facade.tick
    return responses, ticks


def _effective(instance: BCCInstance, request) -> BCCInstance:
    """The instance a read asks about: the tenant's, at the request's budget.

    The traces here carry no hypothetical deltas, only budgets.
    """
    budget = getattr(request, "budget", None)
    return instance if budget is None else instance.with_budget(budget)


def _check_responses(
    trace: ServingTrace, responses: List[ServeResponse]
) -> Tuple[int, int, float, List[list]]:
    """Re-verify every answer against its effective instance, in trace order.

    Returns (error responses, answers failing verification, covered
    utility summed over answers, digest rows).  Identical answers to the
    same question are verified once.
    """
    state = {name: instance.clone() for name, instance in trace.tenants.items()}
    writes = {name: 0 for name in state}
    verified: Dict[tuple, bool] = {}
    errors = invalid = 0
    utility = 0.0
    rows: List[list] = []
    for item, response in zip(trace.items, responses):
        request = item.request
        telemetry = response.telemetry
        row = [response.request_id, response.kind, response.status, response.error]
        row += [telemetry.get("cache"), telemetry.get("path"), telemetry.get("batch_size")]
        if not response.ok:
            errors += 1
            rows.append(row)
            continue
        tenant = request.tenant
        key = _solution_key(response.solution)
        row.append(key)
        rows.append(row)
        if isinstance(request, ReplanRequest):
            state[tenant].apply_delta(request.delta)
            writes[tenant] += 1
            valid = _is_valid(state[tenant], response.solution)
        else:
            question = (tenant, writes[tenant], getattr(request, "budget", None), repr(key))
            if question not in verified:
                verified[question] = _is_valid(
                    _effective(state[tenant], request), response.solution
                )
            valid = verified[question]
        invalid += not valid
        utility += response.solution.utility
    return errors, invalid, utility, rows


def _serve_pass(
    facade: ServingFacade, trace: ServingTrace, between: Callable[[], None]
) -> PassResult:
    before = facade.counters.snapshot()
    store = facade.cache.stats
    store_before = (store.hits, store.misses)
    with _Timer() as timer:
        responses, ticks = _replay(facade, trace)
    after = facade.counters.snapshot()
    between()
    errors, invalid, utility, rows = _check_responses(trace, responses)
    counters = {
        name: after[name] - before[name]
        for name in (
            "requests", "ticks", "solves", "replans", "cache_hits", "cache_misses", "coalesced"
        )
    }
    counters["store_hits"] = store.hits - store_before[0]
    counters["store_misses"] = store.misses - store_before[1]
    for name in ("dirty_shards", "reused_profiles", "shards"):
        counters[name] = sum(
            response.solution.meta["incremental"][name]
            for response in responses
            if response.ok and response.kind == "replan"
        )
    return PassResult(
        ops=len(responses),
        wall_s=timer.wall,
        cpu_s=timer.cpu,
        samples=ticks,
        utility=utility,
        errors=errors,
        invalid=invalid,
        digest=_digest(rows),
        counters=counters,
    )


# ----------------------------------------------------------------------
# inputs: one fixed source per workload, renamed by the seed
# ----------------------------------------------------------------------
def _renaming(props: Iterable[str], rng: random.Random) -> Callable[[Iterable[str]], frozenset]:
    """A seeded one-to-one renaming of ``props`` applied to property sets."""
    names = sorted(set(props))
    mapping = dict(zip(names, rng.sample(names, len(names))))
    return lambda props_of: frozenset(mapping[prop] for prop in props_of)


def relabel(instance: BCCInstance, rename, rng: random.Random) -> BCCInstance:
    """``instance`` under renamed properties, with its queries reordered.

    Utilities, costs and the budget travel with their queries and
    classifiers, so the result is the same problem under other names:
    its size and shape — and so the work a solver does on it — stay those
    of the source, while the names, hashes and sort orders change.
    """
    queries = [rename(query) for query in instance.queries]
    utilities = {rename(query): instance.utility(query) for query in instance.queries}
    rng.shuffle(queries)
    costs = {rename(c): cost for c, cost in instance._costs.items()}
    return BCCInstance(
        queries,
        utilities,
        costs,
        budget=instance.budget,
        default_utility=instance.default_utility,
        default_cost=instance.default_cost,
    )


def _reads(n_requests: int) -> ServingTrace:
    """The fixed 8-tenant Zipf trace of ``plan`` and ``what_if`` requests."""
    return generate_trace(
        n_requests=n_requests,
        n_tenants=N_TENANTS,
        seed=SOURCE_SEED,
        deadline_ms=DEADLINE_MS,
        replan_fraction=0.0,
        what_if_fraction=0.10,
        budget_levels=2,
    )


def _churn_source() -> ServingTrace:
    """The fixed churn trace: reads with a replan every ``CHURN_REPLAN_EVERY`` slots.

    A replan goes to the tenant the Zipf draw picked for that slot; its
    delta is drawn against a scratch copy that applies the earlier
    deltas, so every replan is valid for the state it will meet.
    """
    reads = _reads(CHURN_REQUESTS)
    scratch = {name: instance.clone() for name, instance in reads.tenants.items()}
    rng = derive_rng("perfbench-churn", SOURCE_SEED)
    items = []
    for item in reads.items:
        if item.seq % CHURN_REPLAN_EVERY == CHURN_REPLAN_EVERY - 1:
            tenant = item.request.tenant
            delta = random_delta(scratch[tenant], rng, fraction=0.05)
            scratch[tenant].apply_delta(delta)
            item = TraceItem(
                item.seq, item.arrival_s, ReplanRequest(tenant, delta, deadline_ms=DEADLINE_MS)
            )
        items.append(item)
    return ServingTrace(tenants=reads.tenants, items=items)


def renamed_trace(source: ServingTrace, seed: int) -> ServingTrace:
    """``source`` with every tenant's properties renamed by ``seed``.

    Fresh read traces differ by 20% in throughput and covered utility,
    which would swamp the run-to-run spread the benchmark gates on.  A
    renamed copy keeps the work and changes the inputs.
    """
    rng = random.Random(seed)
    tenants = {}
    for name in sorted(source.tenants):
        instance = source.tenants[name]
        props = {prop for key in list(instance.queries) + list(instance._costs) for prop in key}
        tenants[name] = relabel(instance, _renaming(props, rng), rng)
    return ServingTrace(tenants=tenants, items=list(source.items))


def renamed_tenants(source: ServingTrace, seed: int) -> ServingTrace:
    """``source`` with its tenants renamed by ``seed``, and nothing else.

    The solvers never read a tenant's name.  Renaming properties instead
    changes their tie-breaks, and over the three replans of a churn pass
    that moved throughput by as much as 40% from one seed to the next.
    """
    rng = random.Random(seed)
    numbers = rng.sample(range(1_000_000), len(source.tenants))
    names = {
        name: f"tenant{number:06d}" for name, number in zip(sorted(source.tenants), numbers)
    }
    items = [
        TraceItem(
            item.seq,
            item.arrival_s,
            dataclasses.replace(item.request, tenant=names[item.request.tenant]),
        )
        for item in source.items
    ]
    return ServingTrace(
        tenants={names[name]: instance for name, instance in source.tenants.items()},
        items=items,
    )


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class ServeWarm:
    """Warm reads: every coalesced group is answered from the cache."""

    name = "serve-warm"
    op = "one plan or what_if request"
    setups_per_break = 1

    def setup(self, seed: int, workdir: Path):
        trace = renamed_trace(_reads(WARM_REQUESTS), seed)
        facade = _facade(workdir / "cache")
        for name in sorted(trace.tenants):
            facade.register_tenant(name, trace.tenants[name])
        # The fill solves every distinct question once; timed passes replay
        # the whole trace and find all of them in the cache.
        questions = {}
        for item in trace.items:
            questions.setdefault((item.request.tenant, getattr(item.request, "budget", None)), item)
        facade.replay(
            ServingTrace(tenants=trace.tenants, items=list(questions.values())), register=False
        )
        return facade, trace

    def run_pass(self, state, workdir: Path, between: Callable[[], None]) -> PassResult:
        facade, trace = state
        return _serve_pass(facade, trace, between)


class ServeChurn:
    """Writes mixed into reads: replans invalidate, cold solves refill."""

    name = "serve-churn"
    op = "one plan, what_if or replan request"
    setups_per_break = 1

    def setup(self, seed: int, workdir: Path):
        return renamed_tenants(_churn_source(), seed)

    def run_pass(
        self, trace: ServingTrace, workdir: Path, between: Callable[[], None]
    ) -> PassResult:
        # Every pass starts cold: fresh façade, tenants and cache directory.
        cache_dir = workdir / "cache"
        facade = _facade(cache_dir)
        for name in sorted(trace.tenants):
            facade.register_tenant(name, trace.tenants[name])
        try:
            return _serve_pass(facade, trace, between)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)


class SolveWide:
    """The paper's wide A^BCC sweep: four budgets on 950 properties."""

    name = "solve-wide"
    op = "one A^BCC solve (solve_bcc) at one budget"
    # A run holds one pass of four long solves, and a set-up takes about
    # 0.1 s: many set-ups at each break spread them over the run.
    setups_per_break = 8

    def setup(self, seed: int, workdir: Path) -> List[BCCInstance]:
        # The seed relabels one fixed dataset instead of drawing a new
        # one: fresh Synthetic draws differ by up to 1.5x in solve time,
        # which would swamp the run-to-run spread the benchmark gates on.
        source = generate_synthetic(
            SMALL.s_queries, SMALL.s_properties, seed=SOURCE_SEED
        )
        rng = random.Random(seed)
        props = {prop for query in source.queries for prop in query}
        instance = relabel(source, _renaming(props, rng), rng)
        budgets = budget_sweep(full_cover_cost(instance), BCC_FRACTIONS)
        return [instance.with_budget(budget) for budget in budgets]

    def run_pass(
        self, instances: List[BCCInstance], workdir: Path, between: Callable[[], None]
    ) -> PassResult:
        solutions: List[Solution] = []
        samples: List[Tuple[float, int]] = []
        cpu_s = 0.0
        for instance in instances:
            with _Timer() as timer:
                # Looked up at call time, so a traced run sees its wrapper.
                solutions.append(repro.algorithms.solve_bcc(instance))
            samples.append((timer.wall, 1))
            cpu_s += timer.cpu
            between()
        invalid = sum(
            not _is_valid(instance, solution)
            for instance, solution in zip(instances, solutions)
        )
        return PassResult(
            ops=len(solutions),
            wall_s=sum(seconds for seconds, _ in samples),
            cpu_s=cpu_s,
            samples=samples,
            utility=sum(solution.utility for solution in solutions),
            errors=0,
            invalid=invalid,
            digest=_digest([_solution_key(solution) for solution in solutions]),
        )


WORKLOADS = {workload.name: workload for workload in (ServeWarm(), ServeChurn(), SolveWide())}
