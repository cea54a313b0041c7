"""The layer map of the traced run: what it wraps and what it reports.

Each layer is traced at the attribute its callers read: the façade's
module globals for the names it imported, class attributes for methods,
and the HkS portfolio's engine table for the Lovász arm.  The A^BCC stage
times and the tracker counters come from the program's own profiler
(:func:`repro.profile.activate` with a :class:`PhaseProfiler`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import repro.algorithms
import repro.baselines
from repro.dks import portfolio as dks_portfolio
from repro.dks.portfolio import HksPortfolio
from repro.incremental import engine as incremental_engine
from repro.incremental.engine import IncrementalSolver
from repro.parallel import pool as parallel_pool
from repro.parallel.cache import ResultCache
from repro.profile import PhaseProfiler
from repro.serving import facade as serving_facade
from repro.serving.facade import ServingFacade
from repro.slo import meta as slo_meta
from repro.slo.meta import AnytimeMetaSolver
from repro.verify import certificate as verify_certificate

from tracing import Tracer

#: Layers in the order the table prints them (outermost first).
LAYERS = (
    "serving.tick",
    "serving.group",
    "parallel.fingerprint",
    "parallel.cache.get",
    "parallel.cache.put",
    "verify.certify",
    "incremental.resolve",
    "slo.solve",
    "parallel.pool",
    "baselines.arm",
    "algorithms.bcc",
    "dks.portfolio",
    "dks.lovasz",
)

#: Spans that are one solver arm run by the task pool.
ARMS = ("baselines.arm", "algorithms.bcc")

#: solve_bcc stages as the program's profiler names them.
BCC_PHASES = (
    "prune",
    "knapsack",
    "qk_build",
    "qk_solve",
    "hks_arms",
    "cover_greedy",
    "pick_eval",
    "mc3",
    "swap_polish",
)


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points; ``tracer.restore()`` undoes it."""
    tracer.patch(ServingFacade, "tick", "serving.tick")
    # The façade serves one coalesced group (or one replan) per call of
    # these two methods; the span's weight is the requests it answers.
    tracer.patch(
        ServingFacade,
        "_execute_group",
        "serving.group",
        weigh=lambda facade, group, *rest: len(group.members),
    )
    tracer.patch(ServingFacade, "_execute_replan", "serving.group")
    for module, attr in (
        (serving_facade, "task_fingerprint"),
        (parallel_pool, "task_fingerprint"),
        (slo_meta, "instance_fingerprint"),
        (incremental_engine, "shard_fingerprints"),
    ):
        tracer.patch(module, attr, "parallel.fingerprint")
    tracer.patch(ResultCache, "get", "parallel.cache.get")
    tracer.patch(ResultCache, "put", "parallel.cache.put")
    # The certificate module's global serves the lazy imports in the
    # pool, the incremental engine and solve_bcc.
    for module, attr in (
        (serving_facade, "attach_certificate"),
        (verify_certificate, "attach_certificate"),
        (slo_meta, "verify_solution"),
    ):
        tracer.patch(module, attr, "verify.certify")
    tracer.patch(IncrementalSolver, "resolve_delta", "incremental.resolve")
    tracer.patch(AnytimeMetaSolver, "solve", "slo.solve")
    tracer.patch(slo_meta, "run_tasks", "parallel.pool")
    tracer.patch(incremental_engine, "run_tasks", "parallel.pool")
    # Registry arms import their solver from the package at call time.
    for attr in ("rand_bcc", "ig1_bcc", "ig2_bcc"):
        tracer.patch(repro.baselines, attr, "baselines.arm")
    tracer.patch(repro.algorithms, "solve_bcc", "algorithms.bcc")
    tracer.patch(HksPortfolio, "solve", "dks.portfolio")
    tracer.patch(dks_portfolio.ENGINES, "lovasz", "dks.lovasz")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _slo_breakdown(tracer: Tracer) -> Tuple[int, int, float]:
    """(meta-solves, arms they ran, seconds outside their pool batches)."""
    spans = tracer.spans
    solves = [i for i, span in enumerate(spans) if span.name == "slo.solve"]
    pool_seconds = {i: 0.0 for i in solves}
    pools = {}
    for index, span in enumerate(spans):
        if span.name == "parallel.pool" and span.parent in pool_seconds:
            pool_seconds[span.parent] += span.seconds
            pools[index] = span.parent
    arms = sum(1 for span in spans if span.name in ARMS and span.parent in pools)
    overhead = sum(spans[i].seconds - pool_seconds[i] for i in solves)
    return len(solves), arms, overhead


def layer_metrics(
    tracer: Tracer,
    profiler: PhaseProfiler,
    counters: Dict[str, float],
    ops: int,
    wall_s: float,
    overhead_pct: float,
) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """The per-layer metrics (name → (value, unit)) and a printable table."""
    table = tracer.layers()
    metrics: Dict[str, Tuple[float, str]] = {}
    lines = [f"{'layer':<24}{'calls':>10}{'total ms':>12}{'self ms':>12}{'self %':>8}"]
    for name in LAYERS:
        row = table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        share = 100.0 * _ratio(row["self_s"], wall_s)
        metrics[f"{name}.calls"] = (_ratio(row["calls"], ops), "calls/op")
        metrics[f"{name}.self_pct"] = (share, "%")
        lines.append(
            f"{name:<24}{row['calls']:>10}{1e3 * row['total_s']:>12.1f}"
            f"{1e3 * row['self_s']:>12.1f}{share:>8.2f}"
        )
    unattributed = 100.0 * _ratio(wall_s - tracer.top_level_seconds(), wall_s)
    lines.append(f"{'(unattributed)':<24}{'':>10}{'':>12}{'':>12}{unattributed:>8.2f}")

    wait, latency = tracer.queue_wait("serving.tick", "serving.group")
    solves, arms, schedule_s = _slo_breakdown(tracer)
    pool_tasks = sum(
        1
        for span in tracer.spans
        if span.name in ARMS
        and span.parent >= 0
        and tracer.spans[span.parent].name == "parallel.pool"
    )
    requests = counters.get("requests", 0.0)
    metrics.update(
        {
            "serving.queue_wait_pct": (100.0 * _ratio(wait, latency), "%"),
            "serving.coalesce_ratio": (_ratio(counters.get("coalesced", 0.0), requests), "ratio"),
            "parallel.cache.hit_rate": (
                _ratio(
                    counters.get("store_hits", 0.0),
                    counters.get("store_hits", 0.0) + counters.get("store_misses", 0.0),
                ),
                "ratio",
            ),
            "parallel.pool.tasks": (_ratio(pool_tasks, ops), "tasks/op"),
            "slo.arms_per_solve": (_ratio(arms, solves), "arms/solve"),
            "slo.schedule_overhead_pct": (100.0 * _ratio(schedule_s, wall_s), "%"),
            "incremental.dirty_shards": (
                _ratio(counters.get("dirty_shards", 0.0), counters.get("replans", 0.0)),
                "shards/replan",
            ),
            "incremental.profile_reuse": (
                _ratio(counters.get("reused_profiles", 0.0), counters.get("shards", 0.0)),
                "ratio",
            ),
            "dks.portfolio.memo_misses": (
                _ratio(profiler.counts.get("hks_memo_misses", 0), ops),
                "misses/op",
            ),
            "core.coverage.tracker_probes": (
                _ratio(profiler.counts.get("tracker_probes", 0), ops),
                "probes/op",
            ),
            "core.coverage.transpose_rebuilds": (
                _ratio(profiler.counts.get("transpose_rebuilds", 0), ops),
                "rebuilds/op",
            ),
            "trace.unattributed_pct": (unattributed, "%"),
            "trace.overhead_pct": (overhead_pct, "%"),
        }
    )
    for phase in BCC_PHASES:
        seconds = profiler.seconds.get(phase, 0.0)
        metrics[f"algorithms.bcc.{phase}_pct"] = (100.0 * _ratio(seconds, wall_s), "%")
    return metrics, lines
